//! The experiment registry: every table/figure of the paper's evaluation,
//! name → runner function: one catalogue that the `experiments` binary and
//! the determinism test suite share.

use crate::experiments;
use crate::{HarnessArgs, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Everything an experiment run depends on. Experiments must be deterministic
/// in `(seed, scale)` and invariant in `threads`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunCtx {
    /// RNG master seed; per-shard streams are derived from it via
    /// [`stream_seed`](crate::par::stream_seed).
    pub seed: u64,
    /// Worker threads for the parallel sweeps.
    pub threads: usize,
    /// Scale factor on sample counts / trial counts / trace lengths
    /// (`1.0` = paper-sized, smaller = proportionally cheaper smoke run).
    pub scale: f64,
}

impl Default for RunCtx {
    fn default() -> Self {
        RunCtx {
            seed: 42,
            threads: 1,
            scale: 1.0,
        }
    }
}

impl RunCtx {
    /// Builds the context from parsed CLI flags.
    pub fn from_args(args: &HarnessArgs) -> Self {
        RunCtx {
            seed: args.seed,
            threads: args.threads,
            scale: args.scale,
        }
    }

    /// The experiment's master RNG (for experiments that sample sequentially).
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }

    /// Scales an iteration count (samples, trials, bits), never below 1.
    pub fn count(&self, full: usize) -> usize {
        ((full as f64 * self.scale).round() as usize).max(1)
    }

    /// Scales a trace duration in days, never below two days (the fault
    /// generator needs room for at least a couple of repair cycles).
    pub fn days(&self, full: f64) -> f64 {
        (full * self.scale).max(2.0)
    }

    /// Scales a sweep-point list by keeping a proportional prefix (at least
    /// one point) — how smoke runs trim the expensive outer loops of an
    /// experiment without changing any retained point.
    pub fn select<'a, T>(&self, items: &'a [T]) -> &'a [T] {
        let keep = ((items.len() as f64 * self.scale).ceil() as usize).clamp(1, items.len());
        &items[..keep]
    }
}

/// A registered experiment.
pub struct Experiment {
    /// Stable name — the argument of `experiments --only <name>`.
    pub name: &'static str,
    /// Which part of the evaluation the experiment reproduces.
    pub group: &'static str,
    /// One-line description for `EXPERIMENTS.md` and `--list`.
    pub summary: &'static str,
    /// The runner.
    pub run: fn(&RunCtx) -> Vec<Table>,
}

macro_rules! registry {
    ($( $module:ident / $group:literal / $summary:literal ),* $(,)?) => {
        &[ $( Experiment {
            name: stringify!($module),
            group: $group,
            summary: $summary,
            run: experiments::$module::run,
        }, )* ]
    };
}

/// Every experiment of the evaluation, in EXPERIMENTS.md presentation order.
pub fn all() -> &'static [Experiment] {
    registry![
        fig10_11_insertion_loss
            / "Device (§5.1)"
            / "OCSTrx insertion loss vs temperature, and its distribution",
        fig10b_power / "Device (§5.1)" / "OCSTrx core-module power per path and temperature",
        fig12_ber / "Device (§5.1)" / "OCSTrx bit-error rate vs OMA and temperature",
        sec52_allreduce_util
            / "Prototype (§5.2)"
            / "Ring-AllReduce bandwidth utilisation of the prototype rings",
        ext_failover_recovery
            / "Control plane (§5.2)"
            / "Single-fault recovery cost vs ring degree K",
        sim_seeds
            / "Control plane (§5.2)"
            / "Seeded adversarial-schedule convergence sweep of the control-plane simulator",
        table2_llama_mfu
            / "Training (§6.1)"
            / "Llama 3.1-405B optimal parallelism and MFU vs the TP-8 cap",
        table3_traffic_volume / "Training (§6.1)" / "Per-MoE-layer TP vs EP communication volume",
        table4_tp_vs_ep / "Training (§6.1)" / "TP vs EP MFU under expert imbalance",
        table5_moe_mfu / "Training (§6.1)" / "GPT-MoE optimal parallelism and MFU",
        fig13_waste_cdf
            / "Fault resilience (§6.2)"
            / "GPU waste-ratio CDF summary over the production-calibrated trace",
        fig14_waste_vs_fault
            / "Fault resilience (§6.2)"
            / "Waste ratio vs node fault ratio (parallel Monte-Carlo sweep)",
        fig15_max_job
            / "Fault resilience (§6.2)"
            / "Maximal job scale supported over the fault trace",
        fig16_fault_waiting / "Fault resilience (§6.2)" / "Job fault-waiting rate vs job scale",
        fig18_trace_stats
            / "Fault resilience (§6.2)"
            / "Macro statistics of the generated production fault trace",
        fig20_waste_timeseries
            / "Fault resilience (§6.2)"
            / "Waste ratio over the trace, per architecture",
        fig17a_cluster_size
            / "Orchestration (§6.3)"
            / "Cross-ToR rate vs cluster size (binary-searched constraints)",
        fig17b_job_scale
            / "Orchestration (§6.3)"
            / "Cross-ToR rate vs job-scale ratio on the 8,192-GPU cluster",
        fig17c_fault_ratio
            / "Orchestration (§6.3)"
            / "Cross-ToR rate vs node fault ratio on the 8,192-GPU cluster",
        ext_dcn_congestion
            / "Orchestration (§6.3)"
            / "Flow-level DP AllReduce slowdown vs ToR oversubscription",
        ext_pp_traffic
            / "Traffic engine (ext)"
            / "DCN traffic mix (DP/PP/CP epochs) per parallelism plan",
        ext_multijob_interference
            / "Traffic engine (ext)"
            / "Per-job slowdown and hot links in a 3-job mix on one Fat-Tree",
        ext_interference_vs_jobs
            / "Traffic engine (ext)"
            / "Interference growth vs concurrent job count, per placement policy",
        ext_replay_scale
            / "Traffic engine (ext)"
            / "Replay-engine cost counters and throughput vs job-mix size",
        ext_lifecycle_slo
            / "Lifecycle (ext)"
            / "Online job-lifecycle SLOs per admission policy (FIFO / backfill / defrag)",
        ext_lifecycle_churn
            / "Lifecycle (ext)"
            / "Lifecycle queueing and goodput vs offered load (saturation knee)",
        ext_lifecycle_faults
            / "Lifecycle (ext)"
            / "Lifecycle churn and SLOs vs steady-state fault ratio",
        ext_service_throughput
            / "Service (ext)"
            / "Placement-service sustained load, batching sweep and modeled tail latency",
        ext_incremental_publish
            / "Service (ext)"
            / "Delta-published epochs: segment reuse and modeled publish latency vs churn rate",
        ext_overload_shedding
            / "Robustness (ext)"
            / "Offered-load sweep past saturation: bounded p99 with admission control vs collapse",
        ext_fault_storms
            / "Robustness (ext)"
            / "Correlated fault-storm sweep: degraded answers, breaker transitions and recovery",
        fig17d_aggregate_cost / "Economics (§6.4)" / "Normalized aggregate cost vs fault ratio",
        table6_cost_power / "Economics (§6.4)" / "Interconnect cost and power per GPU and per GBps",
        table7_waste_bound
            / "Theory (App. C)"
            / "Closed-form upper bound on the expected waste ratio",
        table8_bom / "Economics (App. F)" / "Component-level bill of materials per architecture",
        appg_alltoall / "AllToAll (App. G)" / "AllToAll algorithm comparison incl. Binary Exchange",
        appg_alltoall_fastswitch
            / "AllToAll (App. G)"
            / "Fast-switched Binary Exchange vs ring AllToAll",
    ]
}

/// Looks an experiment up by exact name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    all().iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_experiments_with_unique_names() {
        let experiments = all();
        assert_eq!(experiments.len(), 37);
        let mut names: Vec<&str> = experiments.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), experiments.len());
    }

    #[test]
    fn find_resolves_names() {
        assert!(find("fig14_waste_vs_fault").is_some());
        assert!(find("no_such_experiment").is_none());
    }

    #[test]
    fn ctx_scaling_helpers_are_sane() {
        let ctx = RunCtx {
            seed: 1,
            threads: 2,
            scale: 0.1,
        };
        assert_eq!(ctx.count(348), 35);
        assert_eq!(ctx.count(1), 1);
        assert!((ctx.days(348.0) - 34.8).abs() < 1e-9);
        assert_eq!(ctx.days(10.0), 2.0);
        let items = [1, 2, 3, 4, 5];
        assert_eq!(ctx.select(&items), &[1]);
        let full = RunCtx::default();
        assert_eq!(full.select(&items), &items);
    }
}
