//! The multi-epoch, multi-job traffic engine.
//!
//! [`FlowSimulation`](crate::simulator::FlowSimulation) solves **one** flow
//! set with **one** max-min allocation; this module replays **several jobs'
//! epoch cycles concurrently** on the shared fabric. The replay is a
//! progressive-filling fluid simulation:
//!
//! 1. every job exposes the flows of its *current* epoch (a job advances to
//!    its next epoch only when all flows of the current one complete — the
//!    barrier semantics of collectives);
//! 2. the max-min fair allocation of all concurrently live flows is computed
//!    ([`crate::maxmin`]);
//! 3. time advances to the next flow completion, remaining volumes are
//!    debited, and the allocation is re-solved.
//!
//! Because rates are re-solved at every completion, a job's epochs stretch
//! exactly where — and only where — another job's traffic shares a link with
//! it. Comparing the shared replay against each job's isolated replay yields
//! the interference metrics of [`MixOutcome`]: per-job slowdown, p99 epoch
//! stretch, and the link hot-spot profile. This is the shared-fabric
//! contention regime the paper's placement algorithm is designed to avoid
//! (§4.3, §6.3): InfiniteHBD confines TP/EP inside the optical HBD, and the
//! engine quantifies what the *remaining* DP/PP/CP spill-over does to the
//! electrical DCN when several jobs land on it at once.
//!
//! # How the event loop stays fast
//!
//! The engine is built around the incremental
//! [`crate::maxmin::MaxMinSolver`] and avoids per-event work
//! wherever the fluid model provably cannot change:
//!
//! * **CSR route tables.** Every epoch *template* is routed once up front into
//!   a flattened offsets + links array ([`DcnNetwork::route_links_into`]);
//!   epoch instances borrow `&[usize]` slices out of it — no per-event route
//!   allocation.
//! * **Persistent live-flow set.** The live flow list (and its rates) is kept
//!   between events and compacted in place on completions; it is only rebuilt
//!   (in canonical job-then-flow order, preserving the exact float summation
//!   order of the utilisation pass) when an epoch barrier admits new flows.
//! * **Skipped re-solves.** When the flows completing at an event free only
//!   links that no surviving flow traverses, the max-min allocation of the
//!   survivors is unchanged (a link-disjoint component dropped out), so the
//!   engine reuses the previous rates instead of re-solving — bit-identical
//!   by the solver's progressive-filling structure. [`ReplayStats`] counts
//!   how often this fires.
//! * **Parallel isolated baselines.** The per-job isolated replays that
//!   [`replay_mix_par`] compares against are independent by construction and
//!   fan out over [`hbd_types::par`], byte-identical for any thread count.

use crate::maxmin::MaxMinSolver;
use crate::network::DcnNetwork;
use crate::traffic::JobTraffic;
use hbd_types::par::par_try_map;
use hbd_types::{GBps, Result, Seconds};

/// Remaining volume below which a flow counts as complete (bytes). Epoch
/// volumes are gigabytes-scale, so this absorbs float rounding only.
const COMPLETE_EPS: f64 = 1e-6;

/// One job's share of a replayed mix.
#[derive(Debug, Clone, PartialEq)]
pub struct JobInterference {
    /// Job name (from [`JobTraffic`]).
    pub name: String,
    /// Time the job took in the shared replay.
    pub shared_time: Seconds,
    /// Time the same job takes alone on the same network.
    pub isolated_time: Seconds,
    /// `shared_time / isolated_time` — 1.0 means the mix did not slow this
    /// job down at all.
    pub slowdown: f64,
    /// Mean per-epoch stretch (shared epoch duration / isolated duration).
    pub mean_stretch: f64,
    /// 99th-percentile per-epoch stretch (nearest-rank over all epoch
    /// instances of the replay).
    pub p99_stretch: f64,
    /// Per-epoch-instance durations in the shared replay, in replay order.
    pub epoch_times: Vec<Seconds>,
}

/// Cost counters of one replay — the engine's own performance telemetry
/// (simulation-deterministic: identical inputs give identical counters).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReplayStats {
    /// Completion events processed (each advances time to the next finishing
    /// flow).
    pub events: usize,
    /// Events that re-solved the max-min allocation.
    pub full_solves: usize,
    /// Events that reused the previous allocation because the completed flows
    /// freed only links no surviving flow traverses.
    pub skipped_solves: usize,
    /// Water-filling rounds summed over all full solves.
    pub solver_rounds: usize,
    /// Epoch instances replayed across all jobs (including zero-time
    /// local-only epochs).
    pub epoch_instances: usize,
}

impl ReplayStats {
    /// Mean water-filling rounds per completion event (0.0 for an empty
    /// replay) — the quantity the incremental solver keeps small.
    pub fn rounds_per_event(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.solver_rounds as f64 / self.events as f64
        }
    }
}

/// The outcome of replaying a job mix on a shared DCN.
#[derive(Debug, Clone, PartialEq)]
pub struct MixOutcome {
    /// Per-job interference metrics, in input order.
    pub jobs: Vec<JobInterference>,
    /// Time until the last job finished.
    pub makespan: Seconds,
    /// Peak utilisation (allocated load / capacity) each link reached at any
    /// point of the shared replay, indexed by link id.
    pub link_peak_utilization: Vec<f64>,
    /// Cost counters of the shared replay (the isolated baselines are not
    /// included).
    pub stats: ReplayStats,
}

impl MixOutcome {
    /// Number of links whose peak utilisation reached `threshold` (e.g. 0.95
    /// for "ran essentially full at some point").
    pub fn hot_links(&self, threshold: f64) -> usize {
        self.link_peak_utilization
            .iter()
            .filter(|&&u| u >= threshold)
            .count()
    }

    /// Histogram of per-link peak utilisation over the given bucket `edges`.
    ///
    /// Boundary convention: buckets are **right-open** — a utilisation `u`
    /// lands in the first bucket whose edge `e` satisfies `u < e`, so a value
    /// exactly on an edge lands in the bucket *at or above* that edge, and
    /// the last bucket catches everything at or above the final edge. Links
    /// that never carried traffic (`u <= 0`) are excluded.
    ///
    /// The edges are sanitised before binning: non-finite edges are dropped,
    /// the rest are sorted and de-duplicated. The returned histogram always
    /// has `sanitised_edges + 1` buckets (a single catch-all bucket for empty
    /// or all-invalid `edges`) — unsorted or duplicate edges therefore change
    /// the *shape*, never silently mis-bin. The previous implementation
    /// scanned the edges in input order, so an unsorted list could bin a
    /// mid-range utilisation into the wrong bucket and a duplicate edge
    /// produced a phantom always-empty bucket.
    pub fn utilization_histogram(&self, edges: &[f64]) -> Vec<usize> {
        let mut edges: Vec<f64> = edges.iter().copied().filter(|e| e.is_finite()).collect();
        edges.sort_by(f64::total_cmp);
        edges.dedup();
        let mut counts = vec![0usize; edges.len() + 1];
        for &util in &self.link_peak_utilization {
            if util <= 0.0 {
                continue;
            }
            // Sorted edges: partition_point is the first bucket with util < e.
            let bucket = edges.partition_point(|&e| e <= util);
            counts[bucket] += 1;
        }
        counts
    }

    /// The worst per-job slowdown of the mix (1.0 for an empty mix).
    pub fn max_slowdown(&self) -> f64 {
        self.jobs.iter().map(|j| j.slowdown).fold(1.0, f64::max)
    }

    /// The mean per-job slowdown of the mix (1.0 for an empty mix).
    pub fn mean_slowdown(&self) -> f64 {
        if self.jobs.is_empty() {
            return 1.0;
        }
        self.jobs.iter().map(|j| j.slowdown).sum::<f64>() / self.jobs.len() as f64
    }
}

/// Raw timing of one replay (shared or isolated).
#[derive(Debug, Clone, PartialEq)]
struct ReplayTimeline {
    /// Per job: durations of every epoch instance, in replay order.
    epoch_times: Vec<Vec<Seconds>>,
    /// Per job: total active time (sum of its epoch durations).
    totals: Vec<Seconds>,
    /// Wall-clock until the last job finished.
    makespan: Seconds,
    /// Peak utilisation per link.
    link_peak_utilization: Vec<f64>,
    /// Cost counters of the event loop.
    stats: ReplayStats,
}

/// Flattened (CSR) routes of one epoch template: flow `f`'s links are
/// `links[offsets[f]..offsets[f + 1]]`.
struct EpochRoutes {
    offsets: Vec<usize>,
    links: Vec<usize>,
}

impl EpochRoutes {
    fn route(&self, f: usize) -> &[usize] {
        &self.links[self.offsets[f]..self.offsets[f + 1]]
    }
}

/// Per-job mutable state of the event loop.
struct JobState {
    /// Index of the current epoch instance (`0 .. iterations × epochs`).
    instance: usize,
    /// Remaining bytes of the current epoch's flows.
    remaining: Vec<f64>,
    /// Flows of the current epoch still above [`COMPLETE_EPS`].
    live: usize,
    /// When the current epoch started.
    epoch_start: f64,
    /// Completed epoch durations.
    durations: Vec<Seconds>,
    /// When the job finished all instances.
    finished_at: f64,
}

/// Replays several jobs' epoch cycles concurrently and reports per-job
/// interference against their isolated runs.
///
/// The shared replay and the per-job isolated baseline replays fan out over
/// up to `threads` worker threads ([`hbd_types::par`]). Each replay is a pure
/// fluid computation and the replays are independent by construction, so the
/// outcome is byte-identical for any thread count; only wall-clock changes.
pub fn replay_mix_par(
    network: &DcnNetwork,
    jobs: &[JobTraffic],
    threads: usize,
) -> Result<MixOutcome> {
    // One fan-out over N + 1 independent replays: the shared mix (the most
    // expensive one — every job's events interleaved) plus the N isolated
    // baselines, so the shared replay overlaps the baselines instead of
    // serialising in front of them.
    let mut replay_sets: Vec<&[JobTraffic]> = Vec::with_capacity(jobs.len() + 1);
    replay_sets.push(jobs);
    replay_sets.extend(jobs.iter().map(std::slice::from_ref));
    let mut timelines: Vec<ReplayTimeline> =
        par_try_map(threads, &replay_sets, |_, set| replay(network, set))?;
    let shared = timelines.remove(0);
    let isolated = timelines;
    let mut outcomes = Vec::with_capacity(jobs.len());
    // One scratch pair for all jobs: stretches in replay order (the mean must
    // sum in that order) and a sorted copy for the percentile.
    let mut stretches: Vec<f64> = Vec::new();
    let mut sorted: Vec<f64> = Vec::new();
    for (j, (job, isolated)) in jobs.iter().zip(&isolated).enumerate() {
        let shared_time = shared.totals[j];
        let isolated_time = isolated.totals[0];
        stretches.clear();
        stretches.extend(
            shared.epoch_times[j]
                .iter()
                .zip(&isolated.epoch_times[0])
                .map(|(s, i)| {
                    if i.value() > 0.0 {
                        s.value() / i.value()
                    } else {
                        1.0
                    }
                }),
        );
        let mean_stretch = if stretches.is_empty() {
            1.0
        } else {
            stretches.iter().sum::<f64>() / stretches.len() as f64
        };
        sorted.clear();
        sorted.extend_from_slice(&stretches);
        sorted.sort_by(f64::total_cmp);
        outcomes.push(JobInterference {
            name: job.name.clone(),
            shared_time,
            isolated_time,
            slowdown: if isolated_time.value() > 0.0 {
                shared_time.value() / isolated_time.value()
            } else {
                1.0
            },
            mean_stretch,
            p99_stretch: percentile_sorted(&sorted, 0.99),
            epoch_times: shared.epoch_times[j].clone(),
        });
    }
    Ok(MixOutcome {
        jobs: outcomes,
        makespan: shared.makespan,
        link_peak_utilization: shared.link_peak_utilization,
        stats: shared.stats,
    })
}

/// Nearest-rank percentile (`q` in `0..=1`) of an already **sorted** sample;
/// 1.0 for an empty sample (the neutral stretch). Callers keep one sorted
/// scratch buffer instead of cloning and sorting per call.
fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 1.0;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1] || w[1].is_nan()));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Loads the next epoch instance of job `state`, completing instantly any
/// epoch whose flows are all local (they never touch the DCN), and registering
/// the links of the newly live flows in `live_users`.
fn activate(
    state: &mut JobState,
    job: &JobTraffic,
    routes: &[EpochRoutes],
    now: f64,
    live_users: &mut [usize],
) {
    while state.instance < job.total_instances() {
        let epoch = state.instance % job.epochs.len();
        let epoch_routes = &routes[epoch];
        state.remaining.clear();
        state.live = 0;
        for (f, flow) in job.epochs[epoch].flows.iter().enumerate() {
            let remaining = if epoch_routes.route(f).is_empty() {
                0.0 // local flow: completes instantly
            } else {
                flow.bytes.value()
            };
            if remaining > COMPLETE_EPS {
                state.live += 1;
                for &l in epoch_routes.route(f) {
                    live_users[l] += 1;
                }
            }
            state.remaining.push(remaining);
        }
        if state.live > 0 {
            state.epoch_start = now;
            return;
        }
        // Nothing reaches the DCN: the epoch takes zero time.
        state.durations.push(Seconds::ZERO);
        state.instance += 1;
    }
    state.finished_at = now;
}

/// The progressive-filling event loop.
fn replay(network: &DcnNetwork, jobs: &[JobTraffic]) -> Result<ReplayTimeline> {
    // Route every epoch template once into CSR tables; instances borrow the
    // routes as slices.
    let mut routes: Vec<Vec<EpochRoutes>> = Vec::with_capacity(jobs.len());
    for job in jobs {
        let mut per_epoch = Vec::with_capacity(job.epochs.len());
        for epoch in &job.epochs {
            let mut csr = EpochRoutes {
                offsets: Vec::with_capacity(epoch.flows.len() + 1),
                links: Vec::new(),
            };
            csr.offsets.push(0);
            for flow in &epoch.flows {
                network.route_links_into(flow, &mut csr.links)?;
                csr.offsets.push(csr.links.len());
            }
            per_epoch.push(csr);
        }
        routes.push(per_epoch);
    }

    let capacities: Vec<GBps> = network.capacities();
    let n_links = capacities.len();
    let mut peak_util = vec![0.0f64; n_links];
    let mut now = 0.0f64;
    let mut stats = ReplayStats::default();

    let mut states: Vec<JobState> = jobs
        .iter()
        .map(|_| JobState {
            instance: 0,
            remaining: Vec::new(),
            live: 0,
            epoch_start: 0.0,
            durations: Vec::new(),
            finished_at: 0.0,
        })
        .collect();

    // Live flows of every link (for the skip-resolve check), the live-flow
    // scratch set (owner, route, rate — compacted in place on completions,
    // rebuilt in canonical job-then-flow order on epoch barriers), and the
    // reusable solver and load buffers.
    let mut live_users = vec![0usize; n_links];
    let mut flow_owner: Vec<(usize, usize)> = Vec::new();
    let mut flow_links: Vec<&[usize]> = Vec::new();
    let mut rates: Vec<f64> = Vec::new();
    let mut completed_routes: Vec<&[usize]> = Vec::new();
    let mut loads = vec![0.0f64; n_links];
    let mut solver = MaxMinSolver::new();

    for (j, job) in jobs.iter().enumerate() {
        activate(&mut states[j], job, &routes[j], now, &mut live_users);
    }

    let mut rebuild = true;
    let mut resolve = true;
    loop {
        if rebuild {
            flow_owner.clear();
            flow_links.clear();
            for (j, job) in jobs.iter().enumerate() {
                if states[j].instance >= job.total_instances() {
                    continue;
                }
                let epoch = states[j].instance % job.epochs.len();
                let epoch_routes = &routes[j][epoch];
                for (f, &remaining) in states[j].remaining.iter().enumerate() {
                    if remaining > COMPLETE_EPS {
                        flow_owner.push((j, f));
                        flow_links.push(epoch_routes.route(f));
                    }
                }
            }
            rebuild = false;
            resolve = true;
        }
        if flow_owner.is_empty() {
            break;
        }
        stats.events += 1;

        if resolve {
            let solved = solver.solve(&capacities, &flow_links);
            rates.clear();
            rates.extend_from_slice(solved);
            stats.full_solves += 1;
            stats.solver_rounds += solver.last_rounds();
            resolve = false;

            // Track peak link utilisation under the fresh allocation. Skipped
            // events leave every loaded link's utilisation unchanged (the
            // completed flows' links carry no survivors), so the pass only
            // runs here.
            for load in loads.iter_mut() {
                *load = 0.0;
            }
            for (links, rate) in flow_links.iter().zip(&rates) {
                for &l in *links {
                    loads[l] += *rate;
                }
            }
            for (l, load) in loads.iter().enumerate() {
                let util = load / capacities[l].value();
                if util > peak_util[l] {
                    peak_util[l] = util;
                }
            }
        } else {
            stats.skipped_solves += 1;
        }

        // Advance to the earliest completion (rates are bytes/s after the
        // GBps → bytes conversion).
        let mut dt = f64::INFINITY;
        for (i, &(j, f)) in flow_owner.iter().enumerate() {
            let rate = rates[i] * 1e9;
            if rate > 0.0 {
                dt = dt.min(states[j].remaining[f] / rate);
            }
        }
        debug_assert!(dt.is_finite(), "live flows must make progress");
        now += dt;

        // Debit volumes; compact completed flows out of the live set in
        // place and release their links.
        completed_routes.clear();
        let mut write = 0usize;
        for read in 0..flow_owner.len() {
            let (j, f) = flow_owner[read];
            let rate = rates[read] * 1e9;
            let left = states[j].remaining[f] - rate * dt;
            if left <= COMPLETE_EPS {
                states[j].remaining[f] = 0.0;
                states[j].live -= 1;
                for &l in flow_links[read] {
                    live_users[l] -= 1;
                }
                completed_routes.push(flow_links[read]);
            } else {
                states[j].remaining[f] = left;
                flow_owner[write] = (j, f);
                flow_links[write] = flow_links[read];
                rates[write] = rates[read];
                write += 1;
            }
        }
        flow_owner.truncate(write);
        flow_links.truncate(write);
        rates.truncate(write);

        // Epoch completions (barrier: the next epoch starts only when every
        // flow of the current one is done).
        let mut any_transition = false;
        for (j, job) in jobs.iter().enumerate() {
            if states[j].instance >= job.total_instances() {
                continue;
            }
            if states[j].live == 0 {
                let duration = now - states[j].epoch_start;
                states[j].durations.push(Seconds(duration));
                states[j].instance += 1;
                activate(&mut states[j], job, &routes[j], now, &mut live_users);
                any_transition = true;
            }
        }

        if any_transition {
            // New flows entered: rebuild the canonical live set and re-solve.
            rebuild = true;
        } else if completed_routes
            .iter()
            .any(|route| route.iter().any(|&l| live_users[l] > 0))
        {
            // A completed flow shared a link with a survivor: the survivors'
            // allocation can change, re-solve. Otherwise the completions
            // dropped a link-disjoint component and the previous rates remain
            // exact.
            resolve = true;
        }
    }

    stats.epoch_instances = states.iter().map(|s| s.durations.len()).sum();
    let epoch_times: Vec<Vec<Seconds>> = states.iter().map(|s| s.durations.clone()).collect();
    let totals: Vec<Seconds> = epoch_times
        .iter()
        .map(|times| Seconds(times.iter().map(|t| t.value()).sum()))
        .collect();
    let makespan = states.iter().map(|s| s.finished_at).fold(0.0f64, f64::max);
    Ok(ReplayTimeline {
        epoch_times,
        totals,
        makespan: Seconds(makespan),
        link_peak_utilization: peak_util,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Flow;
    use crate::network::NetworkParams;
    use crate::simulator::FlowSimulation;
    use crate::traffic::{JobTraffic, TrafficEpoch};
    use hbd_types::{Bytes, NodeId};
    use topology::FatTree;

    fn network() -> DcnNetwork {
        let fat_tree = FatTree::new(32, 4, 4).unwrap();
        DcnNetwork::new(fat_tree, NetworkParams::non_blocking(4, 4)).unwrap()
    }

    fn job(name: &str, flows: Vec<Flow>, iterations: usize) -> JobTraffic {
        JobTraffic::new(name, vec![TrafficEpoch::new("sync", flows)], iterations)
    }

    #[test]
    fn single_job_single_epoch_matches_the_one_shot_simulation() {
        let net = network();
        // Uniform flows: no rate ever changes mid-transfer, so the one-shot
        // FlowSimulation and the progressive replay agree exactly.
        let flows = vec![
            Flow::new(NodeId(1), NodeId(0), Bytes::from_gib(1.0)),
            Flow::new(NodeId(2), NodeId(0), Bytes::from_gib(1.0)),
            Flow::new(NodeId(3), NodeId(0), Bytes::from_gib(1.0)),
        ];
        let sim = FlowSimulation::run(&net, flows.clone()).unwrap();
        let report = sim.report(&net);
        let outcome = replay_mix_par(&net, &[job("solo", flows, 1)], 1).unwrap();
        assert!((outcome.makespan.value() - report.max_completion.value()).abs() < 1e-9);
        assert!(
            (outcome.jobs[0].slowdown - 1.0).abs() < 1e-12,
            "alone = isolated"
        );
    }

    #[test]
    fn progressive_refill_speeds_up_survivors() {
        let net = network();
        // Two flows share node 0's down-link; one carries twice the volume.
        // After the small flow completes, the big one gets the full link, so
        // it finishes sooner than the one-shot model predicts.
        let flows = vec![
            Flow::new(NodeId(1), NodeId(0), Bytes::from_gib(2.0)),
            Flow::new(NodeId(2), NodeId(0), Bytes::from_gib(1.0)),
        ];
        let sim = FlowSimulation::run(&net, flows.clone()).unwrap();
        let one_shot = sim.report(&net).max_completion.value();
        let outcome = replay_mix_par(&net, &[job("refill", flows, 1)], 1).unwrap();
        assert!(
            outcome.makespan.value() < one_shot - 1e-9,
            "refill must beat the one-shot bound: {} vs {one_shot}",
            outcome.makespan.value()
        );
    }

    #[test]
    fn disjoint_jobs_do_not_interfere() {
        let net = network();
        let a = job(
            "a",
            vec![Flow::new(NodeId(0), NodeId(1), Bytes::from_gib(1.0))],
            2,
        );
        let b = job(
            "b",
            vec![Flow::new(NodeId(4), NodeId(5), Bytes::from_gib(4.0))],
            2,
        );
        let outcome = replay_mix_par(&net, &[a, b], 1).unwrap();
        for job in &outcome.jobs {
            assert!((job.slowdown - 1.0).abs() < 1e-9, "{job:?}");
            assert!((job.p99_stretch - 1.0).abs() < 1e-9);
        }
        assert_eq!(
            outcome.stats.events,
            outcome.stats.full_solves + outcome.stats.skipped_solves
        );
    }

    #[test]
    fn disjoint_completions_skip_the_re_solve() {
        let net = network();
        // One epoch, two link-disjoint flows of different volume: the small
        // flow's completion frees links the big one never touches, so the
        // second event reuses the first event's allocation.
        let traffic = job(
            "skip",
            vec![
                Flow::new(NodeId(0), NodeId(1), Bytes::from_gib(1.0)),
                Flow::new(NodeId(4), NodeId(5), Bytes::from_gib(4.0)),
            ],
            1,
        );
        let outcome = replay_mix_par(&net, &[traffic], 1).unwrap();
        assert_eq!(outcome.stats.events, 2, "{:?}", outcome.stats);
        assert_eq!(outcome.stats.full_solves, 1, "{:?}", outcome.stats);
        assert_eq!(outcome.stats.skipped_solves, 1, "{:?}", outcome.stats);
        // The skipped event still advanced the fluid model correctly.
        let node_bw = net.params().node_bandwidth.value() * 1e9;
        let expected = Bytes::from_gib(4.0).value() / node_bw;
        assert!((outcome.makespan.value() - expected).abs() < 1e-9);
    }

    #[test]
    fn colliding_jobs_slow_each_other_down() {
        let net = network();
        // Both jobs hammer node 0's down-link.
        let a = job(
            "a",
            vec![Flow::new(NodeId(1), NodeId(0), Bytes::from_gib(1.0))],
            3,
        );
        let b = job(
            "b",
            vec![Flow::new(NodeId(2), NodeId(0), Bytes::from_gib(1.0))],
            3,
        );
        let outcome = replay_mix_par(&net, &[a, b], 1).unwrap();
        assert!(outcome.max_slowdown() > 1.5, "{outcome:?}");
        assert!(outcome.jobs.iter().all(|j| j.p99_stretch > 1.0));
        // The shared down-link saturated.
        assert!(outcome.hot_links(0.99) >= 1);
        let histogram = outcome.utilization_histogram(&[0.5, 0.95]);
        assert_eq!(histogram.len(), 3);
        assert!(histogram[2] >= 1);
    }

    #[test]
    fn epoch_barriers_are_respected() {
        let net = network();
        // Epoch 1 cannot start before epoch 0 finishes, so the two epochs of
        // one iteration never share the link even though they use the same
        // endpoints.
        let epochs = vec![
            TrafficEpoch::new(
                "steady",
                vec![Flow::new(NodeId(0), NodeId(1), Bytes::from_gib(1.0))],
            ),
            TrafficEpoch::new(
                "sync",
                vec![Flow::new(NodeId(0), NodeId(1), Bytes::from_gib(1.0))],
            ),
        ];
        let traffic = JobTraffic::new("barriers", epochs, 2);
        let outcome = replay_mix_par(&net, &[traffic], 1).unwrap();
        assert_eq!(outcome.jobs[0].epoch_times.len(), 4);
        let node_bw = net.params().node_bandwidth.value() * 1e9;
        let per_epoch = Bytes::from_gib(1.0).value() / node_bw;
        for time in &outcome.jobs[0].epoch_times {
            assert!((time.value() - per_epoch).abs() < 1e-9);
        }
        assert!((outcome.makespan.value() - 4.0 * per_epoch).abs() < 1e-9);
        assert_eq!(outcome.stats.epoch_instances, 4);
    }

    #[test]
    fn local_only_and_empty_jobs_complete_in_zero_time() {
        let net = network();
        let local = job(
            "local",
            vec![Flow::new(NodeId(3), NodeId(3), Bytes::from_gib(9.0))],
            2,
        );
        let empty = JobTraffic::new("empty", Vec::new(), 3);
        let outcome = replay_mix_par(&net, &[local, empty], 1).unwrap();
        assert_eq!(outcome.makespan, Seconds::ZERO);
        for job in &outcome.jobs {
            assert_eq!(job.shared_time, Seconds::ZERO);
            assert!((job.slowdown - 1.0).abs() < 1e-12);
        }
        assert_eq!(outcome.stats.events, 0);
        assert_eq!(outcome.stats.epoch_instances, 2);
    }

    #[test]
    fn parallel_isolated_baselines_are_thread_count_invariant() {
        let net = network();
        let jobs: Vec<JobTraffic> = (0..4)
            .map(|i| {
                job(
                    &format!("job{i}"),
                    vec![
                        Flow::new(NodeId(i), NodeId((i + 1) % 8), Bytes::from_gib(1.0)),
                        Flow::new(NodeId(i + 8), NodeId(0), Bytes::from_gib(2.0)),
                    ],
                    3,
                )
            })
            .collect();
        let single = replay_mix_par(&net, &jobs, 1).unwrap();
        let wide = replay_mix_par(&net, &jobs, 4).unwrap();
        assert_eq!(
            format!("{single:?}"),
            format!("{wide:?}"),
            "replay_mix_par must be thread-count invariant"
        );
        assert_eq!(single, wide);
    }

    #[test]
    fn stats_account_for_every_event() {
        let net = network();
        let a = job(
            "a",
            vec![
                Flow::new(NodeId(1), NodeId(0), Bytes::from_gib(1.0)),
                Flow::new(NodeId(2), NodeId(0), Bytes::from_gib(2.0)),
            ],
            2,
        );
        let outcome = replay_mix_par(&net, &[a], 1).unwrap();
        let stats = outcome.stats;
        assert_eq!(stats.events, stats.full_solves + stats.skipped_solves);
        assert!(stats.full_solves >= 1);
        assert!(stats.solver_rounds >= stats.full_solves);
        assert!(stats.rounds_per_event() > 0.0);
        assert_eq!(stats.epoch_instances, 2);
    }

    #[test]
    fn an_empty_mix_replays_to_well_defined_stats() {
        // Zero jobs: no panic, no division by zero — the degenerate mix is a
        // legal input with neutral aggregates.
        let net = network();
        let outcome = replay_mix_par(&net, &[], 1).unwrap();
        assert!(outcome.jobs.is_empty());
        assert_eq!(outcome.makespan, Seconds::ZERO);
        assert_eq!(outcome.mean_slowdown(), 1.0);
        assert_eq!(outcome.max_slowdown(), 1.0);
        assert_eq!(outcome.stats.events, 0);
        assert_eq!(outcome.stats.rounds_per_event(), 0.0);
        assert_eq!(outcome.hot_links(0.5), 0);
        // Every histogram bucket of an empty mix is empty (links carried
        // nothing), including the degenerate no-edges histogram.
        assert_eq!(outcome.utilization_histogram(&[]), vec![0]);
        assert_eq!(outcome.utilization_histogram(&[0.5]), vec![0, 0]);
    }

    #[test]
    fn zero_flow_and_zero_byte_epochs_do_not_produce_nan_slowdowns() {
        let net = network();
        // A job alternating a real epoch with an empty one and a job whose
        // only flow carries zero bytes: both isolated baselines contain
        // zero-time epochs, so the slowdown/stretch math must guard the
        // division instead of emitting NaN/Inf.
        let mixed = JobTraffic::new(
            "mixed",
            vec![
                TrafficEpoch::new("empty", Vec::new()),
                TrafficEpoch::new(
                    "real",
                    vec![Flow::new(NodeId(1), NodeId(0), Bytes::from_gib(1.0))],
                ),
            ],
            2,
        );
        let zero_bytes = job(
            "zero-bytes",
            vec![Flow::new(NodeId(2), NodeId(0), Bytes(0.0))],
            2,
        );
        let outcome = replay_mix_par(&net, &[mixed, zero_bytes], 1).unwrap();
        for job in &outcome.jobs {
            assert!(job.slowdown.is_finite(), "{job:?}");
            assert!(job.mean_stretch.is_finite(), "{job:?}");
            assert!(job.p99_stretch.is_finite(), "{job:?}");
            assert!(job.slowdown >= 1.0 - 1e-12, "{job:?}");
        }
        // The zero-byte job never touches the DCN: no interference at all.
        assert!((outcome.jobs[1].slowdown - 1.0).abs() < 1e-12);
        assert!(outcome.mean_slowdown().is_finite());
        assert_eq!(outcome.stats.epoch_instances, 6);
    }

    fn outcome_with_peaks(peaks: &[f64]) -> MixOutcome {
        MixOutcome {
            jobs: Vec::new(),
            makespan: Seconds::ZERO,
            link_peak_utilization: peaks.to_vec(),
            stats: ReplayStats::default(),
        }
    }

    #[test]
    fn histogram_bins_are_right_open_with_on_edge_values_going_up() {
        let outcome = outcome_with_peaks(&[0.2, 0.5, 0.7, 0.95, 1.0]);
        // 0.5 sits exactly on an edge: right-open bins put it in the bucket
        // at or above the edge, and 0.95+ lands in the final catch-all.
        assert_eq!(
            outcome.utilization_histogram(&[0.5, 0.95]),
            vec![1, 2, 2],
            "[0, 0.5) [0.5, 0.95) [0.95, inf)"
        );
    }

    #[test]
    fn histogram_sanitises_unsorted_duplicate_and_non_finite_edges() {
        let outcome = outcome_with_peaks(&[0.2, 0.7, 1.0]);
        let sorted = outcome.utilization_histogram(&[0.5, 0.95]);
        // Unsorted edges used to bin mid-range values into the wrong bucket
        // (a linear scan in input order); now they sanitise to the same bins.
        assert_eq!(outcome.utilization_histogram(&[0.95, 0.5]), sorted);
        // Duplicate edges used to add a phantom always-empty bucket.
        assert_eq!(outcome.utilization_histogram(&[0.5, 0.5, 0.95]), sorted);
        // Non-finite edges are dropped rather than poisoning the comparison.
        assert_eq!(
            outcome.utilization_histogram(&[f64::NAN, 0.5, f64::INFINITY, 0.95]),
            sorted
        );
        // Empty (or all-invalid) edges collapse to one catch-all bucket.
        assert_eq!(outcome.utilization_histogram(&[]), vec![3]);
        assert_eq!(outcome.utilization_histogram(&[f64::NAN]), vec![3]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile_sorted(&[], 0.99), 1.0);
        assert_eq!(percentile_sorted(&[2.0], 0.99), 2.0);
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 0.5), 50.0);
    }
}
