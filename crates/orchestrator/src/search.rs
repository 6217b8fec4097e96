//! Search for the largest orchestratable job (the capacity-planning question
//! behind Figs 15 / 17b: "how big a job can this faulty cluster still place?").
//!
//! Feasibility of a job size is decided by a full `Orchestration-Fat-Tree`
//! run, which is expensive; like the constraint search in
//! [`FatTreeOrchestrator::orchestrate_par`], the job-size search is a
//! fixed-ladder multisection: every round probes up to
//! [`FatTreeOrchestrator::SEARCH_PROBES`] evenly spaced job sizes and fans the
//! independent feasibility checks out over scoped threads. The ladder never
//! depends on the thread count, so the result is identical for `--threads 1`
//! and `--threads N`.
//!
//! Because the orchestrator's per-search scratch depends only on
//! `(k, nodes_per_group, faults)` — never on the probed job size — the whole
//! job-size ladder shares **one** scratch instead of rebuilding it inside
//! every feasibility probe.

use crate::fat_tree::{FatTreeOrchestrator, OrchestrationRequest, SearchScratch};
use crate::scheme::PlacementScheme;
use hbd_types::par::par_map;
use topology::FaultSet;

/// The outcome of [`max_orchestratable_job`].
#[derive(Debug, Clone)]
pub struct MaxJobReport {
    /// The largest feasible job size, in nodes (a multiple of
    /// `nodes_per_group`); zero when not even one TP group fits.
    pub job_nodes: usize,
    /// The placement realising that job.
    pub placement: Option<PlacementScheme>,
    /// How many feasibility probes (full orchestration runs) the search spent.
    pub probes: usize,
}

/// Finds the largest job (in nodes, quantised to whole TP groups) that
/// `orchestrator` can place under `faults`, fanning the per-round feasibility
/// probes out over up to `threads` scoped threads.
pub fn max_orchestratable_job(
    orchestrator: &FatTreeOrchestrator,
    nodes_per_group: usize,
    k: usize,
    faults: &FaultSet,
    threads: usize,
) -> MaxJobReport {
    let total_groups = orchestrator.fat_tree().nodes() / nodes_per_group.max(1);
    // One scratch for the whole ladder. A degenerate geometry
    // (`nodes_per_group == 0` or `k == 0`) cannot build a scratch; every
    // probe of the old per-probe path would fail request validation, so the
    // search runs without one and each probe rejects itself.
    let template = OrchestrationRequest {
        job_nodes: nodes_per_group.max(1),
        nodes_per_group,
        k,
    };
    let scratch = template
        .validate()
        .ok()
        .map(|_| orchestrator.search_scratch(&template, faults));
    let try_groups = |groups: usize| -> Option<PlacementScheme> {
        let request = OrchestrationRequest {
            job_nodes: groups * nodes_per_group,
            nodes_per_group,
            k,
        };
        match &scratch {
            Some(scratch) => orchestrator
                .orchestrate_with_scratch(&request, scratch, 1)
                .0
                .ok(),
            None => orchestrator.orchestrate_par(&request, faults, 1).ok(),
        }
    };
    max_job_search(total_groups, nodes_per_group, threads, try_groups)
}

/// [`max_orchestratable_job`] against a caller-provided scratch (the
/// placement service's path, where one scratch per `(k, nodes_per_group)` key
/// is shared across a whole query batch). The caller guarantees the scratch
/// was built for the same `k` / `nodes_per_group` against the fault set being
/// queried, and that both are positive. Probes run sequentially — the service
/// fans out across queries, not inside one.
pub(crate) fn max_job_with_scratch(
    orchestrator: &FatTreeOrchestrator,
    nodes_per_group: usize,
    k: usize,
    scratch: &SearchScratch,
) -> MaxJobReport {
    debug_assert!(nodes_per_group > 0 && k > 0);
    let total_groups = orchestrator.fat_tree().nodes() / nodes_per_group.max(1);
    let try_groups = |groups: usize| -> Option<PlacementScheme> {
        let request = OrchestrationRequest {
            job_nodes: groups * nodes_per_group,
            nodes_per_group,
            k,
        };
        orchestrator
            .orchestrate_with_scratch(&request, scratch, 1)
            .0
            .ok()
    };
    max_job_search(total_groups, nodes_per_group, 1, try_groups)
}

/// The fixed-ladder multisection over job sizes shared by both entry points.
/// `try_groups(g)` decides feasibility of a `g`-group job; the ladder (and so
/// the reported probe count) depends only on which probes are feasible, never
/// on `threads`.
fn max_job_search<F>(
    total_groups: usize,
    nodes_per_group: usize,
    threads: usize,
    try_groups: F,
) -> MaxJobReport
where
    F: Fn(usize) -> Option<PlacementScheme> + Sync,
{
    let mut low = 1usize;
    let mut high = total_groups;
    let mut best: Option<(usize, PlacementScheme)> = None;
    let mut probes_spent = 0usize;
    while low <= high {
        let probes = FatTreeOrchestrator::probe_ladder(low, high);
        probes_spent += probes.len();
        // Feasibility is antitone in the job size: scan the evaluated ladder
        // for the largest feasible probe.
        let hit = if threads > 1 {
            let placements = par_map(threads, &probes, |_, &g| try_groups(g));
            probes
                .iter()
                .zip(placements)
                .rev()
                .find_map(|(&g, placement)| placement.map(|p| (g, p)))
        } else {
            probes
                .iter()
                .rev()
                .find_map(|&g| try_groups(g).map(|p| (g, p)))
        };
        match hit {
            Some((g, placement)) => {
                if let Some(&next) = probes.iter().find(|&&p| p > g) {
                    high = next - 1;
                }
                best = Some((g, placement));
                low = g + 1;
            }
            None => {
                if low <= 1 {
                    break;
                }
                high = low - 1;
            }
        }
    }

    match best {
        Some((groups, placement)) => MaxJobReport {
            job_nodes: groups * nodes_per_group,
            placement: Some(placement),
            probes: probes_spent,
        },
        None => MaxJobReport {
            job_nodes: 0,
            placement: None,
            probes: probes_spent,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbd_types::NodeId;
    use topology::FatTree;

    fn orchestrator() -> FatTreeOrchestrator {
        FatTreeOrchestrator::new(FatTree::new(512, 16, 8).unwrap()).unwrap()
    }

    #[test]
    fn healthy_cluster_supports_every_group() {
        let orch = orchestrator();
        let report = max_orchestratable_job(&orch, 8, 2, &FaultSet::new(), 1);
        assert_eq!(report.job_nodes, 512);
        assert!(report.placement.is_some());
        assert!(report.probes > 0);
    }

    #[test]
    fn result_is_maximal_and_thread_count_invariant() {
        let orch = orchestrator();
        let faults = FaultSet::from_nodes((0..40).map(|i| NodeId(i * 11)));
        let seq = max_orchestratable_job(&orch, 8, 2, &faults, 1);
        let par = max_orchestratable_job(&orch, 8, 2, &faults, 4);
        assert_eq!(seq.job_nodes, par.job_nodes);
        assert_eq!(seq.probes, par.probes);
        assert!(seq.job_nodes > 0);
        assert!(seq.job_nodes < 512, "40 faulty nodes must cost capacity");
        // Maximality: one more group must be infeasible.
        let request = OrchestrationRequest {
            job_nodes: seq.job_nodes + 8,
            nodes_per_group: 8,
            k: 2,
        };
        assert!(orch.orchestrate_par(&request, &faults, 1).is_err());
    }

    #[test]
    fn shared_scratch_path_matches_the_public_search() {
        let orch = orchestrator();
        let faults = FaultSet::from_nodes((0..25).map(|i| NodeId(i * 7)));
        let template = OrchestrationRequest {
            job_nodes: 8,
            nodes_per_group: 8,
            k: 2,
        };
        let scratch = orch.search_scratch(&template, &faults);
        let shared = max_job_with_scratch(&orch, 8, 2, &scratch);
        let public = max_orchestratable_job(&orch, 8, 2, &faults, 1);
        assert_eq!(shared.job_nodes, public.job_nodes);
        assert_eq!(shared.probes, public.probes);
        assert_eq!(shared.placement, public.placement);
    }

    #[test]
    fn degenerate_geometry_is_rejected_not_panicked() {
        let orch = orchestrator();
        let report = max_orchestratable_job(&orch, 0, 2, &FaultSet::new(), 1);
        assert_eq!(report.job_nodes, 0);
        let report = max_orchestratable_job(&orch, 8, 0, &FaultSet::new(), 2);
        assert_eq!(report.job_nodes, 0);
    }

    #[test]
    fn fully_faulty_cluster_supports_nothing() {
        let orch = orchestrator();
        let faults = FaultSet::from_nodes((0..512).map(NodeId));
        let report = max_orchestratable_job(&orch, 8, 2, &faults, 2);
        assert_eq!(report.job_nodes, 0);
        assert!(report.placement.is_none());
    }
}
