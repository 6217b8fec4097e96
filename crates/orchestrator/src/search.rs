//! Search for the largest orchestratable job (the capacity-planning question
//! behind Figs 15 / 17b: "how big a job can this faulty cluster still place?").
//!
//! Like the constraint search in [`FatTreeOrchestrator::orchestrate_par`],
//! the job-size search is a fixed-ladder multisection: every round probes up
//! to [`FatTreeOrchestrator::SEARCH_PROBES`] evenly spaced job sizes, so the
//! reported probe count depends only on which sizes are feasible.
//!
//! Feasibility of a job size needs no constraint search of its own. A job of
//! `g` groups (`m` nodes each) is feasible exactly when the *first* round of
//! its constraint search has a hit: a hit makes the search return `Ok`, and a
//! miss there has `low == 0`, which ends the search with `Err`. That round
//! probes `probe_ladder(0, segment_constraints + alignment_constraints)` —
//! the same ≤ 4 constraint counts for every job size — and a probe hits when
//! its placed-node count reaches `g · m`. So
//!
//! `feasible(g) ⇔ g · m ≤ capacity`, where `capacity` is the largest placed
//! count over those ladder points,
//!
//! computed once per scratch; every job-size probe is then one comparison.
//! The orchestrator's per-search scratch depends only on
//! `(k, nodes_per_group, faults)` — never on the job size — so the capacity
//! and the final placement share **one** scratch.

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
    /// How many job sizes the search probed.
    pub probes: usize,
}

/// Finds the largest job (in nodes, quantised to whole TP groups) that
/// `orchestrator` can place under `faults`, fanning the ≤ 4 first-round
/// capacity counts out over up to `threads` scoped threads. The reported
/// placement comes from one constraint search at the largest feasible size.
pub fn max_orchestratable_job(
    orchestrator: &FatTreeOrchestrator,
    nodes_per_group: usize,
    k: usize,
    faults: &FaultSet,
    threads: usize,
) -> MaxJobReport {
    let request = |groups: usize| OrchestrationRequest {
        job_nodes: groups * nodes_per_group,
        nodes_per_group,
        k,
    };
    // A degenerate geometry (`nodes_per_group == 0` or `k == 0`) cannot build
    // a scratch and fails request validation at every job size: no capacity,
    // nothing feasible.
    let template = request(1);
    let scratch = template
        .validate()
        .ok()
        .map(|_| orchestrator.search_scratch(&template, faults));
    let capacity = scratch
        .as_ref()
        .map(|scratch| first_round_capacity(orchestrator, &template, scratch, threads));
    let (groups, probes) = max_job_search(orchestrator, nodes_per_group, capacity);
    let placement = scratch.filter(|_| groups > 0).and_then(|scratch| {
        orchestrator
            .orchestrate_with_scratch(&request(groups), &scratch, 1)
            .0
            .ok()
    });
    MaxJobReport {
        job_nodes: groups * nodes_per_group,
        placement,
        probes,
    }
}

/// [`max_orchestratable_job`] against a caller-provided scratch (the
/// placement service's path, where one scratch per `(k, nodes_per_group)` key
/// is shared across a whole query batch), returning `(job_nodes, probes)`
/// only: the service answers with the size, never the placement. The caller
/// guarantees the scratch was built for the same `k` / `nodes_per_group`
/// against the fault set being queried, and that both are positive.
pub(crate) fn max_job_with_scratch(
    orchestrator: &FatTreeOrchestrator,
    nodes_per_group: usize,
    k: usize,
    scratch: &SearchScratch,
) -> (usize, usize) {
    debug_assert!(nodes_per_group > 0 && k > 0);
    let template = OrchestrationRequest {
        job_nodes: nodes_per_group,
        nodes_per_group,
        k,
    };
    let capacity = first_round_capacity(orchestrator, &template, scratch, 1);
    let (groups, probes) = max_job_search(orchestrator, nodes_per_group, Some(capacity));
    (groups * nodes_per_group, probes)
}

/// The largest node count placed by any probe of the first constraint-search
/// round — the capacity every job size is compared against (module docs).
fn first_round_capacity(
    orchestrator: &FatTreeOrchestrator,
    template: &OrchestrationRequest,
    scratch: &SearchScratch,
    threads: usize,
) -> usize {
    let total = orchestrator.segment_constraints() + orchestrator.alignment_constraints();
    let ladder = FatTreeOrchestrator::probe_ladder(0, total);
    par_map(threads, &ladder, |_, &n| {
        orchestrator.placed_count_cached(template, scratch, n)
    })
    .into_iter()
    .max()
    .unwrap_or(0)
}

/// The fixed-ladder multisection over job sizes shared by both entry points:
/// `g` groups are feasible when `g · nodes_per_group ≤ capacity` (`None`
/// means nothing is). Returns the largest feasible group count (zero if none)
/// and the number of job sizes probed.
fn max_job_search(
    orchestrator: &FatTreeOrchestrator,
    nodes_per_group: usize,
    capacity: Option<usize>,
) -> (usize, usize) {
    let feasible = |groups: usize| capacity.is_some_and(|c| groups * nodes_per_group <= c);
    let mut low = 1usize;
    let mut high = orchestrator.fat_tree().nodes() / nodes_per_group.max(1);
    let mut best = 0usize;
    let mut probes_spent = 0usize;
    while low <= high {
        let probes = FatTreeOrchestrator::probe_ladder(low, high);
        probes_spent += probes.len();
        // Feasibility is antitone in the job size: take the largest feasible
        // probe of the ladder.
        match probes.iter().rev().copied().find(|&g| feasible(g)) {
            Some(g) => {
                if let Some(&next) = probes.iter().find(|&&p| p > g) {
                    high = next - 1;
                }
                best = g;
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
    (best, probes_spent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbd_types::NodeId;
    use proptest::prelude::*;
    use topology::FatTree;

    fn orchestrator() -> FatTreeOrchestrator {
        FatTreeOrchestrator::new(FatTree::new(512, 16, 8).unwrap()).unwrap()
    }

    /// The oracle of the capacity shortcut: the same job-size ladder, with a
    /// full constraint search (`orchestrate_par`) deciding every probe and
    /// the placement of the largest feasible size kept from its search.
    fn max_job_oracle(
        orchestrator: &FatTreeOrchestrator,
        nodes_per_group: usize,
        k: usize,
        faults: &FaultSet,
    ) -> MaxJobReport {
        let try_groups = |groups: usize| {
            let request = OrchestrationRequest {
                job_nodes: groups * nodes_per_group,
                nodes_per_group,
                k,
            };
            orchestrator.orchestrate_par(&request, faults, 1).ok()
        };
        let mut low = 1usize;
        let mut high = orchestrator.fat_tree().nodes() / nodes_per_group.max(1);
        let mut best: Option<(usize, PlacementScheme)> = None;
        let mut probes_spent = 0usize;
        while low <= high {
            let probes = FatTreeOrchestrator::probe_ladder(low, high);
            probes_spent += probes.len();
            match probes
                .iter()
                .rev()
                .find_map(|&g| try_groups(g).map(|p| (g, p)))
            {
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
        MaxJobReport {
            job_nodes: best.as_ref().map_or(0, |(g, _)| g * nodes_per_group),
            placement: best.map(|(_, placement)| placement),
            probes: probes_spent,
        }
    }

    fn assert_matches_oracle(
        orch: &FatTreeOrchestrator,
        nodes_per_group: usize,
        k: usize,
        faults: &FaultSet,
        threads: usize,
    ) {
        let fast = max_orchestratable_job(orch, nodes_per_group, k, faults, threads);
        let oracle = max_job_oracle(orch, nodes_per_group, k, faults);
        assert_eq!(
            fast.job_nodes, oracle.job_nodes,
            "m {nodes_per_group} k {k}"
        );
        assert_eq!(fast.probes, oracle.probes, "m {nodes_per_group} k {k}");
        assert_eq!(
            fast.placement, oracle.placement,
            "m {nodes_per_group} k {k}"
        );
    }

    #[test]
    fn healthy_cluster_supports_every_group() {
        let orch = orchestrator();
        let report = max_orchestratable_job(&orch, 8, 2, &FaultSet::new(), 1);
        assert_eq!(report.job_nodes, 512);
        assert!(report.placement.is_some());
        assert!(report.probes > 0);
        assert_matches_oracle(&orch, 8, 2, &FaultSet::new(), 1);
    }

    #[test]
    fn result_is_maximal_and_thread_count_invariant() {
        let orch = orchestrator();
        let faults = FaultSet::from_nodes((0..40).map(|i| NodeId(i * 11)));
        let seq = max_orchestratable_job(&orch, 8, 2, &faults, 1);
        let par = max_orchestratable_job(&orch, 8, 2, &faults, 4);
        assert_eq!(seq.job_nodes, par.job_nodes);
        assert_eq!(seq.probes, par.probes);
        assert_eq!(seq.placement, par.placement);
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
        let (job_nodes, probes) = max_job_with_scratch(&orch, 8, 2, &scratch);
        let public = max_orchestratable_job(&orch, 8, 2, &faults, 1);
        assert_eq!(job_nodes, public.job_nodes);
        assert_eq!(probes, public.probes);
    }

    #[test]
    fn degenerate_geometry_is_rejected_not_panicked() {
        let orch = orchestrator();
        let report = max_orchestratable_job(&orch, 0, 2, &FaultSet::new(), 1);
        assert_eq!(report.job_nodes, 0);
        let report = max_orchestratable_job(&orch, 8, 0, &FaultSet::new(), 2);
        assert_eq!(report.job_nodes, 0);
        assert_matches_oracle(&orch, 0, 2, &FaultSet::new(), 1);
        assert_matches_oracle(&orch, 8, 0, &FaultSet::new(), 2);
        assert_matches_oracle(&orch, 0, 0, &FaultSet::new(), 1);
    }

    #[test]
    fn fully_faulty_cluster_supports_nothing() {
        let orch = orchestrator();
        let faults = FaultSet::from_nodes((0..512).map(NodeId));
        let report = max_orchestratable_job(&orch, 8, 2, &faults, 2);
        assert_eq!(report.job_nodes, 0);
        assert!(report.placement.is_none());
        for (m, k) in [(1usize, 1usize), (8, 2), (16, 4)] {
            assert_matches_oracle(&orch, m, k, &faults, 1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The capacity shortcut is pinned to the full-search ladder: same
        /// size, same probe count, same placement, on the 512-node layout
        /// and on the 520-node one with a trailing partial rack.
        #[test]
        fn max_job_matches_the_full_search_oracle(
            faulty in proptest::collection::vec(0usize..600, 0..120),
            m in 1usize..17,
            k in 1usize..5,
            threads in 1usize..4,
        ) {
            let faults = FaultSet::from_nodes(faulty.iter().map(|&id| NodeId(id)));
            let partial_rack =
                FatTreeOrchestrator::new(FatTree::new(520, 16, 8).unwrap()).unwrap();
            for orch in [orchestrator(), partial_rack] {
                assert_matches_oracle(&orch, m, k, &faults, threads);
            }
        }
    }
}
