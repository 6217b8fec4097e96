//! `Orchestration-DCN-Free` — Algorithm 2 of the paper.
//!
//! Without DCN considerations, placing TP groups on InfiniteHBD is simple:
//!
//! 1. remove the faulty nodes from the K-Hop graph,
//! 2. find the connected components of the healthy subgraph,
//! 3. sort each component in HBD (deployment) order, and
//! 4. cut every component into consecutive runs of `m = TP / R` nodes.
//!
//! Because each component is a contiguous stretch of the K-Hop line (faults of
//! fewer than `K` consecutive nodes do not disconnect it), every emitted run is
//! ring-formable via the intra-node loopback of its two end bundles.
//!
//! The paper phrases step 2 as a DFS over the healthy subgraph, but on a K-Hop
//! line the components are simply the maximal healthy runs not severed by `K`
//! or more consecutive faults — so the implementation is a single linear scan
//! ([`topology::runscan`]) that cuts groups as it walks, with no graph, no
//! DFS and no per-probe allocations. The original graph + DFS formulation is
//! kept below as a `#[cfg(test)]` oracle and the two are pinned to each other
//! bit-for-bit (same groups, same nodes, same order) by proptests.

use crate::scheme::{PlacementScheme, TpGroup};
use hbd_types::NodeId;
use topology::runscan::{scan_khop_runs, RunSink};
use topology::FaultSet;

/// A [`RunSink`] that cuts the healthy runs into TP groups of `m` nodes as
/// the scan progresses: complete groups are emitted greedily in scan order;
/// the incomplete remainder of a run is discarded when the run ends.
pub(crate) struct GroupCutter {
    nodes_per_group: usize,
    current: Vec<NodeId>,
    /// The completed groups, in scan order.
    pub(crate) scheme: PlacementScheme,
}

impl GroupCutter {
    pub(crate) fn new(nodes_per_group: usize) -> Self {
        assert!(nodes_per_group > 0, "TP groups need at least one node");
        GroupCutter {
            nodes_per_group,
            current: Vec::with_capacity(nodes_per_group),
            scheme: PlacementScheme::new(),
        }
    }
}

impl RunSink<NodeId> for GroupCutter {
    fn healthy(&mut self, node: NodeId) {
        self.current.push(node);
        if self.current.len() == self.nodes_per_group {
            let group =
                std::mem::replace(&mut self.current, Vec::with_capacity(self.nodes_per_group));
            self.scheme.push(TpGroup::new(group));
        }
    }

    fn cut(&mut self) {
        // The run ended with an incomplete group: those nodes are wasted.
        self.current.clear();
    }
}

/// The counting twin of [`GroupCutter`]: the same run semantics, but it only
/// tallies the nodes the cutter would place — `⌊run / m⌋ · m` per run — and
/// builds no group. The oracle of [`RunSummary`].
#[cfg(test)]
pub(crate) struct GroupCounter {
    nodes_per_group: usize,
    current: usize,
    /// Nodes placed in complete groups so far.
    pub(crate) placed: usize,
}

#[cfg(test)]
impl GroupCounter {
    pub(crate) fn new(nodes_per_group: usize) -> Self {
        assert!(nodes_per_group > 0, "TP groups need at least one node");
        GroupCounter {
            nodes_per_group,
            current: 0,
            placed: 0,
        }
    }
}

#[cfg(test)]
impl<T> RunSink<T> for GroupCounter {
    fn healthy(&mut self, _: T) {
        self.current += 1;
        if self.current == self.nodes_per_group {
            self.placed += self.nodes_per_group;
            self.current = 0;
        }
    }

    fn cut(&mut self) {
        self.current = 0;
    }
}

/// The whole effect of one piece of a K-Hop line on a group count, in a form
/// that composes: the summary of a line is the [`then`](Self::then)-fold of
/// its pieces' summaries, so a count over a long line made of cached pieces
/// costs one O(1) step per piece instead of one per node.
///
/// A piece's healthy nodes fall into runs separated by `K` or more
/// consecutive faults. Only its first and last runs can merge with a
/// neighbouring piece; every run strictly between them is complete and
/// contributes `⌊run / m⌋ · m` placed nodes. The faults at either edge
/// decide whether a neighbour's run merges or is cut off. All fields are
/// counts for one fixed `(K, m)`; the empty piece is `Default`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RunSummary {
    /// Faulty positions before the first healthy one (the whole piece when
    /// it has no healthy node).
    lead: usize,
    /// Healthy nodes of the first run; zero exactly when the piece has no
    /// healthy node.
    first: usize,
    /// Whether `K` or more consecutive faults separate the first run from
    /// the last.
    cut: bool,
    /// Nodes placed by the complete runs strictly between the first and the
    /// last run.
    inner: usize,
    /// Healthy nodes of the last run (equal to `first` without a cut).
    last: usize,
    /// Faulty positions after the last healthy one.
    trail: usize,
}

impl RunSummary {
    /// Summarizes `items`, classified by `faulty`, in one pass: the summary
    /// of the same K-Hop run structure [`scan_khop_runs`] walks.
    pub(crate) fn scan<T, I, F>(items: I, k: usize, nodes_per_group: usize, mut faulty: F) -> Self
    where
        I: IntoIterator<Item = T>,
        F: FnMut(&T) -> bool,
    {
        let mut summary = RunSummary::default();
        let (mut gap, mut run, mut seen_healthy) = (0usize, 0usize, false);
        for item in items {
            if faulty(&item) {
                gap += 1;
                continue;
            }
            if !seen_healthy {
                summary.lead = gap;
                seen_healthy = true;
            } else if gap >= k {
                if summary.cut {
                    summary.inner += in_groups(run, nodes_per_group);
                } else {
                    summary.first = run;
                    summary.cut = true;
                }
                run = 0;
            }
            gap = 0;
            run += 1;
        }
        if !seen_healthy {
            summary.lead = gap;
        } else if !summary.cut {
            summary.first = run;
        }
        summary.last = run;
        summary.trail = gap;
        summary
    }

    /// The summary of `self` followed directly by `next` on one line.
    pub(crate) fn then(self, next: RunSummary, k: usize, nodes_per_group: usize) -> Self {
        let placed = |run: usize| in_groups(run, nodes_per_group);
        if self.first == 0 {
            // No healthy node: `self`'s faults only lengthen `next`'s edges.
            let trail = if next.first == 0 {
                self.trail + next.trail
            } else {
                next.trail
            };
            return RunSummary {
                lead: self.lead + next.lead,
                trail,
                ..next
            };
        }
        if next.first == 0 {
            return RunSummary {
                trail: self.trail + next.trail,
                ..self
            };
        }
        let severed = self.trail + next.lead >= k;
        let (first, last, inner) = if severed {
            // The gap between the pieces cuts the line: `self`'s last run
            // and `next`'s first run both end there.
            let closed = |cut: bool, run: usize| if cut { placed(run) } else { 0 };
            let inner = self.inner
                + next.inner
                + closed(self.cut, self.last)
                + closed(next.cut, next.first);
            (self.first, next.last, inner)
        } else {
            // The gap is bypassed: the two edge runs merge into one.
            let mid = self.last + next.first;
            let inner =
                self.inner + next.inner + if self.cut && next.cut { placed(mid) } else { 0 };
            let first = if self.cut { self.first } else { mid };
            let last = if next.cut { next.last } else { mid };
            (first, last, inner)
        };
        RunSummary {
            lead: self.lead,
            first,
            cut: self.cut || next.cut || severed,
            inner,
            last,
            trail: next.trail,
        }
    }

    /// Nodes a [`GroupCutter`] scanning this summary's line from a fresh
    /// state places in complete groups.
    pub(crate) fn placed(&self, nodes_per_group: usize) -> usize {
        let last = if self.cut { self.last } else { 0 };
        in_groups(self.first, nodes_per_group) + self.inner + in_groups(last, nodes_per_group)
    }
}

/// Nodes of a `run`-node healthy run that complete groups of
/// `nodes_per_group`: `⌊run / m⌋ · m`.
fn in_groups(run: usize, nodes_per_group: usize) -> usize {
    run - run % nodes_per_group
}

/// Runs Algorithm 2 over an explicit node ordering.
///
/// * `order` — the nodes in HBD (deployment) order; adjacent elements are HBD
///   neighbours.
/// * `k` — the OCSTrx bundle count (hop reach) of the topology.
/// * `faults` — the faulty node set.
/// * `nodes_per_group` — `m`, the nodes per TP group.
///
/// Returns the placement scheme that maximises GPU utilisation (every healthy
/// component is packed greedily).
pub fn orchestrate_dcn_free(
    order: &[NodeId],
    k: usize,
    faults: &FaultSet,
    nodes_per_group: usize,
) -> PlacementScheme {
    let mut cutter = GroupCutter::new(nodes_per_group);
    scan_khop_runs(
        order.iter().copied(),
        k,
        |node| faults.is_faulty(*node),
        &mut cutter,
    );
    cutter.scheme
}

/// The original graph + DFS formulation of Algorithm 2, kept as the test
/// oracle for the linear-scan fast path (see the module docs and the
/// oracle-vs-fast-solver pattern in `ROADMAP.md`).
#[cfg(test)]
pub(crate) fn orchestrate_dcn_free_graph_oracle(
    order: &[NodeId],
    k: usize,
    faults: &FaultSet,
    nodes_per_group: usize,
) -> PlacementScheme {
    use topology::NodeGraph;

    assert!(nodes_per_group > 0, "TP groups need at least one node");
    assert!(k > 0, "K must be at least 1");
    if order.is_empty() {
        return PlacementScheme::new();
    }

    // Build the K-hop graph over *positions* in the given order, then map back
    // to node ids. Using positions keeps the graph dense even when `order` is
    // a subset of the cluster (e.g. one sub-line of the fat-tree deployment).
    let mut graph = NodeGraph::new(order.len());
    for i in 0..order.len() {
        for hop in 1..=k {
            if i + hop < order.len() {
                graph.add_edge(NodeId(i), NodeId(i + hop));
            }
        }
    }

    // Healthy subgraph + connected components (the DFS of Algorithm 2).
    let healthy_positions: Vec<NodeId> = order
        .iter()
        .enumerate()
        .filter(|(_, node)| !faults.is_faulty(**node))
        .map(|(i, _)| NodeId(i))
        .collect();
    let healthy_graph = graph
        .induced_subgraph(|pos| pos.index() < order.len() && !faults.is_faulty(order[pos.index()]));
    let components = healthy_graph.connected_components(&healthy_positions);

    // Cut each component (already sorted in HBD order) into groups of m.
    let mut scheme = PlacementScheme::new();
    for component in components {
        let nodes: Vec<NodeId> = component.iter().map(|pos| order[pos.index()]).collect();
        for chunk in nodes.chunks(nodes_per_group) {
            if chunk.len() == nodes_per_group {
                scheme.push(TpGroup::new(chunk.to_vec()));
            }
        }
    }
    scheme
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn order(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn faults(nodes: &[usize]) -> FaultSet {
        FaultSet::from_nodes(nodes.iter().map(|&n| NodeId(n)))
    }

    #[test]
    fn healthy_cluster_is_packed_completely() {
        let scheme = orchestrate_dcn_free(&order(32), 2, &FaultSet::new(), 8);
        assert_eq!(scheme.len(), 4);
        assert_eq!(scheme.nodes_placed(), 32);
        assert!(scheme.validate(8, &BTreeSet::new()).is_ok());
        // Groups follow deployment order.
        assert_eq!(scheme.groups[0].nodes[0], NodeId(0));
        assert_eq!(scheme.groups[3].nodes[7], NodeId(31));
    }

    #[test]
    fn single_fault_is_bypassed_and_costs_at_most_one_group() {
        let scheme = orchestrate_dcn_free(&order(33), 2, &faults(&[5]), 8);
        // 32 healthy nodes remain in one component -> 4 groups.
        assert_eq!(scheme.len(), 4);
        let placed: BTreeSet<NodeId> = scheme
            .groups
            .iter()
            .flat_map(|g| g.nodes.iter().copied())
            .collect();
        assert!(!placed.contains(&NodeId(5)));
    }

    #[test]
    fn unbypassable_fault_run_splits_components() {
        // K = 2, two consecutive faults split the line; each side packs its own
        // groups and the remainders are wasted independently.
        let scheme = orchestrate_dcn_free(&order(20), 2, &faults(&[9, 10]), 4);
        // Left component: nodes 0..8 (9 nodes) -> 2 groups; right: 11..19 (9) -> 2.
        assert_eq!(scheme.len(), 4);
        // With K = 3 the same faults are bypassed: 18 healthy nodes -> 4 groups
        // in one component plus the remainder.
        let scheme3 = orchestrate_dcn_free(&order(20), 3, &faults(&[9, 10]), 4);
        assert_eq!(scheme3.len(), 4);
        assert_eq!(scheme3.nodes_placed(), 16);
    }

    #[test]
    fn groups_never_contain_faulty_nodes() {
        let f = faults(&[1, 7, 13]);
        let scheme = orchestrate_dcn_free(&order(24), 3, &f, 4);
        let faulty: BTreeSet<NodeId> = f.iter().collect();
        assert!(scheme.validate(4, &faulty).is_ok());
    }

    #[test]
    fn empty_inputs_produce_empty_schemes() {
        assert!(orchestrate_dcn_free(&[], 2, &FaultSet::new(), 4).is_empty());
        let all_faulty = faults(&[0, 1, 2, 3]);
        assert!(orchestrate_dcn_free(&order(4), 2, &all_faulty, 2).is_empty());
    }

    #[test]
    fn works_on_non_contiguous_node_orderings() {
        // A sub-line of the deployment: nodes 0, 16, 32, 48 are HBD neighbours
        // even though their ids are far apart.
        let subline: Vec<NodeId> = (0..8).map(|i| NodeId(i * 16)).collect();
        let scheme = orchestrate_dcn_free(&subline, 2, &faults(&[32]), 2);
        // 7 healthy nodes in one component -> 3 groups of 2.
        assert_eq!(scheme.len(), 3);
        for group in &scheme.groups {
            for node in &group.nodes {
                assert_eq!(node.index() % 16, 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_group_size_is_rejected() {
        let _ = orchestrate_dcn_free(&order(4), 2, &FaultSet::new(), 0);
    }

    /// Random Algorithm-2 instances: an arbitrary (non-monotonic) node order,
    /// a random fault set drawn from the same id space, and random `K` / `m`.
    fn arbitrary_instance() -> impl Strategy<Value = (Vec<NodeId>, FaultSet, usize, usize)> {
        (
            proptest::collection::btree_set(0usize..200, 0..48),
            proptest::collection::btree_set(0usize..200, 0..32),
            1usize..5,
            1usize..6,
        )
            .prop_map(|(ids, faulty, k, m)| {
                // A sorted id set would only exercise ascending orders; flip
                // the tail half so the scan sees a genuinely positional (not
                // id-ordered) HBD line, like a fat-tree sub-line does.
                let mut order: Vec<NodeId> = ids.into_iter().map(NodeId).collect();
                let half = order.len() / 2;
                order[half..].reverse();
                let faults = FaultSet::from_nodes(faulty.into_iter().map(NodeId));
                (order, faults, k, m)
            })
    }

    proptest! {
        /// The linear-scan kernel is pinned bit-for-bit to the graph + DFS
        /// oracle: same groups, same `NodeId`s, same order (`PlacementScheme`
        /// equality is exact — no floats involved).
        #[test]
        fn linear_scan_matches_graph_oracle(
            (order, faults, k, m) in arbitrary_instance()
        ) {
            let fast = orchestrate_dcn_free(&order, k, &faults, m);
            let oracle = orchestrate_dcn_free_graph_oracle(&order, k, &faults, m);
            prop_assert_eq!(fast, oracle);
        }

        /// The counting sink places exactly as many nodes as the cutter.
        #[test]
        fn group_counter_matches_the_cutter(
            (order, faults, k, m) in arbitrary_instance()
        ) {
            let mut counter = GroupCounter::new(m);
            scan_khop_runs(order.iter().copied(), k, |n| faults.is_faulty(*n), &mut counter);
            prop_assert_eq!(
                counter.placed,
                orchestrate_dcn_free(&order, k, &faults, m).nodes_placed()
            );
        }

        /// The concatenation law behind the O(p) probe: cutting a random
        /// line at random points (empty and all-faulty pieces included),
        /// summarizing each piece and folding the summaries left to right
        /// counts exactly what a `GroupCounter` counts over the whole line.
        /// The fold of every piece is also the summary of the whole line.
        #[test]
        fn folded_run_summaries_count_like_the_whole_line(
            line in proptest::collection::vec(0usize..3, 0..80),
            cuts in proptest::collection::vec(0usize..81, 0..8),
            k in 1usize..5,
            m in 1usize..17,
        ) {
            // Two in three positions faulty, so long fault runs, all-faulty
            // pieces and severed lines are common.
            let faulty: Vec<bool> = line.iter().map(|&v| v != 0).collect();
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(faulty.len())).collect();
            bounds.extend([0, faulty.len()]);
            bounds.sort_unstable();
            let pieces = bounds.windows(2).map(|w| &faulty[w[0]..w[1]]);
            let summarize = |piece: &[bool]| RunSummary::scan(piece, k, m, |&&f| f);
            let folded = pieces.fold(RunSummary::default(), |acc, piece| acc.then(summarize(piece), k, m));

            let mut counter = GroupCounter::new(m);
            scan_khop_runs(faulty.iter(), k, |&&f| f, &mut counter);
            prop_assert_eq!(folded.placed(m), counter.placed);
            prop_assert_eq!(folded, summarize(&faulty));
        }

        /// Dense fault runs around the `K` threshold are the interesting
        /// regime (a run of `K − 1` is bypassed, `K` severs): force them by
        /// making every `stride`-th node faulty in blocks.
        #[test]
        fn linear_scan_matches_oracle_on_periodic_fault_runs(
            n in 1usize..64,
            run in 1usize..5,
            stride in 1usize..9,
            k in 1usize..5,
            m in 1usize..6,
        ) {
            let period = run + stride;
            let faults = FaultSet::from_nodes(
                (0..n).filter(|i| i % period < run).map(NodeId),
            );
            let order: Vec<NodeId> = (0..n).map(NodeId).collect();
            let fast = orchestrate_dcn_free(&order, k, &faults, m);
            let oracle = orchestrate_dcn_free_graph_oracle(&order, k, &faults, m);
            prop_assert_eq!(fast, oracle);
        }
    }
}
