//! Property tests pinning the incremental [`ExclusionLedger`] bit-for-bit
//! against a naive rebuild-from-scratch oracle (the standing practice for
//! every incremental solver in this workspace).
//!
//! The oracle replays the full operation history after every step: the
//! exclusion set is *defined* as `faults ∪ (nodes of active placements)`,
//! recomputed from nothing. The ledger must agree exactly — same bitset,
//! same sorted node list — after any interleaving of fault, repair, place
//! and release operations, including nodes that are simultaneously faulty
//! and placed.

use dcn::jobmix::ExclusionLedger;
use hbd_types::NodeId;
use orchestrator::{PlacementScheme, TpGroup};
use proptest::prelude::*;
use topology::FaultSet;

const NODES: usize = 48;

/// One abstract operation over a pool of `NODES` nodes and 6 job slots.
#[derive(Debug, Clone)]
enum Op {
    Fault(usize),
    Repair(usize),
    /// Place job `slot` on a contiguous-ish pseudo-random node pick.
    Place {
        slot: usize,
        start: usize,
        len: usize,
    },
    Release(usize),
}

fn arbitrary_ops() -> impl Strategy<Value = Vec<Op>> {
    // Encoded as plain integer tuples (kind, a, b, len) so one strategy type
    // covers all four variants; decoded into `Op` here.
    let op =
        (0usize..4, 0..NODES, 0usize..6, 1usize..8).prop_map(
            |(kind, node, slot, len)| match kind {
                0 => Op::Fault(node),
                1 => Op::Repair(node),
                2 => Op::Place {
                    slot,
                    start: node,
                    len,
                },
                _ => Op::Release(slot),
            },
        );
    proptest::collection::vec(op, 1..60)
}

/// The naive oracle: exclusion = faults ∪ nodes of all active placements,
/// rebuilt from scratch.
fn oracle(faults: &FaultSet, active: &[Option<PlacementScheme>]) -> FaultSet {
    let mut excluded = faults.clone();
    for scheme in active.iter().flatten() {
        for group in &scheme.groups {
            for &node in &group.nodes {
                excluded.add(node);
            }
        }
    }
    excluded
}

/// Builds the placement for a `Place` op: `len` nodes starting at `start`
/// (wrapping), skipping nodes already owned by another active placement so
/// placements stay disjoint (the ledger's contract).
fn build_scheme(start: usize, len: usize, active: &[Option<PlacementScheme>]) -> PlacementScheme {
    let mut owned = [false; NODES];
    for scheme in active.iter().flatten() {
        for group in &scheme.groups {
            for &node in &group.nodes {
                owned[node.index()] = true;
            }
        }
    }
    let nodes: Vec<NodeId> = (0..NODES)
        .map(|i| (start + i) % NODES)
        .filter(|&n| !owned[n])
        .take(len)
        .map(NodeId)
        .collect();
    PlacementScheme {
        groups: vec![TpGroup::new(nodes)],
    }
}

proptest! {
    /// After every single operation, the ledger's exclusion set equals the
    /// rebuild-from-scratch oracle bit-for-bit (FaultSet equality is word
    /// equality) and as the sorted node list its `Debug` prints.
    #[test]
    fn ledger_matches_rebuild_oracle(ops in arbitrary_ops()) {
        let mut ledger = ExclusionLedger::new();
        let mut faults = FaultSet::new();
        let mut active: Vec<Option<PlacementScheme>> = vec![None; 6];
        for op in &ops {
            match op {
                Op::Fault(n) => {
                    let newly = ledger.fault(NodeId(*n));
                    prop_assert_eq!(newly, faults.add(NodeId(*n)));
                }
                Op::Repair(n) => {
                    let was = ledger.repair(NodeId(*n));
                    prop_assert_eq!(was, faults.remove(NodeId(*n)));
                }
                Op::Place { slot, start, len } => {
                    // Release the slot first if occupied (a job slot reused).
                    if let Some(old) = active[*slot].take() {
                        ledger.release(&old);
                    }
                    let scheme = build_scheme(*start, *len, &active);
                    if scheme.nodes_placed() > 0 {
                        ledger.place(&scheme);
                        active[*slot] = Some(scheme);
                    }
                }
                Op::Release(slot) => {
                    if let Some(old) = active[*slot].take() {
                        ledger.release(&old);
                    }
                }
            }
            let expected = oracle(&faults, &active);
            prop_assert_eq!(ledger.excluded(), &expected);
            prop_assert_eq!(
                format!("{:?}", ledger.excluded()),
                format!("{expected:?}")
            );
            prop_assert_eq!(ledger.faulty(), &faults);
            let placed: usize = active
                .iter()
                .flatten()
                .map(|s| s.nodes_placed())
                .sum();
            prop_assert_eq!(ledger.placed_nodes(), placed);
        }
    }

    /// Driving one ledger through `publish_delta` and a twin through full
    /// `publish` lands both stores on identical snapshot fault sets at every
    /// publish point — the delta path reproduces the wholesale path exactly
    /// while skipping publishes whose flips cancelled out.
    #[test]
    fn delta_publishes_match_full_publishes(ops in arbitrary_ops(), period in 1usize..6) {
        use orchestrator::{FatTreeOrchestrator, SnapshotStore};
        use std::sync::Arc;
        use topology::FatTree;
        let orch =
            Arc::new(FatTreeOrchestrator::new(FatTree::new(NODES, 4, 4).unwrap()).unwrap());
        let delta_store = SnapshotStore::new(Arc::clone(&orch), FaultSet::new());
        let full_store = SnapshotStore::new(Arc::clone(&orch), FaultSet::new());
        let mut delta_ledger = ExclusionLedger::new();
        let mut full_ledger = ExclusionLedger::new();
        let mut active: Vec<Option<PlacementScheme>> = vec![None; 6];
        let mut last_epoch = 0;
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Fault(n) => {
                    delta_ledger.fault(NodeId(*n));
                    full_ledger.fault(NodeId(*n));
                }
                Op::Repair(n) => {
                    delta_ledger.repair(NodeId(*n));
                    full_ledger.repair(NodeId(*n));
                }
                Op::Place { slot, start, len } => {
                    if let Some(old) = active[*slot].take() {
                        delta_ledger.release(&old);
                        full_ledger.release(&old);
                    }
                    let scheme = build_scheme(*start, *len, &active);
                    if scheme.nodes_placed() > 0 {
                        delta_ledger.place(&scheme);
                        full_ledger.place(&scheme);
                        active[*slot] = Some(scheme);
                    }
                }
                Op::Release(slot) => {
                    if let Some(old) = active[*slot].take() {
                        delta_ledger.release(&old);
                        full_ledger.release(&old);
                    }
                }
            }
            if i % period == period - 1 {
                let published = delta_ledger.publish_delta(&delta_store);
                full_ledger.publish(&full_store);
                let delta_snapshot = delta_store.load();
                let full_snapshot = full_store.load();
                prop_assert_eq!(delta_snapshot.value.faults(), full_snapshot.value.faults());
                prop_assert_eq!(delta_snapshot.value.faults(), delta_ledger.excluded());
                prop_assert!(delta_ledger.take_pending_delta().is_empty());
                match published {
                    // A skip is only legal when nothing flipped: the epoch
                    // must not have moved.
                    None => prop_assert_eq!(delta_store.epoch(), last_epoch),
                    Some(epoch) => prop_assert_eq!(epoch, last_epoch + 1),
                }
                last_epoch = delta_store.epoch();
            }
        }
    }
}
