//! The failover planner: from a fault pattern to the ring plan that bypasses
//! it.
//!
//! The planner is the purely-functional core of the cluster manager: it owns a
//! [`topology::KHopRing`] description plus the matching [`Wiring`], and maps a
//! [`FaultSet`] to the [`RingPlan`] that realises every healthy segment the
//! topology can still form. Keeping it separate from the stateful
//! [`crate::ClusterManager`] makes it easy to property-test (plans must always
//! agree with `healthy_segments`) and to reuse from the orchestrator.

use crate::plan::RingPlan;
use crate::wiring::Wiring;
use hbd_types::Result;
use topology::{FaultSet, HbdArchitecture, KHopRing, RingSegment};

/// Plans OCSTrx configurations for a fixed K-Hop Ring deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverPlanner {
    ring: KHopRing,
    wiring: Wiring,
}

impl FailoverPlanner {
    /// Creates a planner for the given ring.
    pub fn new(ring: KHopRing) -> Result<Self> {
        let wiring = Wiring::new(ring.nodes(), ring.k(), ring.is_closed())?;
        Ok(FailoverPlanner { ring, wiring })
    }

    /// The topology this planner serves.
    pub fn ring(&self) -> &KHopRing {
        &self.ring
    }

    /// The wiring convention this planner assumes.
    pub fn wiring(&self) -> &Wiring {
        &self.wiring
    }

    /// The healthy segments that survive `faults`.
    pub fn segments(&self, faults: &FaultSet) -> Vec<RingSegment> {
        self.ring.healthy_segments(faults)
    }

    /// The ring plan realising every healthy segment under `faults`.
    pub fn plan(&self, faults: &FaultSet) -> Result<RingPlan> {
        RingPlan::for_segments(&self.wiring, &self.segments(faults))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbd_types::NodeId;
    use proptest::prelude::*;

    #[test]
    fn planner_mirrors_topology_segments() {
        let ring = KHopRing::new(64, 4, 2).unwrap();
        let planner = FailoverPlanner::new(ring).unwrap();
        let faults = FaultSet::from_nodes([NodeId(3), NodeId(4), NodeId(40)]);
        let segments = planner.segments(&faults);
        let plan = planner.plan(&faults).unwrap();
        // Every healthy node appears in the plan; every faulty node does not.
        for n in 0..64usize {
            let mentioned = plan.node(NodeId(n)).iter().count() > 0;
            assert_eq!(mentioned, !faults.is_faulty(NodeId(n)), "node {n}");
        }
        // Chain segments contribute two loopbacks each.
        let loopbacks: usize = (0..64)
            .map(|n| {
                plan.node(NodeId(n))
                    .iter()
                    .filter(|(_, a)| *a == crate::BundleAction::Loopback)
                    .count()
            })
            .sum();
        assert_eq!(loopbacks, 2 * segments.len());
    }

    proptest! {
        /// For an even K (direction-pure bundles) the planner must succeed for
        /// *any* fault pattern and its plans must activate a consistent number
        /// of external links: every adjacent pair inside a segment consumes
        /// exactly two external activations (one per end).
        #[test]
        fn plans_realise_segments_for_random_faults(
            faults in proptest::collection::btree_set(0usize..96, 0..24),
            k in prop_oneof![Just(2usize), Just(4usize)],
        ) {
            let ring = KHopRing::new(96, 4, k).unwrap();
            let planner = FailoverPlanner::new(ring).unwrap();
            let fault_set = FaultSet::from_nodes(faults.iter().map(|&n| NodeId(n)));
            let segments = planner.segments(&fault_set);
            let plan = planner.plan(&fault_set).unwrap();

            let healthy = 96 - fault_set.len();
            let full_cycle = segments.len() == 1 && segments[0].len() == 96;
            let expected_edges: usize = if full_cycle {
                96
            } else {
                segments.iter().map(|s| s.len().saturating_sub(1)).sum()
            };
            let external_activations: usize = (0..96)
                .map(|n| {
                    plan.node(NodeId(n))
                        .iter()
                        .filter(|(_, a)| matches!(
                            a,
                            crate::BundleAction::ActivatePrimary | crate::BundleAction::ActivateBackup
                        ))
                        .count()
                })
                .sum();
            prop_assert_eq!(external_activations, 2 * expected_edges);

            // The ring's usable GPUs fit on its healthy nodes.
            prop_assert_eq!(
                planner.ring().usable_gpus(&fault_set, 16) / 4 <= healthy,
                true
            );
        }
    }
}
