//! The GPU-centric baseline: **SiP-Ring** — static, fixed-size optical rings.
//!
//! In SiP-Ring (SiP-ML's ring configuration) the cluster is wired into a series
//! of static rings whose size equals the TP group size the cluster was deployed
//! for (§6.1). GPUs forward traffic around the ring; there is no switching
//! element, so:
//!
//! * a ring with any faulty node degenerates into a line and can no longer run
//!   the ring collective at full bandwidth — the paper counts the whole ring as
//!   lost capacity ("HBD-level fault explosion radius"), and
//! * the TP size is frozen at deployment time: running a larger TP than the
//!   ring size is impossible, and running a smaller TP wastes the remainder of
//!   every ring.

use crate::arch::{ArchitectureKind, FaultSet, HbdArchitecture, UtilizationReport};
use hbd_types::{HbdError, Result};
use serde::{Deserialize, Serialize};

/// A cluster wired as fixed-size static rings.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SipRing {
    nodes: usize,
    gpus_per_node: usize,
    /// Ring size in GPUs, fixed at deployment time.
    ring_gpus: usize,
}

impl SipRing {
    /// Creates a SiP-Ring cluster deployed for rings of `ring_gpus` GPUs.
    pub fn new(nodes: usize, gpus_per_node: usize, ring_gpus: usize) -> Result<Self> {
        if gpus_per_node == 0 {
            return Err(HbdError::invalid_config("nodes need at least one GPU"));
        }
        if ring_gpus == 0 || !ring_gpus.is_multiple_of(gpus_per_node) {
            return Err(HbdError::invalid_config(format!(
                "ring size ({ring_gpus} GPUs) must be a positive multiple of the node size ({gpus_per_node})"
            )));
        }
        Ok(SipRing {
            nodes,
            gpus_per_node,
            ring_gpus,
        })
    }

    /// Nodes per ring.
    fn nodes_per_ring(&self) -> usize {
        self.ring_gpus / self.gpus_per_node
    }

    /// Number of complete rings (trailing nodes that do not fill a ring are
    /// never usable).
    pub fn rings(&self) -> usize {
        self.nodes / self.nodes_per_ring()
    }

    /// Whether ring `r` is intact (contains no faulty node).
    fn ring_intact(&self, ring: usize, faults: &FaultSet) -> bool {
        let per_ring = self.nodes_per_ring();
        let start = ring * per_ring;
        faults.count_in_range(start, start + per_ring) == 0
    }
}

impl HbdArchitecture for SipRing {
    fn name(&self) -> &str {
        "SiP-Ring"
    }

    fn kind(&self) -> ArchitectureKind {
        ArchitectureKind::GpuCentric
    }

    fn nodes(&self) -> usize {
        self.nodes
    }

    fn gpus_per_node(&self) -> usize {
        self.gpus_per_node
    }

    fn utilization(&self, faults: &FaultSet, tp_size: usize) -> UtilizationReport {
        assert!(tp_size > 0, "TP size must be positive");
        let faulty_nodes = faults.count_in_range(0, self.nodes);
        let faulty_gpus = faulty_nodes * self.gpus_per_node;

        // A TP group needs a ring at least as large as the group; the static
        // rings cannot be merged, so TP sizes above the deployed ring size are
        // simply unsupported.
        let usable = if tp_size > self.ring_gpus {
            0
        } else {
            (0..self.rings())
                .filter(|&r| self.ring_intact(r, faults))
                .map(|_| (self.ring_gpus / tp_size) * tp_size)
                .sum()
        };
        let healthy = self.total_gpus() - faulty_gpus;
        UtilizationReport::new(self.total_gpus(), faulty_gpus, usable.min(healthy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbd_types::NodeId;

    #[test]
    fn ring_size_must_be_node_multiple() {
        assert!(SipRing::new(720, 4, 0).is_err());
        assert!(SipRing::new(720, 4, 30).is_err());
        assert!(SipRing::new(720, 4, 32).is_ok());
    }

    #[test]
    fn healthy_cluster_fully_usable_at_deployed_tp() {
        let hbd = SipRing::new(720, 4, 32).unwrap();
        assert_eq!(hbd.rings(), 90);
        let report = hbd.utilization(&FaultSet::new(), 32);
        assert_eq!(report.wasted_healthy_gpus, 0);
    }

    #[test]
    fn one_fault_loses_the_whole_ring() {
        let hbd = SipRing::new(720, 4, 32).unwrap();
        let faults = FaultSet::from_nodes([NodeId(0)]);
        let report = hbd.utilization(&faults, 32);
        assert_eq!(report.faulty_gpus, 4);
        // The other 7 nodes of ring 0 (28 healthy GPUs) are wasted.
        assert_eq!(report.wasted_healthy_gpus, 28);
        assert_eq!(report.usable_gpus, 89 * 32);
    }

    #[test]
    fn tp_larger_than_ring_is_unsupported() {
        let hbd = SipRing::new(720, 4, 32).unwrap();
        let report = hbd.utilization(&FaultSet::new(), 64);
        assert_eq!(report.usable_gpus, 0);
        assert_eq!(report.wasted_healthy_gpus, 2880);
    }

    #[test]
    fn smaller_tp_still_limited_to_intact_rings() {
        let hbd = SipRing::new(720, 4, 32).unwrap();
        let faults = FaultSet::from_nodes([NodeId(0)]);
        let report = hbd.utilization(&faults, 16);
        // Ring 0 is broken: its 28 healthy GPUs are wasted even for TP-16.
        assert_eq!(report.usable_gpus, 89 * 32);
    }

    #[test]
    fn explosion_radius_is_one_ring() {
        let hbd = SipRing::new(720, 4, 32).unwrap();
        assert_eq!(hbd.fault_explosion_radius(32), 32);
    }

    #[test]
    fn trailing_partial_ring_is_never_usable() {
        let hbd = SipRing::new(10, 4, 32).unwrap();
        // 10 nodes -> 1 complete 8-node ring, 2 spare nodes.
        assert_eq!(hbd.rings(), 1);
        let report = hbd.utilization(&FaultSet::new(), 32);
        assert_eq!(report.usable_gpus, 32);
        assert_eq!(report.wasted_healthy_gpus, 8);
    }
}
