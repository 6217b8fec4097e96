//! The **Big-Switch** ideal: a single, infinitely large, zero-latency switch
//! connecting every node in the datacenter.
//!
//! The paper uses Big-Switch as the theoretical upper limit of communication
//! performance and fault resilience (§6.1): any set of healthy GPUs can be
//! grouped into TP groups with no placement constraint, so the only waste is
//! the global fragmentation remainder `healthy mod TP`.

use crate::arch::{ArchitectureKind, FaultSet, HbdArchitecture, UtilizationReport};

/// The idealised Big-Switch HBD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BigSwitch {
    nodes: usize,
    gpus_per_node: usize,
}

impl BigSwitch {
    /// Creates a Big-Switch HBD over the whole cluster.
    pub fn new(nodes: usize, gpus_per_node: usize) -> Self {
        BigSwitch {
            nodes,
            gpus_per_node,
        }
    }
}

impl HbdArchitecture for BigSwitch {
    fn name(&self) -> &str {
        "Big-Switch"
    }

    fn kind(&self) -> ArchitectureKind {
        ArchitectureKind::Ideal
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
        let healthy = self.total_gpus() - faulty_gpus;
        let usable = (healthy / tp_size) * tp_size;
        UtilizationReport::new(self.total_gpus(), faulty_gpus, usable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbd_types::NodeId;

    #[test]
    fn healthy_cluster_only_wastes_the_global_remainder() {
        let hbd = BigSwitch::new(720, 4);
        let report = hbd.utilization(&FaultSet::new(), 64);
        assert_eq!(report.total_gpus, 2880);
        // 2880 is divisible by 64, so nothing is wasted.
        assert_eq!(report.wasted_healthy_gpus, 0);

        let report = hbd.utilization(&FaultSet::new(), 7);
        assert_eq!(report.wasted_healthy_gpus, 2880 % 7);
    }

    #[test]
    fn faults_only_cost_the_faulty_gpus_plus_remainder() {
        let hbd = BigSwitch::new(720, 4);
        let faults = FaultSet::from_nodes([NodeId(1), NodeId(2), NodeId(3)]);
        let report = hbd.utilization(&faults, 32);
        assert_eq!(report.faulty_gpus, 12);
        // 2868 healthy GPUs -> 89 groups of 32 = 2848 usable, 20 wasted.
        assert_eq!(report.usable_gpus, 2848);
        assert_eq!(report.wasted_healthy_gpus, 20);
    }

    #[test]
    fn fault_explosion_radius_is_at_most_one_group() {
        let hbd = BigSwitch::new(720, 4);
        assert!(hbd.fault_explosion_radius(32) <= 32);
        assert_eq!(hbd.kind(), ArchitectureKind::Ideal);
    }
}
