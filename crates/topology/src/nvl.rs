//! Switch-centric NVLink HBD domains: NVL-36, NVL-72 and NVL-576.
//!
//! The cluster is partitioned into fixed-size NVLink domains; TP groups must be
//! placed entirely inside one domain (NVLink does not reach across domains), so
//! each domain suffers its own fragmentation: with TP-16 a 36-GPU domain can
//! host only two complete groups, wasting 4 of 36 GPUs (~11 %) even with zero
//! faults — exactly the number quoted in §2.1 and §6.2. Faulty GPUs inside a
//! domain reduce the healthy pool of that domain only.

use crate::arch::{ArchitectureKind, FaultSet, HbdArchitecture, UtilizationReport};
use serde::{Deserialize, Serialize};

/// The NVLink domain sizes compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NvlVariant {
    /// GB200 NVL-36: 36 GPUs per domain.
    Nvl36,
    /// GB200 NVL-72: 72 GPUs per domain.
    Nvl72,
    /// Two NVL-36 racks cabled into one 72-GPU domain (cost model only; for
    /// utilization it behaves like NVL-72).
    Nvl36x2,
    /// GB200 NVL-576: 576 GPUs per domain.
    Nvl576,
}

impl NvlVariant {
    /// GPUs per NVLink domain.
    pub const fn domain_gpus(self) -> usize {
        match self {
            NvlVariant::Nvl36 => 36,
            NvlVariant::Nvl72 | NvlVariant::Nvl36x2 => 72,
            NvlVariant::Nvl576 => 576,
        }
    }

    /// Display name matching the paper's figure legends.
    pub const fn name(self) -> &'static str {
        match self {
            NvlVariant::Nvl36 => "NVL-36",
            NvlVariant::Nvl72 => "NVL-72",
            NvlVariant::Nvl36x2 => "NVL-36x2",
            NvlVariant::Nvl576 => "NVL-576",
        }
    }
}

/// A cluster built from switch-centric NVLink domains.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Nvl {
    nodes: usize,
    gpus_per_node: usize,
    variant: NvlVariant,
}

impl Nvl {
    /// Creates an NVL cluster. Nodes are assigned to domains in deployment
    /// order; a trailing partial domain is allowed (it simply fragments more).
    pub fn new(nodes: usize, gpus_per_node: usize, variant: NvlVariant) -> Self {
        Nvl {
            nodes,
            gpus_per_node,
            variant,
        }
    }

    /// The NVLink variant.
    pub fn variant(&self) -> NvlVariant {
        self.variant
    }

    /// Nodes per domain.
    fn nodes_per_domain(&self) -> usize {
        (self.variant.domain_gpus() / self.gpus_per_node).max(1)
    }

    /// Number of domains (the last may be partial).
    pub fn domains(&self) -> usize {
        self.nodes.div_ceil(self.nodes_per_domain())
    }

    /// Healthy GPUs in each domain under the given fault pattern.
    fn healthy_gpus_per_domain(&self, faults: &FaultSet) -> Vec<usize> {
        let per_domain = self.nodes_per_domain();
        (0..self.domains())
            .map(|d| {
                let start = d * per_domain;
                let end = ((d + 1) * per_domain).min(self.nodes);
                (end - start - faults.count_in_range(start, end)) * self.gpus_per_node
            })
            .collect()
    }
}

impl HbdArchitecture for Nvl {
    fn name(&self) -> &str {
        self.variant.name()
    }

    fn kind(&self) -> ArchitectureKind {
        ArchitectureKind::SwitchCentric
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
        let usable: usize = self
            .healthy_gpus_per_domain(faults)
            .into_iter()
            .map(|healthy| (healthy / tp_size) * tp_size)
            .sum();
        UtilizationReport::new(self.total_gpus(), faulty_gpus, usable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbd_types::NodeId;

    #[test]
    fn domain_sizes_match_products() {
        assert_eq!(NvlVariant::Nvl36.domain_gpus(), 36);
        assert_eq!(NvlVariant::Nvl72.domain_gpus(), 72);
        assert_eq!(NvlVariant::Nvl36x2.domain_gpus(), 72);
        assert_eq!(NvlVariant::Nvl576.domain_gpus(), 576);
    }

    #[test]
    fn nvl36_wastes_eleven_percent_for_tp16_even_when_healthy() {
        // 720 nodes x 4 GPUs = 2,880 GPUs = 80 NVL-36 domains.
        let hbd = Nvl::new(720, 4, NvlVariant::Nvl36);
        assert_eq!(hbd.domains(), 80);
        let report = hbd.utilization(&FaultSet::new(), 16);
        // Each domain hosts 2 groups of 16 = 32 GPUs; 4 wasted per domain.
        assert_eq!(report.usable_gpus, 80 * 32);
        let waste = report.waste_ratio();
        assert!((waste - 4.0 / 36.0).abs() < 1e-9, "waste {waste}");
        assert!(waste > 0.11 && waste < 0.12);
    }

    #[test]
    fn nvl72_also_wastes_eleven_percent_for_tp16() {
        let hbd = Nvl::new(720, 4, NvlVariant::Nvl72);
        let report = hbd.utilization(&FaultSet::new(), 16);
        assert!((report.waste_ratio() - 8.0 / 72.0).abs() < 1e-9);
    }

    #[test]
    fn nvl576_has_no_fragmentation_for_power_of_two_tp() {
        let hbd = Nvl::new(720, 4, NvlVariant::Nvl576);
        assert_eq!(hbd.domains(), 5);
        for tp in [8, 16, 32, 64] {
            let report = hbd.utilization(&FaultSet::new(), tp);
            assert_eq!(report.wasted_healthy_gpus, 0, "TP {tp}");
        }
    }

    #[test]
    fn single_fault_fragments_only_its_domain() {
        let hbd = Nvl::new(720, 4, NvlVariant::Nvl72);
        let faults = FaultSet::from_nodes([NodeId(0)]);
        let report = hbd.utilization(&faults, 32);
        // Domain 0 now has 68 healthy GPUs -> 2 groups of 32 = 64, wasting 4.
        // Other 39 domains host 2 groups each with 8 wasted.
        assert_eq!(report.faulty_gpus, 4);
        assert_eq!(report.usable_gpus, 64 + 39 * 64);
    }

    #[test]
    fn fault_explosion_radius_is_domain_level_fragment() {
        let hbd36 = Nvl::new(720, 4, NvlVariant::Nvl36);
        let hbd576 = Nvl::new(720, 4, NvlVariant::Nvl576);
        // For TP-32, losing one node in NVL-576 can cost a whole extra group.
        assert!(hbd576.fault_explosion_radius(32) >= hbd36.fault_explosion_radius(32));
    }

    #[test]
    fn partial_trailing_domain_is_supported() {
        // 100 nodes of 4 GPUs with NVL-72 (18 nodes/domain): 5 full domains
        // plus a 10-node partial domain.
        let hbd = Nvl::new(100, 4, NvlVariant::Nvl72);
        assert_eq!(hbd.domains(), 6);
        let healthy = hbd.healthy_gpus_per_domain(&FaultSet::new());
        assert_eq!(healthy.len(), 6);
        assert_eq!(healthy[5], 40);
        let report = hbd.utilization(&FaultSet::new(), 16);
        assert_eq!(report.total_gpus, 400);
        assert_eq!(report.usable_gpus, 5 * 64 + 32);
    }
}
