//! HBD topologies and the datacenter network (DCN) model.
//!
//! This crate implements every interconnect architecture compared in the paper:
//!
//! * [`khop_ring`] — **InfiniteHBD**'s reconfigurable K-Hop Ring (§4.2): every
//!   node connects to the nodes at distance ±1..±K, two links are active for the
//!   Ring-AllReduce and the rest serve as backups that bypass faulty nodes.
//! * [`big_switch`] — the *Big-Switch* ideal: one infinitely large, zero-latency
//!   switch connecting every node (the theoretical upper bound used in §6).
//! * [`nvl`] — switch-centric NVLink domains (NVL-36 / NVL-72 / NVL-576).
//! * [`tpuv4`] — the switch-GPU hybrid: 4³ TPU cubes joined by centralized OCS.
//! * [`sip_ring`] — GPU-centric fixed-size static rings (SiP-Ring).
//! * [`binary_hop`] — the Appendix-G.3 ±2^i rewiring used for Binary Exchange
//!   AllToAll (Expert Parallelism).
//! * [`fat_tree`] — the Fat-Tree DCN used for cross-ToR traffic accounting.
//!
//! All HBD architectures implement the [`arch::HbdArchitecture`] trait: given a
//! set of faulty nodes and a TP group size they report how many GPUs remain
//! *usable*, which is the quantity every fault-resilience experiment in §6.2 is
//! built on (GPU waste ratio, maximum job scale, fault-waiting time).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod big_switch;
pub mod binary_hop;
pub mod fat_tree;
pub mod graph;
pub mod khop_ring;
pub mod nvl;
pub mod runscan;
pub mod sip_ring;
pub mod tpuv4;

pub use arch::{ArchitectureKind, FaultSet, HbdArchitecture, UtilizationReport};
pub use big_switch::BigSwitch;
pub use binary_hop::BinaryHopRing;
pub use fat_tree::{FatTree, NetworkDistance};
pub use graph::NodeGraph;
pub use khop_ring::{KHopRing, RingSegment};
pub use nvl::{Nvl, NvlVariant};
pub use runscan::{scan_khop_runs, RunSink};
pub use sip_ring::SipRing;
pub use tpuv4::TpuV4;

use hbd_types::Result;

/// Convenience constructor: builds every architecture evaluated in the paper for
/// a cluster of `nodes` nodes with `gpus_per_node` GPUs each, in the order used
/// by the figures (InfiniteHBD K=2, InfiniteHBD K=3, Big-Switch, TPUv4, NVL-36,
/// NVL-72, NVL-576, SiP-Ring).
///
/// `tp_size` (in GPUs) is needed because SiP-Ring's static ring size is tied to
/// the TP size it was deployed for. Returns an error when the rings cannot be
/// built: no nodes, no GPUs per node, or a `tp_size` that is not a positive
/// multiple of `gpus_per_node`.
pub fn paper_architectures(
    nodes: usize,
    gpus_per_node: usize,
    tp_size: usize,
) -> Result<Vec<Box<dyn HbdArchitecture>>> {
    Ok(vec![
        Box::new(KHopRing::new(nodes, gpus_per_node, 2)?),
        Box::new(KHopRing::new(nodes, gpus_per_node, 3)?),
        Box::new(BigSwitch::new(nodes, gpus_per_node)),
        Box::new(TpuV4::new(nodes, gpus_per_node)),
        Box::new(Nvl::new(nodes, gpus_per_node, NvlVariant::Nvl36)),
        Box::new(Nvl::new(nodes, gpus_per_node, NvlVariant::Nvl72)),
        Box::new(Nvl::new(nodes, gpus_per_node, NvlVariant::Nvl576)),
        Box::new(SipRing::new(nodes, gpus_per_node, tp_size)?),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_architecture_set_is_complete() {
        let archs = paper_architectures(720, 4, 32).unwrap();
        assert_eq!(archs.len(), 8);
        let names: Vec<&str> = archs.iter().map(|a| a.name()).collect();
        assert!(names.contains(&"InfiniteHBD(K=2)"));
        assert!(names.contains(&"InfiniteHBD(K=3)"));
        assert!(names.contains(&"Big-Switch"));
        assert!(names.contains(&"TPUv4"));
        assert!(names.contains(&"NVL-36"));
        assert!(names.contains(&"NVL-72"));
        assert!(names.contains(&"NVL-576"));
        assert!(names.contains(&"SiP-Ring"));
        for arch in &archs {
            assert_eq!(arch.total_gpus(), 2880);
        }
    }

    #[test]
    fn healthy_cluster_has_no_waste_for_infinitehbd() {
        let archs = paper_architectures(720, 4, 32).unwrap();
        let faults = FaultSet::default();
        for arch in &archs {
            let report = arch.utilization(&faults, 32);
            assert_eq!(report.total_gpus, 2880);
            assert_eq!(report.faulty_gpus, 0);
            if arch.name().starts_with("InfiniteHBD") || arch.name() == "Big-Switch" {
                assert_eq!(report.wasted_healthy_gpus, 0, "{}", arch.name());
            }
        }
    }

    #[test]
    fn invalid_caller_input_is_an_error_not_a_panic() {
        // A TP size that is not a multiple of the node size cannot deploy
        // SiP-Ring, and an empty cluster cannot close a K-Hop ring.
        assert!(paper_architectures(720, 4, 30).is_err());
        assert!(paper_architectures(720, 4, 0).is_err());
        assert!(paper_architectures(0, 4, 32).is_err());
        assert!(paper_architectures(720, 0, 32).is_err());
    }
}
