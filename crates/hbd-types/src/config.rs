//! Cluster-level configuration shared by the topology, fault and cluster crates.

use crate::error::{HbdError, Result};
use crate::units::{Bytes, Gbps};
use serde::{Deserialize, Serialize};

/// Number of GPUs per node.
///
/// The paper evaluates two node form factors: the 4-GPU node used by GB200
/// NVL-36/72/576 and TPUv4, and the 8-GPU node of DGX H100 / UBB 2.0 servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeSize {
    /// Four GPUs per node (GB200-style compute tray).
    Four,
    /// Eight GPUs per node (DGX / UBB 2.0 baseboard).
    Eight,
}

impl NodeSize {
    /// Number of GPUs on a node of this size.
    pub const fn gpus(self) -> usize {
        match self {
            NodeSize::Four => 4,
            NodeSize::Eight => 8,
        }
    }
}

/// Specification of the GPU model used in the simulation.
///
/// Defaults follow the paper's setup: NVIDIA H100 (989 TFLOPS dense BF16,
/// 80 GiB HBM), 6.4 Tbps of HBD bandwidth (8 × 800 Gbps OCSTrx) and a 400 Gbps
/// ConnectX-7 DCN NIC.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Peak dense compute throughput in TFLOPS (BF16 with FP32 accumulate).
    pub peak_tflops: f64,
    /// HBM capacity.
    pub memory: Bytes,
    /// HBD (scale-up) bandwidth available to this GPU.
    pub hbd_bandwidth: Gbps,
    /// DCN (scale-out) bandwidth available to this GPU.
    pub dcn_bandwidth: Gbps,
}

impl GpuSpec {
    /// The H100 configuration used throughout the paper's evaluation (§6.1).
    pub fn h100() -> Self {
        GpuSpec {
            peak_tflops: 989.0,
            memory: Bytes::from_gib(80.0),
            hbd_bandwidth: Gbps(6400.0),
            dcn_bandwidth: Gbps(400.0),
        }
    }
}

impl Default for GpuSpec {
    fn default() -> Self {
        Self::h100()
    }
}

/// Static description of the simulated cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Total number of nodes in the cluster.
    pub nodes: usize,
    /// GPUs per node.
    pub node_size: NodeSize,
    /// Nodes attached to each ToR switch of the DCN.
    pub nodes_per_tor: usize,
    /// ToRs per aggregation-switch domain of the Fat-Tree DCN.
    pub tors_per_aggregation_domain: usize,
    /// GPU model.
    pub gpu: GpuSpec,
}

impl ClusterConfig {
    /// Creates a validated cluster configuration.
    pub fn new(
        nodes: usize,
        node_size: NodeSize,
        nodes_per_tor: usize,
        tors_per_aggregation_domain: usize,
    ) -> Result<Self> {
        let config = ClusterConfig {
            nodes,
            node_size,
            nodes_per_tor,
            tors_per_aggregation_domain,
            gpu: GpuSpec::h100(),
        };
        config.validate()?;
        Ok(config)
    }

    /// The 2,880-GPU / 4-GPU-node cluster used for the fault-resilience
    /// simulations (§6.2): 720 nodes, 16 nodes per ToR, 4 ToRs per aggregation
    /// domain.
    pub fn paper_2880_gpu() -> Self {
        ClusterConfig {
            nodes: 720,
            node_size: NodeSize::Four,
            nodes_per_tor: 16,
            tors_per_aggregation_domain: 4,
            gpu: GpuSpec::h100(),
        }
    }

    /// The 8,192-GPU cluster used for the orchestration experiments (§6.4),
    /// with 4-GPU nodes (2,048 nodes).
    pub fn paper_8192_gpu() -> Self {
        ClusterConfig {
            nodes: 2048,
            node_size: NodeSize::Four,
            nodes_per_tor: 16,
            tors_per_aggregation_domain: 8,
            gpu: GpuSpec::h100(),
        }
    }

    /// Validates the internal consistency of the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.nodes == 0 {
            return Err(HbdError::invalid_config(
                "cluster must have at least one node",
            ));
        }
        if self.nodes_per_tor == 0 {
            return Err(HbdError::invalid_config("nodes_per_tor must be positive"));
        }
        if self.tors_per_aggregation_domain == 0 {
            return Err(HbdError::invalid_config(
                "tors_per_aggregation_domain must be positive",
            ));
        }
        if self.gpu.peak_tflops <= 0.0 {
            return Err(HbdError::invalid_config("GPU peak TFLOPS must be positive"));
        }
        Ok(())
    }

    /// Total number of GPUs in the cluster.
    pub fn total_gpus(&self) -> usize {
        self.nodes * self.node_size.gpus()
    }

    /// Number of ToR switches (rounded up so every node has a ToR).
    pub fn tors(&self) -> usize {
        self.nodes.div_ceil(self.nodes_per_tor)
    }

    /// Number of aggregation-switch domains (rounded up).
    pub fn aggregation_domains(&self) -> usize {
        self.tors().div_ceil(self.tors_per_aggregation_domain)
    }

    /// Number of nodes covered by one aggregation-switch domain.
    pub fn nodes_per_aggregation_domain(&self) -> usize {
        self.nodes_per_tor * self.tors_per_aggregation_domain
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self::paper_2880_gpu()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_size_gpu_counts() {
        assert_eq!(NodeSize::Four.gpus(), 4);
        assert_eq!(NodeSize::Eight.gpus(), 8);
    }

    #[test]
    fn h100_spec_matches_paper_setup() {
        let gpu = GpuSpec::h100();
        assert_eq!(gpu.peak_tflops, 989.0);
        assert!((gpu.memory.as_gib() - 80.0).abs() < 1e-9);
        assert_eq!(gpu.hbd_bandwidth, Gbps(6400.0));
        assert_eq!(gpu.dcn_bandwidth, Gbps(400.0));
        assert!((gpu.hbd_bandwidth.to_gbytes_per_sec().value() - 800.0).abs() < 1e-9);
        assert!((gpu.dcn_bandwidth.to_gbytes_per_sec().value() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn paper_cluster_has_2880_gpus() {
        let cfg = ClusterConfig::paper_2880_gpu();
        assert_eq!(cfg.total_gpus(), 2880);
        assert_eq!(cfg.tors(), 45);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn paper_8k_cluster_has_8192_gpus() {
        let cfg = ClusterConfig::paper_8192_gpu();
        assert_eq!(cfg.total_gpus(), 8192);
        assert_eq!(cfg.nodes_per_aggregation_domain(), 128);
        assert_eq!(cfg.aggregation_domains(), 16);
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        assert!(ClusterConfig::new(0, NodeSize::Four, 16, 4).is_err());
        assert!(ClusterConfig::new(10, NodeSize::Four, 0, 4).is_err());
        assert!(ClusterConfig::new(10, NodeSize::Four, 16, 0).is_err());
        let mut cfg = ClusterConfig::paper_2880_gpu();
        cfg.gpu.peak_tflops = 0.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn tor_and_domain_counts_round_up() {
        let cfg = ClusterConfig::new(17, NodeSize::Eight, 4, 2).unwrap();
        assert_eq!(cfg.tors(), 5);
        assert_eq!(cfg.aggregation_domains(), 3);
    }
}
