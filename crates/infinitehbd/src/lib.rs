//! # InfiniteHBD
//!
//! A datacenter-scale High-Bandwidth Domain (HBD) built from optical
//! circuit-switching transceivers — a full simulation-based reproduction of
//! *"InfiniteHBD: Building Datacenter-Scale High-Bandwidth Domain for LLM with
//! Optical Circuit Switching Transceivers"* (SIGCOMM 2025).
//!
//! The workspace models every layer of the system:
//!
//! | Layer | Crate | What it provides |
//! |---|---|---|
//! | Device | [`ocstrx`] | The SiPh OCS transceiver: MZI switch matrix, path state machine, 60–80 µs fast switch, insertion-loss / BER / power models |
//! | Topology | [`topology`] | The reconfigurable K-Hop Ring plus every baseline HBD (Big-Switch, NVL-36/72/576, TPUv4, SiP-Ring) and the Fat-Tree DCN |
//! | Faults | [`fault`] | Production-calibrated fault-trace generation, the 8→4 GPU node conversion, i.i.d. fault models |
//! | Collectives | [`collective`] | Ring-AllReduce and the AllToAll family (incl. Binary Exchange), with symbolic correctness checks and α–β costing |
//! | Training | [`llmsim`] | The analytical LLM training simulator (MFU, parallelism search) |
//! | Orchestration | [`orchestrator`] | Algorithms 1–5: DCN-free placement, deployment wiring, Fat-Tree placement with binary-searched constraints, the greedy baseline and cross-ToR accounting |
//! | Economics | [`cost`] | The Table-8 component catalogue, per-architecture BOMs, Table-6 normalisation and the Fig-17d aggregate cost |
//! | Control plane | [`control`] | The §5.2 node fabric manager, cluster manager and failover planner with end-to-end recovery latency accounting |
//! | DCN | [`dcn`] | A flow-level Fat-Tree simulator (ECMP + max-min fairness) turning placement quality into congestion and exposed DP time |
//! | Cluster | [`cluster`] | GPU waste ratio, maximum job scale, fault-waiting time, the Appendix-C bound |
//!
//! ## Quickstart
//!
//! ```
//! use infinitehbd::prelude::*;
//!
//! // A 2,880-GPU cluster of 4-GPU nodes wired as a 3-Hop Ring.
//! let ring = KHopRing::new(720, 4, 3).expect("valid topology");
//!
//! // Knock out a few nodes and see how much capacity survives for TP-32.
//! let faults = FaultSet::from_nodes([NodeId(10), NodeId(11), NodeId(400)]);
//! let report = ring.utilization(&faults, 32);
//! assert!(report.waste_ratio() < 0.01);
//! ```
//!
//! The `examples/` directory walks through the main workflows (fault
//! resilience, training MFU, orchestration, cost analysis) and the `bench`
//! crate regenerates every table and figure of the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cluster;
pub use collective;
pub use control;
pub use cost;
pub use dcn;
pub use fault;
pub use hbd_types;
pub use llmsim;
pub use ocstrx;
pub use orchestrator;
pub use topology;

pub mod experiment;

/// The most commonly used types, re-exported for convenience.
pub mod prelude {
    pub use crate::experiment::{ClusterStudy, StudyReport};
    pub use cluster::{
        fault_waiting_rate_par, max_job_over_trace_par, max_supported_job, waste_over_trace_par,
        waste_ratio, waste_vs_fault_ratio_par,
    };
    pub use collective::{
        AllToAllAlgorithm, AlphaBeta, FastSwitchAllToAll, HierarchicalAllReduce, RingAllReduce,
        RingUtilization,
    };
    pub use control::{
        ClusterManager, ControlLatencies, FailoverPlanner, RecoveryReport, RingPlan,
    };
    pub use cost::{aggregate_cost, AggregateCostInput, ArchitectureBom, NormalizedCost};
    pub use dcn::{
        dp_ring_flows, greedy_place_mix, place_mix, replay_mix_par, CongestionReport, DcnNetwork,
        Flow, FlowSimulation, JobInterference, JobTraffic, LogicalShape, MaxMinSolver, MixJob,
        MixOutcome, NetworkParams, PlacedJob, ReplayStats, TrafficEpoch, TrafficMatrix,
        TrafficProfile, TrafficSpec,
    };
    pub use fault::{
        convert_8gpu_to_4gpu, FaultEvent, FaultTrace, GeneratorConfig, IidFaultModel,
        TraceGenerator, TraceStats,
    };
    pub use hbd_types::{
        Bytes, ClusterConfig, Dollars, GBps, Gbps, GpuId, GpuSpec, HbdError, Microseconds, NodeId,
        NodeSize, Result, Seconds, ToRId, Watts,
    };
    pub use llmsim::{
        CommModel, DcnPairVolumes, ModelConfig, ParallelismStrategy, SearchSpace, StrategySearch,
        TrainingSimulator,
    };
    pub use ocstrx::{Bundle, OcsTrx, PathId, TrxConfig};
    pub use orchestrator::{
        cross_tor_rate, greedy_placement, max_orchestratable_job, FatTreeOrchestrator,
        MaxJobReport, OrchestrationRequest, PlacementQuery, PlacementScheme, PlacementService,
        SnapshotDelta, SnapshotStore, TrafficModel,
    };
    pub use topology::{
        paper_architectures, BigSwitch, BinaryHopRing, FatTree, FaultSet, HbdArchitecture,
        KHopRing, Nvl, NvlVariant, SipRing, TpuV4, UtilizationReport,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_working_end_to_end_path() {
        let ring = KHopRing::new(64, 4, 2).unwrap();
        let report = ring.utilization(&FaultSet::new(), 16);
        assert_eq!(report.usable_gpus, 256);
        let bom = ArchitectureBom::infinitehbd_k2();
        assert!(bom.cost_per_gpu().value() > 0.0);
    }
}
