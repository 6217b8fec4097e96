//! A flow-level simulator of the **Datacenter Network (DCN)** that carries the
//! DP / CP / PP / SP traffic of LLM training jobs.
//!
//! §4.3 and §6.4 of the paper argue that the *placement* of TP groups inside
//! InfiniteHBD determines where the DP traffic lands in the DCN: a bad
//! placement forces DP pairs across ToR switches, the oversubscribed ToR
//! uplinks congest, and the exposed DP AllReduce time grows. The orchestrator
//! crate quantifies this with a traffic-counting metric (the cross-ToR rate of
//! Fig. 17); this crate goes one level deeper and simulates the traffic at flow
//! granularity:
//!
//! 1. [`network::DcnNetwork`] builds the two-tier Fat-Tree link plant
//!    (node↔ToR access links, ToR↔Aggregation uplinks with a configurable
//!    oversubscription ratio),
//! 2. [`traffic`] lowers placements into flows — from the single-epoch DP ring
//!    of [`traffic::dp_ring_flows`] up to the full [`traffic::TrafficMatrix`]
//!    lowering of an `llmsim` parallelism plan (DP + PP + CP/SP dimensions)
//!    into per-epoch flow sets,
//! 3. [`network::DcnNetwork::route`] picks ECMP paths (the replay engine uses
//!    the allocation-free [`network::DcnNetwork::route_links_into`] to build
//!    flattened CSR route tables),
//! 4. [`maxmin`] computes the max-min fair rate allocation of all concurrent
//!    flows — an incremental, route-class-aggregating solver
//!    ([`maxmin::MaxMinSolver`]) that is bit-identical to textbook
//!    progressive filling but re-solves thousands of allocations without
//!    per-call allocation,
//! 5. [`simulator::FlowSimulation`] reports completion times, link
//!    utilisation, and the slowdown relative to an uncongested network for a
//!    single flow set, and
//! 6. [`engine::replay_mix_par`] replays **several jobs' epoch cycles
//!    concurrently** (placed by [`jobmix::place_mix`]) and reports per-job
//!    interference — slowdown vs. the isolated run, p99 epoch stretch, and
//!    the link hot-spot profile — plus the engine's own cost counters
//!    ([`engine::ReplayStats`]), fanning the independent isolated baselines
//!    out over `hbd_types::par`.
//!
//! The result is an end-to-end ablation path: orchestration quality → cross-ToR
//! flows → congestion → exposed DP time — now including the multi-job
//! shared-fabric contention the electrical DCN actually serves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod flow;
pub mod jobmix;
pub mod maxmin;
pub mod network;
pub mod simulator;
pub mod traffic;

pub use engine::{replay_mix_par, JobInterference, MixOutcome, ReplayStats};
pub use flow::{Flow, Route};
pub use jobmix::{greedy_place_mix, place_mix, MixJob, PlacedJob};
pub use maxmin::{max_min_rates, MaxMinSolver};
pub use network::{DcnLink, DcnNetwork, LinkKind, NetworkParams};
pub use simulator::{CongestionReport, FlowSimulation};
pub use traffic::{
    dp_ring_flows, JobTraffic, LogicalShape, TrafficEpoch, TrafficMatrix, TrafficProfile,
    TrafficSpec,
};
