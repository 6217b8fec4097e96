//! Cluster-level fault-resilience simulation (§6.2 and Appendix E).
//!
//! This crate ties the topology models, the fault traces and the fault models
//! together into the quantities the paper's evaluation plots:
//!
//! * [`waste`] — GPU waste ratio of every architecture under a fault set, a
//!   fault-ratio sweep (Figs 14 / 22) or a trace replay (Figs 13 / 20 / 21),
//! * [`job`] — maximum supported job scale (Fig 15) and job fault-waiting rate
//!   (Figs 16 / 23),
//! * [`theory`] — the Appendix-C closed-form upper bound on InfiniteHBD's
//!   expected waste ratio (Table 7),
//! * [`lifecycle`] — an online discrete-event simulator of job arrivals,
//!   departures, faults and migrations sharing one cluster (beyond the
//!   paper's static mixes: queueing delay, placement latency, fragmentation
//!   and goodput SLOs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod job;
pub mod lifecycle;
pub mod theory;
pub mod waste;

pub use job::{fault_waiting_rate_par, max_job_over_trace_par, max_supported_job};
pub use lifecycle::{
    simulate, JobArrival, JobRecord, JobSpec, JobStatus, JobTemplate, LifecycleConfig,
    LifecycleOutcome, PlacementLatencyModel, Workload,
};
pub use theory::waste_ratio_upper_bound;
pub use waste::{waste_over_trace_par, waste_ratio, waste_vs_fault_ratio_par, WastePoint};
