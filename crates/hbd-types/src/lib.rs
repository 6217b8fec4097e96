//! Common identifiers, physical units, configuration and error types shared by
//! every crate in the InfiniteHBD workspace.
//!
//! The simulator is deliberately *strongly typed*: GPU indices, node indices,
//! transceiver indices and rack (ToR) indices are distinct newtypes so that an
//! orchestration bug cannot silently mix a node id with a GPU id, and physical
//! quantities (bandwidth, power, money, time) carry their unit in the type.
//!
//! Everything here is `Copy`/`Clone` and has a total order where that makes
//! sense, so the higher-level crates can use these types as map keys and in
//! sorted structures without ceremony. Ids and units also serialise (as their
//! bare number) for the control-plane simulation's JSON report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod epoch;
pub mod error;
pub mod ids;
pub mod par;
pub mod robust;
pub mod sim;
pub mod units;

pub use config::{ClusterConfig, GpuSpec, NodeSize};
pub use epoch::{EpochCell, Versioned};
pub use error::{HbdError, Result};
pub use ids::{GpuId, LinkId, NodeId, SwitchId, ToRId, TrxId};
pub use par::{par_map, par_map_range, par_map_seeded, stream_seed};
pub use robust::{BackoffSchedule, BreakerConfig, BreakerState, CircuitBreaker};
pub use sim::{EventQueue, TimeUnit};
pub use units::{Bytes, Dollars, GBps, Gbps, Microseconds, Seconds, Watts};
