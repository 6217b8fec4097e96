//! Behavioural model of the **OCSTrx** — the Silicon-Photonics Optical Circuit
//! Switching transceiver at the heart of InfiniteHBD (§4.1 and §5.1 of the
//! paper).
//!
//! The real device is a QSFP-DD 800 Gbps module that embeds:
//!
//! * an **MZI switch matrix** on the Photonic Integrated Circuit (PIC) that lets
//!   the Tx light path be steered between two *external* outputs and an
//!   *internal cross-lane loopback* path,
//! * a photodetector per Rx path plus a linear TIA,
//! * an OCS controller chip that drives the thermo-optic phase arms and realises
//!   the 60–80 µs *fast switch* mechanism by preloading "Top-Session"
//!   configurations.
//!
//! This crate models that hardware at the behavioural level needed by the rest
//! of the simulator:
//!
//! * [`mzi`] / [`matrix`] — the optical routing fabric (which input lane reaches
//!   which output port, how many MZI stages the light crosses, the per-stage
//!   insertion loss),
//! * [`path`] / [`transceiver`] — the three paths, their exclusive activation
//!   and reconfiguration latency,
//! * [`optics`] — insertion-loss and bit-error-rate models parameterised by
//!   ambient temperature, calibrated to the paper's measurements (Figs 10a, 11
//!   and 12),
//! * [`power`] — core-module and peripheral power (Fig 10b),
//! * [`bundle`] — the OCSTrx *bundle* abstraction driven by the control
//!   plane's fabric managers (one bundle per GPU pair on the UBB 2.0
//!   baseboard).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod matrix;
pub mod mzi;
pub mod optics;
pub mod path;
pub mod power;
pub mod transceiver;

pub use bundle::{Bundle, BundleState};
pub use matrix::MziSwitchMatrix;
pub use mzi::{MziElement, MziState};
pub use optics::{BerModel, InsertionLossModel, OpticalConditions};
pub use path::PathId;
pub use power::PowerModel;
pub use transceiver::{OcsTrx, TrxConfig};
