//! OCSTrx *bundles* — the unit of connectivity the topology reasons about.
//!
//! On the UBB 2.0 baseboard (Fig 4), each pair of GPUs shares a bundle of
//! OCSTrx modules: one GPU drives the upper-half SerDes lanes, the other the
//! lower half. A 6.4 Tbps GPU needs 8 × 800 Gbps modules per bundle. The bundle
//! acts as a single logical switchable link: all modules in the bundle are
//! reconfigured together, and its aggregate bandwidth rides on whichever path is
//! active.

use crate::path::PathId;
use crate::transceiver::OcsTrx;
use hbd_types::{HbdError, Microseconds, Result};
use serde::{Deserialize, Serialize};

/// Aggregate state of a bundle, as seen by the topology layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BundleState {
    /// The bundle carries traffic on its primary external path.
    ActivePrimary,
    /// The bundle carries traffic on its backup external path (fault bypass).
    ActiveBackup,
    /// The bundle is closed into the intra-node loopback (ring endpoint).
    Loopback,
    /// The bundle is idle (e.g. replaced by a DAC link in the cost-reduced
    /// variant, or simply unused by the current job).
    Idle,
}

/// A bundle of OCSTrx modules serving one GPU pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Bundle {
    modules: Vec<OcsTrx>,
    state: BundleState,
}

impl Bundle {
    /// Creates a bundle of `modules` OCSTrx with the default QSFP-DD 800G
    /// configuration. The paper's reference design uses 8 modules per bundle
    /// for a 6.4 Tbps GPU.
    pub fn new(modules: usize) -> Result<Self> {
        if modules == 0 {
            return Err(HbdError::invalid_config(
                "a bundle needs at least one OCSTrx",
            ));
        }
        Ok(Bundle {
            modules: vec![OcsTrx::new(); modules],
            state: BundleState::ActivePrimary,
        })
    }

    /// Current aggregate state.
    pub fn state(&self) -> BundleState {
        self.state
    }

    /// Switches the whole bundle to its primary external path. Returns the
    /// latency of the slowest module (they reconfigure concurrently).
    pub fn activate_primary(&mut self) -> Result<Microseconds> {
        let t = self.reconfigure_all(PathId::External1)?;
        self.state = BundleState::ActivePrimary;
        Ok(t)
    }

    /// Switches the whole bundle to its backup external path (fault bypass).
    pub fn activate_backup(&mut self) -> Result<Microseconds> {
        let t = self.reconfigure_all(PathId::External2)?;
        self.state = BundleState::ActiveBackup;
        Ok(t)
    }

    /// Closes the bundle into the intra-node cross-lane loopback, making the
    /// two GPUs of the pair ring endpoints.
    pub fn activate_loopback(&mut self) -> Result<Microseconds> {
        let t = self.reconfigure_all(PathId::Loopback)?;
        self.state = BundleState::Loopback;
        Ok(t)
    }

    /// Marks the bundle idle (no traffic, e.g. not used by the current ring).
    pub fn set_idle(&mut self) {
        self.state = BundleState::Idle;
    }

    fn reconfigure_all(&mut self, path: PathId) -> Result<Microseconds> {
        let mut worst = Microseconds::ZERO;
        for module in &mut self.modules {
            let t = module.reconfigure(path)?;
            worst = worst.max(t);
        }
        Ok(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbd_types::Gbps;

    #[test]
    fn reference_bundle_reaches_6_4_tbps() {
        let bundle = Bundle::new(8).unwrap();
        assert_eq!(bundle.modules.len(), 8);
        let line_rate = bundle
            .modules
            .iter()
            .map(|m| m.config().line_rate)
            .fold(Gbps::ZERO, |a, b| a + b);
        assert_eq!(line_rate, Gbps(6400.0));
        assert_eq!(bundle.state(), BundleState::ActivePrimary);
    }

    #[test]
    fn empty_bundles_are_rejected() {
        assert!(Bundle::new(0).is_err());
    }

    #[test]
    fn bundle_reconfiguration_latency_is_bounded_by_slowest_module() {
        let mut bundle = Bundle::new(4).unwrap();
        let t = bundle.activate_backup().unwrap();
        assert!(t.value() >= 60.0 && t.value() <= 80.0);
        assert_eq!(bundle.state(), BundleState::ActiveBackup);
    }

    #[test]
    fn loopback_closes_the_bundle() {
        let mut bundle = Bundle::new(2).unwrap();
        bundle.activate_loopback().unwrap();
        assert_eq!(bundle.state(), BundleState::Loopback);
    }

    #[test]
    fn idle_bundles_deliver_no_bandwidth() {
        // Idling is a bookkeeping change: no module switches, so it is free.
        let mut bundle = Bundle::new(2).unwrap();
        bundle.set_idle();
        assert_eq!(bundle.state(), BundleState::Idle);
        assert_eq!(bundle.activate_primary().unwrap(), Microseconds::ZERO);
    }

    #[test]
    fn fault_bypass_workflow_restores_bandwidth() {
        let mut bundle = Bundle::new(8).unwrap();
        // Neighbour on the primary path fails: the bundle bypasses it on the
        // backup fiber within the 60–80 µs window...
        let t = bundle.activate_backup().unwrap();
        assert!(t.value() >= 60.0 && t.value() <= 80.0);
        assert_eq!(bundle.state(), BundleState::ActiveBackup);
        // ...and after repair the primary can be re-activated.
        let t = bundle.activate_primary().unwrap();
        assert!(t.value() >= 60.0 && t.value() <= 80.0);
        assert_eq!(bundle.state(), BundleState::ActivePrimary);
    }
}
