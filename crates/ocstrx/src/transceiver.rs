//! The OCSTrx module: exclusive path activation, reconfiguration latency and
//! the bandwidth-allocation rule.
//!
//! The transceiver is the unit that the topology crate reasons about: it has
//! exactly one *active* path at a time (time-division bandwidth allocation,
//! §3 Design 1), switching between paths costs 60–80 µs end to end, and the
//! full line rate (800 Gbps per module) always rides on the active path.

use crate::matrix::MziSwitchMatrix;
use crate::optics::{BerModel, InsertionLossModel, OpticalConditions};
use crate::path::PathId;
use crate::power::PowerModel;
use hbd_types::{Gbps, HbdError, Microseconds, Result, Watts};

/// Static configuration of an OCSTrx module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrxConfig {
    /// Line rate of the module.
    pub line_rate: Gbps,
    /// Number of SerDes lane pairs (8 for QSFP-DD 800G).
    pub lanes: usize,
    /// Lower bound of the end-to-end reconfiguration latency.
    pub reconfig_min: Microseconds,
    /// Upper bound of the end-to-end reconfiguration latency.
    pub reconfig_max: Microseconds,
}

impl TrxConfig {
    /// The QSFP-DD 800 Gbps configuration evaluated in the paper.
    fn qsfp_dd_800g() -> Self {
        TrxConfig {
            line_rate: Gbps(800.0),
            lanes: 8,
            reconfig_min: Microseconds(60.0),
            reconfig_max: Microseconds(80.0),
        }
    }

    /// Validates the configuration.
    fn validate(&self) -> Result<()> {
        if self.lanes == 0 || !self.lanes.is_multiple_of(2) {
            return Err(HbdError::invalid_config(format!(
                "OCSTrx needs an even, positive lane count (got {})",
                self.lanes
            )));
        }
        if self.line_rate.value() <= 0.0 {
            return Err(HbdError::invalid_config("line rate must be positive"));
        }
        if self.reconfig_min.value() <= 0.0 || self.reconfig_max.value() < self.reconfig_min.value()
        {
            return Err(HbdError::invalid_config(
                "reconfiguration latency bounds must satisfy 0 < min <= max",
            ));
        }
        Ok(())
    }
}

impl Default for TrxConfig {
    fn default() -> Self {
        Self::qsfp_dd_800g()
    }
}

/// A single OCSTrx module.
#[derive(Debug, Clone)]
pub struct OcsTrx {
    config: TrxConfig,
    matrix: MziSwitchMatrix,
    loss_model: InsertionLossModel,
    ber_model: BerModel,
    power_model: PowerModel,
    /// The one path carrying the full line rate; every other path carries
    /// nothing (time-division bandwidth allocation).
    active: PathId,
}

impl OcsTrx {
    /// Creates a transceiver with the QSFP-DD 800G configuration, external
    /// path 1 active (the deployment-time default: the primary neighbour link).
    pub fn new() -> Self {
        Self::with_config(TrxConfig::qsfp_dd_800g()).expect("default config is valid")
    }

    /// Creates a transceiver with an explicit configuration.
    fn with_config(config: TrxConfig) -> Result<Self> {
        config.validate()?;
        Ok(OcsTrx {
            config,
            matrix: MziSwitchMatrix::new(config.lanes)?,
            loss_model: InsertionLossModel::paper_calibrated(),
            ber_model: BerModel::paper_calibrated(),
            power_model: PowerModel::paper_calibrated(),
            active: PathId::External1,
        })
    }

    /// Static configuration.
    pub fn config(&self) -> &TrxConfig {
        &self.config
    }

    /// Reconfigures the transceiver onto `path`, returning the end-to-end
    /// reconfiguration latency. Selecting the already-active path is free.
    ///
    /// The returned latency is the paper's 60–80 µs window: the optical
    /// (thermo-optic) settling time from the MZI model, floored/capped by the
    /// configured bounds which also account for the controller firmware.
    pub fn reconfigure(&mut self, path: PathId) -> Result<Microseconds> {
        if path == self.active {
            return Ok(Microseconds::ZERO);
        }
        let optical_settle = match path {
            PathId::External1 | PathId::External2 => {
                let mut t: f64 = 0.0;
                for lane in 0..self.config.lanes {
                    t = t.max(self.matrix.steer_external(lane, path)?);
                }
                t
            }
            PathId::Loopback => {
                let half = self.config.lanes / 2;
                let mut t: f64 = 0.0;
                for lane in 0..half {
                    t = t.max(self.matrix.steer_loopback(lane, lane + half)?);
                }
                t
            }
        };
        // End-to-end latency = optical settling + controller overhead, clamped
        // to the published 60–80 µs window.
        let latency = (optical_settle + 40.0)
            .max(self.config.reconfig_min.value())
            .min(self.config.reconfig_max.value());

        self.active = path;
        Ok(Microseconds(latency))
    }

    /// Insertion loss of the currently active path under the given conditions,
    /// drawn from the statistical loss model (deterministic mean via
    /// [`InsertionLossModel::mean_db`] is also available on the model itself).
    pub fn insertion_loss_db<R: rand::Rng + ?Sized>(
        &self,
        conditions: OpticalConditions,
        rng: &mut R,
    ) -> f64 {
        // The loopback path crosses more MZI stages; charge the extra element
        // loss relative to the external-path baseline that the model was
        // calibrated on.
        let extra = match self.active {
            PathId::Loopback => {
                self.matrix.element_loss_db(PathId::Loopback)
                    - self.matrix.element_loss_db(PathId::External1)
            }
            _ => 0.0,
        };
        self.loss_model.sample(conditions.temperature_c, rng) + extra
    }

    /// Expected BER of the active path under the given conditions.
    pub fn expected_ber(&self, conditions: OpticalConditions) -> f64 {
        self.ber_model.expected_ber(conditions)
    }

    /// Total module power under the given conditions.
    pub fn power(&self, temperature_c: f64) -> Watts {
        self.power_model.total_power(self.active, temperature_c)
    }
}

impl Default for OcsTrx {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::LaneTarget;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const ROOM_TEMPERATURE: OpticalConditions = OpticalConditions {
        temperature_c: 25.0,
        oma_mw: 1.0,
    };

    #[test]
    fn defaults_match_qsfp_dd_800g() {
        let trx = OcsTrx::new();
        assert_eq!(trx.config().line_rate, Gbps(800.0));
        assert_eq!(trx.config().lanes, 8);
        assert_eq!(trx.active, PathId::External1);
    }

    #[test]
    fn only_the_active_path_carries_bandwidth() {
        // The module holds one active path, so the whole line rate rides on
        // it: activating a path deactivates the previous one.
        let mut trx = OcsTrx::new();
        for path in [PathId::Loopback, PathId::External2, PathId::External1] {
            trx.reconfigure(path).unwrap();
            assert_eq!(trx.active, path);
            assert_eq!(trx.config().line_rate, Gbps(800.0));
        }
    }

    #[test]
    fn reconfiguration_latency_is_within_published_window() {
        let mut trx = OcsTrx::new();
        let t = trx.reconfigure(PathId::External2).unwrap();
        assert!(t.value() >= 60.0 && t.value() <= 80.0, "latency {t}");
        let t = trx.reconfigure(PathId::Loopback).unwrap();
        assert!(t.value() >= 60.0 && t.value() <= 80.0, "latency {t}");
    }

    #[test]
    fn reactivating_the_active_path_is_free() {
        let mut trx = OcsTrx::new();
        assert_eq!(
            trx.reconfigure(PathId::External1).unwrap(),
            Microseconds::ZERO
        );
        trx.reconfigure(PathId::External2).unwrap();
        assert_eq!(
            trx.reconfigure(PathId::External2).unwrap(),
            Microseconds::ZERO
        );
    }

    #[test]
    fn reconfiguration_moves_the_full_bandwidth() {
        let mut trx = OcsTrx::new();
        trx.reconfigure(PathId::External2).unwrap();
        assert_eq!(trx.active, PathId::External2);
        for lane in 0..trx.config().lanes {
            assert_eq!(
                trx.matrix.target(lane).unwrap(),
                LaneTarget::External(PathId::External2)
            );
        }
    }

    #[test]
    fn loopback_path_has_higher_insertion_loss() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut trx = OcsTrx::new();
        let cond = ROOM_TEMPERATURE;
        let ext_losses: f64 = (0..200)
            .map(|_| trx.insertion_loss_db(cond, &mut rng))
            .sum::<f64>()
            / 200.0;
        trx.reconfigure(PathId::Loopback).unwrap();
        let loop_losses: f64 = (0..200)
            .map(|_| trx.insertion_loss_db(cond, &mut rng))
            .sum::<f64>()
            / 200.0;
        assert!(loop_losses > ext_losses);
        assert!(ext_losses > 2.5 && ext_losses < 4.0);
    }

    #[test]
    fn power_stays_within_qsfp_dd_budget_across_paths() {
        let mut trx = OcsTrx::new();
        for path in PathId::ALL {
            trx.reconfigure(path).unwrap();
            for temp in [0.0, 25.0, 50.0, 85.0] {
                assert!(trx.power(temp).value() < 12.0);
            }
        }
    }

    #[test]
    fn expected_ber_is_zero_at_room_temperature() {
        let trx = OcsTrx::new();
        assert_eq!(trx.expected_ber(ROOM_TEMPERATURE), 0.0);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = TrxConfig::qsfp_dd_800g();
        cfg.lanes = 3;
        assert!(OcsTrx::with_config(cfg).is_err());
        let mut cfg = TrxConfig::qsfp_dd_800g();
        cfg.line_rate = Gbps(0.0);
        assert!(OcsTrx::with_config(cfg).is_err());
        let mut cfg = TrxConfig::qsfp_dd_800g();
        cfg.reconfig_max = Microseconds(10.0);
        assert!(OcsTrx::with_config(cfg).is_err());
    }
}
