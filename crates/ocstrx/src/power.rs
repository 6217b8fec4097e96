//! Power model of the OCSTrx (Fig 10b and the QSFP-DD budget discussion).
//!
//! Published numbers (§5.1):
//!
//! * the peripheral circuitry (laser, driver, TIA, DSP) consumes **8.5 W**
//!   under the 8 × 112 G configuration,
//! * the *core module* (the OCS switch fabric plus its controller) consumes
//!   **less than 3.2 W** across the tested temperature range with all three
//!   paths exercised, with per-path power between roughly 2.9 W and 3.2 W and a
//!   mild upward trend with temperature (Fig 10b),
//! * the total stays below the 12 W available to a QSFP-DD 800G module.

use crate::path::PathId;
use hbd_types::Watts;

/// Power model for one OCSTrx module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Power of the non-OCS circuitry (laser, modulator driver, TIA, SerDes).
    pub peripheral: Watts,
    /// Core-module power at 25 °C when the loopback path (the deepest optical
    /// path) is active.
    pub core_loopback_at_25c: Watts,
    /// Reduction of core power when an external path (fewer MZI stages) is
    /// active instead of the loopback.
    pub external_path_discount: Watts,
    /// Increase of core power per °C above 25 °C (TEC / heater compensation).
    pub temperature_slope_w_per_c: f64,
    /// Power budget of the QSFP-DD 800G form factor.
    pub qsfp_dd_budget: Watts,
}

impl PowerModel {
    /// Model calibrated to the paper's measurements.
    pub fn paper_calibrated() -> Self {
        PowerModel {
            peripheral: Watts(8.5),
            core_loopback_at_25c: Watts(3.05),
            external_path_discount: Watts(0.08),
            temperature_slope_w_per_c: 0.0018,
            qsfp_dd_budget: Watts(12.0),
        }
    }

    /// Core-module power with `path` active at `temperature_c`.
    pub fn core_power(&self, path: PathId, temperature_c: f64) -> Watts {
        let base = if path.is_external() {
            self.core_loopback_at_25c - self.external_path_discount
        } else {
            self.core_loopback_at_25c
        };
        let delta = self.temperature_slope_w_per_c * (temperature_c - 25.0);
        Watts((base.value() + delta).max(0.0))
    }

    /// Total module power with `path` active at `temperature_c`.
    pub fn total_power(&self, path: PathId, temperature_c: f64) -> Watts {
        self.peripheral + self.core_power(path, temperature_c)
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_power_stays_below_published_bound() {
        let model = PowerModel::paper_calibrated();
        for temp in [0.0, 25.0, 50.0, 85.0] {
            for path in PathId::ALL {
                let core = model.core_power(path, temp).value();
                assert!(core <= 3.2, "core power exceeded 3.2 W at {temp}C");
                assert!(core >= 2.8);
            }
        }
    }

    #[test]
    fn loopback_path_draws_the_most_power() {
        let model = PowerModel::paper_calibrated();
        let loopback = model.core_power(PathId::Loopback, 25.0);
        let ext1 = model.core_power(PathId::External1, 25.0);
        let ext2 = model.core_power(PathId::External2, 25.0);
        assert!(loopback.value() > ext1.value());
        assert_eq!(ext1, ext2);
    }

    #[test]
    fn power_increases_with_temperature() {
        let model = PowerModel::paper_calibrated();
        let cold = model.core_power(PathId::Loopback, 0.0);
        let hot = model.core_power(PathId::Loopback, 85.0);
        assert!(hot.value() > cold.value());
    }

    #[test]
    fn total_power_respects_qsfp_dd_budget() {
        let model = PowerModel::paper_calibrated();
        for temp in [0.0, 25.0, 50.0, 85.0] {
            for path in PathId::ALL {
                assert!(model.total_power(path, temp) <= model.qsfp_dd_budget);
                assert!(model.total_power(path, temp).value() < 12.0);
                assert!(model.total_power(path, temp).value() > 10.0);
            }
        }
    }

    #[test]
    fn pathological_temperature_never_goes_negative() {
        let model = PowerModel::paper_calibrated();
        assert!(model.core_power(PathId::External1, -4000.0).value() >= 0.0);
    }
}
