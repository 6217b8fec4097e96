//! Optical performance models of the OCSTrx core module: insertion loss and
//! bit-error rate as functions of ambient temperature and optical modulation
//! amplitude (OMA).
//!
//! The paper reports lab measurements of the packaged module (§5.1):
//!
//! * insertion loss between 2.5 dB and 4.0 dB with an average of **3.3 dB at
//!   25 °C**, growing slightly with temperature (Figs 10a and 11);
//! * core-module power below 3.2 W across temperatures (Fig 10b — modelled in
//!   [`crate::power`]);
//! * BER of exactly 0 at −5 °C and 25 °C, and 0 in most cases at 50 °C / 75 °C
//!   with occasional errors only at very low OMA (Fig 12).
//!
//! We cannot re-measure the physical device, so this module provides a
//! *statistical* model calibrated to those published numbers: sampling it many
//! times regenerates distributions with the same mean / spread / temperature
//! trend as the paper's histograms. All sampling is driven by a caller-provided
//! RNG so experiments stay reproducible.

use rand::distributions::Distribution;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Ambient conditions for an optical measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpticalConditions {
    /// Ambient temperature in °C.
    pub temperature_c: f64,
    /// Optical modulation amplitude in mW.
    pub oma_mw: f64,
}

/// Statistical model of the core-module insertion loss.
///
/// Loss is modelled as a truncated Gaussian whose mean rises mildly with
/// temperature: 3.3 dB at 25 °C (the paper's average), ~3.2 dB at 0 °C and
/// ~3.5 dB at 85 °C, truncated to the observed 2.5–4.0 dB support at room
/// temperature (the support widens slightly with temperature, matching the
/// broader histograms of Fig 11c/d).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InsertionLossModel {
    /// Mean loss at 25 °C in dB.
    pub mean_at_25c_db: f64,
    /// Increase of the mean per °C above 25 °C.
    pub slope_db_per_c: f64,
    /// Standard deviation of the unit-to-unit spread in dB.
    pub sigma_db: f64,
}

impl InsertionLossModel {
    /// Model calibrated to the paper's measurements.
    pub fn paper_calibrated() -> Self {
        InsertionLossModel {
            mean_at_25c_db: 3.3,
            slope_db_per_c: 0.003,
            sigma_db: 0.28,
        }
    }

    /// Mean insertion loss at the given temperature, in dB.
    pub fn mean_db(&self, temperature_c: f64) -> f64 {
        self.mean_at_25c_db + self.slope_db_per_c * (temperature_c - 25.0)
    }

    /// Lower bound of the observed support at the given temperature.
    fn min_db(&self, temperature_c: f64) -> f64 {
        (self.mean_db(temperature_c) - 3.0 * self.sigma_db).max(2.0)
    }

    /// Upper bound of the observed support at the given temperature.
    fn max_db(&self, temperature_c: f64) -> f64 {
        self.mean_db(temperature_c) + 3.0 * self.sigma_db
    }

    /// Draws one unit's insertion loss at the given temperature.
    pub fn sample<R: Rng + ?Sized>(&self, temperature_c: f64, rng: &mut R) -> f64 {
        let mean = self.mean_db(temperature_c);
        let lo = self.min_db(temperature_c);
        let hi = self.max_db(temperature_c);
        // Box–Muller style draw via summing uniforms (Irwin–Hall approximation
        // of a Gaussian) keeps us independent of rand_distr.
        loop {
            let z: f64 = (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0;
            let sample = mean + z * self.sigma_db;
            if sample >= lo && sample <= hi {
                return sample;
            }
        }
    }

    /// Draws `n` unit losses, the shape used by the Fig 11 histograms.
    pub fn sample_population<R: Rng + ?Sized>(
        &self,
        temperature_c: f64,
        n: usize,
        rng: &mut R,
    ) -> Vec<f64> {
        (0..n).map(|_| self.sample(temperature_c, rng)).collect()
    }
}

impl Default for InsertionLossModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

/// Statistical model of the bit-error rate versus OMA and temperature (Fig 12).
///
/// The published behaviour: at −5 °C and 25 °C the BER is 0 for every tested
/// OMA; at 50 °C and 75 °C the BER is 0 in most cases with occasional errors at
/// very low OMA (≲0.4 mW). We model the error probability as a logistic cliff
/// in OMA whose threshold moves up with temperature; above the cliff the BER is
/// exactly zero (the paper reports genuine zeros, not just "below measurement
/// floor").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BerModel {
    /// OMA (mW) below which errors start appearing at 50 °C.
    pub threshold_oma_at_50c_mw: f64,
    /// How much the threshold rises per °C above 50 °C.
    pub threshold_slope_per_c: f64,
    /// Worst-case BER when operating far below threshold.
    pub floor_ber: f64,
}

impl BerModel {
    /// Model calibrated to the paper's Fig 12.
    pub fn paper_calibrated() -> Self {
        BerModel {
            threshold_oma_at_50c_mw: 0.35,
            threshold_slope_per_c: 0.006,
            floor_ber: 1e-6,
        }
    }

    /// OMA threshold below which errors may occur at the given temperature.
    /// Below 50 °C the threshold is zero: the device is error-free at any OMA.
    fn threshold_oma_mw(&self, temperature_c: f64) -> f64 {
        if temperature_c < 40.0 {
            0.0
        } else {
            self.threshold_oma_at_50c_mw
                + self.threshold_slope_per_c * (temperature_c - 50.0).max(0.0)
        }
    }

    /// Expected BER under the given conditions. Returns exactly `0.0` in the
    /// regimes where the paper measured zero errors.
    pub fn expected_ber(&self, conditions: OpticalConditions) -> f64 {
        let threshold = self.threshold_oma_mw(conditions.temperature_c);
        if threshold <= 0.0 || conditions.oma_mw >= threshold {
            0.0
        } else {
            // Error rate grows as OMA drops below the threshold, saturating at
            // the floor BER.
            let deficit = (threshold - conditions.oma_mw) / threshold;
            (self.floor_ber * deficit.powi(2)).min(self.floor_ber)
        }
    }

    /// Simulates a BER measurement over `bits` transmitted bits, returning the
    /// measured BER (0 when no errors occurred).
    pub fn measure<R: Rng + ?Sized>(
        &self,
        conditions: OpticalConditions,
        bits: u64,
        rng: &mut R,
    ) -> f64 {
        let p = self.expected_ber(conditions);
        if p <= 0.0 {
            return 0.0;
        }
        // Binomial sampling via Poisson approximation (p is tiny, bits is huge).
        let lambda = p * bits as f64;
        let errors = poisson_sample(lambda, rng);
        errors as f64 / bits as f64
    }
}

impl Default for BerModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

/// Draws from a Poisson distribution with mean `lambda` using inversion for
/// small means and a Gaussian approximation for large means.
fn poisson_sample<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        let z: f64 = (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0;
        (lambda + z * lambda.sqrt()).round().max(0.0) as u64
    }
}

/// Uniform distribution helper retained for API completeness (used by tests and
/// the experiment harness to sweep OMA values).
#[derive(Debug, Clone, Copy)]
pub struct OmaSweep {
    /// Lowest OMA of the sweep in mW.
    pub min_mw: f64,
    /// Highest OMA of the sweep in mW.
    pub max_mw: f64,
    /// Number of points.
    pub points: usize,
}

impl OmaSweep {
    /// The sweep used in Fig 12 (roughly 0.2 mW to 1.2 mW).
    pub fn paper_sweep() -> Self {
        OmaSweep {
            min_mw: 0.2,
            max_mw: 1.2,
            points: 11,
        }
    }

    /// The OMA values of the sweep.
    pub fn values(&self) -> Vec<f64> {
        assert!(self.points >= 2, "a sweep needs at least two points");
        (0..self.points)
            .map(|i| {
                self.min_mw + (self.max_mw - self.min_mw) * i as f64 / (self.points - 1) as f64
            })
            .collect()
    }
}

impl Distribution<f64> for InsertionLossModel {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample(25.0, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn room_temperature_mean_matches_paper() {
        let model = InsertionLossModel::paper_calibrated();
        assert!((model.mean_db(25.0) - 3.3).abs() < 1e-9);
        assert!(model.mean_db(85.0) > model.mean_db(25.0));
        assert!(model.mean_db(0.0) < model.mean_db(25.0));
    }

    #[test]
    fn sampled_losses_stay_in_published_range() {
        let model = InsertionLossModel::paper_calibrated();
        let mut rng = rng();
        for &temp in &[0.0, 25.0, 50.0, 85.0] {
            let samples = model.sample_population(temp, 500, &mut rng);
            for &s in &samples {
                assert!(
                    (2.0..=5.0).contains(&s),
                    "loss {s} out of plausible range at {temp}C"
                );
            }
            let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
            assert!((mean - model.mean_db(temp)).abs() < 0.1);
        }
    }

    #[test]
    fn sample_population_has_requested_size() {
        let model = InsertionLossModel::default();
        let samples = model.sample_population(25.0, 128, &mut rng());
        assert_eq!(samples.len(), 128);
    }

    #[test]
    fn ber_is_zero_at_low_temperature() {
        let model = BerModel::paper_calibrated();
        for oma in [0.2, 0.5, 1.0] {
            for temp in [-5.0, 25.0] {
                let cond = OpticalConditions {
                    temperature_c: temp,
                    oma_mw: oma,
                };
                assert_eq!(model.expected_ber(cond), 0.0);
            }
        }
    }

    #[test]
    fn ber_appears_only_at_low_oma_and_high_temperature() {
        let model = BerModel::paper_calibrated();
        let hot_low = OpticalConditions {
            temperature_c: 75.0,
            oma_mw: 0.25,
        };
        let hot_high = OpticalConditions {
            temperature_c: 75.0,
            oma_mw: 1.0,
        };
        assert!(model.expected_ber(hot_low) > 0.0);
        assert_eq!(model.expected_ber(hot_high), 0.0);
        assert!(model.expected_ber(hot_low) <= model.floor_ber);
    }

    #[test]
    fn measured_ber_is_zero_when_expected_zero() {
        let model = BerModel::paper_calibrated();
        let cond = OpticalConditions {
            temperature_c: 25.0,
            oma_mw: 0.3,
        };
        assert_eq!(model.measure(cond, 1_000_000_000, &mut rng()), 0.0);
    }

    #[test]
    fn measured_ber_tracks_expected_order_of_magnitude() {
        let model = BerModel::paper_calibrated();
        let cond = OpticalConditions {
            temperature_c: 75.0,
            oma_mw: 0.2,
        };
        let expected = model.expected_ber(cond);
        let measured = model.measure(cond, 10_000_000_000, &mut rng());
        assert!(measured > 0.0);
        assert!(measured < expected * 10.0);
    }

    #[test]
    fn oma_sweep_spans_requested_range() {
        let sweep = OmaSweep::paper_sweep();
        let values = sweep.values();
        assert_eq!(values.len(), 11);
        assert!((values[0] - 0.2).abs() < 1e-9);
        assert!((values[10] - 1.2).abs() < 1e-9);
        assert!(values.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn poisson_sampler_means_are_reasonable() {
        let mut rng = rng();
        for &lambda in &[0.5, 5.0, 100.0] {
            let n = 2000;
            let total: u64 = (0..n).map(|_| poisson_sample(lambda, &mut rng)).sum();
            let mean = total as f64 / n as f64;
            assert!((mean - lambda).abs() < lambda.max(1.0) * 0.15);
        }
        assert_eq!(poisson_sample(0.0, &mut rng), 0);
    }
}
