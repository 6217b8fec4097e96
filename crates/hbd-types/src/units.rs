//! Physical units used throughout the simulator.
//!
//! Each unit is a thin newtype over `f64` with arithmetic restricted to the
//! operations that make dimensional sense (adding two bandwidths, scaling a cost
//! by a count, dividing bytes by bandwidth to obtain time, ...). The goal is not
//! a full dimensional-analysis system but to make the most common unit mistakes
//! (Gbps vs GBps, dollars vs watts) impossible to compile.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Implements the shared arithmetic of a scalar unit newtype.
macro_rules! scalar_unit {
    ($(#[$meta:meta])* $name:ident, $suffix:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        #[serde(transparent)]
        pub struct $name(pub f64);

        impl $name {
            /// Zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a quantity from a raw value.
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value.
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the larger of two quantities.
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of two quantities.
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns `true` if the value is finite (not NaN or infinite).
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns `true` if the value is finite and not negative (NaN
            /// fails): the domain of a modeled instant or duration.
            pub fn is_finite_non_negative(self) -> bool {
                self.0.is_finite() && self.0 >= 0.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!("{:.4} ", $suffix), self.0)
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }
    };
}

scalar_unit!(
    /// Bandwidth in gigabits per second (the unit used for link and transceiver
    /// line rates, e.g. an 800 Gbps QSFP-DD OCSTrx).
    Gbps,
    "Gbps"
);

scalar_unit!(
    /// Bandwidth in gigabytes per second (the unit used for per-GPU HBD
    /// bandwidth in the paper's cost normalisation, e.g. 900 GBps for NVL-72).
    GBps,
    "GBps"
);

scalar_unit!(
    /// Data size in bytes.
    Bytes,
    "B"
);

scalar_unit!(
    /// Electrical power in watts.
    Watts,
    "W"
);

scalar_unit!(
    /// Cost in US dollars.
    Dollars,
    "$"
);

scalar_unit!(
    /// Time in seconds.
    Seconds,
    "s"
);

scalar_unit!(
    /// Time in microseconds (the natural unit for OCSTrx reconfiguration
    /// latency, 60-80 µs).
    Microseconds,
    "us"
);

impl Gbps {
    /// Converts a line rate to the equivalent payload bandwidth in GBps.
    pub fn to_gbytes_per_sec(self) -> GBps {
        GBps(self.0 / 8.0)
    }
}

impl GBps {
    /// Time to transfer `bytes` at this bandwidth.
    pub fn transfer_time(self, bytes: Bytes) -> Seconds {
        assert!(self.0 > 0.0, "cannot transfer data over zero bandwidth");
        Seconds(bytes.0 / (self.0 * 1e9))
    }
}

impl Bytes {
    /// Constructs a size from gibibytes (2^30 bytes).
    pub fn from_gib(gib: f64) -> Self {
        Bytes(gib * (1u64 << 30) as f64)
    }

    /// Constructs a size from megabytes (10^6 bytes).
    pub fn from_mb(mb: f64) -> Self {
        Bytes(mb * 1e6)
    }

    /// Returns the size in gibibytes.
    pub fn as_gib(self) -> f64 {
        self.0 / (1u64 << 30) as f64
    }
}

impl Seconds {
    /// Converts to microseconds.
    pub fn to_micros(self) -> Microseconds {
        Microseconds(self.0 * 1e6)
    }

    /// Constructs a duration from hours.
    pub fn from_hours(hours: f64) -> Self {
        Seconds(hours * 3600.0)
    }

    /// Constructs a duration from days.
    pub fn from_days(days: f64) -> Self {
        Seconds(days * 86_400.0)
    }

    /// Returns the duration in days.
    pub fn as_days(self) -> f64 {
        self.0 / 86_400.0
    }
}

impl Microseconds {
    /// Converts to seconds.
    pub fn to_seconds(self) -> Seconds {
        Seconds(self.0 / 1e6)
    }
}

impl Mul<usize> for Dollars {
    type Output = Dollars;
    fn mul(self, rhs: usize) -> Dollars {
        Dollars(self.0 * rhs as f64)
    }
}

impl Mul<usize> for Watts {
    type Output = Watts;
    fn mul(self, rhs: usize) -> Watts {
        Watts(self.0 * rhs as f64)
    }
}

impl Div<GBps> for Dollars {
    /// Cost per GBps of bandwidth: the normalisation used in Table 6.
    type Output = f64;
    fn div(self, rhs: GBps) -> f64 {
        self.0 / rhs.0
    }
}

impl Div<GBps> for Watts {
    /// Power per GBps of bandwidth: the normalisation used in Table 6.
    type Output = f64;
    fn div(self, rhs: GBps) -> f64 {
        self.0 / rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gbps_gbyteps_roundtrip() {
        let rate = Gbps(800.0);
        let bytes_rate = rate.to_gbytes_per_sec();
        assert!((bytes_rate.value() - 100.0).abs() < 1e-12);
        assert!((bytes_rate.value() * 8.0 - rate.value()).abs() < 1e-12);
    }

    #[test]
    fn transfer_time_is_size_over_bandwidth() {
        let bw = GBps(100.0);
        let t = bw.transfer_time(Bytes(1e9));
        assert!((t.value() - 0.01).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero bandwidth")]
    fn transfer_over_zero_bandwidth_panics() {
        let _ = GBps::ZERO.transfer_time(Bytes(1.0));
    }

    #[test]
    fn arithmetic_behaves_like_f64() {
        let a = Dollars(10.0);
        let b = Dollars(2.5);
        assert_eq!((a + b).value(), 12.5);
        assert_eq!((a - b).value(), 7.5);
        assert_eq!((a * 2.0).value(), 20.0);
        assert_eq!((a / 4.0).value(), 2.5);
        assert_eq!(a / b, 4.0);
        assert_eq!((a * 3usize).value(), 30.0);
        let total: Dollars = [a, b, Dollars(0.5)].into_iter().sum();
        assert_eq!(total.value(), 13.0);
    }

    #[test]
    fn time_conversions() {
        assert!((Seconds(1.5).to_micros().value() - 1_500_000.0).abs() < 1e-6);
        assert!((Microseconds(80.0).to_seconds().value() - 8e-5).abs() < 1e-12);
        assert!((Seconds::from_days(348.0).as_days() - 348.0).abs() < 1e-9);
        assert!((Seconds::from_hours(2.0).value() - 7200.0).abs() < 1e-9);
    }

    #[test]
    fn bytes_constructors() {
        assert!((Bytes::from_gib(80.0).as_gib() - 80.0).abs() < 1e-9);
        assert!((Bytes::from_mb(1.0).value() - 1e6).abs() < 1e-9);
    }

    #[test]
    fn per_gbps_normalisation() {
        let cost = Dollars(9563.20);
        let bw = GBps(900.0);
        assert!((cost / bw - 10.6258) < 1e-3);
        let power = Watts(75.95);
        assert!((power / bw - 0.0844) < 1e-3);
    }

    #[test]
    fn display_includes_suffix() {
        assert_eq!(format!("{}", Watts(3.2)), "3.2000 W");
        assert_eq!(format!("{}", Gbps(800.0)), "800.0000 Gbps");
    }

    #[test]
    fn min_max_and_neg() {
        assert_eq!(Watts(3.0).max(Watts(5.0)), Watts(5.0));
        assert_eq!(Watts(3.0).min(Watts(5.0)), Watts(3.0));
        assert_eq!((-Dollars(2.0)).value(), -2.0);
        assert!(Watts(1.0).is_finite());
        assert!(!Watts(f64::NAN).is_finite());
    }
}
