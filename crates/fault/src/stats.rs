//! Macro statistics of a fault trace — the quantities plotted in Fig 18
//! (fault-node ratio over time and its cumulative distribution, with the p50
//! and p99 annotations).

use crate::trace::FaultTrace;
use hbd_types::Seconds;

/// Seconds per day, used when bucketing a trace into daily samples.
pub const DAY_SECONDS: f64 = 86_400.0;

/// Summary statistics of the instantaneous node-fault ratio of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Sampled `(time, fault ratio)` series (Fig 18a).
    pub series: Vec<(Seconds, f64)>,
    /// Mean instantaneous fault ratio.
    pub mean_ratio: f64,
    /// Median (p50) instantaneous fault ratio.
    pub p50_ratio: f64,
    /// 99th-percentile instantaneous fault ratio.
    pub p99_ratio: f64,
    /// Maximum instantaneous fault ratio observed.
    pub max_ratio: f64,
}

impl TraceStats {
    /// Computes the statistics by sampling the trace at `samples` evenly spaced
    /// instants.
    pub fn compute(trace: &FaultTrace, samples: usize) -> Self {
        let series: Vec<(Seconds, f64)> = trace
            .sample(samples)
            .into_iter()
            .map(|(t, faulty)| (t, faulty.len() as f64 / trace.nodes() as f64))
            .collect();
        let mut ratios: Vec<f64> = series.iter().map(|&(_, r)| r).collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
        let mean_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
        TraceStats {
            mean_ratio,
            p50_ratio: percentile(&ratios, 0.50),
            p99_ratio: percentile(&ratios, 0.99),
            max_ratio: *ratios.last().unwrap_or(&0.0),
            series,
        }
    }

    /// The empirical CDF of the fault ratio as `(ratio, cumulative probability)`
    /// points (Fig 18b).
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        let mut ratios: Vec<f64> = self.series.iter().map(|&(_, r)| r).collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
        let n = ratios.len() as f64;
        ratios
            .into_iter()
            .enumerate()
            .map(|(i, r)| (r, (i + 1) as f64 / n))
            .collect()
    }

    /// Samples the trace once per day, the granularity of Fig 18a.
    pub fn daily(trace: &FaultTrace) -> Self {
        let days = (trace.duration().value() / DAY_SECONDS).ceil().max(1.0) as usize;
        Self::compute(trace, days)
    }
}

/// Percentile of an already-sorted slice using nearest-rank interpolation.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(
        !sorted.is_empty(),
        "cannot take a percentile of an empty slice"
    );
    assert!((0.0..=1.0).contains(&q), "quantile must lie in [0, 1]");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Percentile of an unsorted slice: sorts a copy (by `total_cmp`) and takes
/// [`percentile`]; 0.0 for an empty slice.
pub fn percentile_unsorted(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FaultEvent;
    use hbd_types::NodeId;

    fn trace_with_constant_ratio() -> FaultTrace {
        // 2 of 10 nodes are faulty for the entire duration: ratio is always 0.2.
        FaultTrace::new(
            10,
            Seconds(1000.0),
            vec![
                FaultEvent::new(NodeId(0), Seconds(0.0), Seconds(1000.0)),
                FaultEvent::new(NodeId(1), Seconds(0.0), Seconds(1000.0)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn constant_trace_has_flat_statistics() {
        let stats = TraceStats::compute(&trace_with_constant_ratio(), 100);
        assert!((stats.mean_ratio - 0.2).abs() < 1e-12);
        assert!((stats.p50_ratio - 0.2).abs() < 1e-12);
        assert!((stats.p99_ratio - 0.2).abs() < 1e-12);
        assert!((stats.max_ratio - 0.2).abs() < 1e-12);
        assert_eq!(stats.series.len(), 100);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let stats = TraceStats::compute(&trace_with_constant_ratio(), 50);
        let cdf = stats.cdf();
        assert_eq!(cdf.len(), 50);
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        assert!(cdf.windows(2).all(|w| w[1].1 >= w[0].1 && w[1].0 >= w[0].0));
    }

    #[test]
    fn percentile_interpolates() {
        let data = vec![0.0, 1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&data, 0.0), 0.0);
        assert_eq!(percentile(&data, 1.0), 4.0);
        assert_eq!(percentile(&data, 0.5), 2.0);
        assert!((percentile(&data, 0.25) - 1.0).abs() < 1e-12);
        assert!((percentile(&data, 0.9) - 3.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty slice")]
    fn percentile_of_empty_slice_panics() {
        let _ = percentile(&[], 0.5);
    }

    #[test]
    fn percentile_unsorted_sorts_first_and_maps_empty_to_zero() {
        assert_eq!(percentile_unsorted(&[], 0.5), 0.0);
        let data = [4.0, 0.0, 3.0, 1.0, 2.0];
        assert!((percentile_unsorted(&data, 0.9) - 3.6).abs() < 1e-12);
    }

    #[test]
    fn daily_sampling_matches_duration_in_days() {
        let trace = FaultTrace::new(4, Seconds::from_days(10.0), vec![]).unwrap();
        let stats = TraceStats::daily(&trace);
        assert_eq!(stats.series.len(), 10);
        assert_eq!(stats.mean_ratio, 0.0);
    }
}
