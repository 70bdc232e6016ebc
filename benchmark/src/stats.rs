//! Slice quartiles and the tail-percentile rule.
//!
//! Each measurement window is cut into [`SLICES`] equal slices and every
//! reported number is the *clean-side quartile* of its per-slice values:
//! the upper quartile for throughput, the lower for costs and latencies.
//! On the shared reference host interference comes in bursts of one to a
//! few seconds that only ever slow the program down (README, "Noise
//! evidence"); a run's median slice moves with how many bursts hit it,
//! while the clean-side quartile stays put until three quarters of the
//! window is disturbed, and — unlike the best slice — ignores one lucky one.

/// Equal slices each measurement window is cut into.
pub const SLICES: usize = 10;

/// Samples a percentile must leave beyond itself to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values`, interpolating between ranks (the
/// "inclusive" method); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else {
        return 0.0;
    };
    let at = q * last as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// The slower-is-worse reading of a window: the lower quartile of its
/// slices (costs, latencies).
pub fn clean_low(per_slice: &[f64]) -> f64 {
    quantile(per_slice, 0.25)
}

/// The faster-is-better reading of a window: the upper quartile of its
/// slices (throughput).
pub fn clean_high(per_slice: &[f64]) -> f64 {
    quantile(per_slice, 0.75)
}

/// The `q` quantile of `sorted`, lowered to the highest quantile that still
/// leaves [`TAIL_SAMPLES`] samples beyond it when the slice is too small to
/// support `q` (choosing-metrics §1). Returns the value and the quantile
/// actually used; `(0, 0)` when there are not even `TAIL_SAMPLES` samples.
pub fn tail_quantile(sorted: &[u64], q: f64) -> (u64, f64) {
    let n = sorted.len();
    if n <= TAIL_SAMPLES {
        return (0, 0.0);
    }
    let wanted = ((n as f64) * q).ceil() as usize;
    let rank = wanted.clamp(1, n - TAIL_SAMPLES);
    (sorted[rank - 1], rank as f64 / n as f64)
}

/// Which slice of a `window_ns`-long window `at_ns` falls into, or `None`
/// once the window is over.
pub fn slice_of(at_ns: u64, window_ns: u64) -> Option<usize> {
    (at_ns < window_ns).then(|| (at_ns as u128 * SLICES as u128 / window_ns as u128) as usize)
}

/// Per-slice latency samples of one window.
#[derive(Default)]
pub struct SlicedLatencies {
    slices: [Vec<u64>; SLICES],
}

impl SlicedLatencies {
    pub fn record(&mut self, slice: usize, latency_ns: u64) {
        self.slices[slice].push(latency_ns);
    }

    /// Samples in the smallest slice (the count the percentile rule sees).
    pub fn min_slice_samples(&self) -> usize {
        self.slices.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Lower quartile over slices of each slice's `q` quantile, in
    /// microseconds, with the lowest quantile any slice had to fall back to.
    pub fn quantile_us(&mut self, q: f64) -> (f64, f64) {
        let mut used = q;
        let per_slice: Vec<f64> = self
            .slices
            .iter_mut()
            .map(|s| {
                s.sort_unstable();
                let (v, u) = tail_quantile(s, q);
                used = used.min(u);
                v as f64 / 1000.0
            })
            .collect();
        (clean_low(&per_slice), used)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_rank_based() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 1000.0]), 3.0);
        assert_eq!(median(&[4.0, 2.0, 1.0, 3.0]), 2.5);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [40.0, 10.0, 30.0, 20.0, 50.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 0.25), 20.0);
        assert_eq!(quantile(&v, 0.5), 30.0);
        assert_eq!(quantile(&v, 0.625), 35.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn clean_side_quartiles_ignore_disturbed_slices_and_one_lucky_one() {
        // Six of ten slices hit by interference, one implausibly fast.
        let ops = [
            300.0, 210.0, 190.0, 305.0, 220.0, 400.0, 200.0, 215.0, 295.0, 205.0,
        ];
        assert!(
            (295.0..=305.0).contains(&clean_high(&ops)),
            "{}",
            clean_high(&ops)
        );
        assert!(median(&ops) < 220.0, "the median follows the bursts");
        let cost: Vec<f64> = ops.iter().map(|o| 1000.0 / o).collect();
        assert!((1000.0 / 305.0..=1000.0 / 295.0).contains(&clean_low(&cost)));
    }

    #[test]
    fn slice_latency_quartile_ignores_disturbed_slices() {
        let mut lat = SlicedLatencies::default();
        for slice in 0..SLICES {
            for i in 0..2000u64 {
                // Half the slices are ten times slower than the rest.
                let scale = if slice % 2 == 1 { 10 } else { 1 };
                lat.record(slice, (1000 + i) * scale);
            }
        }
        let (p50, used) = lat.quantile_us(0.50);
        assert_eq!(used, 0.50);
        assert!((1.9..2.1).contains(&p50), "p50 {p50} should be ~2.0us");
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 2000 samples: p99 leaves 20 beyond it, so it stands.
        let big: Vec<u64> = (1..=2000).collect();
        assert_eq!(tail_quantile(&big, 0.99), (1980, 0.99));
        // 200 samples: p99 would leave 2 beyond it; fall back to the value
        // with exactly ten samples above it (p95 here).
        let small: Vec<u64> = (1..=200).collect();
        assert_eq!(tail_quantile(&small, 0.99), (190, 0.95));
        // Too few samples for any tail at all.
        assert_eq!(tail_quantile(&[1, 2, 3], 0.99), (0, 0.0));
    }

    #[test]
    fn slices_partition_the_window() {
        assert_eq!(slice_of(0, 10_000), Some(0));
        assert_eq!(slice_of(999, 10_000), Some(0));
        assert_eq!(slice_of(1_000, 10_000), Some(1));
        assert_eq!(slice_of(9_999, 10_000), Some(SLICES - 1));
        assert_eq!(slice_of(10_000, 10_000), None);
    }
}
