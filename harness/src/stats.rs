//! Order statistics over timing samples.

/// Percentiles a run may report, lowest first, each with the share of
/// samples beyond it in parts per ten thousand (integers, so that 100
/// samples support p90 exactly).
const CANDIDATES: [(f64, usize); 5] = [
    (50.0, 5_000),
    (90.0, 1_000),
    (99.0, 100),
    (99.9, 10),
    (99.99, 1),
];

/// The highest candidate percentile that still has at least ten samples
/// beyond it; `None` when even the median has fewer (under 20 samples).
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    CANDIDATES
        .iter()
        .filter(|(_, beyond)| samples * beyond >= 10 * 10_000)
        .map(|&(p, _)| p)
        .next_back()
}

/// The `p`-th percentile (nearest rank) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    // The epsilon keeps 99 % of 100 samples at rank 99 despite rounding.
    let rank = (p / 100.0 * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unordered samples (mean of the two middle ones when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The share of a stationary workload's units, fastest first, that its
/// timing metrics are taken over.
///
/// The reference host is a shared one, and the noise is one-sided: units
/// of identical work (four lookup batches) take 4.1 µs per lookup at best
/// in *every* run, but their median wanders between 4.5 and 6.3 µs from
/// one run to the next and the lower quartile between 4.4 and 6.0 µs,
/// while hops, frames and bytes per lookup agree to three digits.  A mean
/// over the window, a median, even a lower quartile then measure the
/// neighbours.  The fastest tenth — a hundred units, a second of work —
/// repeats within ±3 %: it is what the program costs when the host leaves
/// it alone.  A program that gets slower gets slower there too.  `wire`,
/// whose three threads share two cores with the neighbours, swung between
/// 144 000 and 250 000 frames/s within one set of ten runs and uses the
/// same rule over its groups of 256 send/poll rounds; `construct-*`,
/// which loses a core to them for seconds, over repeats of one
/// construction.
pub const QUIET_SHARE: f64 = 0.10;

/// Marks the quiet units of a window: its fastest [`QUIET_SHARE`], at
/// least one.
pub fn quiet_units(unit_times: &[f64]) -> Vec<bool> {
    let mut order: Vec<usize> = (0..unit_times.len()).collect();
    order.sort_by(|&a, &b| unit_times[a].total_cmp(&unit_times[b]));
    let keep = ((unit_times.len() as f64 * QUIET_SHARE) as usize).max(1);
    let mut quiet = vec![false; unit_times.len()];
    for &unit in order.iter().take(keep) {
        quiet[unit] = true;
    }
    quiet
}

/// Timing samples of one window, in microseconds per op.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl From<Vec<f64>> for Samples {
    fn from(values: Vec<f64>) -> Samples {
        Samples { values }
    }
}

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        Samples {
            values: Vec::with_capacity(n),
        }
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    /// `(percentile, value)` of the highest percentile the sample count
    /// supports, or `None` under 20 samples.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let p = highest_supported_percentile(self.values.len())?;
        Some((p, self.percentile(p)))
    }

    pub fn percentile(&self, p: f64) -> f64 {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(3), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(99_999), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
        assert_eq!(highest_supported_percentile(4_000_000), Some(99.99));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 90.0), 90.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn the_fastest_tenth_is_quiet() {
        // Forty units; the four fastest sit at positions 3, 13, 23, 33.
        let times: Vec<f64> = (0..40)
            .map(|i| {
                if i % 10 == 3 {
                    4.0 + f64::from(i) * 0.001
                } else {
                    5.0 + f64::from(i)
                }
            })
            .collect();
        let quiet = quiet_units(&times);
        for (i, &is_quiet) in quiet.iter().enumerate() {
            assert_eq!(is_quiet, i % 10 == 3, "unit {i}");
        }
        // A uniformly slower program keeps the same units: nothing hides.
        let slower: Vec<f64> = times.iter().map(|t| t * 1.5).collect();
        assert_eq!(quiet_units(&slower), quiet);
        // Never empty, ties do not inflate it.
        assert_eq!(quiet_units(&[2.0, 1.0, 3.0]), vec![false, true, false]);
        assert_eq!(quiet_units(&[1.0; 30]).iter().filter(|q| **q).count(), 3);
    }

    #[test]
    fn tail_reports_percentile_and_value() {
        let mut samples = Samples::with_capacity(1_000);
        for i in 1..=1_000 {
            samples.push(f64::from(i));
        }
        assert_eq!(samples.len(), 1_000);
        assert_eq!(samples.median(), 500.5);
        assert_eq!(samples.tail(), Some((99.0, 990.0)));
        let mut few = Samples::default();
        few.push(1.0);
        assert_eq!(few.tail(), None);
    }
}
