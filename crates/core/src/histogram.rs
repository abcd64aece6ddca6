//! Fixed-bucket log-scale histograms for latency accounting.
//!
//! The query data plane answers millions of lookups per run; keeping one
//! record per query (as the first deployment driver did) grows without
//! bound.  [`LogHistogram`] aggregates observations into a fixed array of
//! log-linear buckets instead: values below 8 get exact buckets, and every
//! octave above that is split into 8 sub-buckets, giving a worst-case
//! quantile error of 12.5% at constant memory.  Histograms merge by bucket
//! addition, which is what lets sharded cluster workers stream aggregates
//! instead of raw query records.

/// Exact buckets for values `0..EXACT` (one bucket per value).
const EXACT: u64 = 8;

/// Sub-buckets per octave above the exact range.
const SUBS: usize = 8;

/// Octaves covered above the exact range (`2^3 ..= 2^63`).
const OCTAVES: usize = 61;

/// Total number of buckets.
pub const NUM_BUCKETS: usize = EXACT as usize + OCTAVES * SUBS;

/// A fixed-memory log-linear histogram of `u64` observations.
///
/// Typical use is latency in milliseconds: `record` each observation,
/// `quantile` to read p50/p99/p999, `merge` to combine shards.
#[derive(Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("total", &self.total)
            .field("sum", &self.sum)
            .field("max", &self.max)
            .field("p50", &self.quantile(0.50))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

/// The bucket index an observation falls into.
fn bucket_index(value: u64) -> usize {
    if value < EXACT {
        value as usize
    } else {
        let octave = 63 - value.leading_zeros() as usize;
        let sub = ((value >> (octave - 3)) - EXACT) as usize;
        EXACT as usize + (octave - 3) * SUBS + sub
    }
}

/// The largest value that falls into `bucket` (inclusive upper bound).
fn bucket_upper(bucket: usize) -> u64 {
    if bucket < EXACT as usize {
        bucket as u64
    } else {
        let idx = bucket - EXACT as usize;
        let octave = idx / SUBS + 3;
        let sub = (idx % SUBS) as u64;
        let upper = ((EXACT + sub + 1) as u128) << (octave - 3);
        u64::try_from(upper - 1).unwrap_or(u64::MAX)
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; NUM_BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`, reported as the inclusive
    /// upper bound of the bucket holding that rank (`None` when empty).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(count);
            if seen >= target {
                return Some(bucket_upper(bucket).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Median (p50) observation.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 99th-percentile observation.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// 99.9th-percentile observation.
    pub fn p999(&self) -> Option<u64> {
        self.quantile(0.999)
    }

    /// Adds every bucket of `other` into `self` (shard merge).  Counts
    /// saturate, as the sum does: `other` may have come off the wire.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.total = self.total.saturating_add(other.total);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The non-empty buckets as `(bucket_index, count)` pairs — the sparse
    /// form the cluster wire protocol ships.
    pub fn sparse_buckets(&self) -> Vec<(u16, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (i as u16, c))
            .collect()
    }

    /// Rebuilds a histogram from its sparse form plus the carried extremes.
    ///
    /// Out-of-range bucket indices are clamped into the top bucket and
    /// counts saturate, so a malformed frame cannot panic the decoder.
    pub fn from_sparse(buckets: &[(u16, u64)], sum: u64, max: u64) -> Self {
        let mut h = LogHistogram::new();
        for &(bucket, count) in buckets {
            let idx = (bucket as usize).min(NUM_BUCKETS - 1);
            h.counts[idx] = h.counts[idx].saturating_add(count);
            h.total = h.total.saturating_add(count);
        }
        h.sum = sum;
        h.max = max;
        h
    }

    /// The cumulative bucket view Prometheus exposition needs: one
    /// `(inclusive_upper_bound, cumulative_count)` pair per non-empty
    /// bucket, in increasing bound order (the `+Inf` series is implied by
    /// [`LogHistogram::total`]).
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut cumulative = 0u64;
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &count)| count != 0)
            .map(|(bucket, &count)| {
                cumulative = cumulative.saturating_add(count);
                (bucket_upper(bucket), cumulative)
            })
            .collect()
    }

    /// Renders the histogram as Prometheus exposition lines for the metric
    /// `name` (cumulative `_bucket{le=...}` series plus `_sum`/`_count`),
    /// emitting only the non-empty buckets and the closing `+Inf` series.
    pub fn prometheus_text(&self, name: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("# TYPE {name} histogram\n"));
        for (upper, cumulative) in self.cumulative_buckets() {
            out.push_str(&format!("{name}_bucket{{le=\"{upper}\"}} {cumulative}\n"));
        }
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", self.total));
        out.push_str(&format!("{name}_sum {}\n", self.sum));
        out.push_str(&format!("{name}_count {}\n", self.total));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotonic_and_cover_u64() {
        let mut prev_upper = None;
        for b in 0..NUM_BUCKETS {
            let upper = bucket_upper(b);
            if let Some(p) = prev_upper {
                assert!(upper > p, "bucket {b} upper {upper} <= previous {p}");
            }
            prev_upper = Some(upper);
        }
        assert_eq!(bucket_upper(NUM_BUCKETS - 1), u64::MAX);
        for v in [0u64, 1, 7, 8, 9, 15, 16, 100, 1_000, u64::MAX] {
            let b = bucket_index(v);
            assert!(b < NUM_BUCKETS);
            assert!(bucket_upper(b) >= v, "value {v} above its bucket upper");
        }
    }

    #[test]
    fn exact_values_round_trip_below_eight() {
        let mut h = LogHistogram::new();
        for v in 0..8 {
            h.record(v);
        }
        for q in [0.01, 0.5, 1.0] {
            assert!(h.quantile(q).unwrap() < 8);
        }
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(7));
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut h = LogHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.p50().unwrap() as f64;
        let p99 = h.p99().unwrap() as f64;
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.13, "p50 {p50}");
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.13, "p99 {p99}");
        assert_eq!(h.total(), 10_000);
        assert_eq!(h.max(), 10_000);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LogHistogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_is_bucketwise_sum() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for v in 0..1_000u64 {
            a.record(v * 3);
            b.record(v * 7 + 1);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.total(), a.total() + b.total());
        assert_eq!(merged.sum(), a.sum() + b.sum());
        assert_eq!(merged.max(), a.max().max(b.max()));
        // Merging must commute.
        let mut other = b.clone();
        other.merge(&a);
        assert_eq!(merged, other);
    }

    #[test]
    fn sparse_round_trip_preserves_the_histogram() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 5, 12, 90, 4_096, 1 << 40] {
            for _ in 0..3 {
                h.record(v);
            }
        }
        let rebuilt = LogHistogram::from_sparse(&h.sparse_buckets(), h.sum(), h.max());
        assert_eq!(rebuilt, h);
    }

    #[test]
    fn sparse_decode_clamps_out_of_range_buckets() {
        let h = LogHistogram::from_sparse(&[(u16::MAX, 2)], 10, 5);
        assert_eq!(h.total(), 2);
        assert_eq!(h.quantile(1.0), Some(5));
    }

    #[test]
    fn sparse_decode_saturates_instead_of_overflowing() {
        // Two buckets of `u64::MAX`: what a hostile frame can claim.
        let h = LogHistogram::from_sparse(&[(3, u64::MAX), (3, 1), (9, u64::MAX)], 0, 9);
        assert_eq!(h.total(), u64::MAX);
        assert_eq!(h.sparse_buckets(), [(3, u64::MAX), (9, u64::MAX)]);
        // Reading it back out must not overflow either.
        assert_eq!(h.quantile(1.0), Some(3));
        assert_eq!(h.cumulative_buckets(), [(3, u64::MAX), (9, u64::MAX)]);
        let nearly = LogHistogram::from_sparse(&[(3, u64::MAX - 1), (9, u64::MAX - 1)], 0, 9);
        assert_eq!(nearly.quantile(1.0), Some(9));
        assert!(format!("{nearly:?}").contains("p99"));
    }

    #[test]
    fn merge_saturates_instead_of_overflowing() {
        let full = LogHistogram::from_sparse(&[(3, u64::MAX)], u64::MAX, 3);
        let mut merged = full.clone();
        merged.merge(&full);
        assert_eq!(merged, full);
        let mut one = LogHistogram::new();
        one.record(3);
        merged.merge(&one);
        assert_eq!(merged, full);
    }

    #[test]
    fn prometheus_text_is_cumulative() {
        let mut h = LogHistogram::new();
        h.record(1);
        h.record(1);
        h.record(100);
        let text = h.prometheus_text("q_ms");
        assert!(text.contains("# TYPE q_ms histogram"));
        assert!(text.contains("q_ms_bucket{le=\"1\"} 2"));
        assert!(text.contains("q_ms_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("q_ms_count 3"));
        assert!(text.contains("q_ms_sum 102"));
    }
}
