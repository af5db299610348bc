//! Power-of-two latency histogram shared across the workspace, so the
//! commit pipeline, the compactor and the metrics registry all bin
//! latencies identically. Counts and sums saturate at `u64::MAX` rather
//! than overflow.

use std::time::Duration;

/// Number of power-of-two buckets: bucket `i < 23` holds microsecond
/// values in `[2^(i-1), 2^i)` (bucket 0 holds exactly 0 µs); the last
/// bucket is open-ended and holds everything from `2^22` µs (~4.2 s) up.
pub const HISTOGRAM_BUCKETS: usize = 24;

/// Fixed-footprint latency histogram with power-of-two microsecond
/// buckets — no allocation on record, mergeable, quantile-queryable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    total_micros: u64,
    /// Largest single sample ever recorded, in microseconds. The top
    /// bucket is open-ended, so its "upper bound" is only honest when a
    /// quantile that resolves there reports this observed maximum.
    max_micros: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild a histogram from exported parts (the Prometheus-text
    /// parser's inverse of the accessors). `buckets` are per-bucket
    /// counts, not cumulative.
    pub fn from_parts(
        buckets: [u64; HISTOGRAM_BUCKETS],
        total_micros: u64,
        max_micros: u64,
    ) -> Self {
        let count = buckets.iter().fold(0u64, |sum, &b| sum.saturating_add(b));
        LatencyHistogram { buckets, count, total_micros, max_micros }
    }

    /// Record one latency sample.
    pub fn record(&mut self, latency: Duration) {
        self.record_micros(latency.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Record one latency sample given directly in microseconds.
    pub fn record_micros(&mut self, micros: u64) {
        let idx = (64 - micros.leading_zeros() as usize).min(self.buckets.len() - 1);
        self.buckets[idx] = self.buckets[idx].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.total_micros = self.total_micros.saturating_add(micros);
        self.max_micros = self.max_micros.max(micros);
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.total_micros = self.total_micros.saturating_add(other.total_micros);
        self.max_micros = self.max_micros.max(other.max_micros);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples, in microseconds.
    pub fn total_micros(&self) -> u64 {
        self.total_micros
    }

    /// Largest single sample recorded, in microseconds.
    pub fn max_micros(&self) -> u64 {
        self.max_micros
    }

    /// Upper bound (exclusive, in microseconds) of bucket `i` — the
    /// Prometheus `le` boundary of that bucket.
    pub fn bucket_bound_micros(i: usize) -> u64 {
        1u64 << i.min(HISTOGRAM_BUCKETS - 1)
    }

    /// An upper bound (µs) on the `q`-quantile (`q` in `[0, 1]`): the
    /// power-of-two boundary of the bucket the quantile lands in, or the
    /// observed maximum when it lands in the open-ended top bucket
    /// (where the boundary would otherwise be a *lower* bound).
    pub fn quantile_micros(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return if i + 1 == self.buckets.len() { self.max_micros } else { 1u64 << i };
            }
        }
        self.max_micros
    }

    /// The raw per-bucket counts (bucket `i` ends at `2^i` µs; the last
    /// is open-ended).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reports_quantiles() {
        let mut h = LatencyHistogram::new();
        for micros in [3u64, 5, 9, 17, 100, 1000] {
            h.record(Duration::from_micros(micros));
        }
        assert_eq!(h.count(), 6);
        assert!(h.quantile_micros(0.5) <= 16);
        assert!(h.quantile_micros(1.0) >= 1000);
    }

    #[test]
    fn sums_saturate_instead_of_overflowing() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::MAX);
        h.record(Duration::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.total_micros(), u64::MAX);
        assert_eq!(h.quantile_micros(1.0), u64::MAX);
        let mut merged = h.clone();
        merged.merge(&h);
        assert_eq!((merged.count(), merged.total_micros()), (4, u64::MAX));
        // Parsed parts whose buckets sum past u64::MAX saturate too;
        // the count then equals bucket 0's, so every quantile lands there.
        let full = LatencyHistogram::from_parts([u64::MAX; HISTOGRAM_BUCKETS], 0, 7);
        assert_eq!((full.count(), full.quantile_micros(1.0)), (u64::MAX, 1));
    }

    #[test]
    fn top_bucket_quantile_reports_the_observed_maximum() {
        // The last bucket is open-ended: before the fix, a 20-second
        // sample reported a "p100" of 2^23 µs (~8.4 s), an upper bound
        // that was actually a lower bound.
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_secs(20));
        assert_eq!(h.quantile_micros(1.0), 20_000_000);
        assert_eq!(h.max_micros(), 20_000_000);
        // A sample inside the top bucket's nominal range also reports
        // the honest maximum rather than the 2^23 boundary.
        let mut h = LatencyHistogram::new();
        h.record_micros(5_000_000);
        assert_eq!(h.quantile_micros(0.5), 5_000_000);
    }

    #[test]
    fn quantile_is_monotone_even_across_the_top_bucket() {
        let mut h = LatencyHistogram::new();
        for micros in [1u64, 1 << 10, 1 << 21, (1 << 23) + 123] {
            h.record_micros(micros);
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        for w in qs.windows(2) {
            assert!(
                h.quantile_micros(w[0]) <= h.quantile_micros(w[1]),
                "quantile not monotone between q={} and q={}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn merge_adds_counts_and_keeps_the_max() {
        let mut a = LatencyHistogram::new();
        a.record_micros(10);
        let mut b = LatencyHistogram::new();
        b.record_micros(1 << 24);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max_micros(), 1 << 24);
        assert_eq!(a.total_micros(), 10 + (1 << 24));
    }

    #[test]
    fn from_parts_round_trips_the_accessors() {
        let mut h = LatencyHistogram::new();
        for micros in [0u64, 1, 2, 7, 1 << 20, 1 << 23] {
            h.record_micros(micros);
        }
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        buckets.copy_from_slice(h.buckets());
        let rebuilt = LatencyHistogram::from_parts(buckets, h.total_micros(), h.max_micros());
        assert_eq!(rebuilt, h);
    }
}
