//! Simulation-wide measurement: counters, latency histograms, gauges.
//!
//! Every experiment in the benchmark harness reads its results from a
//! [`Stats`] collected during a run. Latency samples land in a
//! deterministic log-bucketed (HDR-style) [`Histogram`]: constant memory
//! per timer regardless of sample volume, pure integer bucket math (so
//! two same-seed runs summarize bit-for-bit), and ≤ ~1.6% relative
//! quantile error from 64 sub-buckets per octave.

use std::collections::BTreeMap;

use crate::time::SimDuration;

/// Sub-bucket resolution: 2^SUB_BITS linear sub-buckets per power-of-two
/// octave. 64 sub-buckets bound the relative bucket width — and hence
/// the quantile error — at 1/64 (upper-edge representatives).
const SUB_BITS: u32 = 6;
const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// Bucket index of a microsecond value. Values below `2 * SUB_BUCKETS`
/// are exact (one bucket per microsecond); above, each octave splits
/// into `SUB_BUCKETS` linear slices.
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let top = 63 - v.leading_zeros(); // 2^top <= v < 2^(top+1)
    let shift = top - SUB_BITS;
    (((top - SUB_BITS) as u64 * SUB_BUCKETS) + (v >> shift)) as usize
}

/// Largest microsecond value mapping to bucket `i` (the bucket's upper
/// edge — quantiles report this, never undercounting a latency).
fn bucket_upper(i: usize) -> u64 {
    let i = i as u64;
    let d = i / SUB_BUCKETS;
    if d == 0 {
        return i;
    }
    let mantissa = i - d * SUB_BUCKETS + SUB_BUCKETS; // in [2^SUB_BITS, 2^(SUB_BITS+1))
    let shift = (d - 1) as u32;
    (mantissa << shift) + ((1u64 << shift) - 1)
}

/// Deterministic log-bucketed histogram of durations (HDR-style).
///
/// Memory is O(log(max) · 2^SUB_BITS) independent of sample count; the
/// mean is exact (a running integer sum), min/max are exact, and
/// quantiles report the upper edge of the selected bucket clamped to
/// `[min, max]` — within 1/64 relative error of the exact nearest-rank
/// answer, and bit-identical across same-seed runs.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min_v: u64,
    max_v: u64,
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one duration sample.
    pub fn record(&mut self, d: SimDuration) {
        let v = d.as_micros();
        let idx = bucket_index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        if self.total == 0 {
            self.min_v = v;
            self.max_v = v;
        } else {
            self.min_v = self.min_v.min(v);
            self.max_v = self.max_v.max(v);
        }
        self.total += 1;
        self.sum += v as u128;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.total as usize
    }

    /// Arithmetic mean (exact: running sum), or zero if empty.
    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_micros((self.sum / self.total as u128) as u64)
    }

    /// Quantile (`q` in [0, 1]) by nearest-rank over the bucket counts,
    /// or zero if empty. `q = 0` and `q = 1` are exact (min/max).
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max();
        }
        // Nearest-rank: idx = ceil(q * n) - 1, then walk the cumulative
        // bucket counts until that rank is covered.
        let rank = ((q * self.total as f64).ceil() as u64)
            .saturating_sub(1)
            .min(self.total - 1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if c > 0 && seen > rank {
                return SimDuration::from_micros(
                    bucket_upper(i).clamp(self.min_v, self.max_v),
                );
            }
        }
        self.max()
    }

    /// Median (p50).
    pub fn median(&self) -> SimDuration {
        self.quantile(0.5)
    }

    /// Maximum sample (exact), or zero if empty.
    pub fn max(&self) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_micros(self.max_v)
    }

    /// Minimum sample (exact), or zero if empty.
    pub fn min(&self) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_micros(self.min_v)
    }

    /// Merge another histogram's buckets into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.total == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        if self.total == 0 {
            self.min_v = other.min_v;
            self.max_v = other.max_v;
        } else {
            self.min_v = self.min_v.min(other.min_v);
            self.max_v = self.max_v.max(other.max_v);
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// One-call summary (count / mean / min / p50 / p90 / p99 / max) so
    /// experiments stop hand-rolling quantile pulls. A single sample
    /// reports `min == p50 == p90 == p99 == max` exactly.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            mean: self.mean(),
            min: self.min(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }
}

/// Snapshot of the standard reporting quantiles of a [`Histogram`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean (exact).
    pub mean: SimDuration,
    /// Smallest sample (exact).
    pub min: SimDuration,
    /// Median (nearest-rank over buckets).
    pub p50: SimDuration,
    /// 90th percentile.
    pub p90: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
    /// Largest sample (exact).
    pub max: SimDuration,
}

impl HistogramSummary {
    /// Deterministic one-line rendering in microseconds. An empty
    /// histogram renders an explicit "no samples" marker rather than a
    /// row of misleading zeros.
    pub fn render(&self) -> String {
        if self.count == 0 {
            return "no samples".to_string();
        }
        format!(
            "count={} mean={} min={} p50={} p90={} p99={} max={}",
            self.count,
            self.mean.as_micros(),
            self.min.as_micros(),
            self.p50.as_micros(),
            self.p90.as_micros(),
            self.p99.as_micros(),
            self.max.as_micros()
        )
    }
}

/// Central measurement sink for one simulation run.
///
/// Keys are free-form strings; the DISCOVER stack uses dotted names like
/// `"server.http.requests"` or `"client.response_latency"`. `BTreeMap`
/// keeps report output deterministically ordered.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Stats {
    /// Create an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Debug-build guard against one key string naming two metric kinds
    /// (a duplicated key silently merges two metrics; a cross-kind reuse
    /// silently splits one name across maps).
    #[inline]
    fn assert_kind(&self, key: &str, kind: &str) {
        debug_assert!(
            (kind == "counter" || !self.counters.contains_key(key))
                && (kind == "gauge" || !self.gauges.contains_key(key))
                && (kind == "histogram" || !self.histograms.contains_key(key)),
            "metric key {key:?} already registered as a different kind (writing as {kind})"
        );
    }

    /// Add `n` to counter `key` (creating it at zero).
    pub fn add(&mut self, key: &str, n: u64) {
        self.assert_kind(key, "counter");
        // Look up before inserting: the key string is allocated only the
        // first time a counter is written, not on every increment.
        match self.counters.get_mut(key) {
            Some(v) => *v += n,
            None => {
                self.counters.insert(key.to_owned(), n);
            }
        }
    }

    /// Increment counter `key` by one.
    pub fn incr(&mut self, key: &str) {
        self.add(key, 1);
    }

    /// Read counter `key` (zero if absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Sum of all counters whose name starts with `prefix`.
    pub fn counter_prefix_sum(&self, prefix: &str) -> u64 {
        self.counters
            .range(prefix.to_owned()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Set gauge `key` to `v`.
    pub fn set_gauge(&mut self, key: &str, v: f64) {
        self.assert_kind(key, "gauge");
        match self.gauges.get_mut(key) {
            Some(g) => *g = v,
            None => {
                self.gauges.insert(key.to_owned(), v);
            }
        }
    }

    /// Read gauge `key` (zero if absent).
    pub fn gauge(&self, key: &str) -> f64 {
        self.gauges.get(key).copied().unwrap_or(0.0)
    }

    /// Record a duration into histogram `key`.
    pub fn record(&mut self, key: &str, d: SimDuration) {
        self.histogram_mut(key).record(d);
    }

    /// Mutable access to histogram `key`, creating it if absent.
    pub fn histogram_mut(&mut self, key: &str) -> &mut Histogram {
        self.assert_kind(key, "histogram");
        if !self.histograms.contains_key(key) {
            self.histograms.insert(key.to_owned(), Histogram::new());
        }
        self.histograms.get_mut(key).expect("present or just inserted")
    }

    /// Iterate all histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// Read-only access to histogram `key`, if present.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// Iterate all counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterate all histogram names in key order.
    pub fn histogram_names(&self) -> impl Iterator<Item = &str> {
        self.histograms.keys().map(|k| k.as_str())
    }

    /// Merge another stats sink into this one (counters add, gauges take
    /// the other's value, histograms merge samples).
    pub fn merge(&mut self, other: &Stats) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        s.incr("a.b");
        s.add("a.b", 4);
        s.incr("a.c");
        assert_eq!(s.counter("a.b"), 5);
        assert_eq!(s.counter("missing"), 0);
        assert_eq!(s.counter_prefix_sum("a."), 6);
        assert_eq!(s.counter_prefix_sum("a.b"), 5);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for us in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            h.record(SimDuration::from_micros(us));
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.median().as_micros(), 50);
        assert_eq!(h.quantile(0.0).as_micros(), 10);
        assert_eq!(h.quantile(1.0).as_micros(), 100);
        assert_eq!(h.mean().as_micros(), 55);
        assert_eq!(h.max().as_micros(), 100);
        assert_eq!(h.min().as_micros(), 10);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.quantile(0.99), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
    }

    #[test]
    fn summary_matches_individual_queries() {
        let mut h = Histogram::new();
        for us in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            h.record(SimDuration::from_micros(us));
        }
        let s = h.summary();
        assert_eq!(s.count, 10);
        assert_eq!(s.mean.as_micros(), 55);
        assert_eq!(s.p50.as_micros(), 50);
        assert_eq!(s.p99.as_micros(), 100);
        assert_eq!(s.max.as_micros(), 100);
    }

    #[test]
    fn empty_summary_renders_no_samples() {
        let h = Histogram::new();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.render(), "no samples");
    }

    #[test]
    fn single_sample_is_consistent() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_micros(12_345));
        let s = h.summary();
        assert_eq!(s.count, 1);
        // min == p50 == p90 == p99 == max, all the one exact sample.
        assert_eq!(s.min.as_micros(), 12_345);
        assert_eq!(s.p50.as_micros(), 12_345);
        assert_eq!(s.p90.as_micros(), 12_345);
        assert_eq!(s.p99.as_micros(), 12_345);
        assert_eq!(s.max.as_micros(), 12_345);
        assert_eq!(s.mean.as_micros(), 12_345);
    }

    #[test]
    fn bucket_error_is_bounded() {
        // Log-bucketed quantiles may over-report by at most 1/64
        // relative (one sub-bucket width) and never under-report.
        let mut h = Histogram::new();
        for v in (0..10_000u64).map(|i| i * 997 + 13) {
            h.record(SimDuration::from_micros(v));
        }
        let exact_p90 = {
            let mut vals: Vec<u64> = (0..10_000u64).map(|i| i * 997 + 13).collect();
            vals.sort_unstable();
            vals[(0.9f64 * 10_000.0).ceil() as usize - 1]
        };
        let got = h.quantile(0.90).as_micros();
        assert!(got >= exact_p90, "bucketed quantile under-reported: {got} < {exact_p90}");
        assert!(
            (got - exact_p90) as f64 <= exact_p90 as f64 / 64.0 + 1.0,
            "bucketed quantile error too large: {got} vs {exact_p90}"
        );
    }

    #[test]
    fn bucket_roundtrip_upper_edge() {
        // Every value maps to a bucket whose upper edge is >= the value
        // and within 1/64 relative.
        for v in (0..1u64 << 20).step_by(101) {
            let up = super::bucket_upper(super::bucket_index(v));
            assert!(up >= v);
            assert!(up - v <= v / 64 + 1, "v={v} upper={up}");
        }
    }

    #[test]
    fn merge_preserves_exact_bounds() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(SimDuration::from_micros(100));
        b.record(SimDuration::from_micros(9_999));
        b.record(SimDuration::from_micros(3));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min().as_micros(), 3);
        assert_eq!(a.max().as_micros(), 9_999);
        assert_eq!(a.mean().as_micros(), (100 + 9_999 + 3) / 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "different kind")]
    fn cross_kind_key_reuse_panics_in_debug() {
        let mut s = Stats::new();
        s.incr("dup.key");
        s.record("dup.key", SimDuration::from_micros(1));
    }

    #[test]
    fn merge_combines() {
        let mut a = Stats::new();
        let mut b = Stats::new();
        a.add("x", 1);
        b.add("x", 2);
        b.record("h", SimDuration::from_micros(7));
        b.set_gauge("g", 3.5);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.histogram("h").unwrap().count(), 1);
        assert_eq!(a.gauge("g"), 3.5);
    }
}
