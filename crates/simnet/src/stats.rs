//! Measurement sinks: counters, latency histograms, gauges.
//!
//! Every node's metrics registry stores its measurements in a [`Stats`],
//! and every experiment in the benchmark harness reads its results from
//! the run-wide [`Stats`] the engine sums from them. Latency samples land
//! in a deterministic log-bucketed (HDR-style) [`Histogram`]: constant
//! memory per timer regardless of sample volume, pure integer bucket math
//! (so two same-seed runs summarize bit-for-bit), and ≤ ~1.6% relative
//! quantile error from 64 sub-buckets per octave.

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::metrics::{CounterDef, GaugeDef, TimerDef};
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
        let rank = ((q * self.total as f64).ceil() as u64).saturating_sub(1).min(self.total - 1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if c > 0 && seen > rank {
                return SimDuration::from_micros(bucket_upper(i).clamp(self.min_v, self.max_v));
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

/// One metric kind's store: the values in a dense vector written by
/// index, and the sorted name → index directory every read goes through.
/// A key enters the directory at its first write, never before, so
/// "present" keeps meaning "written at least once".
#[derive(Clone, Debug, Default)]
struct Table<T> {
    values: Vec<T>,
    /// A definition's name is kept as the `&'static str` it is; only a
    /// name written at run time is copied, once. So summing sinks (as
    /// `Engine::stats` does per call) copies no name of a typed metric.
    dir: BTreeMap<Cow<'static, str>, u32>,
    /// Definition slot → index into `values`, [`UNBOUND`] until that slot
    /// is first written here. Empty until the first write by slot, so a
    /// sink nobody writes to owns no heap memory.
    slots: Vec<u32>,
}

const UNBOUND: u32 = u32::MAX;

impl<T: Default> Table<T> {
    /// The value of `key`, created at its default on first use: one tree
    /// walk, and the key string is allocated only that first time.
    fn by_name(&mut self, key: &str) -> &mut T {
        let at = self.index_of(key, || Cow::Owned(key.to_owned()));
        &mut self.values[at as usize]
    }

    /// Fold every value of `other` into this table's value of the same
    /// name with `fold`, sharing a definition's name rather than copying it.
    fn merge_with(&mut self, other: &Table<T>, mut fold: impl FnMut(&mut T, &T)) {
        for (key, &from) in &other.dir {
            let at = self.index_of(key, || key.clone());
            fold(&mut self.values[at as usize], &other.values[from as usize]);
        }
    }

    /// The value of the definition at `slot`, named `key`: two indexed
    /// loads once the slot is bound, no comparison of key strings.
    #[inline]
    fn by_slot(&mut self, slot: usize, key: &'static str) -> &mut T {
        match self.slots.get(slot) {
            Some(&at) if at != UNBOUND => &mut self.values[at as usize],
            _ => self.bind(slot, key),
        }
    }

    /// First write through `slot`: bind it to the value `key` already
    /// has here (written by name, or merged in), or to a fresh one.
    #[cold]
    fn bind(&mut self, slot: usize, key: &'static str) -> &mut T {
        if self.slots.is_empty() {
            self.slots.resize(crate::metrics::names::ALL.len(), UNBOUND);
        }
        let at = self.index_of(key, || Cow::Borrowed(key));
        self.slots[slot] = at;
        &mut self.values[at as usize]
    }

    /// Where `key`'s value lives, entering the key at its default if new.
    fn index_of(&mut self, key: &str, stored: impl FnOnce() -> Cow<'static, str>) -> u32 {
        if let Some(&at) = self.dir.get(key) {
            return at;
        }
        let at = u32::try_from(self.values.len()).expect("fewer than 2^32 metric keys");
        self.values.push(T::default());
        self.dir.insert(stored(), at);
        at
    }
}

impl<T> Table<T> {
    fn get(&self, key: &str) -> Option<&T> {
        self.dir.get(key).map(|&at| &self.values[at as usize])
    }

    fn contains(&self, key: &str) -> bool {
        self.dir.contains_key(key)
    }

    /// Every written key with its value, in key order.
    fn iter(&self) -> impl Iterator<Item = (&str, &T)> {
        self.dir.iter().map(|(k, &at)| (&**k, &self.values[at as usize]))
    }
}

/// Central measurement sink for one simulation run.
///
/// Keys are free-form strings; the DISCOVER stack uses dotted names like
/// `"server.http.requests"` or `"client.response_latency"`. Values live
/// in dense slot tables: a write through a typed definition
/// ([`CounterDef`] and friends carry their slot) indexes the table, a
/// write by name walks the sorted name directory once. Reads always go
/// through the directory, so report output is deterministically ordered
/// and a key exists exactly from its first write (even of zero).
#[derive(Clone, Debug, Default)]
pub struct Stats {
    counters: Table<u64>,
    gauges: Table<f64>,
    histograms: Table<Histogram>,
}

impl Stats {
    /// Create an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Debug-build guard against one key string naming two metric kinds
    /// (a duplicated key silently merges two metrics; a cross-kind reuse
    /// silently splits one name across tables).
    #[inline]
    fn assert_kind(&self, key: &str, kind: &str) {
        debug_assert!(
            (kind == "counter" || !self.counters.contains(key))
                && (kind == "gauge" || !self.gauges.contains(key))
                && (kind == "histogram" || !self.histograms.contains(key)),
            "metric key {key:?} already registered as a different kind (writing as {kind})"
        );
    }

    /// Add `n` to counter `key` (creating it at zero).
    pub fn add(&mut self, key: &str, n: u64) {
        self.assert_kind(key, "counter");
        *self.counters.by_name(key) += n;
    }

    /// Increment counter `key` by one.
    pub fn incr(&mut self, key: &str) {
        self.add(key, 1);
    }

    /// Add `n` to the counter `c` defines, by slot.
    #[inline]
    pub fn add_def(&mut self, c: CounterDef, n: u64) {
        self.assert_kind(c.key(), "counter");
        *self.counters.by_slot(c.slot(), c.key()) += n;
    }

    /// Read counter `key` (zero if absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Set gauge `key` to `v`.
    pub fn set_gauge(&mut self, key: &str, v: f64) {
        self.assert_kind(key, "gauge");
        *self.gauges.by_name(key) = v;
    }

    /// Set the gauge `g` defines, by slot.
    pub fn set_gauge_def(&mut self, g: GaugeDef, v: f64) {
        self.assert_kind(g.key(), "gauge");
        *self.gauges.by_slot(g.slot(), g.key()) = v;
    }

    /// Read gauge `key` (zero if absent).
    pub fn gauge(&self, key: &str) -> f64 {
        self.gauges.get(key).copied().unwrap_or(0.0)
    }

    /// Record a duration into histogram `key`.
    pub fn record(&mut self, key: &str, d: SimDuration) {
        self.histogram_mut(key).record(d);
    }

    /// Record a duration into the histogram `t` defines, by slot.
    pub fn record_def(&mut self, t: TimerDef, d: SimDuration) {
        self.assert_kind(t.key(), "histogram");
        self.histograms.by_slot(t.slot(), t.key()).record(d);
    }

    /// Mutable access to histogram `key`, creating it if absent.
    pub fn histogram_mut(&mut self, key: &str) -> &mut Histogram {
        self.assert_kind(key, "histogram");
        self.histograms.by_name(key)
    }

    /// Iterate all histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter()
    }

    /// Read-only access to histogram `key`, if present.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// Iterate all counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k, *v))
    }

    /// Merge another stats sink into this one (counters add, gauges take
    /// the other's value, histograms merge samples).
    pub fn merge(&mut self, other: &Stats) {
        self.counters.merge_with(&other.counters, |sum, n| *sum += n);
        self.gauges.merge_with(&other.gauges, |level, v| *level = *v);
        self.histograms.merge_with(&other.histograms, Histogram::merge);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sum of all counters whose name starts with `prefix`.
    fn prefix_sum(s: &Stats, prefix: &str) -> u64 {
        s.counters().filter(|(k, _)| k.starts_with(prefix)).map(|(_, v)| v).sum()
    }

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        s.incr("a.b");
        s.add("a.b", 4);
        s.incr("a.c");
        assert_eq!(s.counter("a.b"), 5);
        assert_eq!(s.counter("missing"), 0);
        assert_eq!(prefix_sum(&s, "a."), 6);
        assert_eq!(prefix_sum(&s, "a.b"), 5);
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
    fn a_key_exists_from_its_first_write_by_either_path() {
        use crate::metrics::names;
        let mut s = Stats::new();
        assert_eq!(s.counters().count(), 0);
        // A zero add creates the counter, by slot as by name.
        s.add_def(names::SERVER_OPS, 0);
        s.add("dyn.zero", 0);
        assert_eq!(s.counters().collect::<Vec<_>>(), vec![("dyn.zero", 0), ("server.ops", 0)]);
        // One name, one value, whichever path wrote first.
        s.add(names::SERVER_OPS.key(), 2);
        s.add_def(names::SERVER_OPS, 3);
        s.add(names::SERVER_LOGINS.key(), 1);
        s.add_def(names::SERVER_LOGINS, 1);
        assert_eq!(s.counter("server.ops"), 5);
        assert_eq!(s.counter("server.logins"), 2);
        assert_eq!(s.counters().count(), 3);
    }

    #[test]
    fn an_unwritten_sink_owns_no_heap_memory() {
        let s = Stats::new();
        assert_eq!(s.counters.values.capacity() + s.counters.slots.capacity(), 0);
        assert_eq!(s.gauges.values.capacity() + s.gauges.slots.capacity(), 0);
        assert_eq!(s.histograms.values.capacity() + s.histograms.slots.capacity(), 0);
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

    /// The slot-backed sink against the plain name-keyed maps it replaced.
    #[cfg(feature = "proptest")]
    mod differential {
        use std::collections::BTreeMap;

        use proptest::prelude::*;

        use super::super::*;
        use crate::metrics::names;

        const COUNTERS: [CounterDef; 4] = [
            names::ENGINE_CRASHES,
            names::SERVER_OPS,
            names::WEBSERV_FIFO_ENQUEUED,
            names::DRIVER_REGISTER_NAK,
        ];
        /// Written by name: two keys that also have a definition above,
        /// and two that only ever exist as strings.
        const NAMED: [&str; 4] = ["server.ops", "engine.crashes", "directory.query", "link.lan"];
        const GAUGES: [GaugeDef; 2] = [names::SUBSTRATE_RING_SHARDS, names::SUBSTRATE_RING_EPOCH];
        const NAMED_GAUGES: [&str; 2] = ["substrate.ring.epoch", "g.level"];
        const TIMERS: [TimerDef; 2] = [names::CLIENT_OP_LATENCY, names::CLIENT_STATUS_LATENCY];
        const NAMED_TIMERS: [&str; 2] = ["client.op_latency", "node.s0.client.op_latency"];
        const PREFIXES: [&str; 6] = ["", "link.", "link.lan", "server.", "engine.crashes", "zz"];

        #[derive(Clone, Debug)]
        enum Op {
            Typed(usize, u64),
            Named(usize, u64),
            Gauge(usize, u64),
            NamedGauge(usize, u64),
            Record(usize, u64),
            NamedRecord(usize, u64),
            /// Merge the other sink into this one.
            Merge,
        }

        fn op() -> impl Strategy<Value = Op> {
            // Amounts include zero: a zero add still creates its key.
            prop_oneof![
                (0usize..4, 0u64..3).prop_map(|(i, n)| Op::Typed(i, n)),
                (0usize..4, 0u64..3).prop_map(|(i, n)| Op::Named(i, n)),
                (0usize..2, 0u64..9).prop_map(|(i, v)| Op::Gauge(i, v)),
                (0usize..2, 0u64..9).prop_map(|(i, v)| Op::NamedGauge(i, v)),
                (0usize..2, 0u64..5000).prop_map(|(i, us)| Op::Record(i, us)),
                (0usize..2, 0u64..5000).prop_map(|(i, us)| Op::NamedRecord(i, us)),
                (0u8..1).prop_map(|_| Op::Merge),
            ]
        }

        #[derive(Clone, Default)]
        struct Model {
            counters: BTreeMap<String, u64>,
            gauges: BTreeMap<String, f64>,
            samples: BTreeMap<String, Vec<u64>>,
        }

        impl Model {
            fn merge(&mut self, other: &Model) {
                for (k, v) in &other.counters {
                    *self.counters.entry(k.clone()).or_insert(0) += v;
                }
                for (k, v) in &other.gauges {
                    self.gauges.insert(k.clone(), *v);
                }
                for (k, v) in &other.samples {
                    self.samples.entry(k.clone()).or_default().extend(v);
                }
            }
        }

        fn apply(op: &Op, sut: &mut Stats, model: &mut Model, other: (&Stats, &Model)) {
            let us = SimDuration::from_micros;
            match *op {
                Op::Typed(i, n) => {
                    sut.add_def(COUNTERS[i], n);
                    *model.counters.entry(COUNTERS[i].key().into()).or_insert(0) += n;
                }
                Op::Named(i, n) => {
                    sut.add(NAMED[i], n);
                    *model.counters.entry(NAMED[i].into()).or_insert(0) += n;
                }
                Op::Gauge(i, v) => {
                    sut.set_gauge_def(GAUGES[i], v as f64);
                    model.gauges.insert(GAUGES[i].key().into(), v as f64);
                }
                Op::NamedGauge(i, v) => {
                    sut.set_gauge(NAMED_GAUGES[i], v as f64);
                    model.gauges.insert(NAMED_GAUGES[i].into(), v as f64);
                }
                Op::Record(i, d) => {
                    sut.record_def(TIMERS[i], us(d));
                    model.samples.entry(TIMERS[i].key().into()).or_default().push(d);
                }
                Op::NamedRecord(i, d) => {
                    sut.record(NAMED_TIMERS[i], us(d));
                    model.samples.entry(NAMED_TIMERS[i].into()).or_default().push(d);
                }
                Op::Merge => {
                    sut.merge(other.0);
                    model.merge(other.1);
                }
            }
        }

        fn assert_same(sut: &Stats, model: &Model) {
            let counters: Vec<(&str, u64)> =
                model.counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            assert_eq!(sut.counters().collect::<Vec<_>>(), counters);
            let every_counter = COUNTERS
                .iter()
                .map(|c| c.key().to_owned())
                .chain(NAMED.iter().map(|k| (*k).to_owned()));
            for key in every_counter {
                assert_eq!(sut.counter(&key), model.counters.get(&key).copied().unwrap_or(0));
            }
            for prefix in PREFIXES {
                let sum: u64 = model
                    .counters
                    .iter()
                    .filter(|(k, _)| k.starts_with(prefix))
                    .map(|(_, v)| *v)
                    .sum();
                assert_eq!(super::prefix_sum(sut, prefix), sum, "prefix {prefix:?}");
            }
            for key in GAUGES.iter().map(|g| g.key()).chain(NAMED_GAUGES) {
                assert_eq!(sut.gauge(key), model.gauges.get(key).copied().unwrap_or(0.0));
            }
            let names: Vec<&str> = model.samples.keys().map(String::as_str).collect();
            assert_eq!(sut.histograms().map(|(k, _)| k).collect::<Vec<_>>(), names);
            for (name, h) in sut.histograms() {
                let samples = &model.samples[name];
                assert_eq!(h.count(), samples.len());
                assert_eq!(h.max().as_micros(), samples.iter().copied().max().unwrap_or(0));
            }
            for key in TIMERS.iter().map(|t| t.key()).chain(NAMED_TIMERS) {
                assert_eq!(sut.histogram(key).is_some(), model.samples.contains_key(key));
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Two sinks take a random interleaving of writes by slot and
            /// by name, and merge into each other at random points (so a
            /// merge meets keys its target has and has not seen, bound and
            /// unbound): after every step both read exactly as the
            /// name-keyed model does.
            #[test]
            fn slot_backed_stats_read_like_name_keyed_maps(
                ops in prop::collection::vec((0u8..2, op()), 1..60),
            ) {
                let mut sinks = [(Stats::new(), Model::default()), (Stats::new(), Model::default())];
                for (target, op) in &ops {
                    let [a, b] = &mut sinks;
                    let (this, other) = if *target == 0 { (a, b) } else { (b, a) };
                    apply(op, &mut this.0, &mut this.1, (&other.0, &other.1));
                    for (sut, model) in &sinks {
                        assert_same(sut, model);
                    }
                }
                // A copy carries its slot bindings along and stays its own sink.
                let (mut copy, mut model) = sinks[0].clone();
                let none = (Stats::new(), Model::default());
                for (_, op) in &ops {
                    apply(op, &mut copy, &mut model, (&none.0, &none.1));
                }
                assert_same(&copy, &model);
                assert_same(&sinks[0].0, &sinks[0].1);
            }
        }
    }
}
