//! Deterministic distributed tracing over virtual time.
//!
//! A [`TraceContext`] is minted at request ingress (the portal), carried
//! inside the wire envelope across links, and re-parented at every layer a
//! request traverses: session handling, trader lookup, broker dispatch
//! (including each retry attempt), proxy execution and application compute.
//! The result is one causally-linked span tree per client request.
//!
//! Everything is driven by [`SimTime`] and monotone id counters, so two
//! runs with the same seed produce byte-identical exports — the exporters
//! emit Chrome trace-event JSON (load in `chrome://tracing` / Perfetto)
//! and a plain-text per-layer latency breakdown.
//!
//! Tracing is **opt-in** ([`Tracer::enable`], or
//! `Engine::enable_tracing`): when disabled every mint returns `None`, no
//! envelope carries a context, and wire sizes — hence the event schedule —
//! are exactly those of an untraced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Histogram;
use crate::time::SimTime;

/// Per-request trace identity carried across the wire.
///
/// `Copy` and tiny by design: the envelope codec accounts for
/// [`TraceContext::WIRE_BYTES`] of framing when a message carries one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Identifies the whole request tree (one per client request).
    pub trace_id: u64,
    /// The span this message belongs to.
    pub span_id: u64,
    /// The span that caused this one (`None` for the root).
    pub parent_span: Option<u64>,
}

impl TraceContext {
    /// Bytes the context occupies in a marshalled envelope:
    /// trace id + span id + parent span id (8 bytes each, parent zero
    /// meaning "none" on the wire).
    pub const WIRE_BYTES: usize = 24;

    /// A context for a child span of this one (same trace).
    pub fn child(self, span_id: u64) -> TraceContext {
        TraceContext { trace_id: self.trace_id, span_id, parent_span: Some(self.span_id) }
    }
}

/// One completed (or still-open) span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id (unique within a run).
    pub span_id: u64,
    /// Parent span id, if any.
    pub parent_span: Option<u64>,
    /// Layer-qualified name, e.g. `"orb.call"` or `"server.http"`.
    pub name: String,
    /// Node the span executed on.
    pub node: String,
    /// Virtual instant the span opened.
    pub start: SimTime,
    /// Virtual instant the span closed (== `start` while open).
    pub end: SimTime,
    /// Point annotations (instant, text), e.g. breaker transitions.
    pub events: Vec<(SimTime, String)>,
}

impl SpanRecord {
    /// Span duration in virtual microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end.as_micros().saturating_sub(self.start.as_micros())
    }
}

/// Run-wide span sink with deterministic id allocation.
///
/// Ids come from monotone counters; because the engine's event order is
/// deterministic under a fixed seed, so is every id, start and end — the
/// exports are bit-for-bit reproducible.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    next_trace_id: u64,
    next_span_id: u64,
    open: BTreeMap<u64, SpanRecord>,
    finished: Vec<SpanRecord>,
}

impl Tracer {
    /// A disabled tracer (every mint returns `None`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Turn span collection on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    fn alloc_span(&mut self) -> u64 {
        self.next_span_id += 1;
        self.next_span_id
    }

    /// Open a root span (new trace). `None` when tracing is disabled.
    pub fn start_root(&mut self, name: &str, node: &str, now: SimTime) -> Option<TraceContext> {
        if !self.enabled {
            return None;
        }
        self.next_trace_id += 1;
        let trace_id = self.next_trace_id;
        let span_id = self.alloc_span();
        self.open.insert(
            span_id,
            SpanRecord {
                trace_id,
                span_id,
                parent_span: None,
                name: name.to_owned(),
                node: node.to_owned(),
                start: now,
                end: now,
                events: Vec::new(),
            },
        );
        Some(TraceContext { trace_id, span_id, parent_span: None })
    }

    /// Open a child span under `parent`. `None` when tracing is disabled.
    pub fn start_child(
        &mut self,
        parent: TraceContext,
        name: &str,
        node: &str,
        now: SimTime,
    ) -> Option<TraceContext> {
        if !self.enabled {
            return None;
        }
        let span_id = self.alloc_span();
        self.open.insert(
            span_id,
            SpanRecord {
                trace_id: parent.trace_id,
                span_id,
                parent_span: Some(parent.span_id),
                name: name.to_owned(),
                node: node.to_owned(),
                start: now,
                end: now,
                events: Vec::new(),
            },
        );
        Some(parent.child(span_id))
    }

    /// Attach a point annotation to an open span (no-op if unknown).
    pub fn annotate(&mut self, span: TraceContext, now: SimTime, text: &str) {
        if let Some(rec) = self.open.get_mut(&span.span_id) {
            rec.events.push((now, text.to_owned()));
        }
    }

    /// Close an open span at `now` (no-op if unknown / already closed).
    pub fn finish(&mut self, span: TraceContext, now: SimTime) {
        if let Some(mut rec) = self.open.remove(&span.span_id) {
            rec.end = now;
            self.finished.push(rec);
        }
    }

    /// Record a complete child span covering `[start, end]` in one call
    /// (used for windows known only after the fact, e.g. retry backoff).
    pub fn record_window(
        &mut self,
        parent: TraceContext,
        name: &str,
        node: &str,
        start: SimTime,
        end: SimTime,
    ) {
        if !self.enabled {
            return;
        }
        let span_id = self.alloc_span();
        self.finished.push(SpanRecord {
            trace_id: parent.trace_id,
            span_id,
            parent_span: Some(parent.span_id),
            name: name.to_owned(),
            node: node.to_owned(),
            start,
            end,
            events: Vec::new(),
        });
    }

    /// Close every span still open (end of run) at `now`.
    pub fn finish_all(&mut self, now: SimTime) {
        let open = std::mem::take(&mut self.open);
        for (_, mut rec) in open {
            rec.end = now;
            self.finished.push(rec);
        }
    }

    /// Number of spans still open.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// All finished spans, sorted by (trace id, span id) — a stable,
    /// seed-reproducible order independent of finish order.
    pub fn finished(&mut self) -> &[SpanRecord] {
        self.finished.sort_by_key(|s| (s.trace_id, s.span_id));
        &self.finished
    }

    /// Spans of one trace, sorted by span id.
    pub fn trace(&mut self, trace_id: u64) -> Vec<&SpanRecord> {
        self.finished.sort_by_key(|s| (s.trace_id, s.span_id));
        self.finished.iter().filter(|s| s.trace_id == trace_id).collect()
    }

    /// Export finished spans as Chrome trace-event JSON (`ph:"X"` complete
    /// events, `pid` = trace id, `tid` = span id, instants as `ph:"i"`).
    /// Byte-identical across same-seed runs.
    pub fn export_chrome_json(&mut self) -> String {
        self.finished.sort_by_key(|s| (s.trace_id, s.span_id));
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for s in &self.finished {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{},\"tid\":{},\"args\":{{\"node\":\"{}\",\"parent\":{}}}}}",
                json_escape(&s.name),
                layer_of(&s.name),
                s.start.as_micros(),
                s.duration_us(),
                s.trace_id,
                s.span_id,
                json_escape(&s.node),
                s.parent_span.map_or(0, |p| p),
            );
            for (at, text) in &s.events {
                let _ = write!(
                    out,
                    ",{{\"name\":\"{}\",\"cat\":\"annotation\",\"ph\":\"i\",\"ts\":{},\
                     \"pid\":{},\"tid\":{},\"s\":\"t\"}}",
                    json_escape(text),
                    at.as_micros(),
                    s.trace_id,
                    s.span_id,
                );
            }
        }
        out.push_str("]}");
        out
    }

    /// Plain-text per-layer latency breakdown: one line per span name with
    /// count / mean / p50 / p99 / max, in name order.
    pub fn export_text_breakdown(&mut self) -> String {
        let mut by_name: BTreeMap<&str, Histogram> = BTreeMap::new();
        for s in &self.finished {
            by_name
                .entry(s.name.as_str())
                .or_default()
                .record(crate::SimDuration::from_micros(s.duration_us()));
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>7} {:>10} {:>10} {:>10} {:>10}",
            "span", "count", "mean_us", "p50_us", "p99_us", "max_us"
        );
        for (name, h) in by_name.iter_mut() {
            let sm = h.summary();
            let _ = writeln!(
                out,
                "{:<28} {:>7} {:>10} {:>10} {:>10} {:>10}",
                name,
                sm.count,
                sm.mean.as_micros(),
                sm.p50.as_micros(),
                sm.p99.as_micros(),
                sm.max.as_micros()
            );
        }
        out
    }
}

/// The layer a span name belongs to (its first dotted component).
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn disabled_tracer_mints_nothing() {
        let mut tr = Tracer::new();
        assert!(tr.start_root("client.request", "portal", t(0)).is_none());
        assert_eq!(tr.finished().len(), 0);
    }

    #[test]
    fn parentage_chain_links_spans() {
        let mut tr = Tracer::new();
        tr.enable();
        let root = tr.start_root("client.request", "portal", t(0)).unwrap();
        let server = tr.start_child(root, "server.http", "gw", t(10)).unwrap();
        let orb = tr.start_child(server, "orb.call", "gw", t(20)).unwrap();
        assert_eq!(orb.trace_id, root.trace_id);
        assert_eq!(orb.parent_span, Some(server.span_id));
        tr.finish(orb, t(30));
        tr.finish(server, t(40));
        tr.finish(root, t(50));
        let spans = tr.finished();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "client.request");
        assert_eq!(spans[0].parent_span, None);
        assert_eq!(spans[2].parent_span, Some(spans[1].span_id));
        assert_eq!(spans[0].duration_us(), 50);
    }

    #[test]
    fn record_window_is_a_closed_child() {
        let mut tr = Tracer::new();
        tr.enable();
        let root = tr.start_root("r", "n", t(0)).unwrap();
        tr.record_window(root, "orb.backoff", "n", t(5), t(25));
        tr.finish(root, t(30));
        let spans = tr.finished();
        let w = spans.iter().find(|s| s.name == "orb.backoff").unwrap();
        assert_eq!(w.parent_span, Some(root.span_id));
        assert_eq!(w.duration_us(), 20);
    }

    #[test]
    fn exports_are_deterministic_and_well_formed() {
        fn build() -> String {
            let mut tr = Tracer::new();
            tr.enable();
            let a = tr.start_root("client.request", "p", t(0)).unwrap();
            let b = tr.start_child(a, "server.http", "s \"x\"", t(3)).unwrap();
            tr.annotate(b, t(4), "breaker: closed -> open");
            // Finish out of start order: export order must not care.
            tr.finish(a, t(9));
            tr.finish(b, t(7));
            tr.finish_all(t(10));
            tr.export_chrome_json()
        }
        let one = build();
        assert_eq!(one, build());
        assert!(one.starts_with("{\"traceEvents\":["));
        assert!(one.contains("\\\"x\\\""), "quotes escaped: {one}");
        assert!(one.contains("\"ph\":\"i\""), "instant event present: {one}");
    }

    #[test]
    fn breakdown_groups_by_name() {
        let mut tr = Tracer::new();
        tr.enable();
        let a = tr.start_root("client.request", "p", t(0)).unwrap();
        tr.record_window(a, "orb.call", "p", t(0), t(10));
        tr.record_window(a, "orb.call", "p", t(0), t(30));
        tr.finish(a, t(40));
        let text = tr.export_text_breakdown();
        let line = text.lines().find(|l| l.starts_with("orb.call")).unwrap();
        assert!(line.contains(" 2 "), "count 2 in: {line}");
    }
}
