//! Anomaly flight recorder: bounded per-node rings of recent history
//! events, dumped deterministically when a trigger fires.
//!
//! The history log (`history`) keeps *everything* and is only practical
//! for short checked runs; the flight recorder keeps the last N events
//! per node and snapshots them the moment something goes wrong — a
//! circuit breaker tripping open, a burst of load shedding, a spike of
//! deadline expiries — so a long run that misbehaves ships with the
//! context that led up to the anomaly, the way an aircraft flight
//! recorder preserves the final minutes.
//!
//! Like tracing and history recording, the recorder is opt-in and
//! side-effect free: it observes the same decision points that
//! `Ctx::record` sees — the very events the history log holds, shared
//! through one `Rc` each; its triggers read only their
//! [`Decision`](crate::history::Decision) label — appends to internal
//! buffers only, and never touches the RNG, the event queue, or the
//! wire. Runs with the recorder off are byte-identical to runs that
//! never linked it; same-seed runs with it on produce byte-identical
//! dumps.

use std::collections::VecDeque;
use std::rc::Rc;

use crate::engine::NodeId;
use crate::history::HistoryEvent;
use crate::time::{SimDuration, SimTime};

/// History-event label that trips the recorder immediately: a circuit
/// breaker transitioning closed → open.
pub const TRIGGER_BREAKER_OPEN: &str = "breaker.open";
/// Label counted toward the shed-burst trigger window.
pub const TRIGGER_SHED: &str = "daemon.shed";
/// Label counted toward the deadline-expiry-spike trigger window.
pub const TRIGGER_EXPIRED: &str = "daemon.expired";

/// Events retained per node (the ring bound).
const CAPACITY: usize = 64;
/// `daemon.shed` events within `WINDOW` on one node that count as a shed
/// burst.
const SHED_BURST_THRESHOLD: usize = 16;
/// Sliding window for the burst/spike counters.
const WINDOW: SimDuration = SimDuration::from_secs(1);
/// Minimum spacing between dumps from the same node; triggers inside the
/// cooldown are suppressed (the first dump already has the context).
const COOLDOWN: SimDuration = SimDuration::from_secs(5);

/// One triggered snapshot: the recording node's ring at the instant the
/// trigger fired.
#[derive(Clone, Debug)]
pub struct FlightDump {
    /// Dense dump sequence (order the triggers fired in).
    pub seq: u64,
    /// When the trigger fired (local clock of the recording node).
    pub at: SimTime,
    /// The node whose ring was snapshotted.
    pub node: NodeId,
    /// What fired: `"breaker.open"`, `"shed.burst"` or `"expiry.spike"`.
    pub trigger: &'static str,
    /// The ring contents, oldest first.
    pub events: Vec<Rc<HistoryEvent>>,
}

impl FlightDump {
    /// Deterministic multi-line rendering (byte-identical across
    /// same-seed runs).
    pub fn render(&self) -> String {
        let head = format!(
            "=== flight dump #{} trigger={} node=n{} at={} events={}\n",
            self.seq,
            self.trigger,
            self.node.0,
            self.at.as_micros(),
            self.events.len()
        );
        self.events.iter().fold(head, |out, e| out + &e.render() + "\n")
    }
}

/// Per-node ring state plus trigger bookkeeping.
#[derive(Debug, Default)]
struct NodeRing {
    ring: VecDeque<Rc<HistoryEvent>>,
    shed_marks: VecDeque<SimTime>,
    expiry_marks: VecDeque<SimTime>,
    last_dump: Option<SimTime>,
}

/// The recorder: bounded per-node rings plus the dumps collected so far.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    /// `daemon.expired` events within `WINDOW` on one node that count as
    /// an expiry spike; `None` while disabled.
    expiry_spike_threshold: Option<usize>,
    rings: Vec<NodeRing>,
    dumps: Vec<FlightDump>,
}

impl FlightRecorder {
    /// A disabled (free) recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Turn recording on: `expiry_spike_threshold` deadline expiries
    /// within one second on one node count as a spike.
    pub fn enable(&mut self, expiry_spike_threshold: usize) {
        self.expiry_spike_threshold = Some(expiry_spike_threshold);
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.expiry_spike_threshold.is_some()
    }

    fn node_mut(&mut self, node: NodeId) -> &mut NodeRing {
        let idx = node.index();
        if self.rings.len() <= idx {
            self.rings.resize_with(idx + 1, NodeRing::default);
        }
        &mut self.rings[idx]
    }

    /// Observe one decision point: keep `event` in its node's ring (a
    /// reference-count bump, not a copy). Returns the number of dumps the
    /// event triggered (0 or 1). No-op while disabled.
    pub fn observe(&mut self, event: &Rc<HistoryEvent>) -> u32 {
        let Some(expiry_threshold) = self.expiry_spike_threshold else { return 0 };
        let (at, node, label) = (event.at, event.node, event.decision.label());
        let state = self.node_mut(node);
        if state.ring.len() == CAPACITY {
            state.ring.pop_front();
        }
        state.ring.push_back(Rc::clone(event));
        let floor = at.checked_sub(WINDOW).unwrap_or(SimTime::ZERO);
        // Mark `at` in a sliding window; a full window fires (and empties).
        let burst = |marks: &mut VecDeque<SimTime>, threshold: usize| {
            marks.push_back(at);
            while marks.front().is_some_and(|&t| t < floor) {
                marks.pop_front();
            }
            let full = marks.len() >= threshold;
            if full {
                marks.clear();
            }
            full
        };
        let trigger = match label {
            TRIGGER_BREAKER_OPEN => Some("breaker.open"),
            TRIGGER_SHED => {
                burst(&mut state.shed_marks, SHED_BURST_THRESHOLD).then_some("shed.burst")
            }
            TRIGGER_EXPIRED => {
                burst(&mut state.expiry_marks, expiry_threshold).then_some("expiry.spike")
            }
            _ => None,
        };
        match trigger {
            Some(tag) => self.dump(node, at, tag),
            None => 0,
        }
    }

    /// Snapshot `node`'s ring under `trigger` unless the node dumped
    /// within the cooldown.
    fn dump(&mut self, node: NodeId, at: SimTime, trigger: &'static str) -> u32 {
        let seq = self.dumps.len() as u64;
        let state = self.node_mut(node);
        if state.last_dump.is_some_and(|last| at < last + COOLDOWN) {
            return 0;
        }
        state.last_dump = Some(at);
        let events: Vec<Rc<HistoryEvent>> = state.ring.iter().cloned().collect();
        self.dumps.push(FlightDump { seq, at, node, trigger, events });
        1
    }

    /// Every dump collected so far, in trigger order.
    pub fn dumps(&self) -> &[FlightDump] {
        &self.dumps
    }

    /// Deterministic text rendering of one node's ring.
    pub fn ring_rendered(&self, node: NodeId) -> String {
        let ring = self.rings.get(node.index()).map(|state| &state.ring);
        ring.into_iter().flatten().map(|e| e.render() + "\n").collect()
    }

    /// Deterministic text rendering of every dump, in trigger order.
    pub fn dumps_rendered(&self) -> String {
        self.dumps.iter().map(FlightDump::render).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::tests::event;

    /// Observe one event. The recorder never reads `seq` (the engine
    /// stamps it); no script here records two events at one instant,
    /// so the time serves as the sequence.
    fn ev(rec: &mut FlightRecorder, at_us: u64, node: u32, label: &'static str) -> u32 {
        rec.observe(&event(at_us, at_us, node, label))
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let mut rec = FlightRecorder::new();
        assert_eq!(ev(&mut rec, 1, 0, TRIGGER_BREAKER_OPEN), 0);
        assert!(rec.dumps().is_empty());
        assert_eq!(rec.ring_rendered(NodeId(0)).lines().count(), 0);
    }

    #[test]
    fn ring_never_exceeds_capacity() {
        let mut rec = FlightRecorder::new();
        rec.enable(8);
        for i in 0..1000 {
            ev(&mut rec, i, 0, "op.accepted");
            assert!(rec.ring_rendered(NodeId(0)).lines().count() <= CAPACITY);
        }
        // Oldest events were evicted: the ring holds the last 64 only.
        let text = rec.ring_rendered(NodeId(0));
        assert_eq!(text.lines().count(), CAPACITY);
        assert!(text.contains(" 999 "), "ring should hold the newest event:\n{text}");
        assert!(!text.contains(" 935 "), "ring should have evicted the 65th newest:\n{text}");
    }

    #[test]
    fn breaker_open_triggers_immediately() {
        let mut rec = FlightRecorder::new();
        rec.enable(8);
        ev(&mut rec, 10, 1, "op.accepted");
        assert_eq!(ev(&mut rec, 20, 1, TRIGGER_BREAKER_OPEN), 1);
        assert_eq!(rec.dumps().len(), 1);
        let d = &rec.dumps()[0];
        assert_eq!(d.node, NodeId(1));
        assert_eq!(d.trigger, "breaker.open");
        assert_eq!(d.events.len(), 2, "dump carries the prior context too");
    }

    #[test]
    fn shed_burst_requires_threshold_within_window() {
        let mut rec = FlightRecorder::new();
        rec.enable(8);
        // Fifteen sheds within 15 ms: one short of a burst.
        for i in 1..=15 {
            assert_eq!(ev(&mut rec, i * 1_000, 0, TRIGGER_SHED), 0);
        }
        // The sixteenth lands outside the 1 s window of the first fifteen:
        // no burst.
        assert_eq!(ev(&mut rec, 1_100_000, 0, TRIGGER_SHED), 0);
        // Fifteen more inside 1 s of it: the last makes sixteen, a burst.
        for i in 1..15 {
            assert_eq!(ev(&mut rec, 1_100_000 + i * 10_000, 0, TRIGGER_SHED), 0);
        }
        assert_eq!(ev(&mut rec, 1_250_000, 0, TRIGGER_SHED), 1);
        assert_eq!(rec.dumps().len(), 1);
        assert_eq!(rec.dumps()[0].trigger, "shed.burst");
    }

    #[test]
    fn cooldown_suppresses_back_to_back_dumps_per_node() {
        let mut rec = FlightRecorder::new();
        rec.enable(8);
        assert_eq!(ev(&mut rec, 1_000_000, 0, TRIGGER_BREAKER_OPEN), 1);
        assert_eq!(ev(&mut rec, 2_000_000, 0, TRIGGER_BREAKER_OPEN), 0, "inside cooldown");
        assert_eq!(ev(&mut rec, 2_500_000, 1, TRIGGER_BREAKER_OPEN), 1, "another node's cooldown");
        assert_eq!(ev(&mut rec, 5_999_999, 0, TRIGGER_BREAKER_OPEN), 0, "a microsecond short");
        assert_eq!(ev(&mut rec, 6_000_000, 0, TRIGGER_BREAKER_OPEN), 1, "cooldown elapsed");
        assert_eq!(rec.dumps().len(), 3);
        assert_eq!(rec.dumps()[1].node, NodeId(1));
    }

    #[test]
    fn dumps_render_deterministically() {
        fn run() -> String {
            let mut rec = FlightRecorder::new();
            rec.enable(8);
            // A hundred events per node: each ring wraps.
            for i in 0..200 {
                ev(&mut rec, 100 * i, (i % 2) as u32, "op.accepted");
            }
            ev(&mut rec, 20_000, 0, TRIGGER_BREAKER_OPEN);
            rec.dumps_rendered()
        }
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.starts_with("=== flight dump #0 trigger=breaker.open node=n0 at=20000 events=64"));
    }
}
