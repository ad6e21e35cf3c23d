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

/// Flight-recorder tuning: ring size and anomaly trigger thresholds.
#[derive(Clone, Copy, Debug)]
pub struct FlightConfig {
    /// Events retained per node (the ring bound).
    pub capacity: usize,
    /// `daemon.shed` events within `window` on one node that count as a
    /// shed burst.
    pub shed_burst_threshold: usize,
    /// `daemon.expired` events within `window` on one node that count as
    /// an expiry spike.
    pub expiry_spike_threshold: usize,
    /// Sliding window for the burst/spike counters.
    pub window: SimDuration,
    /// Minimum spacing between dumps from the same node; triggers inside
    /// the cooldown are suppressed (the first dump already has the
    /// context).
    pub cooldown: SimDuration,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            capacity: 64,
            shed_burst_threshold: 16,
            expiry_spike_threshold: 8,
            window: SimDuration::from_secs(1),
            cooldown: SimDuration::from_secs(5),
        }
    }
}

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
    enabled: bool,
    config: FlightConfig,
    rings: Vec<NodeRing>,
    dumps: Vec<FlightDump>,
}

impl FlightRecorder {
    /// A disabled (free) recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Turn recording on with the given tuning.
    pub fn enable(&mut self, config: FlightConfig) {
        assert!(config.capacity > 0, "flight ring capacity must be positive");
        self.enabled = true;
        self.config = config;
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The active tuning.
    pub fn config(&self) -> &FlightConfig {
        &self.config
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
        if !self.enabled {
            return 0;
        }
        let (at, node, label) = (event.at, event.node, event.decision.label());
        let capacity = self.config.capacity;
        let window = self.config.window;
        let shed_threshold = self.config.shed_burst_threshold;
        let expiry_threshold = self.config.expiry_spike_threshold;
        let state = self.node_mut(node);
        if state.ring.len() == capacity {
            state.ring.pop_front();
        }
        state.ring.push_back(Rc::clone(event));
        let floor = at.checked_sub(window).unwrap_or(SimTime::ZERO);
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
            TRIGGER_SHED => burst(&mut state.shed_marks, shed_threshold).then_some("shed.burst"),
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
        let cooldown = self.config.cooldown;
        let seq = self.dumps.len() as u64;
        let state = self.node_mut(node);
        if state.last_dump.is_some_and(|last| at < last + cooldown) {
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
        rec.enable(FlightConfig { capacity: 8, ..FlightConfig::default() });
        for i in 0..1000 {
            ev(&mut rec, i, 0, "op.accepted");
            assert!(rec.ring_rendered(NodeId(0)).lines().count() <= 8);
        }
        assert_eq!(rec.ring_rendered(NodeId(0)).lines().count(), 8);
        // Oldest events were evicted: the ring holds the last 8 only.
        let text = rec.ring_rendered(NodeId(0));
        assert_eq!(text.lines().count(), 8);
        assert!(text.contains(" 999 "), "ring should hold the newest event:\n{text}");
    }

    #[test]
    fn breaker_open_triggers_immediately() {
        let mut rec = FlightRecorder::new();
        rec.enable(FlightConfig::default());
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
        rec.enable(FlightConfig {
            shed_burst_threshold: 3,
            window: SimDuration::from_millis(100),
            ..FlightConfig::default()
        });
        assert_eq!(ev(&mut rec, 1_000, 0, TRIGGER_SHED), 0);
        assert_eq!(ev(&mut rec, 2_000, 0, TRIGGER_SHED), 0);
        // Third shed lands outside the window of the first two: no burst.
        assert_eq!(ev(&mut rec, 500_000, 0, TRIGGER_SHED), 0);
        // Two more inside 100 ms of the third: burst.
        assert_eq!(ev(&mut rec, 510_000, 0, TRIGGER_SHED), 0);
        assert_eq!(ev(&mut rec, 520_000, 0, TRIGGER_SHED), 1);
        assert_eq!(rec.dumps().len(), 1);
        assert_eq!(rec.dumps()[0].trigger, "shed.burst");
    }

    #[test]
    fn cooldown_suppresses_back_to_back_dumps_per_node() {
        let mut rec = FlightRecorder::new();
        rec.enable(FlightConfig { cooldown: SimDuration::from_secs(5), ..FlightConfig::default() });
        assert_eq!(ev(&mut rec, 1_000_000, 0, TRIGGER_BREAKER_OPEN), 1);
        assert_eq!(ev(&mut rec, 2_000_000, 0, TRIGGER_BREAKER_OPEN), 0, "inside cooldown");
        assert_eq!(ev(&mut rec, 2_500_000, 1, TRIGGER_BREAKER_OPEN), 1, "another node's cooldown");
        assert_eq!(ev(&mut rec, 8_000_000, 0, TRIGGER_BREAKER_OPEN), 1, "cooldown elapsed");
        assert_eq!(rec.dumps().len(), 3);
        assert_eq!(rec.dumps()[1].node, NodeId(1));
    }

    #[test]
    fn dumps_render_deterministically() {
        fn run() -> String {
            let mut rec = FlightRecorder::new();
            rec.enable(FlightConfig { capacity: 4, ..FlightConfig::default() });
            for i in 0..10 {
                ev(&mut rec, 100 * i, (i % 2) as u32, "op.accepted");
            }
            ev(&mut rec, 2_000, 0, TRIGGER_BREAKER_OPEN);
            rec.dumps_rendered()
        }
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.starts_with("=== flight dump #0 trigger=breaker.open node=n0"));
    }
}
