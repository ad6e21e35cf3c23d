//! Semantic history recording for correctness checking.
//!
//! The tracer (`trace`) answers "where did the time go"; this module
//! answers "what did the system decide". Actors record *decision points*
//! — lock grants, ACL denials, buffer dispatches — as flat, ordered
//! [`HistoryEvent`]s. The `check` crate replays these against oracles
//! (linearizability, ACL, FIFO-within-class, archive-replay equivalence).
//!
//! Recording is opt-in (see `Engine::enable_history`) and side-effect
//! free: events are appended to a vector and never touch the RNG, the
//! event queue, or the wire, so an instrumented run has a byte-identical
//! schedule to an uninstrumented one. Event order is the engine's
//! execution order, which per seed is deterministic — rendering the log
//! of two same-seed runs yields byte-identical text.

use std::rc::Rc;

use crate::engine::NodeId;
use crate::time::SimTime;

/// One recorded decision point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistoryEvent {
    /// Global record sequence (execution order, dense from 0).
    pub seq: u64,
    /// Local clock of the recording node at the decision.
    pub at: SimTime,
    /// The recording node.
    pub node: NodeId,
    /// Event class, dot-namespaced (`"lock.granted"`, `"acl.denied"`, …).
    pub label: &'static str,
    /// What the event is about (application id, usually).
    pub subject: String,
    /// Who caused it (user id, usually; empty when not applicable).
    pub actor: String,
    /// Free-form structured detail (`key=value` pairs, space-separated).
    pub detail: String,
}

impl HistoryEvent {
    /// Deterministic one-line rendering (the unit of run-log
    /// byte-identity comparisons).
    pub fn render(&self) -> String {
        format!(
            "{:>6} {:>12} n{} {} subject={} actor={} {}",
            self.seq,
            self.at.as_micros(),
            self.node.0,
            self.label,
            self.subject,
            self.actor,
            self.detail
        )
    }
}

/// Append-only event log owned by the engine core. It holds each event
/// through the same `Rc` the flight recorder's ring does.
#[derive(Debug, Default)]
pub struct HistoryLog {
    enabled: bool,
    events: Vec<Rc<HistoryEvent>>,
}

impl HistoryLog {
    /// A disabled (free) log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Turn recording on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Append an event (no-op while disabled). The caller stamps its
    /// `seq`.
    pub fn record(&mut self, event: Rc<HistoryEvent>) {
        if self.enabled {
            self.events.push(event);
        }
    }

    /// Everything recorded so far, in execution order.
    pub fn events(&self) -> &[Rc<HistoryEvent>] {
        &self.events
    }

    /// Render the whole log as newline-terminated text (byte-identical
    /// across same-seed runs).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(
        seq: u64,
        at_ms: u64,
        label: &'static str,
        actor: &str,
        detail: &str,
    ) -> Rc<HistoryEvent> {
        Rc::new(HistoryEvent {
            seq,
            at: SimTime::from_millis(at_ms),
            node: NodeId(2),
            label,
            subject: "app".into(),
            actor: actor.into(),
            detail: detail.into(),
        })
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = HistoryLog::new();
        log.record(event(0, 0, "x", "", ""));
        assert!(log.events().is_empty());
        assert_eq!(log.render(), "");
    }

    #[test]
    fn enabled_log_is_ordered_and_renders_deterministically() {
        let mut log = HistoryLog::new();
        log.enable();
        log.record(event(0, 5, "lock.granted", "alice", "origin=local"));
        log.record(event(1, 7, "lock.denied", "bob", "holder=alice"));
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.events()[0].seq, 0);
        assert_eq!(log.events()[1].seq, 1);
        let a = log.render();
        let b = log.render();
        assert_eq!(a, b);
        assert!(a.contains("lock.granted"));
        assert!(a.lines().count() == 2);
    }
}
