//! Semantic history recording for correctness checking.
//!
//! The tracer (`trace`) answers "where did the time go"; this module
//! answers "what did the system decide". Actors record *decision points*
//! — lock grants, ACL denials, buffer dispatches — as flat, ordered
//! [`HistoryEvent`]s. The engine stamps each with its sequence, clock and
//! node and holds the decision itself type-erased behind [`Decision`]:
//! simnet knows its label (the flight recorder's triggers key on it) and
//! its rendering, nothing more. The decision type is the domain's (the
//! `wire` crate's `Event`); readers such as the `check` crate's oracles
//! get it back with [`HistoryEvent::downcast`] and match its variants
//! (linearizability, ACL, FIFO-within-class, archive-replay equivalence).
//!
//! Recording is opt-in (see `Engine::enable_history`; the engine keeps
//! the log) and side-effect free: events are appended to a vector and
//! never touch the RNG, the event queue, or the wire, so an instrumented
//! run has a byte-identical schedule to an uninstrumented one. Event
//! order is the engine's execution order, which per seed is
//! deterministic — rendering the log of two same-seed runs yields
//! byte-identical text.

use std::any::Any;
use std::fmt;

use crate::engine::NodeId;
use crate::time::SimTime;

/// What an actor decided, as the engine sees it: a label and a
/// rendering. `Display` writes the line after the label
/// (`subject=… actor=… detail`).
pub trait Decision: fmt::Display + fmt::Debug + Any {
    /// Event class, dot-namespaced (`"lock.granted"`, `"acl.denied"`, …).
    fn label(&self) -> &'static str;
}

/// One recorded decision point. The engine builds it sized and holds it
/// as `Rc<HistoryEvent>` (the decision behind `dyn Decision`), one
/// allocation shared by the history log and the flight ring.
#[derive(Debug)]
pub struct HistoryEvent<D: ?Sized = dyn Decision> {
    /// Global record sequence (execution order, dense from 0).
    pub seq: u64,
    /// Local clock of the recording node at the decision.
    pub at: SimTime,
    /// The recording node.
    pub node: NodeId,
    /// What was decided.
    pub decision: D,
}

impl HistoryEvent {
    /// The decision as its concrete type, if it is a `D`.
    pub fn downcast<D: Decision>(&self) -> Option<&D> {
        (&self.decision as &dyn Any).downcast_ref()
    }

    /// Deterministic one-line rendering (the unit of run-log
    /// byte-identity comparisons).
    pub fn render(&self) -> String {
        format!(
            "{:>6} {:>12} n{} {} {}",
            self.seq,
            self.at.as_micros(),
            self.node.0,
            self.decision.label(),
            &self.decision
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::rc::Rc;

    use super::*;

    /// The decision simnet's own tests record: a bare label.
    #[derive(Debug, PartialEq)]
    pub(crate) struct Mark(pub &'static str);

    impl fmt::Display for Mark {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("subject=app actor=user k=v")
        }
    }

    impl Decision for Mark {
        fn label(&self) -> &'static str {
            self.0
        }
    }

    /// `label` recorded by `node` at `at_us`, as the engine would hold it.
    pub(crate) fn event(seq: u64, at_us: u64, node: u32, label: &'static str) -> Rc<HistoryEvent> {
        Rc::new(HistoryEvent {
            seq,
            at: SimTime::from_micros(at_us),
            node: NodeId(node),
            decision: Mark(label),
        })
    }

    #[test]
    fn an_event_renders_its_stamp_label_and_line_and_downcasts() {
        let e = event(1, 7_000, 2, "lock.denied");
        assert_eq!(e.render(), "     1         7000 n2 lock.denied subject=app actor=user k=v");
        assert_eq!(e.downcast::<Mark>(), Some(&Mark("lock.denied")));
    }
}
