//! Per-thread tally of what dropped engines did, so a harness can report
//! on the simulator itself (events, events/s, heap depth) without reaching
//! into the engines an experiment builds and drops on its worker thread.

use std::cell::Cell;

use crate::actor::Payload;
use crate::engine::{Engine, NodeId};

/// What the engines dropped on this thread did, summed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineTally {
    /// Sum of [`Engine::events_processed`].
    pub events: u64,
    /// Largest [`Engine::queue_peak`].
    pub queue_peak: usize,
    /// Largest [`Engine::parked_peak`] of any node.
    pub backlog_peak: usize,
}

thread_local! {
    static TALLY: Cell<EngineTally> =
        const { Cell::new(EngineTally { events: 0, queue_peak: 0, backlog_peak: 0 }) };
}

impl EngineTally {
    /// Return this thread's tally and reset it.
    pub fn take() -> EngineTally {
        TALLY.take()
    }
}

impl<M: Payload> Drop for Engine<M> {
    fn drop(&mut self) {
        // `try_with`: an engine dropped during thread teardown goes untallied.
        let backlog = (0..self.node_count()).map(|i| self.parked_peak(NodeId(i as u32))).max();
        let _ = TALLY.try_with(|tally| {
            let EngineTally { events, queue_peak, backlog_peak } = tally.get();
            tally.set(EngineTally {
                events: events + self.events_processed(),
                queue_peak: queue_peak.max(self.queue_peak()),
                backlog_peak: backlog_peak.max(backlog.unwrap_or(0)),
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Actor, Ctx, SimDuration};

    struct Unit;
    impl Payload for Unit {
        fn size_bytes(&self) -> usize {
            1
        }
    }
    /// Spends 1 µs on each message.
    struct Busy;
    impl Actor<Unit> for Busy {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Unit>, _: NodeId, _: Unit) {
            ctx.consume(SimDuration::from_micros(1));
        }
    }

    #[test]
    fn dropped_engines_add_to_this_threads_tally() {
        EngineTally::take();
        for nodes in [2, 3] {
            let mut eng = Engine::<Unit>::new(1);
            for i in 0..nodes {
                eng.add_node(format!("n{i}"), Busy);
            }
            // The first engine's n1 gets one message, the second's two at
            // once: one of those waits.
            for _ in 0..nodes - 1 {
                eng.inject(NodeId(1), NodeId(1), Unit, SimDuration::ZERO);
            }
            eng.run_to_quiescence();
        }
        let tally = EngineTally { events: 5 + 3, queue_peak: 3 + 2, backlog_peak: 1 };
        assert_eq!(EngineTally::take(), tally);
        assert_eq!(EngineTally::take(), EngineTally::default());
    }
}
