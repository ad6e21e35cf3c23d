//! Per-thread tally of what dropped engines did, so a harness can report
//! on the simulator itself (events, events/s, heap depth) without reaching
//! into the engines an experiment builds and drops on its worker thread.

use std::cell::Cell;

use crate::actor::Payload;
use crate::engine::Engine;

/// What the engines dropped on this thread did, summed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineTally {
    /// Sum of [`Engine::events_processed`].
    pub events: u64,
    /// Largest [`Engine::queue_peak`].
    pub queue_peak: usize,
}

thread_local! {
    static TALLY: Cell<EngineTally> = const { Cell::new(EngineTally { events: 0, queue_peak: 0 }) };
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
        let _ = TALLY.try_with(|tally| {
            let EngineTally { events, queue_peak } = tally.get();
            tally.set(EngineTally {
                events: events + self.events_processed(),
                queue_peak: queue_peak.max(self.queue_peak()),
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Actor, Ctx, NodeId};

    struct Unit;
    impl Payload for Unit {
        fn size_bytes(&self) -> usize {
            1
        }
    }
    struct Idle;
    impl Actor<Unit> for Idle {
        fn on_message(&mut self, _: &mut Ctx<'_, Unit>, _: NodeId, _: Unit) {}
    }

    #[test]
    fn dropped_engines_add_to_this_threads_tally() {
        EngineTally::take();
        for nodes in [2, 3] {
            let mut eng = Engine::<Unit>::new(1);
            for i in 0..nodes {
                eng.add_node(format!("n{i}"), Idle);
            }
            eng.run_to_quiescence();
        }
        assert_eq!(EngineTally::take(), EngineTally { events: 5, queue_peak: 3 });
        assert_eq!(EngineTally::take(), EngineTally::default());
    }
}
