//! Property-based tests for the simulation substrate: determinism,
//! conservation of messages, FIFO per-link ordering, and histogram sanity.

#![cfg(feature = "proptest")]

use std::rc::Rc;

use proptest::prelude::*;
use simnet::{
    Actor, Ctx, Engine, Histogram, HistoryEvent, LinkSpec, NodeId, Payload, SimDuration, SimTime,
};

#[derive(Clone, Debug)]
struct Packet {
    size: usize,
    seq: u64,
}

impl Payload for Packet {
    fn size_bytes(&self) -> usize {
        self.size
    }
}

#[derive(Default)]
struct Sink {
    got: Vec<(u64, SimTime)>,
}

impl Actor<Packet> for Sink {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Packet>, _from: NodeId, msg: Packet) {
        self.got.push((msg.seq, ctx.now()));
    }
}

/// A star topology: `n` senders fire bursts at one sink through identical
/// links. Returns (delivered seqs in arrival order, final time, events).
fn run_star(
    seed: u64,
    senders: usize,
    msgs_per_sender: usize,
    loss: f64,
    jitter_us: u64,
) -> (Vec<u64>, SimTime, u64) {
    let mut eng = Engine::new(seed);
    let sink = eng.add_node("sink", Sink::default());
    let mut ids = Vec::new();
    for i in 0..senders {
        let id = eng.add_node(format!("s{i}"), Sink::default());
        eng.link(
            id,
            sink,
            LinkSpec::lan().with_loss(loss).with_jitter(SimDuration::from_micros(jitter_us)),
        );
        ids.push(id);
    }
    let mut seq = 0;
    for (i, &id) in ids.iter().enumerate() {
        for k in 0..msgs_per_sender {
            eng.inject(
                id,
                sink,
                Packet { size: 100 + k, seq },
                SimDuration::from_micros((i * 17 + k * 31) as u64),
            );
            seq += 1;
        }
    }
    eng.run_to_quiescence();
    let got = eng.actor_ref::<Sink>(sink).unwrap().got.iter().map(|g| g.0).collect();
    (got, eng.now(), eng.events_processed())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Identical seeds yield identical arrival orders, clocks and event counts.
    #[test]
    fn determinism(seed in 0u64..1000, senders in 1usize..6, msgs in 1usize..20) {
        let a = run_star(seed, senders, msgs, 0.1, 300);
        let b = run_star(seed, senders, msgs, 0.1, 300);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
    }

    /// With no loss, every injected message is delivered exactly once.
    #[test]
    fn conservation_without_loss(seed in 0u64..1000, senders in 1usize..6, msgs in 1usize..20) {
        let (got, _, _) = run_star(seed, senders, msgs, 0.0, 500);
        let mut sorted = got.clone();
        sorted.sort_unstable();
        let expect: Vec<u64> = (0..(senders * msgs) as u64).collect();
        prop_assert_eq!(sorted, expect);
    }

    /// Per-sender sequence order is preserved end-to-end when jitter is zero
    /// (links are FIFO; the sink processes in arrival order).
    #[test]
    fn fifo_per_sender(seed in 0u64..1000, senders in 1usize..5, msgs in 2usize..20) {
        let (got, _, _) = run_star(seed, senders, msgs, 0.0, 0);
        // seq numbers are assigned sender-major, so messages of sender i are
        // the contiguous range [i*msgs, (i+1)*msgs). Check relative order.
        for i in 0..senders as u64 {
            let lo = i * msgs as u64;
            let hi = lo + msgs as u64;
            let mine: Vec<u64> = got.iter().copied().filter(|s| *s >= lo && *s < hi).collect();
            let mut sorted = mine.clone();
            sorted.sort_unstable();
            prop_assert_eq!(mine, sorted);
        }
    }

    /// Histogram quantiles are monotone in q and bracketed by min/max.
    #[test]
    fn histogram_quantile_monotone(samples in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(SimDuration::from_micros(s));
        }
        let mut last = SimDuration::ZERO;
        for i in 0..=10 {
            let q = h.quantile(i as f64 / 10.0);
            prop_assert!(q >= last);
            last = q;
        }
        prop_assert_eq!(h.quantile(0.0), h.min());
        prop_assert_eq!(h.quantile(1.0), h.max());
        prop_assert!(h.mean() >= h.min() && h.mean() <= h.max());
    }
}

/// The decision these tests record: a bare label.
#[derive(Debug)]
struct Mark(&'static str);

impl std::fmt::Display for Mark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("subject=app actor=user k=v")
    }
}

impl simnet::history::Decision for Mark {
    fn label(&self) -> &'static str {
        self.0
    }
}

/// Label alphabet for the flight-recorder properties: two trigger labels
/// plus neutral decision points, mirroring a server under a shed storm.
fn flight_label(pick: u8) -> &'static str {
    match pick % 4 {
        0 => "daemon.shed",
        1 => "daemon.expired",
        2 => "op.accepted",
        _ => "lock.granted",
    }
}

/// The recorder's ring bound: events it keeps per node.
const RING: usize = 64;

/// Gaps between events at the recorder's scale: mostly dense, so a node
/// can pack a spike into the 1 s window, and now and then long enough to
/// span the window or the 5 s cooldown.
fn flight_gap() -> impl Strategy<Value = u64> {
    prop_oneof![31 => 0u64..2_000, 1 => 1_000_000u64..7_000_000]
}

/// Feed a randomized event stream into a recorder (an expiry spike at
/// `threshold` expiries) and render the result.
fn run_recorder(events: &[(u64, u8, u8)], threshold: usize) -> (simnet::FlightRecorder, String) {
    let mut rec = simnet::FlightRecorder::new();
    rec.enable(threshold);
    let mut at = 0u64;
    for (seq, &(gap, node, pick)) in (0u64..).zip(events) {
        at += gap;
        let (at, node) = (SimTime::from_micros(at), NodeId(u32::from(node % 3)));
        let decision = Mark(flight_label(pick));
        let event: Rc<HistoryEvent> = Rc::new(HistoryEvent { seq, at, node, decision });
        rec.observe(&event);
    }
    let text = rec.dumps_rendered();
    (rec, text)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The recorder is a pure function of its input stream: replaying
    /// the same events yields byte-identical dump renderings.
    #[test]
    fn flight_dumps_are_a_pure_function_of_the_event_stream(
        events in prop::collection::vec((flight_gap(), 0u8..3, any::<u8>()), 1..800),
        threshold in 2usize..12,
    ) {
        let (_, a) = run_recorder(&events, threshold);
        let (_, b) = run_recorder(&events, threshold);
        prop_assert_eq!(a, b);
    }

    /// Under an arbitrary storm (E14-style: dense shed/expiry labels at
    /// high rate, enough to wrap each ring; expiries spike at 16, like
    /// sheds burst) every per-node ring stays within the bound and every
    /// dump snapshot is bounded by it too.
    #[test]
    fn flight_rings_stay_bounded_under_storms(
        events in prop::collection::vec((0u64..500, 0u8..3, 0u8..2), 100..600),
    ) {
        let (rec, _) = run_recorder(&events, 16);
        for node in 0..3 {
            prop_assert!(rec.ring_rendered(NodeId(node)).lines().count() <= RING);
        }
        for d in rec.dumps() {
            prop_assert!(d.events.len() <= RING);
            // Ring contents are in observation order.
            for w in d.events.windows(2) {
                prop_assert!(w[0].seq < w[1].seq);
            }
        }
    }

    /// Observer effect: a run with the recorder armed processes the
    /// exact same schedule as a disarmed run — same arrivals, same
    /// clock, same event count — even when its actors record trigger
    /// labels on every delivery.
    #[test]
    fn armed_recorder_never_perturbs_the_schedule(
        seed in 0u64..500, senders in 1usize..5, msgs in 1usize..15,
    ) {
        fn run_recording(seed: u64, senders: usize, msgs: usize, armed: bool)
            -> (Vec<u64>, SimTime, u64, usize)
        {
            struct Shedder { got: Vec<(u64, SimTime)> }
            impl Actor<Packet> for Shedder {
                fn on_message(&mut self, ctx: &mut Ctx<'_, Packet>, _from: NodeId, msg: Packet) {
                    self.got.push((msg.seq, ctx.now()));
                    ctx.record(|| Mark("daemon.shed"));
                }
            }
            let mut eng = Engine::new(seed);
            if armed {
                eng.enable_flight_recorder(8);
            }
            let sink = eng.add_node("sink", Shedder { got: Vec::new() });
            let mut seq = 0;
            for i in 0..senders {
                let id = eng.add_node(format!("s{i}"), Sink::default());
                eng.link(id, sink, LinkSpec::lan().with_jitter(SimDuration::from_micros(200)));
                for k in 0..msgs {
                    eng.inject(
                        id,
                        sink,
                        Packet { size: 100 + k, seq },
                        SimDuration::from_micros((i * 17 + k * 31) as u64),
                    );
                    seq += 1;
                }
            }
            eng.run_to_quiescence();
            let got = eng.actor_ref::<Shedder>(sink).unwrap().got.iter().map(|g| g.0).collect();
            (got, eng.now(), eng.events_processed(), eng.flight_dumps().len())
        }
        let armed = run_recording(seed, senders, msgs, true);
        let bare = run_recording(seed, senders, msgs, false);
        prop_assert_eq!(&armed.0, &bare.0);
        prop_assert_eq!(armed.1, bare.1);
        prop_assert_eq!(armed.2, bare.2);
        // The armed run actually recorded (every message lands within a
        // millisecond, so 16 of them make a shed burst), the bare run
        // never does.
        prop_assert_eq!(bare.3, 0);
        if senders * msgs >= 16 {
            prop_assert!(armed.3 >= 1, "a shed storm must trip the armed recorder");
        }
    }
}
