//! Test-only reference model of the run loop, and the differential tests
//! that hold [`Engine::run_until`] to it.
//!
//! [`Engine::run_until_reference`] is the loop the engine used before
//! deferred events were parked per node: every event that finds its node
//! busy is pushed back onto the global heap at `busy_until` under a fresh
//! seq, once per resurfacing — as a key of the same type, its payload
//! back in the same slab. It shares the engine's link model, `Ctx` and
//! `dispatch`, and never parks, so driving two same-seed engines through
//! the same scenario — one per loop — isolates the scheduling decision:
//! per-node dispatch traces, the clock, every counter and the RNG stream
//! must agree exactly. (Its `events_processed` counts every resurfacing
//! and is the one figure not compared.)

use super::*;

impl<M: Payload> Engine<M> {
    /// `run_until` with busy-node deferral by re-push through the heap.
    pub(super) fn run_until_reference(&mut self, limit: SimTime) -> u64 {
        let mut processed = 0u64;
        while let Some(Reverse(head)) = self.core.queue.peek() {
            if head.time > limit {
                break;
            }
            let Reverse(ev) = self.core.queue.pop().expect("peeked");
            if ev.time > self.core.now {
                self.core.now = ev.time;
            }
            self.core.events_processed += 1;
            processed += 1;
            assert!(
                self.core.events_processed <= self.core.event_limit,
                "event limit exceeded at {:?}: possible live-lock",
                self.core.now
            );
            let Entry::Slot(slot) = ev.entry else {
                unreachable!("the reference loop never parks");
            };
            match self.core.take(slot) {
                EventKind::Start { node } => self.dispatch(node, ev.time, |actor, ctx| {
                    actor.on_start(ctx);
                }),
                EventKind::Deliver { from, to, msg, epoch } => {
                    let state = &self.core.nodes[to.index()];
                    if !state.up || state.epoch != epoch {
                        self.core.metrics(to).incr(names::ENGINE_DOWN_DROPS);
                        continue;
                    }
                    let busy = state.busy_until;
                    if busy > ev.time {
                        self.core.push(busy, EventKind::Deliver { from, to, msg, epoch });
                    } else {
                        self.dispatch(to, ev.time, |actor, ctx| {
                            actor.on_message(ctx, from, msg);
                        });
                    }
                }
                EventKind::Timer { node, tag, epoch } => {
                    let state = &self.core.nodes[node.index()];
                    if !state.up || state.epoch != epoch {
                        continue;
                    }
                    let busy = state.busy_until;
                    if busy > ev.time {
                        self.core.push(busy, EventKind::Timer { node, tag, epoch });
                    } else {
                        self.dispatch(node, ev.time, |actor, ctx| {
                            actor.on_timer(ctx, tag);
                        });
                    }
                }
                EventKind::Crash { node } => {
                    let state = &mut self.core.nodes[node.index()];
                    if state.up {
                        state.up = false;
                        state.epoch += 1;
                        state.busy_until = ev.time;
                        self.core.metrics(node).incr(names::ENGINE_CRASHES);
                    }
                }
                EventKind::Restart { node } => {
                    let state = &mut self.core.nodes[node.index()];
                    if !state.up {
                        state.up = true;
                        state.busy_until = ev.time;
                        self.dispatch(node, ev.time, |actor, ctx| {
                            actor.on_restart(ctx);
                        });
                    }
                }
            }
        }
        if limit > self.core.now && limit != SimTime::MAX {
            self.core.now = limit;
        }
        processed
    }

    /// At quiescence no payload has outlived its key.
    pub(super) fn assert_every_slot_free(&self) {
        assert!(self.core.queue.is_empty());
        assert_eq!(self.core.free.len(), self.core.slab.len());
        assert!(self.core.slab.iter().all(Option::is_none));
    }
}

/// A message identified by a number; its size varies so bandwidth-limited
/// links space arrivals unevenly.
#[derive(Clone, Debug, PartialEq)]
pub(super) struct Note(pub u32);

impl Payload for Note {
    fn size_bytes(&self) -> usize {
        40 + (self.0 as usize * 37) % 400
    }
}

/// What a handler saw: `(local clock, kind, sender, payload or tag)`.
pub(super) type Seen = (SimTime, &'static str, u32, u64);

/// One thing a [`Scripted`] handler does after recording what it saw.
#[derive(Clone, Debug)]
pub(super) enum Act {
    Consume(u64),
    Send {
        to: u32,
        delay: u64,
    },
    /// Arm a timer this many µs ahead.
    Schedule(u64),
    /// Draw from the engine RNG, so a reordered handler shifts the stream.
    Draw,
}

/// Plays one list of acts per handler invocation, in order, then goes
/// quiet; the script is the same whichever loop drives the engine.
pub(super) struct Scripted {
    pub script: VecDeque<Vec<Act>>,
    pub seen: Vec<Seen>,
    next_note: u32,
    /// Invocations dispatched from the heap's head, by how many keys
    /// they queued: none, one, two or more. The parked loop's only.
    pub from_head: [u64; 3],
}

impl Scripted {
    pub fn new(script: Vec<Vec<Act>>) -> Self {
        Scripted { script: script.into(), seen: Vec::new(), next_note: 0, from_head: [0; 3] }
    }

    fn play(&mut self, ctx: &mut Ctx<'_, Note>, kind: &'static str, from: u32, what: u64) {
        self.seen.push((ctx.now(), kind, from, what));
        let (taken, len) = (ctx.core.head_taken, ctx.core.queue.len());
        self.act(ctx);
        if taken {
            // The first key queued took the dispatched key's place.
            let queued = ctx.core.queue.len() - len + usize::from(!ctx.core.head_taken);
            self.from_head[queued.min(2)] += 1;
        }
    }

    fn act(&mut self, ctx: &mut Ctx<'_, Note>) {
        for act in self.script.pop_front().unwrap_or_default() {
            match act {
                Act::Consume(us) => ctx.consume(SimDuration::from_micros(us)),
                Act::Send { to, delay } => {
                    let note = Note(ctx.me().0 * 10_000 + self.next_note);
                    self.next_note += 1;
                    ctx.send_after(NodeId(to), note, SimDuration::from_micros(delay));
                }
                Act::Schedule(delay) => {
                    let tag = u64::from(self.next_note);
                    self.next_note += 1;
                    ctx.schedule(SimDuration::from_micros(delay), tag);
                }
                Act::Draw => {
                    let drawn: u64 = ctx.rng().gen();
                    self.seen.push((ctx.now(), "draw", ctx.me().0, drawn));
                }
            }
        }
    }
}

impl Actor<Note> for Scripted {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Note>) {
        self.play(ctx, "start", ctx.me().0, 0);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, Note>, from: NodeId, msg: Note) {
        self.play(ctx, "message", from.0, u64::from(msg.0));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Note>, tag: u64) {
        self.play(ctx, "timer", ctx.me().0, tag);
    }
    fn on_restart(&mut self, ctx: &mut Ctx<'_, Note>) {
        self.play(ctx, "restart", ctx.me().0, 0);
    }
}

/// Everything needed to build the same engine twice.
#[derive(Clone, Debug)]
pub(super) struct Scenario {
    pub seed: u64,
    /// One script per node.
    pub scripts: Vec<Vec<Vec<Act>>>,
    /// Link spec of every unordered node pair, in `(a, b)` with `a < b` order.
    pub links: Vec<LinkSpec>,
    /// `(from, to, note, delay µs)` injected before the first run.
    pub injects: Vec<(u32, u32, u32, u64)>,
    /// `(node, crash µs, restart µs)`.
    pub crashes: Vec<(u32, u64, u64)>,
    /// `run_until` horizons in µs, ascending; a run to quiescence follows.
    pub horizons: Vec<u64>,
}

/// Everything observable about a finished run.
#[derive(Debug, PartialEq)]
pub(super) struct Outcome {
    /// Per node, what its handlers saw, in order.
    pub seen: Vec<Vec<Seen>>,
    /// Clock and full counter dump after each horizon and at quiescence.
    pub checkpoints: Vec<(SimTime, Vec<(String, u64)>)>,
    pub busy: Vec<SimDuration>,
    pub next_draw: u64,
}

impl Scenario {
    pub fn build(&self) -> Engine<Note> {
        let mut eng = Engine::new(self.seed);
        let nodes: Vec<NodeId> = self
            .scripts
            .iter()
            .enumerate()
            .map(|(i, script)| eng.add_node(format!("n{i}"), Scripted::new(script.clone())))
            .collect();
        let mut links = self.links.iter();
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                eng.link(a, b, *links.next().expect("one spec per pair"));
            }
        }
        for &(from, to, note, delay) in &self.injects {
            eng.inject(NodeId(from), NodeId(to), Note(note), SimDuration::from_micros(delay));
        }
        for &(node, crash, restart) in &self.crashes {
            eng.crash_at(NodeId(node), SimTime::from_micros(crash));
            eng.restart_at(NodeId(node), SimTime::from_micros(restart));
        }
        // The re-push loop's count grows with the square of a backlog.
        let injects = self.injects.len() as u64;
        eng.core.event_limit = 5_000_000 + injects * injects;
        eng
    }

    /// Drive a fresh engine through the scenario with `run` as its loop.
    pub fn play(
        &self,
        mut run: impl FnMut(&mut Engine<Note>, SimTime) -> u64,
    ) -> (Outcome, Engine<Note>) {
        let mut eng = self.build();
        let mut checkpoints = Vec::new();
        let limits = self.horizons.iter().map(|&us| SimTime::from_micros(us));
        for limit in limits.chain([SimTime::MAX]) {
            run(&mut eng, limit);
            let counters = eng.stats().counters().map(|(k, v)| (k.to_owned(), v)).collect();
            checkpoints.push((eng.now(), counters));
        }
        let ids = (0..eng.node_count() as u32).map(NodeId);
        let outcome = Outcome {
            seen: ids
                .clone()
                .map(|id| eng.actor_ref::<Scripted>(id).expect("scripted").seen.clone())
                .collect(),
            checkpoints,
            busy: ids.map(|id| eng.node_busy(id)).collect(),
            next_draw: eng.core.rng.gen(),
        };
        (outcome, eng)
    }

    /// Play the scenario under both loops, require exact agreement, and
    /// return the parked engine with what it observed.
    pub fn agree(&self) -> (Outcome, Engine<Note>) {
        let (reference, repushed) = self.play(Engine::run_until_reference);
        let (outcome, parked) = self.play(Engine::run_until);
        assert_eq!(outcome, reference, "parked loop diverged from the re-push loop");
        assert!(parked.events_processed() <= repushed.events_processed());
        let drained = parked.core.nodes.iter().all(|n| n.parked.slots.is_empty());
        assert!(drained, "backlog left at quiescence");
        parked.assert_every_slot_free();
        repushed.assert_every_slot_free();
        (outcome, parked)
    }
}

#[cfg(feature = "proptest")]
mod generated {
    use super::*;
    use proptest::prelude::*;

    /// Small integer microseconds everywhere, so arrivals, zero-delay
    /// timers and several nodes' free-up instants keep coinciding.
    fn small(rng: &mut StdRng) -> u64 {
        match rng.gen_range(0..10) {
            0..=3 => 0,
            4..=7 => rng.gen_range(1..6),
            8 => rng.gen_range(6..40),
            _ => rng.gen_range(100..400),
        }
    }

    fn scenario(seed: u64) -> Scenario {
        let rng = &mut StdRng::seed_from_u64(seed ^ 0x5eed_5ca1e);
        let nodes = rng.gen_range(2..=6u32);
        let scripts = (0..nodes)
            .map(|_| {
                let handlers = rng.gen_range(5..40);
                (0..handlers)
                    .map(|_| {
                        (0..rng.gen_range(0..5))
                            .map(|_| match rng.gen_range(0..10) {
                                0..=2 => Act::Consume(small(rng)),
                                3..=5 => {
                                    Act::Send { to: rng.gen_range(0..nodes), delay: small(rng) }
                                }
                                6..=7 => {
                                    let delay = small(rng);
                                    // This draw once chose whether a cancel
                                    // could find the timer; it stays, so each
                                    // seed builds the scenario it always did.
                                    let _: bool = rng.gen();
                                    Act::Schedule(delay)
                                }
                                // 8 was a cancel.
                                _ => Act::Draw,
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let pairs = nodes * (nodes - 1) / 2;
        let links = (0..pairs)
            .map(|_| {
                let exact = LinkSpec::loopback().with_latency(SimDuration::from_micros(small(rng)));
                match rng.gen_range(0..4) {
                    0 => exact,
                    1 => exact.with_jitter(SimDuration::from_micros(rng.gen_range(1..8))),
                    2 => LinkSpec { bandwidth_bps: Some(50_000_000), ..exact.with_loss(0.2) },
                    _ => LinkSpec { bandwidth_bps: Some(20_000_000), ..exact },
                }
            })
            .collect();
        let mut injects: Vec<_> = (0..rng.gen_range(4..40))
            .map(|i| (rng.gen_range(0..nodes), rng.gen_range(0..nodes), 900_000 + i, small(rng)))
            .collect();
        // A crash whose restart comes within a few microseconds lands
        // before the instant a long handler's backlog was parked for.
        let crashes = (0..rng.gen_range(0..3))
            .map(|_| {
                let crash = rng.gen_range(0..600u64);
                (rng.gen_range(0..nodes), crash, crash + rng.gen_range(1..30u64))
            })
            .collect();
        let mut horizons: Vec<u64> =
            (0..rng.gen_range(0..5)).map(|_| rng.gen_range(0..800)).collect();
        horizons.sort_unstable();
        // One scenario in four ends on a burst at a single node, deep
        // enough that a pass re-stamps dozens of keys at once. Drawn last,
        // so everything above is what each seed always built.
        if rng.gen_range(0..4) == 0 {
            let (from, to) = (rng.gen_range(0..nodes), rng.gen_range(0..nodes));
            let at = small(rng);
            injects.extend((0..rng.gen_range(32..64)).map(|i| (from, to, 800_000 + i, at)));
        }
        Scenario { seed, scripts, links, injects, crashes, horizons }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The parked loop and the re-push loop agree on every generated
        /// scenario: dispatch traces, clocks, counters, RNG stream.
        #[test]
        fn parked_loop_matches_repush_loop(seed in 0u64..u64::MAX) {
            scenario(seed).agree();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8_192))]

        /// `parked_loop_matches_repush_loop` over sixteen times the cases,
        /// from another stream of seeds: a few seconds in a release build,
        /// so it runs only when asked for (`cargo test --release -p simnet
        /// -- --ignored`).
        #[test]
        #[ignore = "8 192 cases: run with --ignored in a release build"]
        fn parked_loop_matches_repush_loop_deep(seed in 0u64..u64::MAX) {
            scenario(seed).agree();
        }
    }

    /// True if the re-stamp pass about to read `state` takes some runs
    /// and then stops at `horizon` before one the node is busy past too:
    /// the backlog is split where a foreign key is wedged into it.
    fn splits_at_horizon(state: &NodeState, horizon: (SimTime, u64)) -> bool {
        let busy = state.busy_until;
        let runs = &state.parked.runs;
        let taken = runs.iter().take_while(|run| run.time < busy && run.key() < horizon).count();
        taken > 0 && runs.get(taken).is_some_and(|run| run.time < busy)
    }

    /// True if the step about to take `slot` is a crash, dispatched from
    /// the heap's head, of a node with a backlog: the backlog's first key
    /// is due to go back on the heap in the crash's place.
    fn crashes_a_backlog(core: &Core<Note>, slot: u32) -> bool {
        let Some(EventKind::Crash { node }) = &core.slab[slot as usize] else { return false };
        let state = &core.nodes[node.index()];
        core.head_taken && state.up && state.parked.len() > 0
    }

    /// The generator reaches the regimes the differential test exists
    /// for; without this a tame generator would pass vacuously.
    #[test]
    fn generator_exercises_backlogs_crashes_and_wedges() {
        let (mut backlog, mut dropped, mut deferred, mut splits) = (0, 0, 0u64, 0);
        let (mut from_head, mut crashed, mut overwritten) = ([0u64; 3], false, 0);
        let mut peaks = 0;
        for seed in 0..200 {
            let s = scenario(seed);
            let (outcome, parked) = s.play(|eng, limit| {
                eng.run_observed(
                    limit,
                    |state, horizon| splits += usize::from(splits_at_horizon(state, horizon)),
                    |core, slot| match slot {
                        Some(slot) => crashed = crashes_a_backlog(core, slot),
                        None => {
                            overwritten +=
                                usize::from(std::mem::take(&mut crashed) && !core.head_taken)
                        }
                    },
                )
            });
            let (_, repushed) = s.play(Engine::run_until_reference);
            let nodes = (0..s.scripts.len() as u32).map(NodeId);
            backlog = backlog.max(nodes.clone().map(|n| parked.parked_peak(n)).max().unwrap());
            peaks += parked.queue_peak();
            for node in nodes {
                let counts = parked.actor_ref::<Scripted>(node).expect("scripted").from_head;
                from_head.iter_mut().zip(counts).for_each(|(total, n)| *total += n);
            }
            let counters = &outcome.checkpoints.last().unwrap().1;
            dropped += counters.iter().filter(|(k, _)| k == "engine.down_drops").count();
            deferred += repushed.events_processed() - parked.events_processed();
        }
        assert!(backlog >= 32, "deepest backlog only {backlog}");
        assert!(dropped >= 20, "only {dropped} of 200 scenarios dropped a crashed node's events");
        assert!(deferred >= 10_000, "only {deferred} re-pushes saved over 200 scenarios");
        assert!(splits >= 10, "only {splits} re-stamp passes stopped at a wedged key");
        let [none, one, more] = from_head;
        assert!(
            none >= 1_000 && one >= 1_000 && more >= 1_000,
            "handlers dispatched from the heap's head queued 0, 1, 2+ keys: {none}, {one}, {more}"
        );
        assert!(overwritten >= 20, "only {overwritten} crashed backlogs overwrote the taken head");
        // Summed with the loop that popped each dispatched key first.
        assert_eq!(peaks, 7_923, "the heap's peaks moved");
    }
}
