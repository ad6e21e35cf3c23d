//! The discrete-event engine: event queue, node scheduling, message routing.
//!
//! Execution model:
//!
//! * Every event (message delivery, timer, node start) fires at a virtual
//!   instant. Events with equal instants fire in creation order.
//! * A node that consumed CPU (via [`Ctx::consume`]) is *busy* until its
//!   local clock catches up; deliveries and timers that arrive while it is
//!   busy are deferred to the instant it frees up, preserving order. This
//!   yields M/G/1-style queueing at saturated servers — the mechanism
//!   behind every knee in the reproduced experiments.
//! * The heap and the backlogs below hold *keys* — `(time, seq)` and a
//!   slot number — and the payloads (a `wire::Envelope` is 240 bytes)
//!   stay put in a slab, so a sift, a re-stamp or a rotation moves keys
//!   only. A slot is live exactly while its key is on the heap or in a
//!   backlog: `step` reads the payload where it lies to
//!   decide between park, dispatch and discard, and moves it out once, on
//!   the latter two. Freed slots are reused last-freed-first, so the slab
//!   stops growing at the peak number of events in flight and a steady
//!   run allocates nothing per event (a `Box` per event would). Nothing
//!   compares a slot number, so the schedule does not depend on them.
//! * A deferred event is *parked* in its node's own backlog under the key
//!   `(busy_until, fresh seq)` it would carry on the global heap, and the
//!   heap holds one wake entry per backlogged node, at the key of that
//!   node's parked head. The next event overall is still the smallest key
//!   anywhere, so dispatch order, counters, RNG draws and timestamps are
//!   those of pushing every deferred event back through the heap. A
//!   backlog keeps its keys as runs — one instant, consecutive seqs —
//!   with the slots beside them. When a wake finds the node busy again,
//!   the runs sorting before the heap's head become one run at
//!   `busy_until` under the next seqs: no handler can run between them,
//!   so one by one they would have drawn the same consecutive seqs. A
//!   pass rewrites runs, not entries, so a saturated node pays per
//!   dispatch for the runs parked since its last one, not for its
//!   backlog. A run with a foreign event wedged before it waits behind
//!   its own wake.
//! * A crash puts the node's backlog back on the heap under the keys it
//!   holds: it is discarded (and `engine.down_drops` counted) at the
//!   instant it was parked for, not at the crash.
//! * The dispatched key is not popped: it stays at the heap's head,
//!   marked taken, and the first key enqueued while it is taken — nearly
//!   always the handler's near-future follow-up — overwrites it in place,
//!   one sift down from the root that stops within a level or two, where
//!   a pop and a push cost a full sift to the bottom and a sift back up.
//!   A head nothing replaced is popped before the heap is next read
//!   ([`Core::settle`]). The heap then holds the keys a pop and a push
//!   would have left, and keys are unique (but for a crash's stale wake,
//!   which shares its parked entry's key and is ignored in either
//!   order), so events dispatch in the order popping first gave.
//! * [`Engine::events_processed`] and the event limit count each event
//!   once, when it is dispatched or discarded, not per resurfacing.
//! * Links add transmit time (size/bandwidth, with a per-direction
//!   transmitter that serializes back-to-back sends), propagation latency,
//!   optional jitter and loss.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::fmt;
use std::hash::BuildHasherDefault;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::actor::{Actor, Payload};
use crate::flight::{FlightDump, FlightRecorder};
use crate::hash::IdHasher;
use crate::history::{Decision, HistoryEvent};
use crate::link::{LinkSpec, LinkState};
use crate::metrics::{names, MetricsRegistry};
use crate::stats::Stats;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceContext, Tracer};

/// Identifies a simulated node (an actor placement).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index form for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Minimum delivery delay for a node sending to itself with no explicit
/// loopback link. Non-zero so that self-messaging always advances time.
const SELF_SEND_LATENCY: SimDuration = SimDuration::from_micros(1);

enum EventKind<M> {
    Deliver { from: NodeId, to: NodeId, msg: M, epoch: u64 },
    Timer { node: NodeId, tag: u64, epoch: u64 },
    Start { node: NodeId },
    Crash { node: NodeId },
    Restart { node: NodeId },
}

/// What a queued key stands for.
#[derive(Clone, Copy)]
enum Entry {
    /// The event whose payload is in `Core::slab` at this index.
    Slot(u32),
    /// The head of this node's parked queue, whose key the wake shares.
    Wake(NodeId),
}

/// A queued event's key. The global heap orders and moves these, and a
/// backlog hands them out; the payload stays in its slab slot until it is
/// dispatched or dropped.
#[derive(Clone, Copy)]
struct Event {
    time: SimTime,
    seq: u64,
    entry: Entry,
}

impl Event {
    /// Firing order: virtual instant, then creation (or parking) order.
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }

    /// [`Event::key`] as one number, so a sift compares two keys without
    /// a branch on the instant.
    fn rank(&self) -> u128 {
        (u128::from(self.time.as_micros()) << 64) | u128::from(self.seq)
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank().cmp(&other.rank())
    }
}

struct NodeState {
    name: String,
    busy_until: SimTime,
    busy_micros: u64,
    /// False while the node is crashed; down nodes drop every delivery
    /// and timer addressed to them.
    up: bool,
    /// Incarnation counter, bumped at each crash. Deliveries and timers
    /// are stamped with the epoch they were created under; a stale stamp
    /// means the event straddled a crash and must be discarded (the
    /// "connection" it rode on died with the process).
    epoch: u64,
    /// Keys of the events that found this node busy. Non-empty only
    /// while the node is up, and then every entry's payload carries its
    /// epoch.
    parked: Backlog,
    parked_peak: usize,
}

/// `len` parked keys under one instant with consecutive seqs: `(time,
/// seq)`, `(time, seq + 1)`, …, `(time, seq + len - 1)`.
#[derive(Clone, Copy)]
struct Run {
    time: SimTime,
    seq: u64,
    len: u32,
}

impl Run {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }

    fn last_key(&self) -> (SimTime, u64) {
        (self.time, self.seq + u64::from(self.len) - 1)
    }
}

/// A node's parked keys in key order, as runs, and their slots beside
/// them, one per key in the same order.
#[derive(Default)]
struct Backlog {
    runs: VecDeque<Run>,
    slots: VecDeque<u32>,
}

impl Backlog {
    fn len(&self) -> usize {
        self.slots.len()
    }

    fn head(&self) -> Option<(SimTime, u64)> {
        self.runs.front().map(Run::key)
    }

    fn push(&mut self, time: SimTime, seq: u64, slot: u32) {
        self.append(time, seq, 1);
        self.slots.push_back(slot);
    }

    /// Append `len` keys from `(time, seq)` on, extending the last run
    /// when they continue it.
    fn append(&mut self, time: SimTime, seq: u64, len: u32) {
        debug_assert!(self.runs.back().is_none_or(|last| last.last_key() < (time, seq)));
        match self.runs.back_mut() {
            Some(last) if last.time == time && last.seq + u64::from(last.len) == seq => {
                last.len += len;
            }
            _ => self.runs.push_back(Run { time, seq, len }),
        }
    }

    fn pop_front(&mut self) -> Option<Event> {
        let run = self.runs.front_mut()?;
        let slot = self.slots.pop_front().expect("one slot per parked key");
        let ev = Event { time: run.time, seq: run.seq, entry: Entry::Slot(slot) };
        run.seq += 1;
        run.len -= 1;
        if run.len == 0 {
            self.runs.pop_front();
        }
        Some(ev)
    }

    /// Re-stamp the leading runs that sort before `horizon` while the node
    /// is busy past them: they become one run at `busy` under the `n`
    /// seqs from `seq` on, behind whatever was already parked for `busy`.
    /// Returns `n`. A seq is drawn once, so `horizon` — a key on the heap,
    /// or past `run_until`'s limit — never falls inside a run: each is
    /// taken whole or not at all.
    fn restamp(&mut self, busy: SimTime, horizon: (SimTime, u64), seq: u64) -> u32 {
        let (mut runs, mut keys) = (0, 0);
        for run in &self.runs {
            if run.time >= busy || run.key() >= horizon {
                break;
            }
            debug_assert!(run.last_key() < horizon, "a key on the heap inside a run");
            runs += 1;
            keys += run.len;
        }
        if runs == self.runs.len() {
            // The whole backlog, the common case: its slots stay put.
            self.runs.truncate(1);
            if let Some(only) = self.runs.front_mut() {
                *only = Run { time: busy, seq, len: keys };
            }
        } else if runs > 0 {
            self.runs.drain(..runs);
            self.slots.rotate_left(keys as usize);
            self.append(busy, seq, keys);
        }
        keys
    }

    /// Every key with its slot, in key order.
    fn into_events(self) -> impl Iterator<Item = Event> {
        let keys = self.runs.into_iter().flat_map(|run| {
            (run.seq..run.seq + u64::from(run.len)).map(move |seq| (run.time, seq))
        });
        let slots = self.slots.into_iter().map(Entry::Slot);
        keys.zip(slots).map(|((time, seq), entry)| Event { time, seq, entry })
    }
}

/// Tables keyed by a directed or unordered node pair.
type PairMap<V> = HashMap<(u32, u32), V, BuildHasherDefault<IdHasher>>;

/// Everything the engine owns *except* the actors themselves; handlers get
/// `&mut Core` through [`Ctx`] while their actor is temporarily detached.
struct Core<M> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<Event>>,
    /// The heap's head is the key being dispatched: the next key
    /// enqueued takes its place, or [`Core::settle`] pops it.
    head_taken: bool,
    /// Payloads of the queued events. A slot is live exactly while its key
    /// is on the heap or in a parked queue; `free` lists the others, last
    /// freed first, so the slab grows only to the peak number of events
    /// in flight.
    slab: Vec<Option<EventKind<M>>>,
    free: Vec<u32>,
    nodes: Vec<NodeState>,
    links: PairMap<LinkState>,
    /// Timed partition windows keyed by unordered node pair; traffic in
    /// either direction departing inside a window is dropped.
    partitions: PairMap<Vec<(SimTime, SimTime)>>,
    rng: StdRng,
    /// One registry per node, parallel to `nodes`: the only store of
    /// every counter, gauge and timer a node writes (`Ctx::metrics`).
    node_metrics: Vec<MetricsRegistry>,
    tracer: Tracer,
    /// The history log while recording (see [`crate::history`]): each
    /// event through the same `Rc` the flight ring holds.
    history: Option<Vec<Rc<HistoryEvent>>>,
    flight: FlightRecorder,
    /// Sequence of the next decision event: the history log and the
    /// flight rings hold the same events, so they share one count.
    decisions: u64,
    events_processed: u64,
    event_limit: u64,
    queue_peak: usize,
}

impl<M: Payload> Core<M> {
    fn push(&mut self, time: SimTime, kind: EventKind<M>) {
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(kind);
                slot
            }
            None => {
                self.slab.push(Some(kind));
                (self.slab.len() - 1) as u32
            }
        };
        self.enqueue(Event { time, seq, entry: Entry::Slot(slot) });
    }

    /// Move a payload out of the slab, once its key has left the queues
    /// for good.
    fn take(&mut self, slot: u32) -> EventKind<M> {
        self.free.push(slot);
        self.slab[slot as usize].take().expect("a queued key names a live slot")
    }

    /// Queue a key: in place of a taken head (the length, and so the
    /// peak, unchanged), else pushed.
    fn enqueue(&mut self, ev: Event) {
        if std::mem::take(&mut self.head_taken) {
            *self.queue.peek_mut().expect("a taken head is on the heap") = Reverse(ev);
        } else {
            self.queue.push(Reverse(ev));
            self.queue_peak = self.queue_peak.max(self.queue.len());
        }
    }

    /// Pop a taken head that nothing replaced, so the heap holds only
    /// keys still to come.
    fn settle(&mut self) {
        if std::mem::take(&mut self.head_taken) {
            self.queue.pop();
        }
    }

    /// Hold an event that found `node` busy in the node's own queue, under
    /// the key a push back onto the heap at `until` would have drawn.
    fn park(&mut self, node: NodeId, until: SimTime, slot: u32) {
        let seq = self.seq;
        self.seq += 1;
        let state = &mut self.nodes[node.index()];
        state.parked.push(until, seq, slot);
        state.parked_peak = state.parked_peak.max(state.parked.len());
        if state.parked.len() == 1 {
            self.enqueue(Event { time: until, seq, entry: Entry::Wake(node) });
        }
    }

    /// The next event overall, if it is `node`'s parked head; otherwise
    /// re-arm the node's wake (if a backlog remains) and return `None`.
    /// A parked key is next when it sorts before `horizon`: the heap's
    /// head, or the end of the run. While the node is busy past such keys
    /// they are first re-stamped ([`Backlog::restamp`]); the pass stops at
    /// a run the node is free at, or one that is not next.
    fn next_parked(&mut self, node: NodeId, horizon: (SimTime, u64)) -> Option<Event> {
        let state = &mut self.nodes[node.index()];
        self.seq += u64::from(state.parked.restamp(state.busy_until, horizon, self.seq));
        let (time, seq) = state.parked.head()?;
        if (time, seq) < horizon {
            return state.parked.pop_front();
        }
        self.enqueue(Event { time, seq, entry: Entry::Wake(node) });
        None
    }

    /// `node`'s metrics registry.
    fn metrics(&mut self, node: NodeId) -> &mut MetricsRegistry {
        &mut self.node_metrics[node.index()]
    }

    /// The one body of [`Ctx::record`] and [`Engine::record`]: while
    /// both sinks are off, one branch and `make` never runs; otherwise
    /// the event is built once, and the history log and the flight ring
    /// share it.
    fn record<D: Decision>(&mut self, at: SimTime, node: NodeId, make: impl FnOnce() -> D) {
        if self.history.is_none() && !self.flight.enabled() {
            return;
        }
        let event: Rc<HistoryEvent> =
            Rc::new(HistoryEvent { seq: self.decisions, at, node, decision: make() });
        self.decisions += 1;
        let fired = self.flight.observe(&event);
        if fired > 0 {
            self.metrics(node).add(names::ENGINE_FLIGHT_DUMPS, fired as u64);
        }
        if let Some(history) = &mut self.history {
            history.push(event);
        }
    }

    /// Install the directed link `from -> to`. Re-installing one replaces
    /// its spec and idles its transmitter; the traffic it has counted
    /// stays (and is summed under its current label).
    fn install_link(&mut self, from: NodeId, to: NodeId, spec: LinkSpec) {
        let link = self.links.entry((from.0, to.0)).or_insert_with(|| LinkState::new(spec));
        link.spec = spec;
        link.busy_until = SimTime::ZERO;
    }

    /// True if the unordered pair `(a, b)` is inside a partition window
    /// at instant `at`.
    fn severed(&self, a: u32, b: u32, at: SimTime) -> bool {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.partitions
            .get(&key)
            .is_some_and(|ws| ws.iter().any(|&(from, until)| at >= from && at < until))
    }

    /// Route `msg` from `from` to `to`, departing at `depart`.
    fn route(&mut self, from: NodeId, to: NodeId, msg: M, depart: SimTime) {
        assert!(to.index() < self.nodes.len(), "send to unknown node {to:?}");
        let size = msg.size_bytes();
        let epoch = self.nodes[to.index()].epoch;
        let cut = from != to && self.severed(from.0, to.0, depart);
        let arrival = match self.links.get_mut(&(from.0, to.0)) {
            None if from == to => depart + SELF_SEND_LATENCY,
            None => panic!(
                "no link {:?} ({}) -> {:?} ({}); call Engine::link first",
                from,
                self.nodes[from.index()].name,
                to,
                self.nodes[to.index()].name
            ),
            Some(link) => {
                if cut {
                    link.partitioned += 1;
                    return;
                }
                if link.spec.loss > 0.0 && self.rng.gen::<f64>() < link.spec.loss {
                    link.lost += 1;
                    return;
                }
                let transmit = link.spec.transmit_time(size);
                let start_tx = if link.busy_until > depart { link.busy_until } else { depart };
                link.busy_until = start_tx + transmit;
                link.msgs += 1;
                link.bytes += size as u64;
                let jitter_max = link.spec.jitter.as_micros();
                let jitter = if jitter_max == 0 {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_micros(self.rng.gen_range(0..=jitter_max))
                };
                link.busy_until + link.spec.latency + jitter
            }
        };
        self.push(arrival, EventKind::Deliver { from, to, msg, epoch });
    }
}

/// Handler-side view of the engine: clock, messaging, timers, RNG, stats.
pub struct Ctx<'a, M: Payload> {
    core: &'a mut Core<M>,
    me: NodeId,
    /// Local clock: event arrival time plus CPU consumed so far.
    local_now: SimTime,
}

impl<'a, M: Payload> Ctx<'a, M> {
    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The node's local clock (arrival instant plus CPU consumed so far).
    pub fn now(&self) -> SimTime {
        self.local_now
    }

    /// Model `d` of CPU work: advances the local clock and keeps this node
    /// busy, deferring concurrent arrivals.
    pub fn consume(&mut self, d: SimDuration) {
        self.local_now += d;
    }

    /// Send `msg` to `to`, departing at the current local clock.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.core.route(self.me, to, msg, self.local_now);
    }

    /// Send `msg` to `to` after an additional local delay (does not occupy
    /// the CPU).
    pub fn send_after(&mut self, to: NodeId, msg: M, delay: SimDuration) {
        let depart = self.local_now + delay;
        self.core.route(self.me, to, msg, depart);
    }

    /// Schedule `on_timer(tag)` on this node after `delay`. The timer is
    /// bound to the node's current incarnation: if the node crashes before
    /// the timer fires, it never fires (even after a restart).
    pub fn schedule(&mut self, delay: SimDuration, tag: u64) {
        let time = self.local_now + delay;
        let epoch = self.core.nodes[self.me.index()].epoch;
        self.core.push(time, EventKind::Timer { node: self.me, tag, epoch });
    }

    /// Deterministic simulation RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.core.rng
    }

    /// This node's metrics registry, the one store of what it counts;
    /// [`Engine::stats`] sums the registries into the run-wide view.
    pub fn metrics(&mut self) -> &mut MetricsRegistry {
        self.core.metrics(self.me)
    }

    /// Name of any node (for diagnostics).
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.core.nodes[id.index()].name
    }

    /// Open a root span (new trace) on this node at the local clock.
    /// `None` when tracing is disabled.
    pub fn trace_root(&mut self, name: &str) -> Option<TraceContext> {
        let core = &mut *self.core;
        core.tracer.start_root(name, &core.nodes[self.me.index()].name, self.local_now)
    }

    /// Open a child span under `parent` on this node. Passes `None`
    /// through so call sites can chain optional contexts untraced.
    pub fn trace_child(
        &mut self,
        parent: Option<TraceContext>,
        name: &str,
    ) -> Option<TraceContext> {
        let parent = parent?;
        let core = &mut *self.core;
        core.tracer.start_child(parent, name, &core.nodes[self.me.index()].name, self.local_now)
    }

    /// Close a span at the local clock (no-op for `None`).
    pub fn trace_finish(&mut self, span: Option<TraceContext>) {
        if let Some(span) = span {
            self.core.tracer.finish(span, self.local_now);
        }
    }

    /// Attach a point annotation to an open span (no-op for `None`).
    pub fn trace_annotate(&mut self, span: Option<TraceContext>, text: &str) {
        if let Some(span) = span {
            self.core.tracer.annotate(span, self.local_now, text);
        }
    }

    /// Record a semantic decision point into the history log and the
    /// flight recorder. While both are off this is one branch and `make`
    /// never runs, so a disarmed emit builds nothing. Never touches the
    /// RNG, the queue, or the wire, so recorded and unrecorded runs share
    /// one event schedule.
    pub fn record<D: Decision>(&mut self, make: impl FnOnce() -> D) {
        self.core.record(self.local_now, self.me, make);
    }

    /// Record a complete child span covering `[start, end]` (windows known
    /// only after the fact, e.g. retry backoff delays).
    pub fn trace_window(
        &mut self,
        parent: Option<TraceContext>,
        name: &str,
        start: SimTime,
        end: SimTime,
    ) {
        if let Some(parent) = parent {
            let core = &mut *self.core;
            core.tracer.record_window(parent, name, &core.nodes[self.me.index()].name, start, end);
        }
    }
}

/// The simulation engine. Generic over the message type `M` carried on
/// every link (the DISCOVER stack instantiates it with `wire::Envelope`).
pub struct Engine<M: Payload> {
    core: Core<M>,
    actors: Vec<Option<Box<dyn Actor<M>>>>,
}

impl<M: Payload> Engine<M> {
    /// Create an engine with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        Engine {
            core: Core {
                now: SimTime::ZERO,
                seq: 0,
                queue: BinaryHeap::new(),
                head_taken: false,
                slab: Vec::new(),
                free: Vec::new(),
                nodes: Vec::new(),
                links: PairMap::default(),
                partitions: PairMap::default(),
                rng: StdRng::seed_from_u64(seed),
                node_metrics: Vec::new(),
                tracer: Tracer::new(),
                history: None,
                flight: FlightRecorder::new(),
                decisions: 0,
                events_processed: 0,
                event_limit: u64::MAX,
                queue_peak: 0,
            },
            actors: Vec::new(),
        }
    }

    /// Add a node hosting `actor`; its `on_start` fires at the current
    /// instant (so nodes may join a running simulation, e.g. a DISCOVER
    /// server joining the peer network mid-experiment).
    pub fn add_node(&mut self, name: impl Into<String>, actor: impl Actor<M>) -> NodeId {
        let id = NodeId(self.core.nodes.len() as u32);
        let name = name.into();
        self.core.node_metrics.push(MetricsRegistry::new(name.clone()));
        self.core.nodes.push(NodeState {
            name,
            busy_until: SimTime::ZERO,
            busy_micros: 0,
            up: true,
            epoch: 0,
            parked: Backlog::default(),
            parked_peak: 0,
        });
        self.actors.push(Some(Box::new(actor)));
        self.core.push(self.core.now, EventKind::Start { node: id });
        id
    }

    /// Install a bidirectional link (two independent directions, full
    /// duplex) between `a` and `b`.
    pub fn link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        assert_ne!(a, b, "loopback links are implicit");
        self.core.install_link(a, b, spec);
        self.core.install_link(b, a, spec);
    }

    /// True if a directed link exists.
    pub fn has_link(&self, from: NodeId, to: NodeId) -> bool {
        self.core.links.contains_key(&(from.0, to.0))
    }

    /// Inject a message from outside the simulation (tests, harnesses).
    /// It departs `from` after `delay` and traverses the normal link path.
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: M, delay: SimDuration) {
        let depart = self.core.now + delay;
        self.core.route(from, to, msg, depart);
    }

    /// Schedule a node crash at `at`. From that instant until a matching
    /// [`Engine::restart_at`], every delivery and timer addressed to the
    /// node is dropped, and timers armed before the crash never fire.
    /// Counted under the `engine.crashes` stat.
    pub fn crash_at(&mut self, node: NodeId, at: SimTime) {
        assert!(node.index() < self.core.nodes.len(), "crash of unknown node {node:?}");
        self.core.push(at, EventKind::Crash { node });
    }

    /// Schedule a node restart at `at`; the actor's
    /// [`Actor::on_restart`](crate::Actor::on_restart) hook runs at that
    /// instant so it can re-arm timers and re-register with peers. A
    /// restart of a node that is already up is a no-op.
    pub fn restart_at(&mut self, node: NodeId, at: SimTime) {
        assert!(node.index() < self.core.nodes.len(), "restart of unknown node {node:?}");
        self.core.push(at, EventKind::Restart { node });
    }

    /// Sever all traffic between `a` and `b` (both directions) for
    /// departures in `[from, until)`. Messages already in flight when the
    /// window opens still arrive — a partition cuts the wire, it does not
    /// reach into the network and claw packets back.
    pub fn partition(&mut self, a: NodeId, b: NodeId, from: SimTime, until: SimTime) {
        assert!(from < until, "empty partition window");
        let key = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
        self.core.partitions.entry(key).or_default().push((from, until));
    }

    /// Schedule every crash/restart cycle and partition window described
    /// by `plan`.
    pub fn apply_faults(&mut self, plan: &crate::FaultPlan) {
        for &(node, at, restart) in plan.crashes() {
            self.crash_at(node, at);
            self.restart_at(node, restart);
        }
        for &(a, b, from, until) in plan.partitions() {
            self.partition(a, b, from, until);
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Total events processed so far: each event counts once, when it is
    /// dispatched or discarded, however long it waited for a busy node.
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// Largest number of entries the global event heap has held: the
    /// figure popping each dispatched key would give, since a key that
    /// overwrites it leaves the length as a pop and a push would.
    pub fn queue_peak(&self) -> usize {
        self.core.queue_peak
    }

    /// Longest backlog that has waited for `node` while it was busy.
    pub fn parked_peak(&self, node: NodeId) -> usize {
        self.core.nodes[node.index()].parked_peak
    }

    /// The run-wide view, summed from the stores when asked for: every
    /// node's registry merged in node order (counters add, histograms
    /// pool, a gauge reads as the last node set it; the stack's two
    /// gauges, `substrate.ring.{shards,epoch}`, are equal on every
    /// server), then each label's link traffic as
    /// `link.<label>.{msgs,bytes,dropped,partitioned}`. A link key is
    /// present once it counted something: `msgs` and `bytes` from the
    /// first message that went, `dropped` (loss) and `partitioned` from
    /// the first one cut.
    pub fn stats(&self) -> Stats {
        let mut total = Stats::new();
        for registry in &self.core.node_metrics {
            total.merge(registry.stats());
        }
        // Summed per label first, so a key is formatted per label, not per link.
        let mut labels: BTreeMap<&str, [u64; 4]> = BTreeMap::new();
        for link in self.core.links.values() {
            let [msgs, bytes, lost, cut] = labels.entry(link.spec.label).or_default();
            *msgs += link.msgs;
            *bytes += link.bytes;
            *lost += link.lost;
            *cut += link.partitioned;
        }
        for (label, [msgs, bytes, lost, cut]) in labels {
            let mut key = format!("link.{label}.");
            let stem = key.len();
            for (what, n, present) in [
                ("msgs", msgs, msgs),
                ("bytes", bytes, msgs),
                ("dropped", lost, lost),
                ("partitioned", cut, cut),
            ] {
                if present > 0 {
                    key.truncate(stem);
                    key.push_str(what);
                    total.add(&key, n);
                }
            }
        }
        total
    }

    /// Turn on span collection. Off by default so untraced runs carry no
    /// trace bytes on the wire and keep their exact event schedule.
    pub fn enable_tracing(&mut self) {
        self.core.tracer.enable();
    }

    /// The span sink (read or export).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.core.tracer
    }

    /// Turn on semantic history recording (see [`crate::history`]). Off
    /// by default; recording appends to a vector only, so the event
    /// schedule is identical either way.
    pub fn enable_history(&mut self) {
        self.core.history.get_or_insert_with(Vec::new);
    }

    /// Every recorded history event, in execution order.
    pub fn history(&self) -> &[Rc<HistoryEvent>] {
        self.core.history.as_deref().unwrap_or_default()
    }

    /// Record a decision from outside the simulation, attributed to
    /// `node` at the global clock — for harnesses applying out-of-band
    /// admin actions (ACL revocations, forced state edits) between run
    /// steps, so oracles still see them in the one ordered log. Like
    /// [`Ctx::record`], `make` runs only while a sink is on.
    pub fn record<D: Decision>(&mut self, node: NodeId, make: impl FnOnce() -> D) {
        let now = self.core.now;
        self.core.record(now, node, make);
    }

    /// Turn on the anomaly flight recorder (see [`crate::flight`]), with
    /// `expiry_spike_threshold` deadline expiries within one second on
    /// one node counting as a spike. Off by default; like history
    /// recording it appends to internal buffers only, so the event
    /// schedule is identical either way.
    pub fn enable_flight_recorder(&mut self, expiry_spike_threshold: usize) {
        self.core.flight.enable(expiry_spike_threshold);
    }

    /// Every triggered flight dump so far, in trigger order.
    pub fn flight_dumps(&self) -> &[FlightDump] {
        self.core.flight.dumps()
    }

    /// All flight dumps as deterministic text (byte-identical across
    /// same-seed runs).
    pub fn flight_dumps_rendered(&self) -> String {
        self.core.flight.dumps_rendered()
    }

    /// One node's current ring as deterministic text (the last-N events
    /// it recorded).
    pub fn flight_ring_rendered(&self, node: NodeId) -> String {
        self.core.flight.ring_rendered(node)
    }

    /// One node's metrics registry.
    pub fn node_metrics(&self, id: NodeId) -> &MetricsRegistry {
        &self.core.node_metrics[id.index()]
    }

    /// Name given to a node at `add_node` time.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.core.nodes[id.index()].name
    }

    /// Total CPU time the node has consumed (via [`Ctx::consume`]).
    pub fn node_busy(&self, id: NodeId) -> SimDuration {
        SimDuration::from_micros(self.core.nodes[id.index()].busy_micros)
    }

    /// Fraction of elapsed virtual time the node spent busy.
    pub fn node_utilization(&self, id: NodeId) -> f64 {
        let elapsed = self.core.now.as_micros();
        if elapsed == 0 {
            return 0.0;
        }
        self.core.nodes[id.index()].busy_micros as f64 / elapsed as f64
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.core.nodes.len()
    }

    /// Borrow the actor at `id`, downcast to its concrete type.
    pub fn actor_ref<T: Actor<M>>(&self, id: NodeId) -> Option<&T> {
        let boxed = self.actors.get(id.index())?.as_deref()?;
        (boxed as &dyn Any).downcast_ref::<T>()
    }

    /// Mutably borrow the actor at `id`, downcast to its concrete type.
    pub fn actor_mut<T: Actor<M>>(&mut self, id: NodeId) -> Option<&mut T> {
        let boxed = self.actors.get_mut(id.index())?.as_deref_mut()?;
        (boxed as &mut dyn Any).downcast_mut::<T>()
    }

    /// Run until the queue is empty or the next event is after `limit`.
    /// Returns the number of events processed by this call.
    pub fn run_until(&mut self, limit: SimTime) -> u64 {
        self.run_observed(limit, |_, _| {}, |_, _| {})
    }

    /// [`Engine::run_until`], showing `before_pass` the node whose backlog
    /// a re-stamp pass is about to read, and the pass's horizon, and
    /// `around_step` the engine before it steps a slot (`Some(slot)`) and
    /// after (`None`, a taken head the step did not replace still
    /// queued): the tests watch the runs a pass reads and what a step
    /// leaves at the heap's head.
    fn run_observed(
        &mut self,
        limit: SimTime,
        mut before_pass: impl FnMut(&NodeState, (SimTime, u64)),
        mut around_step: impl FnMut(&Core<M>, Option<u32>),
    ) -> u64 {
        let before = self.core.events_processed;
        let run_end = (limit, u64::MAX);
        // The node whose wake surfaced last, for as long as its parked
        // keys remain the next events overall.
        let mut draining: Option<NodeId> = None;
        loop {
            self.core.settle();
            let next = match draining {
                Some(node) => {
                    let core = &mut self.core;
                    let horizon =
                        core.queue.peek().map_or(run_end, |Reverse(head)| head.key().min(run_end));
                    before_pass(&core.nodes[node.index()], horizon);
                    core.next_parked(node, horizon)
                }
                None => match self.core.queue.peek() {
                    Some(&Reverse(head)) if head.time <= limit => {
                        self.core.head_taken = true;
                        Some(head)
                    }
                    _ => break,
                },
            };
            match next {
                None => draining = None,
                Some(Event { entry: Entry::Wake(node), seq, .. }) => {
                    // A crash hands the backlog back to the heap and
                    // leaves its wake behind: that one matches no head.
                    let head = self.core.nodes[node.index()].parked.head();
                    if head.map(|(_, head)| head) == Some(seq) {
                        draining = Some(node);
                    }
                }
                Some(Event { entry: Entry::Slot(slot), time, .. }) => {
                    around_step(&self.core, Some(slot));
                    self.step(time, slot);
                    around_step(&self.core, None);
                }
            }
        }
        // Clock advances to the horizon even if the queue drained earlier,
        // so successive run_until calls observe monotonic time.
        if limit > self.core.now && limit != SimTime::MAX {
            self.core.now = limit;
        }
        self.core.events_processed - before
    }

    /// Process the next event overall: dispatch it, discard it, or — if
    /// it finds its node busy — park it, which does not count as processed.
    /// The verdict is reached on the payload where it lies, so an event
    /// that must wait moves only its key.
    fn step(&mut self, at: SimTime, slot: u32) {
        let core = &mut self.core;
        if at > core.now {
            core.now = at;
        }
        let payload = core.slab[slot as usize].as_ref().expect("a queued key names a live slot");
        let addressed = match payload {
            EventKind::Deliver { to, epoch, .. } => Some((*to, *epoch)),
            EventKind::Timer { node, epoch, .. } => Some((*node, *epoch)),
            _ => None,
        };
        // A delivery or timer is live unless it was stamped by an
        // incarnation of its node that has since crashed.
        let mut live = true;
        if let Some((node, epoch)) = addressed {
            let state = &core.nodes[node.index()];
            live = state.up && state.epoch == epoch;
            if live && state.busy_until > at {
                return core.park(node, state.busy_until, slot);
            }
        }
        match core.take(slot) {
            EventKind::Start { node } => self.dispatch(node, at, |actor, ctx| {
                actor.on_start(ctx);
            }),
            EventKind::Deliver { from, to, msg, .. } if live => {
                self.dispatch(to, at, |actor, ctx| {
                    actor.on_message(ctx, from, msg);
                });
            }
            EventKind::Deliver { to, .. } => self.core.metrics(to).incr(names::ENGINE_DOWN_DROPS),
            EventKind::Timer { node, tag, .. } if live => {
                self.dispatch(node, at, |actor, ctx| {
                    actor.on_timer(ctx, tag);
                });
            }
            // Armed by an incarnation that crashed.
            EventKind::Timer { .. } => {}
            EventKind::Crash { node } => {
                let state = &mut self.core.nodes[node.index()];
                if state.up {
                    state.up = false;
                    state.epoch += 1;
                    // Whatever CPU work was in flight dies with the
                    // process. The backlog's keys go back on the heap as
                    // they are, so each entry surfaces at the instant it
                    // was parked for and is discarded by the epoch check
                    // there, even if the node restarts sooner; the wake
                    // left behind matches no parked head.
                    state.busy_until = at;
                    for parked in std::mem::take(&mut state.parked).into_events() {
                        self.core.enqueue(parked);
                    }
                    self.core.metrics(node).incr(names::ENGINE_CRASHES);
                }
            }
            EventKind::Restart { node } => {
                let state = &mut self.core.nodes[node.index()];
                if !state.up {
                    state.up = true;
                    state.busy_until = at;
                    self.dispatch(node, at, |actor, ctx| {
                        actor.on_restart(ctx);
                    });
                }
            }
        }
        self.core.events_processed += 1;
        assert!(
            self.core.events_processed <= self.core.event_limit,
            "event limit exceeded at {:?}: possible live-lock",
            self.core.now
        );
    }

    /// Run for an additional span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) -> u64 {
        let limit = self.core.now + d;
        self.run_until(limit)
    }

    /// Run until the event queue is exhausted.
    pub fn run_to_quiescence(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    fn dispatch(
        &mut self,
        node: NodeId,
        at: SimTime,
        f: impl FnOnce(&mut dyn Actor<M>, &mut Ctx<'_, M>),
    ) {
        let mut actor = self.actors[node.index()].take().unwrap_or_else(|| {
            panic!("re-entrant dispatch on node {node:?}");
        });
        let mut ctx = Ctx { core: &mut self.core, me: node, local_now: at };
        f(actor.as_mut(), &mut ctx);
        let end = ctx.local_now;
        let state = &mut self.core.nodes[node.index()];
        state.busy_until = end;
        state.busy_micros += (end - at).as_micros();
        self.actors[node.index()] = Some(actor);
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::{Act, Note, Scenario, Scripted};
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Ping(usize);
    impl Payload for Ping {
        fn size_bytes(&self) -> usize {
            self.0
        }
    }

    /// Echoes every message back to its sender, consuming fixed CPU.
    struct Echo {
        cpu: SimDuration,
        seen: Vec<SimTime>,
    }
    impl Actor<Ping> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Ping>, from: NodeId, msg: Ping) {
            self.seen.push(ctx.now());
            ctx.consume(self.cpu);
            ctx.send(from, msg);
        }
    }

    struct Collector {
        arrivals: Vec<(SimTime, usize)>,
    }
    impl Actor<Ping> for Collector {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Ping>, _from: NodeId, msg: Ping) {
            self.arrivals.push((ctx.now(), msg.0));
        }
    }

    fn fixed_link(latency_us: u64) -> LinkSpec {
        LinkSpec::loopback().with_latency(SimDuration::from_micros(latency_us))
    }

    /// A `fixed_link` labelled `pair`.
    fn pair(latency_us: u64) -> LinkSpec {
        LinkSpec { label: "pair", ..fixed_link(latency_us) }
    }

    #[test]
    fn round_trip_latency_is_twice_one_way() {
        let mut eng = Engine::new(1);
        let echo = eng.add_node("echo", Echo { cpu: SimDuration::ZERO, seen: vec![] });
        let coll = eng.add_node("collector", Collector { arrivals: vec![] });
        eng.link(echo, coll, fixed_link(500));
        eng.inject(coll, echo, Ping(0), SimDuration::ZERO);
        eng.run_to_quiescence();
        let c = eng.actor_ref::<Collector>(coll).unwrap();
        assert_eq!(c.arrivals.len(), 1);
        assert_eq!(c.arrivals[0].0, SimTime::from_micros(1000));
    }

    #[test]
    fn busy_node_queues_arrivals() {
        // Two messages arrive together; the second is processed only after
        // the first's CPU cost elapses.
        let mut eng = Engine::new(1);
        let echo = eng.add_node("echo", Echo { cpu: SimDuration::from_millis(10), seen: vec![] });
        let src = eng.add_node("src", Collector { arrivals: vec![] });
        eng.link(echo, src, fixed_link(100));
        eng.inject(src, echo, Ping(0), SimDuration::ZERO);
        eng.inject(src, echo, Ping(0), SimDuration::ZERO);
        eng.run_to_quiescence();
        let e = eng.actor_ref::<Echo>(echo).unwrap();
        assert_eq!(e.seen.len(), 2);
        assert_eq!(e.seen[0], SimTime::from_micros(100));
        assert_eq!(e.seen[1], SimTime::from_micros(10_100));
    }

    #[test]
    fn bandwidth_serializes_back_to_back_sends() {
        // 1000-byte messages over a 1 MB/s link take 1 ms each to clock out;
        // two sent at once arrive 1 ms apart (plus shared latency).
        let mut eng = Engine::new(1);
        let a = eng.add_node("a", Collector { arrivals: vec![] });
        let b = eng.add_node("b", Collector { arrivals: vec![] });
        eng.link(a, b, LinkSpec { bandwidth_bps: Some(1_000_000), ..fixed_link(0) });
        eng.inject(a, b, Ping(1000), SimDuration::ZERO);
        eng.inject(a, b, Ping(1000), SimDuration::ZERO);
        eng.run_to_quiescence();
        let c = eng.actor_ref::<Collector>(b).unwrap();
        assert_eq!(c.arrivals[0].0, SimTime::from_millis(1));
        assert_eq!(c.arrivals[1].0, SimTime::from_millis(2));
    }

    #[test]
    fn fifo_order_preserved_under_backlog() {
        let mut eng = Engine::new(1);
        let echo = eng.add_node("echo", Echo { cpu: SimDuration::from_millis(1), seen: vec![] });
        let sink = eng.add_node("sink", Collector { arrivals: vec![] });
        eng.link(echo, sink, fixed_link(10));
        for i in 0..8 {
            eng.inject(sink, echo, Ping(i), SimDuration::from_micros(i as u64));
        }
        eng.run_to_quiescence();
        let got: Vec<usize> =
            eng.actor_ref::<Collector>(sink).unwrap().arrivals.iter().map(|a| a.1).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        struct TimerUser {
            fired: Vec<u64>,
        }
        impl Actor<Ping> for TimerUser {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
                ctx.schedule(SimDuration::from_millis(7), 3);
                ctx.schedule(SimDuration::from_millis(5), 1);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, Ping>, _: NodeId, _: Ping) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_, Ping>, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut eng = Engine::new(1);
        let n = eng.add_node("t", TimerUser { fired: vec![] });
        eng.run_to_quiescence();
        assert_eq!(eng.actor_ref::<TimerUser>(n).unwrap().fired, vec![1, 3]);
    }

    #[test]
    fn lossy_link_drops_and_counts() {
        let mut eng = Engine::new(42);
        let a = eng.add_node("a", Collector { arrivals: vec![] });
        let b = eng.add_node("b", Collector { arrivals: vec![] });
        eng.link(a, b, LinkSpec { label: "lossy", ..fixed_link(10).with_loss(0.5) });
        for _ in 0..200 {
            eng.inject(a, b, Ping(1), SimDuration::ZERO);
        }
        eng.run_to_quiescence();
        let delivered = eng.actor_ref::<Collector>(b).unwrap().arrivals.len() as u64;
        let ls = eng.core.links.get(&(a.0, b.0)).unwrap();
        let dropped = ls.lost + ls.partitioned;
        assert_eq!(delivered, ls.msgs);
        assert_eq!(ls.msgs + dropped, 200);
        assert!(dropped > 50 && dropped < 150, "loss far from 50%: {dropped}");
        assert_eq!(eng.stats().counter("link.lossy.dropped"), dropped);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run(seed: u64) -> (u64, u64, Vec<(SimTime, usize)>) {
            let mut eng = Engine::new(seed);
            let echo =
                eng.add_node("echo", Echo { cpu: SimDuration::from_micros(37), seen: vec![] });
            let coll = eng.add_node("c", Collector { arrivals: vec![] });
            eng.link(
                echo,
                coll,
                LinkSpec::lan().with_jitter(SimDuration::from_micros(500)).with_loss(0.05),
            );
            for i in 0..100 {
                eng.inject(coll, echo, Ping(64 + i), SimDuration::from_micros(13 * i as u64));
            }
            eng.run_to_quiescence();
            let arr = eng.actor_ref::<Collector>(coll).unwrap().arrivals.clone();
            (eng.events_processed(), eng.stats().counter("link.lan.msgs"), arr)
        }
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).2, run(8).2, "different seeds should jitter differently");
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut eng = Engine::new(1);
        let echo = eng.add_node("echo", Echo { cpu: SimDuration::ZERO, seen: vec![] });
        let coll = eng.add_node("c", Collector { arrivals: vec![] });
        eng.link(echo, coll, fixed_link(1000));
        eng.inject(coll, echo, Ping(0), SimDuration::ZERO);
        eng.run_until(SimTime::from_micros(500));
        assert_eq!(eng.actor_ref::<Echo>(echo).unwrap().seen.len(), 0);
        assert_eq!(eng.now(), SimTime::from_micros(500));
        eng.run_until(SimTime::from_micros(2500));
        assert_eq!(eng.actor_ref::<Echo>(echo).unwrap().seen.len(), 1);
        assert_eq!(eng.actor_ref::<Collector>(coll).unwrap().arrivals.len(), 1);
    }

    #[test]
    #[should_panic(expected = "no link")]
    fn sending_without_link_panics() {
        let mut eng = Engine::new(1);
        let a = eng.add_node("a", Collector { arrivals: vec![] });
        let b = eng.add_node("b", Collector { arrivals: vec![] });
        eng.inject(a, b, Ping(0), SimDuration::ZERO);
        eng.run_to_quiescence();
    }

    /// Pings a peer every millisecond; used by the crash/restart tests.
    struct Beacon {
        peer: NodeId,
        restarts: u32,
        ticks: u32,
    }
    impl Actor<Ping> for Beacon {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
            ctx.schedule(SimDuration::from_millis(1), 0);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, Ping>, _: NodeId, _: Ping) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Ping>, _tag: u64) {
            self.ticks += 1;
            ctx.send(self.peer, Ping(1));
            ctx.schedule(SimDuration::from_millis(1), 0);
        }
        fn on_restart(&mut self, ctx: &mut Ctx<'_, Ping>) {
            self.restarts += 1;
            ctx.schedule(SimDuration::from_millis(1), 0);
        }
    }

    #[test]
    fn crashed_node_drops_deliveries_and_timers() {
        let mut eng = Engine::new(1);
        let sink = eng.add_node("sink", Collector { arrivals: vec![] });
        let beacon = eng.add_node("beacon", Beacon { peer: sink, restarts: 0, ticks: 0 });
        eng.link(beacon, sink, fixed_link(10));
        // Crash at 5.5 ms without restart: the periodic timer dies, so
        // only ticks 1..=5 happen; messages sent *to* the beacon while it
        // is down are dropped and counted.
        eng.crash_at(beacon, SimTime::from_micros(5_500));
        eng.inject(sink, beacon, Ping(1), SimDuration::from_millis(8));
        eng.run_until(SimTime::from_millis(20));
        assert_eq!(eng.actor_ref::<Beacon>(beacon).unwrap().ticks, 5);
        assert_eq!(eng.actor_ref::<Collector>(sink).unwrap().arrivals.len(), 5);
        assert!(!eng.core.nodes[beacon.index()].up);
        assert_eq!(eng.stats().counter("engine.crashes"), 1);
        assert_eq!(eng.stats().counter("engine.down_drops"), 1);
    }

    #[test]
    fn restart_fires_hook_and_new_timers_survive() {
        let mut eng = Engine::new(1);
        let sink = eng.add_node("sink", Collector { arrivals: vec![] });
        let beacon = eng.add_node("beacon", Beacon { peer: sink, restarts: 0, ticks: 0 });
        eng.link(beacon, sink, fixed_link(10));
        eng.crash_at(beacon, SimTime::from_micros(3_500));
        eng.restart_at(beacon, SimTime::from_millis(10));
        eng.run_until(SimTime::from_millis(15));
        let b = eng.actor_ref::<Beacon>(beacon).unwrap();
        assert_eq!(b.restarts, 1);
        // 3 ticks before the crash (1,2,3 ms) + 5 after (11..=15 ms).
        assert_eq!(b.ticks, 8);
        assert!(eng.core.nodes[beacon.index()].up);
    }

    #[test]
    fn partition_window_blocks_then_heals() {
        let mut eng = Engine::new(1);
        let a = eng.add_node("a", Collector { arrivals: vec![] });
        let b = eng.add_node("b", Collector { arrivals: vec![] });
        eng.link(a, b, pair(10));
        eng.partition(a, b, SimTime::from_millis(2), SimTime::from_millis(4));
        for ms in 0..6 {
            eng.inject(a, b, Ping(1), SimDuration::from_millis(ms));
            eng.inject(b, a, Ping(1), SimDuration::from_millis(ms));
        }
        eng.run_to_quiescence();
        // Departures at 2 and 3 ms fall inside the window, both directions.
        assert_eq!(eng.actor_ref::<Collector>(b).unwrap().arrivals.len(), 4);
        assert_eq!(eng.actor_ref::<Collector>(a).unwrap().arrivals.len(), 4);
        assert_eq!(eng.stats().counter("link.pair.partitioned"), 4);
    }

    #[test]
    fn relinking_keeps_the_traffic_counted_so_far() {
        let mut eng = Engine::new(1);
        let a = eng.add_node("a", Collector { arrivals: vec![] });
        let b = eng.add_node("b", Collector { arrivals: vec![] });
        eng.link(a, b, pair(10));
        for _ in 0..3 {
            eng.inject(a, b, Ping(100), SimDuration::ZERO);
        }
        eng.run_to_quiescence();
        eng.link(a, b, pair(20));
        eng.inject(a, b, Ping(50), SimDuration::ZERO);
        eng.run_to_quiescence();
        assert_eq!(eng.actor_ref::<Collector>(b).unwrap().arrivals.len(), 4);
        let ls = eng.core.links.get(&(a.0, b.0)).unwrap();
        assert_eq!((ls.msgs, ls.bytes, ls.lost + ls.partitioned), (4, 350, 0));
        let stats = eng.stats();
        assert_eq!((stats.counter("link.pair.msgs"), stats.counter("link.pair.bytes")), (4, 350));
    }

    #[test]
    fn link_keys_appear_once_they_count_something() {
        let mut eng = Engine::new(1);
        let a = eng.add_node("a", Collector { arrivals: vec![] });
        let b = eng.add_node("b", Collector { arrivals: vec![] });
        let c = eng.add_node("c", Collector { arrivals: vec![] });
        eng.link(a, b, pair(10));
        eng.link(a, c, LinkSpec { label: "idle", ..fixed_link(10) });
        eng.inject(a, b, Ping(0), SimDuration::ZERO);
        eng.run_to_quiescence();
        let keys: Vec<(String, u64)> =
            eng.stats().counters().map(|(k, v)| (k.to_owned(), v)).collect();
        let pair = |what: &str, n| (format!("link.pair.{what}"), n);
        assert_eq!(keys, vec![pair("bytes", 0), pair("msgs", 1)]);
    }

    #[test]
    fn fault_plan_runs_are_deterministic() {
        use crate::FaultPlan;
        fn run(seed: u64) -> (u64, u64, u64) {
            let mut eng = Engine::new(seed);
            let sink = eng.add_node("sink", Collector { arrivals: vec![] });
            let mut beacons = Vec::new();
            for i in 0..3 {
                let n = eng.add_node(format!("b{i}"), Beacon { peer: sink, restarts: 0, ticks: 0 });
                eng.link(n, sink, fixed_link(10));
                beacons.push(n);
            }
            let mut plan = FaultPlan::new(seed ^ 0xfau64);
            plan.stagger_crashes(
                &beacons,
                SimTime::from_millis(2),
                SimTime::from_millis(30),
                SimDuration::from_millis(5),
            );
            eng.apply_faults(&plan);
            eng.run_until(SimTime::from_millis(50));
            (
                eng.events_processed(),
                eng.stats().counter("engine.crashes"),
                eng.actor_ref::<Collector>(sink).unwrap().arrivals.len() as u64,
            )
        }
        assert_eq!(run(3), run(3));
        assert_eq!(run(3).1, 3, "every beacon crashes exactly once");
    }

    #[test]
    fn self_send_advances_time() {
        struct SelfTalker {
            count: u32,
        }
        impl Actor<Ping> for SelfTalker {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
                let me = ctx.me();
                ctx.send(me, Ping(0));
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, Ping>, _: NodeId, msg: Ping) {
                self.count += 1;
                if self.count < 10 {
                    let me = ctx.me();
                    ctx.send(me, msg);
                }
            }
        }
        let mut eng = Engine::new(1);
        let n = eng.add_node("s", SelfTalker { count: 0 });
        eng.core.event_limit = 1_000;
        eng.run_to_quiescence();
        assert_eq!(eng.actor_ref::<SelfTalker>(n).unwrap().count, 10);
        assert!(eng.now() >= SimTime::from_micros(10));
    }

    #[test]
    fn a_disarmed_emit_never_runs_its_closure() {
        use std::cell::Cell;
        use std::rc::Rc;

        use crate::history::tests::Mark;

        /// Counts how often its decision is built.
        struct Recorder(Rc<Cell<u32>>);
        impl Actor<Ping> for Recorder {
            fn on_message(&mut self, ctx: &mut Ctx<'_, Ping>, _: NodeId, _: Ping) {
                let built = &self.0;
                ctx.record(|| {
                    built.set(built.get() + 1);
                    Mark("daemon.shed")
                });
            }
        }
        let built = Rc::new(Cell::new(0));
        let mut eng = Engine::new(1);
        let n = eng.add_node("n", Recorder(built.clone()));
        eng.inject(n, n, Ping(0), SimDuration::ZERO);
        eng.run_to_quiescence();
        assert_eq!(built.get(), 0, "both sinks off: one branch, the closure never runs");
        assert!(eng.history().is_empty());

        eng.enable_history();
        eng.enable_flight_recorder(8);
        eng.inject(n, n, Ping(0), SimDuration::ZERO);
        eng.run_to_quiescence();
        assert_eq!(built.get(), 1, "both sinks on: built once, shared");
        let [event] = eng.history() else { panic!("one event, got {:?}", eng.history()) };
        assert_eq!(event.downcast::<Mark>(), Some(&Mark("daemon.shed")));
    }

    #[test]
    fn history_and_flight_rings_share_each_event() {
        use crate::flight::TRIGGER_BREAKER_OPEN;

        use crate::history::tests::Mark;

        /// Records one decision per ping; every fifth opens a breaker.
        struct Decider;
        impl Actor<Ping> for Decider {
            fn on_message(&mut self, ctx: &mut Ctx<'_, Ping>, _: NodeId, ping: Ping) {
                let label = if ping.0 % 5 == 4 { TRIGGER_BREAKER_OPEN } else { "op.accepted" };
                ctx.record(|| Mark(label));
            }
        }
        let mut eng = Engine::new(1);
        eng.enable_history();
        eng.enable_flight_recorder(8);
        let nodes = [eng.add_node("a", Decider), eng.add_node("b", Decider)];
        // Two seconds apart, so a node's breakers are 20 s apart and each
        // dumps: the cooldown is 5 s.
        for i in 0..40 {
            let n = nodes[i % 2];
            eng.inject(n, n, Ping(i), SimDuration::from_secs(2 * i as u64));
        }
        // The out-of-band path shares the same body.
        eng.record(nodes[0], || Mark(TRIGGER_BREAKER_OPEN));
        eng.run_to_quiescence();

        let history = eng.history();
        assert_eq!(history.len(), 41);
        assert!(history.iter().zip(0..).all(|(e, seq)| e.seq == seq), "one dense count");
        let dumps = eng.flight_dumps();
        assert_eq!(dumps.len(), 9, "the out-of-band breaker plus eight recorded ones");
        for event in dumps.iter().flat_map(|d| &d.events) {
            let logged = &history[event.seq as usize];
            assert!(Rc::ptr_eq(event, logged), "dump holds a copy of {}", event.render());
            assert_eq!(logged.seq, event.seq);
        }
    }

    // ---- keys on the heap, payloads in the slab ----

    #[test]
    fn a_heap_entry_is_a_key() {
        // Every sift level moves one of these; a backlog moves runs.
        assert!(std::mem::size_of::<Event>() <= 24);
        assert!(std::mem::size_of::<Run>() <= 24);
    }

    #[test]
    fn a_rank_orders_as_its_key() {
        let times = [SimTime::ZERO, SimTime::from_micros(1), SimTime::from_micros(u64::MAX - 1)];
        let seqs = [0, 1, u64::MAX - 1, u64::MAX];
        let keys: Vec<Event> = times
            .into_iter()
            .chain([SimTime::MAX])
            .flat_map(|time| seqs.map(|seq| Event { time, seq, entry: Entry::Slot(0) }))
            .collect();
        for a in &keys {
            for b in &keys {
                assert_eq!(a.cmp(b), a.key().cmp(&b.key()), "{:?} vs {:?}", a.key(), b.key());
                assert_eq!(a == b, a.key() == b.key());
            }
        }
    }

    #[test]
    fn slots_are_reused_not_grown() {
        /// Returns every message to its sender until `left` runs out.
        struct Rally {
            left: u32,
        }
        impl Actor<Ping> for Rally {
            fn on_message(&mut self, ctx: &mut Ctx<'_, Ping>, from: NodeId, msg: Ping) {
                if self.left > 0 {
                    self.left -= 1;
                    ctx.send(from, msg);
                }
            }
        }
        let mut eng = Engine::new(1);
        let a = eng.add_node("a", Rally { left: 50_000 });
        let b = eng.add_node("b", Rally { left: 50_000 });
        eng.link(a, b, fixed_link(10));
        eng.inject(a, b, Ping(8), SimDuration::ZERO);
        assert_eq!(eng.run_to_quiescence(), 2 + 100_001);
        // Two starts and the injected ping were in flight at once; the
        // hundred thousand returns each took the slot just vacated.
        assert_eq!(eng.core.slab.len(), 3);
        eng.assert_every_slot_free();
    }

    // ---- the dispatched key, overwritten in place ----

    /// Returns every message to its sender until `left` runs out, noting
    /// at each the heap's length and whether its head is the key being
    /// dispatched.
    struct Volley {
        left: u32,
        heap: Vec<(usize, bool)>,
    }
    impl Volley {
        fn new(left: u32) -> Self {
            Volley { left, heap: Vec::new() }
        }
    }
    impl Actor<Ping> for Volley {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Ping>, from: NodeId, msg: Ping) {
            self.heap.push((ctx.core.queue.len(), ctx.core.head_taken));
            if self.left > 0 {
                self.left -= 1;
                ctx.send(from, msg);
            }
        }
    }

    /// Arms `n` timers one second apart at start, and ignores them.
    struct Sleeper(u64);
    impl Actor<Ping> for Sleeper {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
            for tag in 1..=self.0 {
                ctx.schedule(SimDuration::from_secs(tag), tag);
            }
        }
        fn on_message(&mut self, _: &mut Ctx<'_, Ping>, _: NodeId, _: Ping) {}
    }

    #[test]
    fn a_follow_up_takes_the_dispatched_keys_place() {
        // Sixteen timers wait seconds out while two nodes rally a ping
        // 1 001 times. Each return is queued in the place of the key that
        // carried it: the heap never grows or shrinks.
        let mut eng = Engine::new(1);
        let a = eng.add_node("a", Volley::new(500));
        let b = eng.add_node("b", Volley::new(500));
        eng.add_node("sleeper", Sleeper(16));
        eng.link(a, b, fixed_link(10));
        eng.inject(a, b, Ping(8), SimDuration::ZERO);
        eng.run_until(SimTime::from_millis(100));
        let heap = |id| eng.actor_ref::<Volley>(id).unwrap().heap.clone();
        let (at_a, at_b) = (heap(a), heap(b));
        assert_eq!((at_a.len(), at_b.len()), (500, 501));
        assert!(at_a.iter().chain(&at_b).all(|&seen| seen == (17, true)), "{at_a:?}");
        assert_eq!(eng.queue_peak(), 17);
    }

    #[test]
    fn a_head_nothing_replaced_is_popped_before_run_until_returns() {
        // The last return schedules nothing: its key must not outlive
        // the call, neither at a horizon nor at quiescence.
        let mut eng = Engine::new(1);
        let a = eng.add_node("a", Volley::new(3));
        let b = eng.add_node("b", Volley::new(3));
        eng.add_node("sleeper", Sleeper(2));
        eng.link(a, b, fixed_link(10));
        eng.inject(a, b, Ping(8), SimDuration::ZERO);
        assert_eq!(eng.run_until(SimTime::from_millis(1)), 3 + 7);
        assert!(!eng.core.head_taken);
        assert_eq!(eng.core.queue.len(), 2, "only the two timers remain");
        eng.inject(b, a, Ping(8), SimDuration::ZERO);
        assert_eq!(eng.run_to_quiescence(), 1 + 2);
        assert!(!eng.core.head_taken);
        eng.assert_every_slot_free();
        eng.inject(a, b, Ping(8), SimDuration::ZERO);
        eng.run_to_quiescence();
        eng.assert_every_slot_free();
    }

    #[test]
    fn the_heap_peak_is_the_popping_loops() {
        // Pinned from the loop that popped each dispatched key before its
        // handler ran. A trickle of one note a microsecond backs up at a
        // server that spends 100 µs on each, so the heap stays short until
        // the crash at 45 hands the backlog back to it; a burst fills the
        // heap before the first event runs.
        let trickle = {
            let mut server = vec![vec![Act::Consume(100)]; 41];
            server[0].clear();
            let mut source = vec![vec![Act::Send { to: SERVER, delay: 0 }, Act::Schedule(1)]; 41];
            source[0] = vec![Act::Schedule(1)];
            let mut s = backlog_scenario(vec![server, source], &[]);
            s.crashes = vec![(SERVER, 45, 60)];
            s
        };
        let burst = {
            let mut server = vec![vec![Act::Consume(10)]; 65];
            server[0].clear();
            let injects: Vec<(u32, u64)> = (0..64).map(|i| (i, u64::from(i % 3))).collect();
            backlog_scenario(vec![server, vec![]], &injects)
        };
        let peaks = [trickle, burst].map(|s| s.agree().1.queue_peak());
        assert_eq!(peaks, [41, 66]);
    }

    // ---- busy-node backlog: each quirk of the deferral order, pinned by
    // name and held to the re-push reference loop (`Scenario::agree`) ----

    const SERVER: u32 = 0;
    const SOURCE: u32 = 1;

    /// A server (node 0) and a source (node 1) 10 µs apart, every other
    /// pair of nodes 5 µs apart; `injects` are `(note, delay)` from the
    /// source, in departure order (a link transmits in send order). The
    /// server's first handler invocation is its `on_start`.
    fn backlog_scenario(scripts: Vec<Vec<Vec<Act>>>, injects: &[(u32, u64)]) -> Scenario {
        let n = scripts.len();
        let exact = |us| LinkSpec::loopback().with_latency(SimDuration::from_micros(us));
        let mut links = vec![exact(5); n * (n - 1) / 2];
        links[0] = exact(10);
        Scenario {
            seed: 1,
            scripts,
            links,
            injects: injects.iter().map(|&(note, delay)| (SOURCE, SERVER, note, delay)).collect(),
            crashes: vec![],
            horizons: vec![],
        }
    }

    /// `(µs, note)` of every message the server handled, in order.
    fn server_messages(seen: &[reference::Seen]) -> Vec<(u64, u64)> {
        seen.iter().filter(|s| s.1 == "message").map(|s| (s.0.as_micros(), s.3)).collect()
    }

    #[test]
    fn native_arrival_at_free_instant_overtakes_parked() {
        // Note 1 keeps the server busy 10..110. Note 2 arrives at 30 and is
        // parked for 110 under a seq drawn at 30; note 3 was created (at
        // inject time, an older seq) to arrive at exactly 110, so it runs
        // first and note 2 waits out its 5 µs as well.
        let server = vec![vec![], vec![Act::Consume(100)], vec![Act::Consume(5)]];
        let s = backlog_scenario(vec![server, vec![]], &[(1, 0), (2, 20), (3, 100)]);
        let (outcome, _) = s.agree();
        assert_eq!(server_messages(&outcome.seen[0]), vec![(10, 1), (110, 3), (115, 2)]);
    }

    #[test]
    fn crashed_backlog_is_dropped_at_its_parked_instant() {
        // Note 2 is parked for 110 when the server crashes at 50. It
        // restarts at 60; the source then sends two notes (sent earlier,
        // they would carry the dead incarnation's epoch). The server
        // handles the first at 70 for 20 µs and parks the second for 90 —
        // an instant *before* the old backlog's. Note 2 is still dropped,
        // and counted, at 110: not at the crash, not by 100.
        let server = vec![vec![], vec![Act::Consume(100)], vec![], vec![Act::Consume(20)]];
        let source = vec![
            vec![Act::Schedule(60)],
            vec![Act::Send { to: SERVER, delay: 0 }, Act::Send { to: SERVER, delay: 5 }],
        ];
        let mut s = backlog_scenario(vec![server, source], &[(1, 0), (2, 20)]);
        s.crashes = vec![(SERVER, 50, 60)];
        s.horizons = vec![100, 110];
        let (outcome, _) = s.agree();
        let drops = |i: usize| {
            let counters = &outcome.checkpoints[i].1;
            counters.iter().find(|(k, _)| k == "engine.down_drops").map_or(0, |(_, v)| *v)
        };
        assert_eq!((drops(0), drops(1), drops(2)), (0, 1, 1));
        assert_eq!(server_messages(&outcome.seen[0]), vec![(10, 1), (70, 10_001), (90, 10_002)]);
    }

    #[test]
    fn every_slot_is_free_at_quiescence() {
        // A backlog holding a timer, and a wedged foreign timer: each
        // payload leaves the slab exactly once, however many times its key
        // was re-stamped, rotated or re-armed behind a wake.
        let server = vec![vec![], vec![Act::Schedule(5), Act::Consume(100)], vec![Act::Consume(5)]];
        let bystander = vec![vec![Act::Schedule(110)], vec![Act::Send { to: SERVER, delay: 0 }]];
        let s =
            backlog_scenario(vec![server, vec![], bystander], &[(1, 0), (2, 2), (4, 20), (3, 100)]);
        let (_, eng) = s.agree();
        assert_eq!(eng.parked_peak(NodeId(SERVER)), 3);
        eng.assert_every_slot_free();
    }

    #[test]
    fn a_crash_frees_the_backlogs_slots() {
        // Notes 2 and 3 are parked for 110 when the server crashes at 50.
        // Their keys go back on the heap and their payloads stay put until
        // 110, where they surface, are discarded and free their slots.
        let server = vec![vec![], vec![Act::Consume(100)]];
        let mut s = backlog_scenario(vec![server, vec![]], &[(1, 0), (2, 20), (3, 30)]);
        s.crashes = vec![(SERVER, 50, 60)];
        let mut eng = s.build();
        eng.run_until(SimTime::from_micros(45));
        assert_eq!(eng.core.nodes[SERVER as usize].parked.len(), 2);
        eng.run_until(SimTime::from_micros(100));
        assert!(eng.core.nodes[SERVER as usize].parked.slots.is_empty());
        let live = eng.core.slab.iter().flatten().count();
        assert_eq!((live, eng.stats().counter("engine.down_drops")), (2, 0));
        eng.run_to_quiescence();
        assert_eq!(eng.stats().counter("engine.down_drops"), 2);
        eng.assert_every_slot_free();
    }

    #[test]
    fn run_until_horizon_splits_a_backlog() {
        // Five notes, 10 µs of CPU each, all arrived by 14: handled at
        // 10, 20, 30, 40, 50. A horizon at 35 cuts the drain after three.
        let mut server = vec![vec![Act::Consume(10)]; 6];
        server[0].clear();
        let mut s =
            backlog_scenario(vec![server, vec![]], &[(1, 0), (2, 1), (3, 2), (4, 3), (5, 4)]);
        s.horizons = vec![35];
        let (outcome, _) = s.agree();
        assert_eq!(
            server_messages(&outcome.seen[0]),
            vec![(10, 1), (20, 2), (30, 3), (40, 4), (50, 5)]
        );
        let mut eng = s.build();
        eng.run_until(SimTime::from_micros(35));
        let handled = |eng: &Engine<Note>| {
            server_messages(&eng.actor_ref::<Scripted>(NodeId(SERVER)).unwrap().seen).len()
        };
        assert_eq!((handled(&eng), eng.now()), (3, SimTime::from_micros(35)));
        eng.run_until(SimTime::from_micros(45));
        assert_eq!(handled(&eng), 4);
        eng.run_to_quiescence();
        assert_eq!((handled(&eng), eng.now()), (5, SimTime::from_micros(50)));
    }

    #[test]
    fn events_processed_counts_each_event_once() {
        // 2 starts + 64 deliveries, however often the 63 that waited were
        // re-stamped; the re-push loop counted every resurfacing.
        let mut server = vec![vec![Act::Consume(10)]; 65];
        server[0].clear();
        let injects: Vec<(u32, u64)> = (0..64).map(|i| (i, 0)).collect();
        let s = backlog_scenario(vec![server, vec![]], &injects);
        let (_, parked) = s.play(Engine::run_until);
        let (_, repushed) = s.play(Engine::run_until_reference);
        assert_eq!(parked.events_processed(), 66);
        assert_eq!(repushed.events_processed(), 66 + 63 * 64 / 2);
        assert_eq!(parked.parked_peak(NodeId(SERVER)), 63);
        assert!(parked.queue_peak() <= 66, "heap held {} entries", parked.queue_peak());
    }

    #[test]
    fn a_long_burst_drains_as_one_run() {
        // 4 096 notes reach the server at 10, where it spends 1 µs on
        // each: 4 095 of them wait, and each pass re-stamps them all at
        // once, as the one run they were parked as.
        let mut server = vec![vec![Act::Consume(1)]; 4097];
        server[0].clear();
        let injects: Vec<(u32, u64)> = (0..4096).map(|i| (i, 0)).collect();
        let s = backlog_scenario(vec![server, vec![]], &injects);
        s.agree();
        let mut runs = 0;
        let (outcome, eng) = s.play(|eng, limit| {
            eng.run_observed(limit, |state, _| runs = runs.max(state.parked.runs.len()), |_, _| {})
        });
        assert_eq!(server_messages(&outcome.seen[0]).last(), Some(&(4105, 4095)));
        assert_eq!(eng.parked_peak(NodeId(SERVER)), 4095);
        assert!(runs <= 2, "a pass read {runs} runs");
    }

    #[test]
    fn bulk_restamp_stops_at_a_wedged_foreign_event() {
        // Server busy 10..110; notes 2 and 3 park for 110 at 20 and 40.
        // In between, at 30, node 2 arms a timer for exactly 110, so its
        // key is wedged between the two parked entries. Note 4, native at
        // 110, runs first and keeps the server busy until 115. The bulk
        // pass may re-stamp note 2 only: the wedged timer's handler runs
        // next and sends note 20000, which reaches the server at 115 with
        // a seq after note 2's new one and before note 3's. Re-stamping
        // both in one pass would have put 20000 last.
        let server = vec![vec![], vec![Act::Consume(100)], vec![Act::Consume(5)]];
        let bystander = vec![
            vec![Act::Schedule(30)],
            vec![Act::Schedule(80)],
            vec![Act::Draw, Act::Send { to: SERVER, delay: 0 }],
        ];
        let s = backlog_scenario(
            vec![server, vec![], bystander],
            &[(1, 0), (2, 10), (3, 30), (4, 100)], // in departure order
        );
        let (outcome, _) = s.agree();
        assert_eq!(
            server_messages(&outcome.seen[0]),
            vec![(10, 1), (110, 4), (115, 2), (115, 20_002), (115, 3)]
        );
    }
}
