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
//! * The heap and the parked queues below hold *keys* — `(time, seq)` and
//!   a slot number, 24 bytes — and the payloads (a `wire::Envelope` is
//!   240 bytes) stay put in a slab, so a sift, a re-stamp or a rotation
//!   moves keys only. A slot is live exactly while its key is on the heap
//!   or in a parked queue: `step` reads the payload where it lies to
//!   decide between park, dispatch and discard, and moves it out once, on
//!   the latter two. Freed slots are reused last-freed-first, so the slab
//!   stops growing at the peak number of events in flight and a steady
//!   run allocates nothing per event (a `Box` per event would). Nothing
//!   compares a slot number, so the schedule does not depend on them.
//! * A deferred event is *parked* in its node's own queue under the key
//!   `(busy_until, fresh seq)` it would carry on the global heap, and the
//!   heap holds one wake entry per backlogged node, at the key of that
//!   node's parked head. The next event overall is still the smallest key
//!   anywhere, so dispatch order, counters, RNG draws and timestamps are
//!   those of pushing every deferred event back through the heap. When a
//!   wake finds the node busy again, the parked entries sorting before
//!   the heap's head are re-stamped in place in one pass: no handler can
//!   run between them, so one by one they would have drawn the same
//!   consecutive seqs. An entry with a foreign event wedged before it
//!   waits behind its own wake.
//! * A crash puts the node's backlog back on the heap under the keys it
//!   holds: it is discarded (and `engine.down_drops` counted) at the
//!   instant it was parked for, not at the crash.
//! * [`Engine::events_processed`] and the event limit count each event
//!   once, when it is dispatched or discarded, not per resurfacing.
//! * Links add transmit time (size/bandwidth, with a per-direction
//!   transmitter that serializes back-to-back sends), propagation latency,
//!   optional jitter and loss.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet, VecDeque};
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::actor::{Actor, Payload};
use crate::flight::{FlightConfig, FlightDump, FlightRecorder};
use crate::history::{HistoryEvent, HistoryLog};
use crate::link::{LinkSpec, LinkState, LinkStats};
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

/// Handle for cancelling a scheduled timer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerId(u64);

/// Minimum delivery delay for a node sending to itself with no explicit
/// loopback link. Non-zero so that self-messaging always advances time.
const SELF_SEND_LATENCY: SimDuration = SimDuration::from_micros(1);

enum EventKind<M> {
    Deliver { from: NodeId, to: NodeId, msg: M, epoch: u64 },
    Timer { node: NodeId, tag: u64, id: u64, epoch: u64 },
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

/// A queued event's key. The global heap and the parked queues order and
/// move these; the payload stays in its slab slot until it is dispatched
/// or dropped.
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
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        self.key().cmp(&other.key())
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
    /// Keys of the events that found this node busy, in key order.
    /// Non-empty only while the node is up, and then every entry's
    /// payload carries its epoch.
    parked: VecDeque<Event>,
    parked_peak: usize,
}

/// Everything the engine owns *except* the actors themselves; handlers get
/// `&mut Core` through [`Ctx`] while their actor is temporarily detached.
struct Core<M> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<Event>>,
    /// Payloads of the queued events. A slot is live exactly while its key
    /// is on the heap or in a parked queue; `free` lists the others, last
    /// freed first, so the slab grows only to the peak number of events
    /// in flight.
    slab: Vec<Option<EventKind<M>>>,
    free: Vec<u32>,
    nodes: Vec<NodeState>,
    links: HashMap<(u32, u32), LinkState>,
    /// Timed partition windows keyed by unordered node pair; traffic in
    /// either direction departing inside a window is dropped.
    partitions: HashMap<(u32, u32), Vec<(SimTime, SimTime)>>,
    rng: StdRng,
    /// One registry per node, parallel to `nodes`: the only store of
    /// every counter, gauge and timer a node writes (`Ctx::metrics`).
    node_metrics: Vec<MetricsRegistry>,
    tracer: Tracer,
    history: HistoryLog,
    flight: FlightRecorder,
    cancelled_timers: HashSet<u64>,
    next_timer_id: u64,
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

    fn enqueue(&mut self, ev: Event) {
        self.queue.push(Reverse(ev));
        self.queue_peak = self.queue_peak.max(self.queue.len());
    }

    /// Hold an event that found `node` busy in the node's own queue, under
    /// the key a push back onto the heap at `until` would have drawn.
    fn park(&mut self, node: NodeId, until: SimTime, slot: u32) {
        let seq = self.seq;
        self.seq += 1;
        let state = &mut self.nodes[node.index()];
        debug_assert!(state.parked.back().is_none_or(|last| last.key() < (until, seq)));
        state.parked.push_back(Event { time: until, seq, entry: Entry::Slot(slot) });
        state.parked_peak = state.parked_peak.max(state.parked.len());
        if state.parked.len() == 1 {
            self.enqueue(Event { time: until, seq, entry: Entry::Wake(node) });
        }
    }

    /// The next event overall, if it is `node`'s parked head; otherwise
    /// re-arm the node's wake (if a backlog remains) and return `None`.
    /// A parked entry is next when it sorts before `horizon`: the heap's
    /// head, or the end of the run. While the node is busy past such
    /// entries they are first re-stamped where they lie and rotated
    /// behind whatever was already parked for `busy_until`; the pass
    /// stops at an entry that must take the ordinary path (the node is
    /// free at its instant, or it is a cancelled timer) or is not next.
    fn next_parked(&mut self, node: NodeId, limit: SimTime) -> Option<Event> {
        let run_end = (limit, u64::MAX);
        let horizon = self.queue.peek().map_or(run_end, |Reverse(head)| head.key().min(run_end));
        let state = &mut self.nodes[node.index()];
        let busy = state.busy_until;
        let (slab, cancelled) = (&self.slab, &self.cancelled_timers);
        let cancelled_timer = |entry| {
            let Entry::Slot(slot) = entry else { return false };
            matches!(&slab[slot as usize], Some(EventKind::Timer { id, .. }) if cancelled.contains(id))
        };
        // Decided once, outside the loop: with no cancellation outstanding
        // the pass reads and writes keys alone.
        let any_cancelled = !cancelled.is_empty();
        let mut restamped = 0;
        for ev in state.parked.iter_mut() {
            if ev.key() >= horizon || ev.time >= busy {
                break;
            }
            if any_cancelled && cancelled_timer(ev.entry) {
                break;
            }
            debug_assert!(ev.time <= self.now);
            (ev.time, ev.seq) = (busy, self.seq);
            self.seq += 1;
            restamped += 1;
        }
        state.parked.rotate_left(restamped);
        let (time, seq) = state.parked.front()?.key();
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
    pub fn schedule(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let id = self.core.next_timer_id;
        self.core.next_timer_id += 1;
        let time = self.local_now + delay;
        let epoch = self.core.nodes[self.me.index()].epoch;
        self.core.push(time, EventKind::Timer { node: self.me, tag, id, epoch });
        TimerId(id)
    }

    /// Cancel a previously scheduled timer (no-op if already fired).
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.core.cancelled_timers.insert(id.0);
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

    /// Whether span collection is on (see `Engine::enable_tracing`).
    pub fn tracing_enabled(&self) -> bool {
        self.core.tracer.enabled()
    }

    /// Open a root span (new trace) on this node at the local clock.
    /// `None` when tracing is disabled.
    pub fn trace_root(&mut self, name: &str) -> Option<TraceContext> {
        let core = &mut *self.core;
        core.tracer.start_root(name, &core.nodes[self.me.index()].name, self.local_now)
    }

    /// Open a child span under `parent` on this node. Passes `None`
    /// through so call sites can chain optional contexts untraced.
    pub fn trace_child(&mut self, parent: Option<TraceContext>, name: &str) -> Option<TraceContext> {
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

    /// Whether history recording is on (see `Engine::enable_history`).
    pub fn history_enabled(&self) -> bool {
        self.core.history.enabled()
    }

    /// Record a semantic decision point into the history log and the
    /// flight recorder. While both are off this is one branch: the
    /// arguments are formatted only past it, so call sites pass
    /// `format_args!`, not `format!`. Never touches the RNG, the queue, or
    /// the wire, so recorded and unrecorded runs share one event schedule.
    pub fn record_history(
        &mut self,
        label: &'static str,
        subject: impl fmt::Display,
        actor: impl fmt::Display,
        detail: impl fmt::Display,
    ) {
        let core = &mut *self.core;
        if !core.history.enabled() && !core.flight.enabled() {
            return;
        }
        let subject = subject.to_string();
        let actor = actor.to_string();
        let detail = detail.to_string();
        let fired = core.flight.observe(self.local_now, self.me, label, &subject, &actor, &detail);
        if fired > 0 {
            core.metrics(self.me).add(names::ENGINE_FLIGHT_DUMPS, fired as u64);
        }
        core.history.record(self.local_now, self.me, label, subject, actor, detail);
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
            core.tracer.record_window(
                parent,
                name,
                &core.nodes[self.me.index()].name,
                start,
                end,
            );
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
                slab: Vec::new(),
                free: Vec::new(),
                nodes: Vec::new(),
                links: HashMap::new(),
                partitions: HashMap::new(),
                rng: StdRng::seed_from_u64(seed),
                node_metrics: Vec::new(),
                tracer: Tracer::new(),
                history: HistoryLog::new(),
                flight: FlightRecorder::new(),
                cancelled_timers: HashSet::new(),
                next_timer_id: 0,
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
            parked: VecDeque::new(),
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

    /// Install a single directed link (rarely needed; tests use it to make
    /// asymmetric paths).
    pub fn link_directed(&mut self, from: NodeId, to: NodeId, spec: LinkSpec) {
        self.core.install_link(from, to, spec);
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

    /// True unless the node is currently crashed.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.core.nodes[node.index()].up
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

    /// Cap the total number of events processed (live-lock guard in
    /// tests); the engine panics if exceeded.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.core.event_limit = limit;
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

    /// Largest number of entries the global event heap has held.
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
        self.core.history.enable();
    }

    /// Every recorded history event, in execution order.
    pub fn history(&self) -> &[HistoryEvent] {
        self.core.history.events()
    }

    /// The full history log as deterministic text (byte-identical across
    /// same-seed runs).
    pub fn history_rendered(&self) -> String {
        self.core.history.render()
    }

    /// Record a history event from outside the simulation, attributed to
    /// `node` at the global clock — for harnesses applying out-of-band
    /// admin actions (ACL revocations, forced state edits) between run
    /// steps, so oracles still see them in the one ordered log.
    pub fn record_history(
        &mut self,
        node: NodeId,
        label: &'static str,
        subject: impl Into<String>,
        actor: impl Into<String>,
        detail: impl Into<String>,
    ) {
        let now = self.core.now;
        let subject = subject.into();
        let actor = actor.into();
        let detail = detail.into();
        let fired = self.core.flight.observe(now, node, label, &subject, &actor, &detail);
        if fired > 0 {
            self.core.metrics(node).add(names::ENGINE_FLIGHT_DUMPS, fired as u64);
        }
        self.core.history.record(now, node, label, subject, actor, detail);
    }

    /// Turn on the anomaly flight recorder (see [`crate::flight`]). Off
    /// by default; like history recording it appends to internal buffers
    /// only, so the event schedule is identical either way.
    pub fn enable_flight_recorder(&mut self, config: FlightConfig) {
        self.core.flight.enable(config);
    }

    /// Whether the flight recorder is on.
    pub fn flight_enabled(&self) -> bool {
        self.core.flight.enabled()
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

    /// Force a flight dump of `node`'s ring under `trigger` at the global
    /// clock — harnesses call this when an oracle fails so the repro
    /// ships with each node's recent past. Counted under
    /// `engine.flight_dumps` like triggered dumps. No-op while the
    /// recorder is off.
    pub fn flight_force_dump(&mut self, node: NodeId, trigger: &str) {
        let now = self.core.now;
        let fired = self.core.flight.force_dump(node, now, trigger);
        if fired > 0 {
            self.core.metrics(node).add(names::ENGINE_FLIGHT_DUMPS, fired as u64);
        }
    }

    /// One node's metrics registry.
    pub fn node_metrics(&self, id: NodeId) -> &MetricsRegistry {
        &self.core.node_metrics[id.index()]
    }

    /// Traffic accounting for the directed link `from -> to`.
    pub fn link_stats(&self, from: NodeId, to: NodeId) -> Option<LinkStats> {
        self.core.links.get(&(from.0, to.0)).map(|l| LinkStats {
            msgs: l.msgs,
            bytes: l.bytes,
            dropped: l.lost + l.partitioned,
        })
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
        let before = self.core.events_processed;
        // The node whose wake surfaced last, for as long as its parked
        // entries remain the next events overall.
        let mut draining = None;
        loop {
            let next = match draining {
                Some(node) => self.core.next_parked(node, limit),
                None => match self.core.queue.peek() {
                    Some(Reverse(head)) if head.time <= limit => {
                        self.core.queue.pop().map(|Reverse(ev)| ev)
                    }
                    _ => break,
                },
            };
            match next {
                None => draining = None,
                Some(Event { entry: Entry::Wake(node), seq, .. }) => {
                    // A crash hands the backlog back to the heap and
                    // leaves its wake behind: that one matches no head.
                    let head = self.core.nodes[node.index()].parked.front();
                    if head.map(|head| head.seq) == Some(seq) {
                        draining = Some(node);
                    }
                }
                Some(Event { entry: Entry::Slot(slot), time, .. }) => self.step(time, slot),
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
            EventKind::Deliver { to, epoch, .. } => Some((*to, *epoch, false)),
            EventKind::Timer { node, id, epoch, .. } => {
                Some((*node, *epoch, core.cancelled_timers.remove(id)))
            }
            _ => None,
        };
        // A delivery or timer is live unless it was cancelled, or stamped
        // by an incarnation of its node that has since crashed.
        let mut live = true;
        if let Some((node, epoch, cancelled)) = addressed {
            let state = &core.nodes[node.index()];
            live = !cancelled && state.up && state.epoch == epoch;
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
            // Cancelled, or armed by an incarnation that crashed.
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
                    for parked in std::mem::take(&mut state.parked) {
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
        eng.link(a, b, fixed_link(0).with_bandwidth_bps(1_000_000));
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
    fn timers_fire_and_cancel() {
        struct TimerUser {
            fired: Vec<u64>,
        }
        impl Actor<Ping> for TimerUser {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
                ctx.schedule(SimDuration::from_millis(5), 1);
                let t = ctx.schedule(SimDuration::from_millis(6), 2);
                ctx.cancel_timer(t);
                ctx.schedule(SimDuration::from_millis(7), 3);
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
        eng.link(a, b, fixed_link(10).with_loss(0.5).with_label("lossy"));
        for _ in 0..200 {
            eng.inject(a, b, Ping(1), SimDuration::ZERO);
        }
        eng.run_to_quiescence();
        let delivered = eng.actor_ref::<Collector>(b).unwrap().arrivals.len() as u64;
        let ls = eng.link_stats(a, b).unwrap();
        assert_eq!(delivered, ls.msgs);
        assert_eq!(ls.msgs + ls.dropped, 200);
        assert!(ls.dropped > 50 && ls.dropped < 150, "loss far from 50%: {}", ls.dropped);
        assert_eq!(eng.stats().counter("link.lossy.dropped"), ls.dropped);
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
        assert!(!eng.is_up(beacon));
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
        assert!(eng.is_up(beacon));
    }

    #[test]
    fn partition_window_blocks_then_heals() {
        let mut eng = Engine::new(1);
        let a = eng.add_node("a", Collector { arrivals: vec![] });
        let b = eng.add_node("b", Collector { arrivals: vec![] });
        eng.link(a, b, fixed_link(10).with_label("pair"));
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
        eng.link(a, b, fixed_link(10).with_label("pair"));
        for _ in 0..3 {
            eng.inject(a, b, Ping(100), SimDuration::ZERO);
        }
        eng.run_to_quiescence();
        eng.link(a, b, fixed_link(20).with_label("pair"));
        eng.inject(a, b, Ping(50), SimDuration::ZERO);
        eng.run_to_quiescence();
        assert_eq!(eng.actor_ref::<Collector>(b).unwrap().arrivals.len(), 4);
        let ls = eng.link_stats(a, b).unwrap();
        assert_eq!((ls.msgs, ls.bytes, ls.dropped), (4, 350, 0));
        let stats = eng.stats();
        assert_eq!((stats.counter("link.pair.msgs"), stats.counter("link.pair.bytes")), (4, 350));
    }

    #[test]
    fn link_keys_appear_once_they_count_something() {
        let mut eng = Engine::new(1);
        let a = eng.add_node("a", Collector { arrivals: vec![] });
        let b = eng.add_node("b", Collector { arrivals: vec![] });
        let c = eng.add_node("c", Collector { arrivals: vec![] });
        eng.link(a, b, fixed_link(10).with_label("pair"));
        eng.link(a, c, fixed_link(10).with_label("idle"));
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
                let n = eng.add_node(
                    format!("b{i}"),
                    Beacon { peer: sink, restarts: 0, ticks: 0 },
                );
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
        eng.set_event_limit(1_000);
        eng.run_to_quiescence();
        assert_eq!(eng.actor_ref::<SelfTalker>(n).unwrap().count, 10);
        assert!(eng.now() >= SimTime::from_micros(10));
    }

    #[test]
    fn a_disarmed_record_history_formats_nothing() {
        use std::cell::Cell;
        use std::rc::Rc;

        /// Counts how often it is formatted.
        struct Counted(Rc<Cell<u32>>);
        impl fmt::Display for Counted {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.set(self.0.get() + 1);
                f.write_str("k=v")
            }
        }
        struct Recorder(Rc<Cell<u32>>);
        impl Actor<Ping> for Recorder {
            fn on_message(&mut self, ctx: &mut Ctx<'_, Ping>, _: NodeId, _: Ping) {
                ctx.record_history("daemon.shed", "app", "user", Counted(self.0.clone()));
            }
        }
        let formatted = Rc::new(Cell::new(0));
        let mut eng = Engine::new(1);
        let n = eng.add_node("n", Recorder(formatted.clone()));
        eng.inject(n, n, Ping(0), SimDuration::ZERO);
        eng.run_to_quiescence();
        assert_eq!(formatted.get(), 0, "both sinks off: one branch, no formatting");
        assert!(eng.history().is_empty());

        eng.enable_history();
        eng.enable_flight_recorder(FlightConfig::default());
        eng.inject(n, n, Ping(0), SimDuration::ZERO);
        eng.run_to_quiescence();
        assert_eq!(formatted.get(), 1, "both sinks on: formatted once, shared");
        let [event] = eng.history() else { panic!("one event, got {:?}", eng.history()) };
        assert_eq!(
            (event.label, &*event.subject, &*event.actor, &*event.detail),
            ("daemon.shed", "app", "user", "k=v")
        );
    }

    // ---- keys on the heap, payloads in the slab ----

    #[test]
    fn a_heap_entry_is_a_key() {
        // Every sift level and every parked rotation moves one of these.
        assert!(std::mem::size_of::<Event>() <= 24);
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
    fn timer_cancelled_while_parked_never_fires() {
        // At 10 the server arms a timer for 15 and goes busy until 110.
        // Note 2 (at 12), the timer (at 15) and note 4 (at 30) park for 110
        // in that order. Note 3, native at 110, cancels the timer and
        // consumes 5: the bulk pass re-stamps note 2, stops at the
        // cancelled timer, which is discarded, and re-stamps note 4.
        let server = vec![
            vec![],
            vec![Act::Schedule { delay: 5, keep: true }, Act::Consume(100)],
            vec![Act::Cancel, Act::Consume(5)],
        ];
        let s = backlog_scenario(
            vec![server.clone(), vec![]],
            &[(1, 0), (2, 2), (4, 20), (3, 100)],
        );
        let (outcome, eng) = s.agree();
        assert!(outcome.seen[0].iter().all(|s| s.1 != "timer"), "{:?}", outcome.seen[0]);
        assert_eq!(server_messages(&outcome.seen[0]), vec![(10, 1), (110, 3), (115, 2), (115, 4)]);
        assert_eq!(eng.parked_peak(NodeId(SERVER)), 3);
        // Alone in the backlog, the timer is discarded at 110, where it
        // surfaced cancelled — not carried to 115: the run ends at 110.
        let s = backlog_scenario(vec![server, vec![]], &[(1, 0), (3, 100)]);
        let (outcome, _) = s.agree();
        assert_eq!(outcome.checkpoints.last().unwrap().0, SimTime::from_micros(110));
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
            vec![Act::Schedule { delay: 60, keep: false }],
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
        // A backlog, a timer cancelled while parked and a wedged foreign
        // timer: each payload leaves the slab exactly once, however many
        // times its key was re-stamped, rotated or re-armed behind a wake.
        let server = vec![
            vec![],
            vec![Act::Schedule { delay: 5, keep: true }, Act::Consume(100)],
            vec![Act::Cancel, Act::Consume(5)],
        ];
        let bystander = vec![
            vec![Act::Schedule { delay: 110, keep: false }],
            vec![Act::Send { to: SERVER, delay: 0 }],
        ];
        let s = backlog_scenario(
            vec![server, vec![], bystander],
            &[(1, 0), (2, 2), (4, 20), (3, 100)],
        );
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
        assert!(eng.core.nodes[SERVER as usize].parked.is_empty());
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
        let mut s = backlog_scenario(
            vec![server, vec![]],
            &[(1, 0), (2, 1), (3, 2), (4, 3), (5, 4)],
        );
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
            vec![Act::Schedule { delay: 30, keep: false }],
            vec![Act::Schedule { delay: 80, keep: false }],
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
