//! Client-side request broker: issues GIOP requests, correlates replies,
//! retries calls whose target never answered (exponential backoff with
//! deterministic jitter), and trips a per-peer circuit breaker when a
//! callee keeps failing.
//!
//! Each DISCOVER server embeds one [`Broker`] per simulation actor. The
//! generic parameter `T` is the caller's continuation context — whatever
//! it needs to resume processing when the reply (or timeout) arrives.
//!
//! A continuation leaves the broker by exactly one of three doors, and
//! the caller owes it an ending at each: [`Broker::call`] refuses it
//! (`Err(user)`, breaker open, nothing sent), [`Broker::complete`] hands
//! it back with its reply, or [`Broker::sweep_expired`] lists it in
//! `gave_up` (a call whose deadline passed first is also listed once in
//! `lapsed`, and stays pending). There is one two-way `call`; span context
//! and deadline stamp are its two optional riders, not separate entry
//! points.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::Rng;
use simnet::{Ctx, NodeId, SimDuration, SimTime, TraceContext};
use wire::giop::GiopFrame;
use wire::{DeadlineStamp, Envelope, Name, ObjectKey, PeerMsg};

use crate::directory::Call;

/// Backoff before the first retry; doubles each further attempt.
const BASE_BACKOFF: SimDuration = SimDuration::from_millis(200);
/// Backoff ceiling.
const MAX_BACKOFF: SimDuration = SimDuration::from_secs(2);
/// Fraction of the backoff added as random jitter, drawn from the
/// simulation RNG so runs stay deterministic.
const JITTER_FRAC: f64 = 0.25;
/// Consecutive failures that trip a callee's breaker.
const FAILURE_THRESHOLD: u32 = 4;
/// How long an open breaker rejects calls before admitting a probe.
const OPEN_FOR: SimDuration = SimDuration::from_secs(15);

/// The deterministic (pre-jitter) backoff before retry number `attempt`
/// (the first retry is attempt 2): `BASE_BACKOFF * 2^(attempt-2)`, capped
/// at `MAX_BACKOFF`.
fn backoff(attempt: u32) -> SimDuration {
    let doublings = attempt.saturating_sub(2).min(32);
    (BASE_BACKOFF * (1u64 << doublings)).min(MAX_BACKOFF)
}

/// Backoff plus jitter drawn from `rng`.
fn backoff_jittered(attempt: u32, rng: &mut StdRng) -> SimDuration {
    let base = backoff(attempt);
    let spread = (base.as_micros() as f64 * JITTER_FRAC) as u64;
    base + SimDuration::from_micros(rng.gen_range(0..=spread))
}

/// Observable circuit-breaker state for one callee.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow normally.
    #[default]
    Closed,
    /// Calls are rejected until the embedded deadline.
    Open {
        /// When the breaker next admits a probe call.
        until: SimTime,
    },
    /// One probe window: the next outcome closes or re-opens the breaker.
    HalfOpen,
}

/// As a peer's line of the `Status` report shows it.
impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakerState::Closed => f.write_str("closed"),
            BreakerState::HalfOpen => f.write_str("half-open"),
            BreakerState::Open { until } => write!(f, "open(until={}us)", until.as_micros()),
        }
    }
}

#[derive(Debug, Default)]
struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
}

/// An outstanding two-way call.
#[derive(Debug)]
pub struct Pending<T> {
    /// Caller context to resume with.
    pub user: T,
    /// When the call was issued.
    pub issued_at: SimTime,
    /// Callee node.
    pub to: NodeId,
    /// Operation name (diagnostics).
    pub operation: &'static str,
    /// Servant the request targets (kept so the call can be re-issued).
    pub key: ObjectKey,
    /// The request body (kept so the call can be re-issued).
    pub msg: PeerMsg,
    /// Send attempts made so far (1 for the initial send).
    pub attempt: u32,
    /// Open `orb.call` span for this logical call; stamped onto every
    /// (re-)issued request envelope, finished by the caller when the
    /// reply arrives or the call gives up.
    pub trace: Option<TraceContext>,
    /// End-to-end deadline riding this logical call; propagated onto
    /// every (re-)issued request envelope and consulted by the retry
    /// sweep so no attempt is ever scheduled past it.
    pub deadline: Option<DeadlineStamp>,
    /// Listed in [`SweepReport::lapsed`]: never retried, kept only so its
    /// reply or timeout still judges the callee.
    pub lapsed: bool,
}

/// Outcome of a [`Broker::sweep_expired`] pass.
#[derive(Debug)]
pub struct SweepReport<T> {
    /// Callee of each call re-issued with backoff, one entry per retry
    /// (peer-health bookkeeping).
    pub retried_to: Vec<NodeId>,
    /// Breakers that tripped open during this sweep.
    pub opened: u32,
    /// Calls that exhausted their attempts (or hit an open breaker);
    /// the caller must fail these.
    pub gave_up: Vec<(u64, Pending<T>)>,
    /// How many of `gave_up` still had attempts left but no deadline
    /// budget for another backoff (the caller should fail these with a
    /// remaining-budget / `DeadlineExceeded` error, not a timeout).
    pub deadline_gave_up: u32,
    /// Calls whose deadline passed before their reply or timeout, listed
    /// once (continuation, span) for the caller to answer
    /// `DeadlineExceeded` now; they still end like any other call.
    pub lapsed: Vec<(T, Option<TraceContext>)>,
}

/// Send attempts per logical call, the first included, unless a caller
/// asks for another number.
pub const DEFAULT_MAX_ATTEMPTS: u32 = 3;

/// Request-id allocator plus pending-call table, retry engine, and
/// per-peer circuit breakers.
pub struct Broker<T> {
    next_id: u64,
    pending: BTreeMap<u64, Pending<T>>,
    breakers: BTreeMap<NodeId, Breaker>,
    /// Total send attempts per logical call, applied by
    /// [`Broker::sweep_expired`] (1 = no retries: an expired call fails
    /// at once).
    max_attempts: u32,
}

impl<T> Default for Broker<T> {
    fn default() -> Self {
        Self::with_max_attempts(DEFAULT_MAX_ATTEMPTS)
    }
}

impl<T> Broker<T> {
    /// Create an empty broker that makes [`DEFAULT_MAX_ATTEMPTS`] attempts
    /// per call.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty broker that makes `max_attempts` attempts per call.
    pub fn with_max_attempts(max_attempts: u32) -> Self {
        Broker { next_id: 0, pending: BTreeMap::new(), breakers: BTreeMap::new(), max_attempts }
    }

    /// Current breaker state for `to` (Closed if never failed).
    pub fn breaker_state(&self, to: NodeId) -> BreakerState {
        self.breakers.get(&to).map(|b| b.state).unwrap_or(BreakerState::Closed)
    }

    /// Whether the breaker admits a call to `to` at `now`. An expired
    /// open breaker transitions to half-open and admits one probe.
    fn admits(&mut self, now: SimTime, to: NodeId) -> bool {
        let Some(b) = self.breakers.get_mut(&to) else { return true };
        match b.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open { until } => {
                if now >= until {
                    b.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record a call outcome against the breaker; returns true if this
    /// failure tripped the breaker open.
    fn record_outcome(&mut self, now: SimTime, to: NodeId, ok: bool) -> bool {
        let b = self.breakers.entry(to).or_default();
        if ok {
            *b = Breaker::default();
            return false;
        }
        b.consecutive_failures += 1;
        let trip = match b.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => b.consecutive_failures >= FAILURE_THRESHOLD,
            BreakerState::Open { .. } => false,
        };
        if trip {
            b.state = BreakerState::Open { until: now + OPEN_FOR };
        }
        trip
    }

    /// Issue a two-way call to node `to`; the reply will carry the
    /// returned request id. `trace` is the caller's open span for this
    /// logical call: it rides every (re-)issued request envelope so the
    /// callee can parent its handler span under it, and the caller — not
    /// the broker — finishes it when the call completes or fails.
    /// `deadline` is the end-to-end stamp of the request being served: it
    /// rides the same envelopes, and the retry sweep refuses to schedule
    /// an attempt that would land past it.
    ///
    /// While the circuit breaker for `to` is open the call is refused:
    /// nothing is sent, nothing is recorded, and `Err(user)` hands the
    /// continuation back for the caller to fail on the spot.
    pub fn call(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        to: NodeId,
        (key, operation, msg): Call,
        user: T,
        trace: Option<TraceContext>,
        deadline: Option<DeadlineStamp>,
    ) -> Result<u64, T> {
        if !self.admits(ctx.now(), to) {
            ctx.trace_annotate(trace, "breaker: call rejected (open)");
            return Err(user);
        }
        let issued_at = ctx.now();
        let (attempt, lapsed) = (1, false);
        let call =
            Pending { user, issued_at, to, operation, key, msg, attempt, trace, deadline, lapsed };
        Ok(self.send(ctx, call, SimDuration::ZERO))
    }

    /// Put `call` on the wire under a fresh request id, departing `delay`
    /// from now, and record it as pending. First sends and retries both
    /// end here; they differ in `delay`, `attempt` and `issued_at`.
    fn send(&mut self, ctx: &mut Ctx<'_, Envelope>, call: Pending<T>, delay: SimDuration) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let operation = Name::from_static(call.operation);
        let request = GiopFrame::request(id, call.key.clone(), operation, call.msg.clone());
        let envelope = Envelope::giop(request).with_trace(call.trace).with_deadline(call.deadline);
        ctx.send_after(call.to, envelope, delay);
        self.pending.insert(id, call);
        id
    }

    /// Issue a oneway call (no reply, nothing recorded).
    pub fn oneway(
        ctx: &mut Ctx<'_, Envelope>,
        to: NodeId,
        key: ObjectKey,
        operation: &'static str,
        msg: PeerMsg,
    ) {
        // Oneways share the id space conceptually but need no correlation;
        // id 0 is fine because no reply will reference it.
        let operation = Name::from_static(operation);
        ctx.send(to, Envelope::giop(GiopFrame::oneway(0, key, operation, msg)));
    }

    /// Take the pending record for a reply's request id, crediting the
    /// callee's breaker with a success. Returns `None` for duplicate or
    /// expired replies.
    pub fn complete(&mut self, request_id: u64) -> Option<Pending<T>> {
        let p = self.pending.remove(&request_id)?;
        self.breakers.insert(p.to, Breaker::default());
        Some(p)
    }

    /// Remove and return every call issued before `cutoff`, in request-id
    /// order (timeout sweep).
    pub fn expire_issued_before(&mut self, cutoff: SimTime) -> Vec<(u64, Pending<T>)> {
        let expired = |(id, p): (&u64, &Pending<T>)| (p.issued_at < cutoff).then_some(*id);
        let ids: Vec<u64> = self.pending.iter().filter_map(expired).collect();
        ids.into_iter().filter_map(|id| self.pending.remove(&id).map(|p| (id, p))).collect()
    }

    /// Timeout sweep with retries: every call issued before `cutoff` is
    /// counted as a failure against its callee's breaker, then either
    /// re-issued after an exponential backoff (if attempts remain and the
    /// breaker admits it) or returned in `gave_up` for the caller to fail.
    /// A call still pending past its deadline is listed in `lapsed`.
    pub fn sweep_expired(&mut self, ctx: &mut Ctx<'_, Envelope>, cutoff: SimTime) -> SweepReport<T>
    where
        T: Clone,
    {
        let now = ctx.now();
        let mut report = SweepReport {
            retried_to: Vec::new(),
            opened: 0,
            gave_up: Vec::new(),
            deadline_gave_up: 0,
            lapsed: Vec::new(),
        };
        for (id, p) in self.expire_issued_before(cutoff) {
            if self.record_outcome(now, p.to, false) {
                report.opened += 1;
                ctx.trace_annotate(p.trace, "breaker: closed -> open");
                let (peer, operation) = (p.to, p.operation);
                ctx.record(|| wire::Event::BreakerOpen(peer, operation));
            }
            if !p.lapsed && p.attempt < self.max_attempts && self.admits(now, p.to) {
                let delay = backoff_jittered(p.attempt + 1, ctx.rng());
                // Deadline-aware retry: never schedule an attempt that
                // would land at or past the request's deadline — the
                // reply could not arrive in time, so the remaining
                // budget is already spent.
                if let Some(d) = p.deadline {
                    if d.expired(now + delay) {
                        ctx.trace_annotate(p.trace, "deadline: no budget for retry");
                        report.deadline_gave_up += 1;
                        report.gave_up.push((id, p));
                        continue;
                    }
                }
                // The wait before the re-issue is a child span of the
                // logical call, so trace views attribute backoff delay
                // separately from wire/servant time.
                ctx.trace_window(p.trace, "orb.backoff", now, now + delay);
                report.retried_to.push(p.to);
                let retry = Pending { issued_at: now + delay, attempt: p.attempt + 1, ..p };
                self.send(ctx, retry, delay);
            } else {
                report.gave_up.push((id, p));
            }
        }
        for p in self.pending.values_mut() {
            if !p.lapsed && p.deadline.is_some_and(|d| d.expired(now)) {
                p.lapsed = true;
                report.lapsed.push((p.user.clone(), p.trace));
            }
        }
        report
    }

    /// Number of outstanding calls.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Actor, Engine, LinkSpec, SimDuration};
    use wire::{Content, PeerReply};

    /// The call every test here issues.
    fn list_active() -> Call {
        (ObjectKey::new("DiscoverCorbaServer"), "listActive", PeerMsg::ListActive)
    }

    /// Echo servant: replies to every GIOP request with `Active`.
    struct Servant;
    impl Actor<Envelope> for Servant {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Envelope>, from: NodeId, msg: Envelope) {
            if let Content::Giop(frame) = msg.content {
                if frame.expects_reply() {
                    ctx.send(
                        from,
                        Envelope::giop(wire::giop::GiopFrame::reply(
                            frame.request_id,
                            frame.target,
                            "listActive",
                            PeerReply::Active { apps: vec![], users: vec![] },
                        )),
                    );
                }
            }
        }
    }

    /// Caller that issues `calls` requests at start and records completions.
    struct Caller {
        broker: Broker<u32>,
        servant: Option<NodeId>,
        calls: u32,
        completed: Vec<u32>,
    }
    impl Actor<Envelope> for Caller {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
            if let Some(to) = self.servant {
                for k in 0..self.calls {
                    let _ = self.broker.call(ctx, to, list_active(), k, None, None);
                }
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Envelope>, _from: NodeId, msg: Envelope) {
            if let Content::Giop(frame) = msg.content {
                if let Some(p) = self.broker.complete(frame.request_id) {
                    self.completed.push(p.user);
                }
            }
        }
    }

    #[test]
    fn calls_complete_with_matching_context() {
        let mut eng = Engine::new(5);
        let servant = eng.add_node("servant", Servant);
        let caller = eng.add_node(
            "caller",
            Caller { broker: Broker::new(), servant: Some(servant), calls: 5, completed: vec![] },
        );
        // Jitter-free link so completion order is deterministic FIFO.
        eng.link(caller, servant, LinkSpec::lan().with_jitter(SimDuration::ZERO));
        eng.run_to_quiescence();
        let c = eng.actor_ref::<Caller>(caller).unwrap();
        assert_eq!(c.completed, vec![0, 1, 2, 3, 4]);
        assert_eq!(c.broker.in_flight(), 0);
    }

    #[test]
    fn expiry_sweeps_only_old_calls() {
        let mut eng = Engine::new(5);
        // Servant exists but there is no link; we only exercise the table.
        let mut broker: Broker<&'static str> = Broker::new();
        let servant = eng.add_node("servant", Servant);
        struct Noop;
        impl Actor<Envelope> for Noop {
            fn on_message(&mut self, _: &mut Ctx<'_, Envelope>, _: NodeId, _: Envelope) {}
        }
        let other = eng.add_node("noop", Noop);
        eng.link(servant, other, LinkSpec::lan());
        let _ = (servant, other);
        // Simulate issue times directly.
        broker.pending.insert(
            0,
            Pending {
                user: "old",
                issued_at: SimTime::ZERO,
                to: servant,
                operation: "x",
                key: ObjectKey::new("k"),
                msg: PeerMsg::ListActive,
                attempt: 1,
                trace: None,
                deadline: None,
                lapsed: false,
            },
        );
        broker.pending.insert(
            1,
            Pending {
                user: "new",
                issued_at: SimTime::ZERO + SimDuration::from_secs(10),
                to: servant,
                operation: "x",
                key: ObjectKey::new("k"),
                msg: PeerMsg::ListActive,
                attempt: 1,
                trace: None,
                deadline: None,
                lapsed: false,
            },
        );
        let expired = broker.expire_issued_before(SimTime::from_secs(5));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].1.user, "old");
        assert_eq!(broker.in_flight(), 1);
        assert!(broker.complete(1).is_some());
        assert!(broker.complete(1).is_none(), "duplicate completion must fail");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        // Attempt 2 is the first retry.
        let ms = |attempt| backoff(attempt).as_micros() / 1_000;
        assert_eq!((2..=5).map(ms).collect::<Vec<_>>(), [200, 400, 800, 1_600]);
        assert_eq!(ms(6), 2_000, "capped");
        assert_eq!(ms(40), 2_000);
    }

    #[test]
    fn jitter_stays_within_fraction_and_is_deterministic() {
        use rand::SeedableRng;
        let sample = |seed, attempt| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            (0..32).map(|_| backoff_jittered(attempt, &mut rng)).collect::<Vec<_>>()
        };
        for attempt in [2, 6] {
            let base = backoff(attempt);
            for &d in &sample(9, attempt) {
                assert!(d >= base && d <= base + base / 4, "{d:?} outside +25% of {base:?}");
            }
        }
        assert_eq!(sample(9, 2), sample(9, 2), "same seed, same jitter");
    }

    #[test]
    fn breaker_trips_probes_and_recovers() {
        let mut broker: Broker<u32> = Broker::new();
        let peer = NodeId(7);
        let t0 = SimTime::from_secs(1);
        assert_eq!(broker.breaker_state(peer), BreakerState::Closed);
        for _ in 0..3 {
            assert!(!broker.record_outcome(t0, peer, false));
        }
        assert!(broker.record_outcome(t0, peer, false), "fourth failure trips");
        assert_eq!(
            broker.breaker_state(peer),
            BreakerState::Open { until: t0 + SimDuration::from_secs(15) }
        );
        // While open, calls are rejected.
        assert!(!broker.admits(t0 + SimDuration::from_secs(14), peer));
        // After the window, one probe is admitted (half-open).
        assert!(broker.admits(t0 + SimDuration::from_secs(15), peer));
        assert_eq!(broker.breaker_state(peer), BreakerState::HalfOpen);
        // A half-open success closes.
        let t1 = t0 + SimDuration::from_secs(15);
        assert!(broker.record_outcome(t1, peer, true).eq(&false));
        assert_eq!(broker.breaker_state(peer), BreakerState::Closed, "probe success closes");
        // Trip again, probe, and fail the probe this time.
        for _ in 0..4 {
            broker.record_outcome(t1, peer, false);
        }
        assert!(broker.admits(t1 + SimDuration::from_secs(15), peer));
        assert!(
            broker.record_outcome(t1 + SimDuration::from_secs(15), peer, false),
            "half-open failure re-opens"
        );
    }

    /// Caller whose breaker for the servant is already open when it
    /// issues its one call.
    struct RefusedCaller {
        broker: Broker<&'static str>,
        servant: NodeId,
        handed_back: Option<&'static str>,
    }
    impl Actor<Envelope> for RefusedCaller {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
            for _ in 0..FAILURE_THRESHOLD {
                self.broker.record_outcome(ctx.now(), self.servant, false);
            }
            let refused = self.broker.call(ctx, self.servant, list_active(), "kept", None, None);
            self.handed_back = refused.err();
        }
        fn on_message(&mut self, _: &mut Ctx<'_, Envelope>, _: NodeId, _: Envelope) {}
    }

    /// Messages that went over the one `lan` link of a test engine.
    fn lan_msgs(eng: &Engine<Envelope>) -> u64 {
        eng.stats().counter("link.lan.msgs")
    }

    #[test]
    fn a_refused_call_hands_the_continuation_back_and_sends_nothing() {
        let mut eng = Engine::new(5);
        let servant = eng.add_node("servant", Servant);
        let caller = eng.add_node(
            "caller",
            RefusedCaller { broker: Broker::new(), servant, handed_back: None },
        );
        eng.link(caller, servant, LinkSpec::lan());
        eng.run_to_quiescence();
        let c = eng.actor_ref::<RefusedCaller>(caller).unwrap();
        assert_eq!(c.handed_back, Some("kept"), "the caller gets its context back");
        assert_eq!(c.broker.in_flight(), 0, "nothing recorded");
        assert_eq!(lan_msgs(&eng), 0, "nothing on the wire");
        assert!(matches!(c.broker.breaker_state(servant), BreakerState::Open { .. }));
    }

    /// Caller whose servant never answers; retries must re-issue the
    /// request and eventually give up through `sweep_expired`. Each tick
    /// ends on one draw from the engine RNG, kept in `draws`.
    struct RetryCaller {
        broker: Broker<u32>,
        servant: Option<NodeId>,
        timeout: SimDuration,
        retried: u32,
        failed: u32,
        draws: Vec<u64>,
    }
    impl RetryCaller {
        fn new(max_attempts: u32, servant: Option<NodeId>) -> Self {
            let broker = Broker::with_max_attempts(max_attempts);
            let timeout = SimDuration::from_secs(2);
            RetryCaller { broker, servant, timeout, retried: 0, failed: 0, draws: Vec::new() }
        }
    }
    impl Actor<Envelope> for RetryCaller {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
            if let Some(to) = self.servant {
                let _ = self.broker.call(ctx, to, list_active(), 1, None, None);
            }
            ctx.schedule(SimDuration::from_secs(1), 0);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Envelope>, _from: NodeId, _msg: Envelope) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Envelope>, _tag: u64) {
            if let Some(cutoff) = ctx.now().checked_sub(self.timeout) {
                let report = self.broker.sweep_expired(ctx, cutoff);
                self.retried += report.retried_to.len() as u32;
                self.failed += report.gave_up.len() as u32;
            }
            self.draws.push(ctx.rng().gen());
            ctx.schedule(SimDuration::from_secs(1), 0);
        }
    }

    /// Swallows every request without replying.
    struct BlackHole;
    impl Actor<Envelope> for BlackHole {
        fn on_message(&mut self, _: &mut Ctx<'_, Envelope>, _: NodeId, _: Envelope) {}
    }

    /// A `RetryCaller` of a black hole (or of no one), run until `until`.
    fn run_retry_caller(
        max_attempts: u32,
        call: bool,
        until: SimTime,
    ) -> (Engine<Envelope>, NodeId) {
        let mut eng = Engine::new(11);
        let hole = eng.add_node("hole", BlackHole);
        let caller = eng.add_node("caller", RetryCaller::new(max_attempts, call.then_some(hole)));
        eng.link(caller, hole, LinkSpec::lan().with_jitter(SimDuration::ZERO));
        eng.run_until(until);
        (eng, caller)
    }

    #[test]
    fn sweep_retries_then_gives_up() {
        let (eng, caller) = run_retry_caller(3, true, SimTime::from_secs(30));
        let c = eng.actor_ref::<RetryCaller>(caller).unwrap();
        assert_eq!(c.retried, 2, "attempts 2 and 3 re-issued");
        assert_eq!(c.failed, 1, "gave up after max_attempts");
        assert_eq!(c.broker.in_flight(), 0);
        // Three identical requests must actually have hit the wire.
        assert_eq!(lan_msgs(&eng), 3);
    }

    #[test]
    fn one_attempt_gives_up_at_its_first_sweep_and_never_draws_a_backoff() {
        // Issued at 0 s with a 2 s timeout, the call is first expired by
        // the sweep at 3 s.
        let (eng, caller) = run_retry_caller(1, true, SimTime::from_millis(3_500));
        let c = eng.actor_ref::<RetryCaller>(caller).unwrap();
        assert_eq!((c.failed, c.retried), (1, 0), "given up by its first sweep");
        let (eng, caller) = run_retry_caller(1, true, SimTime::from_secs(30));
        let c = eng.actor_ref::<RetryCaller>(caller).unwrap();
        assert_eq!((c.failed, c.retried, lan_msgs(&eng)), (1, 0, 1), "never re-issued");
        // Every draw, before and after the give-up, equals a run that
        // never called.
        let (quiet, idle) = run_retry_caller(1, false, SimTime::from_secs(30));
        let untouched = &quiet.actor_ref::<RetryCaller>(idle).unwrap().draws;
        assert_eq!(&c.draws, untouched, "the engine RNG is untouched");
        let (eng, caller) = run_retry_caller(3, true, SimTime::from_secs(30));
        let retrying = &eng.actor_ref::<RetryCaller>(caller).unwrap().draws;
        assert_ne!(retrying, untouched, "a retry draws its jitter from the same RNG");
    }

    /// Like `RetryCaller` but the call carries a deadline stamp: the
    /// sweep must refuse retries whose backoff lands past the deadline.
    /// The callee's breaker is charged `prior_failures` before the call.
    struct DeadlineCaller {
        broker: Broker<u32>,
        servant: NodeId,
        prior_failures: u32,
        timeout: SimDuration,
        deadline: SimTime,
        retried: u32,
        failed: u32,
        deadline_failed: u32,
        lapsed: u32,
    }
    impl Actor<Envelope> for DeadlineCaller {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
            for _ in 0..self.prior_failures {
                self.broker.record_outcome(ctx.now(), self.servant, false);
            }
            let stamp = DeadlineStamp { deadline: self.deadline, priority: wire::Priority::View };
            let _ = self.broker.call(ctx, self.servant, list_active(), 1, None, Some(stamp));
            ctx.schedule(SimDuration::from_secs(1), 0);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Envelope>, _from: NodeId, _msg: Envelope) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Envelope>, _tag: u64) {
            let cutoff = ctx.now().checked_sub(self.timeout).unwrap_or(SimTime::ZERO);
            let report = self.broker.sweep_expired(ctx, cutoff);
            self.retried += report.retried_to.len() as u32;
            self.failed += report.gave_up.len() as u32;
            self.deadline_failed += report.deadline_gave_up;
            self.lapsed += report.lapsed.len() as u32;
            ctx.schedule(SimDuration::from_secs(1), 0);
        }
    }

    /// A `DeadlineCaller` of a black hole, run for 30 s.
    fn run_deadline_caller(
        timeout: SimDuration,
        deadline: SimTime,
        prior_failures: u32,
    ) -> (Engine<Envelope>, NodeId) {
        let mut eng = Engine::new(11);
        let hole = eng.add_node("hole", BlackHole);
        let caller = eng.add_node(
            "caller",
            DeadlineCaller {
                broker: Broker::new(),
                servant: hole,
                prior_failures,
                timeout,
                deadline,
                retried: 0,
                failed: 0,
                deadline_failed: 0,
                lapsed: 0,
            },
        );
        eng.link(caller, hole, LinkSpec::lan().with_jitter(SimDuration::ZERO));
        eng.run_until(SimTime::from_secs(30));
        (eng, caller)
    }

    #[test]
    fn sweep_never_schedules_a_retry_past_the_deadline() {
        // With attempts left but a deadline that expires before the first
        // retry could land (the sweep at 3 s, a backoff of at least
        // 200 ms), the call must give up on budget grounds with zero
        // retries hitting the wire.
        let (eng, caller) =
            run_deadline_caller(SimDuration::from_secs(2), SimTime::from_millis(3100), 0);
        let c = eng.actor_ref::<DeadlineCaller>(caller).unwrap();
        assert_eq!(c.retried, 0, "no attempt may be scheduled past the deadline");
        assert_eq!(c.failed, 1);
        assert_eq!(c.deadline_failed, 1, "failure is attributed to deadline budget");
        assert_eq!(c.lapsed, 0, "it timed out first");
        assert_eq!(c.broker.in_flight(), 0);
        // Only the original request hit the wire.
        assert_eq!(lan_msgs(&eng), 1);
    }

    #[test]
    fn a_lapsed_call_is_listed_at_its_deadline_and_still_judges_its_callee() {
        // The deadline passes 1.5 s in, the timeout is 10 s: the first
        // sweep after the deadline lists the call as lapsed, and the call
        // still times out at 11 s, charging the callee's breaker, with no
        // retry and no second deadline give-up (the breaker was charged
        // one failure short of its threshold, so the charge opens it).
        let prior = FAILURE_THRESHOLD - 1;
        let (eng, caller) =
            run_deadline_caller(SimDuration::from_secs(10), SimTime::from_millis(1500), prior);
        let c = eng.actor_ref::<DeadlineCaller>(caller).unwrap();
        assert_eq!((c.lapsed, c.failed, c.retried, c.deadline_failed), (1, 1, 0, 0));
        assert_eq!(c.broker.in_flight(), 0);
        let open = c.broker.breaker_state(NodeId(0));
        assert_eq!(open, BreakerState::Open { until: SimTime::from_secs(26) }, "callee judged");
        assert_eq!(lan_msgs(&eng), 1);
    }
}
