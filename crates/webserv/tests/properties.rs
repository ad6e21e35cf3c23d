//! Property tests for the servlet container: the FIFO buffer's
//! exactly-once, order-preserving, bounded-loss semantics, and session
//! table consistency under random operation sequences.

#![cfg(feature = "proptest")]

use std::collections::{BTreeMap, HashMap, VecDeque};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{SimDuration, SimTime};
use webserv::{FifoBuffer, Pushed, SessionTable};
use wire::{
    AppCommand, AppId, AppPhase, AppStatus, ClientId, ClientMessage, ServerAddr, UpdateBody,
    UpdateKey, UserId, Value,
};

fn tagged(seq: u32) -> ClientMessage {
    ClientMessage::update(UpdateBody::AppClosed { app: AppId { server: ServerAddr(0), seq } })
}

/// Dequeue up to `max` messages into a fresh `Vec`.
fn drain(fifo: &mut FifoBuffer, max: usize) -> Vec<ClientMessage> {
    let mut out = Vec::new();
    fifo.drain_into(max, &mut out);
    out
}

fn tag_of(m: &ClientMessage) -> u32 {
    match m {
        ClientMessage::Update(u) => match u.body() {
            UpdateBody::AppClosed { app } => app.seq,
            _ => unreachable!(),
        },
        _ => unreachable!(),
    }
}

// ---------------------------------------------------------------------
// Coalescing properties: a mixed stream of view-class, command-class and
// event-class messages, each stamped with a unique push version.
// ---------------------------------------------------------------------

/// One scripted FIFO operation: push a message of some shape, or drain.
#[derive(Clone, Debug)]
enum Op {
    /// (kind 0..5, app 0..2, param 0..2)
    Push(u8, u32, u8),
    Drain(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..5, 0u32..2, 0u8..2).prop_map(|(k, a, p)| Op::Push(k, a, p)),
        (1usize..8).prop_map(Op::Drain),
    ]
}

/// Build the pushed message for `Op::Push`, embedding `version` so every
/// delivered message can be traced back to its push.
fn make(kind: u8, app_seq: u32, p: u8, version: u64) -> ClientMessage {
    let app = AppId { server: ServerAddr(0), seq: app_seq };
    let body = match kind {
        0 => UpdateBody::AppStatus {
            app,
            status: AppStatus { phase: AppPhase::Computing, iteration: version, progress: 0.0 },
            readings: Vec::new(),
        },
        1 => UpdateBody::ParamChanged {
            app,
            name: format!("p{p}"),
            value: Value::Float(version as f64),
            by: UserId::new("steerer"),
        },
        2 => UpdateBody::LockChanged { app, holder: Some(UserId::new(format!("u{version}"))) },
        3 => UpdateBody::CommandApplied {
            app,
            command: AppCommand::Checkpoint,
            by: UserId::new(format!("u{version}")),
        },
        _ => UpdateBody::Chat { app, from: UserId::new("u"), text: version.to_string() },
    };
    ClientMessage::update(body)
}

/// Recover the push version stamped by `make`.
fn version_of(m: &ClientMessage) -> u64 {
    let parse = |s: &str| s.trim_start_matches('u').parse::<u64>().unwrap();
    match m {
        ClientMessage::Update(u) => match u.body() {
            UpdateBody::AppStatus { status, .. } => status.iteration,
            UpdateBody::ParamChanged { value: Value::Float(f), .. } => *f as u64,
            UpdateBody::LockChanged { holder: Some(h), .. } => parse(h.as_str()),
            UpdateBody::CommandApplied { by, .. } => parse(by.as_str()),
            UpdateBody::Chat { text, .. } => text.parse().unwrap(),
            other => panic!("unexpected {other:?}"),
        },
        other => panic!("unexpected {other:?}"),
    }
}

/// An owned copy of a message's coalesce key, which borrows from the
/// message: the models keep it after the message moved on.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Bucket {
    Status(AppId),
    Param(AppId, String),
    Lock(AppId),
}

/// The class bucket a message competes in: its coalesce key for
/// view-class updates, `None` for everything that must never coalesce.
fn bucket_of(m: &ClientMessage) -> Option<Bucket> {
    let ClientMessage::Update(u) = m else { return None };
    Some(match u.coalesce_key()? {
        UpdateKey::Status(app) => Bucket::Status(app),
        UpdateKey::Param(app, name) => Bucket::Param(app, name.to_owned()),
        UpdateKey::Lock(app) => Bucket::Lock(app),
    })
}

/// The FIFO as it was indexed before the live-slot vector: a `HashMap`
/// from coalesce key to queue sequence whose entries go stale (sequence
/// below the head) instead of being removed. Kept as the reference the
/// linear index must agree with, operation by operation.
struct HashIndexedFifo {
    queue: VecDeque<ClientMessage>,
    capacity: usize,
    dropped: u64,
    peak: usize,
    enqueued: u64,
    coalesced: u64,
    head_seq: u64,
    index: HashMap<Bucket, u64>,
}

impl HashIndexedFifo {
    fn new(capacity: usize) -> Self {
        HashIndexedFifo {
            queue: VecDeque::new(),
            capacity,
            dropped: 0,
            peak: 0,
            enqueued: 0,
            coalesced: 0,
            head_seq: 0,
            index: HashMap::new(),
        }
    }

    fn push(&mut self, msg: ClientMessage) {
        let key = bucket_of(&msg);
        if let Some(key) = &key {
            if let Some(&seq) = self.index.get(key) {
                if seq >= self.head_seq {
                    self.queue[(seq - self.head_seq) as usize] = msg;
                    self.coalesced += 1;
                    self.enqueued += 1;
                    return;
                }
            }
        }
        if self.queue.len() == self.capacity {
            self.queue.pop_front();
            self.head_seq += 1;
            self.dropped += 1;
        }
        if let Some(key) = key {
            self.index.insert(key, self.head_seq + self.queue.len() as u64);
        }
        self.queue.push_back(msg);
        self.enqueued += 1;
        self.peak = self.peak.max(self.queue.len());
    }

    fn drain(&mut self, max: usize) -> Vec<ClientMessage> {
        let n = max.min(self.queue.len());
        self.head_seq += n as u64;
        self.queue.drain(..n).collect()
    }
}

/// One scripted session-table operation; indexes pick a held cookie in
/// cookie order, times are seconds.
#[derive(Clone, Debug)]
enum SessionOp {
    Create,
    Touch(usize, u64),
    /// Park the sessions idle before this cutoff.
    Reap(u64),
    Resume(usize, u64),
    Remove(usize),
    Clear,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The linearly indexed FIFO against the hash-indexed one it
    /// replaced, over scripts with 32 distinct parameter keys and
    /// capacities small enough to overflow: the same occupancy and
    /// counters after every operation, a push outcome that matches the
    /// counters it moved, the same messages out of every drain, the
    /// same queue left at the end.
    #[test]
    fn linear_index_matches_hash_index(
        capacity in 1usize..24,
        ops in prop::collection::vec(prop_oneof![
            3 => (0u8..5, 0u32..2, 0u8..16).prop_map(|(k, a, p)| Op::Push(k, a, p)),
            // Mostly parameter updates, so many keys are live at once.
            3 => (0u32..2, 0u8..16).prop_map(|(a, p)| Op::Push(1, a, p)),
            1 => (1usize..8).prop_map(Op::Drain),
        ], 1..300),
    ) {
        let mut fifo = FifoBuffer::with_coalescing(capacity, true);
        let mut model = HashIndexedFifo::new(capacity);
        let mut scratch = Vec::new();
        let mut coalesced = 0u64;
        for (version, op) in ops.into_iter().enumerate() {
            match op {
                Op::Push(k, a, p) => {
                    let msg = make(k, a, p, version as u64);
                    let before = (model.coalesced, model.dropped, model.peak);
                    model.push(msg.clone());
                    // What the push reports is what the counters say it did.
                    let expected = if model.coalesced > before.0 {
                        Pushed::Coalesced
                    } else if model.dropped > before.1 {
                        Pushed::EvictedOldest
                    } else {
                        Pushed::Appended { peak_rose: model.peak > before.2 }
                    };
                    let outcome = fifo.push_with_outcome(msg);
                    prop_assert_eq!(outcome, expected);
                    coalesced += u64::from(outcome == Pushed::Coalesced);
                }
                Op::Drain(n) => {
                    scratch.clear();
                    fifo.drain_into(n, &mut scratch);
                    prop_assert_eq!(&scratch, &model.drain(n));
                }
            }
            prop_assert_eq!(fifo.len(), model.queue.len());
            prop_assert_eq!(
                (fifo.enqueued(), coalesced, fifo.dropped(), fifo.peak()),
                (model.enqueued, model.coalesced, model.dropped, model.peak)
            );
        }
        prop_assert_eq!(drain(&mut fifo, usize::MAX), model.drain(usize::MAX));
    }

    /// Whatever interleaving of pushes and drains happens, the delivered
    /// stream is a strictly increasing subsequence of what was pushed,
    /// delivered + dropped + still-queued == pushed, and only the OLDEST
    /// messages are ever lost.
    #[test]
    fn fifo_semantics(
        capacity in 1usize..64,
        ops in prop::collection::vec(prop_oneof![
            (1u32..20).prop_map(|n| (true, n as usize)),   // push n
            (1u32..20).prop_map(|n| (false, n as usize)),  // drain up to n
        ], 1..100),
    ) {
        let mut fifo = FifoBuffer::new(capacity);
        let mut pushed = 0u32;
        let mut delivered: Vec<u32> = Vec::new();
        for (is_push, n) in ops {
            if is_push {
                for _ in 0..n {
                    fifo.push(tagged(pushed));
                    pushed += 1;
                }
            } else {
                delivered.extend(drain(&mut fifo, n).iter().map(tag_of));
            }
        }
        // Strictly increasing (order preserved, no duplicates).
        prop_assert!(delivered.windows(2).all(|w| w[0] < w[1]));
        // Conservation.
        prop_assert_eq!(
            delivered.len() as u64 + fifo.dropped() + fifo.len() as u64,
            pushed as u64
        );
        // Peak never exceeds capacity.
        prop_assert!(fifo.peak() <= capacity);
        // Oldest-first loss: anything delivered after a drop must be newer
        // than the number of drops that preceded it (drop k evicts tag k'
        // <= current min). Weaker, checkable form: the smallest delivered
        // tag after any point is >= total drops before that delivery is
        // impossible to track here, so check final queue: remaining tags
        // are the newest pushed.
        let remaining: Vec<u32> = drain(&mut fifo, usize::MAX).iter().map(tag_of).collect();
        if let Some(&first_remaining) = remaining.first() {
            prop_assert!(remaining.iter().all(|&t| t >= first_remaining));
            prop_assert_eq!(*remaining.last().unwrap(), pushed - 1);
        }
    }

    /// Coalescing under a bounded buffer: the extended conservation law
    /// holds (delivered + dropped + coalesced + queued == pushed), and
    /// within every class bucket — each view-class slot key, and the
    /// never-coalesced rest — delivery order is push order with no
    /// duplicates, so a superseded view update is never seen after its
    /// successor and command-class traffic is never reordered.
    #[test]
    fn coalescing_preserves_class_order(
        capacity in 1usize..32,
        ops in prop::collection::vec(op_strategy(), 1..200),
    ) {
        let mut fifo = FifoBuffer::with_coalescing(capacity, true);
        let mut version = 0u64;
        let mut coalesced = 0u64;
        let mut delivered: Vec<ClientMessage> = Vec::new();
        for op in ops {
            match op {
                Op::Push(k, a, p) => {
                    let outcome = fifo.push_with_outcome(make(k, a, p, version));
                    coalesced += u64::from(outcome == Pushed::Coalesced);
                    version += 1;
                }
                Op::Drain(n) => delivered.extend(drain(&mut fifo, n)),
            }
        }
        delivered.extend(drain(&mut fifo, usize::MAX));
        prop_assert_eq!(
            delivered.len() as u64 + fifo.dropped() + coalesced,
            fifo.enqueued()
        );
        let mut last_in_bucket: HashMap<Option<Bucket>, u64> = HashMap::new();
        for m in &delivered {
            let v = version_of(m);
            if let Some(prev) = last_in_bucket.insert(bucket_of(m), v) {
                prop_assert!(prev < v, "bucket delivered {prev} then {v}");
            }
        }
    }

    /// Equivalence: with no overflow in play, a coalesced run loses no
    /// command/event-class message (byte-identical stream, in order) and
    /// folds to the same final client state as the uncoalesced run —
    /// the last delivered message of every view-class slot is identical.
    #[test]
    fn coalesced_final_state_matches_uncoalesced(
        ops in prop::collection::vec(op_strategy(), 1..200),
    ) {
        // Capacity above the op count: neither run can drop, so every
        // difference observed is attributable to coalescing alone.
        let cap = ops.len() + 1;
        let mut plain = FifoBuffer::with_coalescing(cap, false);
        let mut merged = FifoBuffer::with_coalescing(cap, true);
        let mut version = 0u64;
        let mut got_plain: Vec<ClientMessage> = Vec::new();
        let mut got_merged: Vec<ClientMessage> = Vec::new();
        for op in ops {
            match op {
                Op::Push(k, a, p) => {
                    let m = make(k, a, p, version);
                    plain.push(m.clone());
                    merged.push(m);
                    version += 1;
                }
                Op::Drain(n) => {
                    got_plain.extend(drain(&mut plain, n));
                    got_merged.extend(drain(&mut merged, n));
                }
            }
        }
        got_plain.extend(drain(&mut plain, usize::MAX));
        got_merged.extend(drain(&mut merged, usize::MAX));
        prop_assert_eq!(plain.dropped() + merged.dropped(), 0);
        // Non-coalescible traffic comes through untouched: same
        // messages, same order (ClientMessage equality compares frozen
        // payloads by their wire bytes, so this is byte-identity).
        let cmds = |v: &[ClientMessage]| -> Vec<ClientMessage> {
            v.iter().filter(|m| bucket_of(m).is_none()).cloned().collect()
        };
        prop_assert_eq!(cmds(&got_plain), cmds(&got_merged));
        // Folded client state: the freshest message of every view slot.
        let fold = |v: &[ClientMessage]| -> HashMap<Bucket, ClientMessage> {
            let mut state = HashMap::new();
            for m in v {
                if let Some(k) = bucket_of(m) {
                    state.insert(k, m.clone());
                }
            }
            state
        };
        let (a, b) = (fold(&got_plain), fold(&got_merged));
        prop_assert_eq!(a.len(), b.len());
        for (k, m) in &a {
            prop_assert_eq!(Some(m), b.get(k), "slot {:?} diverged", k);
        }
    }

    /// The session table against a cookie-ordered model, over scripts of
    /// every operation: both indexes always hold the same clients, a
    /// parked session never validates by cookie yet keeps its FIFO
    /// reachable by client, the idle sweep parks exactly the idle live
    /// sessions in cookie order, and `clear` counts only the live ones.
    #[test]
    fn session_table_consistency(
        ops in prop::collection::vec(prop_oneof![
            2 => Just(SessionOp::Create),
            3 => (0usize..64, 0u64..200).prop_map(|(k, t)| SessionOp::Touch(k, t)),
            1 => (0u64..200).prop_map(SessionOp::Reap),
            2 => (0usize..64, 0u64..200).prop_map(|(k, t)| SessionOp::Resume(k, t)),
            1 => (0usize..64).prop_map(SessionOp::Remove),
            1 => Just(SessionOp::Clear),
        ], 1..120),
    ) {
        let mut rng = StdRng::seed_from_u64(7);
        let mut table = SessionTable::default();
        // cookie -> (client, last active, parked since)
        let mut model: BTreeMap<u64, (ClientId, SimTime, Option<SimTime>)> = BTreeMap::new();
        let mut next_seq = 0u32;
        let mut now = SimTime::ZERO;
        let pick = |model: &BTreeMap<u64, _>, k: usize| {
            model.keys().nth(k % model.len().max(1)).copied()
        };
        for op in ops {
            match op {
                SessionOp::Create => {
                    let client = ClientId { server: ServerAddr(1), seq: next_seq };
                    next_seq += 1;
                    let user = UserId::new(format!("u{}", next_seq % 3));
                    let c = table.create(&mut rng, user, client, now, FifoBuffer::new(4));
                    prop_assert!(c != 0 && !model.contains_key(&c), "cookie {} reused", c);
                    model.insert(c, (client, now, None));
                }
                SessionOp::Touch(k, t) => {
                    let Some(c) = pick(&model, k) else { continue };
                    let at = SimTime::from_secs(t);
                    let entry = model.get_mut(&c).unwrap();
                    prop_assert_eq!(table.touch(c, at).is_some(), entry.2.is_none());
                    if entry.2.is_none() {
                        entry.1 = at;
                    }
                }
                SessionOp::Reap(cutoff) => {
                    let cutoff = SimTime::from_secs(cutoff);
                    let idle: Vec<ClientId> = model
                        .values_mut()
                        .filter(|(_, active, parked)| parked.is_none() && *active < cutoff)
                        .map(|(client, _, parked)| {
                            *parked = Some(now);
                            *client
                        })
                        .collect();
                    prop_assert_eq!(table.reap_idle(cutoff, now), idle);
                }
                SessionOp::Resume(k, t) => {
                    let Some(c) = pick(&model, k) else { continue };
                    let at = SimTime::from_secs(t);
                    let entry = model.get_mut(&c).unwrap();
                    let (s, park) = table.resume(c, at).expect("a held cookie resumes");
                    prop_assert_eq!(s.client, entry.0);
                    prop_assert_eq!(park.map(|p| p.since), entry.2.take());
                    entry.1 = at;
                }
                SessionOp::Remove(k) => {
                    let Some(c) = pick(&model, k) else { continue };
                    let (client, ..) = model.remove(&c).unwrap();
                    prop_assert_eq!(table.remove(client).map(|s| s.cookie), Some(c));
                    prop_assert!(table.touch(c, now).is_none() && table.get(client).is_none());
                }
                SessionOp::Clear => {
                    let live = model.values().filter(|(.., parked)| parked.is_none()).count();
                    prop_assert_eq!(table.clear(), live);
                    model.clear();
                }
            }
            now += SimDuration::from_secs(1);
            // Both indexes hold exactly the model's clients.
            prop_assert_eq!(table.iter().count(), model.len());
            for (&c, &(client, active, parked)) in &model {
                let s = table.by_cookie(c).expect("indexed by cookie");
                prop_assert_eq!((s.client, s.last_active), (client, active));
                prop_assert_eq!(table.get(client).map(|s| s.cookie), Some(c));
                prop_assert_eq!(s.parked.as_ref().map(|p| p.since), parked);
                if parked.is_some() {
                    prop_assert!(table.touch(c, now).is_none(), "a parked cookie validated");
                    let fifo = &mut table.get_mut(client).expect("reachable by client").fifo;
                    fifo.push(tagged(0));
                    prop_assert!(fifo.enqueued() > 0);
                }
            }
            let parked: Vec<u64> = table.parked().iter().map(|s| s.cookie).collect();
            let expected: Vec<u64> =
                model.iter().filter(|(_, (.., p))| p.is_some()).map(|(c, _)| *c).collect();
            prop_assert_eq!(parked, expected);
            prop_assert_eq!(table.live().count(), model.len() - table.parked().len());
        }
    }
}
