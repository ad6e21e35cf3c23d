//! Allocation budgets of the per-message paths, pinned in tier-1: what a
//! status update costs its host, what an empty poll and a latecomer's
//! catch-up cost, and how many bytes a queued update holds, counted by
//! this test's own allocator. An integration test is a crate of its own,
//! so the counting allocator — and its `unsafe` — stay out of the
//! library crates. Counters are thread-local: each test runs on its own
//! thread and sees only its own allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

use discover_server::{ArchiveStore, ServerConfig, StandaloneServer};
use simnet::{names, Actor, Ctx, Engine, LinkSpec, NodeId, SimDuration, SimTime};
use wire::codec::{decode, encode};
use wire::giop::GiopFrame;
use wire::http::{paths, HttpRequest};
use wire::tcp::TcpFrame;
use wire::{
    AppId, AppMsg, AppPhase, AppStatus, AppToken, Channel, ClientMessage, ClientRequest, Content,
    Envelope, FrozenUpdate, InteractionSpec, LogEntry, ObjectKey, PeerMsg, Privilege, ServerAddr,
    UpdateBody, UserId, Value,
};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread holds: requested and not yet given back.
    static LIVE_BYTES: Cell<usize> = const { Cell::new(0) };
}

/// One more call that hands out memory; the thread's holdings go from
/// `old` bytes (of the block it replaces, if any) to `new`.
fn count(old: usize, new: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    LIVE_BYTES.with(|c| c.set(c.get().wrapping_sub(old).wrapping_add(new)));
}

/// The system allocator, counting `alloc` + `realloc` calls and the
/// bytes held, per thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only added work is
// updates of thread-local `Cell`s with constant initialisers, which
// neither allocate nor unwind (the byte count wraps: a block may be
// given back by another thread than the one that asked for it).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(0, layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.with(|c| c.set(c.get().wrapping_sub(layout.size())));
        // SAFETY: `ptr` was returned by this allocator for `layout`,
        // i.e. by `System` (the caller's contract).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(layout.size(), new_size);
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from
        // `System`; `new_size` is the caller's, passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while `work` runs.
fn allocations<T>(work: impl FnOnce() -> T) -> u64 {
    let before = ALLOCS.with(Cell::get);
    black_box(work());
    ALLOCS.with(Cell::get) - before
}

/// Bytes this thread holds after `work` that it did not hold before.
fn bytes_kept(work: impl FnOnce()) -> usize {
    let before = LIVE_BYTES.with(Cell::get);
    work();
    LIVE_BYTES.with(Cell::get).wrapping_sub(before)
}

const ADDR: ServerAddr = ServerAddr(1);
const APP: AppId = AppId { server: ADDR, seq: 0 };
const USER: &str = "vijay";
/// Slower than the server's simulated CPU takes over either message.
const TICK: SimDuration = SimDuration::from_millis(10);

/// An application that registers and then, if `updating`, sends a
/// status update with two sensor readings every [`TICK`].
struct App {
    server: NodeId,
    updating: bool,
    iteration: u64,
}

impl App {
    fn send(&self, ctx: &mut Ctx<'_, Envelope>, msg: AppMsg) {
        ctx.send(self.server, Envelope::tcp(TcpFrame::new(Channel::Main, msg)));
    }
}

impl Actor<Envelope> for App {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let register = AppMsg::Register {
            token: AppToken::new("t"),
            name: "app".into(),
            kind: "k".into(),
            acl: vec![(UserId::new(USER), Privilege::ReadWrite)],
            interface: InteractionSpec::default(),
            slot: Some(APP.seq),
        };
        self.send(ctx, register);
        if self.updating {
            ctx.schedule(TICK, 0);
        }
    }

    fn on_message(&mut self, _: &mut Ctx<'_, Envelope>, _: NodeId, _: Envelope) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Envelope>, _: u64) {
        self.iteration += 1;
        let status =
            AppStatus { phase: AppPhase::Computing, iteration: self.iteration, progress: 0.5 };
        let readings = vec![
            ("residual".to_string(), Value::Float(self.iteration as f64)),
            ("energy".to_string(), Value::Float(0.25)),
        ];
        self.send(ctx, AppMsg::Update { app: APP, status, readings });
        ctx.schedule(TICK, 0);
    }
}

/// A portal that logs in and then polls every [`TICK`]. Nothing is
/// ever queued for it, so every poll is an empty one.
struct Portal {
    server: NodeId,
    cookie: Option<u64>,
}

impl Actor<Envelope> for Portal {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        // After the application's registration has arrived.
        ctx.schedule(SimDuration::from_millis(50), 0);
    }

    fn on_message(&mut self, _: &mut Ctx<'_, Envelope>, _: NodeId, msg: Envelope) {
        if let Content::HttpResponse(response) = msg.content {
            self.cookie = self.cookie.or(response.set_session);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Envelope>, _: u64) {
        let request = match self.cookie {
            None => {
                let login = ClientRequest::Login {
                    user: UserId::new(USER),
                    password: format!("secret-{USER}"),
                };
                HttpRequest::post(paths::MASTER, None, login)
            }
            cookie => HttpRequest::get(paths::POLL, cookie),
        };
        ctx.send(self.server, Envelope::http_request(request));
        ctx.schedule(TICK, 0);
    }
}

/// A standalone server with one application and, if `polling`, one
/// portal; otherwise the application sends updates. After a thousand
/// ticks of warm-up (tables and logs at their steady size), returns the
/// allocations of the whole simulation per message the server handled
/// under `counter` in the next thousand.
fn steady_allocations_per(counter: simnet::CounterDef, polling: bool) -> f64 {
    let mut engine = Engine::new(1);
    let server = engine.add_node("server", StandaloneServer::new(ServerConfig::new(ADDR, "s")));
    let app = engine.add_node("app", App { server, updating: !polling, iteration: 0 });
    engine.link(app, server, LinkSpec::lan());
    if polling {
        let portal = engine.add_node("portal", Portal { server, cookie: None });
        engine.link(portal, server, LinkSpec::lan());
    }
    engine.run_until(SimTime::from_secs(10));
    let handled_before = engine.stats().counter(counter.key());
    let allocated = allocations(|| engine.run_until(SimTime::from_secs(20)));
    let handled = engine.stats().counter(counter.key()) - handled_before;
    assert!((990..=1010).contains(&handled), "{handled} messages under {}", counter.key());
    allocated as f64 / handled as f64
}

#[test]
fn copying_a_name_allocates_nothing() {
    // Names that came off the wire (shared) and names that are literals.
    let user = UserId::new(USER.to_string());
    let call = PeerMsg::LockRelease { app: APP, user: user.clone() };
    let frame = GiopFrame::request(7, ObjectKey::from_static("DiscoverCorbaServer"), "call", call);
    let decoded: GiopFrame = decode(&encode(&frame)).expect("a frame decodes");
    let poll = HttpRequest::get(paths::POLL, Some(1));
    let head = poll.render_head(0);
    let copies = allocations(|| {
        black_box(user.clone());
        for frame in [&frame, &decoded] {
            black_box((frame.target.clone(), frame.operation.clone()));
        }
        black_box(poll.path.clone());
        // A well-known path comes back from the bytes as the literal.
        black_box(HttpRequest::parse_head(&head).expect("a rendered head parses"));
    });
    assert_eq!(copies, 0);
}

#[test]
fn a_status_update_is_assigned_not_copied_at_its_host() {
    // Measured 6.322; at the parent of the change that introduced this
    // test, 12.446. Gone are the two deep copies of the readings (a `Vec`
    // and two names each: into the proxy's cached context and into the
    // archive's folded state) and, every sixteenth update, the copied
    // names of the record's owner and reader. Left are the application's
    // own readings (3), the freeze (pool buffer, `Bytes`,
    // `Rc<UpdateBody>`) and what the logs' growth and the sixteenth
    // update's record amortise to.
    let per_update = steady_allocations_per(names::SERVER_TCP_FRAMES, false);
    assert!(per_update <= 6.33, "{per_update} allocations per status update");
}

#[test]
fn an_empty_poll_copies_neither_user_nor_path() {
    // Measured 1.000, the reply's one-message `Vec`; at the parent 3.000,
    // with the portal's path `String` and the session's user `String`.
    let per_poll = steady_allocations_per(names::SERVER_POLL_REQUESTS, true);
    assert!(per_poll <= 1.0, "{per_poll} allocations per empty poll");
}

/// A status update with two sensor readings, frozen once.
fn status_update(iteration: u64) -> FrozenUpdate {
    FrozenUpdate::new(UpdateBody::AppStatus {
        app: APP,
        status: AppStatus { phase: AppPhase::Computing, iteration, progress: 0.5 },
        readings: vec![
            ("residual".to_string(), Value::Float(iteration as f64)),
            ("energy".to_string(), Value::Float(0.25)),
        ],
    })
}

#[test]
fn latecomers_share_the_snapshot_they_catch_up_from() {
    let mut archive = ArchiveStore::new();
    archive.snapshot_every = Some(8);
    for i in 0..20 {
        let entry = LogEntry::Update(status_update(i));
        archive.log_app(APP, SimTime::from_millis(i), None, entry);
    }
    let (first, tail, _) = archive.catch_up_app(APP, 0);
    let first = first.expect("two snapshots were taken");
    assert_eq!((first.seq, tail.len()), (16, 4));
    assert_eq!(first.state.readings.len(), 2, "state a deep copy would allocate for");
    let mut second = None;
    // Measured 1, the tail's `Vec` (its records are frozen updates:
    // reference counts); at the parent 4, with the folded state's
    // readings — a `Vec` and a name each — copied per latecomer.
    let served = allocations(|| second = archive.catch_up_app(APP, 0).0);
    assert!(Arc::ptr_eq(&first, &second.expect("the same snapshot")));
    assert_eq!(served, 1, "allocations to serve a second latecomer");
}

#[test]
fn a_coalescing_push_allocates_nothing() {
    // Three view slots (a parameter, the status, the lock holder), each
    // superseded over and over; the updates are frozen up front, as a
    // broadcast freezes once for all its members.
    let updates: Vec<FrozenUpdate> = (0..100u64)
        .flat_map(|i| {
            let param = UpdateBody::ParamChanged {
                app: APP,
                name: "pressure".into(),
                value: Value::Float(i as f64),
                by: UserId::new(USER),
            };
            let holder = (i % 2 == 0).then(|| UserId::new(USER));
            let lock = UpdateBody::LockChanged { app: APP, holder };
            [FrozenUpdate::new(param), status_update(i), FrozenUpdate::new(lock)]
        })
        .collect();
    let mut fifo = webserv::FifoBuffer::with_coalescing(16, true);
    let (first, rest) = updates.split_at(3);
    for update in first {
        fifo.push(ClientMessage::Update(update.clone()));
    }
    // Measured 0; at the parent 1 per parameter push, the key's copy of
    // the parameter's name.
    let pushes = allocations(|| {
        for update in rest {
            fifo.push(ClientMessage::Update(update.clone()));
        }
    });
    assert_eq!((fifo.len(), fifo.coalesced()), (3, 297), "every later push coalesced");
    assert_eq!(pushes, 0, "allocations for {} coalescing pushes", rest.len());
}

#[test]
fn a_queued_update_holds_one_slot_of_88_bytes() {
    let update = status_update(1);
    let mut fifo = webserv::FifoBuffer::new(4096);
    let held = bytes_kept(|| {
        for _ in 0..1000 {
            fifo.push(ClientMessage::Update(update.clone()));
        }
    });
    // Measured 90 112: a `VecDeque` doubles, so a thousand slots are
    // 1 024 of them, and the update itself is shared. At the parent
    // 204 800, each slot as wide as an inline status page (200 bytes).
    assert_eq!(fifo.len(), 1000);
    assert!(held <= 1024 * 88, "{held} bytes held by 1000 queued updates");
}
