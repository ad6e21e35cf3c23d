//! The DISCOVER interaction/collaboration server core.
//!
//! One [`ServerCore`] holds every handler the paper describes for the
//! middle tier (§4.1): the **master handler** (client sessions), the
//! **command handler** (operation routing to `ApplicationProxy`s), the
//! **collaboration handler** (group broadcast, chat, whiteboard), the
//! **security/authentication handler** (two-level auth + ACLs), the
//! **Daemon servlet** (application registration, request buffering during
//! compute phases) and the auxiliary **session archival** and **database**
//! handlers.
//!
//! The core is transport-complete for local traffic (HTTP clients, custom
//! TCP applications, and *serving* GIOP peer requests). Steering-lock
//! state, the application log and the collaboration group live only at
//! an application's *host* server, so every host-side verb (lock
//! decision, op admission and completion, session teardown, lock seizure,
//! replay) has exactly one implementation, parameterised by the
//! `Origin` of the request; `handle_http` and `handle_giop` only decode,
//! call it, and shape the reply (DESIGN.md §5 "Host-side verbs").
//!
//! Anything that requires *calling out* to a peer server is queued as an
//! [`Effect`] on the core; every public entry point that returns effects
//! drains that one queue, and the middleware substrate (crate
//! `discover-core`) resolves them via the ORB and feeds results back
//! through [`ServerCore::complete_relay`] and
//! [`ServerCore::complete_remote_auth`] (draining what those queue with
//! [`ServerCore::drain_effects`]). A standalone server simply drops
//! effects (there are no peers), which is exactly the paper's
//! pre-substrate §4 system.
//!
//! The handlers are one struct, written one plane per file: `session`
//! (HTTP ingress, login, resume, park, teardown), `dispatch` (the Daemon
//! servlet, op admission and completion, the steering lock), `group`
//! (broadcast, selection, replay), `peer` (GIOP serving, relay
//! completions) and `recovery` (lock seizure, revocation, restart). This
//! file holds what they share: the types, the state, the helpers.

mod dispatch;
mod group;
mod peer;
mod recovery;
mod session;

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use simnet::{names, Ctx, NodeId, TraceContext};
use webserv::{FifoBuffer, HttpCosts, HttpSession, OrbCosts, Pushed, SessionTable, TcpCosts};
use wire::http::HttpResponse;
use wire::{
    AppId, AppOp, AppStatus, AppStatusEntry, AppToken, ClientId, ClientMessage, ControlEventKind,
    DeadlineStamp, Envelope, ErrorCode, FifoStatusEntry, FrozenUpdate, IdMap, InteractionSpec,
    Name, PeerMsg, PeerStatusEntry, Privilege, RequestId, ServerAddr, StatusReport, UserId,
    WireError,
};

use crate::archive::ArchiveStore;
use crate::collab::CollabGroups;
use crate::mutation::Mutation;
use crate::proxy::{ApplicationProxy, BufferedOp};
use crate::store::RecordStore;

/// Object key under which each server's level-1 servant is reachable.
pub const CORBA_SERVER_KEY: &str = "DiscoverCorbaServer";

// What every server runs and no caller varies. The cost models are
// calibrated once and held fixed (`webserv::costs`); client sessions
// always pay the SSL handshake of the paper's secure server.
const HTTP_COSTS: HttpCosts = HttpCosts::CALIBRATED;
const TCP_COSTS: TcpCosts = TcpCosts::CALIBRATED;
const ORB_COSTS: OrbCosts = OrbCosts::CALIBRATED;
/// Maximum messages returned by one poll.
const POLL_BATCH_MAX: usize = 32;
/// Recent-update log capacity per application (poll-mode peers).
const UPDATE_LOG_CAPACITY: usize = 512;
/// Create a database record every N application updates.
const RECORD_EVERY: u64 = 16;
/// Deterministic retry-after hint (milliseconds) embedded in
/// `Overloaded` rejections.
const OVERLOAD_RETRY_AFTER_MS: u64 = 500;

/// Marshalling/dispatch CPU the ORB cost model charges for one peer
/// message: stub side when sent, skeleton side when served.
pub fn orb_call_cost(msg: &PeerMsg) -> simnet::SimDuration {
    ORB_COSTS.call_cost(wire::codec::encoded_len(msg))
}

/// Static configuration of one DISCOVER server.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// This server's network address.
    pub addr: ServerAddr,
    /// Human name (e.g. `"rutgers"`).
    pub name: String,
    /// Per-client FIFO poll-buffer capacity.
    pub fifo_capacity: usize,
    /// Application tokens accepted by the Daemon servlet; `None` accepts
    /// any token.
    pub accepted_tokens: Option<Vec<AppToken>>,
    /// Steering-lock lease: a holder silent for longer may be evicted on
    /// the next contending request (lazy expiry). `None` = hold forever,
    /// the paper's plain protocol.
    pub lock_lease: Option<simnet::SimDuration>,
    /// Per-peer resource policy (§6.3 "Resource utilization"): maximum
    /// served GIOP requests per peer per second, enforced over one-second
    /// accounting windows. `None` = unlimited.
    pub peer_rate_limit: Option<u32>,
    /// Idle client sessions older than this are reaped (their locks
    /// released and groups left, like a logout). `None` = never.
    pub session_idle_timeout: Option<simnet::SimDuration>,
    /// Two-phase idle teardown: when set, a session whose lease lapses
    /// is *parked* — its FIFO, selections, and lock interest survive for
    /// this long awaiting a reconnect-with-resume — and only reclaimed
    /// with full logout teardown once the park TTL also expires. `None`
    /// = reclaim immediately at idle timeout (single-phase teardown).
    pub session_park_ttl: Option<simnet::SimDuration>,
    /// Paced recovery: maximum parked-session resumes admitted per
    /// one-second accounting window. Excess reconnects (a flash crowd
    /// after a partition heals) are deferred with `Overloaded` plus a
    /// per-client jittered retry-after so the backlog drains as a paced
    /// queue instead of a thundering herd. `None` = admit every resume.
    pub resume_rate_limit: Option<u32>,
    /// Admission control: maximum view-class operations in flight toward
    /// local applications; further view ops are rejected at HTTP ingress
    /// with `Overloaded` + a retry-after hint. Command-class operations
    /// (steering/lock traffic) are exempt. `None` = admit everything,
    /// the paper's behaviour.
    pub admission_inflight_max: Option<usize>,
    /// Bound on each `ApplicationProxy`'s compute-phase Daemon buffer;
    /// overflow sheds lowest-priority-oldest with `Overloaded`. `None` =
    /// unbounded (the §6.2 memory concern).
    pub proxy_buffer_capacity: Option<usize>,
    /// Latest-wins coalescing in per-client FIFO poll buffers: a pushed
    /// view-class update replaces a still-queued superseded update for
    /// the same `(app, view-key)` slot instead of enqueuing behind it
    /// (commands, responses and errors are never coalesced; see
    /// `webserv::FifoBuffer`). Off by default so existing schedules and
    /// bench baselines are byte-identical; E18 and the coalescing check
    /// scenarios turn it on.
    pub coalesce_fifo: bool,
    /// Periodic archive snapshots: every N appended records per app log,
    /// the current delta segment closes and a folded-state snapshot is
    /// taken, so latecomer catch-up is nearest-snapshot + tail (O(N))
    /// instead of a full-log replay (O(session length)). `None` = no
    /// snapshots, the paper's plain archive.
    pub snapshot_every: Option<u64>,
    /// Compact closed delta segments: superseded view-class records
    /// (status, readings, params, lock transitions) are dropped when a
    /// later record in the same closed segment overwrites them. Only
    /// meaningful with `snapshot_every`; event-class records (chat,
    /// whiteboard, commands) are never compacted.
    pub compact_closed_segments: bool,
    /// Restart-from-archive: `on_restart` wipes the volatile session
    /// plane and rebuilds each local app's proxy context (status,
    /// readings, lock holder) from its archive's folded state, so a
    /// crash mid-session recovers byte-identically instead of resetting.
    /// Returning clients are paced through `resume_rate_limit`.
    pub recover_from_archive: bool,
    /// Test-only: the one seeded bug this server runs with, for the
    /// scenario checker's mutation test. Never set in production configs.
    #[doc(hidden)]
    pub mutation: Option<Mutation>,
}

impl ServerConfig {
    /// Defaults for a server at `addr`.
    pub fn new(addr: ServerAddr, name: impl Into<String>) -> Self {
        ServerConfig {
            addr,
            name: name.into(),
            fifo_capacity: 256,
            accepted_tokens: None,
            lock_lease: None,
            peer_rate_limit: None,
            session_idle_timeout: Some(simnet::SimDuration::from_secs(600)),
            session_park_ttl: None,
            resume_rate_limit: None,
            admission_inflight_max: None,
            proxy_buffer_capacity: None,
            coalesce_fifo: false,
            snapshot_every: None,
            compact_closed_segments: false,
            recover_from_archive: false,
            mutation: None,
        }
    }
}

/// Out-calls the core needs the middleware substrate to perform.
#[derive(Clone, Debug, PartialEq)]
pub enum Effect {
    /// Fan level-1 authentication out to every known peer server.
    RemoteAuth {
        /// Requesting local client.
        client: ClientId,
        /// Credentials to present.
        user: UserId,
        /// Password (shared-secret convention).
        password: String,
    },
    /// Relay one client-facing verb to a remote application's host
    /// server; the answer (or the reason there is none) comes back
    /// through [`ServerCore::complete_relay`].
    Relay {
        /// Requesting local client.
        client: ClientId,
        /// Remote application.
        app: AppId,
        /// What to ask of its host.
        verb: RelayVerb,
    },
    /// Subscribe this server to collaboration updates for a remote app.
    Subscribe {
        /// The remote application.
        app: AppId,
    },
    /// Unsubscribe (last local client left the app's group).
    Unsubscribe {
        /// The remote application.
        app: AppId,
    },
    /// Push an update to these subscribed peer servers (one message per
    /// server — the §5.2.3 traffic-reduction mechanism).
    PushToPeers {
        /// The update, frozen once; every peer message splices the same
        /// encoding.
        update: FrozenUpdate,
        /// Target servers.
        peers: Vec<ServerAddr>,
    },
    /// Forward a locally generated update for a REMOTE app to its host
    /// server, which owns fan-out.
    ForwardToHost {
        /// The update (frozen once at creation).
        update: FrozenUpdate,
    },
    /// Announce a control-channel event to all peers.
    Announce {
        /// Event class.
        kind: ControlEventKind,
        /// Human-readable detail.
        detail: String,
        /// The application concerned (registration/closure events), so
        /// the substrate can maintain the naming service bindings.
        app: Option<AppId>,
    },
}

/// A client-facing verb whose state lives at the application's host, as
/// a non-host server relays it (§5.2.2–§5.2.5).
#[derive(Clone, Debug, PartialEq)]
pub enum RelayVerb {
    /// Invoke an operation via the application's `CorbaProxy`.
    Op {
        /// Acting user.
        user: UserId,
        /// The operation.
        op: AppOp,
    },
    /// Request (`acquire`) or release the steering lock.
    Lock {
        /// Acting user.
        user: UserId,
        /// True = acquire, false = release.
        acquire: bool,
    },
    /// Fetch archived history.
    History {
        /// First sequence wanted.
        since: u64,
    },
}

/// The continuation of a relayed verb: which verb it was, and what
/// answering the client needs when the call fails — the lock direction
/// to word the refusal, the cursor an empty history page leaves unmoved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Relayed {
    /// A relayed operation.
    Op,
    /// A relayed lock request/release.
    Lock {
        /// True = acquire, false = release.
        acquire: bool,
    },
    /// A relayed history fetch.
    History {
        /// First sequence that was wanted.
        since: u64,
    },
}

/// Cached knowledge about an application hosted at a peer server.
#[derive(Clone, Debug)]
pub struct RemoteApp {
    /// Human name.
    pub name: String,
    /// Kind tag.
    pub kind: String,
    /// Published interface.
    pub interface: InteractionSpec,
    /// Last known status (from collaboration updates).
    pub last_status: AppStatus,
}

/// A session whose lease lapsed, held under the park TTL awaiting a
/// reconnect-with-resume. Its FIFO (still registered in `fifos` and
/// still accumulating bounded updates), collaboration membership, and
/// any held steering lock all survive the park.
struct ParkedSession {
    /// The session state, removed from the live table verbatim.
    session: HttpSession,
    /// When the lease lapsed (park-TTL expiry is measured from here).
    parked_at: simnet::SimTime,
    /// Archive cursor per selected local app at park time: everything
    /// the host logs past this point is the "missed suffix" a resume
    /// replays through the paged catch-up path.
    cursors: Vec<(AppId, u64)>,
}

/// Where a host-side request came from. The host decides the same way
/// for both; an origin only selects where the answer goes, whose FIFO a
/// resulting broadcast skips, and the `origin=` token in the history.
#[derive(Clone, Copy)]
enum Origin {
    /// A session at this server.
    Local { client: ClientId },
    /// A peer server relaying for one of its sessions; `via` is that
    /// server's node.
    Relay { via: NodeId },
}

impl Origin {
    /// The local session behind the request, if there is one.
    fn client(self) -> Option<ClientId> {
        match self {
            Origin::Local { client } => Some(client),
            Origin::Relay { .. } => None,
        }
    }

    /// Detail texts of the `AccessDenied` and `LockRequired` refusals.
    /// They differ per origin for no better reason than history, and stay
    /// that way because they are sized on the links (DESIGN.md §5).
    fn refusal_texts(self) -> (&'static str, &'static str) {
        match self {
            Origin::Local { .. } => ("not on the ACL", "acquire the steering lock first"),
            Origin::Relay { .. } => ("not on ACL", "steering lock not held"),
        }
    }
}

/// The `origin=` token of a history detail.
impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Origin::Local { .. } => f.write_str("origin=local"),
            Origin::Relay { via } => write!(f, "origin=relay via={via:?}"),
        }
    }
}

/// Which request a replay of an application's log answers. They share
/// the walk (`ServerCore::replay`) and differ in whether the reply can
/// carry a snapshot and in the counters they move.
#[derive(Clone, Copy)]
enum Replay {
    /// `GetHistory` / a peer's `FetchHistory`: every retained record from
    /// the cursor.
    History,
    /// `CatchUp`: nearest snapshot + tail, always as a `CatchUp` reply.
    CatchUp,
    /// One selected application of a `Resume`: nearest snapshot + tail,
    /// as a `CatchUp` reply only when a snapshot came with it.
    Resume,
}

/// An operation awaiting its result: who asked, and how the answer gets
/// back to them.
struct PendingOp {
    origin: Origin,
    user: UserId,
    app: AppId,
    /// The relayed GIOP call the result answers (request id, operation
    /// name); `None` for a local client, whose result goes to its FIFO.
    call: Option<(u64, Name)>,
}

/// What a run of FIFO pushes did, summed so one handler folds it into the
/// node's metrics once instead of per push: enqueues, drops and coalesces
/// count directly; the high-water mark is folded as a monotone counter of
/// peak increments, since the run-wide total sums counters.
#[derive(Default)]
struct FifoTally {
    enqueued: u64,
    dropped: u64,
    coalesced: u64,
    peak_growth: u64,
}

impl FifoTally {
    /// Push `msg` and take note of what the buffer did with it.
    fn push(&mut self, fifo: &mut FifoBuffer, msg: ClientMessage) {
        self.enqueued += 1;
        match fifo.push_with_outcome(msg) {
            Pushed::Appended { peak_rose } => self.peak_growth += u64::from(peak_rose),
            Pushed::Coalesced => self.coalesced += 1,
            Pushed::EvictedOldest => self.dropped += 1,
        }
    }

    /// Write each total that moved. A counter nothing moved stays
    /// unwritten, hence absent from reports, as under per-push counting.
    fn fold(self, ctx: &mut Ctx<'_, Envelope>) {
        let metrics = ctx.metrics();
        for (counter, n) in [
            (names::WEBSERV_FIFO_ENQUEUED, self.enqueued),
            (names::WEBSERV_FIFO_DROPPED, self.dropped),
            (names::WEBSERV_FIFO_COALESCED, self.coalesced),
            (names::WEBSERV_FIFO_PEAK, self.peak_growth),
        ] {
            if n > 0 {
                metrics.add(counter, n);
            }
        }
    }
}

/// The server core. See module docs.
pub struct ServerCore {
    /// Configuration (public for inspection in tests/benches).
    pub config: ServerConfig,
    sessions: SessionTable,
    /// Parked sessions keyed by cookie (BTreeMap for deterministic
    /// reclamation order).
    parked: BTreeMap<u64, ParkedSession>,
    /// Paced-recovery accounting: (window start micros, resumes admitted
    /// in the current one-second window).
    resume_accounting: (u64, u32),
    cookie_of_client: HashMap<ClientId, u64>,
    fifos: IdMap<ClientId, FifoBuffer>,
    /// The hosted applications, one record each, walked in `AppId` order.
    apps: BTreeMap<AppId, ApplicationProxy>,
    next_app_seq: u32,
    next_client_seq: u32,
    next_request: u64,
    origins: HashMap<RequestId, PendingOp>,
    collab: CollabGroups,
    archive: ArchiveStore,
    records: RecordStore,
    /// Remote application mirror cache.
    remote_apps: HashMap<AppId, RemoteApp>,
    /// Privileges learned from peer authentication, per (user, app).
    remote_privs: HashMap<(UserId, AppId), Privilege>,
    /// The one effect channel: every handler queues its out-calls here
    /// and each public entry point drains it once on the way out.
    effects: Vec<Effect>,
    /// Per-peer request accounting: (window start micros, count in window,
    /// lifetime total, lifetime throttled).
    peer_accounting: HashMap<NodeId, (u64, u32, u64, u64)>,
    /// Ambient span of the request currently being handled (the node
    /// shell sets it around `handle_http`/`handle_giop`); operations
    /// dispatched to applications parent their proxy spans under it.
    pub incoming_trace: Option<TraceContext>,
    /// Deadline stamp of the request currently being handled (set by the
    /// node shell alongside `incoming_trace`); checked at ingress and at
    /// dispatch, and parked with operations buffered during compute
    /// phases so expiry is re-checked at dequeue.
    pub incoming_deadline: Option<DeadlineStamp>,
    /// Open proxy-execution spans of operations in flight to local
    /// applications, keyed by request id: (`proxy.execute` span,
    /// `app.command` child once the command actually leaves for the
    /// application). Closed when the response (or failure) arrives.
    req_traces: HashMap<RequestId, (TraceContext, Option<TraceContext>)>,
    /// Peer health/breaker lines for status reports, synced by the node
    /// shell (the substrate owns the live state) right before a
    /// `ClientRequest::Status` is dispatched. Purely observational.
    pub peer_status: Vec<PeerStatusEntry>,
    /// Directory-plane (shard ring + discovery cache) lines for status
    /// reports, synced by the node shell alongside `peer_status`.
    /// Purely observational.
    pub dir_plane: wire::DirPlaneStatus,
    /// Reusable scratch for the daemon-servlet flush loop: buffered
    /// operations are drained here, dispatched locally, and the
    /// allocation is kept for the next phase change instead of being
    /// rebuilt per flush.
    flush_scratch: Vec<BufferedOp>,
    /// Length of the last §6.3 outcome record (`record_text`).
    record_len: usize,
    /// Restart-from-archive recoveries executed so far (status page).
    recoveries: u64,
    /// Local apps whose proxy context was rebuilt in the last recovery.
    recovered_apps: u32,
}

impl ServerCore {
    /// Create a server core.
    pub fn new(config: ServerConfig) -> Self {
        let mut archive = ArchiveStore::new();
        archive.snapshot_every = config.snapshot_every;
        archive.compact_closed_segments = config.compact_closed_segments;
        archive.mutation = config.mutation;
        ServerCore {
            config,
            sessions: SessionTable::new(),
            parked: BTreeMap::new(),
            resume_accounting: (0, 0),
            cookie_of_client: HashMap::new(),
            fifos: IdMap::default(),
            apps: BTreeMap::new(),
            next_app_seq: 0,
            next_client_seq: 0,
            next_request: 0,
            origins: HashMap::new(),
            collab: CollabGroups::new(),
            archive,
            records: RecordStore::new(),
            remote_apps: HashMap::new(),
            remote_privs: HashMap::new(),
            effects: Vec::new(),
            peer_accounting: HashMap::new(),
            incoming_trace: None,
            incoming_deadline: None,
            req_traces: HashMap::new(),
            peer_status: Vec::new(),
            dir_plane: wire::DirPlaneStatus::default(),
            flush_scratch: Vec::new(),
            record_len: 0,
            recoveries: 0,
            recovered_apps: 0,
        }
    }

    /// This server's address.
    pub fn addr(&self) -> ServerAddr {
        self.config.addr
    }

    /// Number of registered local applications.
    pub fn local_app_count(&self) -> usize {
        self.apps.len()
    }

    /// Number of live client sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Number of parked sessions awaiting resume or reclamation (the
    /// lease-reclamation oracle's no-leak observable).
    pub fn parked_count(&self) -> usize {
        self.parked.len()
    }

    /// Borrow a local application proxy (tests).
    pub fn proxy(&self, app: AppId) -> Option<&ApplicationProxy> {
        self.apps.get(&app)
    }

    /// Borrow the archive (tests).
    pub fn archive(&self) -> &ArchiveStore {
        &self.archive
    }

    /// Borrow the record store (tests).
    pub fn records(&self) -> &RecordStore {
        &self.records
    }

    /// Borrow the collaboration groups (tests).
    pub fn collab(&self) -> &CollabGroups {
        &self.collab
    }

    /// Total messages dropped across all client FIFOs.
    pub fn fifo_dropped_total(&self) -> u64 {
        self.fifos.values().map(FifoBuffer::dropped).sum()
    }

    /// Peak FIFO occupancy across all clients.
    pub fn fifo_peak_max(&self) -> usize {
        self.fifos.values().map(FifoBuffer::peak).max().unwrap_or(0)
    }

    /// Peak Daemon-buffer occupancy across all local application proxies
    /// (the E15 bounded-queue observable).
    pub fn proxy_buffered_peak_max(&self) -> usize {
        self.apps.values().map(ApplicationProxy::buffered_peak).max().unwrap_or(0)
    }

    /// Total operations shed from Daemon buffers across all proxies.
    pub fn proxy_shed_total(&self) -> u64 {
        self.apps.values().map(ApplicationProxy::shed_total).sum()
    }

    /// Lifetime served / throttled GIOP request counts per peer node.
    pub fn peer_accounting(&self) -> Vec<(NodeId, u64, u64)> {
        let mut v: Vec<_> =
            self.peer_accounting.iter().map(|(n, (_, _, total, thr))| (*n, *total, *thr)).collect();
        v.sort_by_key(|(n, ..)| n.index());
        v
    }

    /// Per-client FIFO statistics: (client, queued, peak, dropped,
    /// enqueued) — the §6.2 slow-client memory-overhead observables.
    pub fn fifo_snapshot(&self) -> Vec<(ClientId, usize, usize, u64, u64)> {
        let mut v: Vec<_> = self
            .fifos
            .iter()
            .map(|(c, f)| (*c, f.len(), f.peak(), f.dropped(), f.enqueued()))
            .collect();
        v.sort_by_key(|(c, ..)| *c);
        v
    }

    /// All local app ids (tests/benches).
    pub fn local_app_ids(&self) -> Vec<AppId> {
        self.apps.keys().copied().collect()
    }

    /// Build a read-only live status snapshot of this server: session
    /// table, lock holders, FIFO depths, admission in-flight, shed
    /// counts, plus the peer lines last synced into
    /// [`ServerCore::peer_status`]. Every number comes from the same
    /// state the folded node metrics are derived from, so a report and
    /// the run's metrics always agree.
    pub fn status_report(&self, at_us: u64) -> StatusReport {
        let apps: Vec<AppStatusEntry> = self
            .apps
            .values()
            .map(|p| {
                let log = self.archive.app_log(p.app);
                AppStatusEntry {
                    app: p.app,
                    name: p.name.clone(),
                    phase: p.phase,
                    lock_holder: p.lock.holder().cloned(),
                    buffered: p.buffered.len() as u32,
                    shed_total: p.shed_total(),
                    archive_records: log.map(|l| l.len() as u64).unwrap_or(0),
                    archive_snapshots: log.map(|l| l.snapshots().len() as u32).unwrap_or(0),
                    archive_compacted: log.map(|l| l.compacted()).unwrap_or(0),
                    db_records: self.records.count_for_app(p.app),
                }
            })
            .collect();
        let mut fifos: Vec<FifoStatusEntry> = self
            .fifos
            .iter()
            .map(|(client, fifo)| FifoStatusEntry {
                client: *client,
                queued: fifo.len() as u32,
                peak: fifo.peak() as u32,
                dropped: fifo.dropped(),
            })
            .collect();
        fifos.sort_by_key(|f| f.client);
        StatusReport {
            server: self.config.addr,
            at_us,
            sessions_active: self.sessions.len() as u32,
            sessions_parked: self.parked.len() as u32,
            admission_in_flight: self.origins.len() as u32,
            fifo_dropped: self.fifo_dropped_total(),
            shed_total: self.proxy_shed_total(),
            apps,
            fifos,
            peers: self.peer_status.clone(),
            recovered_apps: self.recovered_apps,
            recoveries: self.recoveries,
            dir_plane: self.dir_plane.clone(),
        }
    }

    fn alloc_request(&mut self) -> RequestId {
        let id = RequestId(self.next_request);
        self.next_request += 1;
        id
    }

    fn fifo_push(&mut self, ctx: &mut Ctx<'_, Envelope>, client: ClientId, msg: ClientMessage) {
        let mut tally = FifoTally::default();
        if let Some(fifo) = self.fifos.get_mut(&client) {
            tally.push(fifo, msg);
        }
        tally.fold(ctx);
    }

    fn error(code: ErrorCode, detail: impl Into<String>) -> ClientMessage {
        ClientMessage::Error(WireError::new(code, detail))
    }

    /// Send the single HTTP response for a request.
    fn respond(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        to: NodeId,
        status: u16,
        set_session: Option<u64>,
        body: Vec<ClientMessage>,
    ) {
        // Build the envelope first: it computes (and caches) the wire
        // size, so the cost model reads the same number instead of
        // running a second full serializer walk over the body.
        let env = Envelope::http_response(HttpResponse { status, set_session, body });
        let cost = HTTP_COSTS.response_cost(env.wire_size());
        ctx.consume(cost);
        ctx.metrics().incr(names::SERVER_HTTP_RESPONSES);
        ctx.send(to, env);
    }

    /// Hand the queued effects to the caller. Every public entry point
    /// that returns effects ends here; the substrate calls it after the
    /// `complete_relay` / `complete_remote_auth` / `apply_peer_update`
    /// completions, which only queue.
    pub fn drain_effects(&mut self) -> Vec<Effect> {
        std::mem::take(&mut self.effects)
    }

    /// Take back the buffer of a drained effect queue, emptied by whoever
    /// performed the effects, so that the next handler queues into it
    /// instead of growing a new one from nothing. Kept only if the queue
    /// owns no buffer by now (a nested drain may already have handed one
    /// back).
    pub fn recycle_effects(&mut self, mut drained: Vec<Effect>) {
        if self.effects.capacity() == 0 {
            drained.clear();
            self.effects = drained;
        }
    }
}

#[cfg(test)]
mod tests {
    //! The harness every plane's tests share: a core that is its own
    //! application, portal and peer server.

    use super::*;
    use simnet::{Actor, Engine};
    use wire::giop::{GiopBody, GiopFrame};
    use wire::http::HttpRequest;
    use wire::tcp::TcpFrame;
    use wire::{AppDescriptor, AppMsg, AppPhase, Channel, ClientRequest, ObjectKey, OpOutcome};
    use wire::{PeerReply, ResponseBody, UpdateBody};

    use crate::security;

    pub(super) const ADDR: ServerAddr = ServerAddr(1);
    pub(super) const APP: AppId = AppId { server: ADDR, seq: 0 };

    pub(super) const ANCHOR: AppId = AppId { server: ADDR, seq: 1 };
    pub(super) const PEER: ServerAddr = ServerAddr(2);
    pub(super) const REMOTE: AppId = AppId { server: PEER, seq: 0 };

    pub(super) fn user(name: &str) -> UserId {
        UserId::new(name)
    }

    pub(super) type Script = Box<dyn FnOnce(&mut ServerCore, &mut Ctx<'_, Envelope>)>;

    /// A core that is its own application, portal and peer server: the
    /// script calls the public entry points directly, and whatever the
    /// core sends comes back to this node, where commands are answered
    /// as the application would and replies are kept.
    pub(super) struct Loopback {
        pub(super) core: ServerCore,
        script: Option<Script>,
        pub(super) http: Vec<HttpResponse>,
        pub(super) giop: Vec<PeerReply>,
        /// Effects returned while answering commands.
        pub(super) effects: Vec<Effect>,
        /// Every command the core sent the application, in order.
        pub(super) commands: Vec<RequestId>,
    }

    impl Loopback {
        pub(super) fn run(config: ServerConfig, script: Script) -> (Engine<Envelope>, NodeId) {
            let mut engine = Engine::new(1);
            engine.enable_history();
            let node = engine.add_node(
                "s",
                Loopback {
                    core: ServerCore::new(config),
                    script: Some(script),
                    http: Vec::new(),
                    giop: Vec::new(),
                    effects: Vec::new(),
                    commands: Vec::new(),
                },
            );
            engine.run_to_quiescence();
            (engine, node)
        }
    }

    impl Actor<Envelope> for Loopback {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
            if let Some(script) = self.script.take() {
                script(&mut self.core, ctx);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, Envelope>, _: NodeId, msg: Envelope) {
            match msg.content {
                wire::Content::HttpResponse(response) => self.http.push(response),
                wire::Content::Giop(GiopFrame { body: GiopBody::Return(reply), .. }) => {
                    self.giop.push(reply)
                }
                wire::Content::Tcp(TcpFrame { msg: AppMsg::Command { req, op }, .. }) => {
                    self.commands.push(req);
                    let outcome = match op {
                        AppOp::SetParam(name, value) => OpOutcome::ParamSet(name, value),
                        AppOp::Command(command) => OpOutcome::CommandDone(command),
                        _ => OpOutcome::Sensors(Vec::new()),
                    };
                    let response = AppMsg::Response { req, result: Ok(outcome) };
                    self.effects.extend(tcp(&mut self.core, ctx, response));
                }
                _ => {}
            }
        }
    }

    /// Every public entry point that returns effects hands over the whole
    /// queue: nothing may be left behind for the next caller.
    pub(super) fn handed_off(core: &ServerCore, effects: Vec<Effect>) -> Vec<Effect> {
        assert!(core.effects.is_empty(), "effects left queued: {:?}", core.effects);
        effects
    }

    pub(super) fn tcp(
        core: &mut ServerCore,
        ctx: &mut Ctx<'_, Envelope>,
        msg: AppMsg,
    ) -> Vec<Effect> {
        let me = ctx.me();
        let effects = core.handle_tcp(ctx, me, TcpFrame::new(Channel::Main, msg), 0);
        handed_off(core, effects)
    }

    pub(super) fn http(
        core: &mut ServerCore,
        ctx: &mut Ctx<'_, Envelope>,
        session: Option<u64>,
        request: ClientRequest,
    ) -> Vec<Effect> {
        let me = ctx.me();
        let request = HttpRequest::post(webserv::paths::COMMAND, session, request);
        let effects = core.handle_http(ctx, me, request, 0);
        handed_off(core, effects)
    }

    pub(super) fn giop(
        core: &mut ServerCore,
        ctx: &mut Ctx<'_, Envelope>,
        msg: PeerMsg,
    ) -> Vec<Effect> {
        let me = ctx.me();
        let frame = GiopFrame::request(7, ObjectKey::new(CORBA_SERVER_KEY), "call", msg);
        let effects = core.handle_giop(ctx, me, frame);
        handed_off(core, effects)
    }

    /// Register `APP` (interacting, ACL as given) and a login anchor every
    /// named user may enter through, then log everyone in. Returns each
    /// user's (cookie, client id), in `acl` order.
    pub(super) fn open_host(
        core: &mut ServerCore,
        ctx: &mut Ctx<'_, Envelope>,
        acl: &[(&str, Option<Privilege>)],
    ) -> Vec<(u64, ClientId)> {
        let register = |acl: Vec<(UserId, Privilege)>, slot| AppMsg::Register {
            token: AppToken::new("t"),
            name: format!("app{slot}"),
            kind: "k".into(),
            acl,
            interface: InteractionSpec::default(),
            slot: Some(slot),
        };
        let granted = acl.iter().filter_map(|(name, p)| p.map(|p| (user(name), p))).collect();
        tcp(core, ctx, register(granted, APP.seq));
        let everyone = acl.iter().map(|(name, _)| (user(name), Privilege::ReadOnly)).collect();
        tcp(core, ctx, register(everyone, ANCHOR.seq));
        tcp(core, ctx, AppMsg::PhaseChange { app: APP, phase: AppPhase::Interacting });
        acl.iter()
            .map(|(name, _)| {
                let user = user(name);
                let password = security::expected_password(&user);
                http(core, ctx, None, ClientRequest::Login { user: user.clone(), password });
                let session = core.sessions.iter().find(|s| s.user == user).expect("logged in");
                (session.cookie, session.client)
            })
            .collect()
    }

    /// A peer subscribes to `APP`, so every broadcast the host owns shows
    /// up as a `PushToPeers` effect.
    pub(super) fn subscribe_peer(core: &mut ServerCore, ctx: &mut Ctx<'_, Envelope>) {
        giop(core, ctx, PeerMsg::SubscribeApp { app: APP, subscriber: PEER });
    }

    pub(super) fn pushed(effects: &[Effect]) -> Vec<&UpdateBody> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::PushToPeers { update, .. } => Some(update.body()),
                _ => None,
            })
            .collect()
    }

    /// A history event without the tokens that name its origin.
    pub(super) fn sans_origin(e: &simnet::HistoryEvent) -> String {
        let detail: Vec<&str> = e
            .detail
            .split_whitespace()
            .filter(|tok| !tok.starts_with("origin=") && !tok.starts_with("via="))
            .collect();
        format!("{} {} {}", e.label, e.actor, detail.join(" "))
    }

    /// A host with one session that selected the hosted `APP` (holding
    /// its lock) and the remote `REMOTE`, and a peer subscribed to `APP`.
    pub(super) fn open_session(core: &mut ServerCore, ctx: &mut Ctx<'_, Envelope>) -> u64 {
        let (cookie, client) = open_host(core, ctx, &[("u", Some(Privilege::Steer))])[0];
        subscribe_peer(core, ctx);
        let remote = AppDescriptor {
            app: REMOTE,
            name: "remote".into(),
            kind: "k".into(),
            status: AppStatus { phase: AppPhase::Interacting, iteration: 0, progress: 0.0 },
            privilege: Privilege::Steer,
            interface: InteractionSpec::default(),
        };
        core.complete_remote_auth(ctx, client, vec![remote]);
        for app in [APP, REMOTE] {
            http(core, ctx, Some(cookie), ClientRequest::SelectApp { app });
        }
        http(core, ctx, Some(cookie), ClientRequest::RequestLock { app: APP });
        cookie
    }

    /// Shared names are no wider than the `String`s they replaced.
    #[test]
    fn an_effect_is_still_96_bytes() {
        assert_eq!(std::mem::size_of::<Effect>(), 96);
    }

    /// Every update waits once per group member as a `ClientMessage` in
    /// a FIFO slot, and is moved as one into the poll batch, the
    /// response body and the portal's log.
    #[test]
    fn a_waiting_message_is_as_wide_as_its_hot_variants() {
        use std::mem::size_of;
        assert_eq!(size_of::<FrozenUpdate>(), 32, "the variant that fills the FIFOs");
        assert!(
            size_of::<ResponseBody>() <= 88,
            "{} bytes: a reply asked for a few times a session (`Status`, a `CatchUp` \
             snapshot) hangs off a pointer; inline it sizes every slot",
            size_of::<ResponseBody>()
        );
        assert!(
            size_of::<ClientMessage>() <= 88,
            "{} bytes: `ResponseBody`'s niche should hold the tag",
            size_of::<ClientMessage>()
        );
    }
}
