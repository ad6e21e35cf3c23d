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

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::{self, Write};
use std::sync::Arc;

use simnet::{names, Ctx, NodeId, TraceContext};
use webserv::{FifoBuffer, HttpCosts, HttpSession, OrbCosts, SessionTable, TcpCosts};
use wire::giop::{GiopBody, GiopFrame, GiopKind};
use wire::http::{HttpRequest, HttpResponse};
use wire::tcp::TcpFrame;
use wire::{
    AppDescriptor, AppId, AppMsg, AppOp, AppPhase, AppStatus, AppStatusEntry, AppToken, Channel,
    ClientId, ClientMessage, ClientRequest, ControlEvent, ControlEventKind, DeadlineStamp,
    Envelope, ErrorCode, FifoStatusEntry, FrozenUpdate, IdMap, InteractionSpec, LogEntry, Name,
    ObjectKey, OpOutcome, PeerMsg, PeerReply, PeerStatusEntry, Privilege, RequestId, ResponseBody,
    ServerAddr, StatusReport, UpdateBody, UserId, Value, WireError,
};

use crate::archive::ArchiveStore;
use crate::collab::CollabGroups;
use crate::locks::{LockOutcome, SteeringLock};
use crate::mutation::Mutation;
use crate::proxy::{ApplicationProxy, BufferPush, BufferedOp};
use crate::security;
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
        let (dropped, coalesced, peak) = (fifo.dropped(), fifo.coalesced(), fifo.peak());
        fifo.push(msg);
        self.enqueued += 1;
        self.dropped += fifo.dropped() - dropped;
        self.coalesced += fifo.coalesced() - coalesced;
        self.peak_growth += (fifo.peak() - peak) as u64;
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
    apps: HashMap<AppId, ApplicationProxy>,
    app_by_node: HashMap<NodeId, AppId>,
    next_app_seq: u32,
    next_client_seq: u32,
    next_request: u64,
    origins: HashMap<RequestId, PendingOp>,
    collab: CollabGroups,
    archive: ArchiveStore,
    records: RecordStore,
    /// Peers subscribed to each local app's updates (push mode).
    subscribers: HashMap<AppId, BTreeSet<ServerAddr>>,
    /// Remote application mirror cache.
    remote_apps: HashMap<AppId, RemoteApp>,
    /// Privileges learned from peer authentication, per (user, app).
    remote_privs: HashMap<(UserId, AppId), Privilege>,
    update_counter: HashMap<AppId, u64>,
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
    /// Mirror servers learned from the substrate's failover directory,
    /// per application: shed/overload rejections embed a redirect hint
    /// to the mirror when one is known.
    mirror_hints: BTreeMap<AppId, ServerAddr>,
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
            apps: HashMap::new(),
            app_by_node: HashMap::new(),
            next_app_seq: 0,
            next_client_seq: 0,
            next_request: 0,
            origins: HashMap::new(),
            collab: CollabGroups::new(),
            archive,
            records: RecordStore::new(),
            subscribers: HashMap::new(),
            remote_apps: HashMap::new(),
            remote_privs: HashMap::new(),
            update_counter: HashMap::new(),
            effects: Vec::new(),
            peer_accounting: HashMap::new(),
            incoming_trace: None,
            incoming_deadline: None,
            mirror_hints: BTreeMap::new(),
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

    /// Record that the failover directory knows a mirror for `app` (the
    /// substrate calls this when a trader re-query resolves the app to a
    /// different host); shed replies for `app` gain a redirect hint.
    pub fn set_mirror_hint(&mut self, app: AppId, server: ServerAddr) {
        self.mirror_hints.insert(app, server);
    }

    /// Forget a mirror hint (the app resolved back to its home host).
    pub fn clear_mirror_hint(&mut self, app: AppId) {
        self.mirror_hints.remove(&app);
    }

    /// The mirror currently hinted for `app`, if any (tests).
    pub fn mirror_hint(&self, app: AppId) -> Option<ServerAddr> {
        self.mirror_hints.get(&app).copied()
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
        let mut ids: Vec<AppId> = self.apps.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Build a read-only live status snapshot of this server: session
    /// table, lock holders, FIFO depths, admission in-flight, shed
    /// counts, plus the peer lines last synced into
    /// [`ServerCore::peer_status`]. Every number comes from the same
    /// state the folded node metrics are derived from, so a report and
    /// the run's metrics always agree.
    pub fn status_report(&self, at_us: u64) -> StatusReport {
        let mut apps: Vec<AppStatusEntry> = self
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
        apps.sort_by_key(|a| a.app);
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

    // -----------------------------------------------------------------
    // Internal helpers
    // -----------------------------------------------------------------

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

    /// Push `update` into the FIFO of every local broadcast target of its
    /// application (members minus `exclude` minus muted clients) and fold
    /// the FIFO counters once for the whole fan-out. Returns the number
    /// of targets; each got a reference to the one frozen encoding.
    fn fan_out(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        update: &FrozenUpdate,
        exclude: Option<ClientId>,
    ) -> u64 {
        let mut targets = 0;
        let mut tally = FifoTally::default();
        for client in self.collab.broadcast_targets(update.app(), exclude) {
            targets += 1;
            if let Some(fifo) = self.fifos.get_mut(&client) {
                tally.push(fifo, ClientMessage::Update(update.clone()));
            }
        }
        tally.fold(ctx);
        targets
    }

    /// Append to an app's archive log, folding the archival tick
    /// (snapshot taken / records compacted) into the node's metrics.
    fn log_app_metered(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        app: AppId,
        user: Option<UserId>,
        entry: LogEntry,
    ) {
        let tick = self.archive.log_app(app, ctx.now(), user, entry);
        if tick.snapshot_taken {
            ctx.metrics().incr(names::SERVER_ARCHIVE_SNAPSHOTS);
        }
        if tick.compacted > 0 {
            ctx.metrics().add(names::SERVER_ARCHIVE_COMPACTED, tick.compacted);
        }
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

    /// Deliver `update` to local group members (except `exclude`), and if
    /// this server hosts the app, log it and return the peer push set.
    fn route_update(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        update: impl Into<FrozenUpdate>,
        exclude: Option<ClientId>,
        origin_peer: Option<ServerAddr>,
    ) {
        // Freeze once: the single DBP serialization this update will
        // ever get on this server (already-frozen updates from a peer
        // pass through untouched).
        let update: FrozenUpdate = update.into();
        let app = update.app();
        if origin_peer.is_none() {
            // A logical broadcast originates here (every origin_peer=Some
            // call re-routes an update some other server already froze
            // and counted), so `wire.encode_calls` per steady-state
            // broadcast is exactly one network-wide.
            ctx.metrics().incr(names::SERVER_COLLAB_BROADCASTS);
        }
        // Every fan-out target below — N local fifos, the proxy update
        // log, the archive, and M peer pushes — shares the one frozen
        // encoding; each reuse is a reference-count bump, not a clone or
        // a serializer walk.
        let mut reuses = self.fan_out(ctx, &update, exclude);
        ctx.metrics().add(names::SERVER_COLLAB_LOCAL_FANOUT, reuses);
        if app.host() == self.config.addr {
            // We are the host: record and fan out to subscribed peers.
            if let Some(proxy) = self.apps.get_mut(&app) {
                proxy.push_update(update.clone(), origin_peer);
                reuses += 1;
            }
            self.log_app_metered(ctx, app, None, LogEntry::Update(update.clone()));
            reuses += 1;
            let peers: Vec<ServerAddr> = self
                .subscribers
                .get(&app)
                .map(|s| s.iter().copied().filter(|p| Some(*p) != origin_peer).collect())
                .unwrap_or_default();
            if !peers.is_empty() {
                reuses += peers.len() as u64;
                self.effects.push(Effect::PushToPeers { update, peers });
            }
        } else if origin_peer.is_none() {
            // Locally generated update about a remote app: the host owns
            // global fan-out.
            reuses += 1;
            self.effects.push(Effect::ForwardToHost { update });
        }
        ctx.metrics().add(names::SERVER_FANOUT_PAYLOAD_REUSE, reuses);
    }

    /// The global application list visible to `user` (local + cached
    /// remote knowledge).
    fn visible_apps(&self, user: &UserId) -> Vec<AppDescriptor> {
        let mut out: Vec<AppDescriptor> =
            self.apps.values().filter_map(|p| p.descriptor_for(user)).collect();
        for ((u, app), privilege) in &self.remote_privs {
            if u != user {
                continue;
            }
            if let Some(remote) = self.remote_apps.get(app) {
                out.push(AppDescriptor {
                    app: *app,
                    name: remote.name.clone(),
                    kind: remote.kind.clone(),
                    status: remote.last_status.clone(),
                    privilege: *privilege,
                    interface: remote.interface.clone(),
                });
            }
        }
        out.sort_by_key(|d| d.app);
        out
    }

    /// Settle request `req` with `result` — the application's answer, or
    /// the reason it never got one — and route it back to its origin.
    fn resolve_op(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        req: RequestId,
        result: Result<OpOutcome, WireError>,
    ) {
        self.close_req_trace(ctx, req);
        if let Some(pending) = self.origins.remove(&req) {
            self.complete_op(ctx, pending, result);
        }
    }

    /// Fail a shed buffered operation with `Overloaded`, embedding a
    /// redirect hint when the failover directory knows a mirror for the
    /// application.
    fn shed_op(&mut self, ctx: &mut Ctx<'_, Envelope>, app: AppId, victim: BufferedOp) {
        ctx.metrics().incr(names::SERVER_PROXY_SHED);
        ctx.record_history(
            "daemon.shed",
            app,
            "",
            format_args!("req={} class={:?}", victim.req.0, victim.priority()),
        );
        let span = self.req_traces.get(&victim.req).map(|(p, _)| *p);
        ctx.trace_annotate(span, "shed: daemon buffer full");
        let detail = match self.mirror_hints.get(&app) {
            Some(mirror) => {
                ctx.metrics().incr(names::SERVER_PROXY_SHED_REDIRECTED);
                format!(
                    "daemon buffer full; redirect: {} mirrored at host {mirror}",
                    app.naming_path()
                )
            }
            None => format!("daemon buffer full; retry-after: {OVERLOAD_RETRY_AFTER_MS}ms"),
        };
        self.resolve_op(ctx, victim.req, Err(WireError::new(ErrorCode::Overloaded, detail)));
    }

    /// Forward `op` toward a local application, honouring the Daemon
    /// servlet's compute-phase buffering. `deadline` is the stamp the
    /// operation is travelling under (checked here at dispatch, and
    /// parked with the operation if it gets buffered).
    fn dispatch_to_app(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        app: AppId,
        req: RequestId,
        op: AppOp,
        deadline: Option<DeadlineStamp>,
    ) {
        if !self.apps.contains_key(&app) {
            return;
        }
        // Expired work is dropped at the dispatch hop instead of being
        // sent to (or buffered for) the application uselessly.
        if let Some(stamp) = deadline {
            if stamp.expired(ctx.now()) {
                ctx.metrics().incr(names::SERVER_DEADLINE_DISPATCH_EXPIRED);
                let error =
                    WireError::new(ErrorCode::DeadlineExceeded, "deadline passed at dispatch");
                return self.resolve_op(ctx, req, Err(error));
            }
        }
        // A request reaches here once at ingress and possibly again when
        // flushed from the compute-phase buffer; the proxy span is opened
        // only on first dispatch so buffering time stays inside it.
        if !self.req_traces.contains_key(&req) {
            if let Some(span) = ctx.trace_child(self.incoming_trace, "proxy.execute") {
                self.req_traces.insert(req, (span, None));
            }
        }
        let Some(proxy) = self.apps.get_mut(&app) else { return };
        match proxy.phase {
            AppPhase::Interacting | AppPhase::Paused => {
                let node = proxy.node;
                // Envelope construction performs the one sizing walk;
                // the cost model reuses its cached size.
                let env = Envelope::tcp(TcpFrame::new(Channel::Command, AppMsg::Command { req, op }));
                ctx.consume(TCP_COSTS.frame_cost(env.wire_size()));
                ctx.send(node, env);
                // Application compute time: from command departure to the
                // daemon's response.
                let parent = self.req_traces.get(&req).map(|(p, _)| *p);
                let app_span = ctx.trace_child(parent, "app.command");
                if let Some(entry) = self.req_traces.get_mut(&req) {
                    if entry.1.is_none() {
                        entry.1 = app_span;
                    } else {
                        ctx.trace_finish(app_span);
                    }
                }
            }
            AppPhase::Computing => {
                let class = wire::Priority::of_op(&op);
                let shed = match proxy.buffer_op(req, op, deadline) {
                    BufferPush::Buffered => None,
                    BufferPush::Shed(victim) => Some(victim),
                };
                // The incoming op was buffered unless it was itself the
                // lowest-priority candidate.
                if shed.as_ref().is_none_or(|victim| victim.req != req) {
                    ctx.metrics().incr(names::SERVER_DAEMON_BUFFERED);
                    ctx.record_history(
                        "daemon.buffered",
                        app,
                        "",
                        format_args!("req={} class={class:?}", req.0),
                    );
                    let span = self.req_traces.get(&req).map(|(p, _)| *p);
                    ctx.trace_annotate(span, "buffered: application computing");
                }
                if let Some(victim) = shed {
                    self.shed_op(ctx, app, victim);
                }
            }
            AppPhase::Terminated => {
                let error = WireError::new(ErrorCode::Unavailable, "application terminated");
                self.resolve_op(ctx, req, Err(error));
            }
        }
    }

    /// Finish the proxy/app spans of a request, if any were opened.
    fn close_req_trace(&mut self, ctx: &mut Ctx<'_, Envelope>, req: RequestId) {
        if let Some((proxy_span, app_span)) = self.req_traces.remove(&req) {
            ctx.trace_finish(app_span);
            ctx.trace_finish(Some(proxy_span));
        }
    }

    /// The one completion of an operation, wherever it ran and whoever
    /// asked: log the result (the application's log lives at its host, a
    /// client's own log at its local server, §5.2.5), deliver it — into
    /// the local client's FIFO, or as the GIOP reply the relaying peer is
    /// waiting for — and, for a success, run the tail: one update to the
    /// group, and the §6.3 record under the requesting user at the
    /// client's server. Reached from the application's response, from every
    /// path that fails an accepted operation, and (for a local client of
    /// a remote application) from `complete_relay`.
    fn complete_op(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        pending: PendingOp,
        result: Result<OpOutcome, WireError>,
    ) {
        let PendingOp { origin, user, app, call } = pending;
        let hosted = app.host() == self.config.addr;
        let client = origin.client();
        let entry = match &result {
            Ok(outcome) => LogEntry::Response(outcome.clone()),
            Err(e) => LogEntry::Error(e.clone()),
        };
        if hosted {
            if let Some(client) = client {
                self.archive.log_client(client, app, ctx.now(), Some(user.clone()), entry.clone());
            }
            self.log_app_metered(ctx, app, Some(user.clone()), entry);
        } else if let Some(client) = client {
            self.archive.log_client(client, app, ctx.now(), Some(user.clone()), entry);
        }
        // What the tail needs of a success: the text of the record, and
        // a copy of the outcome only if an update will be built from it —
        // otherwise the delivery below is the outcome's last owner.
        let record = match (&result, client) {
            (Ok(outcome), Some(_)) => Some(self.record_text(outcome)),
            _ => None,
        };
        let shared = match &result {
            // The host owns global fan-out of state changes, whoever
            // steered; a relaying server broadcasts nothing for them.
            Ok(OpOutcome::ParamSet(..) | OpOutcome::CommandDone(_)) => hosted,
            // Collaborative response sharing: a non-mutating outcome is
            // echoed to the group when the client collaborates.
            Ok(_) => client.is_some_and(|client| self.collab.broadcast_enabled(app, client)),
            Err(_) => false,
        };
        let outcome = result.as_ref().ok().filter(|_| shared).cloned();
        match origin {
            Origin::Local { client } => {
                let message = match result {
                    Ok(outcome) => ClientMessage::Response(ResponseBody::OpDone { app, outcome }),
                    Err(e) => ClientMessage::Error(e),
                };
                self.fifo_push(ctx, client, message);
            }
            Origin::Relay { via } => {
                if let Some((giop_id, operation)) = call {
                    let env = Envelope::giop(GiopFrame::reply(
                        giop_id,
                        ObjectKey::from_static(CORBA_SERVER_KEY),
                        operation,
                        PeerReply::OpResult { app, result },
                    ));
                    ctx.consume(ORB_COSTS.call_cost(env.wire_size()));
                    ctx.send(via, env);
                }
            }
        }
        let update = outcome.map(|outcome| match outcome {
            OpOutcome::ParamSet(name, value) => {
                UpdateBody::ParamChanged { app, name, value, by: user.clone() }
            }
            OpOutcome::CommandDone(command) => {
                UpdateBody::CommandApplied { app, command, by: user.clone() }
            }
            outcome => UpdateBody::InteractionEcho { app, by: user.clone(), outcome },
        });
        if let Some(update) = update {
            self.route_update(ctx, update, client, None);
        }
        if let Some(text) = record {
            let data = vec![("outcome".to_string(), Value::Text(text))];
            self.records.create(app, user, [], ctx.now(), data);
        }
    }

    /// The text of an outcome's §6.3 record. Successive records are
    /// about as long as each other, so the buffer starts at the length
    /// of the last one instead of growing there in steps.
    fn record_text(&mut self, outcome: &OpOutcome) -> String {
        let mut text = String::with_capacity(self.record_len);
        write!(text, "{outcome:?}").expect("writing to a String cannot fail");
        self.record_len = text.len();
        text
    }

    // -----------------------------------------------------------------
    // HTTP (clients)
    // -----------------------------------------------------------------

    /// Handle one HTTP request from a client portal. Returns out-call
    /// effects for the substrate.
    pub fn handle_http(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        from: NodeId,
        req: HttpRequest,
        wire_bytes: usize,
    ) -> Vec<Effect> {
        ctx.metrics().incr(names::SERVER_HTTP_REQUESTS);
        // `wire_bytes` is the envelope's cached content size — the same
        // number `req.wire_size()` would produce, minus the re-walk.
        ctx.consume(HTTP_COSTS.request_cost(wire_bytes));
        let (status, set_session, body) = self.serve_http(ctx, req);
        self.respond(ctx, from, status, set_session, body);
        self.drain_effects()
    }

    /// Decide the single response to `req`: (status, session cookie to
    /// set, body).
    fn serve_http(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        req: HttpRequest,
    ) -> (u16, Option<u64>, Vec<ClientMessage>) {
        // Webserv ingress deadline check: work that expired in the
        // network (or a client queue) is answered immediately instead of
        // burning server capacity. Only stamped requests (workload ops)
        // ever carry a deadline, so session bookkeeping is unaffected.
        if self.incoming_deadline.is_some_and(|stamp| stamp.expired(ctx.now())) {
            ctx.metrics().incr(names::SERVER_DEADLINE_INGRESS_EXPIRED);
            let error =
                Self::error(ErrorCode::DeadlineExceeded, "deadline passed before server ingress");
            return (200, None, vec![error]);
        }

        let request = match req.body {
            // Login is the only request valid without a session.
            Some(ClientRequest::Login { user, password }) => {
                return self.do_login(ctx, user, &password);
            }
            // Resume authenticates by the presented token (the session
            // may be parked, in which case the live-session lookup below
            // would 401).
            Some(ClientRequest::Resume { cookie, cursors }) => {
                let (status, body) = self.do_resume(ctx, cookie, cursors);
                return (status, None, body);
            }
            // Status is a read-only introspection page, served with or
            // without a session (like the paper's server list): operators
            // must be able to probe a node whose session plane is wedged.
            Some(ClientRequest::Status) => {
                ctx.metrics().incr(names::SERVER_STATUS_REQUESTS);
                let report = Box::new(self.status_report(ctx.now().as_micros()));
                return (200, None, vec![ClientMessage::Response(ResponseBody::Status(report))]);
            }
            request => request,
        };

        let session = req.session.and_then(|c| self.sessions.touch(c, ctx.now()));
        let Some(session) = session else {
            return (401, None, vec![Self::error(ErrorCode::AuthFailed, "no valid session")]);
        };
        let client = session.client;
        let user = session.user.clone();
        let cookie = session.cookie;

        // Admission control: when an inflight budget is configured,
        // view-class operations are rejected at ingress once the budget
        // is spent. Steering commands and lock traffic are exempt — the
        // paper's interaction model keeps control responsive while
        // monitoring load is shed deterministically.
        if let Some(budget) = self.config.admission_inflight_max {
            if let Some(ClientRequest::Op { op, .. }) = &request {
                if !op.is_mutating() && self.origins.len() >= budget {
                    ctx.metrics().incr(names::SERVER_ADMISSION_REJECTED);
                    let error = Self::error(
                        ErrorCode::Overloaded,
                        format!("server overloaded; retry-after: {OVERLOAD_RETRY_AFTER_MS}ms"),
                    );
                    return (200, None, vec![error]);
                }
            }
        }

        let body = match request {
            None | Some(ClientRequest::Poll) => {
                // One envelope per poll: the whole drained batch ships
                // behind a single framing header (`ResponseBody::Batch`),
                // so frames-per-poll is 1 by construction. The batch Vec
                // travels inside the envelope, so the allocation elided
                // here is the empty-poll one: `drain_into` on an empty
                // FIFO never touches the heap, and a nonempty drain
                // reserves exactly once from the iterator's exact size.
                let mut batch = Vec::new();
                if let Some(f) = self.fifos.get_mut(&client) {
                    f.drain_into(POLL_BATCH_MAX, &mut batch);
                }
                ctx.metrics().incr(names::SERVER_POLL_REQUESTS);
                ctx.metrics().add(names::SERVER_POLL_DELIVERED, batch.len() as u64);
                if !batch.is_empty() {
                    ctx.metrics().incr(names::SERVER_POLL_NONEMPTY);
                }
                vec![ClientMessage::Response(ResponseBody::Batch(batch))]
            }
            Some(ClientRequest::Logout) => {
                self.sessions.remove(cookie);
                self.end_session(ctx, client, &user);
                vec![ClientMessage::Response(ResponseBody::LogoutOk)]
            }
            Some(ClientRequest::ListApplications) => {
                // Refresh remote knowledge in the background.
                self.effects.push(Effect::RemoteAuth {
                    client,
                    user: user.clone(),
                    password: security::expected_password(&user),
                });
                vec![ClientMessage::Response(ResponseBody::Apps(self.visible_apps(&user)))]
            }
            Some(ClientRequest::SelectApp { app }) => self.do_select(ctx, client, &user, app),
            Some(ClientRequest::DeselectApp { app }) => {
                self.do_deselect(ctx, client, &user, app);
                vec![ClientMessage::Response(ResponseBody::AppDeselected { app })]
            }
            Some(ClientRequest::Op { app, op }) => self.do_op(ctx, client, &user, app, op),
            Some(ClientRequest::RequestLock { app }) => self.do_lock(ctx, client, &user, app, true),
            Some(ClientRequest::ReleaseLock { app }) => {
                self.do_lock(ctx, client, &user, app, false)
            }
            Some(ClientRequest::JoinSubgroup { app, group }) => {
                self.collab.join_subgroup(app, &group, client);
                vec![ClientMessage::Response(ResponseBody::SubgroupOk { app, group, joined: true })]
            }
            Some(ClientRequest::LeaveSubgroup { app, group }) => {
                self.collab.leave_subgroup(app, &group, client);
                vec![ClientMessage::Response(ResponseBody::SubgroupOk {
                    app,
                    group,
                    joined: false,
                })]
            }
            Some(ClientRequest::SetCollabMode { app, broadcast }) => {
                self.collab.set_broadcast(app, client, broadcast);
                vec![ClientMessage::Response(ResponseBody::CollabModeOk { app, broadcast })]
            }
            Some(ClientRequest::Chat { app, text }) => {
                let update = UpdateBody::Chat { app, from: user, text };
                self.client_update(ctx, client, app, update)
            }
            Some(ClientRequest::Whiteboard { app, stroke }) => {
                let update = UpdateBody::Whiteboard { app, from: user, stroke };
                self.client_update(ctx, client, app, update)
            }
            Some(ClientRequest::ShareView { app, view }) => {
                // Explicit shares bypass the client's broadcast-disabled
                // mode by definition.
                let update = UpdateBody::ViewShared { app, from: user, view };
                self.client_update(ctx, client, app, update)
            }
            Some(ClientRequest::GetHistory { app, since }) => {
                self.client_replay(ctx, client, app, since, Replay::History)
            }
            Some(ClientRequest::CatchUp { app, since }) => {
                self.client_replay(ctx, client, app, since, Replay::CatchUp)
            }
            Some(ClientRequest::GetMyLog { app, since }) => {
                // Client logs live at the client's local server regardless
                // of where the application is hosted (§5.2.5).
                let (records, next_seq) = self.archive.fetch_client(client, app, since);
                vec![ClientMessage::Response(ResponseBody::ClientLog { app, records, next_seq })]
            }
            // Answered above, before the session lookup.
            Some(
                ClientRequest::Login { .. } | ClientRequest::Resume { .. } | ClientRequest::Status,
            ) => vec![Self::error(ErrorCode::BadRequest, "not a session request")],
        };
        (200, None, body)
    }

    /// The one host-side replay of an application's log from `since`,
    /// behind history fetches (local and relayed), catch-up and the
    /// resume suffix: the nearest snapshot ahead of the cursor plus the
    /// delta tail from its boundary, so the reply is O(snapshot
    /// interval), not O(session length), and the plain suffix when no
    /// snapshot helps — or when the reply cannot carry one (`History` has
    /// no snapshot field, so a history fetch keeps returning every
    /// retained record). `kind` also picks the counters that move.
    fn replay(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        app: AppId,
        since: u64,
        kind: Replay,
    ) -> (Option<Arc<wire::ArchiveSnapshot>>, Vec<wire::LogRecord>, u64) {
        let replayed = match kind {
            Replay::History => {
                let (records, next_seq) = self.archive.fetch_app(app, since);
                return (None, records, next_seq);
            }
            Replay::CatchUp => {
                ctx.metrics().incr(names::SERVER_CATCHUP_REQUESTS);
                names::SERVER_CATCHUP_RECORDS
            }
            Replay::Resume => names::SERVER_RESUME_REPLAYED,
        };
        let (snapshot, records, next_seq) = self.archive.catch_up_app(app, since);
        if snapshot.is_some() {
            ctx.metrics().incr(names::SERVER_CATCHUP_SNAPSHOT_HITS);
        }
        ctx.metrics().add(replayed, records.len() as u64);
        (snapshot, records, next_seq)
    }

    /// Answer a local client's replay request: from the log when the
    /// application is hosted here; otherwise relayed to its host for a
    /// group member (the records arrive through the client's FIFO) and
    /// refused for anyone else. A resume replays only what its session
    /// had selected and has its own answer, so it says nothing either way.
    fn client_replay(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        client: ClientId,
        app: AppId,
        since: u64,
        kind: Replay,
    ) -> Vec<ClientMessage> {
        if app.host() == self.config.addr {
            let (snapshot, records, next_seq) = self.replay(ctx, app, since, kind);
            let body = if snapshot.is_some() || matches!(kind, Replay::CatchUp) {
                ResponseBody::CatchUp { app, snapshot, records, next_seq }
            } else {
                ResponseBody::History { app, records, next_seq }
            };
            return vec![ClientMessage::Response(body)];
        }
        let member = self.collab.is_member(app, client);
        if member {
            self.effects.push(Effect::Relay { client, app, verb: RelayVerb::History { since } });
        }
        match (kind, member) {
            (Replay::Resume, _) => Vec::new(),
            (_, true) => vec![ClientMessage::Response(ResponseBody::Accepted)],
            (_, false) => {
                vec![Self::error(ErrorCode::AccessDenied, "select the application first")]
            }
        }
    }

    fn do_login(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        user: UserId,
        password: &str,
    ) -> (u16, Option<u64>, Vec<ClientMessage>) {
        ctx.metrics().incr(names::SERVER_LOGINS);
        if !security::credentials_valid(&user, password) {
            return (401, None, vec![Self::error(ErrorCode::AuthFailed, "bad credentials")]);
        }
        // Level 1 (paper): the user must be on the authorized list of at
        // least one application registered with THIS server.
        let local_apps: Vec<AppDescriptor> =
            self.apps.values().filter_map(|p| p.descriptor_for(&user)).collect();
        if local_apps.is_empty() {
            return (
                401,
                None,
                vec![Self::error(
                    ErrorCode::AuthFailed,
                    "user is not registered with any application at this server",
                )],
            );
        }
        ctx.consume(HTTP_COSTS.ssl_handshake);
        let client = ClientId { server: self.config.addr, seq: self.next_client_seq };
        self.next_client_seq += 1;
        let now = ctx.now();
        let cookie = self.sessions.create(ctx.rng(), user.clone(), client, now);
        self.cookie_of_client.insert(client, cookie);
        self.fifos.insert(
            client,
            FifoBuffer::with_coalescing(self.config.fifo_capacity, self.config.coalesce_fifo),
        );
        // Fan out level-1 authentication to the peer network for the
        // user's global application list.
        self.effects.push(Effect::RemoteAuth {
            client,
            user: user.clone(),
            password: password.to_string(),
        });
        let apps = self.visible_apps(&user);
        (200, Some(cookie), vec![ClientMessage::Response(ResponseBody::LoginOk { client, apps })])
    }

    /// Reconnect-with-resume: revive a parked (or still-live) session by
    /// its token and replay only the missed archive suffix through the
    /// paged catch-up path. Reclaimed/unknown tokens answer 401 so the
    /// client falls back to a full login.
    fn do_resume(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        cookie: u64,
        cursors: Vec<(AppId, u64)>,
    ) -> (u16, Vec<ClientMessage>) {
        // Paced recovery: reviving a parked session replays history, so
        // admissions are metered per accounting second. Deferred clients
        // get a retry-after jittered by stable identity — a flash crowd
        // spreads out instead of re-arriving as one synchronized burst.
        if let (Some(parked), Some(limit)) =
            (self.parked.get(&cookie), self.config.resume_rate_limit)
        {
            let now_us = ctx.now().as_micros();
            if now_us.saturating_sub(self.resume_accounting.0) >= 1_000_000 {
                self.resume_accounting = (now_us, 0);
            }
            if self.resume_accounting.1 >= limit {
                ctx.metrics().incr(names::SERVER_RESUME_THROTTLED);
                let user = parked.session.user.as_str();
                ctx.record_history(
                    "session.resume_deferred",
                    "",
                    user,
                    format_args!("limit={limit}"),
                );
                let retry_ms = OVERLOAD_RETRY_AFTER_MS
                    + wire::jitter::retry_jitter_us(user, 0, OVERLOAD_RETRY_AFTER_MS * 1000)
                        / 1000;
                return (
                    200,
                    vec![Self::error(
                        ErrorCode::Overloaded,
                        format!("resume deferred; retry-after: {retry_ms}ms"),
                    )],
                );
            }
            self.resume_accounting.1 += 1;
        }
        let (client, selected, park_cursors) = match self.parked.remove(&cookie) {
            Some(p) => {
                ctx.metrics().incr(names::SERVER_SESSIONS_RESUMED);
                let client = p.session.client;
                let selected = p.session.selected.clone();
                let parked_ms =
                    ctx.now().as_micros().saturating_sub(p.parked_at.as_micros()) / 1000;
                ctx.record_history(
                    "session.resumed",
                    "",
                    p.session.user.as_str(),
                    format_args!("parked_ms={parked_ms} apps={}", selected.len()),
                );
                self.sessions.restore(p.session, ctx.now());
                (client, selected, p.cursors)
            }
            None => {
                let Some(s) = self.sessions.touch(cookie, ctx.now()) else {
                    let error =
                        Self::error(ErrorCode::SessionExpired, "session expired; log in again");
                    return (401, vec![error]);
                };
                (s.client, s.selected.clone(), Vec::new())
            }
        };
        // Missed-suffix replay: park-time cursors establish the suffix
        // start; explicit client cursors override them (a client that
        // already paged further along skips what it has).
        let mut merged: BTreeMap<AppId, u64> = park_cursors.into_iter().collect();
        merged.extend(cursors);
        let mut body =
            vec![ClientMessage::Response(ResponseBody::Resumed { client, apps: selected.clone() })];
        for (app, since) in merged {
            if selected.contains(&app) {
                body.extend(self.client_replay(ctx, client, app, since, Replay::Resume));
            }
        }
        (200, body)
    }

    /// Tear down a session that has already left the live table: its FIFO
    /// dropped, every group left (and told), subscriptions dropped and
    /// steering locks freed. The one path behind a logout, the idle
    /// reaper and park-TTL reclamation.
    fn end_session(&mut self, ctx: &mut Ctx<'_, Envelope>, client: ClientId, user: &UserId) {
        self.cookie_of_client.remove(&client);
        self.fifos.remove(&client);
        let affected = self.collab.drop_client(client);
        let last_session = !self.sessions.iter().any(|s| s.user == *user);
        for app in affected {
            let update = UpdateBody::MemberLeft { app, user: user.clone() };
            self.route_update(ctx, update, None, None);
            self.maybe_unsubscribe(app);
            self.release_lock_if_last_session(ctx, app, user);
            // A lock held on a REMOTE application must be released at its
            // host server via the relay (otherwise the host would strand
            // the lock until lease expiry).
            if last_session && app.host() != self.config.addr {
                let verb = RelayVerb::Lock { user: user.clone(), acquire: false };
                self.effects.push(Effect::Relay { client, app, verb });
            }
        }
    }

    /// If no other session of `user` remains, force-release their lock on
    /// a local app (disconnect cleanup).
    fn release_lock_if_last_session(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        app: AppId,
        user: &UserId,
    ) {
        let still_here = self.sessions.iter().any(|s| s.user == *user);
        if still_here {
            return;
        }
        if let Some(proxy) = self.apps.get_mut(&app) {
            if proxy.lock.is_held_by(user) {
                proxy.lock.force_release();
                ctx.record_history(
                    "lock.force_released",
                    app,
                    user.as_str(),
                    "origin=logout",
                );
                let update = UpdateBody::LockChanged { app, holder: None };
                self.route_update(ctx, update, None, None);
            }
        }
    }

    /// The live session of a local client, its idle clock refreshed.
    fn session_of(&mut self, client: ClientId, now: simnet::SimTime) -> Option<&mut HttpSession> {
        let cookie = *self.cookie_of_client.get(&client)?;
        self.sessions.touch(cookie, now)
    }

    fn do_select(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        client: ClientId,
        user: &UserId,
        app: AppId,
    ) -> Vec<ClientMessage> {
        // Level-2 authentication: resolve the user's privilege.
        let (privilege, interface, snapshot) = if app.host() == self.config.addr {
            match self.apps.get(&app) {
                None => return vec![Self::error(ErrorCode::NoSuchApp, format!("{app}"))],
                Some(proxy) => match proxy.privilege_of(user) {
                    None => {
                        ctx.metrics().incr(names::SERVER_ACL_DENIED);
                        return vec![Self::error(ErrorCode::AccessDenied, "not on the ACL")];
                    }
                    Some(p) => (
                        p,
                        proxy.interface.clone(),
                        Some(UpdateBody::AppStatus {
                            app,
                            status: proxy.last_status.clone(),
                            readings: proxy.last_readings.clone(),
                        }),
                    ),
                },
            }
        } else {
            match (self.remote_privs.get(&(user.clone(), app)), self.remote_apps.get(&app)) {
                (Some(p), Some(remote)) => (*p, remote.interface.clone(), None),
                _ => {
                    return vec![Self::error(
                        ErrorCode::AccessDenied,
                        "unknown remote application for this user (list applications first)",
                    )]
                }
            }
        };
        let first_member = !self.collab.has_members(app);
        self.collab.join(app, client);
        if let Some(s) = self.session_of(client, ctx.now()) {
            if !s.selected.contains(&app) {
                s.selected.push(app);
            }
        }
        if app.host() != self.config.addr && first_member {
            self.effects.push(Effect::Subscribe { app });
        }
        let update = UpdateBody::MemberJoined { app, user: user.clone() };
        self.route_update(ctx, update, Some(client), None);
        let mut out = vec![ClientMessage::Response(ResponseBody::AppSelected {
            app,
            interface: security::filter_interface(&interface, privilege),
            privilege,
        })];
        if let Some(snapshot) = snapshot {
            out.push(ClientMessage::update(snapshot));
        }
        out
    }

    fn do_deselect(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        client: ClientId,
        user: &UserId,
        app: AppId,
    ) {
        self.collab.leave(app, client);
        if let Some(s) = self.session_of(client, ctx.now()) {
            s.selected.retain(|a| *a != app);
        }
        let update = UpdateBody::MemberLeft { app, user: user.clone() };
        self.route_update(ctx, update, Some(client), None);
        self.maybe_unsubscribe(app);
        self.release_lock_if_last_session(ctx, app, user);
    }

    fn maybe_unsubscribe(&mut self, app: AppId) {
        if app.host() != self.config.addr && !self.collab.has_members(app) {
            self.effects.push(Effect::Unsubscribe { app });
        }
    }

    fn do_op(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        client: ClientId,
        user: &UserId,
        app: AppId,
        op: AppOp,
    ) -> Vec<ClientMessage> {
        ctx.metrics().incr(names::SERVER_OPS);
        if app.host() == self.config.addr {
            let origin = Origin::Local { client };
            return vec![match self.admit_op(ctx, origin, user, app, op, None) {
                Ok(None) => ClientMessage::Response(ResponseBody::Accepted),
                Ok(Some(outcome)) => ClientMessage::Response(ResponseBody::OpDone { app, outcome }),
                Err(e) => ClientMessage::Error(e),
            }];
        }
        let Some(privilege) = self.remote_privs.get(&(user.clone(), app)).copied() else {
            return vec![Self::error(ErrorCode::AccessDenied, "unknown remote application")];
        };
        if let Err(e) = security::authorize_op(privilege, &op) {
            return vec![ClientMessage::Error(e)];
        }
        if matches!(op, AppOp::GetStatus) {
            if let Some(remote) = self.remote_apps.get(&app) {
                return vec![ClientMessage::Response(ResponseBody::OpDone {
                    app,
                    outcome: OpOutcome::Status(remote.last_status.clone()),
                })];
            }
        }
        self.archive.log_client(
            client,
            app,
            ctx.now(),
            Some(user.clone()),
            LogEntry::Request(op.clone()),
        );
        let verb = RelayVerb::Op { user: user.clone(), op };
        self.effects.push(Effect::Relay { client, app, verb });
        vec![ClientMessage::Response(ResponseBody::Accepted)]
    }

    /// The one admission of an operation at its application's host,
    /// whoever asks: ACL → privilege → steering lock held → cached
    /// `GetStatus` → log → dispatch toward the application.
    /// `Ok(Some(outcome))` was answered from the proxy's cached context,
    /// `Ok(None)` is in flight and ends in `complete_op`, `Err` was
    /// refused. `call` names the relayed GIOP call to answer (request id,
    /// operation name), kept with the operation while it is in flight.
    fn admit_op(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        origin: Origin,
        user: &UserId,
        app: AppId,
        op: AppOp,
        call: Option<(u64, &Name)>,
    ) -> Result<Option<OpOutcome>, WireError> {
        let Some(proxy) = self.apps.get_mut(&app) else {
            return Err(WireError::new(ErrorCode::NoSuchApp, format!("{app}")));
        };
        let (not_on_acl, lock_required) = origin.refusal_texts();
        let refusal = match proxy.privilege_of(user) {
            None => Some(("not-on-acl", WireError::new(ErrorCode::AccessDenied, not_on_acl))),
            Some(privilege) => {
                security::authorize_op(privilege, &op).err().map(|e| ("privilege", e))
            }
        };
        if let Some((reason, error)) = refusal {
            // Counted where the user's session lives, as it always was
            // (the trend gates read this counter); the history records
            // both origins.
            if origin.client().is_some() {
                ctx.metrics().incr(names::SERVER_ACL_DENIED);
            }
            ctx.record_history(
                "acl.denied",
                app,
                user.as_str(),
                format_args!("level=2 reason={reason} op={} {origin}", op.kind_name()),
            );
            return Err(error);
        }
        if op.is_mutating() {
            if !proxy.lock.is_held_by(user) {
                return Err(WireError::new(ErrorCode::LockRequired, lock_required));
            }
            // Holder activity refreshes the steering-lock lease.
            proxy.lock.touch(user, ctx.now());
        }
        if matches!(op, AppOp::GetStatus) {
            // Served from the proxy's cached context.
            return Ok(Some(OpOutcome::Status(proxy.last_status.clone())));
        }
        let req = self.alloc_request();
        let request = LogEntry::Request(op.clone());
        if let Some(client) = origin.client() {
            self.archive.log_client(client, app, ctx.now(), Some(user.clone()), request.clone());
        }
        self.log_app_metered(ctx, app, Some(user.clone()), request);
        ctx.record_history(
            "op.accepted",
            app,
            user.as_str(),
            format_args!("op={} {origin}", op.kind_name()),
        );
        let call = call.map(|(id, operation)| (id, operation.clone()));
        self.origins.insert(req, PendingOp { origin, user: user.clone(), app, call });
        let deadline = self.incoming_deadline;
        self.dispatch_to_app(ctx, app, req, op, deadline);
        Ok(None)
    }

    fn do_lock(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        client: ClientId,
        user: &UserId,
        app: AppId,
        acquire: bool,
    ) -> Vec<ClientMessage> {
        if app.host() == self.config.addr {
            return vec![match self.host_lock(ctx, Origin::Local { client }, app, user, acquire) {
                Ok((granted, holder)) => Self::lock_message(app, acquire, granted, holder),
                Err(e) => ClientMessage::Error(e),
            }];
        }
        if !self.remote_privs.contains_key(&(user.clone(), app)) {
            return vec![Self::error(ErrorCode::AccessDenied, "unknown remote application")];
        }
        let verb = RelayVerb::Lock { user: user.clone(), acquire };
        self.effects.push(Effect::Relay { client, app, verb });
        vec![ClientMessage::Response(ResponseBody::Accepted)]
    }

    /// The one steering-lock decision, taken at the application's host
    /// (the only place lock state lives, §5.2.4) whoever asks: run the
    /// acquire (lazily evicting a holder silent past its lease) or the
    /// release, record the `lock.*` history events, and broadcast
    /// `LockChanged` when the holder changed. Returns the verdict
    /// `(granted, holder)` — `holder` being who stood in the way of a
    /// refused request — which the caller maps to its own reply.
    fn host_lock(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        origin: Origin,
        app: AppId,
        user: &UserId,
        acquire: bool,
    ) -> Result<(bool, Option<UserId>), WireError> {
        let Some(proxy) = self.apps.get_mut(&app) else {
            return Err(WireError::new(ErrorCode::NoSuchApp, format!("{app}")));
        };
        let (label, granted, holder) = if acquire {
            match proxy.lock.try_acquire_leased(user, ctx.now(), self.config.lock_lease) {
                LockOutcome::Granted => {
                    if let Some(evicted) = proxy.lock.take_evicted() {
                        ctx.record_history(
                            "lock.evicted",
                            app,
                            evicted.as_str(),
                            "origin=lease-lazy",
                        );
                    }
                    ("lock.granted", true, None)
                }
                LockOutcome::Denied { holder } => {
                    ctx.metrics().incr(names::SERVER_LOCK_DENIED);
                    ("lock.denied", false, Some(holder))
                }
            }
        } else if proxy.lock.release(user) {
            ("lock.released", true, None)
        } else {
            ("lock.release_failed", false, proxy.lock.holder().cloned())
        };
        if granted {
            ctx.record_history(label, app, user.as_str(), origin);
            let holder = acquire.then(|| user.clone());
            self.route_update(ctx, UpdateBody::LockChanged { app, holder }, origin.client(), None);
        } else {
            let holder = holder.as_ref().map_or("-", UserId::as_str);
            ctx.record_history(label, app, user.as_str(), format_args!("{origin} holder={holder}"));
        }
        Ok((granted, holder))
    }

    /// The client-facing message for the host's verdict on a lock
    /// request, taken here or relayed back from the host.
    fn lock_message(
        app: AppId,
        acquire: bool,
        granted: bool,
        holder: Option<UserId>,
    ) -> ClientMessage {
        match (acquire, granted) {
            (true, true) => ClientMessage::Response(ResponseBody::LockGranted { app }),
            (true, false) => ClientMessage::Response(ResponseBody::LockDenied { app, holder }),
            (false, true) => ClientMessage::Response(ResponseBody::LockReleased { app }),
            (false, false) => Self::error(ErrorCode::BadRequest, "not the lock holder"),
        }
    }

    /// Collaboration content generated by a local client (chat,
    /// whiteboard, shared view).
    fn client_update(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        client: ClientId,
        app: AppId,
        update: UpdateBody,
    ) -> Vec<ClientMessage> {
        if !self.collab.is_member(app, client) {
            return vec![Self::error(ErrorCode::AccessDenied, "select the application first")];
        }
        self.route_update(ctx, update, Some(client), None);
        vec![ClientMessage::Response(ResponseBody::Accepted)]
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

// ---------------------------------------------------------------------------
// Custom TCP (applications / Daemon servlet)
// ---------------------------------------------------------------------------

impl ServerCore {
    /// Handle one frame from an application driver.
    pub fn handle_tcp(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        from: NodeId,
        frame: TcpFrame,
        wire_bytes: usize,
    ) -> Vec<Effect> {
        ctx.metrics().incr(names::SERVER_TCP_FRAMES);
        // Cached envelope size; identical to `frame.wire_size()`.
        ctx.consume(TCP_COSTS.frame_cost(wire_bytes));
        match frame.msg {
            AppMsg::Register { token, name, kind, acl, interface, slot } => {
                // A pre-assigned slot pins the AppId (static deployment);
                // otherwise the Daemon hands out the next free sequence.
                // Pinning matters because concurrent registrations arrive
                // in network order, not launch order.
                let seq = slot.unwrap_or(self.next_app_seq);
                let app = AppId { server: self.config.addr, seq };
                let tokens = self.config.accepted_tokens.as_ref();
                let refusal = if tokens.is_some_and(|list| !list.contains(&token)) {
                    Some(WireError::new(ErrorCode::AuthFailed, "unknown app token"))
                } else if self.apps.contains_key(&app) {
                    Some(WireError::new(ErrorCode::BadRequest, "application slot already bound"))
                } else {
                    None
                };
                let reply = if let Some(error) = refusal {
                    ctx.metrics().incr(names::SERVER_DAEMON_REGISTER_REJECTED);
                    AppMsg::RegisterNak { error }
                } else {
                    self.next_app_seq = self.next_app_seq.max(seq + 1);
                    self.effects.push(Effect::Announce {
                        kind: ControlEventKind::AppRegistered,
                        detail: format!("{name} as {app}"),
                        app: Some(app),
                    });
                    let mut proxy = ApplicationProxy::new(
                        app,
                        name,
                        kind,
                        from,
                        interface,
                        acl,
                        UPDATE_LOG_CAPACITY,
                    );
                    proxy.buffer_capacity = self.config.proxy_buffer_capacity;
                    proxy.lock.mutation = self.config.mutation;
                    self.apps.insert(app, proxy);
                    self.app_by_node.insert(from, app);
                    ctx.metrics().incr(names::SERVER_DAEMON_REGISTERED);
                    AppMsg::RegisterAck { app }
                };
                ctx.send(from, Envelope::tcp(TcpFrame::new(Channel::Main, reply)));
            }
            AppMsg::Update { app, status, readings } => {
                if let Some(proxy) = self.apps.get_mut(&app) {
                    proxy.apply_status(status.clone(), &readings);
                    // Periodic data records owned by the app's owner, with
                    // read-only grants for the ACL users (§6.3).
                    let counter = self.update_counter.entry(app).or_insert(0);
                    *counter += 1;
                    let record = (*counter)
                        .is_multiple_of(RECORD_EVERY)
                        .then(|| (proxy.owner.clone(), proxy.acl_users()));
                    self.log_app_metered(ctx, app, None, LogEntry::Status(status.clone()));
                    if let Some((owner, readers)) = record {
                        self.records.create(app, owner, readers, ctx.now(), readings.to_vec());
                    }
                    let update = UpdateBody::AppStatus { app, status, readings };
                    self.route_update(ctx, update, None, None);
                }
            }
            AppMsg::PhaseChange { app, phase } => {
                // The flushed batch is consumed locally, so its
                // allocation never leaves this handler: take the core's
                // flush scratch, fill it, and put it back (capacity
                // intact) after dispatch instead of rebuilding a Vec on
                // every phase change.
                let mut to_flush: Vec<BufferedOp> = std::mem::take(&mut self.flush_scratch);
                if let Some(proxy) = self.apps.get_mut(&app) {
                    proxy.phase = phase;
                    proxy.last_status.phase = phase;
                    if matches!(phase, AppPhase::Interacting | AppPhase::Paused)
                        && !proxy.buffered.is_empty()
                    {
                        // Daemon servlet: flush the buffered requests now
                        // that the application can interact.
                        if to_flush.capacity() > 0 {
                            wire::codec::note_drain_reuse();
                        }
                        to_flush.extend(proxy.buffered.drain(..));
                    }
                }
                for entry in to_flush.drain(..) {
                    // Proxy dequeue deadline check: work whose deadline
                    // lapsed while parked never reaches the application.
                    if entry.deadline.is_some_and(|stamp| stamp.expired(ctx.now())) {
                        ctx.metrics().incr(names::SERVER_DEADLINE_DEQUEUE_EXPIRED);
                        ctx.record_history(
                            "daemon.expired",
                            app,
                            "",
                            format_args!("req={} class={:?}", entry.req.0, entry.priority()),
                        );
                        let error = WireError::new(
                            ErrorCode::DeadlineExceeded,
                            "deadline passed while buffered",
                        );
                        self.resolve_op(ctx, entry.req, Err(error));
                        continue;
                    }
                    ctx.metrics().incr(names::SERVER_DAEMON_FLUSHED);
                    ctx.record_history(
                        "daemon.flushed",
                        app,
                        "",
                        format_args!("req={} class={:?}", entry.req.0, entry.priority()),
                    );
                    self.dispatch_to_app(ctx, app, entry.req, entry.op, entry.deadline);
                }
                self.flush_scratch = to_flush;
            }
            AppMsg::Response { req, result } => self.resolve_op(ctx, req, result),
            AppMsg::Deregister { app } => self.close_app(ctx, app),
            // Server-to-app messages arriving here would be a wiring bug.
            AppMsg::RegisterAck { .. } | AppMsg::RegisterNak { .. } | AppMsg::Command { .. } => {
                ctx.metrics().incr(names::SERVER_TCP_UNEXPECTED);
            }
        }
        self.drain_effects()
    }

    /// Remove a local application: notify groups, fail buffered requests,
    /// announce on the control channel.
    fn close_app(&mut self, ctx: &mut Ctx<'_, Envelope>, app: AppId) {
        let Some(mut proxy) = self.apps.remove(&app) else { return };
        self.app_by_node.remove(&proxy.node);
        ctx.metrics().incr(names::SERVER_DAEMON_DEREGISTERED);
        // Fail anything still buffered.
        for entry in proxy.buffered.drain(..) {
            let error = WireError::new(ErrorCode::Unavailable, "application closed");
            self.resolve_op(ctx, entry.req, Err(error));
        }
        // Push directly (route_update would try the removed proxy);
        // frozen once, shared by fifos, archive and peer pushes alike.
        let update = FrozenUpdate::new(UpdateBody::AppClosed { app });
        ctx.metrics().incr(names::SERVER_COLLAB_BROADCASTS);
        let mut reuses = self.fan_out(ctx, &update, None);
        self.log_app_metered(ctx, app, None, LogEntry::Update(update.clone()));
        reuses += 1;
        let peers: Vec<ServerAddr> =
            self.subscribers.remove(&app).map(|s| s.into_iter().collect()).unwrap_or_default();
        if !peers.is_empty() {
            reuses += peers.len() as u64;
            self.effects.push(Effect::PushToPeers { update, peers });
        }
        ctx.metrics().add(names::SERVER_FANOUT_PAYLOAD_REUSE, reuses);
        self.collab.drop_app(app);
        self.effects.push(Effect::Announce {
            kind: ControlEventKind::AppClosed,
            detail: format!("{app}"),
            app: Some(app),
        });
    }
}

// ---------------------------------------------------------------------------
// GIOP (serving peer requests)
// ---------------------------------------------------------------------------

impl ServerCore {
    /// Serve one GIOP *request* frame from a peer server. Reply frames
    /// must be routed to the substrate's broker instead.
    pub fn handle_giop(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        from: NodeId,
        frame: GiopFrame,
    ) -> Vec<Effect> {
        let GiopFrame { kind, request_id, target, operation, body } = frame;
        let GiopBody::Call(call) = body else {
            ctx.metrics().incr(names::SERVER_GIOP_STRAY_REPLY);
            return self.drain_effects();
        };
        ctx.metrics().incr(names::SERVER_GIOP_CALLS);
        let expects_reply = matches!(kind, GiopKind::Request { response_expected: true });
        // §6.3 resource accounting: meter each peer's request rate and
        // enforce the configured access policy.
        let now_us = ctx.now().as_micros();
        let entry = self.peer_accounting.entry(from).or_insert((now_us, 0, 0, 0));
        if now_us.saturating_sub(entry.0) >= 1_000_000 {
            entry.0 = now_us;
            entry.1 = 0;
        }
        entry.1 += 1;
        entry.2 += 1;
        if self.config.peer_rate_limit.is_some_and(|limit| entry.1 > limit) {
            entry.3 += 1;
            ctx.metrics().incr(names::SERVER_PEER_THROTTLED);
            // Refused before the skeleton runs: no marshalling is charged.
            if expects_reply {
                let refusal = PeerReply::Exception(WireError::new(
                    ErrorCode::Unavailable,
                    "peer request rate exceeds access policy",
                ));
                let frame = GiopFrame::reply(request_id, target, operation, refusal);
                ctx.send(from, Envelope::giop(frame));
            }
            return self.drain_effects();
        }
        // Skeleton-side unmarshalling/dispatch cost for every incoming call.
        ctx.consume(orb_call_cost(&call));
        let reply = self.serve_giop(ctx, from, request_id, &operation, call);
        if let (Some(reply), true) = (reply, expects_reply) {
            let env = Envelope::giop(GiopFrame::reply(request_id, target, operation, reply));
            ctx.consume(ORB_COSTS.call_cost(env.wire_size()));
            ctx.send(from, env);
        }
        self.drain_effects()
    }

    /// Decode one peer call, run the verb it names, and shape the reply
    /// (`None`: nothing to say now — a oneway, or an operation in flight
    /// whose reply `complete_op` sends). `operation` is the call's name,
    /// which an admitted `ProxyOp` keeps for that later reply.
    fn serve_giop(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        from: NodeId,
        request_id: u64,
        operation: &Name,
        call: PeerMsg,
    ) -> Option<PeerReply> {
        let origin = Origin::Relay { via: from };
        let no_such_app = |app: AppId| {
            PeerReply::Exception(WireError::new(ErrorCode::NoSuchApp, format!("{app}")))
        };
        Some(match call {
            PeerMsg::Authenticate { user, password } => {
                ctx.metrics().incr(names::SERVER_PEER_AUTH);
                let apps: Vec<AppDescriptor> = if security::credentials_valid(&user, &password) {
                    self.apps.values().filter_map(|p| p.descriptor_for(&user)).collect()
                } else {
                    Vec::new()
                };
                if apps.is_empty() {
                    PeerReply::AuthDenied
                } else {
                    PeerReply::AuthOk { apps }
                }
            }
            PeerMsg::ListActive => {
                let apps: Vec<AppDescriptor> = self
                    .apps
                    .values()
                    .map(|p| AppDescriptor {
                        app: p.app,
                        name: p.name.clone(),
                        kind: p.kind.clone(),
                        status: p.last_status.clone(),
                        privilege: Privilege::ReadOnly,
                        interface: p.interface.clone(),
                    })
                    .collect();
                PeerReply::Active { apps, users: self.sessions.users() }
            }
            PeerMsg::ProxyOp { app, user, op } => {
                ctx.metrics().incr(names::SERVER_PEER_PROXY_OPS);
                let call = Some((request_id, operation));
                let verdict = self.admit_op(ctx, origin, &user, app, op, call);
                // Admitted: the reply is sent when the application responds.
                PeerReply::OpResult { app, result: verdict.transpose()? }
            }
            PeerMsg::LockRequest { app, user, via } => {
                ctx.metrics().incr(names::SERVER_PEER_LOCK_REQUESTS);
                match self.host_lock(ctx, origin, app, &user, true) {
                    Ok((true, _)) => {
                        // Remember which server relayed the grant, so the
                        // lock can be seized if that server goes down.
                        if let Some(proxy) = self.apps.get_mut(&app) {
                            proxy.lock.granted_via = Some(via);
                        }
                        PeerReply::LockDecision { app, granted: true, holder: Some(user) }
                    }
                    Ok((false, holder)) => PeerReply::LockDecision { app, granted: false, holder },
                    Err(e) => PeerReply::Exception(e),
                }
            }
            PeerMsg::LockRelease { app, user } => {
                match self.host_lock(ctx, origin, app, &user, false) {
                    Ok((granted, holder)) => PeerReply::LockDecision { app, granted, holder },
                    Err(e) => PeerReply::Exception(e),
                }
            }
            PeerMsg::SubscribeApp { app, subscriber } => {
                ctx.metrics().incr(names::SERVER_PEER_SUBSCRIBES);
                let Some(proxy) = self.apps.get(&app) else { return Some(no_such_app(app)) };
                self.subscribers.entry(app).or_default().insert(subscriber);
                // Seed the subscriber with the current status.
                self.effects.push(Effect::PushToPeers {
                    update: FrozenUpdate::new(UpdateBody::AppStatus {
                        app,
                        status: proxy.last_status.clone(),
                        readings: proxy.last_readings.clone(),
                    }),
                    peers: vec![subscriber],
                });
                PeerReply::SubscribeOk { app }
            }
            PeerMsg::UnsubscribeApp { app, subscriber } => {
                if let Some(set) = self.subscribers.get_mut(&app) {
                    set.remove(&subscriber);
                }
                PeerReply::SubscribeOk { app }
            }
            PeerMsg::CollabUpdate { update, origin } => {
                ctx.metrics().incr(names::SERVER_PEER_COLLAB_UPDATES);
                self.apply_peer_update(ctx, update, origin);
                return None;
            }
            PeerMsg::PollUpdates { app, since, requester } => match self.apps.get(&app) {
                Some(proxy) => {
                    let (updates, next_seq) = proxy.updates_since(since, Some(requester));
                    PeerReply::Updates { app, updates, next_seq }
                }
                None => no_such_app(app),
            },
            PeerMsg::FetchHistory { app, since } => {
                let (_, records, next_seq) = self.replay(ctx, app, since, Replay::History);
                PeerReply::History { app, records, next_seq }
            }
            PeerMsg::Control(event) => {
                ctx.metrics().incr_dynamic(&format!("server.control.{:?}", event.kind));
                return None;
            }
            // Directory operations belong to the directory node.
            other => PeerReply::Exception(WireError::new(
                ErrorCode::BadRequest,
                format!("not served here: {other:?}"),
            )),
        })
    }

    /// Ingest an update that arrived from a peer (push or poll). If this
    /// server hosts the app, it re-fans to locals and subscribers (minus
    /// the origin); otherwise it only reaches local clients. Only queues
    /// effects: the caller drains them ([`ServerCore::drain_effects`]).
    pub fn apply_peer_update(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        update: FrozenUpdate,
        origin: ServerAddr,
    ) {
        // Maintain the remote mirror's status cache.
        if let UpdateBody::AppStatus { app, status, .. } = update.body() {
            if let Some(remote) = self.remote_apps.get_mut(app) {
                remote.last_status = status.clone();
            }
        }
        if let UpdateBody::AppClosed { app } = update.body() {
            self.remote_apps.remove(app);
            self.remote_privs.retain(|(_, a), _| a != app);
        }
        // The update arrives already frozen by its origin server; the
        // local re-fan-out reuses those bytes with zero re-encode.
        self.route_update(ctx, update, None, Some(origin));
    }
}

// ---------------------------------------------------------------------------
// Completions (called by the middleware substrate)
// ---------------------------------------------------------------------------

impl ServerCore {
    /// A peer answered the level-1 authentication fan-out for `client`.
    pub fn complete_remote_auth(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        client: ClientId,
        apps: Vec<AppDescriptor>,
    ) {
        let Some(user) = self.user_of(client) else { return };
        for d in apps {
            self.remote_privs.insert((user.clone(), d.app), d.privilege);
            self.remote_apps.insert(
                d.app,
                RemoteApp {
                    name: d.name,
                    kind: d.kind,
                    interface: d.interface,
                    last_status: d.status,
                },
            );
        }
        ctx.metrics().incr(names::SERVER_REMOTE_AUTH_COMPLETIONS);
        let list = self.visible_apps(&user);
        self.fifo_push(ctx, client, ClientMessage::Response(ResponseBody::Apps(list)));
    }

    /// The user behind a local client's live session.
    fn user_of(&self, client: ClientId) -> Option<UserId> {
        let cookie = self.cookie_of_client.get(&client)?;
        self.sessions.get(*cookie).map(|s| s.user.clone())
    }

    /// The one completion of a relayed verb: `result` is the host's
    /// reply, or why none will come (the substrate's refusal, fast-fail
    /// or give-up). Every [`Effect::Relay`] ends here exactly once and
    /// answers its client exactly once: an operation with its outcome or
    /// the error (through `complete_op`, like a local one), a lock verb
    /// with the host's decision or a plain refusal, a history fetch with
    /// the host's page or an empty one that leaves the cursor unmoved.
    pub fn complete_relay(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        client: ClientId,
        app: AppId,
        verb: Relayed,
        result: Result<PeerReply, WireError>,
    ) {
        let message = match (verb, result) {
            (Relayed::Op, result) => {
                let result = match result {
                    Ok(PeerReply::OpResult { result, .. }) => result,
                    Ok(PeerReply::Exception(e)) | Err(e) => Err(e),
                    Ok(_) => Err(WireError::new(ErrorCode::Unavailable, "unexpected peer reply")),
                };
                let Some(user) = self.user_of(client) else { return };
                let pending = PendingOp { origin: Origin::Local { client }, user, app, call: None };
                return self.complete_op(ctx, pending, result);
            }
            (Relayed::Lock { acquire }, Ok(PeerReply::LockDecision { granted, holder, .. })) => {
                Self::lock_message(app, acquire, granted, holder)
            }
            (Relayed::Lock { acquire }, _) => Self::lock_message(app, acquire, false, None),
            (Relayed::History { .. }, Ok(PeerReply::History { records, next_seq, .. })) => {
                ClientMessage::Response(ResponseBody::History { app, records, next_seq })
            }
            (Relayed::History { since }, _) => ClientMessage::Response(ResponseBody::History {
                app,
                records: Vec::new(),
                next_seq: since,
            }),
        };
        self.fifo_push(ctx, client, message);
    }

    /// A control event arrived from the peer network.
    pub fn note_control_event(&mut self, ctx: &mut Ctx<'_, Envelope>, event: &ControlEvent) {
        ctx.metrics().incr_dynamic(&format!("server.control.{:?}", event.kind));
    }

    /// Administrative ACL revocation (the security manager's
    /// dynamic-policy path), applied directly to core state so harnesses
    /// can drive it out-of-band via `Engine::actor_mut`. Removes `user`
    /// from the local app's ACL and force-releases their steering lock if
    /// held, so a de-authorized client cannot keep driving; their next
    /// operation fails second-level authentication. Returns
    /// `(was_on_acl, lock_was_freed)`. Callers recording correctness
    /// histories should inject matching events via
    /// `Engine::record_history`.
    pub fn revoke_user(&mut self, app: AppId, user: &UserId) -> (bool, bool) {
        self.apps.get_mut(&app).map(|p| p.revoke(user)).unwrap_or((false, false))
    }

    /// The one lock seizure: force-release every local steering lock
    /// `stale` picks out, counting and recording each eviction under
    /// `why` and broadcasting the change.
    fn seize_locks(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        why: impl fmt::Display,
        stale: impl Fn(&SteeringLock) -> bool,
    ) {
        let mut freed = Vec::new();
        for (app, proxy) in self.apps.iter_mut() {
            if stale(&proxy.lock) {
                if let Some(holder) = proxy.lock.force_release() {
                    proxy.lock.evictions += 1;
                    freed.push((*app, holder));
                }
            }
        }
        for (app, holder) in freed {
            ctx.metrics().incr(names::SERVER_LOCK_EVICTED);
            ctx.record_history("lock.evicted", app, holder.as_str(), &why);
            let update = UpdateBody::LockChanged { app, holder: None };
            self.route_update(ctx, update, None, None);
        }
    }

    /// Force-release every lock whose grant was relayed via `peer`, which
    /// the substrate has just observed Down: the holder's path back to us
    /// is gone, so an explicit release can no longer arrive and waiting
    /// out the lease (or forever, without one) would strand the
    /// application for all other collaborators.
    pub fn evict_peer_locks(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        peer: ServerAddr,
    ) -> Vec<Effect> {
        let why = format_args!("origin=peer-down peer={}", peer.0);
        self.seize_locks(ctx, why, |lock| lock.granted_via == Some(peer));
        self.drain_effects()
    }

    /// Reap sessions idle past the configured timeout and sweep expired
    /// steering-lock leases (master-handler housekeeping). Without a park
    /// TTL an idle session is torn down like a logout immediately; with
    /// one, it is parked first — FIFO, selections, and lock interest kept
    /// — and only reclaimed when the park TTL also expires, so a silent
    /// client can reconnect-with-resume while parked state stays bounded
    /// under mass leave. Returns resulting effects.
    pub fn reap_idle_sessions(&mut self, ctx: &mut Ctx<'_, Envelope>) -> Vec<Effect> {
        let now = ctx.now();
        // Eager lease expiry: without it, a lock held by a crashed remote
        // client is only reclaimed lazily, when someone else contends —
        // zero-contention apps would stay locked forever.
        if let Some(lease) = self.config.lock_lease {
            self.seize_locks(ctx, "origin=lease-sweep", |lock| lock.expired(now, Some(lease)));
        }
        let Some(timeout) = self.config.session_idle_timeout else {
            return self.drain_effects();
        };
        let cutoff_us = now.as_micros().saturating_sub(timeout.as_micros());
        let cutoff = simnet::SimTime::from_micros(cutoff_us);
        for session in self.sessions.reap_idle(cutoff) {
            match self.config.session_park_ttl {
                Some(_) => self.park_session(ctx, session),
                None => self.reclaim_session(ctx, &session),
            }
        }
        // Park-TTL expiry keeps parked state bounded: the grace window
        // elapsed with no resume, so the session is torn down for real.
        // `Mutation::NoReclaim` disables exactly this step (the leak the
        // lease-reclamation oracle exists to catch).
        if let Some(ttl) = self.config.session_park_ttl {
            if self.config.mutation != Some(Mutation::NoReclaim) {
                let expired: Vec<u64> = self
                    .parked
                    .iter()
                    .filter(|(_, p)| {
                        now.as_micros().saturating_sub(p.parked_at.as_micros())
                            >= ttl.as_micros()
                    })
                    .map(|(c, _)| *c)
                    .collect();
                for cookie in expired {
                    let Some(p) = self.parked.remove(&cookie) else { continue };
                    ctx.metrics().incr(names::SERVER_SESSIONS_RECLAIMED);
                    ctx.record_history(
                        "session.reclaimed",
                        "",
                        p.session.user.as_str(),
                        format_args!("apps={}", p.session.selected.len()),
                    );
                    self.reclaim_session(ctx, &p.session);
                }
            }
        }
        self.drain_effects()
    }

    /// Count and tear down a session the reaper took off the live table
    /// (or out of the park): from here on it is exactly a logout.
    fn reclaim_session(&mut self, ctx: &mut Ctx<'_, Envelope>, session: &HttpSession) {
        ctx.metrics().incr(names::SERVER_SESSIONS_REAPED);
        self.end_session(ctx, session.client, &session.user);
    }

    /// Park an idle session under the park TTL: the session leaves the
    /// live table (its token stops validating, so the returning client
    /// learns to resume), but its FIFO keeps accumulating bounded
    /// updates, its collaboration membership stands, and any held
    /// steering lock stays granted until the lock lease or park TTL says
    /// otherwise.
    fn park_session(&mut self, ctx: &mut Ctx<'_, Envelope>, session: HttpSession) {
        ctx.metrics().incr(names::SERVER_SESSIONS_PARKED);
        let cursors: Vec<(AppId, u64)> = session
            .selected
            .iter()
            .filter(|a| a.host() == self.config.addr)
            .map(|a| (*a, self.archive.fetch_app(*a, u64::MAX).1))
            .collect();
        ctx.record_history(
            "session.parked",
            "",
            session.user.as_str(),
            format_args!("apps={}", session.selected.len()),
        );
        self.parked
            .insert(session.cookie, ParkedSession { parked_at: ctx.now(), cursors, session });
    }

    /// Restart-from-archive crash recovery (gated on
    /// `ServerConfig::recover_from_archive`; a no-op otherwise). Called
    /// from the node shell's `on_restart`: the volatile session plane —
    /// sessions, parked leases, FIFOs, collaboration groups, in-flight
    /// operations, remote caches — is wiped (a restarted server has no
    /// RAM), and each local application's proxy context is rebuilt from
    /// the archive's folded state: cached status and readings via
    /// `apply_status`, and the steering lock re-granted to the folded
    /// holder. Clients recover through the existing resume path: their
    /// cookie stops validating, the resume answers `SessionExpired`, and
    /// the fallback login storm is paced by `resume_rate_limit` — the
    /// same admission limiter that tames flash crowds of latecomers.
    pub fn recover_from_archive(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        if !self.config.recover_from_archive {
            return;
        }
        let dropped_sessions = self.sessions.clear();
        self.parked.clear();
        self.resume_accounting = (0, 0);
        self.cookie_of_client.clear();
        self.fifos.clear();
        self.origins.clear();
        self.collab.reset();
        self.subscribers.clear();
        self.remote_apps.clear();
        self.remote_privs.clear();
        self.update_counter.clear();
        self.peer_accounting.clear();
        self.req_traces.clear();
        self.effects.clear();
        let now = ctx.now();
        let mut recovered = 0u32;
        for app in self.archive.archived_apps() {
            if app.host() != self.config.addr {
                continue;
            }
            let Some(log) = self.archive.app_log(app) else { continue };
            let folded = log.folded().clone();
            let Some(proxy) = self.apps.get_mut(&app) else { continue };
            // Any lock the crashed incarnation held is rebuilt from the
            // folded transition history, not from volatile memory.
            proxy.lock.force_release();
            if let Some(status) = folded.status {
                proxy.apply_status(status, &folded.readings);
            }
            if !folded.closed {
                if let Some(holder) = folded.lock_holder {
                    let _ = proxy.lock.try_acquire(&holder, now);
                }
            }
            recovered += 1;
        }
        self.recoveries += 1;
        self.recovered_apps = recovered;
        ctx.metrics().incr(names::SERVER_RECOVERIES);
        ctx.metrics().add(names::SERVER_RECOVERED_APPS, recovered as u64);
        ctx.record_history(
            "server.recovered",
            "",
            "",
            format_args!("apps={recovered} sessions_dropped={dropped_sessions}"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Actor, Engine};
    use wire::AppStatus;

    const ADDR: ServerAddr = ServerAddr(1);
    const APP: AppId = AppId { server: ADDR, seq: 0 };

    fn client(seq: u32) -> ClientId {
        ClientId { server: ADDR, seq }
    }

    fn status(iteration: u64) -> FrozenUpdate {
        FrozenUpdate::new(UpdateBody::AppStatus {
            app: APP,
            status: AppStatus { phase: AppPhase::Computing, iteration, progress: 0.0 },
            readings: Vec::new(),
        })
    }

    fn chat(text: &str) -> ClientMessage {
        ClientMessage::update(UpdateBody::Chat {
            app: APP,
            from: UserId::new("u"),
            text: text.into(),
        })
    }

    /// A core whose group members' FIFOs (capacity 4, coalescing) each
    /// meet the next status broadcast differently.
    fn staged_core() -> ServerCore {
        let mut config = ServerConfig::new(ADDR, "s");
        config.fifo_capacity = 4;
        config.coalesce_fifo = true;
        let mut core = ServerCore::new(config);
        let mut stage = |seq: u32, queued: Vec<ClientMessage>, drain: usize| {
            let mut fifo = FifoBuffer::with_coalescing(4, true);
            queued.into_iter().for_each(|msg| fifo.push(msg));
            fifo.drain(drain);
            core.fifos.insert(client(seq), fifo);
            core.collab.join(APP, client(seq));
        };
        let older = || ClientMessage::Update(status(1));
        // Coalesce: a superseded status is still queued.
        stage(0, vec![older()], 0);
        stage(1, vec![chat("a"), older(), chat("b")], 1);
        // Append below the high-water mark: peaked at 3, drained to 1.
        stage(2, vec![chat("a"), chat("b"), chat("c")], 2);
        // Evict: full, and no status among the four queued.
        stage(3, vec![chat("a"), chat("b"), chat("c"), chat("d")], 0);
        // Raise the peak: never held anything.
        stage(4, Vec::new(), 0);
        // A member whose FIFO is gone counts as a target and nothing else.
        core.collab.join(APP, client(5));
        core
    }

    /// Delivers one status update to the staged group at start: through
    /// `route_update`, or with one `fifo_push` per member.
    struct Host {
        core: ServerCore,
        batched: bool,
    }

    impl Actor<Envelope> for Host {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
            let update = status(2);
            if self.batched {
                self.core.route_update(ctx, update, None, None);
            } else {
                for seq in 0..6 {
                    self.core.fifo_push(ctx, client(seq), ClientMessage::Update(update.clone()));
                }
            }
        }

        fn on_message(&mut self, _: &mut Ctx<'_, Envelope>, _: NodeId, _: Envelope) {}
    }

    type Counters = Vec<(String, u64)>;
    /// (run-wide, node registry) `webserv.fifo.*` counters and the FIFO
    /// snapshot after the delivery.
    type Outcome = (Counters, Counters, Vec<(ClientId, usize, usize, u64, u64)>);

    fn deliver(batched: bool) -> Outcome {
        let mut engine = Engine::new(1);
        let node = engine.add_node("s", Host { core: staged_core(), batched });
        engine.run_to_quiescence();
        let fifo_counters = |stats: &simnet::Stats| {
            stats
                .counters()
                .filter(|(key, _)| key.starts_with("webserv.fifo."))
                .map(|(key, n)| (key.to_owned(), n))
                .collect::<Vec<_>>()
        };
        let host = engine.actor_ref::<Host>(node).expect("the host actor");
        (
            fifo_counters(&engine.stats()),
            fifo_counters(engine.node_metrics(node).stats()),
            host.core.fifo_snapshot(),
        )
    }

    #[test]
    fn one_broadcast_folds_to_the_counters_of_single_pushes() {
        let batched = deliver(true);
        assert_eq!(batched, deliver(false));
        let expected: Counters = [("coalesced", 2), ("dropped", 1), ("enqueued", 5), ("peak", 1)]
            .map(|(what, n)| (format!("webserv.fifo.{what}"), n))
            .into();
        assert_eq!(batched.0, expected);
        assert_eq!(batched.1, expected);
    }

    #[test]
    fn a_broadcast_that_moves_nothing_writes_no_fifo_counter() {
        // Per-push counting never created a counter it did not bump; the
        // fold must not either (reports list every written key).
        let mut engine = Engine::new(1);
        let mut core = staged_core();
        core.fifos.clear();
        let node = engine.add_node("s", Host { core, batched: true });
        engine.run_to_quiescence();
        assert_eq!(engine.stats().counter_prefix_sum("webserv.fifo."), 0);
        assert!(engine.stats().counters().all(|(key, _)| !key.starts_with("webserv.fifo.")));
        assert_eq!(engine.node_metrics(node).counter(names::SERVER_COLLAB_LOCAL_FANOUT), 6);
    }

    // -----------------------------------------------------------------
    // Host-side verbs: one path per verb, whoever asks
    // -----------------------------------------------------------------

    const ANCHOR: AppId = AppId { server: ADDR, seq: 1 };
    const PEER: ServerAddr = ServerAddr(2);
    const REMOTE: AppId = AppId { server: PEER, seq: 0 };

    fn user(name: &str) -> UserId {
        UserId::new(name)
    }

    type Script = Box<dyn FnOnce(&mut ServerCore, &mut Ctx<'_, Envelope>)>;

    /// A core that is its own application, portal and peer server: the
    /// script calls the public entry points directly, and whatever the
    /// core sends comes back to this node, where commands are answered
    /// as the application would and replies are kept.
    struct Loopback {
        core: ServerCore,
        script: Option<Script>,
        http: Vec<HttpResponse>,
        giop: Vec<PeerReply>,
        /// Effects returned while answering commands.
        effects: Vec<Effect>,
    }

    impl Loopback {
        fn run(config: ServerConfig, script: Script) -> (Engine<Envelope>, NodeId) {
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
    fn handed_off(core: &ServerCore, effects: Vec<Effect>) -> Vec<Effect> {
        assert!(core.effects.is_empty(), "effects left queued: {:?}", core.effects);
        effects
    }

    fn tcp(core: &mut ServerCore, ctx: &mut Ctx<'_, Envelope>, msg: AppMsg) -> Vec<Effect> {
        let me = ctx.me();
        let effects = core.handle_tcp(ctx, me, TcpFrame::new(Channel::Main, msg), 0);
        handed_off(core, effects)
    }

    fn http(
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

    fn giop(core: &mut ServerCore, ctx: &mut Ctx<'_, Envelope>, msg: PeerMsg) -> Vec<Effect> {
        let me = ctx.me();
        let frame = GiopFrame::request(7, ObjectKey::new(CORBA_SERVER_KEY), "call", msg);
        let effects = core.handle_giop(ctx, me, frame);
        handed_off(core, effects)
    }

    /// Register `APP` (interacting, ACL as given) and a login anchor every
    /// named user may enter through, then log everyone in. Returns each
    /// user's (cookie, client id), in `acl` order.
    fn open_host(
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
    fn subscribe_peer(core: &mut ServerCore, ctx: &mut Ctx<'_, Envelope>) {
        giop(core, ctx, PeerMsg::SubscribeApp { app: APP, subscriber: PEER });
    }

    fn pushed(effects: &[Effect]) -> Vec<&UpdateBody> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::PushToPeers { update, .. } => Some(update.body()),
                _ => None,
            })
            .collect()
    }

    /// A history event without the tokens that name its origin.
    fn sans_origin(e: &simnet::HistoryEvent) -> String {
        let detail: Vec<&str> = e
            .detail
            .split_whitespace()
            .filter(|tok| !tok.starts_with("origin=") && !tok.starts_with("via="))
            .collect();
        format!("{} {} {}", e.label, e.actor, detail.join(" "))
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum LockState {
        Free,
        Mine,
        Theirs,
    }

    #[derive(Clone, Debug)]
    enum Verb {
        Op(AppOp),
        Acquire,
        Release,
    }

    #[derive(Debug, PartialEq)]
    enum Verdict {
        /// Dispatched to the application.
        Admitted,
        /// Answered from the proxy's cached context.
        Answered,
        Refused(ErrorCode),
        Lock { granted: bool, blocked_by: Option<UserId> },
    }

    /// Put one request to a host whose `APP` grants "u" `privilege` and
    /// whose lock is in `lock`, through HTTP (`relayed == false`) or GIOP;
    /// returns the verdict the caller saw and the history it left.
    fn decide(
        relayed: bool,
        privilege: Option<Privilege>,
        lock: LockState,
        verb: Verb,
    ) -> (Verdict, Vec<String>) {
        let (acquire, release) = (matches!(verb, Verb::Acquire), matches!(verb, Verb::Release));
        let script: Script = Box::new(move |core, ctx| {
            let acl = [("u", privilege), ("other", Some(Privilege::Steer))];
            let sessions = open_host(core, ctx, &acl);
            let holder = match lock {
                LockState::Free => None,
                LockState::Mine => Some(user("u")),
                LockState::Theirs => Some(user("other")),
            };
            if let Some(holder) = holder {
                let lock = &mut core.apps.get_mut(&APP).expect("registered").lock;
                assert_eq!(lock.try_acquire(&holder, ctx.now()), LockOutcome::Granted);
            }
            let (app, user) = (APP, user("u"));
            if relayed {
                let call = match verb {
                    Verb::Op(op) => PeerMsg::ProxyOp { app, user, op },
                    Verb::Acquire => PeerMsg::LockRequest { app, user, via: PEER },
                    Verb::Release => PeerMsg::LockRelease { app, user },
                };
                giop(core, ctx, call);
            } else {
                let request = match verb {
                    Verb::Op(op) => ClientRequest::Op { app, op },
                    Verb::Acquire => ClientRequest::RequestLock { app },
                    Verb::Release => ClientRequest::ReleaseLock { app },
                };
                http(core, ctx, Some(sessions[0].0), request);
            }
        });
        let (engine, node) = Loopback::run(ServerConfig::new(ADDR, "s"), script);
        let host = engine.actor_ref::<Loopback>(node).expect("the loopback actor");
        // Who stood in the way is part of the verdict only for a refused
        // acquire: HTTP words a refused release as a bare error.
        let lock_verdict = |granted: bool, holder: &Option<UserId>| Verdict::Lock {
            granted,
            blocked_by: holder.clone().filter(|_| acquire && !granted),
        };
        let verdict = if relayed {
            match host.giop.as_slice() {
                [PeerReply::OpResult { result: Ok(OpOutcome::Status(_)), .. }] => Verdict::Answered,
                [PeerReply::OpResult { result: Ok(_), .. }] => Verdict::Admitted,
                [PeerReply::OpResult { result: Err(e), .. }] => Verdict::Refused(e.code),
                [PeerReply::LockDecision { granted, holder, .. }] => lock_verdict(*granted, holder),
                other => panic!("unexpected GIOP replies: {other:?}"),
            }
        } else {
            match host.http.last().map(|response| response.body.as_slice()) {
                Some([ClientMessage::Response(body)]) => match body {
                    ResponseBody::Accepted => Verdict::Admitted,
                    ResponseBody::OpDone { outcome: OpOutcome::Status(_), .. } => Verdict::Answered,
                    ResponseBody::LockGranted { .. } | ResponseBody::LockReleased { .. } => {
                        lock_verdict(true, &None)
                    }
                    ResponseBody::LockDenied { holder, .. } => lock_verdict(false, holder),
                    other => panic!("unexpected response: {other:?}"),
                },
                Some([ClientMessage::Error(_)]) if release => lock_verdict(false, &None),
                Some([ClientMessage::Error(e)]) => Verdict::Refused(e.code),
                other => panic!("unexpected HTTP response: {other:?}"),
            }
        };
        (verdict, engine.history().iter().map(sans_origin).collect())
    }

    #[test]
    fn local_and_relay_agree() {
        let privileges =
            [None, Some(Privilege::ReadOnly), Some(Privilege::ReadWrite), Some(Privilege::Steer)];
        let verbs = [
            Verb::Op(AppOp::GetStatus),
            Verb::Op(AppOp::GetSensors),
            Verb::Op(AppOp::SetParam("knob".into(), Value::Float(1.0))),
            Verb::Op(AppOp::Command(wire::AppCommand::Pause)),
            Verb::Acquire,
            Verb::Release,
        ];
        let mut accepted = 0;
        for privilege in privileges {
            for lock in [LockState::Free, LockState::Mine, LockState::Theirs] {
                for verb in &verbs {
                    let case = format!("{privilege:?} / lock {lock:?} / {verb:?}");
                    let (local, local_history) = decide(false, privilege, lock, verb.clone());
                    let (relay, relay_history) = decide(true, privilege, lock, verb.clone());
                    assert_eq!(local, relay, "verdicts differ: {case}");
                    assert_eq!(local_history, relay_history, "histories differ: {case}");
                    let admissions = local_history.iter().filter(|e| e.starts_with("op.accepted"));
                    accepted += admissions.count();
                }
            }
        }
        // The table is not vacuous: both refusals and admissions occur.
        assert!(accepted > 0, "no case admitted an operation");
        let (refused, history) = decide(true, None, LockState::Free, verbs[1].clone());
        assert_eq!(refused, Verdict::Refused(ErrorCode::AccessDenied));
        assert_eq!(history, ["acl.denied u level=2 reason=not-on-acl op=getSensors"]);
        let (admitted, history) =
            decide(true, Some(Privilege::Steer), LockState::Mine, verbs[3].clone());
        assert_eq!(admitted, Verdict::Admitted);
        assert_eq!(history, ["op.accepted u op=command"]);
    }

    #[test]
    fn a_relayed_holder_keeps_the_lease_alive_by_steering() {
        // The admission is one function, so a relayed mutating operation
        // refreshes the holder's lease exactly as a local one does.
        let mut config = ServerConfig::new(ADDR, "s");
        config.lock_lease = Some(simnet::SimDuration::from_secs(30));
        let script: Script = Box::new(|core, ctx| {
            open_host(core, ctx, &[("u", Some(Privilege::Steer))]);
            giop(core, ctx, PeerMsg::LockRequest { app: APP, user: user("u"), via: PEER });
            ctx.consume(simnet::SimDuration::from_secs(20));
            let op = AppOp::SetParam("knob".into(), Value::Float(1.0));
            giop(core, ctx, PeerMsg::ProxyOp { app: APP, user: user("u"), op });
            ctx.consume(simnet::SimDuration::from_secs(20));
            assert!(core.reap_idle_sessions(ctx).is_empty(), "an active holder is not evicted");
            let lock = &core.apps[&APP].lock;
            assert!(lock.is_held_by(&user("u")));
            assert_eq!(lock.granted_via, Some(PEER));
        });
        Loopback::run(config, script);
    }

    #[test]
    fn lock_decisions_hand_their_broadcast_to_the_caller() {
        let script: Script = Box::new(|core, ctx| {
            let sessions = open_host(core, ctx, &[("u", Some(Privilege::Steer))]);
            subscribe_peer(core, ctx);
            let cookie = Some(sessions[0].0);
            let granted = http(core, ctx, cookie, ClientRequest::RequestLock { app: APP });
            let holder = Some(user("u"));
            assert_eq!(pushed(&granted), [&UpdateBody::LockChanged { app: APP, holder }]);
            // Refused: nothing changed, nothing to hand off.
            let other = PeerMsg::LockRequest { app: APP, user: user("other"), via: PEER };
            assert!(giop(core, ctx, other).is_empty());
            let released = giop(core, ctx, PeerMsg::LockRelease { app: APP, user: user("u") });
            assert_eq!(pushed(&released), [&UpdateBody::LockChanged { app: APP, holder: None }]);
        });
        Loopback::run(ServerConfig::new(ADDR, "s"), script);
    }

    #[test]
    fn admitted_and_completed_ops_hand_their_effects_to_the_caller() {
        let knob = || AppOp::SetParam("knob".into(), Value::Float(2.0));
        let script: Script = Box::new(move |core, ctx| {
            let sessions = open_host(core, ctx, &[("u", Some(Privilege::Steer))]);
            subscribe_peer(core, ctx);
            let (cookie, client) = (Some(sessions[0].0), sessions[0].1);
            http(core, ctx, cookie, ClientRequest::RequestLock { app: APP });
            // Admission dispatches and hands off nothing, from either
            // origin; the completions (answered by the loopback as the
            // application, checked below) carry the broadcast.
            assert!(http(core, ctx, cookie, ClientRequest::Op { app: APP, op: knob() }).is_empty());
            let relayed = PeerMsg::ProxyOp { app: APP, user: user("u"), op: knob() };
            assert!(giop(core, ctx, relayed).is_empty());
            // A local client of a remote application: the completion only
            // queues (the substrate drains it), here an echo for the host.
            core.collab.join(REMOTE, client);
            let done =
                PeerReply::OpResult { app: REMOTE, result: Ok(OpOutcome::Sensors(Vec::new())) };
            core.complete_relay(ctx, client, REMOTE, Relayed::Op, Ok(done));
            let queued = core.drain_effects();
            assert!(
                matches!(queued.as_slice(), [Effect::ForwardToHost { update }]
                    if matches!(update.body(), UpdateBody::InteractionEcho { .. })),
                "{queued:?}"
            );
            assert!(core.effects.is_empty());
        });
        let (engine, node) = Loopback::run(ServerConfig::new(ADDR, "s"), script);
        let host = engine.actor_ref::<Loopback>(node).expect("the loopback actor");
        let changed = UpdateBody::ParamChanged {
            app: APP,
            name: "knob".into(),
            value: Value::Float(2.0),
            by: user("u"),
        };
        assert_eq!(pushed(&host.effects), [&changed, &changed], "one per completed operation");
        assert!(host.core.effects.is_empty());
        assert!(host.core.origins.is_empty(), "both operations settled");
    }

    #[test]
    fn a_completed_op_goes_to_its_owners_and_no_further() {
        // The outcome is copied for the log and for an update built from
        // it; its delivery takes the original. Who gets what must not
        // depend on which of them got the original.
        let sensors = || ClientRequest::Op { app: APP, op: AppOp::GetSensors };
        let script: Script = Box::new(move |core, ctx| {
            let sessions = open_host(core, ctx, &[("u", Some(Privilege::Steer))]);
            subscribe_peer(core, ctx);
            let cookie = Some(sessions[0].0);
            http(core, ctx, cookie, ClientRequest::SelectApp { app: APP });
            // A relayed read: logged and answered, neither echoed nor
            // recorded (the relaying server does both for its client).
            giop(core, ctx, PeerMsg::ProxyOp { app: APP, user: user("u"), op: AppOp::GetSensors });
            // A local read by a client that keeps its views to itself:
            // answered and recorded, not echoed.
            let quiet = ClientRequest::SetCollabMode { app: APP, broadcast: false };
            http(core, ctx, cookie, quiet);
            http(core, ctx, cookie, sensors());
        });
        let (mut engine, node) = Loopback::run(ServerConfig::new(ADDR, "s"), script);
        let host = engine.actor_mut::<Loopback>(node).expect("the loopback actor");
        let done = OpOutcome::Sensors(Vec::new());
        assert_eq!(host.giop.len(), 2, "SubscribeOk, then the relayed result");
        assert_eq!(host.giop[1], PeerReply::OpResult { app: APP, result: Ok(done.clone()) });
        let echoes = |effects: &[Effect]| {
            pushed(effects)
                .iter()
                .filter(|u| matches!(u, UpdateBody::InteractionEcho { .. }))
                .count()
        };
        assert_eq!(echoes(&host.effects), 0);
        let responses = |log: &[wire::LogRecord]| {
            log.iter().filter(|r| r.entry == LogEntry::Response(done.clone())).count()
        };
        let app_log = host.core.archive.app_log(APP).expect("logged");
        assert_eq!(responses(app_log.all()), 2, "both reads are in the application's log");
        assert_eq!(host.core.records.count_for_app(APP), 1, "only the local read is recorded");
        let client = host.core.sessions.iter().next().expect("logged in").client;
        let answered = ClientMessage::Response(ResponseBody::OpDone { app: APP, outcome: done });
        let queued = host.core.fifos.get_mut(&client).expect("its FIFO").drain(usize::MAX);
        assert_eq!(queued.iter().filter(|m| **m == answered).count(), 1);

        // The same local read by a collaborating client is echoed too.
        let script: Script = Box::new(move |core, ctx| {
            let sessions = open_host(core, ctx, &[("u", Some(Privilege::Steer))]);
            subscribe_peer(core, ctx);
            http(core, ctx, Some(sessions[0].0), ClientRequest::SelectApp { app: APP });
            http(core, ctx, Some(sessions[0].0), sensors());
        });
        let (engine, node) = Loopback::run(ServerConfig::new(ADDR, "s"), script);
        let host = engine.actor_ref::<Loopback>(node).expect("the loopback actor");
        assert_eq!(echoes(&host.effects), 1);
        assert_eq!(host.core.records.count_for_app(APP), 1);
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

    /// A host with one session that selected the hosted `APP` (holding
    /// its lock) and the remote `REMOTE`, and a peer subscribed to `APP`.
    fn open_session(core: &mut ServerCore, ctx: &mut Ctx<'_, Envelope>) -> u64 {
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

    #[test]
    fn every_teardown_hands_the_same_effects_to_the_caller() {
        // Logout, the idle reaper and park-TTL reclamation are one
        // teardown: same effects, nothing left queued, nothing left held.
        type Teardown = fn(&mut ServerCore, &mut Ctx<'_, Envelope>, u64) -> Vec<Effect>;
        const MINUTE: simnet::SimDuration = simnet::SimDuration::from_secs(60);

        fn idle_for_a_minute(core: &mut ServerCore, ctx: &mut Ctx<'_, Envelope>) -> Vec<Effect> {
            ctx.consume(MINUTE + MINUTE / 60);
            let effects = core.reap_idle_sessions(ctx);
            handed_off(core, effects)
        }

        fn check(park_ttl: Option<simnet::SimDuration>, teardown: Teardown) {
            let mut config = ServerConfig::new(ADDR, "s");
            config.session_idle_timeout = Some(MINUTE);
            config.session_park_ttl = park_ttl;
            let script: Script = Box::new(move |core, ctx| {
                let cookie = open_session(core, ctx);
                let client = core.sessions.get(cookie).expect("live").client;
                let mut effects = teardown(core, ctx, cookie);
                let left = |app| FrozenUpdate::new(UpdateBody::MemberLeft { app, user: user("u") });
                let freed = FrozenUpdate::new(UpdateBody::LockChanged { app: APP, holder: None });
                let mut expected = vec![
                    Effect::PushToPeers { update: left(APP), peers: vec![PEER] },
                    Effect::PushToPeers { update: freed, peers: vec![PEER] },
                    Effect::ForwardToHost { update: left(REMOTE) },
                    Effect::Unsubscribe { app: REMOTE },
                    Effect::Relay {
                        client,
                        app: REMOTE,
                        verb: RelayVerb::Lock { user: user("u"), acquire: false },
                    },
                ];
                effects.sort_by_key(|e| format!("{e:?}"));
                expected.sort_by_key(|e| format!("{e:?}"));
                assert_eq!(effects, expected);
                assert_eq!(core.session_count() + core.parked_count(), 0);
                assert!(core.fifos.is_empty() && core.cookie_of_client.is_empty());
                assert_eq!(core.apps[&APP].lock.holder(), None);
            });
            Loopback::run(config, script);
        }

        check(None, |core, ctx, cookie| http(core, ctx, Some(cookie), ClientRequest::Logout));
        check(None, |core, ctx, _| idle_for_a_minute(core, ctx));
        check(Some(MINUTE), |core, ctx, _| {
            assert!(idle_for_a_minute(core, ctx).is_empty(), "parking tears nothing down");
            assert_eq!(core.parked_count(), 1);
            idle_for_a_minute(core, ctx)
        });
    }

    #[test]
    fn both_seizures_hand_their_broadcast_to_the_caller() {
        let mut config = ServerConfig::new(ADDR, "s");
        config.lock_lease = Some(simnet::SimDuration::from_secs(30));
        let script: Script = Box::new(|core, ctx| {
            open_host(core, ctx, &[("u", Some(Privilege::Steer))]);
            subscribe_peer(core, ctx);
            let grant = PeerMsg::LockRequest { app: APP, user: user("u"), via: PEER };
            let freed = UpdateBody::LockChanged { app: APP, holder: None };
            // The relaying peer goes down.
            giop(core, ctx, grant.clone());
            let effects = core.evict_peer_locks(ctx, PEER);
            assert_eq!(pushed(&handed_off(core, effects)), [&freed]);
            let effects = core.evict_peer_locks(ctx, PEER);
            assert!(handed_off(core, effects).is_empty(), "nothing left to seize");
            // The holder goes silent past the lease.
            giop(core, ctx, grant);
            ctx.consume(simnet::SimDuration::from_secs(31));
            let effects = core.reap_idle_sessions(ctx);
            assert_eq!(pushed(&handed_off(core, effects)), [&freed]);
            assert_eq!(core.apps[&APP].lock.evictions, 2);
        });
        let (engine, _) = Loopback::run(config, script);
        let evictions: Vec<&str> = engine
            .history()
            .iter()
            .filter(|e| e.label == "lock.evicted")
            .map(|e| e.detail.as_str())
            .collect();
        assert_eq!(evictions, ["origin=peer-down peer=2", "origin=lease-sweep"]);
    }

    #[test]
    fn history_catch_up_and_resume_serve_one_walk() {
        let mut config = ServerConfig::new(ADDR, "s");
        config.snapshot_every = Some(4);
        let script: Script = Box::new(|core, ctx| {
            let cookie = open_session(core, ctx);
            let client = core.sessions.get(cookie).expect("live").client;
            for iteration in 1..=10 {
                let status = AppStatus { phase: AppPhase::Interacting, iteration, progress: 0.0 };
                tcp(core, ctx, AppMsg::Update { app: APP, status, readings: Vec::new() });
            }
            let log = core.archive.app_log(APP).expect("archived");
            let late = log.snapshots().last().expect("snapshots were taken").seq;
            assert!(late < log.next_seq(), "a tail follows the last snapshot");
            // Hosted: answered in the response, nothing to hand off.
            for since in [0, late] {
                let asks = [
                    ClientRequest::GetHistory { app: APP, since },
                    ClientRequest::CatchUp { app: APP, since },
                    ClientRequest::Resume { cookie, cursors: vec![(APP, since)] },
                ];
                for ask in asks {
                    assert!(http(core, ctx, Some(cookie), ask).is_empty());
                }
            }
            // Remote: relayed to the host for a member, refused (or, in a
            // resume, skipped) for anyone else.
            let relayed =
                [Effect::Relay { client, app: REMOTE, verb: RelayVerb::History { since: 3 } }];
            let stranger = AppId { server: PEER, seq: 9 };
            for app in [REMOTE, stranger] {
                let asks = [
                    ClientRequest::GetHistory { app, since: 3 },
                    ClientRequest::CatchUp { app, since: 3 },
                    ClientRequest::Resume { cookie, cursors: vec![(app, 3)] },
                ];
                for ask in asks {
                    let effects = http(core, ctx, Some(cookie), ask);
                    assert_eq!(effects, if app == REMOTE { &relayed[..] } else { &[] });
                }
            }
        });
        let (engine, node) = Loopback::run(config, script);
        let host = engine.actor_ref::<Loopback>(node).expect("the loopback actor");
        let bodies: Vec<&[ClientMessage]> =
            host.http[host.http.len() - 12..].iter().map(|r| r.body.as_slice()).collect();
        let body = |m: &ClientMessage| match m {
            ClientMessage::Response(body) => body.clone(),
            other => panic!("unexpected {other:?}"),
        };
        // Cursor behind the snapshots: history is the whole log; catch-up
        // and resume are the same snapshot + tail.
        let ResponseBody::History { records: full, .. } = body(&bodies[0][0]) else {
            panic!("{:?}", bodies[0]);
        };
        let caught_up = body(&bodies[1][0]);
        let ResponseBody::CatchUp { snapshot: Some(shared), records: tail, .. } = &caught_up else {
            panic!("{caught_up:?}");
        };
        assert!(tail.len() < full.len() && full.ends_with(tail));
        assert!(matches!(body(&bodies[2][0]), ResponseBody::Resumed { .. }));
        assert_eq!(body(&bodies[2][1]), caught_up);
        // Not a copy of it either: both replies point at the archive's own.
        let ResponseBody::CatchUp { snapshot: Some(resumed), .. } = body(&bodies[2][1]) else {
            panic!("{:?}", bodies[2]);
        };
        let archived = host.core.archive.app_log(APP).expect("archived").snapshots();
        assert!(Arc::ptr_eq(shared, &resumed));
        assert!(Arc::ptr_eq(shared, archived.last().expect("snapshots were taken")));
        // Cursor past the last snapshot: all three serve the plain suffix.
        let suffix = body(&bodies[3][0]);
        let ResponseBody::History { records, next_seq, .. } = suffix.clone() else {
            panic!("{suffix:?}");
        };
        assert!(!records.is_empty());
        let bare = ResponseBody::CatchUp { app: APP, snapshot: None, records, next_seq };
        assert_eq!(body(&bodies[4][0]), bare);
        assert_eq!(body(&bodies[5][1]), suffix);
        // Remote, member: accepted (a resume just resumes); stranger: refused.
        for accepted in [bodies[6], bodies[7]] {
            assert_eq!(body(&accepted[0]), ResponseBody::Accepted);
        }
        for resumed in [bodies[8], bodies[11]] {
            assert!(matches!(resumed, [ClientMessage::Response(ResponseBody::Resumed { .. })]));
        }
        for refused in [bodies[9], bodies[10]] {
            let [ClientMessage::Error(e)] = refused else { panic!("{refused:?}") };
            assert_eq!(e.code, ErrorCode::AccessDenied);
        }
        let stats = engine.node_metrics(node);
        assert_eq!(stats.counter(names::SERVER_CATCHUP_REQUESTS), 2);
        // One catch-up and one resume found a snapshot ahead of their cursor.
        assert_eq!(stats.counter(names::SERVER_CATCHUP_SNAPSHOT_HITS), 2);
    }
}
