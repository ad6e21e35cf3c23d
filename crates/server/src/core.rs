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
//! TCP applications, and *serving* GIOP peer requests). Anything that
//! requires *calling out* to a peer server is returned as an [`Effect`];
//! the middleware substrate (crate `discover-core`) resolves effects via
//! the ORB and feeds results back through the `complete_remote_*`
//! methods. A standalone server simply drops effects (there are no
//! peers), which is exactly the paper's pre-substrate §4 system.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use simnet::{names, Ctx, NodeId, TraceContext};
use webserv::{FifoBuffer, HttpCosts, HttpSession, OrbCosts, SessionTable, TcpCosts};
use wire::giop::{GiopBody, GiopFrame, GiopKind};
use wire::http::{HttpRequest, HttpResponse};
use wire::tcp::TcpFrame;
use wire::{
    AppDescriptor, AppId, AppMsg, AppOp, AppPhase, AppStatus, AppStatusEntry, AppToken, Channel,
    ClientId, ClientMessage, ClientRequest, ControlEvent, ControlEventKind, DeadlineStamp,
    Envelope, ErrorCode, FifoStatusEntry, FrozenUpdate, IdMap, InteractionSpec, LogEntry, ObjectKey,
    OpOutcome, PeerMsg, PeerReply, PeerStatusEntry, Privilege, RequestId, ResponseBody,
    ServerAddr, StatusReport, UpdateBody, UserId, Value, WireError,
};

use crate::archive::ArchiveStore;
use crate::collab::CollabGroups;
use crate::locks::LockOutcome;
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
    /// Invoke an operation on a remote application via its `CorbaProxy`.
    RemoteOp {
        /// Requesting local client.
        client: ClientId,
        /// Acting user.
        user: UserId,
        /// Remote application.
        app: AppId,
        /// The operation.
        op: AppOp,
    },
    /// Relay a steering-lock request/release to the app's host server.
    RemoteLock {
        /// Requesting local client.
        client: ClientId,
        /// Acting user.
        user: UserId,
        /// Remote application.
        app: AppId,
        /// True = acquire, false = release.
        acquire: bool,
    },
    /// Fetch archived history from the app's host server.
    RemoteHistory {
        /// Requesting local client.
        client: ClientId,
        /// Remote application.
        app: AppId,
        /// First sequence wanted.
        since: u64,
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

/// Where a forwarded operation came from (for response routing).
enum OpOrigin {
    /// A local HTTP client.
    Local { client: ClientId, user: UserId, app: AppId },
    /// A peer server's `CorbaProxy` call.
    Peer { node: NodeId, giop_id: u64, operation: String, app: AppId, user: UserId },
}

/// What a run of FIFO pushes did, summed so one handler folds it into the
/// node's metrics once instead of per push: enqueues, drops and coalesces
/// count directly; the high-water mark is folded as a monotone counter of
/// peak increments, since `fold_node_metrics` merges counters only.
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
        let mut metrics = ctx.metrics();
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
    origins: HashMap<RequestId, OpOrigin>,
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
    deferred: Vec<Effect>,
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
            deferred: Vec::new(),
            peer_accounting: HashMap::new(),
            incoming_trace: None,
            incoming_deadline: None,
            mirror_hints: BTreeMap::new(),
            req_traces: HashMap::new(),
            peer_status: Vec::new(),
            dir_plane: wire::DirPlaneStatus::default(),
            flush_scratch: Vec::new(),
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
        let fifos: Vec<FifoStatusEntry> = self
            .fifo_snapshot()
            .into_iter()
            .map(|(client, queued, peak, dropped, _enqueued)| FifoStatusEntry {
                client,
                queued: queued as u32,
                peak: peak as u32,
                dropped,
            })
            .collect();
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
        effects: &mut Vec<Effect>,
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
                effects.push(Effect::PushToPeers { update, peers });
            }
        } else if origin_peer.is_none() {
            // Locally generated update about a remote app: the host owns
            // global fan-out.
            reuses += 1;
            effects.push(Effect::ForwardToHost { update });
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

    /// Fail `req` back to its origin without executing it.
    fn drop_op(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        req: RequestId,
        error: WireError,
    ) {
        let origin = self.origins.remove(&req);
        self.close_req_trace(ctx, req);
        if let Some(origin) = origin {
            self.finish_op(ctx, origin, Err(error));
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
                    "daemon buffer full; redirect: DISCOVER/apps/{app} mirrored at host {mirror}"
                )
            }
            None => format!("daemon buffer full; retry-after: {OVERLOAD_RETRY_AFTER_MS}ms"),
        };
        self.drop_op(ctx, victim.req, WireError::new(ErrorCode::Overloaded, detail));
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
                self.drop_op(
                    ctx,
                    req,
                    WireError::new(ErrorCode::DeadlineExceeded, "deadline passed at dispatch"),
                );
                return;
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
                match proxy.buffer_op(req, op, deadline) {
                    BufferPush::Buffered => {
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
                    BufferPush::Shed(victim) => {
                        // The incoming op was buffered unless it was itself
                        // the lowest-priority candidate.
                        if victim.req != req {
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
                        self.shed_op(ctx, app, victim);
                    }
                }
            }
            AppPhase::Terminated => {
                self.drop_op(
                    ctx,
                    req,
                    WireError::new(ErrorCode::Unavailable, "application terminated"),
                );
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

    /// Route a completed operation result back to its origin.
    fn finish_op(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        origin: OpOrigin,
        result: Result<OpOutcome, WireError>,
    ) {
        match origin {
            OpOrigin::Local { client, user, app } => {
                let entry = match &result {
                    Ok(outcome) => LogEntry::Response(outcome.clone()),
                    Err(e) => LogEntry::Error(e.clone()),
                };
                self.archive.log_client(client, app, ctx.now(), Some(user.clone()), entry.clone());
                self.log_app_metered(ctx, app, Some(user.clone()), entry);
                match result {
                    Ok(outcome) => {
                        self.fifo_push(
                            ctx,
                            client,
                            ClientMessage::Response(ResponseBody::OpDone {
                                app,
                                outcome: outcome.clone(),
                            }),
                        );
                        self.after_outcome(ctx, client, user, app, outcome);
                    }
                    Err(e) => self.fifo_push(ctx, client, ClientMessage::Error(e)),
                }
            }
            OpOrigin::Peer { node, giop_id, operation, app, user } => {
                let entry = match &result {
                    Ok(outcome) => LogEntry::Response(outcome.clone()),
                    Err(e) => LogEntry::Error(e.clone()),
                };
                self.log_app_metered(ctx, app, Some(user.clone()), entry);
                let env = Envelope::giop(GiopFrame::reply(
                    giop_id,
                    ObjectKey::new(CORBA_SERVER_KEY),
                    &operation,
                    PeerReply::OpResult { app, result: result.clone() },
                ));
                ctx.consume(ORB_COSTS.call_cost(env.wire_size()));
                ctx.send(node, env);
                // The host owns global fan-out of state changes caused by
                // remote steerers.
                if let Ok(outcome) = result {
                    let update = match outcome {
                        OpOutcome::ParamSet(name, value) => Some(UpdateBody::ParamChanged {
                            app,
                            name,
                            value,
                            by: user,
                        }),
                        OpOutcome::CommandDone(cmd) => {
                            Some(UpdateBody::CommandApplied { app, command: cmd, by: user })
                        }
                        _ => None,
                    };
                    if let Some(update) = update {
                        let mut effects = Vec::new();
                        self.route_update(ctx, update, None, None, &mut effects);
                        self.deferred.extend(effects);
                    }
                }
            }
        }
    }

    /// Post-processing of a successful outcome for a local client:
    /// mutating outcomes broadcast state-change updates; non-mutating
    /// outcomes echo to the group when the client collaborates; §6.3
    /// records are created under the requesting user.
    fn after_outcome(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        client: ClientId,
        user: UserId,
        app: AppId,
        outcome: OpOutcome,
    ) {
        let mut effects = Vec::new();
        match &outcome {
            OpOutcome::ParamSet(name, value) => {
                let update = UpdateBody::ParamChanged {
                    app,
                    name: name.clone(),
                    value: value.clone(),
                    by: user.clone(),
                };
                self.route_update(ctx, update, Some(client), None, &mut effects);
            }
            OpOutcome::CommandDone(cmd) => {
                let update = UpdateBody::CommandApplied { app, command: *cmd, by: user.clone() };
                self.route_update(ctx, update, Some(client), None, &mut effects);
            }
            other => {
                if self.collab.broadcast_enabled(app, client) {
                    let update = UpdateBody::InteractionEcho {
                        app,
                        by: user.clone(),
                        outcome: other.clone(),
                    };
                    self.route_update(ctx, update, Some(client), None, &mut effects);
                }
            }
        }
        self.records.create(
            app,
            user,
            [],
            ctx.now(),
            vec![("outcome".to_string(), Value::Text(format!("{outcome:?}")))],
        );
        // Effects produced here are deferred through the pending queue.
        self.deferred.extend(effects);
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
        let mut effects = Vec::new();

        // Webserv ingress deadline check: work that expired in the
        // network (or a client queue) is answered immediately instead of
        // burning server capacity. Only stamped requests (workload ops)
        // ever carry a deadline, so session bookkeeping is unaffected.
        if let Some(stamp) = self.incoming_deadline {
            if stamp.expired(ctx.now()) {
                ctx.metrics().incr(names::SERVER_DEADLINE_INGRESS_EXPIRED);
                self.respond(
                    ctx,
                    from,
                    200,
                    None,
                    vec![Self::error(
                        ErrorCode::DeadlineExceeded,
                        "deadline passed before server ingress",
                    )],
                );
                return effects;
            }
        }

        // Login is the only request valid without a session.
        if let Some(ClientRequest::Login { user, password }) = &req.body {
            let (status, cookie, body) = self.do_login(ctx, user.clone(), password, &mut effects);
            self.respond(ctx, from, status, cookie, body);
            effects.extend(self.take_deferred());
            return effects;
        }

        // Resume authenticates by the presented token (the session may be
        // parked, in which case the live-session lookup below would 401).
        if let Some(ClientRequest::Resume { cookie, cursors }) = &req.body {
            let (cookie, cursors) = (*cookie, cursors.clone());
            let (status, body) = self.do_resume(ctx, cookie, cursors, &mut effects);
            self.respond(ctx, from, status, None, body);
            effects.extend(self.take_deferred());
            return effects;
        }

        // Status is a read-only introspection page, served with or
        // without a session (like the paper's server list): operators
        // must be able to probe a node whose session plane is wedged.
        if let Some(ClientRequest::Status) = &req.body {
            ctx.metrics().incr(names::SERVER_STATUS_REQUESTS);
            let report = self.status_report(ctx.now().as_micros());
            self.respond(
                ctx,
                from,
                200,
                None,
                vec![ClientMessage::Response(ResponseBody::Status(report))],
            );
            return effects;
        }

        let session = req.session.and_then(|c| self.sessions.touch(c, ctx.now()));
        let Some(session) = session else {
            self.respond(
                ctx,
                from,
                401,
                None,
                vec![Self::error(ErrorCode::AuthFailed, "no valid session")],
            );
            return effects;
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
            if let Some(ClientRequest::Op { op, .. }) = &req.body {
                if !op.is_mutating() && self.origins.len() >= budget {
                    ctx.metrics().incr(names::SERVER_ADMISSION_REJECTED);
                    self.respond(
                        ctx,
                        from,
                        200,
                        None,
                        vec![Self::error(
                            ErrorCode::Overloaded,
                            format!("server overloaded; retry-after: {OVERLOAD_RETRY_AFTER_MS}ms"),
                        )],
                    );
                    return effects;
                }
            }
        }

        let body = match req.body {
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
                self.do_logout(ctx, cookie, client, &user, &mut effects);
                vec![ClientMessage::Response(ResponseBody::LogoutOk)]
            }
            Some(ClientRequest::ListApplications) => {
                // Refresh remote knowledge in the background.
                effects.push(Effect::RemoteAuth {
                    client,
                    user: user.clone(),
                    password: security::expected_password(&user),
                });
                vec![ClientMessage::Response(ResponseBody::Apps(self.visible_apps(&user)))]
            }
            Some(ClientRequest::SelectApp { app }) => {
                self.do_select(ctx, client, &user, app, &mut effects)
            }
            Some(ClientRequest::DeselectApp { app }) => {
                self.do_deselect(ctx, client, &user, app, &mut effects);
                vec![ClientMessage::Response(ResponseBody::AppDeselected { app })]
            }
            Some(ClientRequest::Op { app, op }) => {
                self.do_op(ctx, client, &user, app, op, &mut effects)
            }
            Some(ClientRequest::RequestLock { app }) => {
                self.do_lock(ctx, client, &user, app, true, &mut effects)
            }
            Some(ClientRequest::ReleaseLock { app }) => {
                self.do_lock(ctx, client, &user, app, false, &mut effects)
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
                let update = UpdateBody::Chat { app, from: user.clone(), text };
                self.client_update(ctx, client, app, update, &mut effects)
            }
            Some(ClientRequest::Whiteboard { app, stroke }) => {
                let update = UpdateBody::Whiteboard { app, from: user.clone(), stroke };
                self.client_update(ctx, client, app, update, &mut effects)
            }
            Some(ClientRequest::ShareView { app, view }) => {
                // Explicit shares bypass the client's broadcast-disabled
                // mode by definition.
                let update = UpdateBody::ViewShared { app, from: user.clone(), view };
                self.client_update(ctx, client, app, update, &mut effects)
            }
            Some(ClientRequest::GetHistory { app, since }) => {
                if app.host() == self.config.addr {
                    let (records, next_seq) = self.archive.fetch_app(app, since);
                    vec![ClientMessage::Response(ResponseBody::History { app, records, next_seq })]
                } else if self.collab.is_member(app, client) {
                    effects.push(Effect::RemoteHistory { client, app, since });
                    vec![ClientMessage::Response(ResponseBody::Accepted)]
                } else {
                    vec![Self::error(ErrorCode::AccessDenied, "select the application first")]
                }
            }
            Some(ClientRequest::CatchUp { app, since }) => {
                // Snapshot-aware latecomer path: nearest snapshot ahead of
                // the cursor + the delta tail from its boundary, so the
                // reply is O(snapshot interval), not O(session length).
                // Falls back to a plain suffix when no snapshot helps.
                if app.host() == self.config.addr {
                    ctx.metrics().incr(names::SERVER_CATCHUP_REQUESTS);
                    let (snapshot, records, next_seq) = self.archive.catch_up_app(app, since);
                    if snapshot.is_some() {
                        ctx.metrics().incr(names::SERVER_CATCHUP_SNAPSHOT_HITS);
                    }
                    ctx.metrics().add(names::SERVER_CATCHUP_RECORDS, records.len() as u64);
                    vec![ClientMessage::Response(ResponseBody::CatchUp {
                        app,
                        snapshot,
                        records,
                        next_seq,
                    })]
                } else if self.collab.is_member(app, client) {
                    effects.push(Effect::RemoteHistory { client, app, since });
                    vec![ClientMessage::Response(ResponseBody::Accepted)]
                } else {
                    vec![Self::error(ErrorCode::AccessDenied, "select the application first")]
                }
            }
            Some(ClientRequest::GetMyLog { app, since }) => {
                // Client logs live at the client's local server regardless
                // of where the application is hosted (§5.2.5).
                let (records, next_seq) = self.archive.fetch_client(client, app, since);
                vec![ClientMessage::Response(ResponseBody::ClientLog { app, records, next_seq })]
            }
            Some(ClientRequest::Login { .. })
            | Some(ClientRequest::Resume { .. })
            | Some(ClientRequest::Status) => {
                unreachable!("handled above")
            }
        };
        self.respond(ctx, from, 200, None, body);
        effects.extend(self.take_deferred());
        effects
    }

    fn do_login(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        user: UserId,
        password: &str,
        effects: &mut Vec<Effect>,
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
        effects.push(Effect::RemoteAuth {
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
        effects: &mut Vec<Effect>,
    ) -> (u16, Vec<ClientMessage>) {
        let is_parked = self.parked.contains_key(&cookie);
        if !is_parked && self.sessions.get(cookie).is_none() {
            return (
                401,
                vec![Self::error(ErrorCode::SessionExpired, "session expired; log in again")],
            );
        }
        // Paced recovery: reviving a parked session replays history, so
        // admissions are metered per accounting second. Deferred clients
        // get a retry-after jittered by stable identity — a flash crowd
        // spreads out instead of re-arriving as one synchronized burst.
        if is_parked {
            if let Some(limit) = self.config.resume_rate_limit {
                let now_us = ctx.now().as_micros();
                if now_us.saturating_sub(self.resume_accounting.0) >= 1_000_000 {
                    self.resume_accounting = (now_us, 0);
                }
                if self.resume_accounting.1 >= limit {
                    ctx.metrics().incr(names::SERVER_RESUME_THROTTLED);
                    let user = self
                        .parked
                        .get(&cookie)
                        .map(|p| p.session.user.as_str().to_string())
                        .unwrap_or_default();
                    ctx.record_history(
                        "session.resume_deferred",
                        "",
                        &user,
                        format_args!("limit={limit}"),
                    );
                    let retry_ms = OVERLOAD_RETRY_AFTER_MS
                        + wire::jitter::retry_jitter_us(&user, 0, OVERLOAD_RETRY_AFTER_MS * 1000)
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
        }
        let (client, selected, park_cursors) = if is_parked {
            let p = self.parked.remove(&cookie).expect("checked above");
            ctx.metrics().incr(names::SERVER_SESSIONS_RESUMED);
            let client = p.session.client;
            let user = p.session.user.clone();
            let selected = p.session.selected.clone();
            let parked_ms =
                ctx.now().as_micros().saturating_sub(p.parked_at.as_micros()) / 1000;
            ctx.record_history(
                "session.resumed",
                "",
                user.as_str(),
                format_args!("parked_ms={parked_ms} apps={}", selected.len()),
            );
            self.sessions.restore(p.session, ctx.now());
            (client, selected, p.cursors)
        } else {
            let s = self.sessions.touch(cookie, ctx.now()).expect("checked above");
            (s.client, s.selected.clone(), Vec::new())
        };
        // Missed-suffix replay: park-time cursors establish the suffix
        // start; explicit client cursors override them (a client that
        // already paged further along skips what it has).
        let mut merged: BTreeMap<AppId, u64> = park_cursors.into_iter().collect();
        for (app, since) in cursors {
            merged.insert(app, since);
        }
        let mut body =
            vec![ClientMessage::Response(ResponseBody::Resumed { client, apps: selected.clone() })];
        for (app, since) in merged {
            if !selected.contains(&app) {
                continue;
            }
            if app.host() == self.config.addr {
                // Snapshot-aware resume: when the archive keeps snapshots
                // and one sits ahead of the cursor, the missed suffix
                // ships as snapshot + tail instead of a full delta replay.
                // Without snapshots (the default) this is byte-identical
                // to the plain paged History path.
                let snapshot_helps = self.config.snapshot_every.is_some()
                    && self.archive.latest_snapshot_seq(app).is_some_and(|s| s > since);
                if snapshot_helps {
                    let (snapshot, records, next_seq) = self.archive.catch_up_app(app, since);
                    ctx.metrics().incr(names::SERVER_CATCHUP_SNAPSHOT_HITS);
                    ctx.metrics().add(names::SERVER_RESUME_REPLAYED, records.len() as u64);
                    body.push(ClientMessage::Response(ResponseBody::CatchUp {
                        app,
                        snapshot,
                        records,
                        next_seq,
                    }));
                } else {
                    let (records, next_seq) = self.archive.fetch_app(app, since);
                    ctx.metrics().add(names::SERVER_RESUME_REPLAYED, records.len() as u64);
                    body.push(ClientMessage::Response(ResponseBody::History {
                        app,
                        records,
                        next_seq,
                    }));
                }
            } else if self.collab.is_member(app, client) {
                effects.push(Effect::RemoteHistory { client, app, since });
            }
        }
        (200, body)
    }

    fn do_logout(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        cookie: u64,
        client: ClientId,
        user: &UserId,
        effects: &mut Vec<Effect>,
    ) {
        self.sessions.remove(cookie);
        self.cookie_of_client.remove(&client);
        self.fifos.remove(&client);
        let affected = self.collab.drop_client(client);
        let last_session = !self.sessions.iter().any(|s| s.user == *user);
        for app in affected {
            let update = UpdateBody::MemberLeft { app, user: user.clone() };
            self.route_update(ctx, update, None, None, effects);
            self.maybe_unsubscribe(app, effects);
            self.release_lock_if_last_session(ctx, app, user, effects);
            // A lock held on a REMOTE application must be released at its
            // host server via the relay (otherwise the host would strand
            // the lock until lease expiry).
            if last_session && app.host() != self.config.addr {
                effects.push(Effect::RemoteLock {
                    client,
                    user: user.clone(),
                    app,
                    acquire: false,
                });
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
        effects: &mut Vec<Effect>,
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
                self.route_update(ctx, update, None, None, effects);
            }
        }
    }

    fn do_select(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        client: ClientId,
        user: &UserId,
        app: AppId,
        effects: &mut Vec<Effect>,
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
        if let Some(s) = self.sessions.touch(self.cookie_of_client[&client], ctx.now()) {
            if !s.selected.contains(&app) {
                s.selected.push(app);
            }
        }
        if app.host() != self.config.addr && first_member {
            effects.push(Effect::Subscribe { app });
        }
        let update = UpdateBody::MemberJoined { app, user: user.clone() };
        self.route_update(ctx, update, Some(client), None, effects);
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
        effects: &mut Vec<Effect>,
    ) {
        self.collab.leave(app, client);
        if let Some(cookie) = self.cookie_of_client.get(&client) {
            if let Some(s) = self.sessions.touch(*cookie, ctx.now()) {
                s.selected.retain(|a| *a != app);
            }
        }
        let update = UpdateBody::MemberLeft { app, user: user.clone() };
        self.route_update(ctx, update, Some(client), None, effects);
        self.maybe_unsubscribe(app, effects);
        self.release_lock_if_last_session(ctx, app, user, effects);
    }

    fn maybe_unsubscribe(&mut self, app: AppId, effects: &mut Vec<Effect>) {
        if app.host() != self.config.addr && !self.collab.has_members(app) {
            effects.push(Effect::Unsubscribe { app });
        }
    }

    fn do_op(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        client: ClientId,
        user: &UserId,
        app: AppId,
        op: AppOp,
        effects: &mut Vec<Effect>,
    ) -> Vec<ClientMessage> {
        ctx.metrics().incr(names::SERVER_OPS);
        if app.host() == self.config.addr {
            let Some(proxy) = self.apps.get_mut(&app) else {
                return vec![Self::error(ErrorCode::NoSuchApp, format!("{app}"))];
            };
            let Some(privilege) = proxy.privilege_of(user) else {
                ctx.metrics().incr(names::SERVER_ACL_DENIED);
                ctx.record_history(
                    "acl.denied",
                    app,
                    user.as_str(),
                    format_args!("level=2 reason=not-on-acl op={}", op.kind_name()),
                );
                return vec![Self::error(ErrorCode::AccessDenied, "not on the ACL")];
            };
            if let Err(e) = security::authorize_op(privilege, &op) {
                ctx.metrics().incr(names::SERVER_ACL_DENIED);
                ctx.record_history(
                    "acl.denied",
                    app,
                    user.as_str(),
                    format_args!("level=2 reason=privilege op={}", op.kind_name()),
                );
                return vec![ClientMessage::Error(e)];
            }
            if op.is_mutating() && !proxy.lock.is_held_by(user) {
                return vec![Self::error(
                    ErrorCode::LockRequired,
                    "acquire the steering lock first",
                )];
            }
            if op.is_mutating() {
                // Holder activity refreshes the steering-lock lease.
                proxy.lock.touch(user, ctx.now());
            }
            if matches!(op, AppOp::GetStatus) {
                // Served from the proxy's cached context.
                return vec![ClientMessage::Response(ResponseBody::OpDone {
                    app,
                    outcome: OpOutcome::Status(proxy.last_status.clone()),
                })];
            }
            let req = self.alloc_request();
            self.archive.log_client(
                client,
                app,
                ctx.now(),
                Some(user.clone()),
                LogEntry::Request(op.clone()),
            );
            self.log_app_metered(ctx, app, Some(user.clone()), LogEntry::Request(op.clone()));
            self.origins
                .insert(req, OpOrigin::Local { client, user: user.clone(), app });
            ctx.record_history(
                "op.accepted",
                app,
                user.as_str(),
                format_args!("op={} origin=local", op.kind_name()),
            );
            let deadline = self.incoming_deadline;
            self.dispatch_to_app(ctx, app, req, op, deadline);
            vec![ClientMessage::Response(ResponseBody::Accepted)]
        } else {
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
            effects.push(Effect::RemoteOp { client, user: user.clone(), app, op });
            vec![ClientMessage::Response(ResponseBody::Accepted)]
        }
    }

    fn do_lock(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        client: ClientId,
        user: &UserId,
        app: AppId,
        acquire: bool,
        effects: &mut Vec<Effect>,
    ) -> Vec<ClientMessage> {
        if app.host() == self.config.addr {
            let now = ctx.now();
            let Some(proxy) = self.apps.get_mut(&app) else {
                return vec![Self::error(ErrorCode::NoSuchApp, format!("{app}"))];
            };
            if acquire {
                match proxy.lock.try_acquire_leased(user, now, self.config.lock_lease) {
                    LockOutcome::Granted => {
                        if let Some(evicted) = proxy.lock.take_evicted() {
                            ctx.record_history(
                                "lock.evicted",
                                app,
                                evicted.as_str(),
                                "origin=lease-lazy",
                            );
                        }
                        ctx.record_history(
                            "lock.granted",
                            app,
                            user.as_str(),
                            "origin=local",
                        );
                        let update =
                            UpdateBody::LockChanged { app, holder: Some(user.clone()) };
                        self.route_update(ctx, update, Some(client), None, effects);
                        vec![ClientMessage::Response(ResponseBody::LockGranted { app })]
                    }
                    LockOutcome::Denied { holder } => {
                        ctx.metrics().incr(names::SERVER_LOCK_DENIED);
                        ctx.record_history(
                            "lock.denied",
                            app,
                            user.as_str(),
                            format_args!("origin=local holder={}", holder.as_str()),
                        );
                        vec![ClientMessage::Response(ResponseBody::LockDenied {
                            app,
                            holder: Some(holder),
                        })]
                    }
                }
            } else if proxy.lock.release(user) {
                ctx.record_history(
                    "lock.released",
                    app,
                    user.as_str(),
                    "origin=local",
                );
                let update = UpdateBody::LockChanged { app, holder: None };
                self.route_update(ctx, update, Some(client), None, effects);
                vec![ClientMessage::Response(ResponseBody::LockReleased { app })]
            } else {
                ctx.record_history(
                    "lock.release_failed",
                    app,
                    user.as_str(),
                    "origin=local",
                );
                vec![Self::error(ErrorCode::BadRequest, "not the lock holder")]
            }
        } else {
            if !self.remote_privs.contains_key(&(user.clone(), app)) {
                return vec![Self::error(ErrorCode::AccessDenied, "unknown remote application")];
            }
            effects.push(Effect::RemoteLock { client, user: user.clone(), app, acquire });
            vec![ClientMessage::Response(ResponseBody::Accepted)]
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
        effects: &mut Vec<Effect>,
    ) -> Vec<ClientMessage> {
        if !self.collab.is_member(app, client) {
            return vec![Self::error(ErrorCode::AccessDenied, "select the application first")];
        }
        self.route_update(ctx, update, Some(client), None, effects);
        vec![ClientMessage::Response(ResponseBody::Accepted)]
    }
}

// Deferred-effect plumbing: `after_outcome` runs deep inside the TCP path
// where the effects vector is not threaded through; it parks effects here
// and the public entry points drain them.
impl ServerCore {
    fn take_deferred(&mut self) -> Vec<Effect> {
        std::mem::take(&mut self.deferred)
    }

    /// Drain effects parked by completion paths (used by the substrate
    /// after invoking `complete_remote_*`).
    pub fn drain_effects(&mut self) -> Vec<Effect> {
        self.take_deferred()
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
        let mut effects = Vec::new();
        match frame.msg {
            AppMsg::Register { token, name, kind, acl, interface, slot } => {
                let accepted = match &self.config.accepted_tokens {
                    None => true,
                    Some(list) => list.contains(&token),
                };
                if !accepted {
                    ctx.metrics().incr(names::SERVER_DAEMON_REGISTER_REJECTED);
                    ctx.send(
                        from,
                        Envelope::tcp(TcpFrame::new(
                            Channel::Main,
                            AppMsg::RegisterNak {
                                error: WireError::new(ErrorCode::AuthFailed, "unknown app token"),
                            },
                        )),
                    );
                    return effects;
                }
                // A pre-assigned slot pins the AppId (static deployment);
                // otherwise the Daemon hands out the next free sequence.
                // Pinning matters because concurrent registrations arrive
                // in network order, not launch order.
                let seq = slot.unwrap_or(self.next_app_seq);
                let app = AppId { server: self.config.addr, seq };
                if self.apps.contains_key(&app) {
                    ctx.metrics().incr(names::SERVER_DAEMON_REGISTER_REJECTED);
                    ctx.send(
                        from,
                        Envelope::tcp(TcpFrame::new(
                            Channel::Main,
                            AppMsg::RegisterNak {
                                error: WireError::new(
                                    ErrorCode::BadRequest,
                                    "application slot already bound",
                                ),
                            },
                        )),
                    );
                    return effects;
                }
                self.next_app_seq = self.next_app_seq.max(seq + 1);
                let mut proxy = ApplicationProxy::new(
                    app,
                    name.clone(),
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
                ctx.send(
                    from,
                    Envelope::tcp(TcpFrame::new(Channel::Main, AppMsg::RegisterAck { app })),
                );
                effects.push(Effect::Announce {
                    kind: ControlEventKind::AppRegistered,
                    detail: format!("{name} as {app}"),
                    app: Some(app),
                });
            }
            AppMsg::Update { app, status, readings } => {
                if let Some(proxy) = self.apps.get_mut(&app) {
                    proxy.apply_status(status.clone(), readings.clone());
                    self.log_app_metered(ctx, app, None, LogEntry::Status(status.clone()));
                    // Periodic data records owned by the app's owner, with
                    // read-only grants for the ACL users (§6.3).
                    let counter = self.update_counter.entry(app).or_insert(0);
                    *counter += 1;
                    if (*counter).is_multiple_of(RECORD_EVERY) {
                        let proxy = &self.apps[&app];
                        let owner = proxy.owner.clone();
                        let readers = proxy.acl_users();
                        let data = readings
                            .iter()
                            .map(|(k, v)| (k.clone(), v.clone()))
                            .collect::<Vec<_>>();
                        self.records.create(app, owner, readers, ctx.now(), data);
                    }
                    let update = UpdateBody::AppStatus { app, status, readings };
                    self.route_update(ctx, update, None, None, &mut effects);
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
                    if let Some(stamp) = entry.deadline {
                        if stamp.expired(ctx.now()) {
                            ctx.metrics().incr(names::SERVER_DEADLINE_DEQUEUE_EXPIRED);
                            ctx.record_history(
                                "daemon.expired",
                                app,
                                "",
                                format_args!("req={} class={:?}", entry.req.0, entry.priority()),
                            );
                            self.drop_op(
                                ctx,
                                entry.req,
                                WireError::new(
                                    ErrorCode::DeadlineExceeded,
                                    "deadline passed while buffered",
                                ),
                            );
                            continue;
                        }
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
            AppMsg::Response { req, result } => {
                self.close_req_trace(ctx, req);
                if let Some(origin) = self.origins.remove(&req) {
                    self.finish_op(ctx, origin, result);
                }
            }
            AppMsg::Deregister { app } => {
                self.close_app(ctx, app, &mut effects);
            }
            // Server-to-app messages arriving here would be a wiring bug.
            AppMsg::RegisterAck { .. } | AppMsg::RegisterNak { .. } | AppMsg::Command { .. } => {
                ctx.metrics().incr(names::SERVER_TCP_UNEXPECTED);
            }
        }
        effects.extend(self.take_deferred());
        effects
    }

    /// Remove a local application: notify groups, fail buffered requests,
    /// announce on the control channel.
    fn close_app(&mut self, ctx: &mut Ctx<'_, Envelope>, app: AppId, effects: &mut Vec<Effect>) {
        let Some(mut proxy) = self.apps.remove(&app) else { return };
        self.app_by_node.remove(&proxy.node);
        ctx.metrics().incr(names::SERVER_DAEMON_DEREGISTERED);
        // Fail anything still buffered.
        for entry in proxy.buffered.drain(..) {
            self.close_req_trace(ctx, entry.req);
            if let Some(origin) = self.origins.remove(&entry.req) {
                self.finish_op(
                    ctx,
                    origin,
                    Err(WireError::new(ErrorCode::Unavailable, "application closed")),
                );
            }
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
            effects.push(Effect::PushToPeers { update, peers });
        }
        ctx.metrics().add(names::SERVER_FANOUT_PAYLOAD_REUSE, reuses);
        self.collab.drop_app(app);
        effects.push(Effect::Announce {
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
        let mut effects = Vec::new();
        let GiopFrame { kind, request_id, target, operation, body } = frame;
        let GiopBody::Call(call) = body else {
            ctx.metrics().incr(names::SERVER_GIOP_STRAY_REPLY);
            return effects;
        };
        ctx.metrics().incr(names::SERVER_GIOP_CALLS);
        // §6.3 resource accounting: meter each peer's request rate and
        // enforce the configured access policy.
        let expects_reply = matches!(kind, GiopKind::Request { response_expected: true });
        {
            let now_us = ctx.now().as_micros();
            let entry = self.peer_accounting.entry(from).or_insert((now_us, 0, 0, 0));
            if now_us.saturating_sub(entry.0) >= 1_000_000 {
                entry.0 = now_us;
                entry.1 = 0;
            }
            entry.1 += 1;
            entry.2 += 1;
            if let Some(limit) = self.config.peer_rate_limit {
                if entry.1 > limit {
                    entry.3 += 1;
                    ctx.metrics().incr(names::SERVER_PEER_THROTTLED);
                    if expects_reply {
                        let frame = GiopFrame::reply(
                            request_id,
                            target.clone(),
                            &operation,
                            PeerReply::Exception(WireError::new(
                                ErrorCode::Unavailable,
                                "peer request rate exceeds access policy",
                            )),
                        );
                        ctx.send(from, Envelope::giop(frame));
                    }
                    return effects;
                }
            }
        }
        // Skeleton-side unmarshalling/dispatch cost for every incoming call.
        ctx.consume(orb_call_cost(&call));
        let reply = |ctx: &mut Ctx<'_, Envelope>, r: PeerReply| {
            if expects_reply {
                let env = Envelope::giop(GiopFrame::reply(request_id, target.clone(), &operation, r));
                ctx.consume(ORB_COSTS.call_cost(env.wire_size()));
                ctx.send(from, env);
            }
        };
        match call {
            PeerMsg::Authenticate { user, password } => {
                ctx.metrics().incr(names::SERVER_PEER_AUTH);
                if !security::credentials_valid(&user, &password) {
                    reply(ctx, PeerReply::AuthDenied);
                    return effects;
                }
                let apps: Vec<AppDescriptor> =
                    self.apps.values().filter_map(|p| p.descriptor_for(&user)).collect();
                if apps.is_empty() {
                    reply(ctx, PeerReply::AuthDenied);
                } else {
                    reply(ctx, PeerReply::AuthOk { apps });
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
                reply(ctx, PeerReply::Active { apps, users: self.sessions.users() });
            }
            PeerMsg::ProxyOp { app, user, op } => {
                ctx.metrics().incr(names::SERVER_PEER_PROXY_OPS);
                let Some(proxy) = self.apps.get(&app) else {
                    reply(
                        ctx,
                        PeerReply::OpResult {
                            app,
                            result: Err(WireError::new(ErrorCode::NoSuchApp, format!("{app}"))),
                        },
                    );
                    return effects;
                };
                let Some(privilege) = proxy.privilege_of(&user) else {
                    reply(
                        ctx,
                        PeerReply::OpResult {
                            app,
                            result: Err(WireError::new(ErrorCode::AccessDenied, "not on ACL")),
                        },
                    );
                    return effects;
                };
                if let Err(e) = security::authorize_op(privilege, &op) {
                    reply(ctx, PeerReply::OpResult { app, result: Err(e) });
                    return effects;
                }
                if op.is_mutating() && !proxy.lock.is_held_by(&user) {
                    reply(
                        ctx,
                        PeerReply::OpResult {
                            app,
                            result: Err(WireError::new(
                                ErrorCode::LockRequired,
                                "steering lock not held",
                            )),
                        },
                    );
                    return effects;
                }
                if matches!(op, AppOp::GetStatus) {
                    let status = proxy.last_status.clone();
                    reply(
                        ctx,
                        PeerReply::OpResult { app, result: Ok(OpOutcome::Status(status)) },
                    );
                    return effects;
                }
                let req = self.alloc_request();
                self.log_app_metered(ctx, app, Some(user.clone()), LogEntry::Request(op.clone()));
                self.origins.insert(
                    req,
                    OpOrigin::Peer { node: from, giop_id: request_id, operation, app, user },
                );
                let deadline = self.incoming_deadline;
                self.dispatch_to_app(ctx, app, req, op, deadline);
                // Reply is sent when the application responds.
            }
            PeerMsg::LockRequest { app, user, via } => {
                let now = ctx.now();
                ctx.metrics().incr(names::SERVER_PEER_LOCK_REQUESTS);
                match self.apps.get_mut(&app) {
                    None => reply(
                        ctx,
                        PeerReply::Exception(WireError::new(ErrorCode::NoSuchApp, format!("{app}"))),
                    ),
                    Some(proxy) => match proxy.lock.try_acquire_leased(
                        &user,
                        now,
                        self.config.lock_lease,
                    ) {
                        LockOutcome::Granted => {
                            proxy.lock.granted_via = Some(via);
                            if let Some(evicted) = proxy.lock.take_evicted() {
                                ctx.record_history(
                                    "lock.evicted",
                                    app,
                                    evicted.as_str(),
                                    "origin=lease-lazy",
                                );
                            }
                            ctx.record_history(
                                "lock.granted",
                                app,
                                user.as_str(),
                                format_args!("origin=relay via={}", via.0),
                            );
                            reply(
                                ctx,
                                PeerReply::LockDecision {
                                    app,
                                    granted: true,
                                    holder: Some(user.clone()),
                                },
                            );
                            let update =
                                UpdateBody::LockChanged { app, holder: Some(user.clone()) };
                            self.route_update(ctx, update, None, None, &mut effects);
                        }
                        LockOutcome::Denied { holder } => {
                            ctx.metrics().incr(names::SERVER_LOCK_DENIED);
                            ctx.record_history(
                                "lock.denied",
                                app,
                                user.as_str(),
                                format_args!("origin=relay holder={}", holder.as_str()),
                            );
                            reply(
                                ctx,
                                PeerReply::LockDecision { app, granted: false, holder: Some(holder) },
                            );
                        }
                    },
                }
            }
            PeerMsg::LockRelease { app, user } => match self.apps.get_mut(&app) {
                None => reply(
                    ctx,
                    PeerReply::Exception(WireError::new(ErrorCode::NoSuchApp, format!("{app}"))),
                ),
                Some(proxy) => {
                    if proxy.lock.release(&user) {
                        ctx.record_history(
                            "lock.released",
                            app,
                            user.as_str(),
                            "origin=relay",
                        );
                        reply(ctx, PeerReply::LockDecision { app, granted: true, holder: None });
                        let update = UpdateBody::LockChanged { app, holder: None };
                        self.route_update(ctx, update, None, None, &mut effects);
                    } else {
                        let holder = proxy.lock.holder().cloned();
                        ctx.record_history(
                            "lock.release_failed",
                            app,
                            user.as_str(),
                            format_args!(
                                "origin=relay holder={}",
                                holder.as_ref().map(|h| h.as_str()).unwrap_or("-")
                            ),
                        );
                        reply(ctx, PeerReply::LockDecision { app, granted: false, holder });
                    }
                }
            },
            PeerMsg::SubscribeApp { app, subscriber } => {
                ctx.metrics().incr(names::SERVER_PEER_SUBSCRIBES);
                if self.apps.contains_key(&app) {
                    self.subscribers.entry(app).or_default().insert(subscriber);
                    reply(ctx, PeerReply::SubscribeOk { app });
                    // Seed the subscriber with the current status.
                    if let Some(proxy) = self.apps.get(&app) {
                        effects.push(Effect::PushToPeers {
                            update: FrozenUpdate::new(UpdateBody::AppStatus {
                                app,
                                status: proxy.last_status.clone(),
                                readings: proxy.last_readings.clone(),
                            }),
                            peers: vec![subscriber],
                        });
                    }
                } else {
                    reply(
                        ctx,
                        PeerReply::Exception(WireError::new(ErrorCode::NoSuchApp, format!("{app}"))),
                    );
                }
            }
            PeerMsg::UnsubscribeApp { app, subscriber } => {
                if let Some(set) = self.subscribers.get_mut(&app) {
                    set.remove(&subscriber);
                }
                reply(ctx, PeerReply::SubscribeOk { app });
            }
            PeerMsg::CollabUpdate { update, origin } => {
                ctx.metrics().incr(names::SERVER_PEER_COLLAB_UPDATES);
                self.apply_peer_update(ctx, update, origin, &mut effects);
            }
            PeerMsg::PollUpdates { app, since, requester } => {
                match self.apps.get(&app) {
                    Some(proxy) => {
                        let (updates, next_seq) = proxy.updates_since(since, Some(requester));
                        reply(ctx, PeerReply::Updates { app, updates, next_seq });
                    }
                    None => reply(
                        ctx,
                        PeerReply::Exception(WireError::new(ErrorCode::NoSuchApp, format!("{app}"))),
                    ),
                }
            }
            PeerMsg::FetchHistory { app, since } => {
                let (records, next_seq) = self.archive.fetch_app(app, since);
                reply(ctx, PeerReply::History { app, records, next_seq });
            }
            PeerMsg::Control(event) => {
                ctx.metrics().incr_dynamic(&format!("server.control.{:?}", event.kind));
                let _ = event;
            }
            // Directory operations belong to the directory node.
            other => {
                reply(
                    ctx,
                    PeerReply::Exception(WireError::new(
                        ErrorCode::BadRequest,
                        format!("not served here: {other:?}"),
                    )),
                );
            }
        }
        effects.extend(self.take_deferred());
        effects
    }

    /// Ingest an update that arrived from a peer (push or poll). If this
    /// server hosts the app, it re-fans to locals and subscribers (minus
    /// the origin); otherwise it only reaches local clients.
    pub fn apply_peer_update(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        update: FrozenUpdate,
        origin: ServerAddr,
        effects: &mut Vec<Effect>,
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
        self.route_update(ctx, update, None, Some(origin), effects);
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
        let Some(cookie) = self.cookie_of_client.get(&client) else { return };
        let Some(session) = self.sessions.get(*cookie) else { return };
        let user = session.user.clone();
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

    /// A remote operation completed (or failed terminally).
    pub fn complete_remote_op(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        client: ClientId,
        app: AppId,
        result: Result<OpOutcome, WireError>,
    ) {
        let user = self
            .cookie_of_client
            .get(&client)
            .and_then(|c| self.sessions.get(*c))
            .map(|s| s.user.clone());
        let Some(user) = user else { return };
        let entry = match &result {
            Ok(o) => LogEntry::Response(o.clone()),
            Err(e) => LogEntry::Error(e.clone()),
        };
        self.archive.log_client(client, app, ctx.now(), Some(user.clone()), entry);
        match result {
            Ok(outcome) => {
                self.fifo_push(
                    ctx,
                    client,
                    ClientMessage::Response(ResponseBody::OpDone { app, outcome: outcome.clone() }),
                );
                // Collaborative response sharing: echo non-mutating
                // outcomes to the group (mutating ones are broadcast by
                // the host itself).
                let mutating = matches!(
                    outcome,
                    OpOutcome::ParamSet(..) | OpOutcome::CommandDone(_)
                );
                if !mutating && self.collab.broadcast_enabled(app, client) {
                    let update = UpdateBody::InteractionEcho {
                        app,
                        by: user.clone(),
                        outcome: outcome.clone(),
                    };
                    let mut effects = Vec::new();
                    self.route_update(ctx, update, Some(client), None, &mut effects);
                    self.deferred.extend(effects);
                }
                // §6.3: the response record is created at the CLIENT's
                // local server, owned by the requesting user.
                self.records.create(
                    app,
                    user,
                    [],
                    ctx.now(),
                    vec![("outcome".to_string(), Value::Text(format!("{outcome:?}")))],
                );
            }
            Err(e) => self.fifo_push(ctx, client, ClientMessage::Error(e)),
        }
    }

    /// A relayed lock request/release was decided by the host server.
    pub fn complete_remote_lock(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        client: ClientId,
        app: AppId,
        acquire: bool,
        granted: bool,
        holder: Option<UserId>,
    ) {
        let msg = match (acquire, granted) {
            (true, true) => ClientMessage::Response(ResponseBody::LockGranted { app }),
            (true, false) => ClientMessage::Response(ResponseBody::LockDenied { app, holder }),
            (false, true) => ClientMessage::Response(ResponseBody::LockReleased { app }),
            (false, false) => Self::error(ErrorCode::BadRequest, "not the lock holder"),
        };
        self.fifo_push(ctx, client, msg);
    }

    /// Remote history fetch completed.
    pub fn complete_remote_history(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        client: ClientId,
        app: AppId,
        records: Vec<wire::LogRecord>,
        next_seq: u64,
    ) {
        self.fifo_push(
            ctx,
            client,
            ClientMessage::Response(ResponseBody::History { app, records, next_seq }),
        );
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

    /// Eagerly force-release steering locks whose holder has been silent
    /// past the lease, broadcasting the change. Without this, a lock held
    /// by a crashed remote client is only reclaimed lazily, when someone
    /// else contends — zero-contention apps would stay locked forever.
    fn sweep_expired_leases(&mut self, ctx: &mut Ctx<'_, Envelope>) -> Vec<Effect> {
        let Some(lease) = self.config.lock_lease else { return Vec::new() };
        let now = ctx.now();
        let mut freed = Vec::new();
        for (app, proxy) in self.apps.iter_mut() {
            if proxy.lock.expired(now, Some(lease)) {
                if let Some(holder) = proxy.lock.force_release() {
                    proxy.lock.evictions += 1;
                    freed.push((*app, holder));
                }
            }
        }
        let mut effects = Vec::new();
        for (app, holder) in freed {
            ctx.metrics().incr(names::SERVER_LOCK_EVICTED);
            ctx.record_history(
                "lock.evicted",
                app,
                holder.as_str(),
                "origin=lease-sweep",
            );
            let update = UpdateBody::LockChanged { app, holder: None };
            self.route_update(ctx, update, None, None, &mut effects);
        }
        effects
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
        let mut freed = Vec::new();
        for (app, proxy) in self.apps.iter_mut() {
            if proxy.lock.granted_via == Some(peer) {
                if let Some(holder) = proxy.lock.force_release() {
                    proxy.lock.evictions += 1;
                    freed.push((*app, holder));
                }
            }
        }
        let mut effects = Vec::new();
        for (app, holder) in freed {
            ctx.metrics().incr(names::SERVER_LOCK_EVICTED);
            ctx.record_history(
                "lock.evicted",
                app,
                holder.as_str(),
                format_args!("origin=peer-down peer={}", peer.0),
            );
            let update = UpdateBody::LockChanged { app, holder: None };
            self.route_update(ctx, update, None, None, &mut effects);
        }
        effects.extend(self.take_deferred());
        effects
    }

    /// Reap sessions idle past the configured timeout and sweep expired
    /// steering-lock leases (master-handler housekeeping). Without a park
    /// TTL an idle session is torn down like a logout immediately; with
    /// one, it is parked first — FIFO, selections, and lock interest kept
    /// — and only reclaimed when the park TTL also expires, so a silent
    /// client can reconnect-with-resume while parked state stays bounded
    /// under mass leave. Returns resulting effects.
    pub fn reap_idle_sessions(&mut self, ctx: &mut Ctx<'_, Envelope>) -> Vec<Effect> {
        let lease_effects = self.sweep_expired_leases(ctx);
        let Some(timeout) = self.config.session_idle_timeout else {
            let mut effects = lease_effects;
            effects.extend(self.take_deferred());
            return effects;
        };
        let now = ctx.now();
        let cutoff_us = now.as_micros().saturating_sub(timeout.as_micros());
        let cutoff = simnet::SimTime::from_micros(cutoff_us);
        let mut effects = lease_effects;
        for session in self.sessions.reap_idle(cutoff) {
            match self.config.session_park_ttl {
                Some(_) => self.park_session(ctx, session),
                None => self.reclaim_session(ctx, session, &mut effects),
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
                    let p = self.parked.remove(&cookie).expect("collected above");
                    ctx.metrics().incr(names::SERVER_SESSIONS_RECLAIMED);
                    ctx.record_history(
                        "session.reclaimed",
                        "",
                        p.session.user.as_str(),
                        format_args!("apps={}", p.session.selected.len()),
                    );
                    self.reclaim_session(ctx, p.session, &mut effects);
                }
            }
        }
        effects.extend(self.take_deferred());
        effects
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
        self.deferred.clear();
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
                proxy.apply_status(status, folded.readings);
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

    /// Full teardown of a session already removed from the live table:
    /// exactly a logout (groups left, locks freed, FIFO dropped).
    fn reclaim_session(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        session: HttpSession,
        effects: &mut Vec<Effect>,
    ) {
        ctx.metrics().incr(names::SERVER_SESSIONS_REAPED);
        let client = session.client;
        let user = session.user.clone();
        self.cookie_of_client.remove(&client);
        self.fifos.remove(&client);
        let affected = self.collab.drop_client(client);
        let last_session = !self.sessions.iter().any(|s| s.user == user);
        for app in affected {
            let update = UpdateBody::MemberLeft { app, user: user.clone() };
            self.route_update(ctx, update, None, None, effects);
            self.maybe_unsubscribe(app, effects);
            self.release_lock_if_last_session(ctx, app, &user, effects);
            if last_session && app.host() != self.config.addr {
                effects.push(Effect::RemoteLock {
                    client,
                    user: user.clone(),
                    app,
                    acquire: false,
                });
            }
        }
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
                self.core.route_update(ctx, update, None, None, &mut Vec::new());
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
            fifo_counters(engine.stats()),
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
}
