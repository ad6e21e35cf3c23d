//! Every message type spoken in the DISCOVER system.
//!
//! Three protocol domains, mirroring the paper:
//!
//! * **client ↔ server** — [`ClientRequest`] / [`ClientMessage`], carried in
//!   HTTP requests/responses (see [`crate::http`]). Clients discriminate
//!   replies by [`ClientMessage::kind`] — the stand-in for the paper's
//!   "querying the received object for its class name" via Java reflection.
//! * **application ↔ server** — [`AppMsg`], carried on the custom TCP
//!   protocol (see [`crate::tcp`]) over the Main / Command / Response
//!   channels.
//! * **server ↔ server** — [`PeerMsg`] / [`PeerReply`], carried in
//!   GIOP-like frames (see [`crate::giop`]) between `DiscoverCorbaServer`
//!   and `CorbaProxy` servants, plus the Control channel events and the
//!   Naming/Trader directory operations.

use std::rc::Rc;
use std::sync::Arc;

use crate::codec::dbp;
use crate::ids::{AppId, AppToken, ClientId, ObjectRef, Privilege, RequestId, ServerAddr, UserId};
use crate::payload::FrozenUpdate;
use crate::value::{assign_readings, Value};

// ---------------------------------------------------------------------------
// Shared vocabulary
// ---------------------------------------------------------------------------

dbp! {
    /// Application lifecycle phase. The Daemon servlet buffers client requests
    /// while the application is `Computing` and flushes them in `Interacting`.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum AppPhase {
        /// Busy in a compute phase; interaction requests are buffered.
        Computing,
        /// In its interaction phase; requests are processed.
        Interacting,
        /// Paused by a steering command.
        Paused,
        /// Finished or terminated.
        Terminated,
    }

    /// Coarse application status shipped in updates and directory listings.
    #[derive(Clone, PartialEq, Debug)]
    pub struct AppStatus {
        /// Current phase.
        pub phase: AppPhase,
        /// Completed iterations of the main loop.
        pub iteration: u64,
        /// Solver progress metric (residual, simulated time, ...) for display.
        pub progress: f64,
    }

    /// Steering commands a client may issue to an application.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum AppCommand {
        /// Suspend at the next interaction point.
        Pause,
        /// Resume computation.
        Resume,
        /// Snapshot state for later rollback.
        Checkpoint,
        /// Restore the last checkpoint.
        Rollback,
        /// Shut the application down.
        Terminate,
    }

    /// One operation against an application's interaction interface; used both
    /// on the Command channel (server → app) and inside `CorbaProxy` calls
    /// (server → remote server).
    #[derive(Clone, PartialEq, Debug)]
    pub enum AppOp {
        /// Read the current status.
        GetStatus,
        /// Read one steerable parameter.
        GetParam(String),
        /// Write one steerable parameter (requires the steering lock).
        SetParam(String, Value),
        /// Read all current sensor readings ("views" in the paper).
        GetSensors,
        /// Issue a lifecycle command (requires the steering lock).
        Command(AppCommand),
    }
}

impl AppOp {
    /// Minimum privilege needed to issue this operation.
    pub fn required_privilege(&self) -> Privilege {
        match self {
            AppOp::GetStatus | AppOp::GetParam(_) | AppOp::GetSensors => Privilege::ReadOnly,
            AppOp::SetParam(..) => Privilege::ReadWrite,
            AppOp::Command(_) => Privilege::Steer,
        }
    }

    /// True if the operation mutates the application (and therefore needs
    /// the steering lock).
    pub fn is_mutating(&self) -> bool {
        matches!(self, AppOp::SetParam(..) | AppOp::Command(_))
    }

    /// Stable short name of the operation variant, for logs and
    /// correctness-history records.
    pub fn kind_name(&self) -> &'static str {
        match self {
            AppOp::GetStatus => "getStatus",
            AppOp::GetParam(_) => "getParam",
            AppOp::GetSensors => "getSensors",
            AppOp::SetParam(..) => "setParam",
            AppOp::Command(_) => "command",
        }
    }
}

dbp! {
    /// Successful result of an [`AppOp`].
    #[derive(Clone, PartialEq, Debug)]
    pub enum OpOutcome {
        /// Status snapshot.
        Status(AppStatus),
        /// Parameter read result.
        Param(String, Value),
        /// Parameter write acknowledgement (echoes the applied value).
        ParamSet(String, Value),
        /// Current sensor readings.
        Sensors(Vec<(String, Value)>),
        /// Command acknowledgement.
        CommandDone(AppCommand),
    }

    /// Error vocabulary shared by all layers.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum ErrorCode {
        /// Bad credentials at level-1 authentication.
        AuthFailed,
        /// Application id did not resolve.
        NoSuchApp,
        /// ACL denies the operation at level-2 authorization.
        AccessDenied,
        /// A mutating operation was issued without holding the steering lock.
        LockRequired,
        /// Lock request denied because another client holds it.
        LockHeld,
        /// Parameter name unknown or value of the wrong type.
        BadParameter,
        /// Target server or application is unreachable.
        Unavailable,
        /// Malformed or out-of-sequence request.
        BadRequest,
        // New codes are appended (never inserted) so DBP variant indices of
        // the codes above stay wire-stable across PRs.
        /// The request's deadline passed before a reply could be produced;
        /// the work was dropped rather than executed uselessly.
        DeadlineExceeded,
        /// The server shed this request under overload; the detail carries a
        /// deterministic retry-after hint and, when a mirror is known, a
        /// redirect hint.
        Overloaded,
        /// A `Resume` presented a cookie the server no longer remembers (the
        /// parked session's TTL expired and its state was reclaimed). Unlike
        /// the generic [`ErrorCode::AuthFailed`] a stale poll receives, this
        /// is definitive: the client must fall back to a fresh login.
        SessionExpired,
    }

    /// An error payload (code plus human-readable detail).
    #[derive(Clone, PartialEq, Debug)]
    pub struct WireError {
        /// Machine-readable code.
        pub code: ErrorCode,
        /// Human-readable context.
        pub detail: String,
    }
}

impl WireError {
    /// Convenience constructor.
    pub fn new(code: ErrorCode, detail: impl Into<String>) -> Self {
        WireError { code, detail: detail.into() }
    }
}

dbp! {
    /// The steering interface an application publishes at registration: the
    /// paper's "customized interaction/steering interface ... based on the
    /// client's access privileges" is derived from this by ACL filtering.
    #[derive(Clone, PartialEq, Debug, Default)]
    pub struct InteractionSpec {
        /// Steerable parameters: (name, type name, current value).
        pub params: Vec<(String, String, Value)>,
        /// Sensor names exposed as read-only views.
        pub sensors: Vec<String>,
        /// Commands the application accepts.
        pub commands: Vec<AppCommand>,
    }

    /// Directory entry describing an active application, as returned by
    /// level-1 authentication and `ListApplications`.
    #[derive(Clone, PartialEq, Debug)]
    pub struct AppDescriptor {
        /// Globally unique id (host server address + sequence).
        pub app: AppId,
        /// Human name, e.g. `"ipars-oil-reservoir"`.
        pub name: String,
        /// Application kind tag, e.g. `"oilres"`, `"cfd"`.
        pub kind: String,
        /// Current status snapshot.
        pub status: AppStatus,
        /// The privilege the *requesting* user holds on this application.
        pub privilege: Privilege,
        /// The application's full published interaction interface (filtered
        /// per privilege when handed to clients).
        pub interface: InteractionSpec,
    }

    /// A whiteboard stroke (collaboration tool payload).
    #[derive(Clone, PartialEq, Debug)]
    pub struct WhiteboardStroke {
        /// Polyline points in normalized `[0,1]` canvas coordinates.
        pub points: Vec<(f32, f32)>,
        /// RGBA color.
        pub color: u32,
    }
}

// ---------------------------------------------------------------------------
// Client <-> Server (HTTP)
// ---------------------------------------------------------------------------

dbp! {
    /// Requests a client portal sends its local server (HTTP POST bodies; the
    /// poll is an HTTP GET).
    #[derive(Clone, PartialEq, Debug)]
    pub enum ClientRequest {
        /// Level-1 authentication with the local server (which fans out to
        /// peer servers for the global application list).
        Login {
            /// The user logging in.
            user: UserId,
            /// Shared-secret password.
            password: String,
        },
        /// End the session.
        Logout,
        /// Refresh the "repository of services" view.
        ListApplications,
        /// Level-2 authentication: open an interaction session with an
        /// application, receiving the privilege-filtered interface.
        SelectApp {
            /// Target application.
            app: AppId,
        },
        /// Close an interaction session.
        DeselectApp {
            /// Target application.
            app: AppId,
        },
        /// Issue an interaction/steering operation.
        Op {
            /// Target application.
            app: AppId,
            /// The operation.
            op: AppOp,
        },
        /// Request the steering lock.
        RequestLock {
            /// Target application.
            app: AppId,
        },
        /// Release the steering lock.
        ReleaseLock {
            /// Target application.
            app: AppId,
        },
        /// Poll-and-pull fetch of buffered updates (HTTP GET in spirit).
        Poll,
        /// Join a named collaboration subgroup within the application group.
        JoinSubgroup {
            /// Target application.
            app: AppId,
            /// Subgroup name.
            group: String,
        },
        /// Leave a subgroup.
        LeaveSubgroup {
            /// Target application.
            app: AppId,
            /// Subgroup name.
            group: String,
        },
        /// Enable/disable collaboration broadcast of this client's
        /// requests/responses (the paper's "disable all collaboration" mode).
        SetCollabMode {
            /// Target application.
            app: AppId,
            /// Whether this client's interactions are broadcast to the group.
            broadcast: bool,
        },
        /// Explicitly share a view with the group (allowed even with
        /// collaboration disabled).
        ShareView {
            /// Target application.
            app: AppId,
            /// Opaque rendered view description.
            view: String,
        },
        /// Chat message to the application's collaboration group.
        Chat {
            /// Target application.
            app: AppId,
            /// Message text.
            text: String,
        },
        /// Whiteboard stroke to the application's collaboration group.
        Whiteboard {
            /// Target application.
            app: AppId,
            /// The stroke.
            stroke: WhiteboardStroke,
        },
        /// Fetch the archived interaction history (replay / latecomer
        /// catch-up), starting from log sequence `since`.
        GetHistory {
            /// Target application.
            app: AppId,
            /// First log sequence number wanted.
            since: u64,
        },
        /// Fetch this client's own interaction log with an application ("this
        /// log enables clients to replay their interactions"), kept at the
        /// client's local server.
        GetMyLog {
            /// Target application.
            app: AppId,
            /// First log sequence number wanted.
            since: u64,
        },
        // New requests are appended (never inserted) so DBP variant indices
        // of the requests above stay wire-stable across PRs.
        /// Resume a parked session after a silent disconnect: the client
        /// presents its prior session token plus per-application archive
        /// cursors, and the server replays only the missed suffix through
        /// the paged catch-up path instead of forcing a full rejoin.
        Resume {
            /// The session cookie issued at login (the session token).
            cookie: u64,
            /// Archive cursors: `(app, first sequence not yet seen)`. Apps
            /// omitted here fall back to the cursor recorded at park time.
            cursors: Vec<(AppId, u64)>,
        },
        /// Read-only live introspection of the serving node: session table,
        /// lock holders, FIFO depths, breaker states, admission in-flight and
        /// shed counts — the paper's operator monitoring view. Side-effect
        /// free: it never mutates server state, and runs that never issue it
        /// are byte-identical to pre-Status builds.
        Status,
        /// Snapshot-aware catch-up: like [`ClientRequest::GetHistory`], but
        /// the host may answer with the nearest archived state snapshot plus
        /// only the delta tail behind it, bounding the reply by the snapshot
        /// interval instead of the session length.
        CatchUp {
            /// Target application.
            app: AppId,
            /// First log sequence number already known to the client (`0`
            /// for a fresh latecomer).
            since: u64,
        },
    }

    /// Discriminator for [`ClientMessage`] — the reproduction of the paper's
    /// class-name dispatch at the client.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum MessageKind {
        /// Reply to a specific request.
        Response,
        /// Failure notice.
        Error,
        /// Asynchronous collaboration/status update.
        Update,
    }

    /// Everything a server delivers to a client.
    #[derive(Clone, PartialEq, Debug)]
    pub enum ClientMessage {
        /// Reply to a specific request.
        Response(ResponseBody),
        /// Failure notice.
        Error(WireError),
        /// Asynchronous update fanned out to the collaboration group. The
        /// payload is frozen (encoded once) so a broadcast to N members
        /// shares one encoding across all N messages.
        Update(FrozenUpdate),
    }
}

impl ClientMessage {
    /// Wrap an update body, freezing it (one DBP serialization).
    pub fn update(body: UpdateBody) -> Self {
        ClientMessage::Update(FrozenUpdate::new(body))
    }

    /// The message's kind — clients dispatch on this.
    pub fn kind(&self) -> MessageKind {
        match self {
            ClientMessage::Response(_) => MessageKind::Response,
            ClientMessage::Error(_) => MessageKind::Error,
            ClientMessage::Update(_) => MessageKind::Update,
        }
    }
}

dbp! {
    /// Bodies of [`ClientMessage::Response`].
    #[derive(Clone, PartialEq, Debug)]
    pub enum ResponseBody {
        /// Login succeeded; the global application list reflects this user's
        /// privileges across the whole server network.
        LoginOk {
            /// Assigned client id.
            client: ClientId,
            /// Applications visible to this user, local and remote.
            apps: Vec<AppDescriptor>,
        },
        /// Logout acknowledged.
        LogoutOk,
        /// Request accepted; the result will arrive asynchronously via the
        /// poll channel (HTTP cannot push).
        Accepted,
        /// Fresh application list.
        Apps(Vec<AppDescriptor>),
        /// Interaction session opened; interface filtered by privilege.
        AppSelected {
            /// The application.
            app: AppId,
            /// Privilege-filtered interaction interface.
            interface: InteractionSpec,
            /// The privilege this user holds.
            privilege: Privilege,
        },
        /// Interaction session closed.
        AppDeselected {
            /// The application.
            app: AppId,
        },
        /// An operation completed.
        OpDone {
            /// The application.
            app: AppId,
            /// Operation result.
            outcome: OpOutcome,
        },
        /// Steering lock granted.
        LockGranted {
            /// The application.
            app: AppId,
        },
        /// Steering lock denied; `holder` currently drives the application.
        LockDenied {
            /// The application.
            app: AppId,
            /// Current lock holder, if known.
            holder: Option<UserId>,
        },
        /// Steering lock released.
        LockReleased {
            /// The application.
            app: AppId,
        },
        /// Poll result: everything buffered since the last poll.
        Batch(Vec<ClientMessage>),
        /// Subgroup membership change acknowledged.
        SubgroupOk {
            /// The application.
            app: AppId,
            /// Subgroup name.
            group: String,
            /// True if now a member.
            joined: bool,
        },
        /// Collaboration mode change acknowledged.
        CollabModeOk {
            /// The application.
            app: AppId,
            /// New broadcast setting.
            broadcast: bool,
        },
        /// This client's own interaction log (replay).
        ClientLog {
            /// The application.
            app: AppId,
            /// The client's own records from `since` onward.
            records: Vec<LogRecord>,
            /// Sequence to pass as `since` next time.
            next_seq: u64,
        },
        /// Archived history records (replay / latecomer catch-up).
        History {
            /// The application.
            app: AppId,
            /// Records from the requested sequence onward.
            records: Vec<LogRecord>,
            /// Sequence number to pass as `since` next time.
            next_seq: u64,
        },
        // New responses are appended (never inserted) so DBP variant indices
        // of the responses above stay wire-stable across PRs.
        /// A parked session was resumed in place: the client id, selected
        /// applications, and lock interest survive; missed history follows
        /// as `History` responses in the same batch.
        Resumed {
            /// The client id (unchanged across the resume).
            client: ClientId,
            /// Applications still selected for this session.
            apps: Vec<AppId>,
        },
        /// Live status snapshot (reply to [`ClientRequest::Status`]). Boxed:
        /// an operator asks for it a few times a session, and inline its
        /// 168 bytes would size every slot a [`ClientMessage`] waits in.
        Status(Box<StatusReport>),
        /// Snapshot-aware catch-up reply (reply to [`ClientRequest::CatchUp`]):
        /// the nearest archived snapshot at or after the client's cursor, if
        /// one helps, plus the delta records behind it. A client folds the
        /// snapshot state and then applies the tail; the result is
        /// byte-identical to folding the full log.
        CatchUp {
            /// The application.
            app: AppId,
            /// Nearest usable state snapshot (`None` = the tail alone covers
            /// the request, e.g. the client's cursor is already past the
            /// latest snapshot). Shared with the archive that took it and
            /// with every other latecomer it is served to: written once,
            /// never cloned.
            snapshot: Option<Arc<ArchiveSnapshot>>,
            /// Delta records from the snapshot boundary (or from `since`)
            /// onward.
            records: Vec<LogRecord>,
            /// Sequence number to pass as `since` next time.
            next_seq: u64,
        },
    }
}

// ---------------------------------------------------------------------------
// Live status introspection
// ---------------------------------------------------------------------------

dbp! {
    /// One local application's health line inside a [`StatusReport`].
    #[derive(Clone, PartialEq, Debug)]
    pub struct AppStatusEntry {
        /// The application.
        pub app: AppId,
        /// Human name.
        pub name: String,
        /// Current lifecycle phase.
        pub phase: AppPhase,
        /// Steering-lock holder (`None` = free).
        pub lock_holder: Option<UserId>,
        /// Operations currently parked in the Daemon buffer.
        pub buffered: u32,
        /// Operations shed from the Daemon buffer over the app's lifetime.
        pub shed_total: u64,
        // New fields are appended (never inserted) so DBP field indices of
        // the fields above stay wire-stable across PRs.
        /// Archived log records currently retained for this application
        /// (post-compaction depth — the archive-pressure observable).
        pub archive_records: u64,
        /// State snapshots held in the application's archive.
        pub archive_snapshots: u32,
        /// View-class records compacted out of closed segments, lifetime.
        pub archive_compacted: u64,
        /// Session records stored for this application in the record
        /// database.
        pub db_records: u64,
    }

    /// One client FIFO's depth line inside a [`StatusReport`].
    #[derive(Clone, PartialEq, Debug)]
    pub struct FifoStatusEntry {
        /// The client.
        pub client: ClientId,
        /// Messages queued right now.
        pub queued: u32,
        /// High-water mark over the FIFO's lifetime.
        pub peak: u32,
        /// Messages dropped on overflow over the FIFO's lifetime.
        pub dropped: u64,
    }

    /// One peer's health line inside a [`StatusReport`].
    #[derive(Clone, PartialEq, Debug)]
    pub struct PeerStatusEntry {
        /// The peer server.
        pub peer: ServerAddr,
        /// Substrate health verdict (`"up"`, `"suspect"`, `"down"`).
        pub health: String,
        /// ORB circuit-breaker state toward the peer (`"closed"`, `"open"`,
        /// `"half-open"`).
        pub breaker: String,
    }

    /// The directory-plane lines inside a [`StatusReport`]: shard ring
    /// shape and discovery-cache counters, synced from the substrate.
    #[derive(Clone, PartialEq, Debug, Default)]
    pub struct DirPlaneStatus {
        /// Directory shard count on the consistent-hash ring.
        pub shards: u32,
        /// Ring membership epoch.
        pub ring_epoch: u64,
        /// Discovery-cache lookups served from a fresh entry (positive or
        /// negative), lifetime.
        pub cache_hits: u64,
        /// Discovery-cache lookups that missed (no entry, or expired),
        /// lifetime.
        pub cache_misses: u64,
        /// Discovery-cache entries explicitly invalidated, lifetime.
        pub cache_invalidations: u64,
    }

    /// A read-only snapshot of one server's live state — the reproduction of
    /// the paper's portal monitoring view. Served by
    /// [`ClientRequest::Status`]; rendered as a text status page by
    /// [`StatusReport::render`].
    #[derive(Clone, PartialEq, Debug)]
    pub struct StatusReport {
        /// The reporting server.
        pub server: ServerAddr,
        /// Virtual time of the snapshot (micros since simulation start).
        pub at_us: u64,
        /// Live (active) client sessions.
        pub sessions_active: u32,
        /// Parked sessions awaiting resume or reclamation.
        pub sessions_parked: u32,
        /// Forwarded operations currently in flight (the admission-control
        /// observable).
        pub admission_in_flight: u32,
        /// Messages dropped across all client FIFOs, lifetime.
        pub fifo_dropped: u64,
        /// Operations shed from Daemon buffers across all apps, lifetime.
        pub shed_total: u64,
        /// Per-application health: phase, lock holder, buffer depth.
        pub apps: Vec<AppStatusEntry>,
        /// Per-client FIFO depths.
        pub fifos: Vec<FifoStatusEntry>,
        /// Peer health and breaker states.
        pub peers: Vec<PeerStatusEntry>,
        // New fields are appended (never inserted) so DBP field indices of
        // the fields above stay wire-stable across PRs.
        /// Sessions rebuilt from the archive by the most recent
        /// restart-from-archive recovery (`0` = never recovered).
        pub recovered_apps: u32,
        /// Completed archive recoveries over the server's lifetime.
        pub recoveries: u64,
        /// Directory shard ring and discovery-cache introspection.
        pub dir_plane: DirPlaneStatus,
    }
}

impl StatusReport {
    /// Deterministic text status page (what the portal shows an
    /// operator). Byte-identical for identical snapshots.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== status {} at={}us ==\nsessions: active={} parked={}\nadmission: in_flight={}\nshed: fifo_dropped={} daemon_shed={}\n",
            self.server,
            self.at_us,
            self.sessions_active,
            self.sessions_parked,
            self.admission_in_flight,
            self.fifo_dropped,
            self.shed_total,
        );
        if self.recoveries > 0 {
            out.push_str(&format!(
                "recovery: recoveries={} recovered_apps={}\n",
                self.recoveries, self.recovered_apps
            ));
        }
        // The directory line appears only for sharded/cached discovery
        // planes, so single-directory status pages render byte-identical
        // to pre-sharding builds.
        if self.dir_plane.shards > 1 || self.dir_plane.cache_hits + self.dir_plane.cache_misses > 0
        {
            let d = &self.dir_plane;
            out.push_str(&format!(
                "directory: shards={} epoch={} cache_hits={} cache_misses={} invalidations={}\n",
                d.shards, d.ring_epoch, d.cache_hits, d.cache_misses, d.cache_invalidations
            ));
        }
        for a in &self.apps {
            let holder = a.lock_holder.as_ref().map_or("-", |u| u.as_str());
            out.push_str(&format!(
                "app {} {} phase={:?} lock={} buffered={} shed={} archive={}r/{}s compacted={} db={}\n",
                a.app,
                a.name,
                a.phase,
                holder,
                a.buffered,
                a.shed_total,
                a.archive_records,
                a.archive_snapshots,
                a.archive_compacted,
                a.db_records
            ));
        }
        for f in &self.fifos {
            out.push_str(&format!(
                "fifo {} queued={} peak={} dropped={}\n",
                f.client, f.queued, f.peak, f.dropped
            ));
        }
        for p in &self.peers {
            out.push_str(&format!("peer {} health={} breaker={}\n", p.peer, p.health, p.breaker));
        }
        out
    }
}

dbp! {
    /// Bodies of [`ClientMessage::Update`] — fanned out to collaboration
    /// groups (and across servers, one message per remote server).
    #[derive(Clone, PartialEq, Debug)]
    pub enum UpdateBody {
        /// Periodic application status broadcast (the paper's "global
        /// updates ... automatically broadcast to this group").
        AppStatus {
            /// The application.
            app: AppId,
            /// Status snapshot.
            status: AppStatus,
            /// Current sensor readings.
            readings: Vec<(String, Value)>,
        },
        /// A steered parameter changed.
        ParamChanged {
            /// The application.
            app: AppId,
            /// Parameter name.
            name: String,
            /// New value.
            value: Value,
            /// Who changed it.
            by: UserId,
        },
        /// A lifecycle command was applied.
        CommandApplied {
            /// The application.
            app: AppId,
            /// The command.
            command: AppCommand,
            /// Who issued it.
            by: UserId,
        },
        /// Steering lock ownership changed.
        LockChanged {
            /// The application.
            app: AppId,
            /// New holder (`None` = free).
            holder: Option<UserId>,
        },
        /// Chat line.
        Chat {
            /// The application group.
            app: AppId,
            /// Sender.
            from: UserId,
            /// Text.
            text: String,
        },
        /// Whiteboard stroke.
        Whiteboard {
            /// The application group.
            app: AppId,
            /// Sender.
            from: UserId,
            /// Stroke payload.
            stroke: WhiteboardStroke,
        },
        /// Explicitly shared view.
        ViewShared {
            /// The application group.
            app: AppId,
            /// Sender.
            from: UserId,
            /// Opaque view description.
            view: String,
        },
        /// A user joined the application's collaboration group.
        MemberJoined {
            /// The application group.
            app: AppId,
            /// Who joined.
            user: UserId,
        },
        /// A user left the application's collaboration group.
        MemberLeft {
            /// The application group.
            app: AppId,
            /// Who left.
            user: UserId,
        },
        /// The application disconnected or terminated.
        AppClosed {
            /// The application.
            app: AppId,
        },
        /// A collaborating client's interaction response, echoed to the group
        /// (the paper's shared request/response streams; suppressed for
        /// clients that disabled collaboration).
        InteractionEcho {
            /// The application.
            app: AppId,
            /// Whose interaction this echoes.
            by: UserId,
            /// The outcome being shared.
            outcome: OpOutcome,
        },
    }
}

impl UpdateBody {
    /// The application this update concerns.
    pub fn app(&self) -> AppId {
        match self {
            UpdateBody::AppStatus { app, .. }
            | UpdateBody::ParamChanged { app, .. }
            | UpdateBody::CommandApplied { app, .. }
            | UpdateBody::LockChanged { app, .. }
            | UpdateBody::Chat { app, .. }
            | UpdateBody::Whiteboard { app, .. }
            | UpdateBody::ViewShared { app, .. }
            | UpdateBody::MemberJoined { app, .. }
            | UpdateBody::MemberLeft { app, .. }
            | UpdateBody::AppClosed { app }
            | UpdateBody::InteractionEcho { app, .. } => *app,
        }
    }

    /// The latest-wins slot this update belongs to, or `None` if it must
    /// never be coalesced.
    ///
    /// View-class state snapshots — periodic status, a parameter's
    /// current value, the lock holder — are fully superseded by a newer
    /// update with the same key, so a still-queued older one may be
    /// replaced in place. Everything event-like (commands, chat,
    /// whiteboard strokes, shared views, membership changes, app close,
    /// interaction echoes) is history, not state: each instance must be
    /// delivered, so no key.
    ///
    /// The key borrows the parameter name from the update, so computing
    /// and comparing keys allocates nothing.
    pub fn coalesce_key(&self) -> Option<UpdateKey<'_>> {
        match self {
            UpdateBody::AppStatus { app, .. } => Some(UpdateKey::Status(*app)),
            UpdateBody::ParamChanged { app, name, .. } => Some(UpdateKey::Param(*app, name)),
            UpdateBody::LockChanged { app, .. } => Some(UpdateKey::Lock(*app)),
            UpdateBody::CommandApplied { .. }
            | UpdateBody::Chat { .. }
            | UpdateBody::Whiteboard { .. }
            | UpdateBody::ViewShared { .. }
            | UpdateBody::MemberJoined { .. }
            | UpdateBody::MemberLeft { .. }
            | UpdateBody::AppClosed { .. }
            | UpdateBody::InteractionEcho { .. } => None,
        }
    }
}

/// The (app, view-key) identity of a coalescible view-class update: a
/// newer update with an equal key fully supersedes an older one.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UpdateKey<'a> {
    /// Periodic status snapshot of one application.
    Status(AppId),
    /// Current value of one named parameter of one application.
    Param(AppId, &'a str),
    /// Steering-lock holder of one application.
    Lock(AppId),
}

// ---------------------------------------------------------------------------
// Application <-> Server (custom TCP protocol)
// ---------------------------------------------------------------------------

dbp! {
    /// Channels of the DISCOVER wire protocol. Between a server and an
    /// application three channels exist (Main / Command / Response); between
    /// two servers a fourth Control channel carries errors and system events.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    pub enum Channel {
        /// Registration and periodic updates.
        Main,
        /// Interaction requests toward the application.
        Command,
        /// Application responses to interaction requests.
        Response,
        /// Server-to-server errors and system events (Salamander-style
        /// notification service).
        Control,
    }

    /// Messages on the application ↔ server custom TCP protocol.
    #[derive(Clone, PartialEq, Debug)]
    pub enum AppMsg {
        /// Main channel, app → server: register with the Daemon servlet.
        Register {
            /// Pre-assigned authentication token.
            token: AppToken,
            /// Human name.
            name: String,
            /// Kind tag (`"oilres"`, `"cfd"`, ...).
            kind: String,
            /// Access-control list: users authorized on this application.
            acl: Vec<(UserId, Privilege)>,
            /// Published interaction interface.
            interface: InteractionSpec,
            /// Pre-assigned application slot at the host server (static
            /// deployments, where the identity is decided before launch).
            /// `None` lets the Daemon assign the next free sequence — with
            /// concurrent registrations that order depends on network
            /// arrival, so statically configured topologies should pin it.
            slot: Option<u32>,
        },
        /// Main channel, server → app: registration accepted.
        RegisterAck {
            /// Assigned globally unique id.
            app: AppId,
        },
        /// Main channel, server → app: registration rejected.
        RegisterNak {
            /// Why.
            error: WireError,
        },
        /// Main channel, app → server: periodic status/sensor update.
        Update {
            /// The application.
            app: AppId,
            /// Status snapshot.
            status: AppStatus,
            /// Current sensor readings.
            readings: Vec<(String, Value)>,
        },
        /// Main channel, app → server: phase transition (drives the Daemon
        /// servlet's request buffering).
        PhaseChange {
            /// The application.
            app: AppId,
            /// New phase.
            phase: AppPhase,
        },
        /// Main channel, app → server: clean shutdown.
        Deregister {
            /// The application.
            app: AppId,
        },
        /// Command channel, server → app: perform an operation.
        Command {
            /// Correlation id (matched by the Response).
            req: RequestId,
            /// The operation.
            op: AppOp,
        },
        /// Response channel, app → server: operation result.
        Response {
            /// Correlation id.
            req: RequestId,
            /// Outcome.
            result: Result<OpOutcome, WireError>,
        },
    }
}

// ---------------------------------------------------------------------------
// Server <-> Server (GIOP / CORBA analogue)
// ---------------------------------------------------------------------------

dbp! {
    /// Control-channel events (errors and system events forwarded between
    /// servers; the paper likens this to Salamander's notification service).
    #[derive(Clone, PartialEq, Debug)]
    pub struct ControlEvent {
        /// Originating server.
        pub origin: ServerAddr,
        /// Event class.
        pub kind: ControlEventKind,
        /// Human-readable detail.
        pub detail: String,
    }

    /// Classes of control-channel events.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum ControlEventKind {
        /// A server joined the peer network.
        ServerUp,
        /// A server is leaving the peer network.
        ServerDown,
        /// An application registered.
        AppRegistered,
        /// An application deregistered or died.
        AppClosed,
        /// An error was raised on behalf of a remote interaction.
        RemoteError,
    }

    /// Requests between DISCOVER servers: the level-1 `DiscoverCorbaServer`
    /// interface, the level-2 `CorbaProxy` interface, collaboration fan-out,
    /// distributed locking relay, archival fetch, and control events.
    #[derive(Clone, PartialEq, Debug)]
    pub enum PeerMsg {
        /// Level 1: authenticate a user and learn their visible applications.
        Authenticate {
            /// The user.
            user: UserId,
            /// Shared-secret password.
            password: String,
        },
        /// Level 1: list active applications and logged-in users.
        ListActive,
        /// Level 2: operation against an application hosted at the target
        /// server, on behalf of a user at the calling server.
        ProxyOp {
            /// Target application (hosted at the callee).
            app: AppId,
            /// Acting user.
            user: UserId,
            /// The operation.
            op: AppOp,
        },
        /// Relay a steering-lock request to the application's host server.
        LockRequest {
            /// Target application.
            app: AppId,
            /// Requesting user.
            user: UserId,
            /// The relaying server (the user's local server). The host
            /// remembers it with the grant so a relayed lock can be evicted
            /// when its relay server is observed down, instead of stranding
            /// the lock until lease expiry.
            via: ServerAddr,
        },
        /// Relay a steering-lock release to the application's host server.
        LockRelease {
            /// Target application.
            app: AppId,
            /// Releasing user.
            user: UserId,
        },
        /// Subscribe the calling server to collaboration updates for `app`
        /// (sent when its first local client selects the remote app).
        SubscribeApp {
            /// Target application.
            app: AppId,
            /// The subscribing server.
            subscriber: ServerAddr,
        },
        /// Unsubscribe (last local client deselected the app).
        UnsubscribeApp {
            /// Target application.
            app: AppId,
            /// The unsubscribing server.
            subscriber: ServerAddr,
        },
        /// Collaboration fan-out: ONE message per remote server carrying an
        /// update; the receiving server re-broadcasts to its local clients.
        CollabUpdate {
            /// The update, frozen at the origin: M peer pushes share one
            /// encoding, and the receiver's local re-broadcast reuses it too.
            update: FrozenUpdate,
            /// The server where the update originated (excluded from the
            /// host's re-fan-out to avoid echo).
            origin: ServerAddr,
        },
        /// Poll-mode alternative to `CollabUpdate` push (the paper's
        /// "CorbaProxy objects poll each other for updates and responses").
        PollUpdates {
            /// Target application.
            app: AppId,
            /// First update sequence wanted.
            since: u64,
            /// The polling server (its own updates are filtered out).
            requester: ServerAddr,
        },
        /// Fetch archived application history from its host server.
        FetchHistory {
            /// Target application.
            app: AppId,
            /// First log sequence wanted.
            since: u64,
        },
        /// Control-channel event (oneway).
        Control(ControlEvent),
        /// Naming service: bind (or rebind) `name` to an object reference.
        NamingBind {
            /// Compound name, e.g. `"DISCOVER/apps/10.0.0.1#2"`.
            name: String,
            /// The reference.
            object: ObjectRef,
        },
        /// Naming service: resolve `name`.
        NamingResolve {
            /// Compound name.
            name: String,
        },
        /// Naming service: remove a binding.
        NamingUnbind {
            /// Compound name.
            name: String,
        },
        /// Naming service: list bindings under a prefix.
        NamingList {
            /// Name prefix (`""` lists everything).
            prefix: String,
        },
        /// Trader service: export a service offer (the paper's service-offer
        /// pairs; all DISCOVER servers export under service id `"DISCOVER"`).
        TraderExport {
            /// The offer.
            offer: ServiceOffer,
        },
        /// Trader service: withdraw all offers for an object reference.
        TraderWithdraw {
            /// The exporting object.
            object: ObjectRef,
        },
        /// CoG/GRAM: submit a job to a grid site for staging and launch.
        GramSubmit {
            /// What to run.
            job: JobSpec,
        },
        /// CoG/GRAM: query a site's slot availability.
        GramQuery,
        /// Trader service: query offers of a service type matching all given
        /// property constraints (name/value equality).
        TraderQuery {
            /// Service type, e.g. `"DISCOVER"`.
            service_type: String,
            /// Property constraints; empty matches every offer of the type.
            constraints: Vec<(String, Value)>,
        },
    }

    /// Specification of a grid job submitted through the CoG kit's
    /// GRAM-analogue: which application to launch, how much input data must
    /// be staged, and roughly how long it will run.
    #[derive(Clone, PartialEq, Debug)]
    pub struct JobSpec {
        /// Human name (becomes the application name at registration).
        pub name: String,
        /// Application kind tag (`"oilres"`, `"cfd"`, ...).
        pub kind: String,
        /// Bytes of input data to stage to the site before launch.
        pub stage_bytes: u64,
        /// Estimated run time (slot occupancy), microseconds.
        pub est_duration_us: u64,
    }

    /// A trader service offer: a CosTrading-style (service type, reference,
    /// properties) triple.
    #[derive(Clone, PartialEq, Debug)]
    pub struct ServiceOffer {
        /// Service type, e.g. `"DISCOVER"`.
        pub service_type: String,
        /// The object implementing the service.
        pub object: ObjectRef,
        /// Name/value property list used in query constraints.
        pub properties: Vec<(String, Value)>,
    }

    /// Replies to [`PeerMsg`] requests.
    #[derive(Clone, PartialEq, Debug)]
    pub enum PeerReply {
        /// Level-1 authentication result: applications at the callee visible
        /// to the user.
        AuthOk {
            /// Visible applications with the user's privilege filled in.
            apps: Vec<AppDescriptor>,
        },
        /// Level-1 authentication failed (user unknown at the callee).
        AuthDenied,
        /// Active applications and users at the callee.
        Active {
            /// All registered applications (unfiltered).
            apps: Vec<AppDescriptor>,
            /// Users currently logged in.
            users: Vec<UserId>,
        },
        /// Result of a proxied operation.
        OpResult {
            /// The application.
            app: AppId,
            /// Outcome.
            result: Result<OpOutcome, WireError>,
        },
        /// Lock decision from the host server.
        LockDecision {
            /// The application.
            app: AppId,
            /// Granted to the requester?
            granted: bool,
            /// Current holder after the decision.
            holder: Option<UserId>,
        },
        /// Subscription acknowledged.
        SubscribeOk {
            /// The application.
            app: AppId,
        },
        /// Updates since the polled sequence.
        Updates {
            /// The application.
            app: AppId,
            /// Buffered updates, frozen once at broadcast time; a poll reply
            /// splices the stored encodings instead of re-walking each body.
            updates: Vec<FrozenUpdate>,
            /// Sequence to poll from next.
            next_seq: u64,
        },
        /// Archived history records.
        History {
            /// The application.
            app: AppId,
            /// Records.
            records: Vec<LogRecord>,
            /// Sequence to fetch from next.
            next_seq: u64,
        },
        /// Naming/trader mutation acknowledged.
        DirectoryOk,
        /// Naming resolution result.
        NamingResolved {
            /// The binding, if present.
            object: Option<ObjectRef>,
        },
        /// Naming listing result.
        NamingNames {
            /// Bindings under the requested prefix.
            bindings: Vec<(String, ObjectRef)>,
        },
        /// CoG/GRAM: job accepted.
        GramAccepted {
            /// Site-local job id.
            job: u64,
            /// Predicted delay until the application comes up (staging +
            /// queue wait), microseconds.
            eta_us: u64,
        },
        /// CoG/GRAM: site status.
        GramStatus {
            /// Free execution slots.
            free_slots: u32,
            /// Jobs waiting in the queue.
            queued: u32,
            /// Relative CPU speed of the site (1.0 = baseline).
            speed: f64,
        },
        /// Trader query result.
        TraderOffers {
            /// Matching offers.
            offers: Vec<ServiceOffer>,
        },
        /// The request failed.
        Exception(WireError),
    }
}

// ---------------------------------------------------------------------------
// Archival
// ---------------------------------------------------------------------------

dbp! {
    /// One archived record in a session/application log.
    #[derive(Clone, PartialEq, Debug)]
    pub struct LogRecord {
        /// Monotonic per-log sequence number.
        pub seq: u64,
        /// Virtual timestamp (microseconds since simulation start).
        pub at_us: u64,
        /// Acting user (if the entry is client-initiated).
        pub user: Option<UserId>,
        /// What happened.
        pub entry: LogEntry,
    }

    /// Payload of a [`LogRecord`].
    #[derive(Clone, PartialEq, Debug)]
    pub enum LogEntry {
        /// A client-issued interaction request.
        Request(AppOp),
        /// The application's response, shared with every other keeper of
        /// the same completion (the other log, the §6.3 record).
        Response(Rc<OpOutcome>),
        /// An error outcome.
        Error(WireError),
        /// A periodic status/sensor message.
        Status(AppStatus),
        /// A collaboration update (chat/whiteboard/view/membership), sharing
        /// the broadcast's frozen encoding.
        Update(FrozenUpdate),
    }

    /// The folded (materialized) state of one application's archive: what a
    /// replay of the log up to some sequence number reconstructs.
    ///
    /// View-class records (status, parameters, lock holder) fold latest-wins —
    /// exactly the [`UpdateBody::coalesce_key`] identity, so the fold is
    /// invariant under segment compaction by construction. Membership folds
    /// as a sorted set (joins and leaves are event-class and never compacted,
    /// so replaying them is exact). Everything event-like (requests,
    /// responses, errors, commands, chat, whiteboard, shared views, echoes)
    /// is history, not state: it folds to a count plus an order-sensitive
    /// digest of the records' wire encodings, which pins byte-identical
    /// replay without storing the events themselves.
    #[derive(Clone, PartialEq, Debug, Default)]
    pub struct FoldedAppState {
        /// Latest periodic status, if any was logged.
        pub status: Option<AppStatus>,
        /// Sensor readings accompanying the latest status.
        pub readings: Vec<(String, Value)>,
        /// Latest value per steered parameter, sorted by name.
        pub params: Vec<(String, Value)>,
        /// Steering-lock holder per the latest `LockChanged` (`None` = free).
        pub lock_holder: Option<UserId>,
        /// Collaboration-group members (joined minus left), sorted.
        pub members: Vec<UserId>,
        /// True once an `AppClosed` update was logged.
        pub closed: bool,
        /// Count of event-class records folded (requests, responses, errors,
        /// non-view updates).
        pub event_records: u64,
        /// FNV-1a digest over the wire encodings of the event-class records,
        /// in log order.
        pub event_digest: u64,
    }
}

impl FoldedAppState {
    /// Fold one archived record into the state. Records must be applied
    /// in log order; the result after applying a full log prefix is the
    /// definition of "the state as of that sequence number".
    pub fn apply(&mut self, record: &LogRecord) {
        match &record.entry {
            LogEntry::Status(status) => {
                self.status = Some(status.clone());
            }
            LogEntry::Update(u) => match u.body() {
                UpdateBody::AppStatus { status, readings, .. } => {
                    self.status = Some(status.clone());
                    assign_readings(&mut self.readings, readings);
                }
                UpdateBody::ParamChanged { name, value, .. } => {
                    match self.params.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                        Ok(i) => self.params[i].1 = value.clone(),
                        Err(i) => self.params.insert(i, (name.clone(), value.clone())),
                    }
                }
                UpdateBody::LockChanged { holder, .. } => {
                    self.lock_holder = holder.clone();
                }
                UpdateBody::MemberJoined { user, .. } => {
                    if let Err(i) = self.members.binary_search(user) {
                        self.members.insert(i, user.clone());
                    }
                }
                UpdateBody::MemberLeft { user, .. } => {
                    if let Ok(i) = self.members.binary_search(user) {
                        self.members.remove(i);
                    }
                }
                UpdateBody::AppClosed { .. } => {
                    self.closed = true;
                }
                UpdateBody::CommandApplied { .. }
                | UpdateBody::Chat { .. }
                | UpdateBody::Whiteboard { .. }
                | UpdateBody::ViewShared { .. }
                | UpdateBody::InteractionEcho { .. } => self.digest_event(record),
            },
            LogEntry::Request(_) | LogEntry::Response(_) | LogEntry::Error(_) => {
                self.digest_event(record);
            }
        }
    }

    /// Fold every record of `records`, in order.
    pub fn apply_all(&mut self, records: &[LogRecord]) {
        for r in records {
            self.apply(r);
        }
    }

    /// Fold a whole log from scratch.
    pub fn fold(records: &[LogRecord]) -> FoldedAppState {
        let mut state = FoldedAppState::default();
        state.apply_all(records);
        state
    }

    fn digest_event(&mut self, record: &LogRecord) {
        self.event_records += 1;
        // FNV-1a over the record's wire encoding: order-sensitive, so a
        // reordered / rewritten event history never digests equal. The
        // stats-free digest walk keeps the fold off the encode ledger.
        let hash = crate::codec::digest_fnv1a(record);
        self.event_digest = self.event_digest.rotate_left(1) ^ hash;
    }
}

dbp! {
    /// A periodic state snapshot inside an application archive: the folded
    /// state covering every record with `seq <` the boundary. Catch-up from
    /// a snapshot is `snapshot.state` + folding the tail records from
    /// `snapshot.seq` onward.
    #[derive(Clone, PartialEq, Debug)]
    pub struct ArchiveSnapshot {
        /// Boundary sequence: the snapshot covers records with `seq < seq`.
        pub seq: u64,
        /// Virtual time the snapshot was taken (micros since sim start).
        pub at_us: u64,
        /// The folded state as of the boundary.
        pub state: FoldedAppState,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode, encode};
    use crate::ids::ServerAddr;

    fn sample_app() -> AppId {
        AppId { server: ServerAddr(1), seq: 1 }
    }

    #[test]
    fn client_message_kind_dispatch() {
        let r = ClientMessage::Response(ResponseBody::LogoutOk);
        let e = ClientMessage::Error(WireError::new(ErrorCode::BadRequest, "x"));
        let u = ClientMessage::update(UpdateBody::AppClosed { app: sample_app() });
        assert_eq!(r.kind(), MessageKind::Response);
        assert_eq!(e.kind(), MessageKind::Error);
        assert_eq!(u.kind(), MessageKind::Update);
    }

    #[test]
    fn op_privileges() {
        assert_eq!(AppOp::GetStatus.required_privilege(), Privilege::ReadOnly);
        assert_eq!(
            AppOp::SetParam("x".into(), Value::Int(1)).required_privilege(),
            Privilege::ReadWrite
        );
        assert_eq!(AppOp::Command(AppCommand::Pause).required_privilege(), Privilege::Steer);
        assert!(AppOp::Command(AppCommand::Pause).is_mutating());
        assert!(!AppOp::GetSensors.is_mutating());
    }

    #[test]
    fn update_body_app_extraction() {
        let app = sample_app();
        let updates = [
            UpdateBody::AppClosed { app },
            UpdateBody::Chat { app, from: UserId::new("u"), text: "hi".into() },
            UpdateBody::LockChanged { app, holder: None },
            UpdateBody::MemberJoined { app, user: UserId::new("u") },
        ];
        assert!(updates.iter().all(|u| u.app() == app));
    }

    #[test]
    fn peer_and_app_messages_roundtrip() {
        let m = PeerMsg::ProxyOp {
            app: sample_app(),
            user: UserId::new("vijay"),
            op: AppOp::SetParam("injection_rate".into(), Value::Float(2.5)),
        };
        assert_eq!(decode::<PeerMsg>(&encode(&m)).unwrap(), m);

        let a = AppMsg::Response {
            req: RequestId(9),
            result: Err(WireError::new(ErrorCode::BadParameter, "no such param")),
        };
        assert_eq!(decode::<AppMsg>(&encode(&a)).unwrap(), a);

        let reply = PeerReply::Updates {
            app: sample_app(),
            updates: vec![FrozenUpdate::new(UpdateBody::ParamChanged {
                app: sample_app(),
                name: "dt".into(),
                value: Value::Float(0.01),
                by: UserId::new("manish"),
            })],
            next_seq: 17,
        };
        assert_eq!(decode::<PeerReply>(&encode(&reply)).unwrap(), reply);
    }

    #[test]
    fn folded_state_is_latest_wins_and_order_sensitive() {
        let app = sample_app();
        let rec = |seq, entry| LogRecord { seq, at_us: seq * 100, user: None, entry };
        let upd = |seq, body| rec(seq, LogEntry::Update(FrozenUpdate::new(body)));
        let log = vec![
            upd(0, UpdateBody::MemberJoined { app, user: UserId::new("b") }),
            upd(1, UpdateBody::MemberJoined { app, user: UserId::new("a") }),
            upd(
                2,
                UpdateBody::ParamChanged {
                    app,
                    name: "dt".into(),
                    value: Value::Float(0.1),
                    by: UserId::new("a"),
                },
            ),
            upd(
                3,
                UpdateBody::ParamChanged {
                    app,
                    name: "dt".into(),
                    value: Value::Float(0.2),
                    by: UserId::new("a"),
                },
            ),
            upd(4, UpdateBody::LockChanged { app, holder: Some(UserId::new("a")) }),
            rec(5, LogEntry::Request(AppOp::GetStatus)),
            upd(6, UpdateBody::MemberLeft { app, user: UserId::new("b") }),
        ];
        let state = FoldedAppState::fold(&log);
        assert_eq!(state.params, vec![("dt".to_string(), Value::Float(0.2))]);
        assert_eq!(state.lock_holder, Some(UserId::new("a")));
        assert_eq!(state.members, vec![UserId::new("a")]);
        assert_eq!(state.event_records, 1);
        // Incremental fold == from-scratch fold.
        let mut inc = FoldedAppState::fold(&log[..3]);
        inc.apply_all(&log[3..]);
        assert_eq!(inc, state);
        // Event order matters: swapping two event-class records changes
        // the digest even though the count is equal.
        let mut swapped = log.clone();
        swapped.push(rec(7, LogEntry::Request(AppOp::GetSensors)));
        let mut reordered = swapped.clone();
        reordered.swap(5, 7);
        assert_ne!(
            FoldedAppState::fold(&swapped).event_digest,
            FoldedAppState::fold(&reordered).event_digest
        );
    }

    #[test]
    fn catchup_messages_roundtrip() {
        let app = sample_app();
        let req = ClientRequest::CatchUp { app, since: 42 };
        assert_eq!(decode::<ClientRequest>(&encode(&req)).unwrap(), req);
        let resp = ResponseBody::CatchUp {
            app,
            snapshot: Some(Arc::new(ArchiveSnapshot {
                seq: 64,
                at_us: 1_000_000,
                state: FoldedAppState {
                    lock_holder: Some(UserId::new("vijay")),
                    ..FoldedAppState::default()
                },
            })),
            records: vec![LogRecord {
                seq: 64,
                at_us: 1_000_100,
                user: Some(UserId::new("vijay")),
                entry: LogEntry::Request(AppOp::GetStatus),
            }],
            next_seq: 65,
        };
        assert_eq!(decode::<ResponseBody>(&encode(&resp)).unwrap(), resp);
    }

    #[test]
    fn batch_response_nests() {
        let batch = ClientMessage::Response(ResponseBody::Batch(vec![
            ClientMessage::update(UpdateBody::AppClosed { app: sample_app() }),
            ClientMessage::Error(WireError::new(ErrorCode::Unavailable, "gone")),
        ]));
        assert_eq!(decode::<ClientMessage>(&encode(&batch)).unwrap(), batch);
    }
}
