//! The middleware substrate: the client side of the peer-to-peer
//! protocol (§5).
//!
//! Each DISCOVER server embeds one [`Substrate`]. It discovers peer
//! servers through the trader (service id `"DISCOVER"`), binds local
//! applications into the naming service, resolves the server core's
//! [`Effect`]s into ORB calls, correlates the replies, and feeds results
//! back into the core.
//!
//! **One lifecycle per remote call.** Every two-way call is handed to the
//! broker by `issue` and ends, exactly once, in `settle` — the peer
//! replied (a result or an exception), the breaker refused the call, a
//! relay could not even start (deadline passed, no route, host down), or
//! the retry sweep gave up (a relay whose deadline passed first has had
//! its client answered early, and ends as `CallCtx::Lapsed`). The
//! client-facing relayed verbs (operation, lock, history fetch) share
//! one continuation and one completion, [`ServerCore::complete_relay`];
//! what is specific to each is data beside the verb (`relay_call`,
//! `Verb`, `Failure::error`; DESIGN.md §5 "Relay-side verbs").
//!
//! Fault tolerance: expired calls are retried with backoff by the broker
//! (up to [`SubstrateConfig::max_attempts`] sends); call outcomes drive
//! a per-peer health state ([`PeerHealth`]) — a reply marks the peer
//! `Up`, a retried timeout `Suspect`, an exhausted call `Down`. When a peer goes down the
//! substrate re-queries the trader, re-resolves every mirrored app of
//! that host through naming (failover), fails requests for the host fast
//! with a redirect hint instead of letting them time out, and keeps
//! serving the cached peer directory rather than erroring.

use std::collections::{BTreeMap, BTreeSet};

use orb::directory::{calls, Call};
use orb::{AddressBook, Broker, Pending, DISCOVER_SERVICE};

use crate::cache::{DiscoveryCache, DiscoveryCacheConfig};
use crate::shard::{trader_partition, DirectoryRing};
use simnet::{names, CounterDef, Ctx, MetricsRegistry, NodeId, SimDuration, SimTime, TraceContext};
use wire::giop::GiopFrame;
use wire::{
    AppId, CacheStep, ClientId, ControlEvent, ControlEventKind, DeadlineStamp, Envelope, ErrorCode,
    Event, Lookup, ObjectKey, ObjectRef, PeerMsg, PeerReply, ServerAddr, ServiceOffer, Value,
    WireError,
};

use discover_server::core::orb_call_cost;
use discover_server::{Effect, Mutation, RelayVerb, Relayed, ServerCore, CORBA_SERVER_KEY};

/// How collaboration updates travel between servers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollabMode {
    /// Hosts push one `CollabUpdate` per subscribed server (default).
    Push,
    /// Mirrors poll hosts periodically ("CorbaProxy objects poll each
    /// other for updates and responses").
    Poll {
        /// Poll period.
        interval: SimDuration,
    },
}

/// Substrate configuration.
#[derive(Clone, Copy, Debug)]
pub struct SubstrateConfig {
    /// Collaboration transport mode.
    pub collab_mode: CollabMode,
    /// Period of trader-based peer discovery refresh.
    pub discovery_interval: SimDuration,
    /// Outstanding ORB calls older than this are failed.
    pub call_timeout: SimDuration,
    /// How often the timeout sweep runs.
    pub sweep_interval: SimDuration,
    /// Send attempts per peer call, the first included:
    /// [`orb::DEFAULT_MAX_ATTEMPTS`] by default; 1 gives the original
    /// fail-on-first-timeout behaviour.
    pub max_attempts: u32,
    /// Discovery route cache. `None` (the default) disables caching and
    /// keeps the pre-sharding dispatch schedule byte-identical;
    /// `Some(_)` serves remote routes from a TTL'd per-node cache with
    /// negative entries and explicit invalidation.
    pub discovery_cache: Option<DiscoveryCacheConfig>,
}

impl Default for SubstrateConfig {
    fn default() -> Self {
        SubstrateConfig {
            collab_mode: CollabMode::Push,
            discovery_interval: SimDuration::from_secs(30),
            call_timeout: SimDuration::from_secs(10),
            sweep_interval: SimDuration::from_secs(5),
            max_attempts: orb::DEFAULT_MAX_ATTEMPTS,
            discovery_cache: None,
        }
    }
}

impl SubstrateConfig {
    /// The deployed substrate: the default (the paper's) plus E20's
    /// discovery cache, a 15 s positive TTL beside the default negative
    /// one (`experiments/scale.rs`). The server's half is
    /// [`ServerConfig::production`](discover_server::ServerConfig::production).
    pub fn production() -> Self {
        let cache = DiscoveryCacheConfig { ttl: SimDuration::from_secs(15), ..Default::default() };
        SubstrateConfig { discovery_cache: Some(cache), ..SubstrateConfig::default() }
    }
}

/// The directory shards a deployment runs: E20's four, the ring its
/// eight-server scale runs use (`experiments/scale.rs`). The substrate's
/// own settings are [`SubstrateConfig::production`].
pub const PRODUCTION_DIRECTORY_SHARDS: usize = 4;

/// Key of every server's level-1 `DiscoverCorbaServer` servant.
const fn server_key() -> ObjectKey {
    ObjectKey::from_static(CORBA_SERVER_KEY)
}

/// The relayed verbs, in the style of [`orb::directory::calls`]: what
/// stays behind as the call's continuation, and the call itself. An
/// operation targets the application's own `CorbaProxy` servant (level
/// 2), lock and history verbs the host's `DiscoverCorbaServer` (level 1).
/// `via` is the relaying server, which a lock request names so the host
/// can evict the lock if the relay dies; `servant` gives an operation
/// the application's servant key.
fn relay_call(
    app: AppId,
    verb: RelayVerb,
    via: ServerAddr,
    servant: impl FnOnce() -> ObjectKey,
) -> (Relayed, Call) {
    match verb {
        RelayVerb::Op { user, op } => {
            (Relayed::Op, (servant(), "proxyOp", PeerMsg::ProxyOp { app, user, op }))
        }
        RelayVerb::Lock { user, acquire: true } => {
            let request = PeerMsg::LockRequest { app, user, via };
            (Relayed::Lock { acquire: true }, (server_key(), "lockRequest", request))
        }
        RelayVerb::Lock { user, acquire: false } => {
            let release = PeerMsg::LockRelease { app, user };
            (Relayed::Lock { acquire: false }, (server_key(), "lockRelease", release))
        }
        RelayVerb::History { since } => {
            let fetch = PeerMsg::FetchHistory { app, since };
            (Relayed::History { since }, (server_key(), "fetchHistory", fetch))
        }
    }
}

/// The continuation a call leaves the broker with: a relay whose client
/// was answered at its deadline owes that client nothing more.
fn continuation(pending: &Pending<CallCtx>) -> CallCtx {
    match pending.user {
        CallCtx::Relay { client, app, verb } if pending.lapsed => {
            CallCtx::Lapsed(client, app, verb)
        }
        user => user,
    }
}

/// What is specific to one relayed verb, as data: every relay runs the
/// same issue → settle lifecycle and reads its differences from its row
/// (DESIGN.md §5 "Relay-side verbs" says why each difference is kept).
struct Verb {
    /// Counted once per call handed to the broker.
    issued: Option<CounterDef>,
    /// Runs under the request's deadline: refuses to start past it,
    /// carries the stamp on the wire, and is answered `DeadlineExceeded`
    /// by the first timeout sweep after it passes.
    deadlined: bool,
    /// Dispatched like a local operation: charges the stub's
    /// `orb_call_cost` and wraps marshalling and issue in a
    /// `substrate.dispatch` span.
    dispatched: bool,
    /// The refusals that count `substrate.fastfails`.
    fastfails: &'static [Failure],
}

impl Verb {
    fn of(verb: Relayed) -> Verb {
        use Failure::{HostDown, Refused};
        let (issued, deadlined, dispatched, fastfails): (_, _, _, &[Failure]) = match verb {
            Relayed::Op => (Some(names::SUBSTRATE_REMOTE_OPS), true, true, &[HostDown, Refused]),
            Relayed::Lock { .. } => (Some(names::SUBSTRATE_REMOTE_LOCKS), true, false, &[Refused]),
            Relayed::History { .. } => (None, false, false, &[]),
        };
        Verb { issued, deadlined, dispatched, fastfails }
    }
}

/// Why a call ended without a reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Failure {
    /// The request's deadline passed before the call could be issued.
    DeadlinePassed,
    /// No server is known for the application's host.
    NoRoute,
    /// The host is marked [`PeerHealth::Down`]: failed fast, not sent.
    HostDown,
    /// The callee's breaker is open: refused by the broker, not sent.
    Refused,
    /// Sent and retried until the attempts ran out.
    GaveUp,
    /// Sent, and abandoned because the request's deadline leaves no
    /// budget for another attempt — the host may be healthy, the request
    /// simply ran out of time.
    DeadlineSpent,
    /// Sent, and still unanswered when the request's deadline passed,
    /// before it timed out (the call stays out and judges the host).
    DeadlineLapsed,
}

impl Failure {
    /// What a failed relay tells its client (an operation shows the
    /// text; a lock verb is answered "denied", a history fetch an empty
    /// page). `peer` is the server the call was routed to, if it got that
    /// far; its error carries the naming path clients can re-resolve.
    fn error(self, peer: Option<ServerAddr>, app: AppId) -> WireError {
        use ErrorCode::{DeadlineExceeded, Unavailable};
        match (self, peer) {
            (Failure::DeadlinePassed, _) => {
                WireError::new(DeadlineExceeded, "deadline passed before remote dispatch")
            }
            (Failure::DeadlineSpent, _) => {
                WireError::new(DeadlineExceeded, "deadline exhausted while retrying remote call")
            }
            (Failure::DeadlineLapsed, _) => {
                WireError::new(DeadlineExceeded, "deadline passed awaiting remote reply")
            }
            (Failure::NoRoute, _) => WireError::new(Unavailable, "host server unknown"),
            (_, Some(addr)) => WireError::new(
                Unavailable,
                format!("host {addr} down; redirect: {}", app.naming_path()),
            ),
            (_, None) => WireError::new(Unavailable, "remote call timed out"),
        }
    }
}

/// Continuation context of an outstanding ORB call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CallCtx {
    /// Level-1 auth fan-out for a local client.
    Auth { client: ClientId },
    /// A client-facing verb relayed to `app`'s host for `client`; `verb`
    /// carries what answering a failure needs.
    Relay { client: ClientId, app: AppId, verb: Relayed },
    /// A `Relay` whose client was answered when its deadline passed.
    Lapsed(ClientId, AppId, Relayed),
    /// Collaboration subscription handshake.
    Subscribe { app: AppId },
    /// Trader discovery query.
    Discovery,
    /// Directory mutation (export/bind); reply only acknowledged.
    DirectoryWrite,
    /// Poll-mode update fetch.
    Poll { app: AppId },
    /// Naming re-resolution of a mirrored app after its host went down.
    Failover { app: AppId },
}

/// Substrate-level view of one peer server's health.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeerHealth {
    /// Replying normally.
    Up,
    /// At least one call to it is being retried.
    Suspect,
    /// A call exhausted its retries (or the breaker opened); requests
    /// fail fast until the peer reappears.
    Down,
}

/// The per-server middleware substrate.
pub struct Substrate {
    /// Configuration.
    pub config: SubstrateConfig,
    addr: ServerAddr,
    name: String,
    directory: DirectoryRing,
    book: AddressBook,
    broker: Broker<CallCtx>,
    /// The TTL'd route cache (inert unless `config.discovery_cache` is
    /// set; lookups then go through [`Substrate::cached_route`]).
    cache: DiscoveryCache,
    /// Directory reads (trader query / naming resolve) in flight, by
    /// continuation (one per directory key; a handful at most). A second
    /// read of a key in flight coalesces onto it instead of issuing its
    /// own call — the thundering-herd fix. Writes are never deduped.
    dir_in_flight: Vec<CallCtx>,
    /// Discovered peers (address → node), excluding self.
    peers: BTreeMap<ServerAddr, NodeId>,
    /// Poll-mode mirror state: app → next update sequence.
    poll_state: BTreeMap<AppId, u64>,
    /// Push-mode subscriptions: app → confirmed by `SubscribeOk`.
    /// Unconfirmed entries are re-subscribed at each discovery refresh.
    subscribed: BTreeMap<AppId, bool>,
    /// Peer health derived from call outcomes and discovery refreshes.
    health: BTreeMap<ServerAddr, PeerHealth>,
    /// Failover routes: mirrored app → host currently serving it, when
    /// naming re-resolution moved it off `app.host()`.
    routes: BTreeMap<AppId, ServerAddr>,
    /// Lock acquires answered "denied" at their deadline: a late grant is
    /// released again, unless the client relayed another lock verb since.
    hand_back: BTreeSet<(ClientId, AppId)>,
    /// The servant key of each app an operation was relayed to, built at
    /// the first: a clone is a refcount bump, formatting one a `String`
    /// and its copy into the key.
    servant_keys: BTreeMap<AppId, ObjectKey>,
}

impl Substrate {
    /// Create a substrate for the server at `addr`. The directory ring
    /// must be the same (same seed, same shard order) on every server —
    /// the builder constructs it once and clones it here.
    pub fn new(
        config: SubstrateConfig,
        addr: ServerAddr,
        name: impl Into<String>,
        directory: DirectoryRing,
        book: AddressBook,
    ) -> Self {
        let broker = Broker::with_max_attempts(config.max_attempts);
        Substrate {
            config,
            addr,
            name: name.into(),
            directory,
            book,
            broker,
            cache: DiscoveryCache::default(),
            dir_in_flight: Vec::new(),
            peers: BTreeMap::new(),
            poll_state: BTreeMap::new(),
            subscribed: BTreeMap::new(),
            health: BTreeMap::new(),
            routes: BTreeMap::new(),
            hand_back: BTreeSet::new(),
            servant_keys: BTreeMap::new(),
        }
    }

    /// Whether the outgoing directory *read* `read` continues should be
    /// issued, or coalesced onto an identical in-flight one. Counting the
    /// coalesce is the regression observable for the thundering-herd
    /// fix: one trader/naming call per key per miss window.
    fn admit_dir_query(&mut self, ctx: &mut Ctx<'_, Envelope>, read: CallCtx) -> bool {
        if self.dir_in_flight.contains(&read) {
            ctx.metrics().incr(names::SUBSTRATE_QUERIES_COALESCED);
            return false;
        }
        self.dir_in_flight.push(read);
        true
    }

    /// Known peer addresses (diagnostics).
    pub fn peer_addrs(&self) -> Vec<ServerAddr> {
        self.peers.keys().copied().collect()
    }

    /// Outstanding ORB calls (diagnostics).
    pub fn in_flight(&self) -> usize {
        self.broker.in_flight()
    }

    /// Health of a peer (`Up` until proven otherwise).
    pub fn peer_health(&self, addr: ServerAddr) -> PeerHealth {
        self.health.get(&addr).copied().unwrap_or(PeerHealth::Up)
    }

    /// What the status report shows of the substrate: every known peer's
    /// health verdict and circuit-breaker state (sorted by address,
    /// deterministic), and the directory plane — ring shape plus the cache
    /// counters read from `metrics`, this node's registry. The node shell
    /// syncs this into the server core right before a `Status` request is
    /// dispatched (pure memory copy).
    pub fn status_snapshot(
        &self,
        metrics: &MetricsRegistry,
    ) -> (Vec<wire::PeerStatusEntry>, wire::DirPlaneStatus) {
        let peer_line = |(&peer, &node): (&ServerAddr, &NodeId)| {
            let health = match self.peer_health(peer) {
                PeerHealth::Up => "up",
                PeerHealth::Suspect => "suspect",
                PeerHealth::Down => "down",
            };
            let breaker = self.broker.breaker_state(node).to_string();
            wire::PeerStatusEntry { peer, health: health.to_string(), breaker }
        };
        let count = |c| metrics.counter(c);
        let dir_plane = wire::DirPlaneStatus {
            shards: self.directory.len() as u32,
            ring_epoch: self.directory.epoch(),
            cache_hits: count(names::SUBSTRATE_CACHE_HITS) + count(names::SUBSTRATE_CACHE_NEG_HITS),
            cache_misses: count(names::SUBSTRATE_CACHE_MISSES)
                + count(names::SUBSTRATE_CACHE_EXPIRED),
            cache_invalidations: count(names::SUBSTRATE_CACHE_INVALIDATIONS),
        };
        (self.peers.iter().map(peer_line).collect(), dir_plane)
    }

    /// The host currently serving `app` (failover route if one exists,
    /// else the app's home server).
    pub fn route_of(&self, app: AppId) -> ServerAddr {
        self.routes.get(&app).copied().unwrap_or_else(|| app.host())
    }

    /// Force a failover route (testing hook: plants a stale directory-
    /// cache entry so the Nak-invalidation path can be exercised without
    /// staging a full crash/recovery cycle).
    pub fn install_route(&mut self, app: AppId, addr: ServerAddr) {
        self.routes.insert(app, addr);
    }

    /// Force a cache entry (testing hook, same role as
    /// [`Substrate::install_route`] for the cached plane): plants a
    /// positive route entry under the configured TTL so stale-cache
    /// scenarios need no staged crash/recovery cycle. No-op with the
    /// cache disabled.
    pub fn prime_cache(&mut self, now: SimTime, app: AppId, addr: ServerAddr) {
        if let Some(cfg) = self.config.discovery_cache {
            self.cache.install(now, &app.naming_path(), Some(addr), cfg.ttl);
        }
    }

    /// Reverse lookup: peer address of a node (None for the directory).
    fn addr_of_node(&self, node: NodeId) -> Option<ServerAddr> {
        self.peers.iter().find(|(_, &n)| n == node).map(|(&a, _)| a)
    }

    /// Resolve a server address to its node, via discovery or wiring.
    fn node_of(&self, addr: ServerAddr) -> Option<NodeId> {
        self.peers.get(&addr).copied().or_else(|| self.book.resolve(addr))
    }

    /// Look `app`'s route up in the discovery cache under its naming
    /// path `name`, counting and recording the outcome.
    fn cache_lookup(&mut self, ctx: &mut Ctx<'_, Envelope>, app: AppId, name: &str) -> Lookup {
        let outcome = self.cache.lookup(ctx.now(), name);
        ctx.metrics().incr(match outcome {
            Lookup::Hit(Some(_), _) => names::SUBSTRATE_CACHE_HITS,
            Lookup::Hit(None, _) => names::SUBSTRATE_CACHE_NEG_HITS,
            Lookup::Miss => names::SUBSTRATE_CACHE_MISSES,
            Lookup::Expired => names::SUBSTRATE_CACHE_EXPIRED,
        });
        ctx.record(|| Event::Cache(app, CacheStep::Lookup(outcome)));
        outcome
    }

    /// Install `app`'s route entry under its naming path `name` for
    /// `ttl` (`None`: a negative entry) and record it.
    fn cache_insert(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        app: AppId,
        name: &str,
        route: Option<ServerAddr>,
        ttl: SimDuration,
    ) {
        let now = ctx.now();
        self.cache.install(now, name, route, ttl);
        ctx.record(|| Event::Cache(app, CacheStep::Insert(route, now + ttl)));
    }

    /// Effective target of `app` — routed address plus its node —
    /// through the discovery cache. With the cache disabled this is
    /// [`Substrate::route_of`]; enabled, a fresh entry serves the route
    /// without consulting the failover table, and a miss/expiry re-primes
    /// the entry from current route knowledge under the configured TTL.
    fn cached_route(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        app: AppId,
    ) -> Option<(ServerAddr, NodeId)> {
        let mut addr = self.route_of(app);
        if let Some(cfg) = self.config.discovery_cache {
            let name = app.naming_path();
            match self.cache_lookup(ctx, app, &name) {
                Lookup::Hit(Some(cached), _) => addr = cached,
                // "Not bound" within the negative TTL: dispatch falls back
                // to the home host (which will Nak authoritatively) rather
                // than storming the directory.
                Lookup::Hit(None, _) => {}
                Lookup::Miss | Lookup::Expired => {
                    self.cache_insert(ctx, app, &name, Some(addr), cfg.ttl)
                }
            }
        }
        self.node_of(addr).map(|n| (addr, n))
    }

    /// Hand one two-way call to the broker. `span` is the call's open
    /// span (`orb.call` under a request, or a root span for background
    /// work), `deadline` the stamp it rides under. A call the broker
    /// refuses (the callee's breaker is open) is settled on the spot.
    #[allow(clippy::too_many_arguments)]
    fn issue(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        core: &mut ServerCore,
        to: NodeId,
        call: Call,
        user: CallCtx,
        span: Option<TraceContext>,
        deadline: Option<DeadlineStamp>,
    ) {
        if let Err(user) = self.broker.call(ctx, to, call, user, span, deadline) {
            let peer = self.addr_of_node(to);
            self.settle(ctx, core, user, peer, span, Err(Failure::Refused));
        }
    }

    /// Issue `call` to a directory shard. With no shard to ask (an empty
    /// ring), the call is refused like one the broker cannot send.
    fn issue_to_shard(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        core: &mut ServerCore,
        shard: Option<NodeId>,
        call: Call,
        user: CallCtx,
        span: Option<TraceContext>,
    ) {
        match shard {
            Some(shard) => self.issue(ctx, core, shard, call, user, span, None),
            None => self.settle(ctx, core, user, None, span, Err(Failure::Refused)),
        }
    }

    /// The one exit of a call: the peer's reply (a result or an
    /// exception), or the [`Failure`] that ended it. Closes the call's
    /// span, clears its directory-read marker, marks the peer — up on any
    /// reply, down once retries are exhausted — completes or fails the
    /// continuation, and resolves what the core's completion queued (the
    /// collaboration echo of a remote outcome, re-fanned poll updates).
    /// `peer` is the server called, unless it was a directory shard.
    fn settle(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        core: &mut ServerCore,
        user: CallCtx,
        peer: Option<ServerAddr>,
        span: Option<TraceContext>,
        ending: Result<PeerReply, Failure>,
    ) {
        // The logical call is over; completions run under the request's
        // own span.
        ctx.trace_finish(span);
        // However it ended, a directory read is no longer in flight;
        // later misses for its key may issue a fresh query.
        self.dir_in_flight.retain(|read| *read != user);
        if let Ok(reply) = &ending {
            if let Some(addr) = peer {
                self.health.insert(addr, PeerHealth::Up);
            }
            let nak = match reply {
                PeerReply::Exception(e) => Some(e.code),
                // Proxied ops carry their Nak inside the result envelope.
                PeerReply::OpResult { result: Err(e), .. } => Some(e.code),
                _ => None,
            };
            if let (
                Some(ErrorCode::NoSuchApp),
                CallCtx::Relay { app, .. }
                | CallCtx::Lapsed(_, app, _)
                | CallCtx::Subscribe { app }
                | CallCtx::Poll { app },
            ) = (nak, user)
            {
                self.drop_route(ctx, core, app);
            }
        }
        let gave_up = matches!(ending, Err(Failure::GaveUp | Failure::DeadlineSpent));
        match (user, ending) {
            (CallCtx::Relay { client, app, verb }, ending) => {
                let result = ending.map_err(|failure| {
                    if Verb::of(verb).fastfails.contains(&failure) {
                        ctx.metrics().incr(names::SUBSTRATE_FASTFAILS);
                        if failure == Failure::HostDown {
                            let note = "fastfail: host down, redirect hint";
                            ctx.trace_annotate(core.incoming_trace, note);
                        }
                    }
                    failure.error(peer, app)
                });
                core.complete_relay(ctx, client, app, verb, result);
            }
            // Its client was told "denied": release the late grant rather
            // than strand everyone else until its lease ends.
            (
                CallCtx::Lapsed(client, app, Relayed::Lock { acquire: true }),
                Ok(PeerReply::LockDecision { granted: true, holder: Some(user), .. }),
            ) if self.hand_back.remove(&(client, app)) => {
                if let Some(node) = peer.and_then(|addr| self.node_of(addr)) {
                    let release = PeerMsg::LockRelease { app, user };
                    Broker::<CallCtx>::oneway(ctx, node, server_key(), "lockRelease", release);
                }
            }
            (CallCtx::Auth { client }, Ok(PeerReply::AuthOk { apps })) => {
                core.complete_remote_auth(ctx, client, apps);
            }
            (CallCtx::Auth { .. }, Ok(PeerReply::AuthDenied)) => {
                ctx.metrics().incr(names::SUBSTRATE_REMOTE_AUTH_DENIED);
            }
            (CallCtx::Subscribe { app }, Ok(PeerReply::SubscribeOk { .. })) => {
                self.subscribed.insert(app, true);
            }
            (CallCtx::Subscribe { app }, Err(_)) => {
                // Leave the intent recorded; the next discovery refresh
                // re-issues the subscription.
                self.subscribed.insert(app, false);
            }
            (CallCtx::Discovery, Ok(PeerReply::TraderOffers { offers })) => {
                self.adopt_offers(ctx, core, offers);
            }
            // Trader unreachable: keep serving the cached peer set; the
            // discovery timer re-queries.
            (CallCtx::Discovery, Err(_)) if gave_up => {
                ctx.metrics().incr(names::SUBSTRATE_DIRECTORY_STALE);
            }
            (CallCtx::Failover { app }, Ok(PeerReply::NamingResolved { object })) => {
                if let Some(cfg) = self.config.discovery_cache {
                    // The authoritative answer refreshes the cache:
                    // positive with the resolved host, negative when the
                    // directory has no binding.
                    let route = object.as_ref().map(|o| o.server);
                    let ttl = if route.is_some() { cfg.ttl } else { cfg.negative_ttl };
                    self.cache_insert(ctx, app, &app.naming_path(), route, ttl);
                }
                if let Some(object) = object {
                    self.adopt_route(ctx, app, object.server);
                }
            }
            (CallCtx::Poll { app }, Ok(PeerReply::Updates { updates, next_seq, .. })) => {
                let origin = app.host();
                for update in updates {
                    core.apply_peer_update(ctx, update, origin);
                }
                self.poll_state.insert(app, next_seq);
            }
            // Nobody waits on these. A directory write is only
            // acknowledged; a failed auth leg, poll or failover resolve
            // is re-issued by the next login, poll tick or `mark_down`
            // (poll state untouched, in-flight marker cleared above).
            (CallCtx::DirectoryWrite | CallCtx::Lapsed(..), _) | (_, Err(_)) => {}
            (_, Ok(PeerReply::Exception(_))) => {
                ctx.metrics().incr(names::SUBSTRATE_REPLIES_EXCEPTIONS);
            }
            (_, Ok(_)) => ctx.metrics().incr(names::SUBSTRATE_REPLIES_MISMATCHED),
        }
        if let (true, Some(addr)) = (gave_up, peer) {
            self.mark_down(ctx, core, addr);
        }
        let queued = core.drain_effects();
        self.perform_all(ctx, core, queued);
    }

    /// Stale directory-cache repair: a peer answering `NoSuchApp` for an
    /// app we routed to it is a definitive Nak — the failover route is
    /// wrong NOW, not when its next discovery refresh happens to notice.
    /// Drop it immediately so the very next call falls back to the app's
    /// home host.
    fn drop_route(&mut self, ctx: &mut Ctx<'_, Envelope>, core: &mut ServerCore, app: AppId) {
        if self.routes.remove(&app).is_some() {
            ctx.metrics().incr(names::SUBSTRATE_ROUTES_INVALIDATED);
        }
        if self.config.discovery_cache.is_some() {
            // The Nak invalidates the cached route too;
            // `Mutation::StaleCache` skips only the eviction, leaving the
            // poisoned entry for the discovery oracle to catch being
            // re-served.
            ctx.metrics().incr(names::SUBSTRATE_CACHE_INVALIDATIONS);
            let evicted = core.config.mutation != Some(Mutation::StaleCache);
            if evicted {
                self.cache.invalidate(&app.naming_path());
            }
            ctx.record(|| Event::Cache(app, CacheStep::Invalidate(evicted)));
        }
    }

    /// Publish this server to the trader and the naming service. Offers
    /// route to the shard owning the service-type partition; the server
    /// binding routes to the shard owning its naming path. After a process
    /// restart the daemon also re-binds every local application under its
    /// `DISCOVER/apps/<id>` name (a first start has none yet).
    pub fn publish_self(&mut self, ctx: &mut Ctx<'_, Envelope>, core: &mut ServerCore) {
        ctx.metrics().set_gauge(names::SUBSTRATE_RING_SHARDS, self.directory.len() as f64);
        ctx.metrics().set_gauge(names::SUBSTRATE_RING_EPOCH, self.directory.epoch() as f64);
        let object = ObjectRef { server: self.addr, key: server_key() };
        let offer = ServiceOffer {
            service_type: DISCOVER_SERVICE.to_string(),
            object: object.clone(),
            properties: vec![
                ("addr".to_string(), Value::Int(self.addr.0 as i64)),
                ("name".to_string(), Value::Text(self.name.clone())),
            ],
        };
        let trader = self.directory.node_for(&trader_partition(DISCOVER_SERVICE));
        self.issue_to_shard(ctx, core, trader, calls::export(offer), CallCtx::DirectoryWrite, None);
        let naming_key = format!("DISCOVER/servers/{}", self.name);
        let shard = self.directory.node_for(&naming_key);
        let bind = calls::bind(naming_key, object);
        self.issue_to_shard(ctx, core, shard, bind, CallCtx::DirectoryWrite, None);
        for app in core.local_app_ids() {
            ctx.metrics().incr(names::SUBSTRATE_REBINDS);
            self.naming_for_app(ctx, core, app, true);
        }
    }

    /// Query the trader for the current peer set. A query while another
    /// trader query is still outstanding coalesces onto it — after a
    /// failover storm every `mark_down` used to issue its own query.
    pub fn discover_peers(&mut self, ctx: &mut Ctx<'_, Envelope>, core: &mut ServerCore) {
        if !self.admit_dir_query(ctx, CallCtx::Discovery) {
            return;
        }
        ctx.metrics().incr(names::SUBSTRATE_DISCOVERY_QUERIES);
        // Background work: a trader query opens its own root span rather
        // than riding any client request.
        let span = ctx.trace_root("substrate.trader_query");
        let trader = self.directory.node_for(&trader_partition(DISCOVER_SERVICE));
        let query = calls::query(DISCOVER_SERVICE, vec![]);
        self.issue_to_shard(ctx, core, trader, query, CallCtx::Discovery, span);
    }

    /// The trader's answer to a discovery query: adopt new peers, send
    /// failed-over apps home, retry unconfirmed subscriptions.
    fn adopt_offers(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        core: &mut ServerCore,
        offers: Vec<ServiceOffer>,
    ) {
        for offer in offers {
            let addr = offer.object.server;
            if addr == self.addr {
                continue;
            }
            if let Some(node) = self.book.resolve(addr) {
                if self.peers.insert(addr, node).is_none() {
                    ctx.metrics().incr(names::SUBSTRATE_DISCOVERY_PEERS_FOUND);
                }
                // An offer in the trader means the peer is serving
                // (a restarted host re-exports itself on the way up).
                self.health.insert(addr, PeerHealth::Up);
            }
        }
        // Failed-over apps return to their home host once it is
        // healthy again.
        let health = &self.health;
        let home = |app: &AppId| health.get(&app.host()) == Some(&PeerHealth::Up);
        self.routes.retain(|app, _| !home(app));
        // Re-issue push subscriptions that never got confirmed
        // (lost subscribe, or host was down when we tried).
        let unconfirmed: Vec<AppId> =
            self.subscribed.iter().filter(|(_, &ok)| !ok).map(|(&app, _)| app).collect();
        for app in unconfirmed {
            self.subscribe_app(ctx, core, app);
        }
    }

    /// Process-restart housekeeping: outstanding calls and breaker state
    /// died with the old incarnation, and push subscriptions must be
    /// re-confirmed with their hosts. The discovery cache is dropped too
    /// — the new incarnation must not trust the dead one's routes.
    pub fn on_restart(&mut self) {
        self.broker = Broker::with_max_attempts(self.config.max_attempts);
        self.cache.clear();
        self.dir_in_flight.clear();
        self.hand_back.clear();
        for confirmed in self.subscribed.values_mut() {
            *confirmed = false;
        }
    }

    /// A peer exhausted its retries: mark it down, re-query the trader,
    /// and re-resolve every mirrored app of that host through naming so
    /// traffic can fail over to wherever the app is now registered.
    fn mark_down(&mut self, ctx: &mut Ctx<'_, Envelope>, core: &mut ServerCore, addr: ServerAddr) {
        if self.health.insert(addr, PeerHealth::Down) == Some(PeerHealth::Down) {
            return;
        }
        // A down peer can no longer release locks it relayed: evict them
        // so local collaborators are not stranded until lease expiry.
        let lock_effects = core.evict_peer_locks(ctx, addr);
        self.perform_all(ctx, core, lock_effects);
        self.discover_peers(ctx, core);
        let mirrored: Vec<AppId> = self
            .poll_state
            .keys()
            .chain(self.subscribed.keys())
            .copied()
            .filter(|&app| self.route_of(app) == addr)
            .collect();
        for app in mirrored {
            self.resolve_route(ctx, core, app);
        }
    }

    /// Re-resolve an app's route through naming (failover path). The
    /// resolve consults the discovery cache first — a fresh answer
    /// (positive or negative) short-circuits the directory call — and
    /// concurrent resolves for the same key coalesce onto one call.
    fn resolve_route(&mut self, ctx: &mut Ctx<'_, Envelope>, core: &mut ServerCore, app: AppId) {
        let name = app.naming_path();
        if self.config.discovery_cache.is_some() {
            match self.cache_lookup(ctx, app, &name) {
                Lookup::Hit(Some(server), _) => return self.adopt_route(ctx, app, server),
                // The directory said "not bound" within the negative
                // TTL; don't storm it with re-resolves.
                Lookup::Hit(None, _) => return,
                Lookup::Miss | Lookup::Expired => {}
            }
        }
        if !self.admit_dir_query(ctx, CallCtx::Failover { app }) {
            return;
        }
        // Failover re-resolution is background recovery work with its
        // own root span; the redirect it installs serves later calls.
        let span = ctx.trace_root("substrate.failover");
        ctx.trace_annotate(span, "re-resolving mirrored app: host down");
        let shard = self.directory.node_for(&name);
        self.issue_to_shard(
            ctx,
            core,
            shard,
            calls::resolve(name),
            CallCtx::Failover { app },
            span,
        );
    }

    /// Install or clear `app`'s failover route from a resolved server
    /// (`server == app.host()` clears the route: the app is home again).
    fn adopt_route(&mut self, ctx: &mut Ctx<'_, Envelope>, app: AppId, server: ServerAddr) {
        if server != self.route_of(app) {
            ctx.metrics().incr(names::SUBSTRATE_FAILOVERS);
        }
        if server == app.host() {
            self.routes.remove(&app);
        } else {
            self.routes.insert(app, server);
        }
    }

    /// Issue (or re-issue) a push-mode collaboration subscription.
    fn subscribe_app(&mut self, ctx: &mut Ctx<'_, Envelope>, core: &mut ServerCore, app: AppId) {
        // Subscriptions follow the failover table, not the cache.
        let addr = self.route_of(app);
        let Some(node) = self.node_of(addr) else { return };
        if self.peer_health(addr) == PeerHealth::Down {
            return;
        }
        ctx.metrics().incr(names::SUBSTRATE_SUBSCRIBES);
        self.subscribed.entry(app).or_insert(false);
        let span = ctx.trace_child(core.incoming_trace, "orb.call");
        let subscribe = PeerMsg::SubscribeApp { app, subscriber: self.addr };
        let call = (server_key(), "subscribeApp", subscribe);
        self.issue(ctx, core, node, call, CallCtx::Subscribe { app }, span, None);
    }

    /// Bind/unbind an application in the naming service (the CorbaProxy
    /// "binds itself to the CORBA naming service using the application's
    /// unique identifier as the name").
    fn naming_for_app(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        core: &mut ServerCore,
        app: AppId,
        register: bool,
    ) {
        let name = app.naming_path();
        let shard = self.directory.node_for(&name);
        let call = if register {
            calls::bind(name, ObjectRef { server: self.addr, key: app.servant_key() })
        } else {
            calls::unbind(name)
        };
        self.issue_to_shard(ctx, core, shard, call, CallCtx::DirectoryWrite, None);
    }

    /// Relay one client-facing verb to `app`'s host: deadline → route →
    /// health → spans and charges per the verb's [`Verb`] row → issue. A
    /// relay that cannot start is settled on the spot with the reason.
    fn relay(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        core: &mut ServerCore,
        client: ClientId,
        app: AppId,
        verb: RelayVerb,
    ) {
        let keys = &mut self.servant_keys;
        let (verb, call) = relay_call(app, verb, self.addr, || {
            keys.entry(app).or_insert_with(|| app.servant_key()).clone()
        });
        let row = Verb::of(verb);
        let user = CallCtx::Relay { client, app, verb };
        let parent = core.incoming_trace;
        let deadline = core.incoming_deadline.filter(|_| row.deadlined);
        let routed = if deadline.is_some_and(|stamp| stamp.expired(ctx.now())) {
            // An op whose budget ran out in the servlet never goes on
            // the wire.
            ctx.metrics().incr(names::SUBSTRATE_DEADLINE_FASTFAIL);
            ctx.trace_annotate(parent, "fastfail: deadline passed before orb call");
            Err((None, Failure::DeadlinePassed))
        } else {
            match self.cached_route(ctx, app) {
                None => Err((None, Failure::NoRoute)),
                Some((addr, _)) if self.peer_health(addr) == PeerHealth::Down => {
                    Err((Some(addr), Failure::HostDown))
                }
                Some((_, node)) => Ok(node),
            }
        };
        let node = match routed {
            Ok(node) => node,
            Err((peer, failure)) => return self.settle(ctx, core, user, peer, None, Err(failure)),
        };
        let dispatch =
            if row.dispatched { ctx.trace_child(parent, "substrate.dispatch") } else { None };
        if let Some(issued) = row.issued {
            ctx.metrics().incr(issued);
        }
        if row.dispatched {
            ctx.consume(orb_call_cost(&call.2));
        }
        if let Relayed::Lock { .. } = verb {
            self.hand_back.remove(&(client, app)); // this verb's answer stands
        }
        let span = ctx.trace_child(dispatch.or(parent), "orb.call");
        self.issue(ctx, core, node, call, user, span, deadline);
        ctx.trace_finish(dispatch);
    }

    /// Resolve the core's [`Effect`]s into ORB traffic, in order, and hand
    /// the emptied queue back to the core.
    pub fn perform_all(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        core: &mut ServerCore,
        mut effects: Vec<Effect>,
    ) {
        for effect in effects.drain(..) {
            match effect {
                Effect::RemoteAuth { client, user, password } => {
                    let dispatch = ctx.trace_child(core.incoming_trace, "substrate.dispatch");
                    let targets: Vec<NodeId> = self
                        .peers
                        .iter()
                        .filter(|(&a, _)| self.peer_health(a) != PeerHealth::Down)
                        .map(|(_, &n)| n)
                        .collect();
                    for node in targets {
                        ctx.metrics().incr(names::SUBSTRATE_REMOTE_AUTH_CALLS);
                        let (user, password) = (user.clone(), password.clone());
                        let msg = PeerMsg::Authenticate { user, password };
                        ctx.consume(orb_call_cost(&msg));
                        let span = ctx.trace_child(dispatch, "orb.call");
                        let call = (server_key(), "authenticate", msg);
                        self.issue(ctx, core, node, call, CallCtx::Auth { client }, span, None);
                    }
                    ctx.trace_finish(dispatch);
                }
                Effect::Relay { client, app, verb } => self.relay(ctx, core, client, app, verb),
                // Poll mode mirrors an app by polling its host from the
                // next tick on; push mode by subscribing to it.
                Effect::Subscribe { app } if self.poll_interval().is_some() => {
                    self.poll_state.entry(app).or_insert(0);
                }
                Effect::Subscribe { app } => self.subscribe_app(ctx, core, app),
                Effect::Unsubscribe { app } if self.poll_interval().is_some() => {
                    self.poll_state.remove(&app);
                }
                Effect::Unsubscribe { app } => {
                    self.subscribed.remove(&app);
                    if let Some(node) = self.node_of(app.host()) {
                        let msg = PeerMsg::UnsubscribeApp { app, subscriber: self.addr };
                        Broker::<CallCtx>::oneway(ctx, node, server_key(), "unsubscribeApp", msg);
                    }
                }
                Effect::PushToPeers { update, peers, skip } => {
                    for &peer in peers.iter().filter(|&&peer| Some(peer) != skip) {
                        if let Some(node) = self.node_of(peer) {
                            ctx.metrics().incr(names::SUBSTRATE_COLLAB_PUSHES);
                            let msg =
                                PeerMsg::CollabUpdate { update: update.clone(), origin: self.addr };
                            ctx.consume(orb_call_cost(&msg));
                            Broker::<CallCtx>::oneway(ctx, node, server_key(), "collabUpdate", msg);
                        }
                    }
                }
                Effect::ForwardToHost { update } => {
                    if let Some(node) = self.node_of(update.app().host()) {
                        ctx.metrics().incr(names::SUBSTRATE_COLLAB_FORWARDS);
                        let msg = PeerMsg::CollabUpdate { update, origin: self.addr };
                        Broker::<CallCtx>::oneway(ctx, node, server_key(), "collabUpdate", msg);
                    }
                }
                Effect::Announce { kind, detail, app } => {
                    match (kind, app) {
                        (ControlEventKind::AppRegistered, Some(app)) => {
                            self.naming_for_app(ctx, core, app, true)
                        }
                        (ControlEventKind::AppClosed, Some(app)) => {
                            self.naming_for_app(ctx, core, app, false)
                        }
                        _ => {}
                    }
                    let event = ControlEvent { origin: self.addr, kind, detail };
                    for &node in self.peers.values() {
                        ctx.metrics().incr(names::SUBSTRATE_CONTROL_EVENTS);
                        let msg = PeerMsg::Control(event.clone());
                        Broker::<CallCtx>::oneway(ctx, node, server_key(), "control", msg);
                    }
                }
            }
        }
        core.recycle_effects(effects);
    }

    /// Handle a GIOP *reply* frame addressed to this substrate's broker:
    /// settle the call it answers (a reply matching no outstanding call —
    /// a duplicate, or one whose call already gave up — is counted).
    pub fn handle_reply(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        core: &mut ServerCore,
        frame: GiopFrame,
    ) {
        let wire::giop::GiopBody::Return(reply) = frame.body else { return };
        let Some(pending) = self.broker.complete(frame.request_id) else {
            return ctx.metrics().incr(names::SUBSTRATE_REPLIES_ORPHANED);
        };
        let peer = self.addr_of_node(pending.to);
        self.settle(ctx, core, continuation(&pending), peer, pending.trace, Ok(reply));
    }

    /// Poll-mode tick: query every mirrored app's host for new updates.
    /// Hosts currently marked down are skipped; polling resumes when they
    /// come back up via a discovery refresh.
    pub fn poll_tick(&mut self, ctx: &mut Ctx<'_, Envelope>, core: &mut ServerCore) {
        let apps: Vec<(AppId, u64)> = self.poll_state.iter().map(|(a, s)| (*a, *s)).collect();
        for (app, since) in apps {
            let Some((addr, node)) = self.cached_route(ctx, app) else { continue };
            if self.peer_health(addr) == PeerHealth::Down {
                continue;
            }
            ctx.metrics().incr(names::SUBSTRATE_POLLS);
            let poll = PeerMsg::PollUpdates { app, since, requester: self.addr };
            let call = (server_key(), "pollUpdates", poll);
            self.issue(ctx, core, node, call, CallCtx::Poll { app }, None, None);
        }
    }

    /// Timeout sweep. Expired calls are retried with backoff by the
    /// broker; calls that exhausted their attempts are settled as
    /// failures, which fails their callers and marks the callee
    /// [`PeerHealth::Down`] (triggering trader re-resolution and
    /// mirrored-app failover). Retried calls mark their callee
    /// [`PeerHealth::Suspect`]. A relay whose request's deadline has
    /// passed is answered `DeadlineExceeded` at once; its call stays out
    /// and is judged as above.
    pub fn sweep_timeouts(&mut self, ctx: &mut Ctx<'_, Envelope>, core: &mut ServerCore) {
        let cutoff = ctx.now().checked_sub(self.config.call_timeout).unwrap_or(SimTime::ZERO);
        let report = self.broker.sweep_expired(ctx, cutoff);
        for (counter, n) in [
            (names::SUBSTRATE_RETRIES, report.retried_to.len() as u32),
            (names::SUBSTRATE_BREAKER_OPEN, report.opened),
            (names::SUBSTRATE_DEADLINE_GAVE_UP, report.deadline_gave_up),
        ] {
            if n > 0 {
                ctx.metrics().add(counter, n as u64);
            }
        }
        for node in report.retried_to {
            if let Some(addr) = self.addr_of_node(node) {
                let health = self.health.entry(addr).or_insert(PeerHealth::Up);
                if *health == PeerHealth::Up {
                    *health = PeerHealth::Suspect;
                }
            }
        }
        for (_, pending) in report.gave_up {
            ctx.metrics().incr(names::SUBSTRATE_TIMEOUTS);
            ctx.trace_annotate(pending.trace, "gave up: retry budget exhausted");
            let failure = if pending.deadline.is_some_and(|d| d.expired(ctx.now())) {
                Failure::DeadlineSpent
            } else {
                Failure::GaveUp
            };
            let peer = self.addr_of_node(pending.to);
            self.settle(ctx, core, continuation(&pending), peer, pending.trace, Err(failure));
        }
        for (user, span) in report.lapsed {
            ctx.metrics().incr(names::SUBSTRATE_DEADLINE_GAVE_UP);
            ctx.trace_annotate(span, "deadline passed awaiting reply: client answered");
            if let CallCtx::Relay { client, app, verb: Relayed::Lock { acquire: true } } = user {
                self.hand_back.insert((client, app));
            }
            // The span stays open until the call ends.
            self.settle(ctx, core, user, None, None, Err(Failure::DeadlineLapsed));
        }
    }

    /// Whether poll mode is active.
    pub fn poll_interval(&self) -> Option<SimDuration> {
        match self.config.collab_mode {
            CollabMode::Poll { interval } => Some(interval),
            CollabMode::Push => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::DiscoverNode;
    use discover_server::{security, ServerConfig};
    use orb::{Directory, DirectoryCosts};
    use simnet::{Actor, Engine, LinkSpec};
    use wire::http::HttpRequest;
    use wire::tcp::TcpFrame;
    use wire::{
        AppMsg, AppOp, AppToken, Channel, ClientMessage, ClientRequest, Content, InteractionSpec,
        Priority, Privilege, ResponseBody, UserId,
    };

    const GATEWAY: ServerAddr = ServerAddr(1);
    const HOST: ServerAddr = ServerAddr(2);
    const APP: AppId = AppId { server: HOST, seq: 7 };
    const SINCE: u64 = 42;

    fn user() -> UserId {
        UserId::new("vijay")
    }

    fn verbs() -> [RelayVerb; 4] {
        let op = AppOp::SetParam("knob0".into(), Value::Float(2.0));
        [
            RelayVerb::Op { user: user(), op },
            RelayVerb::Lock { user: user(), acquire: true },
            RelayVerb::Lock { user: user(), acquire: false },
            RelayVerb::History { since: SINCE },
        ]
    }

    /// The verb table puts on the wire what the three hand-written relay
    /// arms did: servant key, operation name, and a request of the same
    /// encoded size (literals measured at the parent of the fold).
    #[test]
    fn every_relayed_verb_keeps_its_wire_call() {
        let pinned = [
            (Relayed::Op, "apps/app:10.0.0.2#7", "proxyOp", 46, 105),
            (Relayed::Lock { acquire: true }, CORBA_SERVER_KEY, "lockRequest", 25, 88),
            (Relayed::Lock { acquire: false }, CORBA_SERVER_KEY, "lockRelease", 21, 84),
            (Relayed::History { since: SINCE }, CORBA_SERVER_KEY, "fetchHistory", 20, 84),
        ];
        for (verb, (then, key, operation, msg_len, wire_size)) in verbs().into_iter().zip(pinned) {
            let (relayed, (k, op, msg)) = relay_call(APP, verb, GATEWAY, || APP.servant_key());
            assert_eq!((relayed, k.0.as_str(), op), (then, key, operation));
            assert_eq!(wire::codec::encoded_len(&msg), msg_len, "{operation}: request size");
            let request = Envelope::giop(GiopFrame::request(1, k, op, msg));
            assert_eq!(request.wire_size(), wire_size, "{operation}: frame size");
        }
    }

    /// Swallows what it is sent, keeping the HTTP responses: the
    /// gateway's browser and its login-anchor application.
    #[derive(Default)]
    struct Sink {
        responses: Vec<wire::http::HttpResponse>,
    }
    impl Actor<Envelope> for Sink {
        fn on_message(&mut self, _: &mut Ctx<'_, Envelope>, _: NodeId, msg: Envelope) {
            if let Content::HttpResponse(response) = msg.content {
                self.responses.push(response);
            }
        }
    }

    /// The host as the gateway sees it: a peer that never answers, one
    /// that refuses every call the way a throttling host does, or one
    /// that grants every lock request `late` after it arrives. It keeps
    /// the name of every call it is sent.
    #[derive(Default)]
    struct StubHost {
        refuses: bool,
        late: Option<SimDuration>,
        heard: Vec<String>,
    }
    impl Actor<Envelope> for StubHost {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Envelope>, from: NodeId, msg: Envelope) {
            let Content::Giop(frame) = msg.content else { return };
            self.heard.push(frame.operation.to_string());
            if let (
                Some(late),
                wire::giop::GiopBody::Call(PeerMsg::LockRequest { app, user, .. }),
            ) = (self.late, &frame.body)
            {
                let grant = PeerReply::LockDecision {
                    app: *app,
                    granted: true,
                    holder: Some(user.clone()),
                };
                let reply =
                    GiopFrame::reply(frame.request_id, frame.target, frame.operation, grant);
                return ctx.send_after(from, Envelope::giop(reply), late);
            }
            if self.refuses && frame.expects_reply() {
                let refusal = PeerReply::Exception(WireError::new(
                    ErrorCode::Unavailable,
                    "peer request rate exceeds access policy",
                ));
                let reply =
                    GiopFrame::reply(frame.request_id, frame.target, frame.operation, refusal);
                ctx.send(from, Envelope::giop(reply));
            }
        }
    }

    const TAG_STAGE: u64 = 90;
    type Stage = Box<dyn FnOnce(&mut DiscoverNode, &mut Ctx<'_, Envelope>)>;

    /// A real gateway node whose test can reach in with a `Ctx`: every
    /// 100 ms it runs the staged closure, if one is waiting.
    struct Gateway {
        node: DiscoverNode,
        sink: NodeId,
        host: NodeId,
        stage: Option<Stage>,
    }
    impl Actor<Envelope> for Gateway {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
            self.node.on_start(ctx);
            self.node.substrate.peers.insert(HOST, self.host);
            // A login-anchor application, then the client's session.
            let register = AppMsg::Register {
                token: AppToken::new("t"),
                name: "anchor".into(),
                kind: "k".into(),
                acl: vec![(user(), Privilege::Steer)],
                interface: InteractionSpec::default(),
                slot: Some(0),
            };
            let register = Envelope::tcp(TcpFrame::new(Channel::Main, register));
            self.node.on_message(ctx, self.sink, register);
            let password = security::expected_password(&user());
            let login = ClientRequest::Login { user: user(), password };
            let login = HttpRequest::post(webserv::paths::COMMAND, None, login);
            self.node.on_message(ctx, self.sink, Envelope::http_request(login));
            ctx.schedule(SimDuration::from_millis(100), TAG_STAGE);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Envelope>, from: NodeId, msg: Envelope) {
            self.node.on_message(ctx, from, msg);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Envelope>, tag: u64) {
            if tag != TAG_STAGE {
                return self.node.on_timer(ctx, tag);
            }
            if let Some(stage) = self.stage.take() {
                stage(&mut self.node, ctx);
            }
            ctx.schedule(SimDuration::from_millis(100), TAG_STAGE);
        }
    }

    struct Rig {
        eng: Engine<Envelope>,
        gateway: NodeId,
        sink: NodeId,
        host: NodeId,
        client: ClientId,
    }

    impl Rig {
        /// Directory, gateway (one logged-in client, two send attempts per
        /// call, 2 s call timeout), `stub` as the host.
        fn new(stub: StubHost) -> Rig {
            let mut eng = Engine::new(7);
            eng.enable_tracing();
            let directory = eng.add_node("directory", Directory::new(DirectoryCosts::default()));
            let sink = eng.add_node("sink", Sink::default());
            let host = eng.add_node("host", stub);
            let config = SubstrateConfig {
                call_timeout: SimDuration::from_secs(2),
                sweep_interval: SimDuration::from_millis(500),
                max_attempts: 2,
                ..SubstrateConfig::default()
            };
            let book = AddressBook::new();
            let ring = DirectoryRing::single(directory);
            let substrate = Substrate::new(config, GATEWAY, "gateway", ring, book.clone());
            let node = DiscoverNode::new(ServerConfig::new(GATEWAY, "gateway"), substrate);
            let gateway = eng.add_node("gateway", Gateway { node, sink, host, stage: None });
            book.register(GATEWAY, gateway);
            book.register(HOST, host);
            for peer in [directory, sink, host] {
                eng.link(gateway, peer, LinkSpec::lan());
            }
            eng.run_until(SimTime::from_secs(1));
            let fifos = eng.actor_ref::<Gateway>(gateway).unwrap().node.core.fifo_snapshot();
            assert_eq!(fifos.len(), 1, "the client is logged in");
            Rig { eng, gateway, sink, host, client: fifos[0].0 }
        }

        /// Run `stage` on the gateway at its next 100 ms tick, then let
        /// `secs` of virtual time pass.
        fn stage(
            &mut self,
            secs: u64,
            stage: impl FnOnce(&mut DiscoverNode, &mut Ctx<'_, Envelope>) + 'static,
        ) {
            self.eng.actor_mut::<Gateway>(self.gateway).unwrap().stage = Some(Box::new(stage));
            let until = self.eng.now() + SimDuration::from_secs(secs);
            self.eng.run_until(until);
        }

        fn node(&self) -> &DiscoverNode {
            &self.eng.actor_ref::<Gateway>(self.gateway).unwrap().node
        }

        /// Messages ever pushed into the client's FIFO.
        fn answered(&self) -> u64 {
            self.node().core.fifo_snapshot()[0].4
        }

        /// Poll the client's FIFO empty and return what was in it.
        fn poll(&mut self) -> Vec<ClientMessage> {
            let sink = self.eng.actor_mut::<Sink>(self.sink).unwrap();
            let cookie = sink.responses[0].set_session;
            let seen = sink.responses.len();
            let poll = Envelope::http_request(HttpRequest::get(webserv::paths::POLL, cookie));
            self.eng.inject(self.sink, self.gateway, poll, SimDuration::ZERO);
            let until = self.eng.now() + SimDuration::from_millis(50);
            self.eng.run_until(until);
            let sink = self.eng.actor_ref::<Sink>(self.sink).unwrap();
            let unbatched = |m: &ClientMessage| match m {
                ClientMessage::Response(ResponseBody::Batch(batch)) => batch.clone(),
                single => vec![single.clone()],
            };
            sink.responses[seen..].iter().flat_map(|r| &r.body).flat_map(unbatched).collect()
        }
    }

    /// The ways a relay can end without the host's answer.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Exit {
        UnknownHost,
        HostDown,
        BreakerOpen,
        DeadlinePassed,
        ExceptionReply,
        RetriesExhausted,
        DeadlineGiveUp,
        DeadlineLapsed,
    }

    /// Relay `verb` for the rig's client as one traced request, under
    /// `deadline` if given.
    fn relay_as_request(
        node: &mut DiscoverNode,
        ctx: &mut Ctx<'_, Envelope>,
        client: ClientId,
        app: AppId,
        verb: RelayVerb,
        deadline: Option<SimTime>,
    ) {
        let span = ctx.trace_root("test.request");
        node.core.incoming_trace = span;
        node.core.incoming_deadline =
            deadline.map(|deadline| DeadlineStamp { deadline, priority: Priority::Command });
        let relay = vec![Effect::Relay { client, app, verb }];
        node.substrate.perform_all(ctx, &mut node.core, relay);
        node.core.incoming_trace = None;
        node.core.incoming_deadline = None;
        ctx.trace_finish(span);
    }

    /// Every way a relayed verb can fail ends in the one settle path:
    /// the client is answered exactly once, with the answer its verb
    /// owes it, nothing stays in flight and no span stays open.
    #[test]
    fn every_relay_failure_answers_its_client_once() {
        use Exit::*;
        let exits = [
            UnknownHost,
            HostDown,
            BreakerOpen,
            DeadlinePassed,
            ExceptionReply,
            RetriesExhausted,
            DeadlineGiveUp,
            DeadlineLapsed,
        ];
        for verb in verbs() {
            let row = Verb::of(relay_call(APP, verb.clone(), GATEWAY, || APP.servant_key()).0);
            for exit in exits {
                if matches!(exit, DeadlinePassed | DeadlineLapsed) && !row.deadlined {
                    continue; // a history fetch runs under no deadline
                }
                let cell = format!("{verb:?} x {exit:?}");
                let mut rig =
                    Rig::new(StubHost { refuses: exit == ExceptionReply, ..Default::default() });
                let client = rig.client;
                if exit == BreakerOpen {
                    // Trip the host's breaker with a sacrificial fetch:
                    // its two timed-out sends follow the two of the rig's
                    // own `authenticate` call, four failures in a row.
                    // Then forget the down verdict it also left, so the
                    // cell's call gets as far as the broker.
                    rig.stage(8, move |node, ctx| {
                        let fetch = RelayVerb::History { since: 0 };
                        relay_as_request(node, ctx, client, APP, fetch, None);
                    });
                    assert_eq!(rig.node().substrate.peer_health(HOST), PeerHealth::Down, "{cell}");
                    assert_eq!(rig.poll().len(), 1, "{cell}: the sacrificial fetch's empty page");
                }
                let before = rig.answered();
                let staged = verb.clone();
                rig.stage(12, move |node, ctx| {
                    let now = ctx.now();
                    let (app, deadline) = match exit {
                        UnknownHost => (AppId { server: ServerAddr(99), seq: 0 }, None),
                        DeadlinePassed => (APP, Some(now)),
                        DeadlineGiveUp => (APP, Some(now + SimDuration::from_millis(2100))),
                        // Passes a second before the 2 s call timeout.
                        DeadlineLapsed => (APP, Some(now + SimDuration::from_secs(1))),
                        _ => (APP, None),
                    };
                    match exit {
                        HostDown => node.substrate.health.insert(HOST, PeerHealth::Down),
                        BreakerOpen => node.substrate.health.insert(HOST, PeerHealth::Up),
                        _ => None,
                    };
                    relay_as_request(node, ctx, client, app, staged, deadline);
                });
                assert_eq!(rig.answered() - before, 1, "{cell}: answered exactly once");
                assert_eq!(rig.node().substrate.in_flight(), 0, "{cell}: nothing in flight");
                assert_eq!(rig.eng.tracer_mut().open_count(), 0, "{cell}: no span left open");
                let answers = rig.poll();
                let [answer] = answers.as_slice() else { panic!("{cell}: {answers:?}") };
                let failed_app = if exit == UnknownHost { ServerAddr(99) } else { HOST };
                match (&verb, answer) {
                    (RelayVerb::Op { .. }, ClientMessage::Error(e)) => {
                        let code = match exit {
                            DeadlinePassed | DeadlineGiveUp | DeadlineLapsed => {
                                ErrorCode::DeadlineExceeded
                            }
                            _ => ErrorCode::Unavailable,
                        };
                        assert_eq!(e.code, code, "{cell}: {e:?}");
                    }
                    (
                        RelayVerb::Lock { acquire: true, .. },
                        ClientMessage::Response(ResponseBody::LockDenied { app, holder: None }),
                    ) => assert_eq!(app.host(), failed_app, "{cell}"),
                    (RelayVerb::Lock { acquire: false, .. }, ClientMessage::Error(e)) => {
                        assert_eq!(e.code, ErrorCode::BadRequest, "{cell}: {e:?}");
                    }
                    (
                        RelayVerb::History { .. },
                        ClientMessage::Response(ResponseBody::History { app, records, next_seq }),
                    ) => {
                        assert_eq!(app.host(), failed_app, "{cell}");
                        assert!(records.is_empty(), "{cell}: an empty page");
                        assert_eq!(*next_seq, SINCE, "{cell}: the cursor stays where it was");
                    }
                    _ => panic!("{cell}: wrong answer {answer:?}"),
                }
                let fastfails = rig.eng.stats().counter(names::SUBSTRATE_FASTFAILS.key());
                if exit == DeadlineLapsed {
                    // Answered at its deadline, and the call still timed
                    // out after it (beside the rig's own background call
                    // to the silent stub), marking the host down.
                    let count = |def: CounterDef| rig.eng.stats().counter(def.key());
                    let ended = (
                        count(names::SUBSTRATE_DEADLINE_GAVE_UP),
                        count(names::SUBSTRATE_TIMEOUTS),
                    );
                    assert_eq!(ended, (1, 2), "{cell}: lapsed, then timed out");
                    let health = rig.node().substrate.peer_health(HOST);
                    assert_eq!(health, PeerHealth::Down, "{cell}: the host is judged");
                }
                let counted = match exit {
                    HostDown => row.fastfails.contains(&Failure::HostDown),
                    BreakerOpen => row.fastfails.contains(&Failure::Refused),
                    _ => false,
                };
                assert_eq!(fastfails, counted as u64, "{cell}: substrate.fastfails");
                // Counted at issue: what got as far as the broker, by the
                // verb's own counter (a history fetch has none).
                let handed_over = matches!(
                    exit,
                    BreakerOpen
                        | ExceptionReply
                        | RetriesExhausted
                        | DeadlineGiveUp
                        | DeadlineLapsed
                );
                for counter in [names::SUBSTRATE_REMOTE_OPS, names::SUBSTRATE_REMOTE_LOCKS] {
                    let expected = handed_over && row.issued == Some(counter);
                    let issued = rig.eng.stats().counter(counter.key());
                    assert_eq!(issued, expected as u64, "{cell}: {}", counter.key());
                }
            }
        }
    }

    /// A lock acquire answered "denied" at its deadline, and granted by
    /// the host after it: the late grant is released again, unless the
    /// client has relayed another lock verb for the app since.
    #[test]
    fn a_late_grant_of_a_lapsed_acquire_is_handed_back() {
        for moved_on in [false, true] {
            let stub =
                StubHost { late: Some(SimDuration::from_millis(1500)), ..Default::default() };
            let mut rig = Rig::new(stub);
            let client = rig.client;
            let acquire = RelayVerb::Lock { user: user(), acquire: true };
            let first = acquire.clone();
            rig.stage(1, move |node, ctx| {
                let deadline = Some(ctx.now() + SimDuration::from_millis(200));
                relay_as_request(node, ctx, client, APP, first, deadline);
            });
            assert_eq!(rig.answered(), 1, "moved_on={moved_on}: answered at the deadline");
            if moved_on {
                rig.stage(1, move |node, ctx| {
                    relay_as_request(node, ctx, client, APP, acquire, None);
                });
            }
            // The last grant lands 1.5 s after its request and marks the
            // host up; the rig's own `authenticate` call, never answered,
            // gives up on its second attempt at 5 s and marks it down.
            let until = rig.eng.now() + SimDuration::from_millis(1_700);
            rig.eng.run_until(until);
            assert_eq!(rig.node().substrate.peer_health(HOST), PeerHealth::Up, "it replied");
            let until = rig.eng.now() + SimDuration::from_millis(1_300);
            rig.eng.run_until(until);
            let answers = rig.poll();
            let denied =
                ClientMessage::Response(ResponseBody::LockDenied { app: APP, holder: None });
            let granted = ClientMessage::Response(ResponseBody::LockGranted { app: APP });
            let expected = if moved_on { vec![denied, granted] } else { vec![denied] };
            assert_eq!(answers, expected, "moved_on={moved_on}");
            let heard = &rig.eng.actor_ref::<StubHost>(rig.host).unwrap().heard;
            let releases = heard.iter().filter(|op| *op == "lockRelease").count();
            assert_eq!(releases, usize::from(!moved_on), "moved_on={moved_on}: {heard:?}");
            assert_eq!(rig.node().substrate.peer_health(HOST), PeerHealth::Down);
            assert_eq!(rig.node().substrate.in_flight(), 0);
            assert_eq!(rig.eng.tracer_mut().open_count(), 0, "no span left open");
        }
    }
}
