//! The middleware substrate: the client side of the peer-to-peer
//! protocol (§5).
//!
//! Each DISCOVER server embeds one [`Substrate`]. It discovers peer
//! servers through the trader (service id `"DISCOVER"`), binds local
//! applications into the naming service, resolves the server core's
//! [`Effect`]s into ORB calls, correlates the replies, and feeds results
//! back into the core.
//!
//! Fault tolerance: expired calls are retried with backoff by the broker
//! ([`orb::RetryPolicy`]); call outcomes drive a per-peer health state
//! ([`PeerHealth`]) — a reply marks the peer `Up`, a retried timeout
//! `Suspect`, an exhausted call `Down`. When a peer goes down the
//! substrate re-queries the trader, re-resolves every mirrored app of
//! that host through naming (failover), fails requests for the host fast
//! with a redirect hint instead of letting them time out, and keeps
//! serving the cached peer directory flagged stale rather than erroring.

use std::collections::{BTreeMap, BTreeSet};

use orb::directory::calls;
use orb::{AddressBook, Broker, BreakerState, RetryPolicy, DISCOVER_SERVICE};

use crate::cache::{DiscoveryCache, DiscoveryCacheConfig, Lookup};
use crate::shard::{trader_partition, DirectoryRing};
use simnet::{names, Ctx, NodeId, SimDuration, SimTime, TraceContext};
use wire::giop::GiopFrame;
use wire::{
    AppId, ClientId, ControlEvent, ControlEventKind, DeadlineStamp, Envelope, ErrorCode,
    ObjectKey, ObjectRef, PeerMsg, PeerReply, ServerAddr, Value, WireError,
};

use discover_server::core::orb_call_cost;
use discover_server::{Effect, Mutation, ServerCore, CORBA_SERVER_KEY};

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
    /// Retry policy for expired peer calls ([`RetryPolicy::none`] gives
    /// the original fail-on-first-timeout behaviour).
    pub retry: RetryPolicy,
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
            retry: RetryPolicy::default(),
            discovery_cache: None,
        }
    }
}

/// Continuation context of an outstanding ORB call.
#[derive(Debug)]
pub enum CallCtx {
    /// Level-1 auth fan-out for a local client.
    Auth {
        /// The client.
        client: ClientId,
    },
    /// Remote operation for a local client.
    Op {
        /// The client.
        client: ClientId,
        /// Target app.
        app: AppId,
    },
    /// Relayed lock request/release.
    Lock {
        /// The client.
        client: ClientId,
        /// Target app.
        app: AppId,
        /// Acquire or release.
        acquire: bool,
    },
    /// Remote history fetch.
    History {
        /// The client.
        client: ClientId,
        /// Target app.
        app: AppId,
    },
    /// Collaboration subscription handshake.
    Subscribe {
        /// Target app.
        app: AppId,
    },
    /// Trader discovery query.
    Discovery,
    /// Directory mutation (export/bind); reply only acknowledged.
    DirectoryWrite,
    /// Poll-mode update fetch.
    Poll {
        /// Target app.
        app: AppId,
    },
    /// Naming re-resolution of a mirrored app after its host went down.
    Failover {
        /// The app being re-routed.
        app: AppId,
    },
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
    /// Directory keys with a read query (trader query / naming resolve)
    /// currently in flight. A second query for the same key inside the
    /// window is coalesced onto the outstanding one instead of issuing
    /// its own call — the thundering-herd fix. Writes are never deduped.
    dir_in_flight: BTreeSet<String>,
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
    /// True while the peer directory is served from cache because the
    /// last trader refresh failed.
    peers_stale: bool,
    /// Ambient trace parent for the request currently being processed;
    /// the node shell sets it around ingress handling so every ORB call
    /// issued while resolving that request's effects is parented under
    /// the request's span. `None` between requests (background work).
    pub request_trace: Option<TraceContext>,
    /// Ambient deadline stamp for the request currently being processed,
    /// set by the node shell alongside `request_trace`. ORB calls issued
    /// for a deadlined request carry the stamp on the wire and refuse to
    /// start once it has passed. `None` between requests.
    pub request_deadline: Option<DeadlineStamp>,
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
        let record = config.discovery_cache.is_some_and(|c| c.record);
        Substrate {
            config,
            addr,
            name: name.into(),
            directory,
            book,
            broker: Broker::with_retry(config.retry),
            cache: DiscoveryCache::new(record),
            dir_in_flight: BTreeSet::new(),
            peers: BTreeMap::new(),
            poll_state: BTreeMap::new(),
            subscribed: BTreeMap::new(),
            health: BTreeMap::new(),
            routes: BTreeMap::new(),
            peers_stale: false,
            request_trace: None,
            request_deadline: None,
        }
    }

    /// The directory ring this substrate routes through.
    pub fn directory_ring(&self) -> &DirectoryRing {
        &self.directory
    }

    /// The discovery cache (stats and oracle event log).
    pub fn discovery_cache(&self) -> &DiscoveryCache {
        &self.cache
    }

    /// Directory node owning `key` under the consistent-hash ring.
    fn dir_node(&self, key: &str) -> NodeId {
        self.directory.node_for(key)
    }

    /// Whether an outgoing directory *read* for `key` should be issued,
    /// or coalesced onto an identical in-flight one. Counting the
    /// coalesce is the regression observable for the thundering-herd
    /// fix: one trader/naming call per key per miss window.
    fn admit_dir_query(&mut self, ctx: &mut Ctx<'_, Envelope>, key: &str) -> bool {
        if self.dir_in_flight.contains(key) {
            ctx.metrics().incr(names::SUBSTRATE_QUERIES_COALESCED);
            return false;
        }
        self.dir_in_flight.insert(key.to_string());
        true
    }

    /// Known peer addresses (diagnostics).
    pub fn peer_addrs(&self) -> Vec<ServerAddr> {
        let mut v: Vec<ServerAddr> = self.peers.keys().copied().collect();
        v.sort();
        v
    }

    /// Outstanding ORB calls (diagnostics).
    pub fn in_flight(&self) -> usize {
        self.broker.in_flight()
    }

    /// Health of a peer (`Up` until proven otherwise).
    pub fn peer_health(&self, addr: ServerAddr) -> PeerHealth {
        self.health.get(&addr).copied().unwrap_or(PeerHealth::Up)
    }

    /// True while the peer directory is a stale cache (last trader
    /// refresh failed); listings keep being served from it regardless.
    pub fn peers_stale(&self) -> bool {
        self.peers_stale
    }

    /// Snapshot every known peer's health verdict and circuit-breaker
    /// state as status-report lines (sorted by address, deterministic).
    /// The node shell syncs this into the server core right before a
    /// `Status` request is dispatched.
    pub fn peer_status_snapshot(&self) -> Vec<wire::PeerStatusEntry> {
        self.peers
            .iter()
            .map(|(&addr, &node)| {
                let health = match self.peer_health(addr) {
                    PeerHealth::Up => "up",
                    PeerHealth::Suspect => "suspect",
                    PeerHealth::Down => "down",
                };
                let breaker = match self.broker.breaker_state(node) {
                    BreakerState::Closed => "closed".to_string(),
                    BreakerState::HalfOpen => "half-open".to_string(),
                    BreakerState::Open { until } => {
                        format!("open(until={}us)", until.as_micros())
                    }
                };
                wire::PeerStatusEntry { peer: addr, health: health.to_string(), breaker }
            })
            .collect()
    }

    /// Directory-plane snapshot for the status report: ring shape plus
    /// cache counters. The node shell syncs this into the server core
    /// right before a `Status` request is dispatched (pure memory copy,
    /// like the peer-health snapshot).
    pub fn dir_plane_snapshot(&self) -> wire::DirPlaneStatus {
        let s = &self.cache.stats;
        wire::DirPlaneStatus {
            shards: self.directory.len() as u32,
            ring_epoch: self.directory.epoch(),
            cache_hits: s.hits + s.negative_hits,
            cache_misses: s.misses + s.expired,
            cache_invalidations: s.invalidations,
        }
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
            self.cache.insert(now, &format!("DISCOVER/apps/{app}"), addr, cfg.ttl);
        }
    }

    /// Reverse lookup: peer address of a node (None for the directory).
    fn addr_of_node(&self, node: NodeId) -> Option<ServerAddr> {
        self.peers.iter().find(|(_, &n)| n == node).map(|(&a, _)| a)
    }

    /// Effective target of `app`: routed address plus its node.
    fn route_for(&self, app: AppId) -> Option<(ServerAddr, NodeId)> {
        let addr = self.route_of(app);
        self.node_of(addr).map(|n| (addr, n))
    }

    /// Effective target of `app` through the discovery cache. With the
    /// cache disabled this is exactly [`Substrate::route_for`]; enabled,
    /// a fresh entry serves the route without consulting the failover
    /// table, and a miss/expiry re-primes the entry from current route
    /// knowledge under the configured TTL.
    fn cached_route(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        app: AppId,
    ) -> Option<(ServerAddr, NodeId)> {
        let Some(cfg) = self.config.discovery_cache else {
            return self.route_for(app);
        };
        let name = format!("DISCOVER/apps/{app}");
        let addr = match self.cache.lookup(ctx.now(), &name) {
            Lookup::Hit(addr) => {
                ctx.metrics().incr(names::SUBSTRATE_CACHE_HITS);
                addr
            }
            Lookup::NegativeHit => {
                // "Not bound" within the negative TTL: dispatch falls
                // back to the home host (which will Nak authoritatively)
                // rather than storming the directory.
                ctx.metrics().incr(names::SUBSTRATE_CACHE_NEG_HITS);
                self.route_of(app)
            }
            outcome => {
                ctx.metrics().incr(match outcome {
                    Lookup::Expired => names::SUBSTRATE_CACHE_EXPIRED,
                    _ => names::SUBSTRATE_CACHE_MISSES,
                });
                let addr = self.route_of(app);
                self.cache.insert(ctx.now(), &name, addr, cfg.ttl);
                addr
            }
        };
        self.node_of(addr).map(|n| (addr, n))
    }

    /// The `Unavailable` error for a down host, carrying a redirect hint
    /// (the naming path clients can re-resolve to find the new host).
    fn down_error(addr: ServerAddr, app: AppId) -> WireError {
        WireError::new(
            ErrorCode::Unavailable,
            format!("host {addr} down; redirect: DISCOVER/apps/{app}"),
        )
    }

    /// Publish this server to the trader and the naming service. Offers
    /// route to the shard owning the service-type partition; the server
    /// binding routes to the shard owning its naming path.
    pub fn publish_self(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        ctx.metrics().set_gauge(names::SUBSTRATE_RING_SHARDS, self.directory.len() as f64);
        ctx.metrics().set_gauge(names::SUBSTRATE_RING_EPOCH, self.directory.epoch() as f64);
        let object = ObjectRef { server: self.addr, key: ObjectKey::new(CORBA_SERVER_KEY) };
        let offer = wire::ServiceOffer {
            service_type: DISCOVER_SERVICE.to_string(),
            object: object.clone(),
            properties: vec![
                ("addr".to_string(), Value::Int(self.addr.0 as i64)),
                ("name".to_string(), Value::Text(self.name.clone())),
            ],
        };
        let trader = self.dir_node(&trader_partition(DISCOVER_SERVICE));
        let (key, op, msg) = calls::export(offer);
        let _ = self.broker.call(ctx, trader, key, op, msg, CallCtx::DirectoryWrite);
        let naming_key = format!("DISCOVER/servers/{}", self.name);
        let shard = self.dir_node(&naming_key);
        let (key, op, msg) = calls::bind(naming_key, object);
        let _ = self.broker.call(ctx, shard, key, op, msg, CallCtx::DirectoryWrite);
    }

    /// Query the trader for the current peer set. A query while another
    /// trader query is still outstanding coalesces onto it — after a
    /// failover storm every `mark_down` used to issue its own query.
    pub fn discover_peers(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let partition = trader_partition(DISCOVER_SERVICE);
        if !self.admit_dir_query(ctx, &partition) {
            return;
        }
        ctx.metrics().incr(names::SUBSTRATE_DISCOVERY_QUERIES);
        // Background work: a trader query opens its own root span rather
        // than riding any client request.
        let span = ctx.trace_root("substrate.trader_query");
        let (key, op, msg) = calls::query(DISCOVER_SERVICE, vec![]);
        if self
            .broker
            .call_traced(ctx, self.dir_node(&partition), key, op, msg, CallCtx::Discovery, span)
            .is_err()
        {
            ctx.trace_finish(span);
            self.dir_in_flight.remove(&partition);
            self.peers_stale = true;
        }
    }

    /// A peer answered: mark it healthy again.
    fn mark_up(&mut self, addr: ServerAddr) {
        self.health.insert(addr, PeerHealth::Up);
    }

    /// Daemon re-registration after a process restart: re-publish this
    /// server to the trader/naming and re-bind every local application
    /// under its `DISCOVER/apps/<id>` name.
    pub fn rebind_local_apps(&mut self, ctx: &mut Ctx<'_, Envelope>, apps: Vec<AppId>) {
        for app in apps {
            ctx.metrics().incr(names::SUBSTRATE_REBINDS);
            self.naming_for_app(ctx, app, true);
        }
    }

    /// Process-restart housekeeping: outstanding calls and breaker state
    /// died with the old incarnation, and push subscriptions must be
    /// re-confirmed with their hosts. The discovery cache is dropped too
    /// — the new incarnation must not trust the dead one's routes.
    pub fn on_restart(&mut self) {
        let retry = self.broker.retry;
        let breaker = self.broker.breaker;
        self.broker = Broker::with_retry(retry);
        self.broker.breaker = breaker;
        self.cache.clear();
        self.dir_in_flight.clear();
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
        self.discover_peers(ctx);
        let mirrored: Vec<AppId> = self
            .poll_state
            .keys()
            .chain(self.subscribed.keys())
            .copied()
            .filter(|&app| self.route_of(app) == addr)
            .collect();
        for app in mirrored {
            self.resolve_app_route(ctx, core, app);
        }
    }

    /// Re-resolve an app's route through naming (failover path). The
    /// resolve consults the discovery cache first — a fresh answer
    /// (positive or negative) short-circuits the directory call — and
    /// concurrent resolves for the same key coalesce onto one call.
    fn resolve_app_route(&mut self, ctx: &mut Ctx<'_, Envelope>, core: &mut ServerCore, app: AppId) {
        let name = format!("DISCOVER/apps/{app}");
        if self.config.discovery_cache.is_some() {
            match self.cache.lookup(ctx.now(), &name) {
                Lookup::Hit(server) => {
                    ctx.metrics().incr(names::SUBSTRATE_CACHE_HITS);
                    self.adopt_route(ctx, core, app, server);
                    return;
                }
                Lookup::NegativeHit => {
                    // The directory said "not bound" within the negative
                    // TTL; don't storm it with re-resolves.
                    ctx.metrics().incr(names::SUBSTRATE_CACHE_NEG_HITS);
                    return;
                }
                Lookup::Miss => ctx.metrics().incr(names::SUBSTRATE_CACHE_MISSES),
                Lookup::Expired => ctx.metrics().incr(names::SUBSTRATE_CACHE_EXPIRED),
            }
        }
        if !self.admit_dir_query(ctx, &name) {
            return;
        }
        // Failover re-resolution is background recovery work with its
        // own root span; the redirect it installs serves later calls.
        let span = ctx.trace_root("substrate.failover");
        ctx.trace_annotate(span, "re-resolving mirrored app: host down");
        let shard = self.dir_node(&name);
        let (key, op, msg) = calls::resolve(name.clone());
        if self
            .broker
            .call_traced(ctx, shard, key, op, msg, CallCtx::Failover { app }, span)
            .is_err()
        {
            ctx.trace_finish(span);
            self.dir_in_flight.remove(&name);
        }
    }

    /// Install or clear `app`'s failover route from a resolved server
    /// (`server == app.host()` clears the route: the app is home again),
    /// maintaining the overload path's mirror hints alongside.
    fn adopt_route(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        core: &mut ServerCore,
        app: AppId,
        server: ServerAddr,
    ) {
        let previous = self.route_of(app);
        if server != previous {
            ctx.metrics().incr(names::SUBSTRATE_FAILOVERS);
        }
        if server == app.host() {
            self.routes.remove(&app);
            core.clear_mirror_hint(app);
        } else {
            self.routes.insert(app, server);
            // Let the overload path hand out redirect hints for shed
            // work targeting this app.
            core.set_mirror_hint(app, server);
        }
    }

    /// Issue (or re-issue) a push-mode collaboration subscription.
    fn subscribe_app(&mut self, ctx: &mut Ctx<'_, Envelope>, app: AppId) {
        let Some((addr, node)) = self.route_for(app) else { return };
        if self.peer_health(addr) == PeerHealth::Down {
            return;
        }
        ctx.metrics().incr(names::SUBSTRATE_SUBSCRIBES);
        self.subscribed.entry(app).or_insert(false);
        let span = ctx.trace_child(self.request_trace, "orb.call");
        if self
            .broker
            .call_traced(
                ctx,
                node,
                ObjectKey::new(CORBA_SERVER_KEY),
                "subscribeApp",
                PeerMsg::SubscribeApp { app, subscriber: self.addr },
                CallCtx::Subscribe { app },
                span,
            )
            .is_err()
        {
            ctx.trace_finish(span);
        }
    }

    /// Resolve a server address to its node, via discovery or wiring.
    fn node_of(&self, addr: ServerAddr) -> Option<NodeId> {
        self.peers.get(&addr).copied().or_else(|| self.book.resolve(addr))
    }

    /// Bind/unbind an application in the naming service (the CorbaProxy
    /// "binds itself to the CORBA naming service using the application's
    /// unique identifier as the name").
    fn naming_for_app(&mut self, ctx: &mut Ctx<'_, Envelope>, app: AppId, register: bool) {
        let name = format!("DISCOVER/apps/{app}");
        let shard = self.dir_node(&name);
        let (key, op, msg) = if register {
            calls::bind(name, ObjectRef { server: self.addr, key: ObjectKey::new(format!("apps/{app}")) })
        } else {
            calls::unbind(name)
        };
        let _ = self.broker.call(ctx, shard, key, op, msg, CallCtx::DirectoryWrite);
    }

    /// Resolve one core [`Effect`] into ORB traffic.
    pub fn perform(&mut self, ctx: &mut Ctx<'_, Envelope>, core: &mut ServerCore, effect: Effect) {
        match effect {
            Effect::RemoteAuth { client, user, password } => {
                let dispatch = ctx.trace_child(self.request_trace, "substrate.dispatch");
                let targets: Vec<(ServerAddr, NodeId)> = self
                    .peers
                    .iter()
                    .filter(|(&a, _)| a != self.addr && self.peer_health(a) != PeerHealth::Down)
                    .map(|(&a, &n)| (a, n))
                    .collect();
                for (_, node) in targets {
                    ctx.metrics().incr(names::SUBSTRATE_REMOTE_AUTH_CALLS);
                    let msg =
                        PeerMsg::Authenticate { user: user.clone(), password: password.clone() };
                    ctx.consume(orb_call_cost(&msg));
                    let span = ctx.trace_child(dispatch, "orb.call");
                    if self
                        .broker
                        .call_traced(
                            ctx,
                            node,
                            ObjectKey::new(CORBA_SERVER_KEY),
                            "authenticate",
                            msg,
                            CallCtx::Auth { client },
                            span,
                        )
                        .is_err()
                    {
                        ctx.trace_finish(span);
                    }
                }
                ctx.trace_finish(dispatch);
            }
            Effect::RemoteOp { client, user, app, op } => {
                // Deadline check at the orb-call hop: an op whose budget
                // ran out in the servlet never goes on the wire.
                if let Some(stamp) = self.request_deadline {
                    if stamp.expired(ctx.now()) {
                        ctx.metrics().incr(names::SUBSTRATE_DEADLINE_FASTFAIL);
                        ctx.trace_annotate(
                            self.request_trace,
                            "fastfail: deadline passed before orb call",
                        );
                        core.complete_remote_op(
                            ctx,
                            client,
                            app,
                            Err(WireError::new(
                                ErrorCode::DeadlineExceeded,
                                "deadline passed before remote dispatch",
                            )),
                        );
                        return;
                    }
                }
                match self.cached_route(ctx, app) {
                    Some((addr, _)) if self.peer_health(addr) == PeerHealth::Down => {
                        ctx.metrics().incr(names::SUBSTRATE_FASTFAILS);
                        ctx.trace_annotate(self.request_trace, "fastfail: host down, redirect hint");
                        core.complete_remote_op(ctx, client, app, Err(Self::down_error(addr, app)));
                    }
                    Some((addr, node)) => {
                        let dispatch = ctx.trace_child(self.request_trace, "substrate.dispatch");
                        ctx.metrics().incr(names::SUBSTRATE_REMOTE_OPS);
                        let msg = PeerMsg::ProxyOp { app, user, op };
                        ctx.consume(orb_call_cost(&msg));
                        let span = ctx.trace_child(dispatch, "orb.call");
                        if self
                            .broker
                            .call_traced_deadline(
                                ctx,
                                node,
                                ObjectKey::new(format!("apps/{app}")),
                                "proxyOp",
                                msg,
                                CallCtx::Op { client, app },
                                span,
                                self.request_deadline,
                            )
                            .is_err()
                        {
                            ctx.trace_finish(span);
                            ctx.metrics().incr(names::SUBSTRATE_FASTFAILS);
                            core.complete_remote_op(
                                ctx,
                                client,
                                app,
                                Err(Self::down_error(addr, app)),
                            );
                        }
                        ctx.trace_finish(dispatch);
                    }
                    None => core.complete_remote_op(
                        ctx,
                        client,
                        app,
                        Err(WireError::new(ErrorCode::Unavailable, "host server unknown")),
                    ),
                }
            }
            Effect::RemoteLock { client, user, app, acquire } => match self.cached_route(ctx, app) {
                Some((addr, node)) if self.peer_health(addr) != PeerHealth::Down => {
                    let (operation, msg) = if acquire {
                        ("lockRequest", PeerMsg::LockRequest { app, user, via: self.addr })
                    } else {
                        ("lockRelease", PeerMsg::LockRelease { app, user })
                    };
                    ctx.metrics().incr(names::SUBSTRATE_REMOTE_LOCKS);
                    let span = ctx.trace_child(self.request_trace, "orb.call");
                    if self
                        .broker
                        .call_traced(
                            ctx,
                            node,
                            ObjectKey::new(CORBA_SERVER_KEY),
                            operation,
                            msg,
                            CallCtx::Lock { client, app, acquire },
                            span,
                        )
                        .is_err()
                    {
                        ctx.trace_finish(span);
                        ctx.metrics().incr(names::SUBSTRATE_FASTFAILS);
                        core.complete_remote_lock(ctx, client, app, acquire, false, None);
                    }
                }
                _ => core.complete_remote_lock(ctx, client, app, acquire, false, None),
            },
            Effect::RemoteHistory { client, app, since } => match self.cached_route(ctx, app) {
                Some((addr, node)) if self.peer_health(addr) != PeerHealth::Down => {
                    let span = ctx.trace_child(self.request_trace, "orb.call");
                    if self
                        .broker
                        .call_traced(
                            ctx,
                            node,
                            ObjectKey::new(CORBA_SERVER_KEY),
                            "fetchHistory",
                            PeerMsg::FetchHistory { app, since },
                            CallCtx::History { client, app },
                            span,
                        )
                        .is_err()
                    {
                        ctx.trace_finish(span);
                        core.complete_remote_history(ctx, client, app, Vec::new(), since);
                    }
                }
                _ => core.complete_remote_history(ctx, client, app, Vec::new(), since),
            },
            Effect::Subscribe { app } => match self.config.collab_mode {
                CollabMode::Push => self.subscribe_app(ctx, app),
                CollabMode::Poll { .. } => {
                    self.poll_state.entry(app).or_insert(0);
                }
            },
            Effect::Unsubscribe { app } => match self.config.collab_mode {
                CollabMode::Push => {
                    self.subscribed.remove(&app);
                    if let Some(node) = self.node_of(app.host()) {
                        Broker::<CallCtx>::oneway(
                            ctx,
                            node,
                            ObjectKey::new(CORBA_SERVER_KEY),
                            "unsubscribeApp",
                            PeerMsg::UnsubscribeApp { app, subscriber: self.addr },
                        );
                    }
                }
                CollabMode::Poll { .. } => {
                    self.poll_state.remove(&app);
                }
            },
            Effect::PushToPeers { update, peers } => {
                for peer in peers {
                    if let Some(node) = self.node_of(peer) {
                        ctx.metrics().incr(names::SUBSTRATE_COLLAB_PUSHES);
                        let msg =
                            PeerMsg::CollabUpdate { update: update.clone(), origin: self.addr };
                        ctx.consume(orb_call_cost(&msg));
                        Broker::<CallCtx>::oneway(
                            ctx,
                            node,
                            ObjectKey::new(CORBA_SERVER_KEY),
                            "collabUpdate",
                            msg,
                        );
                    }
                }
            }
            Effect::ForwardToHost { update } => {
                if let Some(node) = self.node_of(update.app().host()) {
                    ctx.metrics().incr(names::SUBSTRATE_COLLAB_FORWARDS);
                    Broker::<CallCtx>::oneway(
                        ctx,
                        node,
                        ObjectKey::new(CORBA_SERVER_KEY),
                        "collabUpdate",
                        PeerMsg::CollabUpdate { update, origin: self.addr },
                    );
                }
            }
            Effect::Announce { kind, detail, app } => {
                match (kind, app) {
                    (ControlEventKind::AppRegistered, Some(app)) => {
                        self.naming_for_app(ctx, app, true)
                    }
                    (ControlEventKind::AppClosed, Some(app)) => {
                        self.naming_for_app(ctx, app, false)
                    }
                    _ => {}
                }
                let event = ControlEvent { origin: self.addr, kind, detail };
                for (&peer_addr, &node) in &self.peers {
                    if peer_addr == self.addr {
                        continue;
                    }
                    ctx.metrics().incr(names::SUBSTRATE_CONTROL_EVENTS);
                    Broker::<CallCtx>::oneway(
                        ctx,
                        node,
                        ObjectKey::new(CORBA_SERVER_KEY),
                        "control",
                        PeerMsg::Control(event.clone()),
                    );
                }
            }
        }
    }

    /// Resolve a batch of effects.
    pub fn perform_all(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        core: &mut ServerCore,
        effects: Vec<Effect>,
    ) {
        for e in effects {
            self.perform(ctx, core, e);
        }
    }

    /// Handle a GIOP *reply* frame addressed to this substrate's broker.
    /// Returns false if the reply did not match an outstanding call.
    pub fn handle_reply(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        core: &mut ServerCore,
        frame: GiopFrame,
    ) -> bool {
        let wire::giop::GiopBody::Return(reply) = frame.body else { return false };
        let Some(pending) = self.broker.complete(frame.request_id) else {
            ctx.metrics().incr(names::SUBSTRATE_REPLIES_ORPHANED);
            return false;
        };
        // The logical call is over the moment its reply arrives; the
        // completion handlers below run under the request's own span.
        ctx.trace_finish(pending.trace);
        // Whatever the reply shape (offers, resolution, exception), the
        // directory read it answers is no longer in flight; later misses
        // for the key may issue a fresh query.
        match &pending.user {
            CallCtx::Discovery => {
                self.dir_in_flight.remove(&trader_partition(DISCOVER_SERVICE));
            }
            CallCtx::Failover { app } => {
                self.dir_in_flight.remove(&format!("DISCOVER/apps/{app}"));
            }
            _ => {}
        }
        if let Some(addr) = self.addr_of_node(pending.to) {
            self.mark_up(addr);
        }
        // Stale directory-cache repair: a peer answering `NoSuchApp` for
        // an app we routed to it is a definitive Nak — the failover route
        // (and its redirect hint) is wrong NOW, not when its next
        // discovery refresh happens to notice. Drop it immediately so the
        // very next call falls back to the app's home host.
        let nak = match &reply {
            PeerReply::Exception(e) => Some(e),
            // Proxied ops carry their Nak inside the result envelope.
            PeerReply::OpResult { result: Err(e), .. } => Some(e),
            _ => None,
        };
        if let Some(e) = nak {
            if matches!(e.code, ErrorCode::NoSuchApp) {
                let routed_app = match &pending.user {
                    CallCtx::Op { app, .. }
                    | CallCtx::Lock { app, .. }
                    | CallCtx::History { app, .. }
                    | CallCtx::Subscribe { app }
                    | CallCtx::Poll { app } => Some(*app),
                    _ => None,
                };
                if let Some(app) = routed_app {
                    if self.routes.remove(&app).is_some() {
                        ctx.metrics().incr(names::SUBSTRATE_ROUTES_INVALIDATED);
                        core.clear_mirror_hint(app);
                    }
                    if self.config.discovery_cache.is_some() {
                        // The Nak invalidates the cached route too;
                        // `Mutation::StaleCache` skips only the
                        // eviction, leaving the poisoned entry for the
                        // discovery oracle to catch being re-served.
                        ctx.metrics().incr(names::SUBSTRATE_CACHE_INVALIDATIONS);
                        let evict = core.config.mutation != Some(Mutation::StaleCache);
                        let name = format!("DISCOVER/apps/{app}");
                        self.cache.invalidate(ctx.now(), &name, evict);
                    }
                }
            }
        }
        match (pending.user, reply) {
            (CallCtx::Auth { client }, PeerReply::AuthOk { apps }) => {
                core.complete_remote_auth(ctx, client, apps);
            }
            (CallCtx::Auth { .. }, PeerReply::AuthDenied) => {
                ctx.metrics().incr(names::SUBSTRATE_REMOTE_AUTH_DENIED);
            }
            (CallCtx::Op { client, app }, PeerReply::OpResult { result, .. }) => {
                core.complete_remote_op(ctx, client, app, result);
            }
            (CallCtx::Op { client, app }, PeerReply::Exception(e)) => {
                core.complete_remote_op(ctx, client, app, Err(e));
            }
            (
                CallCtx::Lock { client, app, acquire },
                PeerReply::LockDecision { granted, holder, .. },
            ) => {
                core.complete_remote_lock(ctx, client, app, acquire, granted, holder);
            }
            (CallCtx::Lock { client, app, acquire }, PeerReply::Exception(_)) => {
                core.complete_remote_lock(ctx, client, app, acquire, false, None);
            }
            (CallCtx::History { client, app }, PeerReply::History { records, next_seq, .. }) => {
                core.complete_remote_history(ctx, client, app, records, next_seq);
            }
            (CallCtx::Subscribe { app }, PeerReply::SubscribeOk { .. }) => {
                self.subscribed.insert(app, true);
            }
            (CallCtx::Discovery, PeerReply::TraderOffers { offers }) => {
                self.peers_stale = false;
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
                        self.mark_up(addr);
                    }
                }
                // Failed-over apps return to their home host once it is
                // healthy again.
                let health = &self.health;
                let mut returned: Vec<AppId> = Vec::new();
                self.routes.retain(|&app, _| {
                    let keep = health.get(&app.host()) != Some(&PeerHealth::Up);
                    if !keep {
                        returned.push(app);
                    }
                    keep
                });
                for app in returned {
                    core.clear_mirror_hint(app);
                }
                // Re-issue push subscriptions that never got confirmed
                // (lost subscribe, or host was down when we tried).
                let unconfirmed: Vec<AppId> = self
                    .subscribed
                    .iter()
                    .filter(|(_, &ok)| !ok)
                    .map(|(&app, _)| app)
                    .collect();
                for app in unconfirmed {
                    self.subscribe_app(ctx, app);
                }
            }
            (CallCtx::Failover { app }, PeerReply::NamingResolved { object }) => {
                let name = format!("DISCOVER/apps/{app}");
                if let Some(cfg) = self.config.discovery_cache {
                    // The authoritative answer refreshes the cache:
                    // positive with the resolved host, negative when the
                    // directory has no binding.
                    match &object {
                        Some(o) => self.cache.insert(ctx.now(), &name, o.server, cfg.ttl),
                        None => self.cache.insert_negative(ctx.now(), &name, cfg.negative_ttl),
                    }
                }
                if let Some(object) = object {
                    self.adopt_route(ctx, core, app, object.server);
                }
            }
            (CallCtx::Poll { app }, PeerReply::Updates { updates, next_seq, .. }) => {
                let origin = app.host();
                for update in updates {
                    core.apply_peer_update(ctx, update, origin);
                }
                self.poll_state.insert(app, next_seq);
            }
            (CallCtx::DirectoryWrite, _) => {}
            (_, PeerReply::Exception(e)) => {
                ctx.metrics().incr(names::SUBSTRATE_REPLIES_EXCEPTIONS);
                let _ = e;
            }
            _ => ctx.metrics().incr(names::SUBSTRATE_REPLIES_MISMATCHED),
        }
        // Completion handlers only queue their effects (collaboration
        // echoes of remote outcomes, re-fanned poll updates); resolve
        // them now.
        let queued = core.drain_effects();
        if !queued.is_empty() {
            self.perform_all(ctx, core, queued);
        }
        true
    }

    /// Poll-mode tick: query every mirrored app's host for new updates.
    /// Hosts currently marked down are skipped; polling resumes when they
    /// come back up via a discovery refresh.
    pub fn poll_tick(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let apps: Vec<(AppId, u64)> = self.poll_state.iter().map(|(a, s)| (*a, *s)).collect();
        for (app, since) in apps {
            let Some((addr, node)) = self.cached_route(ctx, app) else { continue };
            if self.peer_health(addr) == PeerHealth::Down {
                continue;
            }
            ctx.metrics().incr(names::SUBSTRATE_POLLS);
            let _ = self.broker.call(
                ctx,
                node,
                ObjectKey::new(CORBA_SERVER_KEY),
                "pollUpdates",
                PeerMsg::PollUpdates { app, since, requester: self.addr },
                CallCtx::Poll { app },
            );
        }
    }

    /// Timeout sweep. Expired calls are retried with backoff by the
    /// broker; callers of calls that exhausted their attempts are failed,
    /// and the callee is marked [`PeerHealth::Down`] (triggering trader
    /// re-resolution and mirrored-app failover). Retried calls mark their
    /// callee [`PeerHealth::Suspect`].
    pub fn sweep_timeouts(&mut self, ctx: &mut Ctx<'_, Envelope>, core: &mut ServerCore) {
        let Some(cutoff) = ctx.now().checked_sub(self.config.call_timeout) else { return };
        if cutoff == SimTime::ZERO {
            return;
        }
        let report = self.broker.sweep_expired(ctx, cutoff);
        if report.retried > 0 {
            ctx.metrics().add(names::SUBSTRATE_RETRIES, report.retried as u64);
        }
        if report.opened > 0 {
            ctx.metrics().add(names::SUBSTRATE_BREAKER_OPEN, report.opened as u64);
        }
        if report.deadline_gave_up > 0 {
            ctx.metrics().add(names::SUBSTRATE_DEADLINE_GAVE_UP, report.deadline_gave_up as u64);
        }
        for node in report.retried_to {
            if let Some(addr) = self.addr_of_node(node) {
                self.health.entry(addr).or_insert(PeerHealth::Up);
                if self.health[&addr] == PeerHealth::Up {
                    self.health.insert(addr, PeerHealth::Suspect);
                }
            }
        }
        for (_, pending) in report.gave_up {
            ctx.metrics().incr(names::SUBSTRATE_TIMEOUTS);
            ctx.trace_annotate(pending.trace, "gave up: retry budget exhausted");
            ctx.trace_finish(pending.trace);
            let failed_addr = self.addr_of_node(pending.to);
            match pending.user {
                CallCtx::Op { client, app } => {
                    // A deadline-driven give-up reports the spent budget
                    // rather than a host-down redirect: the host may be
                    // healthy, the request simply ran out of time.
                    let err = if pending.deadline.is_some_and(|d| d.expired(ctx.now())) {
                        WireError::new(
                            ErrorCode::DeadlineExceeded,
                            "deadline exhausted while retrying remote call",
                        )
                    } else {
                        match failed_addr {
                            Some(addr) => Self::down_error(addr, app),
                            None => {
                                WireError::new(ErrorCode::Unavailable, "remote call timed out")
                            }
                        }
                    };
                    core.complete_remote_op(ctx, client, app, Err(err));
                }
                CallCtx::Lock { client, app, acquire } => {
                    core.complete_remote_lock(ctx, client, app, acquire, false, None)
                }
                CallCtx::History { client, app } => {
                    core.complete_remote_history(ctx, client, app, Vec::new(), 0)
                }
                CallCtx::Subscribe { app } => {
                    // Leave the intent recorded; the next discovery
                    // refresh re-issues the subscription.
                    self.subscribed.insert(app, false);
                }
                CallCtx::Discovery => {
                    // Trader unreachable: keep serving the cached peer
                    // set, flagged stale. The discovery timer re-queries.
                    self.dir_in_flight.remove(&trader_partition(DISCOVER_SERVICE));
                    self.peers_stale = true;
                    ctx.metrics().incr(names::SUBSTRATE_DIRECTORY_STALE);
                }
                CallCtx::Poll { .. } => {
                    // Poll state is untouched: the next poll tick re-polls
                    // from the same sequence once the host is back up.
                }
                CallCtx::Failover { app } => {
                    // The resolve died with the shard; clearing the
                    // in-flight marker lets the next mark_down/refresh
                    // re-issue it.
                    self.dir_in_flight.remove(&format!("DISCOVER/apps/{app}"));
                }
                CallCtx::Auth { .. } | CallCtx::DirectoryWrite => {}
            }
            if let Some(addr) = failed_addr {
                self.mark_down(ctx, core, addr);
            }
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
