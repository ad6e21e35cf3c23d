//! Typed metric definitions and the per-node metrics registry.
//!
//! * [`names`] defines every metric key used by the DISCOVER stack as a
//!   typed constant ([`CounterDef`] / [`GaugeDef`] / [`TimerDef`]); the
//!   orb, substrate, server and client layers reference these instead of
//!   inline literals, so a typo cannot silently create a new counter. A
//!   constant carries its position in the list as a dense slot, so a
//!   write through it indexes the sink's slot table instead of comparing
//!   key strings down a tree.
//! * [`MetricsRegistry`] is a per-node sink and the one store of every
//!   measurement a node makes: the engine keeps one per node and
//!   `Ctx::metrics()` hands out that node's. The run-wide view
//!   (`Engine::stats`) is their sum, computed when read.

use crate::stats::Stats;
use crate::time::SimDuration;

/// A counter metric name (monotone event count) and its dense slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterDef {
    key: &'static str,
    slot: u16,
}

/// A gauge metric name (last-write-wins level) and its dense slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeDef {
    key: &'static str,
    slot: u16,
}

/// A timer metric name (duration histogram) and its dense slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerDef {
    key: &'static str,
    slot: u16,
}

macro_rules! def_accessors {
    ($($def:ident)*) => {$(
        impl $def {
            /// The underlying key string.
            pub const fn key(self) -> &'static str {
                self.key
            }

            /// Position in [`names::ALL`]: the index this definition
            /// writes through in a [`Stats`] slot table.
            pub(crate) const fn slot(self) -> usize {
                self.slot as usize
            }
        }
    )*};
}
def_accessors!(CounterDef GaugeDef TimerDef);

/// Declares the typed constants of [`names`] and numbers them: a
/// definition's slot is its position in the list, and [`names::ALL`] is
/// the same list, so no constant can be unlisted or share a slot.
macro_rules! metric_names {
    ($($(#[$doc:meta])* $name:ident: $def:ident = $key:literal;)*) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        enum Slot {
            $($name,)*
        }
        $(
            $(#[$doc])*
            pub const $name: $def = $def { key: $key, slot: Slot::$name as u16 };
        )*
        /// Every key defined in this module, by slot. A duplicated key
        /// string would silently merge two metrics into one line; the
        /// uniqueness self-test walks this list.
        pub const ALL: &[&str] = &[$($key,)*];
    };
}

/// Every metric name in the DISCOVER stack, one place, no drift.
///
/// Grouped by subsystem; the key string's first dotted component is the
/// subsystem label used in reports.
pub mod names {
    use super::{CounterDef, GaugeDef, TimerDef};

    metric_names! {
        // -- engine ----------------------------------------------------------
        /// Node crashes executed by the engine.
        ENGINE_CRASHES: CounterDef = "engine.crashes";
        /// Deliveries/timers dropped because the target node was down or the
        /// event straddled a crash epoch.
        ENGINE_DOWN_DROPS: CounterDef = "engine.down_drops";
        /// Flight-recorder dumps triggered (breaker open, shed burst,
        /// deadline-expiry spike).
        ENGINE_FLIGHT_DUMPS: CounterDef = "engine.flight_dumps";

        // -- client (portal) -------------------------------------------------
        /// Steering operations issued by portals.
        CLIENT_OPS_ISSUED: CounterDef = "client.ops_issued";
        /// Lock acquisitions retried after a denial.
        CLIENT_LOCK_RETRIES: CounterDef = "client.lock_retries";
        /// End-to-end operation latency (issue -> OpDone/Error).
        CLIENT_OP_LATENCY: TimerDef = "client.op_latency";
        /// Lock acquisition latency.
        CLIENT_LOCK_LATENCY: TimerDef = "client.lock_latency";
        /// Operations rejected by server admission control (`Overloaded`).
        CLIENT_OPS_REJECTED: CounterDef = "client.ops_rejected";
        /// Operations whose reply was `DeadlineExceeded` (dropped en route).
        CLIENT_OPS_EXPIRED: CounterDef = "client.ops_expired";
        /// Resume requests issued after a session token stopped validating.
        CLIENT_RESUMES: CounterDef = "client.resumes";
        /// Resumes acknowledged by the server (parked session revived).
        CLIENT_RESUMES_OK: CounterDef = "client.resumes_ok";
        /// Resume attempts abandoned for a full re-login (session reclaimed).
        CLIENT_RESUME_FALLBACKS: CounterDef = "client.resume_fallbacks";
        /// In-flight operations written off as lost across a resume.
        CLIENT_OPS_ABANDONED: CounterDef = "client.ops_abandoned";
        /// Status-page probes issued by portals.
        CLIENT_STATUS_PROBES: CounterDef = "client.status_probes";
        /// Status-probe round-trip latency (issue -> StatusReport).
        CLIENT_STATUS_LATENCY: TimerDef = "client.status_latency";

        // -- server (session/handler layer) ----------------------------------
        /// HTTP requests handled.
        SERVER_HTTP_REQUESTS: CounterDef = "server.http.requests";
        /// HTTP responses sent.
        SERVER_HTTP_RESPONSES: CounterDef = "server.http.responses";
        /// Successful logins.
        SERVER_LOGINS: CounterDef = "server.logins";
        /// Requests denied by the ACL.
        SERVER_ACL_DENIED: CounterDef = "server.acl.denied";
        /// Steering operations accepted.
        SERVER_OPS: CounterDef = "server.ops";
        /// Lock requests denied (already held).
        SERVER_LOCK_DENIED: CounterDef = "server.lock.denied";
        /// Steering locks force-released because their lease expired or their
        /// relay peer was observed down.
        SERVER_LOCK_EVICTED: CounterDef = "server.lock.evicted";
        /// Poll requests served.
        SERVER_POLL_REQUESTS: CounterDef = "server.poll.requests";
        /// Updates delivered through poll responses.
        SERVER_POLL_DELIVERED: CounterDef = "server.poll.delivered";
        /// Poll requests whose batch carried at least one message (the
        /// denominator for frames-per-poll: every nonempty batch ships in
        /// exactly one envelope with one framing header).
        SERVER_POLL_NONEMPTY: CounterDef = "server.poll.nonempty";
        /// Collaboration updates fanned out to local session members.
        SERVER_COLLAB_LOCAL_FANOUT: CounterDef = "server.collab.local_fanout";
        /// Fan-out targets (local fifos, archive, proxy log, peer pushes)
        /// that reused a broadcast's single frozen encoding instead of
        /// re-serializing — the encode-once optimisation's reuse count.
        SERVER_FANOUT_PAYLOAD_REUSE: CounterDef = "server.fanout_payload_reuse";
        /// Update broadcasts routed (each = exactly one DBP serialization).
        SERVER_COLLAB_BROADCASTS: CounterDef = "server.collab.broadcasts";
        /// Full DBP serializer walks performed by the wire codec (folded in
        /// from the codec's thread-local stats at the end of a run).
        WIRE_ENCODE_CALLS: CounterDef = "wire.encode_calls";
        /// Bytes produced by those walks.
        WIRE_BYTES_ENCODED: CounterDef = "wire.bytes_encoded";
        /// Pre-encoded payloads spliced verbatim (serializer walks avoided).
        WIRE_PAYLOAD_SPLICES: CounterDef = "wire.payload_splices";
        /// TCP frames handled.
        SERVER_TCP_FRAMES: CounterDef = "server.tcp.frames";
        /// Unexpected TCP frames.
        SERVER_TCP_UNEXPECTED: CounterDef = "server.tcp.unexpected";
        /// Application daemon registrations accepted.
        SERVER_DAEMON_REGISTERED: CounterDef = "server.daemon.registered";
        /// Application daemon registrations rejected.
        SERVER_DAEMON_REGISTER_REJECTED: CounterDef = "server.daemon.register_rejected";
        /// Application daemon deregistrations.
        SERVER_DAEMON_DEREGISTERED: CounterDef = "server.daemon.deregistered";
        /// Commands buffered while an application was computing.
        SERVER_DAEMON_BUFFERED: CounterDef = "server.daemon.buffered";
        /// Buffered commands flushed after a phase change.
        SERVER_DAEMON_FLUSHED: CounterDef = "server.daemon.flushed";
        /// Inbound GIOP calls handled (skeleton layer).
        SERVER_GIOP_CALLS: CounterDef = "server.giop.calls";
        /// GIOP replies with no matching pending call.
        SERVER_GIOP_STRAY_REPLY: CounterDef = "server.giop.stray_reply";
        /// Peer calls rejected by the inbound throttle.
        SERVER_PEER_THROTTLED: CounterDef = "server.peer.throttled";
        /// Peer authentication requests served.
        SERVER_PEER_AUTH: CounterDef = "server.peer.auth";
        /// Proxied steering operations executed for peers.
        SERVER_PEER_PROXY_OPS: CounterDef = "server.peer.proxy_ops";
        /// Lock requests arriving from peers.
        SERVER_PEER_LOCK_REQUESTS: CounterDef = "server.peer.lock_requests";
        /// Subscription requests arriving from peers.
        SERVER_PEER_SUBSCRIBES: CounterDef = "server.peer.subscribes";
        /// Collaboration updates arriving from peers.
        SERVER_PEER_COLLAB_UPDATES: CounterDef = "server.peer.collab_updates";
        /// Remote authentications completed back to the requesting session.
        SERVER_REMOTE_AUTH_COMPLETIONS: CounterDef = "server.remote.auth_completions";
        /// Idle sessions reaped.
        SERVER_SESSIONS_REAPED: CounterDef = "server.sessions.reaped";
        /// Idle sessions parked (lease lapsed; FIFO and lock interest kept
        /// under the park TTL instead of torn down).
        SERVER_SESSIONS_PARKED: CounterDef = "server.sessions.parked";
        /// Parked sessions resumed in place by a returning client.
        SERVER_SESSIONS_RESUMED: CounterDef = "server.sessions.resumed";
        /// Parked sessions reclaimed because their park TTL expired.
        SERVER_SESSIONS_RECLAIMED: CounterDef = "server.sessions.reclaimed";
        /// Resume attempts deferred by the paced-recovery admission cap.
        SERVER_RESUME_THROTTLED: CounterDef = "server.resume.throttled";
        /// Archive records replayed to resuming clients (missed suffixes).
        SERVER_RESUME_REPLAYED: CounterDef = "server.resume.replayed";
        /// Requests rejected at ingress by the inflight admission budget.
        SERVER_ADMISSION_REJECTED: CounterDef = "server.admission.rejected";
        /// Requests already expired when they reached server ingress.
        SERVER_DEADLINE_INGRESS_EXPIRED: CounterDef = "server.deadline.ingress_expired";
        /// Operations expired at dispatch-to-application time.
        SERVER_DEADLINE_DISPATCH_EXPIRED: CounterDef = "server.deadline.dispatch_expired";
        /// Buffered operations expired while waiting in a proxy buffer
        /// (dropped at dequeue instead of dispatched).
        SERVER_DEADLINE_DEQUEUE_EXPIRED: CounterDef = "server.deadline.dequeue_expired";
        /// Buffered operations shed from a bounded proxy buffer on overflow
        /// (lowest-priority-oldest first).
        SERVER_PROXY_SHED: CounterDef = "server.proxy.shed";
        /// Shed replies that carried a redirect hint to a known mirror.
        SERVER_PROXY_SHED_REDIRECTED: CounterDef = "server.proxy.shed_redirected";
        /// Messages enqueued into per-client webserv FIFO buffers.
        WEBSERV_FIFO_ENQUEUED: CounterDef = "webserv.fifo.enqueued";
        /// Messages dropped (oldest evicted) from full webserv FIFO buffers.
        WEBSERV_FIFO_DROPPED: CounterDef = "webserv.fifo.dropped";
        /// High-water-mark growth of webserv FIFO buffers, kept as a
        /// monotone counter of peak increments so the run-wide view, which
        /// sums counters, still carries every node's queue peaks.
        WEBSERV_FIFO_PEAK: CounterDef = "webserv.fifo.peak";
        /// View-class updates coalesced in place: a still-queued superseded
        /// update was replaced by its successor instead of enqueuing behind
        /// it (only counted on servers with `coalesce_fifo` enabled).
        WEBSERV_FIFO_COALESCED: CounterDef = "webserv.fifo.coalesced";
        /// Read-only status snapshots served (`ClientRequest::Status`).
        SERVER_STATUS_REQUESTS: CounterDef = "server.status.requests";
        /// Archive snapshots taken at segment boundaries.
        SERVER_ARCHIVE_SNAPSHOTS: CounterDef = "server.archive.snapshots";
        /// Superseded view-class records dropped by closed-segment compaction.
        SERVER_ARCHIVE_COMPACTED: CounterDef = "server.archive.compacted";
        /// Snapshot-aware catch-up requests served (`ClientRequest::CatchUp`).
        SERVER_CATCHUP_REQUESTS: CounterDef = "server.catchup.requests";
        /// Catch-up responses that rode a snapshot instead of a full prefix.
        SERVER_CATCHUP_SNAPSHOT_HITS: CounterDef = "server.catchup.snapshot_hits";
        /// Tail records shipped in catch-up responses (bounded by the
        /// snapshot interval, not the session length — the E19 observable).
        SERVER_CATCHUP_RECORDS: CounterDef = "server.catchup.records";
        /// Restart-from-archive recoveries executed by a server core.
        SERVER_RECOVERIES: CounterDef = "server.recoveries";
        /// Local applications whose proxy state was rebuilt from the archive.
        SERVER_RECOVERED_APPS: CounterDef = "server.recovered_apps";

        // -- substrate (CORBA-ish middleware layer) --------------------------
        /// Trader/directory discovery queries issued.
        SUBSTRATE_DISCOVERY_QUERIES: CounterDef = "substrate.discovery.queries";
        /// Peers found by discovery responses.
        SUBSTRATE_DISCOVERY_PEERS_FOUND: CounterDef = "substrate.discovery.peers_found";
        /// Object references re-bound after a stale entry.
        SUBSTRATE_REBINDS: CounterDef = "substrate.rebinds";
        /// Cross-server subscriptions issued.
        SUBSTRATE_SUBSCRIBES: CounterDef = "substrate.subscribes";
        /// Remote authentication calls issued.
        SUBSTRATE_REMOTE_AUTH_CALLS: CounterDef = "substrate.remote_auth.calls";
        /// Remote authentications denied by the remote ACL.
        SUBSTRATE_REMOTE_AUTH_DENIED: CounterDef = "substrate.remote_auth.denied";
        /// Remote steering operations issued.
        SUBSTRATE_REMOTE_OPS: CounterDef = "substrate.remote_ops";
        /// Remote lock operations issued.
        SUBSTRATE_REMOTE_LOCKS: CounterDef = "substrate.remote_locks";
        /// Calls fast-failed because the peer was known down.
        SUBSTRATE_FASTFAILS: CounterDef = "substrate.fastfails";
        /// Collaboration updates pushed to subscribed peers.
        SUBSTRATE_COLLAB_PUSHES: CounterDef = "substrate.collab.pushes";
        /// Collaboration updates forwarded to an application's host server.
        SUBSTRATE_COLLAB_FORWARDS: CounterDef = "substrate.collab.forwards";
        /// Control events announced to the peer group.
        SUBSTRATE_CONTROL_EVENTS: CounterDef = "substrate.control.events";
        /// Replies whose pending call had already been forgotten.
        SUBSTRATE_REPLIES_ORPHANED: CounterDef = "substrate.replies.orphaned";
        /// System-exception replies received.
        SUBSTRATE_REPLIES_EXCEPTIONS: CounterDef = "substrate.replies.exceptions";
        /// Replies that did not match their continuation's expected shape.
        SUBSTRATE_REPLIES_MISMATCHED: CounterDef = "substrate.replies.mismatched";
        /// Poll batches executed.
        SUBSTRATE_POLLS: CounterDef = "substrate.polls";
        /// Broker retry attempts (re-issues after timeout).
        SUBSTRATE_RETRIES: CounterDef = "substrate.retries";
        /// Calls abandoned because the peer's circuit breaker was open.
        SUBSTRATE_BREAKER_OPEN: CounterDef = "substrate.breaker_open";
        /// Calls that exhausted their retry budget.
        SUBSTRATE_TIMEOUTS: CounterDef = "substrate.timeouts";
        /// Failovers to a mirrored application on another peer.
        SUBSTRATE_FAILOVERS: CounterDef = "substrate.failovers";
        /// Directory entries dropped as stale.
        SUBSTRATE_DIRECTORY_STALE: CounterDef = "substrate.directory.stale";
        /// Cached routes invalidated immediately on a peer Nak (the target
        /// answered `NoSuchApp` for an app our directory said it hosted).
        SUBSTRATE_ROUTES_INVALIDATED: CounterDef = "substrate.routes.invalidated";
        /// Remote calls fast-failed because the request's deadline had
        /// already passed at dispatch time.
        SUBSTRATE_DEADLINE_FASTFAIL: CounterDef = "substrate.deadline.fastfail";
        /// Broker retries abandoned because the next attempt would land past
        /// the request's deadline (remaining budget too small).
        SUBSTRATE_DEADLINE_GAVE_UP: CounterDef = "substrate.deadline.gave_up";
        /// Discovery-cache lookups served from a fresh positive entry.
        SUBSTRATE_CACHE_HITS: CounterDef = "substrate.cache.hits";
        /// Discovery-cache lookups served from a fresh negative entry.
        SUBSTRATE_CACHE_NEG_HITS: CounterDef = "substrate.cache.negative_hits";
        /// Discovery-cache lookups that found no entry.
        SUBSTRATE_CACHE_MISSES: CounterDef = "substrate.cache.misses";
        /// Discovery-cache lookups that found only an expired entry.
        SUBSTRATE_CACHE_EXPIRED: CounterDef = "substrate.cache.expired";
        /// Discovery-cache entries explicitly invalidated (Nak/failover).
        SUBSTRATE_CACHE_INVALIDATIONS: CounterDef = "substrate.cache.invalidations";
        /// Directory queries coalesced onto an identical in-flight call
        /// (one trader/naming call per key per miss window).
        SUBSTRATE_QUERIES_COALESCED: CounterDef = "substrate.queries.coalesced";
        /// Directory-ring shard count seen by this substrate.
        SUBSTRATE_RING_SHARDS: GaugeDef = "substrate.ring.shards";
        /// Directory-ring membership epoch seen by this substrate.
        SUBSTRATE_RING_EPOCH: GaugeDef = "substrate.ring.epoch";

        // -- node (actor shell) ----------------------------------------------
        /// DiscoverNode restarts (crash recovery).
        NODE_RESTARTS: CounterDef = "node.restarts";
        /// HTTP responses arriving at a server node (unexpected direction).
        NODE_UNEXPECTED_HTTP_RESPONSE: CounterDef = "node.unexpected.http_response";

        // -- standalone server shell -----------------------------------------
        /// Remote-auth effects dropped by the standalone (peerless) server.
        STANDALONE_DROPPED_REMOTE_AUTH: CounterDef = "standalone.dropped.remote_auth";
        /// Announce effects dropped by the standalone server.
        STANDALONE_DROPPED_ANNOUNCE: CounterDef = "standalone.dropped.announce";
        /// Other peer effects dropped by the standalone server.
        STANDALONE_DROPPED_OTHER: CounterDef = "standalone.dropped.other";

        // -- cog kit ----------------------------------------------------------
        /// Jobs launched by the CoG gateway.
        COG_JOBS_LAUNCHED: CounterDef = "cog.jobs_launched";
        /// Jobs submitted to the batch simulator.
        COG_JOBS_SUBMITTED: CounterDef = "cog.jobs_submitted";
        /// Launch requests accepted.
        COG_LAUNCHES_ACCEPTED: CounterDef = "cog.launches_accepted";

        // -- appsim driver ----------------------------------------------------
        /// Registration NAKs received by the application driver.
        DRIVER_REGISTER_NAK: CounterDef = "driver.register_nak";
    }
}

/// Per-node measurement sink.
///
/// Same storage semantics as [`Stats`] (exact histograms, key-ordered
/// reads, nothing allocated before the first write); the node label lives
/// on the registry, not in the key, so keys stay comparable across nodes
/// and registries sum key by key ([`Stats::merge`]).
#[derive(Clone, Debug)]
pub struct MetricsRegistry {
    node: String,
    stats: Stats,
}

impl MetricsRegistry {
    /// An empty registry for node `node`.
    pub fn new(node: impl Into<String>) -> Self {
        MetricsRegistry { node: node.into(), stats: Stats::new() }
    }

    /// The node this registry belongs to.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// Increment a counter by one.
    pub fn incr(&mut self, c: CounterDef) {
        self.stats.add_def(c, 1);
    }

    /// Add `n` to a counter.
    pub fn add(&mut self, c: CounterDef, n: u64) {
        self.stats.add_def(c, n);
    }

    /// Read a counter (zero if never written).
    pub fn counter(&self, c: CounterDef) -> u64 {
        self.stats.counter(c.key())
    }

    /// Set a gauge.
    pub fn set_gauge(&mut self, g: GaugeDef, v: f64) {
        self.stats.set_gauge_def(g, v);
    }

    /// Read a gauge (zero if never written).
    pub fn gauge(&self, g: GaugeDef) -> f64 {
        self.stats.gauge(g.key())
    }

    /// Record a duration sample.
    pub fn record(&mut self, t: TimerDef, d: SimDuration) {
        self.stats.record_def(t, d);
    }

    /// Increment a dynamically-named counter (directory operations and
    /// control-event kinds carry runtime labels; everything else should
    /// use a [`names`] constant).
    pub fn incr_dynamic(&mut self, key: &str) {
        self.stats.incr(key);
    }

    /// The raw per-node sink (for report iteration).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_counts_per_node() {
        let mut r = MetricsRegistry::new("gw");
        r.incr(names::SUBSTRATE_RETRIES);
        r.add(names::SUBSTRATE_RETRIES, 2);
        assert_eq!(r.counter(names::SUBSTRATE_RETRIES), 3);
        assert_eq!(r.counter(names::SUBSTRATE_TIMEOUTS), 0);
        assert_eq!(r.node(), "gw");
    }

    #[test]
    fn merge_adds_counters_overwrites_gauges_pools_histograms() {
        let mut a = MetricsRegistry::new("a");
        let mut b = MetricsRegistry::new("b");
        a.add(names::SERVER_OPS, 5);
        b.add(names::SERVER_OPS, 7);
        a.set_gauge(names::SUBSTRATE_RING_EPOCH, 1.0);
        b.set_gauge(names::SUBSTRATE_RING_EPOCH, 9.0);
        a.record(names::CLIENT_OP_LATENCY, SimDuration::from_micros(10));
        b.record(names::CLIENT_OP_LATENCY, SimDuration::from_micros(30));
        let mut sum = a.stats().clone();
        sum.merge(b.stats());
        assert_eq!(sum.counter(names::SERVER_OPS.key()), 12);
        assert_eq!(sum.gauge(names::SUBSTRATE_RING_EPOCH.key()), 9.0);
        let h = sum.histogram(names::CLIENT_OP_LATENCY.key()).unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean().as_micros(), 20);
    }

    #[test]
    fn metric_keys_are_unique() {
        // A duplicated key string would silently merge two metrics.
        let mut seen = std::collections::HashSet::new();
        for k in names::ALL {
            assert!(seen.insert(*k), "duplicate metric key {k:?} in names::ALL");
        }
    }

    #[test]
    fn a_definitions_slot_is_its_position_in_all() {
        for (def, slot) in [
            (names::ENGINE_CRASHES, 0),
            (names::ENGINE_FLIGHT_DUMPS, 2),
            (names::DRIVER_REGISTER_NAK, names::ALL.len() - 1),
        ] {
            assert_eq!(def.slot(), slot);
            assert_eq!(names::ALL[slot], def.key());
        }
        assert_eq!(names::ALL[names::CLIENT_OP_LATENCY.slot()], "client.op_latency");
        assert_eq!(names::ALL[names::SUBSTRATE_RING_EPOCH.slot()], "substrate.ring.epoch");
    }
}
