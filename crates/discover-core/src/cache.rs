//! The cached, TTL'd, invalidation-aware discovery layer.
//!
//! Each substrate keeps one [`DiscoveryCache`] shared by every request
//! the node handles (the "shared per-node cache" of the MCP discovery
//! exemplar). It caches route resolutions — which server currently
//! serves an app — under the app's naming key, with:
//!
//! * a positive TTL: a resolved route is served without directory
//!   traffic until the entry expires, then re-primed on next use;
//! * a negative TTL: a "not bound" answer is remembered too, so a dead
//!   app cannot trigger a resolve storm;
//! * explicit invalidation: a `NoSuchApp` Nak or a failover drops the
//!   entry immediately, riding the same plumbing that already drops the
//!   substrate's failover routes.
//!
//! The cache counts and records nothing itself: its substrate counts
//! each lookup outcome and invalidation as `substrate.cache.*` in its
//! node's metrics registry, and records every transition as a
//! `wire::Event::Cache` into the engine's one event stream (when history
//! or the flight recorder is on). The `discovery` oracle replays those
//! events: an invalidated entry must never be served again before an
//! authoritative re-insert, and no hit may land past its entry's expiry.

use std::collections::BTreeMap;

use simnet::{SimDuration, SimTime};
use wire::{Lookup, ServerAddr};

/// Discovery-cache tuning. Carried inside [`crate::SubstrateConfig`];
/// `None` there disables the cache entirely (the pre-sharding
/// behaviour, byte-identical schedules).
#[derive(Clone, Copy, Debug)]
pub struct DiscoveryCacheConfig {
    /// Positive-entry lifetime.
    pub ttl: SimDuration,
    /// Negative-entry ("not bound") lifetime.
    pub negative_ttl: SimDuration,
}

impl Default for DiscoveryCacheConfig {
    fn default() -> Self {
        DiscoveryCacheConfig {
            ttl: SimDuration::from_secs(5),
            negative_ttl: SimDuration::from_secs(2),
        }
    }
}

#[derive(Clone, Debug)]
struct Entry {
    /// `Some(addr)` = the app resolves to `addr`; `None` = negative
    /// ("not bound in the directory right now").
    route: Option<ServerAddr>,
    expires: SimTime,
}

/// The per-node discovery cache.
#[derive(Debug, Default)]
pub struct DiscoveryCache {
    entries: BTreeMap<String, Entry>,
}

impl DiscoveryCache {
    /// An empty cache. The flag is ignored (the cache records nothing
    /// itself). Kept only because `benchmark/src/kernels.rs` calls it;
    /// use `Default`, and delete this with the next change to
    /// `benchmark/`.
    pub fn new(_record: bool) -> Self {
        DiscoveryCache::default()
    }

    /// Look up `key` at time `now`.
    pub fn lookup(&mut self, now: SimTime, key: &str) -> Lookup {
        match self.entries.get(key) {
            Some(e) if now < e.expires => Lookup::Hit(e.route, e.expires),
            Some(_) => {
                self.entries.remove(key);
                Lookup::Expired
            }
            None => Lookup::Miss,
        }
    }

    /// Install (or refresh) an entry for `ttl`; a `None` route is a
    /// negative one.
    pub fn install(
        &mut self,
        now: SimTime,
        key: &str,
        route: Option<ServerAddr>,
        ttl: SimDuration,
    ) {
        self.entries.insert(key.to_string(), Entry { route, expires: now + ttl });
    }

    /// Install (or refresh) a positive entry. Kept only because
    /// `benchmark/src/kernels.rs` calls it; use [`DiscoveryCache::install`],
    /// and delete this with the next change to `benchmark/`.
    pub fn insert(&mut self, now: SimTime, key: &str, route: ServerAddr, ttl: SimDuration) {
        self.install(now, key, Some(route), ttl);
    }

    /// Drop `key`'s entry: a Nak or a failover said it is wrong.
    pub fn invalidate(&mut self, key: &str) {
        self.entries.remove(key);
    }

    /// Drop every entry (process restart: the new incarnation must not
    /// trust the dead one's routes).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn lookup_lifecycle_hit_expire_reprime() {
        let mut c = DiscoveryCache::default();
        let ttl = SimDuration::from_millis(100);
        assert_eq!(c.lookup(t(0), "k"), Lookup::Miss);
        c.insert(t(0), "k", ServerAddr(3), ttl);
        let hit = |route, expires| Lookup::Hit(Some(ServerAddr(route)), expires);
        assert_eq!(c.lookup(t(50), "k"), hit(3, t(100)));
        assert_eq!(c.lookup(t(100), "k"), Lookup::Expired, "expiry is exclusive at ttl");
        assert_eq!(c.lookup(t(101), "k"), Lookup::Miss, "expired entry was evicted");
        c.insert(t(101), "k", ServerAddr(4), ttl);
        assert_eq!(c.lookup(t(150), "k"), hit(4, t(201)));
    }

    #[test]
    fn negative_entries_and_invalidation() {
        let mut c = DiscoveryCache::default();
        c.install(t(0), "gone", None, SimDuration::from_millis(50));
        assert_eq!(c.lookup(t(10), "gone"), Lookup::Hit(None, t(50)));
        c.invalidate("gone");
        assert_eq!(c.lookup(t(21), "gone"), Lookup::Miss);
    }
}
