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
//! The cache counts nothing itself: the substrate counts each lookup
//! outcome and invalidation as `substrate.cache.*` in its node's metrics
//! registry. Every transition can be recorded into an append-only event
//! log (enabled by the check harness, off for benches) which the
//! `discovery` oracle replays: an invalidated generation must never be
//! served again, and no hit may land past its entry's expiry.

use std::collections::BTreeMap;

use simnet::{SimDuration, SimTime};
use wire::ServerAddr;

/// Discovery-cache tuning. Carried inside [`crate::SubstrateConfig`];
/// `None` there disables the cache entirely (the pre-sharding
/// behaviour, byte-identical schedules).
#[derive(Clone, Copy, Debug)]
pub struct DiscoveryCacheConfig {
    /// Positive-entry lifetime.
    pub ttl: SimDuration,
    /// Negative-entry ("not bound") lifetime.
    pub negative_ttl: SimDuration,
    /// Record an event log for the directory-consistency oracle. Off by
    /// default: correctness checks turn it on, benches leave it off so
    /// E20-scale runs don't accumulate per-lookup history.
    pub record: bool,
}

impl Default for DiscoveryCacheConfig {
    fn default() -> Self {
        DiscoveryCacheConfig {
            ttl: SimDuration::from_secs(5),
            negative_ttl: SimDuration::from_secs(2),
            record: false,
        }
    }
}

/// What a cache transition was, for the oracle's replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheEventKind {
    /// A positive entry was (re)installed.
    Insert,
    /// A negative entry was (re)installed.
    InsertNegative,
    /// A fresh positive entry was served.
    Hit,
    /// A fresh negative entry was served.
    NegativeHit,
    /// A lookup found nothing.
    Miss,
    /// A lookup found only an expired entry (dropped on the spot).
    Expired,
    /// The entry was explicitly invalidated (Nak/failover).
    Invalidate,
}

/// One recorded cache transition.
#[derive(Clone, Debug)]
pub struct CacheEvent {
    /// Simulation time of the transition.
    pub at: SimTime,
    /// Directory key (naming path).
    pub key: String,
    /// Transition kind.
    pub kind: CacheEventKind,
    /// Entry generation: the number of inserts this key had seen when
    /// the event fired. A `Hit` whose generation matches a preceding
    /// `Invalidate` with no `Insert` in between is a served-stale bug.
    pub generation: u64,
    /// Expiry of the entry involved (inserts/hits), or `SimTime::ZERO`.
    pub expires: SimTime,
}

#[derive(Clone, Debug)]
struct Entry {
    /// `Some(addr)` = the app resolves to `addr`; `None` = negative
    /// ("not bound in the directory right now").
    route: Option<ServerAddr>,
    expires: SimTime,
}

/// Outcome of a cache lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// Fresh positive entry: route through this address.
    Hit(ServerAddr),
    /// Fresh negative entry: the directory said "not bound" recently.
    NegativeHit,
    /// Nothing cached.
    Miss,
    /// Entry present but expired (evicted by this lookup).
    Expired,
}

/// The per-node discovery cache.
#[derive(Debug, Default)]
pub struct DiscoveryCache {
    entries: BTreeMap<String, Entry>,
    /// Insert count per key — the generation stamp for oracle replay.
    generations: BTreeMap<String, u64>,
    /// Event log (only when [`DiscoveryCacheConfig::record`] is set).
    pub events: Vec<CacheEvent>,
    record: bool,
}

impl DiscoveryCache {
    /// A cache configured for recording or not.
    pub fn new(record: bool) -> Self {
        DiscoveryCache { record, ..DiscoveryCache::default() }
    }

    fn log(&mut self, at: SimTime, key: &str, kind: CacheEventKind, expires: SimTime) {
        if self.record {
            let generation = self.generations.get(key).copied().unwrap_or(0);
            self.events.push(CacheEvent { at, key: key.to_string(), kind, generation, expires });
        }
    }

    /// Look up `key` at time `now`.
    pub fn lookup(&mut self, now: SimTime, key: &str) -> Lookup {
        match self.entries.get(key) {
            Some(e) if now < e.expires => {
                let (kind, outcome) = match e.route {
                    Some(addr) => (CacheEventKind::Hit, Lookup::Hit(addr)),
                    None => (CacheEventKind::NegativeHit, Lookup::NegativeHit),
                };
                let expires = e.expires;
                self.log(now, key, kind, expires);
                outcome
            }
            Some(_) => {
                self.entries.remove(key);
                self.log(now, key, CacheEventKind::Expired, SimTime::ZERO);
                Lookup::Expired
            }
            None => {
                self.log(now, key, CacheEventKind::Miss, SimTime::ZERO);
                Lookup::Miss
            }
        }
    }

    /// Install (or refresh) a positive entry.
    pub fn insert(&mut self, now: SimTime, key: &str, route: ServerAddr, ttl: SimDuration) {
        *self.generations.entry(key.to_string()).or_insert(0) += 1;
        let expires = now + ttl;
        self.entries.insert(key.to_string(), Entry { route: Some(route), expires });
        self.log(now, key, CacheEventKind::Insert, expires);
    }

    /// Install (or refresh) a negative entry.
    pub fn insert_negative(&mut self, now: SimTime, key: &str, ttl: SimDuration) {
        *self.generations.entry(key.to_string()).or_insert(0) += 1;
        let expires = now + ttl;
        self.entries.insert(key.to_string(), Entry { route: None, expires });
        self.log(now, key, CacheEventKind::InsertNegative, expires);
    }

    /// Explicitly invalidate `key`. The `Invalidate` event is always
    /// logged; `evict` controls whether the entry is actually dropped —
    /// the seeded `Mutation::StaleCache` bug passes `false` here, which is
    /// exactly the bug the discovery oracle exists to catch (a generation
    /// served again after its invalidation).
    pub fn invalidate(&mut self, now: SimTime, key: &str, evict: bool) {
        self.log(now, key, CacheEventKind::Invalidate, SimTime::ZERO);
        if evict {
            self.entries.remove(key);
        }
    }

    /// Drop every entry (process restart: the new incarnation must not
    /// trust the dead one's routes).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of live (possibly expired-but-unswept) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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
        let mut c = DiscoveryCache::new(true);
        let ttl = SimDuration::from_millis(100);
        assert_eq!(c.lookup(t(0), "k"), Lookup::Miss);
        c.insert(t(0), "k", ServerAddr(3), ttl);
        assert_eq!(c.lookup(t(50), "k"), Lookup::Hit(ServerAddr(3)));
        assert_eq!(c.lookup(t(100), "k"), Lookup::Expired, "expiry is exclusive at ttl");
        assert_eq!(c.lookup(t(101), "k"), Lookup::Miss, "expired entry was evicted");
        c.insert(t(101), "k", ServerAddr(4), ttl);
        assert_eq!(c.lookup(t(150), "k"), Lookup::Hit(ServerAddr(4)));
        // Generations stamp inserts 1, 2; the second hit carries gen 2.
        let last = c.events.last().unwrap();
        assert_eq!(last.kind, CacheEventKind::Hit);
        assert_eq!(last.generation, 2);
    }

    #[test]
    fn negative_entries_and_invalidation() {
        let mut c = DiscoveryCache::new(true);
        c.insert_negative(t(0), "gone", SimDuration::from_millis(50));
        assert_eq!(c.lookup(t(10), "gone"), Lookup::NegativeHit);
        c.invalidate(t(20), "gone", true);
        assert_eq!(c.lookup(t(21), "gone"), Lookup::Miss);
        // A faulty (non-evicting) invalidation leaves the entry served —
        // the oracle's job to flag, not the cache's.
        c.insert(t(30), "stale", ServerAddr(9), SimDuration::from_millis(100));
        c.invalidate(t(40), "stale", false);
        assert_eq!(c.lookup(t(50), "stale"), Lookup::Hit(ServerAddr(9)));
    }
}
