//! Consistent-hash ring for sharding directory state.
//!
//! The single trader/naming service is the paper's last scalability
//! bottleneck: every access resolves through one node. This module
//! places directory *keys* (naming paths, trader service types) on a
//! ring of directory shard nodes using consistent hashing, so the
//! directory plane scales horizontally while node join/leave moves only
//! the contractually minimal fraction of keys.
//!
//! Determinism contract: placement is a pure function of `(ring seed,
//! member names, vnode count, key)`. Two rings built from the same seed
//! and the same member sequence agree on every key, across processes and
//! across runs — the property the seed-stable simulation (and the check
//! fuzzer's byte-identical run logs) depends on.
//!
//! Movement contract (consistent hashing's defining property):
//!
//! * **join**: every key either keeps its previous owner or moves to the
//!   *new* member — never from one old member to another;
//! * **leave**: only keys owned by the departed member move; everything
//!   else stays put.
//!
//! Both are verified by seeded property tests below, together with a
//! balance bound (max/mean shard load stays small once each member
//! carries enough virtual nodes).

use std::collections::BTreeMap;

/// Virtual nodes per member: enough that the max/mean key imbalance
/// stays well under 2× for small rings (the E20 gate), cheap enough
/// that ring rebuilds are negligible.
pub const DEFAULT_VNODES: u32 = 64;

/// Deterministic 64-bit hash (FNV-1a folded through a splitmix64
/// finalizer). Not cryptographic — just stable, seedable and well mixed,
/// with no dependency on the platform or the standard library's
/// randomized hashers.
pub fn hash64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // splitmix64 finalization: avalanche the FNV state.
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// A consistent-hash ring over named members.
///
/// Members are identified by name; [`HashRing::owner`] returns the
/// member *index* (position in [`HashRing::members`]) so callers can
/// keep index-aligned side tables (e.g. `NodeId`s).
#[derive(Clone, Debug)]
pub struct HashRing {
    seed: u64,
    vnodes: u32,
    members: Vec<String>,
    /// Ring points: hash position → member index. A `BTreeMap` keeps
    /// lookups `O(log v)` and iteration deterministic.
    points: BTreeMap<u64, usize>,
    /// Membership epoch: bumped on every join/leave so routers can tell
    /// a reconfigured ring from the one they cached.
    epoch: u64,
}

impl HashRing {
    /// An empty ring with the given placement seed and vnode count per
    /// member (`0` is clamped to 1).
    pub fn new(seed: u64, vnodes: u32) -> Self {
        HashRing {
            seed,
            vnodes: vnodes.max(1),
            members: Vec::new(),
            points: BTreeMap::new(),
            epoch: 0,
        }
    }

    /// Member names, in join order (index-stable: removal never shifts
    /// the indices of remaining members — slots of departed members are
    /// simply never reused).
    pub fn members(&self) -> &[String] {
        &self.members
    }

    /// Number of live members.
    pub fn len(&self) -> usize {
        self.points.values().collect::<std::collections::BTreeSet<_>>().len()
    }

    /// True when no member is present.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Current membership epoch (starts at 0, +1 per join/leave).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Point hash of one member vnode.
    fn vnode_point(&self, name: &str, replica: u32) -> u64 {
        let mut key = Vec::with_capacity(name.len() + 5);
        key.extend_from_slice(name.as_bytes());
        key.push(0);
        key.extend_from_slice(&replica.to_le_bytes());
        hash64(self.seed, &key)
    }

    /// Add a member. Returns its index. Adding a name twice is an error
    /// in the caller; the ring asserts to keep placement unambiguous.
    pub fn add(&mut self, name: impl Into<String>) -> usize {
        let name = name.into();
        assert!(!self.members.contains(&name), "ring member {name:?} added twice");
        let index = self.members.len();
        for replica in 0..self.vnodes {
            let point = self.vnode_point(&name, replica);
            // Point collisions across members are astronomically rare
            // with a 64-bit space; deterministic tie-break: keep the
            // earlier member so placement is insertion-order stable.
            self.points.entry(point).or_insert(index);
        }
        self.members.push(name);
        self.epoch += 1;
        index
    }

    /// Remove a member by name. Keys it owned redistribute to the ring
    /// survivors; every other key keeps its owner. No-op for unknown
    /// names.
    pub fn remove(&mut self, name: &str) {
        let Some(index) = self.members.iter().position(|m| m == name) else {
            return;
        };
        self.points.retain(|_, &mut i| i != index);
        self.epoch += 1;
        // The member slot stays (index stability for side tables); the
        // name is marked dead so `add` may not reuse it.
    }

    /// Owner of `key`: the member whose vnode point is the first at or
    /// clockwise after the key's hash. `None` on an empty ring.
    pub fn owner(&self, key: &str) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let h = hash64(self.seed, key.as_bytes());
        self.points.range(h..).next().or_else(|| self.points.iter().next()).map(|(_, &i)| i)
    }

    /// Per-member key counts over an arbitrary key sample (balance
    /// diagnostics; E20 reports max/mean over the virtual-client
    /// keyspace).
    pub fn distribution<'a>(&self, keys: impl Iterator<Item = &'a str>) -> Vec<u64> {
        let mut counts = vec![0u64; self.members.len()];
        for key in keys {
            if let Some(i) = self.owner(key) {
                counts[i] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_of(seed: u64, n: usize) -> HashRing {
        let mut r = HashRing::new(seed, DEFAULT_VNODES);
        for i in 0..n {
            r.add(format!("shard{i}"));
        }
        r
    }

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("DISCOVER/apps/{}:{}", i % 17, i)).collect()
    }

    // Seeded property test: same seed + same member sequence => same
    // placement for every key, across independently built rings.
    #[test]
    fn placement_is_deterministic_across_same_seed_builds() {
        for seed in [0u64, 1, 7, 42, 0xdead_beef] {
            for n in [1usize, 2, 3, 5, 8] {
                let a = ring_of(seed, n);
                let b = ring_of(seed, n);
                assert_eq!(a.epoch(), n as u64);
                for k in keys(500) {
                    assert_eq!(a.owner(&k), b.owner(&k), "seed={seed} n={n} key={k}");
                }
            }
        }
        // Different seeds must actually explore different placements.
        let a = ring_of(1, 4);
        let b = ring_of(2, 4);
        let moved = keys(500).iter().filter(|k| a.owner(k) != b.owner(k)).count();
        assert!(moved > 0, "placement ignores the seed");
    }

    // Seeded property test: max/mean shard load bounded over a large
    // key sample, for every small ring size the builders use.
    #[test]
    fn shard_imbalance_is_bounded() {
        let sample = keys(20_000);
        for seed in 0..8u64 {
            for n in 2usize..=8 {
                let r = ring_of(seed, n);
                let counts = r.distribution(sample.iter().map(|s| s.as_str()));
                let total: u64 = counts.iter().sum();
                assert_eq!(total, sample.len() as u64);
                let mean = total as f64 / n as f64;
                let max = *counts.iter().max().unwrap() as f64;
                assert!(
                    max / mean <= 2.0,
                    "seed={seed} n={n}: max/mean = {:.3} (counts {counts:?})",
                    max / mean
                );
                assert!(counts.iter().all(|&c| c > 0), "seed={seed} n={n}: empty shard");
            }
        }
    }

    // Seeded property test: join moves keys only TO the new member.
    #[test]
    fn join_moves_only_the_minimal_key_fraction() {
        let sample = keys(5_000);
        for seed in 0..8u64 {
            for n in 1usize..=6 {
                let before = ring_of(seed, n);
                let mut after = before.clone();
                let new_index = after.add(format!("shard{n}"));
                let mut moved = 0u64;
                for k in &sample {
                    let (b, a) = (before.owner(k).unwrap(), after.owner(k).unwrap());
                    if b != a {
                        assert_eq!(
                            a, new_index,
                            "seed={seed} n={n}: key {k} moved between old members"
                        );
                        moved += 1;
                    }
                }
                // Expected movement is ~1/(n+1) of the keys; allow 2x.
                let expected = sample.len() as f64 / (n + 1) as f64;
                assert!(
                    (moved as f64) <= expected * 2.0,
                    "seed={seed} n={n}: {moved} keys moved (expected ~{expected:.0})"
                );
                assert!(moved > 0, "seed={seed} n={n}: a join that moves nothing");
            }
        }
    }

    // Seeded property test: leave moves only the departed member's keys.
    #[test]
    fn leave_moves_only_the_departed_members_keys() {
        let sample = keys(5_000);
        for seed in 0..8u64 {
            for n in 2usize..=6 {
                let before = ring_of(seed, n);
                let victim = (seed as usize) % n;
                let mut after = before.clone();
                after.remove(&format!("shard{victim}"));
                assert_eq!(after.epoch(), before.epoch() + 1);
                for k in &sample {
                    let b = before.owner(k).unwrap();
                    let a = after.owner(k).unwrap();
                    if b != victim {
                        assert_eq!(
                            a, b,
                            "seed={seed} n={n}: key {k} moved though its owner survived"
                        );
                    } else {
                        assert_ne!(
                            a, victim,
                            "seed={seed} n={n}: key {k} still on the dead member"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_ring_owns_nothing_and_epoch_tracks_churn() {
        let mut r = HashRing::new(9, 8);
        assert!(r.is_empty());
        assert_eq!(r.owner("x"), None);
        assert_eq!(r.epoch(), 0);
        r.add("a");
        r.add("b");
        assert_eq!(r.epoch(), 2);
        assert_eq!(r.len(), 2);
        r.remove("a");
        assert_eq!(r.epoch(), 3);
        assert_eq!(r.len(), 1);
        assert_eq!(r.owner("anything").map(|i| r.members[i].as_str()), Some("b"));
        r.remove("nope"); // unknown: no epoch bump
        assert_eq!(r.epoch(), 3);
    }
}
