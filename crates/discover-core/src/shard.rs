//! Directory sharding: the consistent-hash ring of Directory nodes.
//!
//! The paper's prototype runs one trader/naming service; everything
//! resolves through it. [`DirectoryRing`] spreads that state across
//! several Directory actors: each directory *key* (a naming path like
//! `DISCOVER/apps/<id>`, or a trader partition like
//! `__trader/DISCOVER`) has exactly one owning shard, chosen by
//! [`orb::HashRing`]. Every substrate holds a clone of the same ring, so
//! placement is globally consistent and seed-stable without any shard
//! coordination protocol.
//!
//! Trader offers are routed by their *service type* (all `DISCOVER`
//! offers land on one shard), which keeps peer discovery a single query
//! while naming traffic — the high-volume part — spreads across the
//! whole ring.

use orb::HashRing;
use simnet::NodeId;

/// The trader partition key for a service type: all offers of one type
/// live on the shard that owns this key, so a query stays one call.
pub fn trader_partition(service_type: &str) -> String {
    format!("__trader/{service_type}")
}

/// A consistent-hash ring of directory shard nodes. Cheap to clone; the
/// builder constructs it once and hands every substrate the same copy.
#[derive(Clone, Debug)]
pub struct DirectoryRing {
    ring: HashRing,
    nodes: Vec<NodeId>,
}

impl DirectoryRing {
    /// An empty ring with the given placement seed.
    pub fn new(seed: u64) -> Self {
        DirectoryRing { ring: HashRing::new(seed, orb::DEFAULT_VNODES), nodes: Vec::new() }
    }

    /// The unsharded arrangement: one directory node owning every key.
    /// Placement is then key-independent, so this is byte-identical to
    /// the pre-sharding single-trader behaviour.
    pub fn single(node: NodeId) -> Self {
        let mut r = DirectoryRing::new(0);
        r.add("directory", node);
        r
    }

    /// Add a shard. Shards must be added in the same order on every
    /// ring copy (the builder does this once, before cloning).
    pub fn add(&mut self, name: impl Into<String>, node: NodeId) {
        let index = self.ring.add(name);
        debug_assert_eq!(index, self.nodes.len());
        self.nodes.push(node);
    }

    /// The shard index owning `key`; `None` on an empty ring.
    pub fn shard_of(&self, key: &str) -> Option<usize> {
        self.ring.owner(key)
    }

    /// The directory node owning `key`; `None` on an empty ring.
    pub fn node_for(&self, key: &str) -> Option<NodeId> {
        self.shard_of(key).map(|i| self.nodes[i])
    }

    /// First shard (the builder's original `directory` node; used for
    /// single-node diagnostics and back-compat handles).
    pub fn primary(&self) -> NodeId {
        self.nodes[0]
    }

    /// All shard nodes, in ring-join order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no shard has been added yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ring membership epoch (bumps once per added shard).
    pub fn epoch(&self) -> u64 {
        self.ring.epoch()
    }

    /// True if `node` is one of the ring's shards (ingress classification:
    /// replies from any shard are directory replies).
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// Per-shard key counts over a key sample (balance diagnostics).
    pub fn distribution<'a>(&self, keys: impl Iterator<Item = &'a str>) -> Vec<u64> {
        self.ring.distribution(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_ring_routes_every_key_to_the_one_node() {
        let node = NodeId(7);
        let r = DirectoryRing::single(node);
        assert_eq!(r.len(), 1);
        assert_eq!(r.primary(), node);
        for key in ["DISCOVER/apps/1:0", "__trader/DISCOVER", "DISCOVER/servers/x", ""] {
            assert_eq!(r.node_for(key), Some(node));
        }
    }

    #[test]
    fn an_empty_ring_owns_no_key() {
        let r = DirectoryRing::new(1);
        assert!(r.is_empty());
        assert_eq!(r.shard_of("DISCOVER/apps/1:0"), None);
        assert_eq!(r.node_for("__trader/DISCOVER"), None);
    }

    #[test]
    fn sharded_ring_spreads_keys_and_is_clone_consistent() {
        let mut a = DirectoryRing::new(42);
        for i in 0u32..4 {
            a.add(format!("directory{i}"), NodeId(100 + i));
        }
        let b = a.clone();
        let keys: Vec<String> =
            (0..200).map(|i| format!("DISCOVER/apps/{}:{}", i % 9, i)).collect();
        let mut used = std::collections::BTreeSet::new();
        for k in &keys {
            assert_eq!(a.node_for(k), b.node_for(k));
            used.insert(a.shard_of(k));
        }
        assert_eq!(used.len(), 4, "some shard owns no keys at all");
        assert_eq!(a.epoch(), 4);
        assert!(a.contains(NodeId(101)));
        assert!(!a.contains(NodeId(99)));
    }
}
