//! Address book: maps DISCOVER server addresses to simulation nodes.
//!
//! In the real system an IOR's host/port is routable directly; in the
//! simulation an [`ObjectRef`]'s [`ServerAddr`] must be translated to the
//! [`NodeId`] hosting that server. The book is shared (cheaply cloned)
//! between all actors of one simulation and updated as servers join.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use simnet::NodeId;
use wire::ServerAddr;

/// Shared, concurrently readable address registry.
#[derive(Clone, Default)]
pub struct AddressBook {
    inner: Arc<RwLock<HashMap<ServerAddr, NodeId>>>,
}

impl AddressBook {
    /// Create an empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or update) the node hosting `addr`.
    pub fn register(&self, addr: ServerAddr, node: NodeId) {
        self.inner.write().insert(addr, node);
    }

    /// Node hosting `addr`, if known.
    pub fn resolve(&self, addr: ServerAddr) -> Option<NodeId> {
        self.inner.read().get(&addr).copied()
    }

    /// Number of registered servers.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// True if no servers are registered.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_resolve() {
        let book = AddressBook::new();
        assert!(book.is_empty());
        book.register(ServerAddr(1), NodeId(10));
        book.register(ServerAddr(2), NodeId(20));
        assert_eq!(book.len(), 2);
        assert_eq!(book.resolve(ServerAddr(1)), Some(NodeId(10)));
        assert_eq!(book.resolve(ServerAddr(3)), None);
    }

    #[test]
    fn clones_share_state() {
        let a = AddressBook::new();
        let b = a.clone();
        a.register(ServerAddr(9), NodeId(3));
        assert_eq!(b.resolve(ServerAddr(9)), Some(NodeId(3)));
    }
}
