//! # discover-core — the DISCOVER middleware substrate
//!
//! The paper's primary contribution (§3, §5): a middleware substrate that
//! peer-to-peer integrates geographically distributed DISCOVER
//! interaction/collaboration servers, so a client connected to its local
//! server gains global, secure, collaborative access to every application
//! in the network.
//!
//! * [`Substrate`] — the client side of the two-level peer protocol:
//!   trader-based server discovery, naming-service application binding,
//!   `DiscoverCorbaServer` (level 1) and `CorbaProxy` (level 2) calls,
//!   collaboration fan-out (one message per remote server), distributed
//!   lock relay, archived-history fetch, control-channel events, and a
//!   poll-mode alternative to push ([`CollabMode`]).
//! * [`DiscoverNode`] — a complete peer-enabled server actor
//!   (`discover-server` core + substrate).
//! * [`CollaboratoryBuilder`] / [`Collaboratory`] — the top-level API for
//!   assembling domains (directory, servers, applications, clients,
//!   links) and running experiments deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod cache;
mod node;
pub mod shard;
mod substrate;

pub use builder::{Collaboratory, CollaboratoryBuilder, ServerHandle};
pub use cache::{CacheEvent, CacheEventKind, DiscoveryCache, DiscoveryCacheConfig};
pub use node::DiscoverNode;
pub use shard::DirectoryRing;
pub use substrate::{CollabMode, PeerHealth, Substrate, SubstrateConfig};

// Convenience re-exports so downstream users need only this crate.
pub use discover_server::{Effect, ServerConfig, ServerCore, StandaloneServer};
