//! # discover-server — the DISCOVER interaction and collaboration server
//!
//! The paper's middle tier (§4): a commodity web server extended with
//! servlet handlers for real-time application interaction, steering, and
//! client collaboration. This crate contains every handler:
//!
//! * master handler — client sessions and ids (`core/session.rs`),
//! * command handler — operation routing to [`ApplicationProxy`]s, one
//!   record per hosted application (`core/dispatch.rs`),
//! * collaboration handler — groups, subgroups, chat, whiteboard
//!   ([`CollabGroups`]; broadcast and replay in `core/group.rs`),
//! * security/authentication handler — two-level auth with per
//!   user-application ACLs ([`security`]),
//! * Daemon servlet — application registration and compute-phase request
//!   buffering (`core/dispatch.rs`),
//! * session archival handler — client and application logs, replay and
//!   latecomer catch-up ([`ArchiveStore`]),
//! * database handler — record ownership rules of §6.3 ([`RecordStore`]),
//! * the steering lock — host-server authority ([`SteeringLock`]).
//!
//! [`ServerCore`] is transport-complete for local traffic and *serves*
//! peer (GIOP) requests; out-calls to peers are returned as [`Effect`]s
//! for the middleware substrate in `discover-core` to perform; [`core`]
//! writes it one plane per file. [`StandaloneServer`] wraps the core as
//! the paper's pre-substrate, single-server system.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod archive;
mod collab;
pub mod core;
mod locks;
mod mutation;
mod proxy;
pub mod security;
mod standalone;
mod store;

pub use archive::{ArchiveStore, Log};
pub use collab::CollabGroups;
pub use core::{Effect, RelayVerb, Relayed, RemoteApp, ServerConfig, ServerCore, CORBA_SERVER_KEY};
pub use locks::{LockOutcome, SteeringLock};
pub use mutation::Mutation;
pub use proxy::{ApplicationProxy, BufferPush, BufferedOp};
pub use standalone::StandaloneServer;
pub use store::{Record, RecordAccess, RecordData, RecordStore};
