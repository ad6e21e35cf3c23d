//! # orb — the CORBA-analogue substrate
//!
//! The DISCOVER middleware of the paper "builds on CORBA/IIOP, which
//! provides peer-to-peer connectivity between DISCOVER servers within and
//! across domains", with "server/service discovery mechanisms ... built
//! using the CORBA Trader Service". This crate is that slice of CORBA,
//! rebuilt on the simulation substrate:
//!
//! * [`AddressBook`] — IOR host resolution (server address → node),
//! * [`Broker`] — client-side request issue/correlate/expire, with retries
//!   (exponential backoff, deterministic jitter) and a
//!   per-peer circuit breaker ([`BreakerState`]) for fault tolerance,
//! * [`Directory`] — a Naming service with a minimalist Trader layered on
//!   top of it (exactly the paper's prototype arrangement), plus the
//!   [`directory::calls`] helpers for building directory invocations,
//! * [`HashRing`] — the consistent-hash ring that shards directory keys
//!   across several Directory nodes with seed-stable placement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod address;
mod broker;
pub mod directory;
pub mod ring;

pub use address::AddressBook;
pub use broker::{BreakerState, Broker, Pending, SweepReport, DEFAULT_MAX_ATTEMPTS};
pub use directory::{Directory, DirectoryCosts, DISCOVER_SERVICE, NAMING_KEY, TRADER_KEY};
pub use ring::{hash64, HashRing, DEFAULT_VNODES};
