//! # webserv — servlet-container machinery
//!
//! The DISCOVER interaction/collaboration server "builds on a commodity
//! web server, and extends its functionality using Java servlets". This
//! crate supplies the container half of that sentence for the Rust
//! reproduction:
//!
//! * [`SessionTable`] / [`HttpSession`] — one record per client session,
//!   created by the master handler, keyed by client id and indexed by
//!   cookie, live or [`Park`]ed, holding the client's
//! * [`FifoBuffer`] — per-client poll buffer required by HTTP's
//!   request-response (poll-and-pull) nature, whose view-class slots
//!   may be handles to a [`Latest`] value a whole group shares,
//! * [`HttpCosts`], [`TcpCosts`], [`OrbCosts`] — the calibrated CPU cost
//!   model that separates the three protocol stacks (the source of the
//!   paper's "more apps than clients" asymmetry),
//! * the well-known servlet [`paths`] (defined beside the HTTP model in
//!   `wire::http`, which hands a parsed one back as the literal it is).
//!
//! The handlers themselves (master, command, collaboration, security,
//! daemon) live in the `discover-server` crate; this crate is the
//! reusable container layer beneath them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod costs;
mod fifo;
mod session;

pub use costs::{HttpCosts, OrbCosts, TcpCosts};
pub use fifo::{FifoBuffer, Latest, Pushed};
pub use session::{HttpSession, Park, SessionTable};

pub use wire::http::paths;
