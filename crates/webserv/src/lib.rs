//! # webserv — servlet-container machinery
//!
//! The DISCOVER interaction/collaboration server "builds on a commodity
//! web server, and extends its functionality using Java servlets". This
//! crate supplies the container half of that sentence for the Rust
//! reproduction:
//!
//! * [`SessionTable`] / [`HttpSession`] — cookie-keyed client sessions
//!   created by the master handler,
//! * [`FifoBuffer`] — per-client poll buffers required by HTTP's
//!   request-response (poll-and-pull) nature,
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

mod costs;
mod fifo;
mod session;

pub use costs::{HttpCosts, OrbCosts, TcpCosts};
pub use fifo::{FifoBuffer, Pushed};
pub use session::{HttpSession, SessionTable};

pub use wire::http::paths;
