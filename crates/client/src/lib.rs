//! # discover-client — thin web portals
//!
//! The paper's front end: "detachable client portals" that connect to a
//! server "at any time using a browser", poll-and-pull over HTTP,
//! discriminate Response / Error / Update messages by kind, collaborate
//! via chat and whiteboard, and steer applications under the locking
//! protocol.
//!
//! [`Portal`] is the scripted actor; [`PortalConfig`] configures login,
//! selection, scripts and closed-loop steering workloads ([`Workload`] /
//! [`OpMix`]) whose completion latency — including HTTP's polling delay —
//! is recorded for the experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod portal;
mod whiteboard;

pub use portal::{OpMix, Portal, PortalConfig, Workload, PRODUCTION_DEADLINE};
pub use whiteboard::{CanvasStroke, Whiteboard};
