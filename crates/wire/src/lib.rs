//! # wire — the DISCOVER protocol suite
//!
//! Message model for the reproduction of the HPDC 2001 DISCOVER
//! middleware, covering all three protocol domains the paper describes:
//!
//! * **HTTP** ([`http`]) for thin web clients (poll-and-pull),
//! * the **custom TCP protocol** ([`tcp`]) for application ↔ server
//!   channels (Main / Command / Response),
//! * **GIOP/IIOP-like frames** ([`giop`]) for the CORBA-analogue server ↔
//!   server substrate (plus the Control channel).
//!
//! All payloads are marshalled by the DBP binary codec ([`codec`]), a
//! compact non-self-describing format written and read by one trait,
//! [`codec::Dbp`]; wire sizes computed from real framing rules feed the
//! simulator's bandwidth model via [`Envelope`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod deadline;
mod envelope;
mod event;
pub mod giop;
pub mod http;
mod ids;
pub mod jitter;
mod messages;
mod payload;
pub mod tcp;
mod value;

pub use deadline::{DeadlineStamp, Priority};
pub use envelope::{Content, Envelope};
pub use event::{CacheStep, DaemonStep, Event, LockStep, Lookup, Origin};
pub use ids::{
    AppId, AppToken, ClientId, IdMap, Name, ObjectKey, ObjectRef, Privilege, RequestId, ServerAddr,
    SessionId, UserId,
};
pub use messages::{
    AppCommand, AppDescriptor, AppMsg, AppOp, AppPhase, AppStatus, AppStatusEntry, ArchiveSnapshot,
    Channel, ClientMessage, ClientRequest, ControlEvent, ControlEventKind, DirPlaneStatus,
    ErrorCode, FifoStatusEntry, FoldedAppState, InteractionSpec, JobSpec, LogEntry, LogRecord,
    MessageKind, OpOutcome, PeerMsg, PeerReply, PeerStatusEntry, ResponseBody, ServiceOffer,
    StatusReport, UpdateBody, UpdateKey, WhiteboardStroke, WireError,
};
pub use payload::FrozenUpdate;
pub use value::{assign_readings, Value};
