//! # discover — a Rust reproduction of the DISCOVER computational
//! collaboratory middleware (HPDC 2001)
//!
//! Umbrella crate re-exporting the whole stack. See the workspace README
//! for the architecture overview and DESIGN.md for the paper mapping.
//!
//! * [`simnet`] — deterministic discrete-event simulation substrate
//! * [`wire`] — protocol suite (HTTP / custom TCP / GIOP, DBP codec)
//! * [`orb`] — CORBA-analogue broker, naming and trader services
//! * [`webserv`] — servlet-container machinery
//! * [`appsim`] — steerable applications + control networks
//! * [`server`] — the interaction/collaboration server
//! * [`core`] — the peer-to-peer middleware substrate
//! * [`client`] — thin web portals and workloads

pub use appsim;
pub use discover_client as client;
pub use discover_core as core;
pub use discover_server as server;
pub use orb;
pub use simnet;
pub use webserv;
pub use wire;

/// Commonly used items for examples and tests.
pub mod prelude {
    pub use appsim::{
        cfd_app, oil_reservoir_app, relativity_app, seismic_app, synthetic_app, DriverConfig,
    };
    pub use discover_client::{OpMix, Portal, PortalConfig, Workload};
    pub use discover_core::{CollabMode, Collaboratory, CollaboratoryBuilder, ServerHandle};
    pub use simnet::{LinkSpec, SimDuration, SimTime};
    pub use wire::{
        AppCommand, AppId, AppOp, ClientRequest, MessageKind, Privilege, UpdateBody, UserId, Value,
    };
}
