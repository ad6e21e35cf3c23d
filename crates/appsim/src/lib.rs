//! # appsim — the DISCOVER back end
//!
//! The paper's back end is "a control network of sensors, actuators, and
//! interaction agents superimposed on the application", attached to real
//! high-performance simulations (oil reservoir, computational fluid
//! dynamics, seismic modeling, numerical relativity). This crate rebuilds
//! that whole layer:
//!
//! * [`Kernel`] / [`ControlNetwork`] / [`SteerableApp`] — the control
//!   network abstraction with checkpoint/rollback,
//! * four toy-scale but *real* numeric kernels matching the paper's
//!   application list — [`oilres`], [`cfd`], [`seismic`], [`relativity`]
//!   (each parallelised with the hand-built `parkit` primitives),
//! * a [`Synthetic`] kernel for load experiments, and
//! * [`AppDriver`] — the actor that registers with a DISCOVER server and
//!   runs the compute/interaction phase loop over the custom TCP
//!   protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfd;
mod control;
mod driver;
pub mod oilres;
pub mod relativity;
pub mod seismic;
mod synthetic;

pub use cfd::{cfd_app, Cavity};
pub use control::{write_clamped_f64, ControlNetwork, Kernel, SteerableApp};
pub use driver::{AppDriver, DriverConfig, LaunchGate};
pub use oilres::{oil_reservoir_app, OilReservoir};
pub use relativity::{relativity_app, ReggeWheeler};
pub use seismic::{seismic_app, Seismic};
pub use synthetic::{synthetic_app, Synthetic};
