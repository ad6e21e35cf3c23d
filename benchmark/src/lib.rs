//! Wall-clock benchmark of the DISCOVER stack: five workloads, per-layer
//! spans recorded from outside, kernels. See `README.md`.

#![warn(missing_docs)]

pub mod alloc;
pub mod bench;
pub mod calibration;
pub mod compare;
pub mod json;
pub mod kernels;
pub mod rep;
pub mod sim;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod topo;
pub mod wire_ingress;
