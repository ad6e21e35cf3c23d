//! # discover-bench — the paper's evaluation, regenerated
//!
//! One experiment per measurable claim in the HPDC 2001 paper (§6.1 plus
//! the §7 measurements-in-progress), each emitting a table with the
//! paper's claim, the measured series, and conclusions. The `harness`
//! binary runs them (`cargo run --release -p discover-bench --bin
//! harness -- all`); criterion micro-benchmarks live under `benches/`.

#![forbid(unsafe_code)]
// Experiments configure workloads by mutating a default config; the
// builder-struct rewrite clippy suggests would obscure the knobs.
#![allow(clippy::field_reassign_with_default)]

pub mod experiments;
pub mod fixtures;
pub mod report;
