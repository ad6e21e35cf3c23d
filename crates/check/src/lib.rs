//! # discover-check — deterministic scenario fuzzer + correctness oracles
//!
//! The experiment harness (`discover-bench`) measures *how fast* the
//! DISCOVER stack is; this crate checks *whether it is right*. A seeded
//! [`scenario::Scenario`] describes a randomized workload — N clients
//! across M servers issuing steering-lock acquire/release, steering
//! commands, ACL-gated operations and latecomer joins — composed with a
//! random fault schedule (server crashes/restarts, timed partitions,
//! client disconnects) and the [`features::Features`] the stack runs it
//! under, from the paper's profile to the production one. [`run::run`]
//! executes it on the real stack (portals → webserv → server core → ORB
//! substrate → peers) with the simnet history recorder on, and
//! [`oracle::check_run`] validates the run against the oracles listed
//! there: linearizable locks ([`lin`]), ACL, FIFO-within-class, replay,
//! the session plane (reclaim, pacing, goodput, recovery), snapshots,
//! directory consistency, and — for the `composed` family — the
//! differential oracle against the same scenario on the paper's stack.
//!
//! On failure, [`shrink::shrink`] greedily deletes scenario events and
//! faults (re-running after each candidate deletion) until a minimal
//! reproduction remains; the seed plus the shrunk scenario is the bug
//! report. Same seed → same schedule → byte-identical run log
//! ([`run::RunResult::run_log`]), so every repro replays exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Scenario/driver configs mutate defaults like the rest of the repo.
#![allow(clippy::field_reassign_with_default)]

pub mod features;
pub mod lin;
pub mod oracle;
pub mod run;
pub mod scenario;
pub mod shrink;

pub use discover_server::Mutation;

use scenario::Scenario;

/// The mutation table: for each seeded bug, the crafted scenario that
/// arms it and the oracle that must catch it. Matched exhaustively, so
/// a new [`Mutation`] does not compile until it has both.
pub fn mutation_case(mutation: Mutation) -> (Scenario, &'static str) {
    match mutation {
        Mutation::DoubleGrant => (Scenario::mutation(1), "linearizability"),
        Mutation::NoReclaim => (Scenario::mutation_churn(1), "reclaim"),
        Mutation::SkipSnapshot => (Scenario::mutation_snapshot(1), "snapshot"),
        Mutation::StaleCache => (Scenario::mutation_stale_cache(1), "discovery"),
        Mutation::CompactRequests => (Scenario::mutation_compaction(1), "snapshot"),
        Mutation::ForgetAccepted => (Scenario::mutation_restart(1), "differential"),
    }
}
