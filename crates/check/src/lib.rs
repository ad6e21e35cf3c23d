//! # discover-check — deterministic scenario fuzzer + correctness oracles
//!
//! The experiment harness (`discover-bench`) measures *how fast* the
//! DISCOVER stack is; this crate checks *whether it is right*. A seeded
//! [`scenario::Scenario`] describes a randomized workload — N clients
//! across M servers issuing steering-lock acquire/release, steering
//! commands, ACL-gated operations and latecomer joins — composed with a
//! random fault schedule (server crashes/restarts, timed partitions,
//! and — in the churn families — client disconnect/rejoin schedules).
//! [`run::run`] executes it on the real stack (portals → webserv →
//! server core → ORB substrate → peers) with the simnet history recorder
//! on, and [`oracle::check_run`] validates the recorded history against
//! the oracles:
//!
//! 1. **Linearizability** ([`lin`]): the distributed steering-lock
//!    history is linearizable against a single-holder lock automaton
//!    (Wing–Gong-style interval order search).
//! 2. **ACL**: no operation is ever accepted without a live grant of
//!    sufficient privilege.
//! 3. **FIFO-within-class**: the Daemon buffer never reorders two
//!    operations of the same priority class.
//! 4. **Replay**: a latecomer's paged catch-up plus live tail is
//!    byte-identical to the host's full archive replay, and a resumed
//!    session's replayed batches are byte-identical contiguous slices
//!    of the host archive (exactly the missed suffix).
//! 5. **Churn** (churn/flashcrowd/slowconsumer families): parked
//!    session leases never leak (**reclaim**), paced resume admission
//!    is honored (**pacing**), connected bystanders keep completing
//!    work through a rejoin storm (**goodput**, the metastability
//!    guard), and every returning client recovers within an
//!    O(backlog/rate) budget (**recovery**).
//! 6. **Snapshot** (recovery family): the archive snapshots on its
//!    configured cadence, no snapshot is ever torn (each equals the
//!    fold of the records before it), and snapshot-aware catch-up
//!    replies are byte-identical to the host archive — including the
//!    replies a crash-recovered host serves after rebuilding its state
//!    from that same archive.
//! 7. **Discovery** (discovery family): under cache-poisoning churn —
//!    planted stale routes, host failover, a directory shard crashing
//!    mid-query, TTLs racing the action cadence — an invalidated
//!    discovery-cache generation is never re-served (no op completes
//!    against a server that lost ownership) and no cache hit lands past
//!    its entry's expiry.
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
    }
}
