//! Seeded bugs for the scenario checker's mutation test.

/// A seeded bug, for the scenario checker's mutation test: each one is
/// exactly the defect one oracle exists to catch. A server runs with at
/// most one ([`ServerConfig::mutation`](crate::ServerConfig)); production
/// configs run none.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mutation {
    /// A contending lock acquire is *granted* without evicting the
    /// holder, so two clients both believe they drive (linearizability
    /// oracle).
    DoubleGrant,
    /// Parked sessions are never reclaimed, leaking FIFO and lock state
    /// under mass leave (lease-reclamation oracle).
    NoReclaim,
    /// Segments close on schedule but the snapshot itself is silently
    /// dropped (snapshot-consistency oracle).
    SkipSnapshot,
    /// A `NoSuchApp` Nak still logs and counts the discovery-cache
    /// invalidation but skips the eviction, leaving the poisoned entry
    /// to be re-served (discovery oracle).
    StaleCache,
    /// Segment compaction keys client requests latest-wins like view
    /// records, so a closed segment keeps only its last request and the
    /// compacted archive no longer folds to its own snapshots (snapshot
    /// oracle). Only snapshots with compaction reach it, which only the
    /// production profile turns on.
    CompactRequests,
    /// Restart from the archive also forgets the operations the host
    /// accepted and has not answered, so an operation waiting in the
    /// Daemon buffer when the host went down is never answered, though
    /// the paper's stack answers it (differential oracle).
    ForgetAccepted,
}

impl Mutation {
    /// Every mutation, in declaration order.
    pub const ALL: [Mutation; 6] = [
        Mutation::DoubleGrant,
        Mutation::NoReclaim,
        Mutation::SkipSnapshot,
        Mutation::StaleCache,
        Mutation::CompactRequests,
        Mutation::ForgetAccepted,
    ];
}
