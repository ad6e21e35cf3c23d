//! What one repetition of a workload measured.

use crate::alloc::AllocSnapshot;
use crate::calibration::Timed;
use crate::spec::Workload;

/// One repetition. Counts are deltas over the measured window; fields a
/// workload has no use for stay 0 or empty.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Rep {
    /// Topology build plus warm-up.
    pub setup: Timed,
    /// The measured window: its slices, without the bursts between them.
    pub window: Timed,
    /// Heap traffic inside the window.
    pub alloc: AllocSnapshot,
    /// Engine events popped in the window.
    pub events: u64,
    /// Portal ops issued, or wire exchanges sent.
    pub issued: u64,
    /// Tracked ops (exchanges) answered successfully.
    pub completed: u64,
    /// Those answered with an error (refused, expired, non-200, ...).
    pub failed: u64,
    /// Fire-and-forget chat ops that reached their host's archive.
    pub chats: u64,
    /// `ClientMessage`s handed to portals (decoded client-side).
    pub deliveries: u64,
    /// Portals in the topology (bounds the ops in flight at cut-off).
    pub portals: u64,
    /// FIFO messages accepted / absorbed by coalescing / lost to overflow.
    pub fifo_enqueued: u64,
    /// See `fifo_enqueued`.
    pub fifo_coalesced: u64,
    /// See `fifo_enqueued`.
    pub fifo_dropped: u64,
    /// Discovery-cache lookups served from / past the cache.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// Ops the substrate dispatched to a remote host.
    pub remote_ops: u64,
    /// Busy share of the window's virtual time, per server.
    pub utilization: Vec<f64>,
    /// Bytes-in to bytes-out wall time of every wire exchange, nanoseconds.
    pub latencies_ns: Vec<u32>,
}

impl Rep {
    /// Units of work completed (see [`Workload::work_unit`]).
    pub fn work(&self, workload: Workload) -> u64 {
        if workload.counts_deliveries() {
            self.deliveries
        } else {
            self.completed
        }
    }

    /// Operations attempted, in the workload's unit of work.
    pub fn attempted(&self, workload: Workload) -> u64 {
        if workload.counts_deliveries() {
            self.deliveries + self.failed
        } else {
            self.issued
        }
    }

    /// What must not differ between a traced and an untraced repetition.
    pub fn fingerprint(&self) -> (u64, u64, u64, u64) {
        (self.events, self.completed, self.deliveries, self.failed)
    }
}
