//! Deterministic fault scheduling: a [`FaultPlan`] is a reproducible
//! description of node crash/restart cycles and timed link partitions.
//!
//! Plans are built either explicitly (`crash`, `partition`) or from a
//! seeded RNG (`stagger_crashes`), then handed to
//! [`Engine::apply_faults`](crate::Engine::apply_faults). Because the
//! plan is materialised up front from its own seed, the fault schedule
//! never perturbs the engine's RNG stream: the same seed yields the same
//! faults, and the same simulation, every run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::NodeId;
use crate::time::{SimDuration, SimTime};

/// A reproducible schedule of crashes, restarts, and partitions.
#[derive(Debug)]
pub struct FaultPlan {
    rng: StdRng,
    crashes: Vec<(NodeId, SimTime, SimTime)>,
    partitions: Vec<(NodeId, NodeId, SimTime, SimTime)>,
}

impl FaultPlan {
    /// Create an empty plan whose randomised helpers draw from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan { rng: StdRng::seed_from_u64(seed), crashes: Vec::new(), partitions: Vec::new() }
    }

    /// Crash `node` at `at` and restart it at `restart_at`.
    pub fn crash(&mut self, node: NodeId, at: SimTime, restart_at: SimTime) -> &mut Self {
        assert!(at < restart_at, "restart must come after the crash");
        self.crashes.push((node, at, restart_at));
        self
    }

    /// Sever the `a`↔`b` pair for departures in `[from, until)`.
    pub fn partition(&mut self, a: NodeId, b: NodeId, from: SimTime, until: SimTime) -> &mut Self {
        assert!(from < until, "empty partition window");
        self.partitions.push((a, b, from, until));
        self
    }

    /// Give each node one crash/restart cycle: the crash instant is drawn
    /// uniformly from `[window_start, window_end)` using the plan's seeded
    /// RNG, and the node stays down for `downtime`. Nodes are processed in
    /// slice order, so the schedule is a pure function of the seed.
    pub fn stagger_crashes(
        &mut self,
        nodes: &[NodeId],
        window_start: SimTime,
        window_end: SimTime,
        downtime: SimDuration,
    ) -> &mut Self {
        assert!(window_start < window_end, "empty crash window");
        assert!(downtime > SimDuration::ZERO, "zero downtime");
        for &node in nodes {
            let at = SimTime::from_micros(
                self.rng.gen_range(window_start.as_micros()..window_end.as_micros()),
            );
            self.crashes.push((node, at, at + downtime));
        }
        self
    }

    /// The scheduled `(node, crash_at, restart_at)` cycles.
    pub fn crashes(&self) -> &[(NodeId, SimTime, SimTime)] {
        &self.crashes
    }

    /// The scheduled `(a, b, from, until)` partition windows.
    pub fn partitions(&self) -> &[(NodeId, NodeId, SimTime, SimTime)] {
        &self.partitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stagger_is_deterministic_per_seed() {
        let nodes = [NodeId(0), NodeId(1), NodeId(2)];
        let mk = |seed| {
            let mut p = FaultPlan::new(seed);
            p.stagger_crashes(
                &nodes,
                SimTime::from_secs(1),
                SimTime::from_secs(9),
                SimDuration::from_secs(2),
            );
            p.crashes().to_vec()
        };
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7), mk(8), "different seeds should stagger differently");
        for &(_, at, restart) in &mk(7) {
            assert!(at >= SimTime::from_secs(1) && at < SimTime::from_secs(9));
            assert_eq!(restart, at + SimDuration::from_secs(2));
        }
    }
}
