//! Shared experiment fixtures: calibrated workload parameters, portal
//! and ACL builders, and per-portal result collectors.
//!
//! Calibration (documented in EXPERIMENTS.md): the cost model lives in
//! `webserv::{HttpCosts, TcpCosts, OrbCosts}::CALIBRATED` and is shared by
//! every experiment; the workload rates here are the paper-era
//! operating points — applications emit ~10 status updates/second under
//! "high load" testing, clients poll every 200 ms and issue roughly one
//! interaction per second.

use appsim::DriverConfig;
use discover_client::{OpMix, Portal, PortalConfig, Workload};
use discover_core::Collaboratory;
use simnet::{NodeId, SimDuration};
use wire::{AppId, AppToken, Privilege, UserId};

/// Virtual duration of a steady-state measurement run.
pub const RUN_SECS: u64 = 60;

/// "High-load" application: 10 status updates per second, interleaved
/// interaction windows.
pub fn hot_app_config(name: &str, acl_users: &[(&str, Privilege)]) -> DriverConfig {
    let mut dc = DriverConfig::default();
    dc.name = name.to_string();
    dc.token = AppToken::new(name);
    dc.acl = acl_users.iter().map(|(u, p)| (UserId::new(*u), *p)).collect();
    dc.iters_per_batch = 1;
    dc.batch_time = SimDuration::from_millis(100); // 10 updates/s
    dc.batches_per_phase = 20; // interact every 2 s
    dc.interaction_window = SimDuration::from_millis(100);
    dc
}

/// Quiet application: one update every 2 s (login anchor / low load).
pub fn quiet_app_config(name: &str, acl_users: &[(&str, Privilege)]) -> DriverConfig {
    let mut dc = hot_app_config(name, acl_users);
    dc.batch_time = SimDuration::from_secs(2);
    dc.batches_per_phase = 2;
    dc.interaction_window = SimDuration::from_millis(500);
    dc
}

/// Mostly-interactive application: brief compute batches, long
/// interaction windows — so command-path latency measurements are not
/// dominated by the Daemon servlet's compute-phase buffering.
pub fn interactive_app_config(name: &str, acl_users: &[(&str, Privilege)]) -> DriverConfig {
    let mut dc = hot_app_config(name, acl_users);
    dc.batch_time = SimDuration::from_millis(50);
    dc.batches_per_phase = 1;
    dc.interaction_window = SimDuration::from_secs(1);
    dc
}

/// Standard client poll period (5 polls/second).
pub fn poll_period() -> SimDuration {
    SimDuration::from_millis(200)
}

/// A portal running a closed-loop workload against `app`.
pub fn workload_portal(user: &str, app: AppId, mix: OpMix, think_ms: u64) -> PortalConfig {
    PortalConfig::new(user).select_app(app).poll_every(poll_period()).workload(Workload::new(
        app,
        mix,
        SimDuration::from_millis(think_ms),
    ))
}

/// Collect all op latencies (microseconds) across portals.
pub fn collect_op_latencies(c: &Collaboratory, nodes: &[NodeId]) -> Vec<u64> {
    let mut all = Vec::new();
    for &n in nodes {
        if let Some(p) = c.engine.actor_ref::<Portal>(n) {
            all.extend(p.op_completions.iter().map(|o| o.1));
        }
    }
    all
}

/// Collect lock-acquisition latencies (microseconds) across portals.
pub fn collect_lock_latencies(c: &Collaboratory, nodes: &[NodeId]) -> Vec<u64> {
    let mut all = Vec::new();
    for &n in nodes {
        if let Some(p) = c.engine.actor_ref::<Portal>(n) {
            all.extend_from_slice(&p.lock_latencies_us);
        }
    }
    all
}

/// Total completed workload ops across portals.
pub fn total_ops(c: &Collaboratory, nodes: &[NodeId]) -> u64 {
    nodes
        .iter()
        .filter_map(|&n| c.engine.actor_ref::<Portal>(n))
        .map(|p| p.op_completions.len() as u64)
        .sum()
}

/// An ACL granting `user0..userN` the given privilege.
pub fn acl_users(n: usize, privilege: Privilege) -> Vec<(String, Privilege)> {
    (0..n).map(|i| (format!("user{i}"), privilege)).collect()
}
