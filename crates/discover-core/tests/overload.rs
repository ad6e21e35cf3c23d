//! End-to-end overload protection: FIFO overflow accounting in per-node
//! metrics, deadline propagation dropping expired work at the
//! dequeue hop, and per-server admission control rejecting view traffic
//! while steering commands keep flowing.

use appsim::{synthetic_app, DriverConfig};
use discover_client::{OpMix, Portal, PortalConfig, Workload};
use discover_core::{CollaboratoryBuilder, DiscoverNode};
use simnet::{names, SimDuration, SimTime};
use wire::{
    AppOp, ClientMessage, ClientRequest, ErrorCode, Privilege, ResponseBody, UserId, Value,
};

/// Satellite: `FifoBuffer` overflow counters (`enqueued`/`dropped`/`peak`)
/// must surface in the server node's `MetricsRegistry`.
#[test]
fn fifo_overflow_shows_up_in_folded_node_metrics() {
    let mut b = CollaboratoryBuilder::new(1501);
    // Tiny per-client FIFO so a never-polling client overflows quickly.
    b.tweak_servers(|cfg| cfg.fifo_capacity = 8);
    let server = b.server("server0");
    let acl = vec![
        (UserId::new("fast"), Privilege::ReadOnly),
        (UserId::new("dead"), Privilege::ReadOnly),
    ];
    let mut dc = DriverConfig::default();
    dc.name = "hot".into();
    dc.acl = acl;
    // Hot app: a status update every 100 ms keeps the FIFOs filling.
    dc.batch_time = SimDuration::from_millis(100);
    dc.batches_per_phase = 20;
    dc.interaction_window = SimDuration::from_millis(200);
    let (_, app) = b.application(server, synthetic_app(2, u64::MAX), dc);

    let mk = |user: &str, poll_ms: u64| {
        let mut cfg =
            PortalConfig::new(user).select_app(app).poll_every(SimDuration::from_millis(poll_ms));
        cfg.login_delay = SimDuration::from_millis(100);
        cfg
    };
    b.portal(server, "fast", mk("fast", 200));
    // The "dead" client selects the app and then never polls: its FIFO
    // fills with updates and sheds the oldest (§6.2's overflow concern).
    b.portal(server, "dead", mk("dead", 3_600_000));
    let mut c = b.build();
    c.engine.run_until(SimTime::from_secs(20));

    // The per-node registry on the server carries the fold.
    let sm = c.engine.node_metrics(server.node);
    let enqueued = sm.counter(names::WEBSERV_FIFO_ENQUEUED);
    let dropped = sm.counter(names::WEBSERV_FIFO_DROPPED);
    let peak = sm.counter(names::WEBSERV_FIFO_PEAK);
    assert!(enqueued > 0, "updates were enqueued into client FIFOs");
    assert!(dropped > 0, "the dead client's bounded FIFO must overflow");
    assert!(peak >= 8, "peak growth must reach the configured capacity");

    // Counters agree with the core's own per-FIFO accounting: dropped is
    // the exact sum, peak accumulates each client's high-water growth.
    let core = &c.engine.actor_ref::<DiscoverNode>(server.node).unwrap().core;
    assert_eq!(dropped, core.fifo_dropped_total(), "metric matches FifoBuffer::dropped sum");
    let peak_sum: u64 = core.fifo_snapshot().iter().map(|(_, _, p, _, _)| *p as u64).sum();
    assert_eq!(peak, peak_sum, "metric sums the per-client high-water marks");
    assert!(peak >= core.fifo_peak_max() as u64);
}

/// Compute-heavy app + tight client deadline: ops parked in the Daemon
/// buffer outlive their budget and must be dropped at dequeue with
/// `DeadlineExceeded`, never executed. An undeadlined twin of the same
/// scenario must not touch any deadline counter.
#[test]
fn buffered_ops_past_deadline_are_dropped_at_dequeue() {
    let run = |deadline: Option<SimDuration>| {
        let mut b = CollaboratoryBuilder::new(1502);
        let server = b.server("server0");
        let mut dc = DriverConfig::default();
        dc.name = "slow".into();
        dc.acl = vec![(UserId::new("vijay"), Privilege::Steer)];
        // 2 s compute phases dwarf the 400 ms budget below, so anything
        // buffered while computing expires before the phase change.
        dc.batch_time = SimDuration::from_secs(2);
        dc.batches_per_phase = 1;
        dc.interaction_window = SimDuration::from_millis(300);
        let (_, app) = b.application(server, synthetic_app(2, u64::MAX), dc);
        let mut cfg = PortalConfig::new("vijay")
            .select_app(app)
            .poll_every(SimDuration::from_millis(500))
            .workload(Workload::new(app, OpMix::sensors_only(), SimDuration::from_millis(300)));
        cfg.login_delay = SimDuration::from_millis(100);
        if let Some(budget) = deadline {
            cfg = cfg.deadline(budget);
        }
        let node = b.portal(server, "vijay", cfg);
        let mut c = b.build();
        c.engine.run_until(SimTime::from_secs(30));
        (c, node, server.node)
    };

    let (c, portal, server) = run(Some(SimDuration::from_millis(400)));
    let sm = c.engine.node_metrics(server);
    assert!(
        sm.counter(names::SERVER_DEADLINE_DEQUEUE_EXPIRED) > 0,
        "ops buffered across a 2 s compute phase must expire at dequeue"
    );
    let pm = c.engine.node_metrics(portal);
    assert!(pm.counter(names::CLIENT_OPS_EXPIRED) > 0, "the portal counts expired ops");
    let p = c.engine.actor_ref::<Portal>(portal).unwrap();
    assert!(
        p.received.iter().any(|(_, m)| matches!(
            m,
            ClientMessage::Error(e) if e.code == ErrorCode::DeadlineExceeded
        )),
        "expired ops must terminate with DeadlineExceeded, not hang"
    );

    // Opt-in: without a configured deadline nothing expires anywhere.
    let (c0, portal0, server0) = run(None);
    let sm0 = c0.engine.node_metrics(server0);
    assert_eq!(sm0.counter(names::SERVER_DEADLINE_INGRESS_EXPIRED), 0);
    assert_eq!(sm0.counter(names::SERVER_DEADLINE_DISPATCH_EXPIRED), 0);
    assert_eq!(sm0.counter(names::SERVER_DEADLINE_DEQUEUE_EXPIRED), 0);
    assert_eq!(c0.engine.node_metrics(portal0).counter(names::CLIENT_OPS_EXPIRED), 0);
}

/// Admission control: with a one-slot inflight budget and a computing
/// app, view traffic is rejected at ingress with `Overloaded` +
/// retry-after while steering commands stay exempt and still complete.
#[test]
fn admission_control_sheds_views_but_admits_commands() {
    let mut b = CollaboratoryBuilder::new(1503);
    b.tweak_servers(|cfg| cfg.admission_inflight_max = Some(1));
    let server = b.server("server0");
    let mut dc = DriverConfig::default();
    dc.name = "slow".into();
    dc.acl = vec![
        (UserId::new("driver"), Privilege::Steer),
        (UserId::new("watcher0"), Privilege::ReadOnly),
        (UserId::new("watcher1"), Privilege::ReadOnly),
    ];
    // Long compute phases keep buffered ops inflight, so the one-slot
    // budget is held and later views bounce at ingress.
    dc.batch_time = SimDuration::from_secs(2);
    dc.batches_per_phase = 1;
    dc.interaction_window = SimDuration::from_millis(500);
    let (_, app) = b.application(server, synthetic_app(2, u64::MAX), dc);

    let mut nodes = Vec::new();
    for (i, user) in ["watcher0", "watcher1"].iter().enumerate() {
        let mut cfg = PortalConfig::new(user)
            .select_app(app)
            .poll_every(SimDuration::from_millis(500))
            .workload(Workload::new(app, OpMix::sensors_only(), SimDuration::from_millis(250)));
        cfg.login_delay = SimDuration::from_millis(100 + 50 * i as u64);
        nodes.push(b.portal(server, user, cfg));
    }
    // The driver issues steering commands (mutating ops) on a schedule.
    let mut cfg = PortalConfig::new("driver").select_app(app);
    cfg.login_delay = SimDuration::from_millis(100);
    let mut cfg = cfg.at(SimDuration::from_secs(2), ClientRequest::RequestLock { app });
    for k in 0..8u64 {
        cfg = cfg.at(
            SimDuration::from_millis(3000 + 1500 * k),
            ClientRequest::Op { app, op: AppOp::SetParam("knob0".into(), Value::Float(k as f64)) },
        );
    }
    let driver = b.portal(server, "driver", cfg);
    nodes.push(driver);

    let mut c = b.build();
    c.engine.run_until(SimTime::from_secs(30));

    let sm = c.engine.node_metrics(server.node);
    assert!(
        sm.counter(names::SERVER_ADMISSION_REJECTED) > 0,
        "view ops beyond the inflight budget must bounce at ingress"
    );
    // Rejected watchers saw Overloaded with a retry-after hint.
    let w = c.engine.actor_ref::<Portal>(nodes[0]).unwrap();
    let overloaded = w
        .received
        .iter()
        .filter_map(|(_, m)| match m {
            ClientMessage::Error(e) if e.code == ErrorCode::Overloaded => Some(&e.detail),
            _ => None,
        })
        .chain(c.engine.actor_ref::<Portal>(nodes[1]).unwrap().received.iter().filter_map(
            |(_, m)| match m {
                ClientMessage::Error(e) if e.code == ErrorCode::Overloaded => Some(&e.detail),
                _ => None,
            },
        ))
        .collect::<Vec<_>>();
    assert!(!overloaded.is_empty(), "some watcher saw an Overloaded rejection");
    assert!(
        overloaded.iter().all(|d| d.contains("retry-after")),
        "rejections carry a retry-after hint: {overloaded:?}"
    );
    // Steering commands are exempt from view-class shedding: the driver's
    // SetParam ops completed despite the saturated budget.
    let d = c.engine.actor_ref::<Portal>(driver).unwrap();
    let steered = d
        .received
        .iter()
        .filter(|(_, m)| {
            matches!(m, ClientMessage::Response(ResponseBody::OpDone { app: a, .. }) if *a == app)
        })
        .count();
    assert!(steered > 0, "command-class ops must be admitted under overload");
}
