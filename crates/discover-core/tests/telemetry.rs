//! End-to-end telemetry plane: live status introspection over the wire,
//! the anomaly flight recorder on a real overload scenario, the
//! observer-effect guarantee (armed telemetry never changes the event
//! schedule of an identically-seeded run), and the run-wide view summed
//! from the per-node and per-link stores.

use appsim::{synthetic_app, DriverConfig};
use discover_client::{OpMix, Portal, PortalConfig, Workload};
use discover_core::{Collaboratory, CollaboratoryBuilder, DiscoverNode, DiscoveryCacheConfig};
use simnet::{names, SimDuration, SimTime};
use wire::{DaemonStep, Event, Privilege, UserId};

/// Two linked servers, one app on the gateway, a steering portal that
/// holds the lock for the whole run, and an operator portal probing the
/// status page every 500 ms.
fn run_status_fixture() -> (Collaboratory, simnet::NodeId, discover_core::ServerHandle) {
    let mut b = CollaboratoryBuilder::new(2601);
    let gateway = b.server("gateway");
    let peer = b.server("peer");
    b.link_servers(gateway, peer, simnet::LinkSpec::wan());

    let mut dc = DriverConfig::default();
    dc.name = "ipars".into();
    dc.acl = vec![
        (UserId::new("vijay"), Privilege::Steer),
        (UserId::new("operator"), Privilege::ReadOnly),
    ];
    dc.batch_time = SimDuration::from_millis(100);
    dc.batches_per_phase = 2;
    dc.interaction_window = SimDuration::from_millis(300);
    let (_, app) = b.application(gateway, synthetic_app(2, u64::MAX), dc);

    let mut steer = PortalConfig::new("vijay")
        .select_app(app)
        .poll_every(SimDuration::from_millis(200))
        .workload(Workload::new(app, OpMix::steering_only(), SimDuration::from_millis(400)));
    steer.login_delay = SimDuration::from_millis(100);
    b.portal(gateway, "vijay", steer);

    let mut op = PortalConfig::new("operator").status_every(SimDuration::from_millis(500));
    op.login_delay = SimDuration::from_millis(150);
    let operator = b.portal(gateway, "operator", op);

    let mut c = b.build();
    c.engine.run_until(SimTime::from_secs(20));
    (c, operator, gateway)
}

/// Tentpole layer 2: `ClientRequest::Status` round-trips a structured
/// report whose session / lock / peer lines reflect the server's own
/// state, and the portal renders it as a text status page.
#[test]
fn status_probe_reports_sessions_locks_and_peer_health() {
    let (c, operator, gateway) = run_status_fixture();

    let p = c.engine.actor_ref::<Portal>(operator).unwrap();
    let (_, last) = p.status_reports().next_back().expect("periodic probes must yield reports");

    // Steady state after both logins: two live sessions, nothing parked,
    // and the steering portal holds the lock it took at selection.
    assert_eq!(last.server, gateway.addr);
    assert_eq!(last.sessions_active, 2, "both portals hold live sessions");
    assert_eq!(last.sessions_parked, 0);
    let entry = last.apps.iter().find(|a| a.name == "ipars").expect("app line present");
    assert_eq!(entry.lock_holder, Some(UserId::new("vijay")), "lock holder surfaced");
    // The peer server is visible with healthy plumbing.
    assert_eq!(last.peers.len(), 1, "one peer line");
    assert_eq!(last.peers[0].health, "up");
    assert_eq!(last.peers[0].breaker, "closed");

    // The rendered page is the same data in text form.
    let page = p.status_page().expect("page renders once a report landed");
    assert!(page.starts_with("== status"), "page header: {page}");
    assert!(page.contains("sessions: active=2 parked=0"), "session line: {page}");
    assert!(page.contains("lock=vijay"), "lock line: {page}");
    assert!(page.contains("health=up"), "peer line: {page}");

    // Server-side accounting: every report the portal received was a
    // served status request (later probes may still be in flight).
    let reports = p.status_reports().count() as u64;
    let probes = c.engine.node_metrics(operator).counter(names::CLIENT_STATUS_PROBES);
    let served = c.engine.node_metrics(gateway.node).counter(names::SERVER_STATUS_REQUESTS);
    assert!(
        reports > 0 && served >= reports && probes >= served,
        "probe/served/report funnel: {probes} >= {served} >= {reports}"
    );
    let lat = c
        .engine
        .node_metrics(operator)
        .stats()
        .histogram(names::CLIENT_STATUS_LATENCY.key())
        .expect("probe latencies recorded")
        .summary();
    assert_eq!(lat.count as u64, reports, "one latency sample per completed probe");
}

/// The report built by the server equals the core state it claims to
/// snapshot — checked at quiescence where both are observable at once.
#[test]
fn status_report_matches_core_introspection_exactly() {
    let (c, _, gateway) = run_status_fixture();
    let node = c.engine.actor_ref::<DiscoverNode>(gateway.node).unwrap();
    let metrics = c.engine.node_metrics(gateway.node);
    let report = node.core.status_report(c.engine.now().as_micros(), metrics);

    assert_eq!(report.sessions_active as usize, node.core.session_count());
    assert_eq!(report.sessions_parked as usize, node.core.parked_count());
    assert_eq!(report.fifo_dropped, node.core.fifo_dropped_total());
    assert_eq!(report.shed_total, node.core.proxy_shed_total());
    // One FIFO line per client FIFO, depths matching the core's own
    // snapshot (same source, so equality is exact).
    let snap = node.core.fifo_snapshot();
    assert_eq!(report.fifos.len(), snap.len());
    for ((client, queued, peak, dropped, _), line) in snap.iter().zip(&report.fifos) {
        assert_eq!(line.client, *client);
        assert_eq!(line.queued as usize, *queued);
        assert_eq!(line.peak as usize, *peak);
        assert_eq!(line.dropped, *dropped);
    }
    // App lines are sorted for deterministic rendering.
    let ids: Vec<_> = report.apps.iter().map(|a| a.app).collect();
    let mut sorted = ids.clone();
    sorted.sort();
    assert_eq!(ids, sorted, "app lines sorted by id");
}

/// Deadline-expiry overload fixture: a 2 s compute phase against a
/// 400 ms budget expires buffered ops at dequeue. With the flight
/// recorder armed at a low spike threshold those expiries must trigger
/// deterministic `expiry.spike` dumps on the server node. `flight` is
/// the recorder's expiry-spike threshold, `None` to leave it disarmed.
fn run_expiry_fixture(flight: Option<usize>, history: bool) -> (Collaboratory, simnet::NodeId) {
    let mut b = CollaboratoryBuilder::new(2602);
    if let Some(expiry_spike_threshold) = flight {
        b.flight_recorder(expiry_spike_threshold);
    }
    if history {
        b.history();
    }
    let server = b.server("server0");
    let mut dc = DriverConfig::default();
    dc.name = "slow".into();
    // Six watchers: each buffers one in-flight op across the 2 s compute
    // phase, so every phase boundary dequeues (and expires) a cluster of
    // ops — a genuine spike, not a trickle.
    let users: Vec<String> = (0..6).map(|i| format!("w{i}")).collect();
    dc.acl = users.iter().map(|u| (UserId::new(u), Privilege::ReadOnly)).collect();
    dc.batch_time = SimDuration::from_secs(2);
    dc.batches_per_phase = 1;
    dc.interaction_window = SimDuration::from_millis(300);
    let (_, app) = b.application(server, synthetic_app(2, u64::MAX), dc);
    let mut nodes = Vec::new();
    for (i, user) in users.iter().enumerate() {
        let mut cfg = PortalConfig::new(user)
            .select_app(app)
            .poll_every(SimDuration::from_millis(500))
            .workload(Workload::new(app, OpMix::sensors_only(), SimDuration::from_millis(300)))
            .deadline(SimDuration::from_millis(400));
        cfg.login_delay = SimDuration::from_millis(100 + 30 * i as u64);
        nodes.push(b.portal(server, user, cfg));
    }
    let mut c = b.build();
    c.engine.run_until(SimTime::from_secs(30));
    (c, server.node)
}

#[test]
fn expiry_spikes_trigger_flight_dumps_with_recent_context() {
    let (c, server) = run_expiry_fixture(Some(4), false);
    assert!(
        c.engine.stats().counter(names::SERVER_DEADLINE_DEQUEUE_EXPIRED.key()) > 0,
        "fixture must actually expire buffered ops"
    );
    let dumps = c.engine.flight_dumps();
    assert!(!dumps.is_empty(), "expiry spikes must fire the recorder");
    assert!(dumps.iter().all(|d| d.trigger == "expiry.spike"), "trigger labels");
    assert!(dumps.iter().all(|d| d.node == server), "dumps attributed to the server node");
    // Each dump carries the recent ring — the expiries that tripped it.
    for d in dumps {
        assert!(!d.events.is_empty());
        let expired = |e: &Event| matches!(e, Event::Daemon(DaemonStep::Expired, ..));
        assert!(d.events.iter().any(|e| e.downcast().is_some_and(expired)), "dump holds the spike");
    }
    // Accounting: the counter matches the dump list, globally and per node.
    let fired = dumps.len() as u64;
    assert_eq!(c.engine.stats().counter(names::ENGINE_FLIGHT_DUMPS.key()), fired);
    assert_eq!(c.engine.node_metrics(server).counter(names::ENGINE_FLIGHT_DUMPS), fired);
}

#[test]
fn same_seed_flight_dumps_are_byte_identical() {
    let (a, _) = run_expiry_fixture(Some(4), false);
    let (b, _) = run_expiry_fixture(Some(4), false);
    let ra = a.engine.flight_dumps_rendered();
    assert!(!ra.is_empty());
    assert_eq!(ra, b.engine.flight_dumps_rendered());
}

/// Observer-effect guarantee: arming the recorder only appends to side
/// buffers, so an armed run and a disarmed run of the same seed share
/// one event schedule — byte-identical history, identical counters.
#[test]
fn armed_flight_recorder_leaves_the_event_schedule_untouched() {
    let (armed, server_a) = run_expiry_fixture(Some(4), true);
    let (bare, server_b) = run_expiry_fixture(None, true);
    assert!(!armed.engine.flight_dumps().is_empty());
    assert_eq!(bare.engine.flight_dumps().len(), 0);
    let rendered = |c: &Collaboratory| -> Vec<String> {
        c.engine.history().iter().map(|e| e.render()).collect()
    };
    assert_eq!(rendered(&armed), rendered(&bare), "history must not see the recorder");
    assert_eq!(armed.engine.events_processed(), bare.engine.events_processed());
    for key in [
        names::SERVER_HTTP_REQUESTS,
        names::SERVER_DEADLINE_DEQUEUE_EXPIRED,
        names::CLIENT_OPS_ISSUED,
    ] {
        assert_eq!(
            armed.engine.node_metrics(server_a).counter(key)
                + armed.engine.stats().counter(key.key()),
            bare.engine.node_metrics(server_b).counter(key)
                + bare.engine.stats().counter(key.key()),
            "counter {} diverged under the recorder",
            key.key()
        );
    }
}

/// Every kind of run-wide key at once: a lossy WAN link with a
/// partition window, a host crash and restart, an armed flight recorder
/// that fires, two directory shards behind a discovery cache, and
/// portals recording op and status latencies.
fn run_every_key_fixture() -> Collaboratory {
    let mut b = CollaboratoryBuilder::new(2603);
    b.directory_shards(2);
    b.substrate_config.discovery_cache = Some(DiscoveryCacheConfig::default());
    b.flight_recorder(2);
    let gateway = b.server("gateway");
    let host = b.server("host");
    b.link_servers(gateway, host, simnet::LinkSpec::wan().with_loss(0.05));

    let mut dc = DriverConfig::default();
    dc.name = "ipars".into();
    dc.acl = vec![
        (UserId::new("vijay"), Privilege::Steer),
        (UserId::new("operator"), Privilege::ReadOnly),
    ];
    dc.batch_time = SimDuration::from_millis(50);
    dc.batches_per_phase = 1;
    dc.interaction_window = SimDuration::from_secs(1);
    let (_, app) = b.application(host, synthetic_app(2, u64::MAX), dc.clone());
    let mut anchor = dc;
    anchor.name = "anchor".into();
    b.application(gateway, synthetic_app(1, u64::MAX), anchor);

    let mut steer = PortalConfig::new("vijay")
        .select_app(app)
        .poll_every(SimDuration::from_millis(200))
        .workload(Workload::new(app, OpMix::steering_only(), SimDuration::from_millis(300)));
    steer.login_delay = SimDuration::from_millis(100);
    let steerer = b.portal(gateway, "vijay", steer);
    let mut op = PortalConfig::new("operator").status_every(SimDuration::from_millis(500));
    op.login_delay = SimDuration::from_millis(150);
    let operator = b.portal(gateway, "operator", op);
    let mut portals = vec![steerer, operator];

    // A 2 s compute phase against a 400 ms budget: the watchers' buffered
    // ops expire at dequeue in clusters, which fires the recorder.
    let mut slow = DriverConfig::default();
    slow.name = "slow".into();
    let watchers = ["w0", "w1", "w2"];
    slow.acl = watchers.iter().map(|&w| (UserId::new(w), Privilege::ReadOnly)).collect();
    slow.batch_time = SimDuration::from_secs(2);
    slow.batches_per_phase = 1;
    slow.interaction_window = SimDuration::from_millis(300);
    let (_, slow_app) = b.application(gateway, synthetic_app(2, u64::MAX), slow);
    for (i, w) in watchers.into_iter().enumerate() {
        let mut cfg = PortalConfig::new(w)
            .select_app(slow_app)
            .poll_every(SimDuration::from_millis(500))
            .workload(Workload::new(slow_app, OpMix::sensors_only(), SimDuration::from_millis(300)))
            .deadline(SimDuration::from_millis(400));
        cfg.login_delay = SimDuration::from_millis(100 + 30 * i as u64);
        portals.push(b.portal(gateway, w, cfg));
    }

    let mut c = b.build();
    c.engine.partition(gateway.node, host.node, SimTime::from_secs(4), SimTime::from_secs(6));
    c.engine.crash_at(host.node, SimTime::from_secs(10));
    c.engine.restart_at(host.node, SimTime::from_secs(13));
    c.engine.run_until(SimTime::from_secs(25));
    c
}

/// `engine.stats()` as text: counters in key order, the two gauges, and
/// every histogram's summary.
fn render_run_wide(stats: &simnet::Stats) -> String {
    let mut out = String::new();
    for (key, v) in stats.counters() {
        out.push_str(&format!("{key} {v}\n"));
    }
    for g in [names::SUBSTRATE_RING_SHARDS, names::SUBSTRATE_RING_EPOCH] {
        out.push_str(&format!("{} {}\n", g.key(), stats.gauge(g.key())));
    }
    for (key, h) in stats.histograms() {
        out.push_str(&format!("{key} {}\n", h.summary().render()));
    }
    out
}

/// The fixture's run-wide view, pinned from when every write also landed
/// in a run-wide sink of its own: summing the node registries and the
/// links must reproduce it key for key, value for value.
const EVERY_KEY_RUN_WIDE: &str = "\
client.ops_expired 30
client.ops_issued 43
client.status_probes 49
directory.bind 7
directory.export 3
directory.query 3
engine.crashes 1
engine.down_drops 9
engine.flight_dumps 4
link.campus.bytes 2719
link.campus.msgs 26
link.lan.bytes 147800
link.lan.msgs 1146
link.wan.bytes 7624
link.wan.dropped 5
link.wan.msgs 64
link.wan.partitioned 2
node.restarts 1
server.collab.broadcasts 73
server.collab.local_fanout 61
server.daemon.buffered 41
server.daemon.flushed 7
server.daemon.registered 3
server.deadline.dequeue_expired 30
server.fanout_payload_reuse 239
server.giop.calls 48
server.http.requests 472
server.http.responses 472
server.logins 5
server.ops 43
server.peer.auth 5
server.peer.collab_updates 29
server.peer.lock_requests 2
server.peer.proxy_ops 10
server.peer.subscribes 2
server.poll.delivered 103
server.poll.nonempty 56
server.poll.requests 370
server.remote.auth_completions 2
server.status.requests 49
server.tcp.frames 181
substrate.cache.expired 2
substrate.cache.hits 8
substrate.cache.misses 1
substrate.collab.forwards 1
substrate.collab.pushes 33
substrate.discovery.peers_found 2
substrate.discovery.queries 3
substrate.rebinds 1
substrate.remote_auth.calls 5
substrate.remote_auth.denied 3
substrate.remote_locks 1
substrate.remote_ops 10
substrate.retries 2
substrate.subscribes 1
webserv.fifo.enqueued 103
webserv.fifo.peak 10
substrate.ring.shards 2
substrate.ring.epoch 2
client.lock_latency count=1 mean=15190436 min=15190436 p50=15190436 p90=15190436 p99=15190436 max=15190436
client.op_latency count=39 mean=1716952 min=292107 p50=1900543 p90=2207663 p99=2207663 max=2207663
client.status_latency count=49 mean=12131 min=9586 p50=9727 p90=17332 p99=17332 max=17332
";

#[test]
fn run_wide_view_is_the_sum_of_the_stores() {
    let c = run_every_key_fixture();
    assert!(!c.engine.flight_dumps().is_empty(), "the fixture must fire the recorder");
    assert_eq!(render_run_wide(&c.engine.stats()), EVERY_KEY_RUN_WIDE);
}
