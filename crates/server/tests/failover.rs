//! Host crash and recovery, end to end: a client steering a remote
//! application through its local server sees fast `Unavailable` failures
//! (with a redirect hint) while the host is down, and working operations
//! again after the host restarts and re-registers its applications.
//!
//! Uses `discover-core`/`discover-client` as dev-dependencies (cargo
//! permits the dev-only cycle) because the failure path spans the whole
//! stack: portal → gateway server → substrate → crashed host.

use appsim::{synthetic_app, DriverConfig};
use discover_client::{OpMix, Portal, PortalConfig, Workload, PRODUCTION_DEADLINE};
use discover_core::{CollaboratoryBuilder, DiscoverNode};
use simnet::{LinkSpec, SimDuration, SimTime};
use wire::{ClientMessage, ErrorCode, Privilege, ResponseBody, UserId};

#[test]
fn host_crash_fails_fast_then_recovers_after_restart() {
    let mut b = CollaboratoryBuilder::new(91);
    // Tight failure-detection settings so the 60 s run covers several
    // detect → fast-fail → recover cycles.
    b.substrate_config.call_timeout = SimDuration::from_secs(2);
    b.substrate_config.sweep_interval = SimDuration::from_millis(500);
    b.substrate_config.discovery_interval = SimDuration::from_secs(5);

    let gateway = b.server("gateway");
    let host = b.server("host");
    b.link_servers(gateway, host, LinkSpec::wan());

    let acl = vec![(UserId::new("vijay"), Privilege::Steer)];
    let mut dc = DriverConfig::default();
    dc.name = "ipars".into();
    dc.acl = acl.clone();
    dc.batch_time = SimDuration::from_millis(50);
    dc.batches_per_phase = 1;
    dc.interaction_window = SimDuration::from_secs(1);
    let (_, app) = b.application(host, synthetic_app(2, u64::MAX), dc.clone());
    let mut anchor = dc.clone();
    anchor.name = "anchor".into();
    b.application(gateway, synthetic_app(1, u64::MAX), anchor);

    // Closed-loop sensor workload against the remote app.
    let cfg = PortalConfig::new("vijay")
        .select_app(app)
        .poll_every(SimDuration::from_millis(200))
        .workload(Workload::new(app, OpMix::sensors_only(), SimDuration::from_millis(500)));
    let node = b.portal(gateway, "vijay", cfg);

    let mut c = b.build();

    // The host dies mid-session and comes back 10 s later.
    let crash_at = SimTime::from_secs(15);
    let restart_at = SimTime::from_secs(25);
    c.engine.crash_at(host.node, crash_at);
    c.engine.restart_at(host.node, restart_at);

    c.engine.run_until(SimTime::from_secs(60));

    let p = c.engine.actor_ref::<Portal>(node).unwrap();

    // Ops succeeded before the crash.
    let ok_before = p.received.iter().any(|(t, m)| {
        *t < crash_at
            && matches!(m, ClientMessage::Response(ResponseBody::OpDone { app: a, .. }) if *a == app)
    });
    assert!(ok_before, "the remote session should work before the crash");

    // While the host was down, requests failed with Unavailable and a
    // redirect hint instead of hanging: either a swept timeout naming the
    // down host or a breaker/health fast-fail.
    let failed_fast = p.received.iter().any(|(t, m)| {
        *t >= crash_at
            && matches!(m, ClientMessage::Error(e)
                if e.code == ErrorCode::Unavailable && e.detail.contains("redirect"))
    });
    assert!(failed_fast, "down-host ops must fail with Unavailable + redirect hint");
    assert!(
        c.engine.stats().counter("substrate.fastfails") > 0,
        "the gateway should fast-fail ops while the host is marked Down"
    );

    // After restart + re-registration the same session works again.
    let ok_after = p.received.iter().any(|(t, m)| {
        *t > restart_at
            && matches!(m, ClientMessage::Response(ResponseBody::OpDone { app: a, .. }) if *a == app)
    });
    assert!(ok_after, "ops must succeed again after the host restarts and re-registers");

    // The fault machinery actually engaged.
    assert_eq!(c.engine.stats().counter("engine.crashes"), 1);
    assert_eq!(c.engine.stats().counter("node.restarts"), 1);
    assert!(c.engine.stats().counter("substrate.retries") > 0, "expired calls were retried");
}

#[test]
fn restarted_host_rebinds_local_apps_into_naming() {
    // The host's daemon re-registers its applications on reboot: the
    // app stays resolvable and its host server still lists it locally.
    let mut b = CollaboratoryBuilder::new(92);
    b.substrate_config.call_timeout = SimDuration::from_secs(2);
    b.substrate_config.sweep_interval = SimDuration::from_millis(500);
    b.substrate_config.discovery_interval = SimDuration::from_secs(5);
    let host = b.server("host");
    let peer = b.server("peer");
    b.link_servers(host, peer, LinkSpec::wan());
    let mut dc = DriverConfig::default();
    dc.name = "ipars".into();
    dc.acl = vec![(UserId::new("vijay"), Privilege::Steer)];
    let (_, app) = b.application(host, synthetic_app(2, u64::MAX), dc);

    let mut c = b.build();
    c.engine.crash_at(host.node, SimTime::from_secs(5));
    c.engine.restart_at(host.node, SimTime::from_secs(8));
    c.engine.run_until(SimTime::from_secs(20));

    assert_eq!(c.engine.stats().counter("node.restarts"), 1);
    let host_core = c.server_core(host).unwrap();
    assert_eq!(host_core.local_app_count(), 1, "the app survives the reboot");
    assert!(
        c.engine.stats().counter("substrate.rebinds") > 0,
        "the daemon re-registered its local apps with the naming service"
    );
    // The peer still sees the host after its post-restart publish.
    assert_eq!(c.node(peer).unwrap().substrate.peer_addrs(), vec![host.addr]);
    let _ = app;
}

#[test]
fn deadlined_relays_still_mark_a_dead_host_down_and_fail_over() {
    // The portal's deadline (2.5 s) is far shorter than the call timeout
    // (10 s), so every relay to a dead host is answered at its deadline,
    // long before it could time out. The calls must still time out and
    // judge the host: it is marked down, which re-resolves the mirrored
    // app through naming and fails its route over to where the app
    // really is.
    let mut b = CollaboratoryBuilder::new(93);
    // No trader refresh within the run: only the down verdict can move
    // the route.
    b.substrate_config.discovery_interval = SimDuration::from_secs(600);
    let gateway = b.server("gateway");
    let host = b.server("host");
    let mirror = b.server("mirror");
    b.mesh_servers(LinkSpec::wan());

    let mut dc = DriverConfig::default();
    dc.name = "ipars".into();
    dc.acl = vec![(UserId::new("vijay"), Privilege::Steer)];
    dc.batch_time = SimDuration::from_millis(50);
    dc.batches_per_phase = 1;
    dc.interaction_window = SimDuration::from_secs(1);
    let (_, app) = b.application(host, synthetic_app(2, u64::MAX), dc.clone());
    let mut anchor = dc;
    anchor.name = "anchor".into();
    b.application(gateway, synthetic_app(1, u64::MAX), anchor);

    let cfg = PortalConfig::new("vijay")
        .select_app(app)
        .deadline(PRODUCTION_DEADLINE)
        .poll_every(SimDuration::from_millis(200))
        .workload(Workload::new(app, OpMix::sensors_only(), SimDuration::from_millis(500)));
    let node = b.portal(gateway, "vijay", cfg);
    let mut c = b.build();

    // The app had failed over to the mirror, which now dies: the
    // gateway's route points at a dead host while the app's own host is
    // up and bound in naming.
    let crash_at = SimTime::from_secs(10);
    c.engine.crash_at(mirror.node, crash_at);
    c.engine.run_until(crash_at + SimDuration::from_millis(1));
    let n = c.engine.actor_mut::<DiscoverNode>(gateway.node).unwrap();
    n.substrate.install_route(app, mirror.addr);
    c.engine.run_until(SimTime::from_secs(40));

    // The trader still lists the dead host, and the refresh the down
    // verdict triggers marks it up again, so its health is no witness
    // here: the failover is.
    let n = c.node(gateway).unwrap();
    assert_eq!(n.substrate.route_of(app), app.host(), "the app failed over to its live host");
    assert!(c.engine.stats().counter("substrate.failovers") >= 1);

    let p = c.engine.actor_ref::<Portal>(node).unwrap();
    let lapsed = p.received.iter().any(|(t, m)| {
        *t > crash_at
            && matches!(m, ClientMessage::Error(e) if e.code == ErrorCode::DeadlineExceeded)
    });
    assert!(lapsed, "ops to the dead host are answered at their deadline");
    let done_after = SimTime::from_secs(30);
    let ok_after = p.received.iter().any(|(t, m)| {
        *t > done_after
            && matches!(m, ClientMessage::Response(ResponseBody::OpDone { app: a, .. }) if *a == app)
    });
    assert!(ok_after, "ops succeed again once the route has failed over");
}
