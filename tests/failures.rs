//! Failure injection and dynamics: lossy WAN links, call timeouts,
//! application shutdown propagation, servers joining a running network,
//! and the §6.3 resource-accounting policy.

use appsim::{synthetic_app, DriverConfig};
use discover::prelude::*;
use wire::{AppToken, ClientMessage, ErrorCode, Event, LockStep, ResponseBody};

use discover_client::Portal;

fn steer_acl() -> Vec<(UserId, Privilege)> {
    vec![(UserId::new("vijay"), Privilege::Steer)]
}

/// Every `History` page `portal` received for `app`, in arrival order:
/// (records on the page, the cursor it leaves).
fn history_pages(portal: &Portal, app: AppId) -> Vec<(usize, u64)> {
    portal.histories(app).map(|(_, records, next_seq)| (records.len(), next_seq)).collect()
}

#[test]
fn lossy_wan_link_degrades_gracefully() {
    // 30% loss on the WAN: oneway collaboration pushes vanish sometimes,
    // two-way calls retry at the timeout sweep. Local work is unaffected.
    let mut b = CollaboratoryBuilder::new(31);
    b.substrate_config.call_timeout = SimDuration::from_secs(3);
    b.substrate_config.sweep_interval = SimDuration::from_secs(1);
    let home = b.server("home");
    let far = b.server("far");
    b.link_servers(home, far, LinkSpec::wan().with_loss(0.3));
    let mut dc = DriverConfig::default();
    dc.name = "ipars".into();
    dc.acl = steer_acl();
    dc.batch_time = SimDuration::from_millis(200);
    dc.batches_per_phase = 1;
    dc.interaction_window = SimDuration::from_millis(500);
    let (_, remote_app) = b.application(far, synthetic_app(2, u64::MAX), dc.clone());
    let mut local_dc = dc.clone();
    local_dc.name = "local".into();
    let (_, local_app) = b.application(home, synthetic_app(2, u64::MAX), local_dc);

    // The client watches the remote app and steers the local one.
    let cfg = discover_client::PortalConfig::new("vijay")
        .select_app(remote_app)
        .at(SimDuration::from_secs(2), ClientRequest::SelectApp { app: local_app })
        .at(SimDuration::from_secs(3), ClientRequest::RequestLock { app: local_app })
        .at(
            SimDuration::from_secs(4),
            ClientRequest::Op {
                app: local_app,
                op: AppOp::SetParam("knob0".into(), Value::Float(2.0)),
            },
        );
    let node = b.portal(home, "vijay", cfg);
    let mut c = b.build();
    c.engine.run_until(SimTime::from_secs(30));

    let p = c.engine.actor_ref::<Portal>(node).unwrap();
    // Local steering still works under WAN loss.
    assert!(p.received.iter().any(|(_, m)| matches!(
        m,
        ClientMessage::Response(ResponseBody::OpDone { app, .. }) if *app == local_app
    )));
    // Losses actually happened.
    let dropped = c.engine.stats().counter("link.wan.dropped");
    assert!(dropped > 0, "the lossy link should have dropped messages");
    // Remote status updates still flow (subscription survives or renews);
    // at 30% loss over 30 s some must get through.
    let remote_updates = p
        .updates()
        .iter()
        .filter(|u| matches!(u, UpdateBody::AppStatus { app, .. } if *app == remote_app))
        .count();
    assert!(remote_updates > 0, "some remote updates should survive 30% loss");
}

#[test]
fn severed_wan_times_out_remote_ops() {
    // The WAN drops everything: remote ops must fail with Unavailable via
    // the substrate's timeout sweep instead of hanging forever.
    let mut b = CollaboratoryBuilder::new(32);
    b.substrate_config.call_timeout = SimDuration::from_secs(2);
    b.substrate_config.sweep_interval = SimDuration::from_millis(500);
    let home = b.server("home");
    let far = b.server("far");
    // Let discovery + auth succeed first, then sever: we emulate severing
    // with a 100% lossy link from the start EXCEPT that discovery happens
    // via the directory (campus link), so the remote app is still listed.
    b.link_servers(home, far, LinkSpec::wan().with_loss(1.0));
    let mut dc = DriverConfig::default();
    dc.name = "ipars".into();
    dc.acl = steer_acl();
    let (_, remote_app) = b.application(far, synthetic_app(2, u64::MAX), dc.clone());
    let mut anchor = dc.clone();
    anchor.name = "anchor".into();
    b.application(home, synthetic_app(1, u64::MAX), anchor);

    // The client cannot learn of the remote app via peer auth (the WAN is
    // dead), so op it blindly by scripting the op — the server rejects
    // unknown remote apps, which is also a correct failure mode. To reach
    // the timeout path instead, the mirror must exist: so this test
    // asserts EITHER the early AccessDenied or a timeout Unavailable.
    let cfg = discover_client::PortalConfig::new("vijay").at(
        SimDuration::from_secs(2),
        ClientRequest::Op { app: remote_app, op: AppOp::GetSensors },
    );
    let node = b.portal(home, "vijay", cfg);
    let mut c = b.build();
    c.engine.run_until(SimTime::from_secs(10));
    let p = c.engine.actor_ref::<Portal>(node).unwrap();
    let failed = p.received.iter().any(|(_, m)| {
        matches!(
            m,
            ClientMessage::Error(e)
                if e.code == ErrorCode::AccessDenied || e.code == ErrorCode::Unavailable
        )
    });
    assert!(failed, "a dead WAN must produce a terminal error, not a hang");
    // And the auth fan-out calls to the dead peer eventually expired.
    assert!(
        c.engine.stats().counter("substrate.timeouts") > 0,
        "timed-out peer calls should be swept"
    );
}

#[test]
fn app_termination_propagates_to_remote_watchers() {
    let mut b = CollaboratoryBuilder::new(33);
    let home = b.server("home");
    let far = b.server("far");
    b.link_servers(home, far, LinkSpec::wan());
    let mut dc = DriverConfig::default();
    dc.name = "shortlived".into();
    dc.acl = steer_acl();
    dc.batch_time = SimDuration::from_millis(200);
    dc.batches_per_phase = 1;
    dc.interaction_window = SimDuration::from_millis(300);
    let (_, app) = b.application(far, synthetic_app(2, u64::MAX), dc.clone());
    let mut anchor = dc.clone();
    anchor.name = "anchor".into();
    b.application(home, synthetic_app(1, u64::MAX), anchor);

    let cfg = discover_client::PortalConfig::new("vijay")
        .select_app(app)
        .at(SimDuration::from_secs(3), ClientRequest::RequestLock { app })
        .at(
            SimDuration::from_secs(5),
            ClientRequest::Op { app, op: AppOp::Command(AppCommand::Terminate) },
        );
    let node = b.portal(home, "vijay", cfg);
    let mut c = b.build();
    c.engine.run_until(SimTime::from_secs(12));

    let p = c.engine.actor_ref::<Portal>(node).unwrap();
    assert!(
        p.updates().iter().any(|u| matches!(u, UpdateBody::AppClosed { app: a } if *a == app)),
        "the remote watcher must learn the app closed"
    );
    // The host no longer lists the app.
    let far_core = c.server_core(*c.servers.get(&app.host()).unwrap()).unwrap();
    assert_eq!(far_core.local_app_count(), 0, "the host deregisters the terminated app");
}

#[test]
fn late_joining_server_is_discovered_and_usable() {
    let mut b = CollaboratoryBuilder::new(34);
    let first = b.server("first");
    let mut dc = DriverConfig::default();
    dc.name = "anchor".into();
    dc.acl = steer_acl();
    b.application(first, synthetic_app(1, u64::MAX), dc.clone());
    let mut c = b.build();
    c.engine.run_until(SimTime::from_secs(2));
    assert!(c.node(first).unwrap().substrate.peer_addrs().is_empty());

    // A new domain comes online mid-run.
    let second = c.add_server("second", LinkSpec::wan());
    c.engine.run_until(SimTime::from_secs(40));
    // Default discovery refresh is 30 s: by t=40 both sides know each other.
    assert_eq!(
        c.node(first).unwrap().substrate.peer_addrs(),
        vec![second.addr],
        "the old server discovers the newcomer via the trader"
    );
    assert_eq!(c.node(second).unwrap().substrate.peer_addrs(), vec![first.addr]);
}

#[test]
fn peer_rate_policy_throttles_excessive_peers() {
    // Server with a strict 5 req/s per-peer policy; a remote client's
    // sensor workload is fast enough to trip it.
    let mut b = CollaboratoryBuilder::new(35);
    b.tweak_servers(|cfg| cfg.peer_rate_limit = Some(5));
    let host = b.server("host");
    let gateway = b.server("gateway");
    b.link_servers(host, gateway, LinkSpec::wan());
    let mut dc = DriverConfig::default();
    dc.name = "app0".into();
    dc.token = AppToken::new("app0");
    dc.acl = steer_acl();
    dc.batch_time = SimDuration::from_millis(50);
    dc.batches_per_phase = 1;
    dc.interaction_window = SimDuration::from_secs(1);
    let (_, app) = b.application(host, synthetic_app(2, u64::MAX), dc.clone());
    let mut anchor = dc.clone();
    anchor.name = "anchor".into();
    anchor.token = AppToken::new("anchor");
    b.application(gateway, synthetic_app(1, u64::MAX), anchor);

    let cfg = discover_client::PortalConfig::new("vijay")
        .select_app(app)
        .poll_every(SimDuration::from_millis(100))
        .workload(discover_client::Workload::new(
            app,
            discover_client::OpMix::sensors_only(),
            SimDuration::from_millis(50),
        ));
    let node = b.portal(gateway, "vijay", cfg);
    let mut c = b.build();
    c.engine.run_until(SimTime::from_secs(30));

    let throttled = c.engine.stats().counter("server.peer.throttled");
    assert!(throttled > 0, "the access policy should have throttled the peer");
    // The host's lifetime totals are its own node's counters: it served
    // the peer and throttled it, and it is the only server that throttled.
    use simnet::names;
    let at_host = c.engine.node_metrics(host.node);
    let throttled_at_host = at_host.counter(names::SERVER_PEER_THROTTLED);
    assert!(at_host.counter(names::SERVER_GIOP_CALLS) > throttled_at_host);
    assert_eq!(throttled_at_host, throttled);
    // The client still made progress within the allowed budget.
    let p = c.engine.actor_ref::<Portal>(node).unwrap();
    assert!(!p.op_completions.is_empty());
}

#[test]
fn throttled_history_fetch_still_answers_its_client() {
    // The same strict 5 req/s policy, met by relayed history fetches: a
    // burst of nine in one accounting window, so the host refuses most
    // of them with an exception. A refused fetch must still answer its
    // client — an empty page that leaves the cursor where it was — not
    // vanish into `substrate.replies.exceptions`.
    let mut b = CollaboratoryBuilder::new(35);
    b.tweak_servers(|cfg| cfg.peer_rate_limit = Some(5));
    let host = b.server("host");
    let gateway = b.server("gateway");
    b.link_servers(host, gateway, LinkSpec::wan());
    let mut dc = DriverConfig::default();
    dc.name = "app0".into();
    dc.token = AppToken::new("app0");
    dc.acl = steer_acl();
    dc.batch_time = SimDuration::from_millis(50);
    dc.batches_per_phase = 1;
    dc.interaction_window = SimDuration::from_secs(1);
    let (_, app) = b.application(host, synthetic_app(2, u64::MAX), dc.clone());
    let mut anchor = dc.clone();
    anchor.name = "anchor".into();
    anchor.token = AppToken::new("anchor");
    b.application(gateway, synthetic_app(1, u64::MAX), anchor);

    const FETCHES: u64 = 9;
    const SINCE: u64 = 3;
    let mut cfg = discover_client::PortalConfig::new("vijay")
        .select_app(app)
        .poll_every(SimDuration::from_millis(100));
    for k in 0..FETCHES {
        let at = SimDuration::from_millis(10_000 + 10 * k);
        cfg = cfg.at(at, ClientRequest::GetHistory { app, since: SINCE });
    }
    let node = b.portal(gateway, "vijay", cfg);
    let mut c = b.build();
    c.engine.run_until(SimTime::from_secs(20));

    assert!(c.engine.stats().counter("server.peer.throttled") > 0, "the burst must be throttled");
    let p = c.engine.actor_ref::<Portal>(node).unwrap();
    let pages = history_pages(p, app);
    assert_eq!(pages.len() as u64, FETCHES, "every fetch is answered exactly once: {pages:?}");
    let refused = pages.iter().filter(|(records, _)| *records == 0).count();
    assert!(refused > 0 && refused < pages.len(), "some served, some refused: {pages:?}");
    for (records, next_seq) in pages {
        assert!(records > 0 || next_seq == SINCE, "a refused fetch leaves the cursor unmoved");
    }
}

#[test]
fn history_fetch_abandoned_after_host_crash_keeps_the_cursor() {
    // The host crashes with a history fetch on the wire. The retry sweep
    // gives the call up, and the page that answers the client must leave
    // its archive cursor where the fetch started — `next_seq == since` —
    // not rewind it to the start of the log.
    let mut b = CollaboratoryBuilder::new(38);
    b.substrate_config.call_timeout = SimDuration::from_secs(2);
    b.substrate_config.sweep_interval = SimDuration::from_millis(500);
    let home = b.server("home");
    let far = b.server("far");
    b.link_servers(home, far, LinkSpec::wan());
    let mut dc = DriverConfig::default();
    dc.name = "ipars".into();
    dc.acl = steer_acl();
    dc.batch_time = SimDuration::from_millis(200);
    dc.batches_per_phase = 1;
    dc.interaction_window = SimDuration::from_millis(300);
    let (_, app) = b.application(far, synthetic_app(2, u64::MAX), dc.clone());
    let mut anchor = dc.clone();
    anchor.name = "anchor".into();
    b.application(home, synthetic_app(1, u64::MAX), anchor);

    const SINCE: u64 = 2;
    let cfg = discover_client::PortalConfig::new("vijay")
        .select_app(app)
        .at(SimDuration::from_secs(4), ClientRequest::GetHistory { app, since: 0 })
        .at(SimDuration::from_secs(8), ClientRequest::GetHistory { app, since: SINCE });
    let node = b.portal(home, "vijay", cfg);
    let mut c = b.build();
    // Down 10 ms after the second fetch leaves the portal: mid-fetch.
    c.engine.crash_at(far.node, SimTime::from_millis(8_010));
    c.engine.run_until(SimTime::from_secs(25));

    assert!(c.engine.stats().counter("substrate.timeouts") > 0, "the fetch must be given up");
    let p = c.engine.actor_ref::<Portal>(node).unwrap();
    let pages = history_pages(p, app);
    let [(served, cursor), abandoned] = pages.as_slice() else {
        panic!("one page per fetch: {pages:?}");
    };
    assert!(*served > 0 && *cursor > SINCE, "the first fetch is served: {pages:?}");
    assert_eq!(*abandoned, (0, SINCE), "the abandoned fetch must not move the cursor");
    assert_eq!(c.node(home).unwrap().substrate.in_flight(), 0);
}

#[test]
fn shedding_composes_with_relayed_ops_under_partition() {
    // Overload-under-partition: a compute-heavy app with a bounded Daemon
    // buffer sheds flood traffic at the host while the host↔mirror WAN is
    // partitioned mid-run. The mirror's relayed ops are still admitted at
    // the host around the partition via the substrate's retry machinery,
    // and no operation is ever answered twice.
    let mut b = CollaboratoryBuilder::new(37);
    b.substrate_config.call_timeout = SimDuration::from_secs(2);
    b.substrate_config.sweep_interval = SimDuration::from_millis(500);
    b.substrate_config.discovery_interval = SimDuration::from_secs(2);
    b.tweak_servers(|cfg| cfg.proxy_buffer_capacity = Some(1));
    let host = b.server("host");
    let mirror = b.server("mirror");
    b.link_servers(host, mirror, LinkSpec::wan());
    let mut dc = DriverConfig::default();
    dc.name = "ipars".into();
    dc.acl = vec![
        (UserId::new("flood0"), Privilege::ReadOnly),
        (UserId::new("flood1"), Privilege::ReadOnly),
        (UserId::new("flood2"), Privilege::ReadOnly),
        (UserId::new("remote"), Privilege::ReadOnly),
    ];
    // Long compute phases force buffering; capacity 2 forces shedding.
    dc.batch_time = SimDuration::from_secs(2);
    dc.batches_per_phase = 1;
    dc.interaction_window = SimDuration::from_millis(600);
    let (_, app) = b.application(host, synthetic_app(2, u64::MAX), dc.clone());
    let mut anchor = dc.clone();
    anchor.name = "anchor".into();
    b.application(mirror, synthetic_app(1, u64::MAX), anchor);

    // Local clients flood the host with view ops faster than the app
    // drains them (the one-slot buffer overflows as soon as two are
    // parked); a remote client works through the mirror at a gentler
    // pace, so its ops cross the partitioned WAN.
    let mut floods = Vec::new();
    for (i, user) in ["flood0", "flood1", "flood2"].iter().enumerate() {
        let mut cfg = discover_client::PortalConfig::new(user)
            .select_app(app)
            .poll_every(SimDuration::from_millis(500))
            .workload(discover_client::Workload::new(
                app,
                discover_client::OpMix::sensors_only(),
                SimDuration::from_millis(250),
            ));
        cfg.login_delay = SimDuration::from_millis(300 + 70 * i as u64);
        floods.push(b.portal(host, user, cfg));
    }
    let remote_cfg = discover_client::PortalConfig::new("remote")
        .select_app(app)
        .poll_every(SimDuration::from_millis(500))
        .workload(discover_client::Workload::new(
            app,
            discover_client::OpMix::sensors_only(),
            SimDuration::from_secs(1),
        ));
    let remote = b.portal(mirror, "remote", remote_cfg);

    let mut c = b.build();
    // Sever the host↔mirror WAN for 6 s in the middle of the run.
    c.engine.partition(host.node, mirror.node, SimTime::from_secs(10), SimTime::from_secs(16));
    c.engine.run_until(SimTime::from_secs(30));

    use simnet::names;
    let hm = c.engine.node_metrics(host.node);
    assert!(hm.counter(names::SERVER_PROXY_SHED) > 0, "the bounded buffer must shed");
    // The mirror-side client was admitted: its ops relayed over the peer
    // network and completed despite the mid-run partition (retries).
    let rp = c.engine.actor_ref::<Portal>(remote).unwrap();
    let remote_done = rp
        .received
        .iter()
        .filter(|(_, m)| {
            matches!(
                m,
                ClientMessage::Response(ResponseBody::OpDone { app: a, .. }) if *a == app
            )
        })
        .count();
    assert!(remote_done > 0, "ops via the mirror must be admitted at the host");
    assert!(c.engine.node_metrics(mirror.node).counter(names::SUBSTRATE_REMOTE_OPS) > 0);
    assert!(hm.counter(names::SERVER_PEER_PROXY_OPS) > 0);
    assert!(
        c.engine.stats().counter("substrate.retries") > 0,
        "calls caught by the partition must be retried"
    );
    // Not double-counted: every issued op terminates at most once — the
    // shed path and the relay path never both answer the same request.
    for node in floods.iter().copied().chain([remote]) {
        let p = c.engine.actor_ref::<Portal>(node).unwrap();
        let issued = c.engine.node_metrics(node).counter(names::CLIENT_OPS_ISSUED);
        let terminals = p
            .received
            .iter()
            .filter(|(_, m)| {
                matches!(
                    m,
                    ClientMessage::Response(ResponseBody::OpDone { app: a, .. }) if *a == app
                ) || m.kind() == wire::MessageKind::Error
            })
            .count() as u64;
        assert!(
            terminals <= issued,
            "ops must terminate at most once: {terminals} terminals for {issued} issued"
        );
    }
}

#[test]
fn idle_sessions_are_reaped_and_locks_freed() {
    let mut b = CollaboratoryBuilder::new(36);
    b.substrate_config.sweep_interval = SimDuration::from_secs(2);
    b.tweak_servers(|cfg| cfg.session_idle_timeout = Some(SimDuration::from_secs(10)));
    let server = b.server("server0");
    let mut dc = DriverConfig::default();
    dc.name = "app0".into();
    dc.acl =
        vec![(UserId::new("vijay"), Privilege::Steer), (UserId::new("manish"), Privilege::Steer)];
    dc.batch_time = SimDuration::from_millis(100);
    dc.batches_per_phase = 1;
    dc.interaction_window = SimDuration::from_millis(500);
    let (_, app) = b.application(server, synthetic_app(2, u64::MAX), dc);

    // vijay grabs the lock, then his portal goes silent (poll period far
    // beyond the idle timeout) — a vanished browser.
    let mut vanishing = discover_client::PortalConfig::new("vijay")
        .select_app(app)
        .at(SimDuration::from_secs(1), ClientRequest::RequestLock { app });
    vanishing.poll_every = SimDuration::from_secs(3600);
    b.portal(server, "vijay", vanishing);

    // manish keeps polling and tries for the lock later.
    let manish = discover_client::PortalConfig::new("manish")
        .select_app(app)
        .at(SimDuration::from_secs(30), ClientRequest::RequestLock { app });
    let manish_node = b.portal(server, "manish", manish);

    let mut c = b.build();
    c.engine.run_until(SimTime::from_secs(40));

    assert!(c.engine.stats().counter("server.sessions.reaped") >= 1, "idle session reaped");
    let core = c.server_core(server).unwrap();
    assert_eq!(core.session_count(), 1, "only manish's fresh session remains");
    // The reap force-released vijay's lock, so manish's request succeeded.
    let m = c.engine.actor_ref::<Portal>(manish_node).unwrap();
    assert!(m
        .received
        .iter()
        .any(|(_, msg)| matches!(msg, ClientMessage::Response(ResponseBody::LockGranted { .. }))));
}

#[test]
fn stale_directory_route_is_invalidated_on_nak() {
    // A stale directory-cache entry points an app's route at a server
    // that no longer (here: never) hosts it. The peer's NoSuchApp Nak
    // must evict the cached route so the next request re-resolves to the
    // true host instead of bouncing off the stale address forever.
    let mut b = CollaboratoryBuilder::new(41);
    let rutgers = b.server("rutgers");
    let utexas = b.server("utexas");
    let _gamma = b.server("gamma");
    b.mesh_servers(LinkSpec::wan());
    let mut dc = DriverConfig::default();
    dc.name = "ipars".into();
    dc.acl = steer_acl();
    dc.batch_time = SimDuration::from_millis(100);
    dc.batches_per_phase = 2;
    dc.interaction_window = SimDuration::from_millis(300);
    let (_, app) = b.application(utexas, synthetic_app(2, u64::MAX), dc);
    let mut anchor = DriverConfig::default();
    anchor.name = "anchor".into();
    anchor.acl = vec![(UserId::new("vijay"), Privilege::ReadOnly)];
    b.application(rutgers, synthetic_app(1, 100), anchor);

    let mut cfg = discover_client::PortalConfig::new("vijay")
        .select_app(app)
        .at(SimDuration::from_secs(6), ClientRequest::Op { app, op: AppOp::GetSensors })
        .at(SimDuration::from_secs(14), ClientRequest::Op { app, op: AppOp::GetSensors });
    cfg.login_delay = SimDuration::from_millis(200);
    let node = b.portal(rutgers, "vijay-portal", cfg);
    let mut c = b.build();

    // Let discovery, login and remote selection settle, then poison
    // rutgers' route for the app: point it at gamma, which will Nak.
    c.engine.run_until(SimTime::from_secs(4));
    let poisoned = {
        let n = c.engine.actor_mut::<discover_core::DiscoverNode>(rutgers.node).unwrap();
        let bogus = n
            .substrate
            .peer_addrs()
            .into_iter()
            .find(|&a| a != app.host())
            .expect("gamma is a peer");
        n.substrate.install_route(app, bogus);
        bogus
    };
    c.engine.run_until(SimTime::from_secs(20));

    assert!(
        c.engine.stats().counter("substrate.routes.invalidated") >= 1,
        "the NoSuchApp Nak from {poisoned:?} must evict the stale route"
    );
    let n = c.engine.actor_ref::<discover_core::DiscoverNode>(rutgers.node).unwrap();
    assert_eq!(n.substrate.route_of(app), app.host(), "route falls back to the true host");
    // The second op, issued after the eviction, reaches utexas and
    // completes; the stale route cost at most the first op.
    let p = c.engine.actor_ref::<Portal>(node).unwrap();
    let done = p
        .received
        .iter()
        .filter(|(at, m)| {
            *at > SimTime::from_secs(7)
                && matches!(
                    m,
                    ClientMessage::Response(ResponseBody::OpDone { app: a, .. }) if *a == app
                )
        })
        .count();
    assert!(done >= 1, "an op issued after the eviction must complete at the true host");
}

#[test]
fn parked_session_is_reclaimed_after_ttl_and_lock_freed() {
    // Two-phase lifecycle under a park TTL: a silent client's session is
    // first *parked* (lock interest retained — nobody else can grab it),
    // and only reclaimed when the TTL also expires, at which point the
    // lock frees and the next contender wins it. The lock history must
    // stay single-holder throughout: the reclaim's force-release has to
    // precede the rival grant.
    let mut b = CollaboratoryBuilder::new(42);
    b.history();
    b.substrate_config.sweep_interval = SimDuration::from_secs(2);
    b.tweak_servers(|cfg| {
        cfg.session_idle_timeout = Some(SimDuration::from_secs(10));
        cfg.session_park_ttl = Some(SimDuration::from_secs(8));
    });
    let server = b.server("server0");
    let mut dc = DriverConfig::default();
    dc.name = "app0".into();
    dc.acl =
        vec![(UserId::new("vijay"), Privilege::Steer), (UserId::new("manish"), Privilege::Steer)];
    dc.batch_time = SimDuration::from_millis(100);
    dc.batches_per_phase = 1;
    dc.interaction_window = SimDuration::from_millis(500);
    let (_, app) = b.application(server, synthetic_app(2, u64::MAX), dc);

    // vijay grabs the lock, then his portal vanishes mid-session.
    let mut vanishing = discover_client::PortalConfig::new("vijay")
        .select_app(app)
        .at(SimDuration::from_secs(1), ClientRequest::RequestLock { app });
    vanishing.poll_every = SimDuration::from_secs(3600);
    b.portal(server, "vijay", vanishing);

    // manish keeps polling; he asks for the lock while vijay is merely
    // parked (must be denied) and again after the TTL reclaim (must win).
    let manish = discover_client::PortalConfig::new("manish")
        .select_app(app)
        .at(SimDuration::from_secs(16), ClientRequest::RequestLock { app })
        .at(SimDuration::from_secs(32), ClientRequest::RequestLock { app });
    let manish_node = b.portal(server, "manish", manish);

    let mut c = b.build();
    c.engine.run_until(SimTime::from_secs(40));

    // Phase 1: parked, not torn down — lock interest survived, so
    // manish's first attempt lost while the park held.
    let stats = c.engine.stats();
    assert!(stats.counter("server.sessions.parked") >= 1, "idle session parked");
    assert!(stats.counter("server.sessions.reclaimed") >= 1, "park TTL reclaimed it");
    let core = c.server_core(server).unwrap();
    assert_eq!(core.parked_count(), 0, "no parked session leaks past the TTL");
    assert_eq!(core.session_count(), 1, "only manish's session remains");
    let m = c.engine.actor_ref::<Portal>(manish_node).unwrap();
    let denied = m.received.iter().any(|(_, msg)| {
        matches!(
            msg,
            ClientMessage::Response(ResponseBody::LockDenied { holder: Some(h), .. })
                if h == &UserId::new("vijay")
        )
    });
    assert!(denied, "while parked, vijay's lock interest must still deny rivals");
    // Phase 2: after reclamation the lock freed and manish won.
    let granted = m
        .received
        .iter()
        .any(|(_, msg)| matches!(msg, ClientMessage::Response(ResponseBody::LockGranted { .. })));
    assert!(granted, "after the reclaim, the lock must be grantable again");

    // Single-holder throughout: in history order, vijay's grant, then the
    // reclaim's force-release, then manish's grant.
    let history = c.engine.history();
    let seq_of = |want: LockStep, who: &str| {
        let is = |e: &Event| matches!(e, Event::Lock(step, _, user, _) if *step == want && user.as_str() == who);
        history
            .iter()
            .find(|e| e.downcast().is_some_and(is))
            .map(|e| e.seq)
            .unwrap_or_else(|| panic!("no {want:?} event for {who}"))
    };
    let vijay_grant = seq_of(LockStep::Granted, "vijay");
    let force_release = seq_of(LockStep::ForceReleased, "vijay");
    let manish_grant = seq_of(LockStep::Granted, "manish");
    assert!(
        vijay_grant < force_release && force_release < manish_grant,
        "lock history must stay single-holder: grant({vijay_grant}) < \
         force-release({force_release}) < rival grant({manish_grant})"
    );
}
