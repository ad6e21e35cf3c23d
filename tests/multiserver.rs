//! Cross-crate integration tests: the full peer-to-peer middleware over
//! multiple DISCOVER servers — discovery, remote access, distributed
//! locking, cross-server collaboration, and the poll-mode substrate.

use appsim::{synthetic_app, AppDriver, DriverConfig, Synthetic};
use discover::prelude::*;
use wire::{AppToken, ClientMessage, ErrorCode, OpOutcome, ResponseBody};

/// Two-domain fixture: an app named "ipars" hosted at `utexas`; clients
/// attach wherever the test wants. Steer/write/view users on the ACL.
fn two_domains(
    seed: u64,
    mode: CollabMode,
) -> (CollaboratoryBuilder, ServerHandle, ServerHandle, AppId) {
    let mut b = CollaboratoryBuilder::new(seed);
    b.substrate_config.collab_mode = mode;
    let rutgers = b.server("rutgers");
    let utexas = b.server("utexas");
    b.link_servers(rutgers, utexas, LinkSpec::wan());
    let mut dc = DriverConfig::default();
    dc.name = "ipars".into();
    dc.token = AppToken::new("tok");
    dc.acl = vec![
        (UserId::new("vijay"), Privilege::Steer),
        (UserId::new("manish"), Privilege::Steer),
        (UserId::new("viewer"), Privilege::ReadOnly),
    ];
    dc.batch_time = SimDuration::from_millis(100);
    dc.batches_per_phase = 2;
    dc.interaction_window = SimDuration::from_millis(300);
    let (_, app) = b.application(utexas, synthetic_app(2, 100_000), dc);
    (b, rutgers, utexas, app)
}

fn portal(user: &str, app: AppId) -> PortalConfig {
    PortalConfig::new(user).select_app(app)
}

#[test]
fn peer_discovery_via_trader() {
    let mut b = CollaboratoryBuilder::new(1);
    let s1 = b.server("alpha");
    let s2 = b.server("beta");
    let s3 = b.server("gamma");
    b.mesh_servers(LinkSpec::wan());
    let mut c = b.build();
    c.engine.run_until(SimTime::from_secs(2));
    for s in [s1, s2, s3] {
        let node = c.node(s).unwrap();
        assert_eq!(
            node.substrate.peer_addrs().len(),
            2,
            "{} should discover both peers",
            c.engine.node_name(s.node)
        );
    }
    assert!(c.engine.stats().counter("substrate.discovery.queries") >= 3);
}

#[test]
fn remote_app_visible_after_login() {
    let (mut b, rutgers, _utexas, app) = two_domains(2, CollabMode::Push);
    // "vijay" logs in at rutgers, where NO app is registered under him...
    // per the paper that denies level-1. So host a small local app at
    // rutgers too, with vijay on its ACL.
    let mut dc = DriverConfig::default();
    dc.name = "local-cfd".into();
    dc.acl = vec![(UserId::new("vijay"), Privilege::ReadOnly)];
    b.application(rutgers, synthetic_app(1, 100), dc);
    let mut cfg = portal("vijay", app);
    cfg.login_delay = SimDuration::from_millis(200); // let discovery settle
    let node = b.portal(rutgers, "vijay-portal", cfg);
    let mut c = b.build();
    c.engine.run_until(SimTime::from_secs(5));
    let p = c.engine.actor_ref::<Portal>(node).unwrap();
    assert_eq!(p.login_status, Some(200));
    // The Apps refresh following remote authentication lists the UT app.
    let saw_remote = p.received.iter().any(|(_, m)| match m {
        ClientMessage::Response(ResponseBody::Apps(apps))
        | ClientMessage::Response(ResponseBody::LoginOk { apps, .. }) => {
            apps.iter().any(|d| d.app == app)
        }
        _ => false,
    });
    assert!(saw_remote, "remote application should appear in the repository view");
    // And the portal managed to select the remote app.
    assert!(p
        .received
        .iter()
        .any(|(_, m)| matches!(m, ClientMessage::Response(ResponseBody::AppSelected { app: a, .. }) if *a == app)));
}

/// Full remote steering path: client at rutgers steers the app at utexas.
#[test]
fn remote_steering_applies_at_host() {
    let (mut b, rutgers, utexas, app) = two_domains(3, CollabMode::Push);
    // Local anchor app for login at rutgers.
    let mut dc = DriverConfig::default();
    dc.name = "anchor".into();
    dc.acl = vec![(UserId::new("vijay"), Privilege::ReadOnly)];
    b.application(rutgers, synthetic_app(1, 100), dc);

    let mut cfg = portal("vijay", app).at(
        SimDuration::from_secs(3),
        ClientRequest::Op { app, op: AppOp::SetParam("knob0".into(), Value::Float(9.5)) },
    );
    cfg.login_delay = SimDuration::from_millis(200);
    cfg.script.insert(0, (SimDuration::from_secs(2), ClientRequest::RequestLock { app }));
    let portal_node = b.portal(rutgers, "vijay-portal", cfg);

    // App driver node is the second node created for utexas' app; find it
    // from the builder return value instead.
    let mut c = b.build();
    c.engine.run_until(SimTime::from_secs(10));

    let p = c.engine.actor_ref::<Portal>(portal_node).unwrap();
    assert!(
        p.received.iter().any(|(_, m)| matches!(
            m,
            ClientMessage::Response(ResponseBody::LockGranted { app: a }) if *a == app
        )),
        "relayed lock must be granted"
    );
    assert!(
        p.received.iter().any(|(_, m)| matches!(
            m,
            ClientMessage::Response(ResponseBody::OpDone {
                outcome: OpOutcome::ParamSet(name, Value::Float(v)),
                ..
            }) if name == "knob0" && *v == 9.5
        )),
        "remote SetParam should complete back at the client"
    );
    // The steering really reached the application's kernel at utexas.
    let app_driver_node = (0..c.engine.node_count() as u32)
        .map(simnet::NodeId)
        .find(|&n| c.engine.node_name(n) == "app:ipars")
        .unwrap();
    let driver = c.engine.actor_ref::<AppDriver<Synthetic>>(app_driver_node).unwrap();
    assert_eq!(driver.app().kernel().knobs[0], 9.5);
    // Host server holds the authoritative lock.
    let host = c.server_core(utexas).unwrap();
    assert!(host.proxy(app).unwrap().lock.is_held_by(&UserId::new("vijay")));
}

#[test]
fn distributed_lock_is_exclusive_across_servers() {
    let (mut b, rutgers, utexas, app) = two_domains(4, CollabMode::Push);
    let mut dc = DriverConfig::default();
    dc.name = "anchor".into();
    dc.acl = vec![(UserId::new("vijay"), Privilege::ReadOnly)];
    b.application(rutgers, synthetic_app(1, 100), dc);

    // vijay (remote, via rutgers) and manish (local at utexas) contend.
    let mut vijay = portal("vijay", app);
    vijay.login_delay = SimDuration::from_millis(200);
    vijay.script.push((SimDuration::from_secs(2), ClientRequest::RequestLock { app }));
    let vijay_node = b.portal(rutgers, "vijay-portal", vijay);

    let mut manish = portal("manish", app);
    manish.script.push((SimDuration::from_millis(2050), ClientRequest::RequestLock { app }));
    manish.script.push((SimDuration::from_secs(6), ClientRequest::RequestLock { app }));
    let manish_node = b.portal(utexas, "manish-portal", manish);

    let mut c = b.build();
    // vijay releases later:
    // (simplest: logout is not scripted; vijay keeps it past manish's 1st try)
    c.engine.run_until(SimTime::from_secs(4));

    let v = c.engine.actor_ref::<Portal>(vijay_node).unwrap();
    let granted_v = v
        .received
        .iter()
        .any(|(_, m)| matches!(m, ClientMessage::Response(ResponseBody::LockGranted { .. })));
    let m = c.engine.actor_ref::<Portal>(manish_node).unwrap();
    let denied_m = m.received.iter().any(|(_, m)| {
        matches!(
            m,
            ClientMessage::Response(ResponseBody::LockDenied { holder: Some(h), .. })
                if h.as_str() == "vijay"
        )
    });
    assert!(granted_v, "the WAN-remote requester (first) wins the lock");
    assert!(denied_m, "the local (second) requester is denied with the holder's name");
    // Exactly one holder at the host at all times.
    let host = c.server_core(utexas).unwrap();
    assert!(host.proxy(app).unwrap().lock.is_held_by(&UserId::new("vijay")));
}

#[test]
fn mutating_op_without_lock_rejected_at_host() {
    let (mut b, rutgers, _utexas, app) = two_domains(5, CollabMode::Push);
    let mut dc = DriverConfig::default();
    dc.name = "anchor".into();
    dc.acl = vec![(UserId::new("vijay"), Privilege::ReadOnly)];
    b.application(rutgers, synthetic_app(1, 100), dc);

    let mut cfg = portal("vijay", app).at(
        SimDuration::from_secs(2),
        ClientRequest::Op { app, op: AppOp::SetParam("knob0".into(), Value::Float(1.0)) },
    );
    cfg.login_delay = SimDuration::from_millis(200);
    let node = b.portal(rutgers, "vijay-portal", cfg);
    let mut c = b.build();
    c.engine.run_until(SimTime::from_secs(5));
    let p = c.engine.actor_ref::<Portal>(node).unwrap();
    assert!(p.received.iter().any(|(_, m)| matches!(
        m,
        ClientMessage::Error(e) if e.code == ErrorCode::LockRequired
    )));
}

/// Chat from a rutgers client reaches a utexas client exactly once, and
/// never echoes back to the sender — across the WAN, via the host server.
fn run_cross_server_chat(mode: CollabMode, seed: u64) {
    let (mut b, rutgers, utexas, app) = two_domains(seed, mode);
    let mut dc = DriverConfig::default();
    dc.name = "anchor".into();
    dc.acl = vec![(UserId::new("vijay"), Privilege::ReadOnly)];
    b.application(rutgers, synthetic_app(1, 100), dc);

    let mut sender = portal("vijay", app);
    sender.login_delay = SimDuration::from_millis(200);
    sender
        .script
        .push((SimDuration::from_secs(3), ClientRequest::Chat { app, text: "hello wan".into() }));
    let sender_node = b.portal(rutgers, "vijay-portal", sender);

    let receiver = portal("manish", app);
    let receiver_node = b.portal(utexas, "manish-portal", receiver);

    let mut c = b.build();
    c.engine.run_until(SimTime::from_secs(8));

    let rx = c.engine.actor_ref::<Portal>(receiver_node).unwrap();
    let got: Vec<_> = rx
        .updates()
        .into_iter()
        .filter(|u| matches!(u, UpdateBody::Chat { text, .. } if text == "hello wan"))
        .collect();
    assert_eq!(got.len(), 1, "exactly one copy must arrive ({mode:?})");

    let tx = c.engine.actor_ref::<Portal>(sender_node).unwrap();
    assert!(
        !tx.updates().iter().any(|u| matches!(u, UpdateBody::Chat { .. })),
        "sender must not receive its own chat ({mode:?})"
    );
}

#[test]
fn chat_crosses_servers_push_mode() {
    run_cross_server_chat(CollabMode::Push, 6);
}

#[test]
fn chat_crosses_servers_poll_mode() {
    run_cross_server_chat(CollabMode::Poll { interval: SimDuration::from_millis(400) }, 7);
}

/// §5.2.3: one WAN message per remote server, then local fan-out. With 3
/// clients at rutgers watching a utexas app, each periodic update crosses
/// the WAN once but is delivered three times locally.
#[test]
fn collab_fanout_sends_one_message_per_remote_server() {
    let (mut b, rutgers, _utexas, app) = two_domains(8, CollabMode::Push);
    let mut dc = DriverConfig::default();
    dc.name = "anchor".into();
    dc.acl = vec![
        (UserId::new("vijay"), Privilege::ReadOnly),
        (UserId::new("manish"), Privilege::ReadOnly),
        (UserId::new("viewer"), Privilege::ReadOnly),
    ];
    b.application(rutgers, synthetic_app(1, 100), dc);

    let mut nodes = Vec::new();
    for user in ["vijay", "manish", "viewer"] {
        let mut cfg = portal(user, app);
        cfg.login_delay = SimDuration::from_millis(200);
        nodes.push(b.portal(rutgers, &format!("{user}-portal"), cfg));
    }
    let mut c = b.build();
    c.engine.run_until(SimTime::from_secs(20));

    let pushes = c.engine.stats().counter("substrate.collab.pushes");
    assert!(pushes > 10, "host should push updates over the WAN, got {pushes}");
    // Every rutgers client received status updates...
    let mut per_client = Vec::new();
    for n in &nodes {
        let p = c.engine.actor_ref::<Portal>(*n).unwrap();
        let count = p
            .updates()
            .iter()
            .filter(|u| matches!(u, UpdateBody::AppStatus { app: a, .. } if *a == app))
            .count();
        per_client.push(count);
    }
    assert!(per_client.iter().all(|&c| c > 5), "all members stream updates: {per_client:?}");
    // ...yet the WAN carried each update only once: local deliveries ≈ 3x pushes.
    let local = c.engine.stats().counter("server.collab.local_fanout");
    assert!(
        local as f64 >= 2.0 * pushes as f64,
        "local fan-out ({local}) should be ~3x the WAN messages ({pushes})"
    );
}

#[test]
fn latecomer_fetches_remote_history() {
    let (mut b, rutgers, _utexas, app) = two_domains(9, CollabMode::Push);
    let mut dc = DriverConfig::default();
    dc.name = "anchor".into();
    dc.acl = vec![(UserId::new("vijay"), Privilege::ReadOnly)];
    b.application(rutgers, synthetic_app(1, 100), dc);

    let mut cfg = portal("vijay", app)
        .at(SimDuration::from_secs(6), ClientRequest::GetHistory { app, since: 0 });
    cfg.login_delay = SimDuration::from_millis(200);
    let node = b.portal(rutgers, "vijay-portal", cfg);
    let mut c = b.build();
    c.engine.run_until(SimTime::from_secs(10));
    let p = c.engine.actor_ref::<Portal>(node).unwrap();
    let (_, history, _) =
        p.histories(app).next().expect("history should arrive from the remote host");
    assert!(!history.is_empty(), "app log must contain status entries");
    assert!(history.windows(2).all(|w| w[0].seq < w[1].seq));
}

/// The same portal code works against a single server with a local app —
/// the client cannot tell local from remote (transparency).
#[test]
fn local_and_remote_access_are_symmetric_for_clients() {
    let mut b = CollaboratoryBuilder::new(10);
    let solo = b.server("solo");
    let mut dc = DriverConfig::default();
    dc.name = "ipars".into();
    dc.acl = vec![(UserId::new("vijay"), Privilege::Steer)];
    dc.batch_time = SimDuration::from_millis(100);
    dc.batches_per_phase = 2;
    dc.interaction_window = SimDuration::from_millis(300);
    let (_, app) = b.application(solo, synthetic_app(2, 1000), dc);
    let cfg =
        portal("vijay", app).at(SimDuration::from_secs(1), ClientRequest::RequestLock { app }).at(
            SimDuration::from_secs(2),
            ClientRequest::Op { app, op: AppOp::SetParam("knob0".into(), Value::Float(4.0)) },
        );
    let node = b.portal(solo, "vijay-portal", cfg);
    let mut c = b.build();
    c.engine.run_until(SimTime::from_secs(6));
    let p = c.engine.actor_ref::<Portal>(node).unwrap();
    assert!(p.received.iter().any(|(_, m)| matches!(
        m,
        ClientMessage::Response(ResponseBody::OpDone { outcome: OpOutcome::ParamSet(..), .. })
    )));
    let node_ref = c.node(solo).unwrap();
    assert_eq!(node_ref.core.local_app_count(), 1);
}
