//! Security deny paths (§5.2.3): second-level ACL rejection for users
//! not on an application's ACL, privilege enforcement against
//! unauthorized steering attempts, and mid-session credential revocation
//! — plus the metrics those denials must leave behind.

use appsim::{synthetic_app, DriverConfig};
use discover::prelude::*;
use discover_core::DiscoverNode;
use simnet::names;
use wire::{ClientMessage, ErrorCode, ResponseBody};

/// A one-server collaboratory with a steerable app (alice: Steer,
/// carol: ReadOnly) and an anchor app whose ACL also lists mallory, so
/// mallory passes first-level login but holds no grant on the main app.
fn build_fixture(seed: u64) -> (discover::core::CollaboratoryBuilder, ServerHandle, AppId) {
    let mut b = CollaboratoryBuilder::new(seed);
    let s0 = b.server("s0");
    let mut dc = DriverConfig::default();
    dc.name = "ipars".into();
    dc.acl =
        vec![(UserId::new("alice"), Privilege::Steer), (UserId::new("carol"), Privilege::ReadOnly)];
    dc.batch_time = SimDuration::from_millis(200);
    dc.batches_per_phase = 1;
    dc.interaction_window = SimDuration::from_millis(500);
    let (_, app) = b.application(s0, synthetic_app(2, u64::MAX), dc.clone());
    let mut anchor = dc;
    anchor.name = "anchor".into();
    anchor.acl = vec![
        (UserId::new("alice"), Privilege::ReadOnly),
        (UserId::new("carol"), Privilege::ReadOnly),
        (UserId::new("mallory"), Privilege::ReadOnly),
    ];
    b.application(s0, synthetic_app(1, u64::MAX), anchor);
    (b, s0, app)
}

fn denied_count(portal: &Portal) -> usize {
    portal
        .received
        .iter()
        .filter(|(_, m)| matches!(m, ClientMessage::Error(e) if e.code == ErrorCode::AccessDenied))
        .count()
}

/// Second-level ACL rejection: a logged-in user with no grant on the
/// application is denied every operation on it, and the denial is
/// counted.
#[test]
fn off_acl_user_is_rejected_at_second_level() {
    let (mut b, s0, app) = build_fixture(101);
    let cfg = PortalConfig::new("mallory")
        .at(SimDuration::from_secs(1), ClientRequest::Op { app, op: AppOp::GetStatus })
        .at(SimDuration::from_secs(2), ClientRequest::Op { app, op: AppOp::GetSensors });
    let node = b.portal(s0, "mallory", cfg);
    let mut c = b.build();
    c.engine.run_until(SimTime::from_secs(6));

    let p = c.engine.actor_ref::<Portal>(node).unwrap();
    assert_eq!(denied_count(p), 2, "both ops on the ungranted app must be denied");
    assert!(
        !p.received.iter().any(|(_, m)| matches!(
            m,
            ClientMessage::Response(ResponseBody::OpDone { app: a, .. }) if *a == app
        )),
        "no operation may succeed without a grant"
    );
    assert_eq!(c.engine.node_metrics(s0.node).counter(names::SERVER_ACL_DENIED), 2);
}

/// Unauthorized steering: a ReadOnly user may watch, but every mutating
/// attempt is denied and surfaces in the host's metrics registry.
#[test]
fn readonly_steer_attempts_are_denied_and_counted() {
    let (mut b, s0, app) = build_fixture(102);
    let cfg = PortalConfig::new("carol")
        .select_app(app)
        .at(
            SimDuration::from_secs(1),
            ClientRequest::Op { app, op: AppOp::SetParam("knob0".into(), Value::Float(1.0)) },
        )
        .at(
            SimDuration::from_secs(2),
            ClientRequest::Op { app, op: AppOp::Command(AppCommand::Pause) },
        )
        .at(SimDuration::from_secs(3), ClientRequest::Op { app, op: AppOp::GetStatus });
    let node = b.portal(s0, "carol", cfg);
    let mut c = b.build();
    c.engine.run_until(SimTime::from_secs(8));

    let p = c.engine.actor_ref::<Portal>(node).unwrap();
    assert_eq!(denied_count(p), 2, "SetParam and Command must both be denied");
    assert!(
        p.received.iter().any(|(_, m)| matches!(
            m,
            ClientMessage::Response(ResponseBody::OpDone { app: a, .. }) if *a == app
        )),
        "the read-only GetStatus must still succeed"
    );
    assert_eq!(c.engine.node_metrics(s0.node).counter(names::SERVER_ACL_DENIED), 2);
}

/// Mid-session revocation: after the security manager removes a user
/// from the ACL, their steering lock is force-released and their next
/// operation fails second-level authentication even though the session
/// (first-level login) is still alive.
#[test]
fn revoked_credential_is_denied_mid_session() {
    let (mut b, s0, app) = build_fixture(103);
    let cfg = PortalConfig::new("alice")
        .select_app(app)
        .at(SimDuration::from_secs(1), ClientRequest::RequestLock { app })
        .at(
            SimDuration::from_secs(2),
            ClientRequest::Op { app, op: AppOp::SetParam("knob0".into(), Value::Float(2.0)) },
        )
        // Issued after the revocation below.
        .at(
            SimDuration::from_secs(6),
            ClientRequest::Op { app, op: AppOp::SetParam("knob0".into(), Value::Float(3.0)) },
        );
    let node = b.portal(s0, "alice", cfg);
    let mut c = b.build();

    c.engine.run_until(SimTime::from_secs(4));
    {
        let p = c.engine.actor_ref::<Portal>(node).unwrap();
        assert!(
            p.received.iter().any(|(_, m)| matches!(
                m,
                ClientMessage::Response(ResponseBody::LockGranted { app: a }) if *a == app
            )),
            "alice must hold the lock before revocation"
        );
        assert_eq!(denied_count(p), 0, "no denials before revocation");
    }

    let server = c.engine.actor_mut::<DiscoverNode>(s0.node).unwrap();
    let (was_on_acl, lock_freed) = server.core.revoke_user(app, &UserId::new("alice"));
    assert!(was_on_acl);
    assert!(lock_freed, "revocation must tear the steering lock away");
    assert_eq!(
        server.core.proxy(app).unwrap().lock.holder(),
        None,
        "no stale lease may survive the revocation"
    );

    c.engine.run_until(SimTime::from_secs(10));
    let p = c.engine.actor_ref::<Portal>(node).unwrap();
    let denied_after = p
        .received
        .iter()
        .filter(|(at, m)| {
            *at > SimTime::from_secs(4)
                && matches!(m, ClientMessage::Error(e) if e.code == ErrorCode::AccessDenied)
        })
        .count();
    assert_eq!(denied_after, 1, "the post-revocation SetParam must be denied");
    assert!(
        c.engine.node_metrics(s0.node).counter(names::SERVER_ACL_DENIED) >= 1,
        "the revoked user's attempt must be counted"
    );
}
