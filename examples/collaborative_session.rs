//! A collaborative interaction session: several scientists share one
//! application group — steering under the locking protocol, chat,
//! whiteboard sketches, explicit view sharing with collaboration
//! disabled, and a latecomer catching up from the session archive.
//!
//! Run with: `cargo run --example collaborative_session`

use discover::prelude::*;
use discover_client::{Portal, PortalConfig};
use wire::{ClientMessage, ResponseBody, WhiteboardStroke};

fn main() {
    let mut b = CollaboratoryBuilder::new(99);
    let server = b.server("lab");

    let mut dc = DriverConfig::default();
    dc.name = "relativity-ringdown".into();
    dc.acl = vec![
        (UserId::new("alice"), Privilege::Steer),
        (UserId::new("bob"), Privilege::ReadWrite),
        (UserId::new("carol"), Privilege::ReadOnly),
    ];
    dc.batch_time = SimDuration::from_millis(300);
    dc.batches_per_phase = 2;
    dc.interaction_window = SimDuration::from_millis(300);
    let (_, app) = b.application(server, relativity_app(128), dc);

    // Alice drives: lock, steer the black-hole mass, chat about it.
    let alice = PortalConfig::new("alice")
        .select_app(app)
        .at(SimDuration::from_secs(1), ClientRequest::RequestLock { app })
        .at(
            SimDuration::from_secs(3),
            ClientRequest::Op { app, op: AppOp::SetParam("mass".into(), Value::Float(2.0)) },
        )
        .at(
            SimDuration::from_secs(4),
            ClientRequest::Chat { app, text: "mass -> 2.0, watch the ringdown slow".into() },
        )
        .at(
            SimDuration::from_secs(5),
            ClientRequest::Whiteboard {
                app,
                stroke: WhiteboardStroke {
                    points: vec![(0.1, 0.9), (0.4, 0.3), (0.8, 0.5)],
                    color: 0xff0000ff,
                },
            },
        )
        .at(SimDuration::from_secs(8), ClientRequest::ReleaseLock { app });
    let alice_node = b.portal(server, "alice", alice);

    // Bob works privately (collaboration off) but shares one view.
    let bob = PortalConfig::new("bob")
        .select_app(app)
        .at(SimDuration::from_secs(2), ClientRequest::SetCollabMode { app, broadcast: false })
        .at(
            SimDuration::from_secs(6),
            ClientRequest::ShareView { app, view: "observer-signal plot, t in [0,40]".into() },
        )
        .at(SimDuration::from_secs(9), ClientRequest::RequestLock { app });
    let bob_node = b.portal(server, "bob", bob);

    // Carol arrives late and replays the session archive.
    let mut carol = PortalConfig::new("carol").select_app(app);
    carol.login_delay = SimDuration::from_secs(12);
    carol = carol.at(SimDuration::from_secs(14), ClientRequest::GetHistory { app, since: 0 });
    let carol_node = b.portal(server, "carol", carol);

    let mut collab = b.build();
    collab.engine.run_until(SimTime::from_secs(20));

    let alice = collab.engine.actor_ref::<Portal>(alice_node).unwrap();
    let bob = collab.engine.actor_ref::<Portal>(bob_node).unwrap();
    let carol = collab.engine.actor_ref::<Portal>(carol_node).unwrap();

    // Bob disabled collaboration: no chat/whiteboard reached him...
    let bob_chat = bob.updates().iter().any(|u| matches!(u, UpdateBody::Chat { .. }));
    let bob_wb = bob.updates().iter().any(|u| matches!(u, UpdateBody::Whiteboard { .. }));
    println!("bob (collab off) saw chat       : {bob_chat}");
    println!("bob (collab off) saw whiteboard : {bob_wb}");

    // ...but Alice received Bob's explicit view share.
    let alice_view = alice
        .updates()
        .iter()
        .any(|u| matches!(u, UpdateBody::ViewShared { from, .. } if from.as_str() == "bob"));
    println!("alice saw bob's shared view     : {alice_view}");

    // Bob acquires the lock after Alice released it.
    let bob_lock = bob
        .received
        .iter()
        .any(|(_, m)| matches!(m, ClientMessage::Response(ResponseBody::LockGranted { .. })));
    println!("bob got the lock after release  : {bob_lock}");

    // Carol's archive replay shows the session's past.
    let (_, records, _) = carol.histories(app).next().expect("carol should receive the archive");
    let saw_steering = records.iter().any(
        |r| matches!(&r.entry, wire::LogEntry::Request(AppOp::SetParam(name, _)) if name == "mass"),
    );
    let saw_chat = records.iter().any(|r| {
        matches!(&r.entry, wire::LogEntry::Update(u) if matches!(u.body(), UpdateBody::Chat { .. }))
    });
    println!("carol's archive: {} records", records.len());
    println!("  contains alice's steering     : {saw_steering}");
    println!("  contains the chat transcript  : {saw_chat}");

    assert!(!bob_chat && !bob_wb, "collab-off client must not receive broadcasts");
    assert!(alice_view && bob_lock && saw_steering && saw_chat);
    println!("collaborative_session OK");
}
