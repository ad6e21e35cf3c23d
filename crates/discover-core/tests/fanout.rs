//! Encode-once broadcast fan-out, end to end across the peer network.
//!
//! One chat update broadcast from a host server must reach every local
//! group member and every member behind a subscribed peer server while
//! the wire codec performs exactly one DBP serialization — all
//! delivered `FrozenUpdate`s share the one frozen byte buffer (the
//! clones are reference-count bumps, so even the backing allocation is
//! the same).

use appsim::{synthetic_app, DriverConfig};
use discover_client::{Portal, PortalConfig};
use discover_core::CollaboratoryBuilder;
use simnet::{names, NodeId, SimDuration, SimTime};
use wire::{codec, ClientMessage, ClientRequest, Privilege, UpdateBody, UserId};

const SEED: u64 = 2718;

#[test]
fn broadcast_reaches_every_target_with_one_encode() {
    let mut b = CollaboratoryBuilder::new(SEED);
    b.substrate_config.discovery_interval = SimDuration::from_secs(5);

    let host = b.server("host");
    let remote = b.server("remote");
    b.link_servers(host, remote, simnet::LinkSpec::wan());

    // Three local viewers, two remote viewers, one chatter — all in the
    // app's collaboration group. The driver never finishes a compute
    // batch during the run, so the measured window contains exactly one
    // broadcast: the chat.
    let mut acl: Vec<(UserId, Privilege)> =
        (0..5).map(|i| (UserId::new(format!("viewer{i}")), Privilege::ReadOnly)).collect();
    acl.push((UserId::new("chatter"), Privilege::ReadWrite));
    let mut dc = DriverConfig::default();
    dc.name = "quiet".into();
    dc.acl = acl;
    dc.batch_time = SimDuration::from_secs(1000);
    let (_, app) = b.application(host, synthetic_app(2, u64::MAX), dc.clone());
    let mut anchor = dc;
    anchor.name = "anchor".into();
    b.application(remote, synthetic_app(1, u64::MAX), anchor);

    let mut viewers: Vec<NodeId> = Vec::new();
    for i in 0..5 {
        let srv = if i < 3 { host } else { remote };
        let mut cfg = PortalConfig::new(&format!("viewer{i}"))
            .select_app(app)
            .poll_every(SimDuration::from_millis(200));
        cfg.login_delay = SimDuration::from_millis(200 + i as u64 * 50);
        viewers.push(b.portal(srv, &format!("viewer{i}"), cfg));
    }
    let mut chatter = PortalConfig::new("chatter")
        .select_app(app)
        .at(SimDuration::from_secs(10), ClientRequest::Chat { app, text: "hello group".into() });
    chatter.login_delay = SimDuration::from_millis(200);
    b.portal(host, "chatter", chatter);

    let mut c = b.build();

    // Warm up past logins, selects (each broadcasts a MemberJoined) and
    // the remote server's subscription, then measure a window holding
    // exactly the one chat broadcast.
    c.engine.run_until(SimTime::from_secs(8));
    let wire0 = codec::stats();
    let bcast0 = c.engine.stats().counter(names::SERVER_COLLAB_BROADCASTS.key());
    let reuse0 = c.engine.stats().counter(names::SERVER_FANOUT_PAYLOAD_REUSE.key());
    c.engine.run_until(SimTime::from_secs(16));
    let wire1 = codec::stats();

    assert_eq!(
        c.engine.stats().counter(names::SERVER_COLLAB_BROADCASTS.key()) - bcast0,
        1,
        "the window must contain exactly the chat broadcast"
    );
    assert_eq!(
        wire1.encode_calls - wire0.encode_calls,
        1,
        "one broadcast = one DBP serialization, network-wide"
    );
    // Host: 3 viewer fifos (chatter excluded) + proxy log + archive +
    // 1 peer push; remote re-broadcast: 2 viewer fifos. All 8 reuse the
    // single frozen payload.
    assert_eq!(
        c.engine.stats().counter(names::SERVER_FANOUT_PAYLOAD_REUSE.key()) - reuse0,
        8,
        "every fan-out target must reuse the one frozen payload"
    );

    // Every viewer received the chat, the delivered bytes are identical
    // everywhere, and they are the same backing allocation (clones are
    // refcount bumps even across the simulated peer hop).
    let mut payloads = Vec::new();
    for &node in &viewers {
        let p = c.engine.actor_ref::<Portal>(node).unwrap();
        let chat = p
            .received
            .iter()
            .find_map(|(_, m)| match m {
                ClientMessage::Update(u) if matches!(u.body(), UpdateBody::Chat { .. }) => {
                    Some(u.clone())
                }
                _ => None,
            })
            .expect("every group member must receive the chat broadcast");
        payloads.push(chat);
    }
    let first = &payloads[0];
    assert_eq!(first.bytes(), &codec::encode(first.body()), "frozen bytes are the DBP encoding");
    for u in &payloads[1..] {
        assert_eq!(u.bytes(), first.bytes(), "all targets must receive identical bytes");
        assert_eq!(
            u.bytes().as_slice().as_ptr(),
            first.bytes().as_slice().as_ptr(),
            "all targets must share the one frozen buffer"
        );
    }
}
