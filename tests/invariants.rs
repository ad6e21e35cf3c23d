//! Property-based, randomized end-to-end invariants: for arbitrary
//! client behaviour scripts the middleware must (1) answer every tracked
//! operation exactly once, (2) never let two users hold one steering
//! lock, (3) keep archive sequences strictly monotone, (4) never leak
//! group traffic to non-members, and (5) stay deterministic per seed.

use appsim::{synthetic_app, DriverConfig};
use discover::prelude::*;
use discover::server::{ApplicationProxy, BufferPush};
use discover_client::Portal;
use discover_core::{Collaboratory, DiscoverNode};
use proptest::prelude::*;
use wire::{
    ClientMessage, InteractionSpec, MessageKind, Priority, RequestId, ResponseBody, ServerAddr,
};

/// One randomized client action.
#[derive(Clone, Debug)]
enum Action {
    Select,
    Deselect,
    RequestLock,
    ReleaseLock,
    GetStatus,
    GetSensors,
    SetKnob(f64),
    Chat,
    CollabOff,
    CollabOn,
    History,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        3 => Just(Action::Select),
        1 => Just(Action::Deselect),
        2 => Just(Action::RequestLock),
        2 => Just(Action::ReleaseLock),
        3 => Just(Action::GetStatus),
        3 => Just(Action::GetSensors),
        2 => (0.0f64..10.0).prop_map(Action::SetKnob),
        2 => Just(Action::Chat),
        1 => Just(Action::CollabOff),
        1 => Just(Action::CollabOn),
        1 => Just(Action::History),
    ]
}

fn to_request(action: &Action, app: AppId, k: usize) -> ClientRequest {
    match action {
        Action::Select => ClientRequest::SelectApp { app },
        Action::Deselect => ClientRequest::DeselectApp { app },
        Action::RequestLock => ClientRequest::RequestLock { app },
        Action::ReleaseLock => ClientRequest::ReleaseLock { app },
        Action::GetStatus => ClientRequest::Op { app, op: AppOp::GetStatus },
        Action::GetSensors => ClientRequest::Op { app, op: AppOp::GetSensors },
        Action::SetKnob(v) => {
            ClientRequest::Op { app, op: AppOp::SetParam("knob0".into(), Value::Float(*v)) }
        }
        Action::Chat => ClientRequest::Chat { app, text: format!("c{k}") },
        Action::CollabOff => ClientRequest::SetCollabMode { app, broadcast: false },
        Action::CollabOn => ClientRequest::SetCollabMode { app, broadcast: true },
        Action::History => ClientRequest::GetHistory { app, since: 0 },
    }
}

/// Build and run a 2-server scenario: app hosted at server0, two
/// scripted clients (one local, one remote via server1), plus a
/// non-member client that never selects.
fn run_scenario(
    seed: u64,
    script_a: &[Action],
    script_b: &[Action],
) -> (Collaboratory, Vec<simnet::NodeId>, AppId) {
    let mut b = CollaboratoryBuilder::new(seed);
    let s0 = b.server("s0");
    let s1 = b.server("s1");
    b.link_servers(s0, s1, LinkSpec::wan());
    let mut dc = DriverConfig::default();
    dc.name = "app".into();
    dc.acl = vec![
        (UserId::new("alice"), Privilege::Steer),
        (UserId::new("bob"), Privilege::Steer),
        (UserId::new("mallory"), Privilege::ReadOnly),
    ];
    dc.batch_time = SimDuration::from_millis(150);
    dc.batches_per_phase = 2;
    dc.interaction_window = SimDuration::from_millis(300);
    let (_, app) = b.application(s0, synthetic_app(2, u64::MAX), dc.clone());
    let mut anchor = dc.clone();
    anchor.name = "anchor".into();
    b.application(s1, synthetic_app(1, u64::MAX), anchor);

    let mk = |user: &str, script: &[Action]| {
        let mut cfg = discover_client::PortalConfig::new(user);
        cfg.login_delay = SimDuration::from_millis(300);
        for (k, a) in script.iter().enumerate() {
            cfg.script
                .push((SimDuration::from_millis(1000 + 400 * k as u64), to_request(a, app, k)));
        }
        cfg
    };
    let a_node = b.portal(s0, "alice", mk("alice", script_a));
    let bb_node = b.portal(s1, "bob", mk("bob", script_b));
    // Mallory logs in at s0 but never selects the app.
    let mut mcfg = discover_client::PortalConfig::new("mallory");
    mcfg.login_delay = SimDuration::from_millis(300);
    let m_node = b.portal(s0, "mallory", mcfg);

    let mut c = b.build();
    let horizon =
        SimTime::from_millis(3000 + 400 * script_a.len().max(script_b.len()) as u64 + 10_000);
    c.engine.run_until(horizon);
    (c, vec![a_node, bb_node, m_node], app)
}

/// Number of tracked ops (Op requests) in a script.
fn tracked_ops(script: &[Action]) -> usize {
    script
        .iter()
        .filter(|a| matches!(a, Action::GetStatus | Action::GetSensors | Action::SetKnob(_)))
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    #[test]
    fn randomized_sessions_preserve_invariants(
        seed in 0u64..10_000,
        script_a in prop::collection::vec(action_strategy(), 1..14),
        script_b in prop::collection::vec(action_strategy(), 1..14),
    ) {
        let (c, nodes, app) = run_scenario(seed, &script_a, &script_b);

        // (1) Every tracked op produced exactly one terminal message
        // (OpDone or Error). Responses to non-op requests are extra.
        for (node, script) in [(nodes[0], &script_a), (nodes[1], &script_b)] {
            let p = c.engine.actor_ref::<Portal>(node).unwrap();
            let terminals = p
                .received
                .iter()
                .filter(|(_, m)| {
                    matches!(m, ClientMessage::Response(ResponseBody::OpDone { app: a, .. }) if *a == app)
                        || m.kind() == MessageKind::Error
                })
                .count();
            // Errors may also stem from non-op requests (e.g. lock release
            // without holding), so terminals >= tracked ops is the sound
            // direction; equality of OpDone+op-Errors is checked loosely:
            prop_assert!(
                terminals >= tracked_ops(script),
                "tracked ops must terminate: {} terminals for {} ops",
                terminals,
                tracked_ops(script)
            );
            // No op may be answered twice: OpDone count can never exceed
            // issued op count.
            let opdones = p
                .received
                .iter()
                .filter(|(_, m)| {
                    matches!(m, ClientMessage::Response(ResponseBody::OpDone { app: a, .. }) if *a == app)
                })
                .count();
            prop_assert!(
                opdones <= tracked_ops(script),
                "more OpDone ({opdones}) than issued ops ({})",
                tracked_ops(script)
            );
        }

        // (2) Lock exclusivity at the host, at end of run.
        let host = c.servers.get(&app.host()).copied().unwrap();
        let core = &c.engine.actor_ref::<DiscoverNode>(host.node).unwrap().core;
        if let Some(proxy) = core.proxy(app) {
            let holder = proxy.lock.holder().cloned();
            // Holder, if any, must be one of the two scripted users.
            if let Some(h) = holder {
                prop_assert!(h.as_str() == "alice" || h.as_str() == "bob");
            }
        }

        // (3) Archive sequences strictly increasing.
        let (records, _) = core.archive().fetch_app(app, 0);
        prop_assert!(records.windows(2).all(|w| w[0].seq < w[1].seq));

        // (4) The non-member never receives group updates for the app.
        let mallory = c.engine.actor_ref::<Portal>(nodes[2]).unwrap();
        prop_assert!(
            !mallory.updates().iter().any(|u| u.app() == app),
            "non-member must not receive app group traffic"
        );
    }

    /// (6) Bounded Daemon buffering (requests parked while the
    /// application computes) is priority-aware but order-preserving:
    /// whatever mix of steering commands and view requests arrives, and
    /// whatever gets shed on overflow, FIFO order *within* each priority
    /// class survives — two steering commands are never reordered.
    #[test]
    fn daemon_buffer_preserves_fifo_within_priority_class(
        cap in 1usize..8,
        script in prop::collection::vec(any::<bool>(), 1..60),
    ) {
        let mut p = ApplicationProxy::new(
            AppId { server: ServerAddr(1), seq: 1 },
            "ipars".into(),
            "oilres".into(),
            simnet::NodeId(7),
            InteractionSpec::default(),
            vec![(UserId::new("driver"), Privilege::Steer)],
        );
        p.buffer_capacity = Some(cap);
        for (i, is_command) in script.iter().enumerate() {
            let req = RequestId(i as u64);
            let op = if *is_command {
                AppOp::SetParam("knob0".into(), Value::Float(i as f64))
            } else {
                AppOp::GetStatus
            };
            let incoming_class = Priority::of_op(&op);
            let classes_before: Vec<Priority> = p.buffered.iter().map(|e| e.priority()).collect();
            let was_full = p.buffered.len() >= cap;
            match p.buffer_op(req, op, None) {
                BufferPush::Buffered => prop_assert!(!was_full, "a full buffer must shed"),
                BufferPush::Shed(victim) => {
                    prop_assert!(was_full, "shedding requires a full buffer");
                    // The victim is the oldest entry of the lowest class
                    // present — or the incoming op itself when everything
                    // buffered strictly outranks it.
                    let min_class = *classes_before.iter().min().unwrap();
                    if min_class <= incoming_class {
                        prop_assert!(victim.priority() == min_class);
                        prop_assert!(victim.req != req || incoming_class == min_class);
                    } else {
                        prop_assert_eq!(victim.req, req, "incoming view shed under all-command buffer");
                    }
                    // A steering command is never sacrificed for a view.
                    if victim.priority() == Priority::Command {
                        prop_assert_eq!(incoming_class, Priority::Command);
                        prop_assert!(classes_before.iter().all(|c| *c == Priority::Command));
                    }
                }
            }
            // The bound holds after every push...
            prop_assert!(p.buffered.len() <= cap);
            prop_assert!(p.buffered_peak() <= cap);
            // ...and within each class request ids stay strictly
            // increasing: arrival order is never violated, in particular
            // no two steering commands ever swap.
            for class in [Priority::View, Priority::Command] {
                let ids: Vec<u64> = p
                    .buffered
                    .iter()
                    .filter(|e| e.priority() == class)
                    .map(|e| e.req.0)
                    .collect();
                prop_assert!(
                    ids.windows(2).all(|w| w[0] < w[1]),
                    "class {:?} reordered: {:?}",
                    class,
                    ids
                );
            }
        }
    }

    /// (5) Determinism: identical seeds and scripts yield identical
    /// client-visible histories.
    #[test]
    fn runs_are_deterministic(
        seed in 0u64..1000,
        script in prop::collection::vec(action_strategy(), 1..8),
    ) {
        let (c1, n1, _) = run_scenario(seed, &script, &script);
        let (c2, n2, _) = run_scenario(seed, &script, &script);
        for (a, b) in n1.iter().zip(n2.iter()) {
            let pa = c1.engine.actor_ref::<Portal>(*a).unwrap();
            let pb = c2.engine.actor_ref::<Portal>(*b).unwrap();
            prop_assert_eq!(&pa.received, &pb.received);
        }
        prop_assert_eq!(c1.engine.events_processed(), c2.engine.events_processed());
    }
}
