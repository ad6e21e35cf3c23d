//! Integration tests: a scripted client drives the naming + trader
//! directory through the simulated network.

use orb::{directory::calls, Broker, Directory, DirectoryCosts, DISCOVER_SERVICE};
use simnet::{Actor, Ctx, Engine, LinkSpec, NodeId, SimDuration};
use wire::{
    Content, Envelope, ObjectKey, ObjectRef, PeerMsg, PeerReply, ServerAddr, ServiceOffer, Value,
};

/// Scripted driver: runs a fixed sequence of directory calls, recording
/// each reply, advancing to the next step when the previous completes.
struct Driver {
    directory: Option<NodeId>,
    script: Vec<(ObjectKey, &'static str, PeerMsg)>,
    broker: Broker<usize>,
    replies: Vec<PeerReply>,
    step: usize,
}

impl Driver {
    fn new(script: Vec<(ObjectKey, &'static str, PeerMsg)>) -> Self {
        Driver { directory: None, script, broker: Broker::new(), replies: vec![], step: 0 }
    }

    fn issue_next(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        if self.step < self.script.len() {
            let call = self.script[self.step].clone();
            let to = self.directory.expect("directory node set");
            let _ = self.broker.call(ctx, to, call, self.step, None, None);
            self.step += 1;
        }
    }
}

impl Actor<Envelope> for Driver {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        self.issue_next(ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, Envelope>, _from: NodeId, msg: Envelope) {
        if let Content::Giop(frame) = msg.content {
            if let wire::giop::GiopBody::Return(reply) = frame.body {
                if self.broker.complete(frame.request_id).is_some() {
                    self.replies.push(reply);
                    self.issue_next(ctx);
                }
            }
        }
    }
}

fn obj(server: u32, key: &str) -> ObjectRef {
    ObjectRef { server: ServerAddr(server), key: ObjectKey::new(key) }
}

fn run_script(script: Vec<(ObjectKey, &'static str, PeerMsg)>) -> Vec<PeerReply> {
    let mut eng = Engine::new(11);
    let dir = eng.add_node("directory", Directory::new(DirectoryCosts::default()));
    let drv = eng.add_node("driver", Driver::new(script));
    eng.link(dir, drv, LinkSpec::lan());
    eng.actor_mut::<Driver>(drv).unwrap().directory = Some(dir);
    eng.run_to_quiescence();
    eng.actor_ref::<Driver>(drv).unwrap().replies.clone()
}

#[test]
fn naming_bind_resolve_unbind() {
    let replies = run_script(vec![
        calls::bind("DISCOVER/apps/1", obj(1, "apps/1")),
        calls::resolve("DISCOVER/apps/1"),
        calls::resolve("DISCOVER/apps/404"),
        calls::unbind("DISCOVER/apps/1"),
        calls::resolve("DISCOVER/apps/1"),
    ]);
    assert_eq!(replies.len(), 5);
    assert_eq!(replies[0], PeerReply::DirectoryOk);
    assert_eq!(replies[1], PeerReply::NamingResolved { object: Some(obj(1, "apps/1")) });
    assert_eq!(replies[2], PeerReply::NamingResolved { object: None });
    assert_eq!(replies[4], PeerReply::NamingResolved { object: None });
}

#[test]
fn naming_rebind_overwrites() {
    let replies = run_script(vec![
        calls::bind("x", obj(1, "a")),
        calls::bind("x", obj(2, "b")),
        calls::resolve("x"),
    ]);
    assert_eq!(replies[2], PeerReply::NamingResolved { object: Some(obj(2, "b")) });
}

#[test]
fn naming_list_by_prefix() {
    let replies = run_script(vec![
        calls::bind("DISCOVER/apps/1", obj(1, "a")),
        calls::bind("DISCOVER/apps/2", obj(1, "b")),
        calls::bind("DISCOVER/users/1", obj(1, "c")),
        calls::list("DISCOVER/apps/"),
    ]);
    let PeerReply::NamingNames { bindings } = &replies[3] else {
        panic!("expected listing, got {:?}", replies[3]);
    };
    assert_eq!(bindings.len(), 2);
    assert!(bindings.iter().all(|(n, _)| n.starts_with("DISCOVER/apps/")));
}

#[test]
fn trader_export_query_constraints() {
    let offer = |server: u32, domain: &str| ServiceOffer {
        service_type: DISCOVER_SERVICE.to_string(),
        object: obj(server, "DiscoverCorbaServer"),
        properties: vec![
            ("domain".to_string(), Value::Text(domain.to_string())),
            ("addr".to_string(), Value::Int(server as i64)),
        ],
    };
    let replies = run_script(vec![
        calls::export(offer(1, "rutgers")),
        calls::export(offer(2, "utexas")),
        calls::export(offer(3, "utexas")),
        calls::query(DISCOVER_SERVICE, vec![]),
        calls::query(
            DISCOVER_SERVICE,
            vec![("domain".to_string(), Value::Text("utexas".to_string()))],
        ),
        calls::query("OTHER", vec![]),
    ]);
    let PeerReply::TraderOffers { offers } = &replies[3] else { panic!() };
    assert_eq!(offers.len(), 3);
    let PeerReply::TraderOffers { offers } = &replies[4] else { panic!() };
    assert_eq!(offers.len(), 2);
    assert!(offers.iter().all(|o| o.object.server != ServerAddr(1)));
    let PeerReply::TraderOffers { offers } = &replies[5] else { panic!() };
    assert!(offers.is_empty());
}

#[test]
fn trader_withdraw_removes_all_offers_of_object() {
    let mk = |server: u32| ServiceOffer {
        service_type: DISCOVER_SERVICE.to_string(),
        object: obj(server, "DiscoverCorbaServer"),
        properties: vec![],
    };
    let replies = run_script(vec![
        calls::export(mk(1)),
        calls::export(mk(1)),
        calls::export(mk(2)),
        calls::withdraw(obj(1, "DiscoverCorbaServer")),
        calls::query(DISCOVER_SERVICE, vec![]),
    ]);
    let PeerReply::TraderOffers { offers } = &replies[4] else { panic!() };
    assert_eq!(offers.len(), 1);
    assert_eq!(offers[0].object.server, ServerAddr(2));
}

#[test]
fn unknown_servant_raises_exception() {
    let replies = run_script(vec![(ObjectKey::new("NoSuchServant"), "poke", PeerMsg::ListActive)]);
    assert!(matches!(replies[0], PeerReply::Exception(_)));
}

#[test]
fn directory_cpu_cost_scales_with_offers() {
    // Query time grows with the number of exported offers: measure the
    // virtual completion time of a fixed script with 4 vs 64 offers.
    fn run_n(n: u32) -> simnet::SimTime {
        let mut script: Vec<_> = (0..n)
            .map(|i| {
                calls::export(ServiceOffer {
                    service_type: DISCOVER_SERVICE.to_string(),
                    object: obj(i, "s"),
                    properties: vec![],
                })
            })
            .collect();
        script.push(calls::query(DISCOVER_SERVICE, vec![]));
        let mut eng = Engine::new(3);
        let dir = eng.add_node("directory", Directory::new(DirectoryCosts::default()));
        let drv = eng.add_node("driver", Driver::new(script));
        eng.link(dir, drv, LinkSpec::loopback().with_latency(SimDuration::from_micros(10)));
        eng.actor_mut::<Driver>(drv).unwrap().directory = Some(dir);
        eng.run_to_quiescence();
        eng.now()
    }
    let t4 = run_n(4);
    let t64 = run_n(64);
    assert!(t64 > t4, "64 offers ({t64:?}) should take longer than 4 ({t4:?})");
}
