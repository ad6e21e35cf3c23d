//! Oil-reservoir steering — the paper's flagship scenario. A reservoir
//! engineer watches a waterflood simulation and steers the injection
//! rate mid-run; the change visibly alters the recovery trajectory.
//!
//! Run with: `cargo run --example oil_reservoir_steering`

use discover::prelude::*;
use discover_client::{Portal, PortalConfig};
use wire::{ClientMessage, ResponseBody};

fn main() {
    let mut b = CollaboratoryBuilder::new(2001);
    let csm = b.server("csm-utexas");

    // The real IMPES waterflood kernel on a 24x24 grid, fast phases so
    // the demo interacts often.
    let mut dc = DriverConfig::default();
    dc.name = "ipars-waterflood".into();
    dc.acl = vec![
        (UserId::new("engineer"), Privilege::Steer),
        (UserId::new("analyst"), Privilege::ReadOnly),
    ];
    dc.iters_per_batch = 5;
    dc.batch_time = SimDuration::from_millis(400);
    dc.batches_per_phase = 2;
    dc.interaction_window = SimDuration::from_millis(200);
    let (_, app) = b.application(csm, oil_reservoir_app(24), dc);

    // The engineer doubles the injection rate at t=20s.
    let engineer = PortalConfig::new("engineer")
        .select_app(app)
        .at(SimDuration::from_secs(2), ClientRequest::RequestLock { app })
        .at(
            SimDuration::from_secs(20),
            ClientRequest::Op {
                app,
                op: AppOp::SetParam("injection_rate".into(), Value::Float(4.0)),
            },
        );
    let engineer_node = b.portal(csm, "engineer", engineer);

    // The analyst just watches.
    let analyst = PortalConfig::new("analyst").select_app(app);
    let analyst_node = b.portal(csm, "analyst", analyst);

    let mut collab = b.build();
    collab.engine.run_until(SimTime::from_secs(60));

    // Trace the recovery curve as the analyst saw it.
    let analyst = collab.engine.actor_ref::<Portal>(analyst_node).unwrap();
    println!("time(s)  iteration  recovery  water_cut");
    let mut recovery_before_steer = 0.0f64;
    let mut recovery_end = 0.0f64;
    let mut shown = 0;
    for (t, msg) in &analyst.received {
        let ClientMessage::Update(u) = msg else { continue };
        if let UpdateBody::AppStatus { status, readings, .. } = u.body() {
            let get = |name: &str| {
                readings
                    .iter()
                    .find(|(n, _)| n == name)
                    .and_then(|(_, v)| v.as_f64())
                    .unwrap_or(0.0)
            };
            let recovery = get("recovery");
            if t.as_secs_f64() <= 20.0 {
                recovery_before_steer = recovery;
            }
            recovery_end = recovery;
            shown += 1;
            if shown % 8 == 0 {
                println!(
                    "{:7.1}  {:9}  {:8.4}  {:9.4}",
                    t.as_secs_f64(),
                    status.iteration,
                    recovery,
                    get("water_cut")
                );
            }
        }
    }

    // The engineer's steering was confirmed and broadcast.
    let engineer = collab.engine.actor_ref::<Portal>(engineer_node).unwrap();
    let steered = engineer.received.iter().any(|(_, m)| {
        matches!(
            m,
            ClientMessage::Response(ResponseBody::OpDone {
                outcome: wire::OpOutcome::ParamSet(name, _),
                ..
            }) if name == "injection_rate"
        )
    });
    let analyst_saw_it = analyst.updates().iter().any(|u| {
        matches!(u, UpdateBody::ParamChanged { name, by, .. }
            if name == "injection_rate" && by.as_str() == "engineer")
    });
    println!("steering applied        : {steered}");
    println!("analyst saw ParamChanged: {analyst_saw_it}");
    println!("recovery at t=20s       : {recovery_before_steer:.4}");
    println!("recovery at t=60s       : {recovery_end:.4}");
    assert!(steered && analyst_saw_it);
    assert!(recovery_end > recovery_before_steer, "waterflood should keep recovering");
    println!("oil_reservoir_steering OK");
}
