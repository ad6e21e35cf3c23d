//! Quickstart: one DISCOVER server, one steerable application, one client
//! portal. The client logs in, discovers the application, takes the
//! steering lock, changes a parameter, and watches status updates flow.
//!
//! Run with: `cargo run --example quickstart`

use discover::prelude::*;
use discover_client::Portal;
use wire::{ClientMessage, ResponseBody};

fn main() {
    // Assemble a single-domain collaboratory.
    let mut b = CollaboratoryBuilder::new(42);
    let server = b.server("rutgers");

    // A synthetic application with two steerable knobs; the user "vijay"
    // holds Steer privilege on its ACL.
    let mut dc = DriverConfig::default();
    dc.name = "demo-app".into();
    dc.acl = vec![(UserId::new("vijay"), Privilege::Steer)];
    let (_, app) = b.application(server, synthetic_app(2, 100_000), dc);

    // A portal that selects the app, takes the lock, and steers knob0.
    let cfg = discover_client::PortalConfig::new("vijay")
        .select_app(app)
        .at(SimDuration::from_secs(1), ClientRequest::RequestLock { app })
        .at(
            SimDuration::from_secs(2),
            ClientRequest::Op { app, op: AppOp::SetParam("knob0".into(), Value::Float(3.5)) },
        )
        .at(SimDuration::from_secs(3), ClientRequest::Op { app, op: AppOp::GetSensors });
    let portal_node = b.portal(server, "vijay-portal", cfg);

    let mut collab = b.build();

    // Run 10 virtual seconds.
    collab.engine.run_until(SimTime::from_secs(10));

    // Report what the client experienced.
    let portal = collab.engine.actor_ref::<Portal>(portal_node).unwrap();
    println!("login status : {:?}", portal.login_status);
    println!("messages     : {}", portal.received.len());
    let mut status_updates = 0;
    for (t, msg) in &portal.received {
        match msg {
            ClientMessage::Response(ResponseBody::LoginOk { apps, .. }) => {
                println!(
                    "[{t}] logged in; visible apps: {:?}",
                    apps.iter().map(|a| &a.name).collect::<Vec<_>>()
                );
            }
            ClientMessage::Response(ResponseBody::AppSelected { privilege, interface, .. }) => {
                println!(
                    "[{t}] selected app (privilege {privilege:?}, {} params, {} sensors)",
                    interface.params.len(),
                    interface.sensors.len()
                );
            }
            ClientMessage::Response(ResponseBody::LockGranted { .. }) => {
                println!("[{t}] steering lock granted");
            }
            ClientMessage::Response(ResponseBody::OpDone { outcome, .. }) => {
                println!("[{t}] operation done: {outcome:?}");
            }
            ClientMessage::Update(u) => {
                if let UpdateBody::AppStatus { status, .. } = u.body() {
                    status_updates += 1;
                    if status_updates <= 3 {
                        println!(
                            "[{t}] status update: iteration {}, phase {:?}",
                            status.iteration, status.phase
                        );
                    }
                }
            }
            _ => {}
        }
    }
    println!("status updates received: {status_updates}");
    let core = collab.server_core(server).unwrap();
    println!(
        "server saw {} HTTP requests, {} sessions, {} local apps",
        collab.engine.stats().counter("server.http.requests"),
        core.session_count(),
        core.local_app_count()
    );
    assert!(status_updates > 0, "expected live status updates");
    println!("quickstart OK");
}
