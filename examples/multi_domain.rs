//! Global access across collaboratory domains — the paper's §5 scenario:
//! three DISCOVER servers (Rutgers, UT Austin, Caltech) on a WAN, each
//! hosting its own applications; a scientist at Rutgers discovers,
//! monitors and steers a seismic simulation hosted at Caltech through
//! her *local* server, while a Caltech colleague watches the same
//! session.
//!
//! Run with: `cargo run --example multi_domain`

use discover::prelude::*;
use discover_client::{Portal, PortalConfig};
use wire::{ClientMessage, ResponseBody};

fn main() {
    let mut b = CollaboratoryBuilder::new(7);
    let rutgers = b.server("rutgers");
    let utexas = b.server("utexas");
    let caltech = b.server("caltech");
    b.mesh_servers(LinkSpec::wan());

    // Rutgers hosts a CFD run (anchors the users' level-1 login there).
    let mut dc = DriverConfig::default();
    dc.name = "cavity-flow".into();
    dc.acl = vec![
        (UserId::new("meera"), Privilege::ReadWrite),
        (UserId::new("carlos"), Privilege::ReadOnly),
    ];
    b.application(rutgers, cfd_app(16), dc);

    // UT Austin hosts a reservoir run.
    let mut dc = DriverConfig::default();
    dc.name = "ipars".into();
    dc.acl = vec![(UserId::new("meera"), Privilege::ReadOnly)];
    b.application(utexas, oil_reservoir_app(16), dc);

    // Caltech hosts the seismic shot both scientists care about.
    let mut dc = DriverConfig::default();
    dc.name = "seismic-shot".into();
    dc.acl = vec![
        (UserId::new("meera"), Privilege::Steer),
        (UserId::new("carlos"), Privilege::ReadOnly),
    ];
    dc.batch_time = SimDuration::from_millis(300);
    dc.batches_per_phase = 2;
    dc.interaction_window = SimDuration::from_millis(300);
    let (_, seismic) = b.application(caltech, seismic_app(32), dc);

    // Carlos needs a Caltech login anchor: he's on the seismic ACL there.
    // Meera logs in at Rutgers (cavity-flow anchor) and reaches Caltech's
    // app through the middleware.
    let meera = PortalConfig::new("meera")
        .select_app(seismic)
        .at(SimDuration::from_secs(3), ClientRequest::RequestLock { app: seismic })
        .at(
            SimDuration::from_secs(6),
            ClientRequest::Op {
                app: seismic,
                op: AppOp::SetParam("source_freq".into(), Value::Float(24.0)),
            },
        )
        .at(
            SimDuration::from_secs(8),
            ClientRequest::Chat { app: seismic, text: "doubled the source frequency".into() },
        );
    let meera_node = b.portal(rutgers, "meera", meera);

    let carlos = PortalConfig::new("carlos").select_app(seismic);
    let carlos_node = b.portal(caltech, "carlos", carlos);

    let mut collab = b.build();
    collab.engine.run_until(SimTime::from_secs(20));

    let meera = collab.engine.actor_ref::<Portal>(meera_node).unwrap();
    let carlos = collab.engine.actor_ref::<Portal>(carlos_node).unwrap();

    // Meera's repository view spans all three domains.
    let mut seen_apps = Vec::new();
    for (_, m) in &meera.received {
        if let ClientMessage::Response(ResponseBody::Apps(apps))
        | ClientMessage::Response(ResponseBody::LoginOk { apps, .. }) = m
        {
            for a in apps {
                if !seen_apps.contains(&a.name) {
                    seen_apps.push(a.name.clone());
                }
            }
        }
    }
    seen_apps.sort();
    println!("meera's global repository view: {seen_apps:?}");

    let lock_ok = meera.received.iter().any(|(_, m)| {
        matches!(m, ClientMessage::Response(ResponseBody::LockGranted { app }) if *app == seismic)
    });
    let steer_ok = meera.received.iter().any(|(_, m)| {
        matches!(
            m,
            ClientMessage::Response(ResponseBody::OpDone {
                outcome: wire::OpOutcome::ParamSet(name, _),
                ..
            }) if name == "source_freq"
        )
    });
    println!("WAN lock relay granted : {lock_ok}");
    println!("WAN steering completed : {steer_ok}");

    let carlos_chat = carlos
        .updates()
        .iter()
        .any(|u| matches!(u, UpdateBody::Chat { from, .. } if from.as_str() == "meera"));
    let carlos_param = carlos
        .updates()
        .iter()
        .any(|u| matches!(u, UpdateBody::ParamChanged { name, .. } if name == "source_freq"));
    let carlos_status =
        carlos.updates().iter().filter(|u| matches!(u, UpdateBody::AppStatus { .. })).count();
    println!("carlos saw meera's chat        : {carlos_chat}");
    println!("carlos saw the param change    : {carlos_param}");
    println!("carlos streamed status updates : {carlos_status}");

    let wan_pushes = collab.engine.stats().counter("substrate.collab.pushes");
    let remote_auths = collab.engine.stats().counter("substrate.remote_auth.calls");
    println!("peer CollabUpdate pushes       : {wan_pushes}");
    println!("peer authentication calls      : {remote_auths}");

    assert!(seen_apps.len() == 3, "all three domains' apps visible");
    assert!(lock_ok && steer_ok && carlos_chat && carlos_param && carlos_status > 0);
    println!("multi_domain OK");
}
