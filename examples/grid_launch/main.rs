//! The paper's closing scenario (§7): "a client can use Globus services
//! provided by the CORBA CoG Kit to discover, allocate and stage a
//! scientific simulation, and then use the DISCOVER web-portal to
//! collaboratively monitor, interact with, and steer the application."
//!
//! Here: a grid launcher discovers two grid sites via the trader, stages
//! a 5 MB seismic input deck to the faster one, the job comes up and
//! registers with the local DISCOVER server, and the scientist's portal
//! — already logged in — sees it appear and starts steering it.
//!
//! Run with: `cargo run --example grid_launch`; `cargo test --example
//! grid_launch` runs the kit's own tests (`cogkit.rs`).

mod cogkit;

use appsim::{seismic_app, AppDriver, LaunchGate};
use cogkit::{GridLauncher, GridSite, GridSiteConfig, LaunchPhase};
use discover::prelude::*;
use discover_client::{Portal, PortalConfig};
use simnet::SimDuration;
use wire::{ClientMessage, JobSpec, ResponseBody, ServerAddr};

fn main() {
    let mut b = CollaboratoryBuilder::new(2001);
    let server = b.server("discover-portal");

    // Anchor app so the scientist can log in before the job exists.
    let mut anchor = DriverConfig::default();
    anchor.name = "monitor".into();
    anchor.acl = vec![(UserId::new("meera"), Privilege::ReadOnly)];
    b.application(server, appsim::synthetic_app(1, u64::MAX), anchor);

    // The grid job: a dormant seismic application wired to the DISCOVER
    // server behind a closed launch gate. It will be `app:10.0.0.1#1`.
    let gate = LaunchGate::closed();
    let mut dc = DriverConfig::default();
    dc.name = "seismic-survey".into();
    dc.acl = vec![(UserId::new("meera"), Privilege::Steer)];
    dc.batch_time = SimDuration::from_millis(250);
    dc.batches_per_phase = 2;
    dc.interaction_window = SimDuration::from_millis(300);
    let (app_node, app) = b.application(server, seismic_app(32), dc);
    // The driver stays dormant until GRAM opens its gate.
    assert!(b.set_launch_gate::<appsim::Seismic>(app_node, gate.clone()), "a seismic driver");

    // Two grid sites exported to the same trader (MDS): one slow, one
    // fast; the fast one owns the dormant application's gate.
    let directory = b.directory_node();
    let slow_site = GridSite::new(
        GridSiteConfig {
            addr: ServerAddr(100),
            name: "campus-cluster".into(),
            stage_bandwidth_bps: 500_000,
            gram_overhead: SimDuration::from_millis(5),
            speed: 0.7,
        },
        directory,
        vec![], // no free slots here
    );
    let fast_site = GridSite::new(
        GridSiteConfig {
            addr: ServerAddr(101),
            name: "npaci-sp2".into(),
            stage_bandwidth_bps: 2_000_000,
            gram_overhead: SimDuration::from_millis(5),
            speed: 2.0,
        },
        directory,
        vec![gate.clone()],
    );
    let slow_node = b.add_actor("campus-cluster", slow_site, directory, LinkSpec::campus());
    let fast_node = b.add_actor("npaci-sp2", fast_site, directory, LinkSpec::campus());
    b.address_book().register(ServerAddr(100), slow_node);
    b.address_book().register(ServerAddr(101), fast_node);

    // The launcher: stage 5 MB, run for "an hour".
    let job = JobSpec {
        name: "seismic-survey".into(),
        kind: "seismic".into(),
        stage_bytes: 5_000_000,
        est_duration_us: 3_600_000_000,
    };
    let launcher = GridLauncher::new(directory, b.address_book(), job);
    let launcher_node = b.add_actor("launcher", launcher, directory, LinkSpec::campus());
    // Grid overlay links: launcher <-> sites.
    b.link_nodes(launcher_node, slow_node, LinkSpec::wan());
    b.link_nodes(launcher_node, fast_node, LinkSpec::wan());

    // The scientist's portal: logs in immediately, selects the seismic
    // app as soon as it appears in the repository view, then steers.
    let cfg = PortalConfig::new("meera")
        .select_app(app)
        .at(SimDuration::from_secs(12), ClientRequest::RequestLock { app })
        .at(
            SimDuration::from_secs(14),
            ClientRequest::Op {
                app,
                op: AppOp::SetParam("source_freq".into(), Value::Float(30.0)),
            },
        );
    let portal_node = b.portal(server, "meera", cfg);

    let mut c = b.build();
    c.engine.run_until(SimTime::from_secs(30));

    let l = c.engine.actor_ref::<GridLauncher>(launcher_node).unwrap();
    println!("launcher phase       : {:?}", l.phase);
    println!(
        "chosen site          : {:?}",
        l.chosen_site.map(|n| c.engine.node_name(n).to_string())
    );
    if let Some((id, eta)) = &l.accepted {
        println!("job accepted         : id {id}, predicted ETA {eta}");
    }
    let fast = c.engine.actor_ref::<GridSite>(fast_node).unwrap();
    println!("job launched at      : {:?}", fast.launched.first().map(|(_, _, t)| *t));

    let driver = c.engine.actor_ref::<AppDriver<appsim::Seismic>>(app_node).unwrap();
    println!("app registered as    : {:?}", driver.app_id());
    println!("source_freq steered  : {}", driver.app().kernel().source_freq);

    let p = c.engine.actor_ref::<Portal>(portal_node).unwrap();
    let steered = p.received.iter().any(|(_, m)| {
        matches!(
            m,
            ClientMessage::Response(ResponseBody::OpDone {
                outcome: wire::OpOutcome::ParamSet(name, _),
                ..
            }) if name == "source_freq"
        )
    });
    println!("portal steering done : {steered}");

    assert_eq!(l.phase, LaunchPhase::Accepted);
    assert_eq!(l.chosen_site, Some(fast_node), "the faster site with a free slot wins");
    assert!(
        fast.launched.first().map(|(_, _, t)| *t >= SimTime::from_millis(2500)).unwrap_or(false),
        "5 MB at 2 MB/s must stage ~2.5 s before launch"
    );
    assert_eq!(driver.app_id(), Some(app));
    assert!(steered, "the scientist steered the grid-launched application");
    assert_eq!(driver.app().kernel().source_freq, 30.0);
    println!("grid_launch OK — discover, allocate, stage via CoG; monitor and steer via DISCOVER");
}
