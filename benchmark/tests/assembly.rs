//! The benchmark-owned assembly (`topo::Mesh`) must build the network
//! `CollaboratoryBuilder` builds: for equal seeds and shapes the two run
//! the same number of engine events and every portal does the same work.
//! If this fails, the wrapper topology has drifted from the one the
//! repository's experiments use.

use appsim::{synthetic_app, DriverConfig};
use discover_client::{OpMix, Portal, PortalConfig, Workload};
use discover_core::{CollaboratoryBuilder, DiscoveryCacheConfig};
use discover_wallbench::spans;
use discover_wallbench::topo::Mesh;
use simnet::{LinkSpec, SimDuration, SimTime};
use wire::{AppId, AppToken, Privilege, UserId};

const SERVERS: usize = 3;
const PORTALS: usize = 6;
const SHARDS: usize = 2;
const RUN: SimTime = SimTime::from_secs(20);

/// What the two assemblies must agree on.
#[derive(Debug, PartialEq)]
struct Observed {
    events: u64,
    /// Per portal: ops issued, ops completed, messages received.
    portals: Vec<(u64, usize, usize)>,
}

fn cache() -> DiscoveryCacheConfig {
    DiscoveryCacheConfig {
        ttl: SimDuration::from_secs(15),
        ..Default::default()
    }
}

fn app_config(i: usize) -> DriverConfig {
    DriverConfig {
        token: AppToken::new(format!("app{i}")),
        name: format!("app{i}"),
        acl: (0..PORTALS)
            .map(|u| (UserId::new(format!("user{u}")), Privilege::ReadWrite))
            .collect(),
        iters_per_batch: 1,
        batch_time: SimDuration::from_millis(100),
        batches_per_phase: 20,
        interaction_window: SimDuration::from_millis(100),
    }
}

fn portal_config(j: usize, target: AppId) -> PortalConfig {
    let mut cfg = PortalConfig::new(&format!("user{j}"))
        .select_app(target)
        .poll_every(SimDuration::from_millis(200))
        .workload(Workload::new(
            target,
            OpMix {
                set_param: 0,
                ..OpMix::default()
            },
            SimDuration::from_millis(200),
        ));
    cfg.login_delay = SimDuration::from_millis(100 + (j as u64 * 131) % 1900);
    cfg
}

fn observe(portal: &Portal) -> (u64, usize, usize) {
    (
        portal.ops_issued,
        portal.op_completions.len(),
        portal.received.len(),
    )
}

fn with_builder(seed: u64) -> Observed {
    let mut b = CollaboratoryBuilder::new(seed);
    b.directory_shards(SHARDS);
    b.substrate_config.discovery_cache = Some(cache());
    b.substrate_config.discovery_interval = SimDuration::from_secs(5);
    let servers: Vec<_> = (0..SERVERS)
        .map(|i| b.server(&format!("server{i}")))
        .collect();
    b.mesh_servers(LinkSpec::wan());
    let apps: Vec<AppId> = servers
        .iter()
        .enumerate()
        .map(|(i, &srv)| {
            b.application(srv, synthetic_app(2, u64::MAX), app_config(i))
                .1
        })
        .collect();
    let mut portals = Vec::new();
    for j in 0..PORTALS {
        let home = j % SERVERS;
        let cfg = portal_config(j, apps[(home + 1) % SERVERS]);
        portals.push((
            b.attach(servers[home], &format!("portal{j}"), Portal::new(cfg)),
            home,
        ));
    }
    let mut c = b.build();
    for &(node, home) in &portals {
        c.engine.actor_mut::<Portal>(node).unwrap().server = Some(servers[home].node);
    }
    c.engine.run_until(RUN);
    Observed {
        events: c.engine.events_processed(),
        portals: portals
            .iter()
            .map(|&(n, _)| observe(c.engine.actor_ref::<Portal>(n).unwrap()))
            .collect(),
    }
}

fn with_mesh<const TRACED: bool>(seed: u64) -> Observed {
    let mut mesh = Mesh::<TRACED>::new(seed);
    mesh.directory_shards(SHARDS);
    mesh.substrate_config.discovery_cache = Some(cache());
    mesh.substrate_config.discovery_interval = SimDuration::from_secs(5);
    let servers: Vec<_> = (0..SERVERS)
        .map(|i| mesh.server(&format!("server{i}"), |_| {}))
        .collect();
    mesh.mesh_servers(LinkSpec::wan());
    let apps: Vec<AppId> = servers
        .iter()
        .enumerate()
        .map(|(i, &srv)| mesh.application(srv, synthetic_app(2, u64::MAX), app_config(i)))
        .collect();
    for j in 0..PORTALS {
        let home = j % SERVERS;
        mesh.portal(
            servers[home],
            &format!("portal{j}"),
            portal_config(j, apps[(home + 1) % SERVERS]),
        );
    }
    mesh.settle();
    mesh.engine.run_until(RUN);
    Observed {
        events: mesh.engine.events_processed(),
        portals: mesh
            .portals()
            .iter()
            .map(|&n| observe(mesh.portal_ref(n)))
            .collect(),
    }
}

#[test]
fn mesh_reproduces_collaboratory_builder() {
    for seed in [1, 2, 77] {
        let reference = with_builder(seed);
        assert!(
            reference.portals.iter().all(|p| p.1 > 0),
            "every portal completes ops: {reference:?}"
        );
        assert_eq!(
            with_mesh::<false>(seed),
            reference,
            "pass-through wrapper, seed {seed}"
        );
    }
}

#[test]
fn recording_spans_does_not_change_the_run() {
    let reference = with_builder(5);
    spans::reset();
    spans::set_active(true);
    let traced = with_mesh::<true>(5);
    spans::set_active(false);
    let report = spans::take();
    assert_eq!(traced, reference);
    // Every dispatched event went through a wrapper and left a span.
    assert!(report.handler_calls > 0 && report.handler_calls <= reference.events);
    let spans: u64 = report.totals.iter().map(|(_, t)| t.calls).sum();
    assert_eq!(spans, report.handler_calls);
}
