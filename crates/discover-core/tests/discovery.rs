//! The sharded + cached discovery plane, end to end.
//!
//! Three integration surfaces of the discovery refactor:
//!
//! * the thundering-herd regression: a failover storm (several peers
//!   marked down while the directory is unreachable) must issue exactly
//!   **one** trader call per key per miss window, coalescing the rest;
//! * directory sharding: naming bindings land on exactly the shard the
//!   consistent-hash ring owns them to, and remote steering still works
//!   across a sharded directory;
//! * the discovery cache: repeated dispatches to a remote app are served
//!   from the per-node cache (misses only at TTL boundaries), and the
//!   cache's counters surface through the wire `StatusReport`.

use appsim::{synthetic_app, DriverConfig};
use discover_client::{OpMix, Portal, PortalConfig, Workload};
use discover_core::shard::trader_partition;
use discover_core::{CollaboratoryBuilder, DiscoveryCacheConfig};
use orb::{Directory, DISCOVER_SERVICE};
use simnet::{names, NodeId, SimDuration, SimTime};
use wire::{Privilege, UserId};

fn steering_acl(user: &str) -> Vec<(UserId, Privilege)> {
    vec![(UserId::new(user), Privilege::Steer)]
}

/// An interactive driver: short batches, a real interaction window, so
/// steering operations are accepted throughout the run.
fn interactive_driver(name: &str, user: &str) -> DriverConfig {
    let mut dc = DriverConfig::default();
    dc.name = name.into();
    dc.acl = steering_acl(user);
    dc.batch_time = SimDuration::from_millis(50);
    dc.batches_per_phase = 1;
    dc.interaction_window = SimDuration::from_secs(1);
    dc
}

/// One steering portal attached to `server`, working `app` forever.
fn steering_portal(
    b: &mut CollaboratoryBuilder,
    server: discover_core::ServerHandle,
    user: &str,
    app: wire::AppId,
) -> NodeId {
    let mut cfg = PortalConfig::new(user)
        .select_app(app)
        .poll_every(SimDuration::from_millis(200))
        .workload(Workload::new(app, OpMix::steering_only(), SimDuration::from_millis(500)));
    cfg.login_delay = SimDuration::from_millis(100);
    b.attach(server, user, Portal::new(cfg))
}

/// The satellite bugfix regression: two hosts die at once while the
/// directory is also unreachable. Both give-ups fire `mark_down`, each
/// of which wants a trader re-query — the first call is issued, every
/// later one coalesces onto it. Exactly one trader call per key per
/// miss window.
#[test]
fn failover_storm_coalesces_trader_queries() {
    let mut b = CollaboratoryBuilder::new(4242);
    b.substrate_config.call_timeout = SimDuration::from_secs(2);
    b.substrate_config.sweep_interval = SimDuration::from_millis(500);
    // No periodic refresh inside the measurement window: every trader
    // query observed there comes from the failover storm itself.
    b.substrate_config.discovery_interval = SimDuration::from_secs(60);

    let gateway = b.server("gateway");
    let host1 = b.server("host1");
    let host2 = b.server("host2");
    b.mesh_servers(simnet::LinkSpec::wan());

    let (_, app1) = b.application(host1, synthetic_app(2, u64::MAX), interactive_driver("sim1", "alice"));
    let (_, app2) = b.application(host2, synthetic_app(2, u64::MAX), interactive_driver("sim2", "bob"));
    // The gateway needs a local app whose ACL registers both users, so
    // their logins anchor there (same arrangement as the failover tests).
    let mut anchor = interactive_driver("anchor", "alice");
    anchor.acl.push((UserId::new("bob"), Privilege::Steer));
    b.application(gateway, synthetic_app(1, u64::MAX), anchor);

    // Both steer through the gateway, so the gateway keeps remote calls
    // outstanding to both hosts at crash time.
    let p1 = steering_portal(&mut b, gateway, "alice", app1);
    let p2 = steering_portal(&mut b, gateway, "bob", app2);
    let directory = b.directory_node();

    let mut c = b.build();
    c.engine.actor_mut::<Portal>(p1).unwrap().server = Some(gateway.node);
    c.engine.actor_mut::<Portal>(p2).unwrap().server = Some(gateway.node);

    let crash = SimTime::from_secs(10);
    c.engine.crash_at(host1.node, crash);
    c.engine.crash_at(host2.node, crash);
    c.engine.crash_at(directory, crash);

    c.engine.run_until(crash);
    let queries0 = c.engine.stats().counter("substrate.discovery.queries");
    let coalesced0 = c.engine.stats().counter("substrate.queries.coalesced");
    c.engine.run_until(SimTime::from_secs(25));

    let queries = c.engine.stats().counter("substrate.discovery.queries") - queries0;
    let coalesced = c.engine.stats().counter("substrate.queries.coalesced") - coalesced0;
    assert!(
        c.engine.stats().counter("substrate.timeouts") > 0,
        "calls to the dead hosts must exhaust their retry budget"
    );
    assert_eq!(
        queries, 1,
        "one trader call per key per miss window: the storm must not re-query"
    );
    assert!(coalesced >= 1, "the second mark_down must coalesce, got {coalesced}");
    assert!(
        c.engine.stats().counter("substrate.directory.stale") > 0,
        "the unanswerable trader query must eventually be declared stale"
    );
}

/// Sharding the directory spreads bindings across shard nodes exactly
/// as the consistent-hash ring dictates, and cross-server steering
/// still resolves end to end.
#[test]
fn sharded_directory_places_bindings_by_ring_owner() {
    let mut b = CollaboratoryBuilder::new(9001);
    b.directory_shards(4);
    b.substrate_config.discovery_interval = SimDuration::from_secs(5);

    let names = ["alpha", "beta", "gamma", "delta"];
    let servers: Vec<_> = names.iter().map(|n| b.server(n)).collect();
    b.mesh_servers(simnet::LinkSpec::wan());

    let mut apps = Vec::new();
    for (i, &srv) in servers.iter().enumerate() {
        for j in 0..2 {
            let mut dc = DriverConfig::default();
            dc.name = format!("sim{i}{j}");
            dc.acl = steering_acl("carol");
            dc.batch_time = SimDuration::from_secs(1000);
            let (_, app) = b.application(srv, synthetic_app(2, u64::MAX), dc);
            apps.push(app);
        }
    }

    // Steer an app hosted on the last server from the first server: the
    // gateway must resolve the route through the sharded directory.
    let portal = steering_portal(&mut b, servers[0], "carol", apps[7]);
    let shards = b.directory_nodes();
    assert_eq!(shards.len(), 4);

    let mut c = b.build();
    c.engine.actor_mut::<Portal>(portal).unwrap().server = Some(servers[0].node);
    c.engine.run_until(SimTime::from_secs(15));

    assert!(
        c.engine.stats().counter("substrate.remote_ops") > 0,
        "steering across servers must route through the sharded directory"
    );
    let p = c.engine.actor_ref::<Portal>(portal).unwrap();
    assert!(!p.received.is_empty(), "the remote steerer must get responses back");

    // Every binding we know the run creates, placed by ring ownership:
    // 4 server names + 8 app names by their naming path, all 4 trader
    // offers on the shard owning the service-type partition.
    let ring = c.directory_ring.clone();
    let mut expected = vec![0usize; shards.len()];
    let shard_index =
        |node: NodeId| shards.iter().position(|&s| s == node).expect("owner not a shard");
    for name in names {
        expected[shard_index(ring.node_for(&format!("DISCOVER/servers/{name}")))] += 1;
    }
    for app in &apps {
        expected[shard_index(ring.node_for(&format!("DISCOVER/apps/{app}")))] += 1;
    }
    expected[shard_index(ring.node_for(&trader_partition(DISCOVER_SERVICE)))] += names.len();

    let actual: Vec<usize> = shards
        .iter()
        .map(|&s| c.engine.actor_ref::<Directory>(s).unwrap().binding_count())
        .collect();
    assert_eq!(actual, expected, "bindings must land on exactly the ring-owned shard");
    assert!(
        actual.iter().filter(|&&n| n > 0).count() >= 2,
        "placement must actually use more than one shard: {actual:?}"
    );
    assert_eq!(actual.iter().sum::<usize>(), 16, "4 servers + 8 apps + 4 offers");
}

/// With the cache enabled, repeated dispatches to a remote app hit the
/// per-node entry (missing only at TTL boundaries), and the cache's
/// counters ride the `StatusReport` into the rendered status page.
#[test]
fn discovery_cache_serves_dispatch_and_reports_status() {
    let mut b = CollaboratoryBuilder::new(7373);
    b.substrate_config.discovery_cache = Some(DiscoveryCacheConfig::default());

    let gateway = b.server("gateway");
    let host = b.server("host");
    b.link_servers(gateway, host, simnet::LinkSpec::wan());

    let mut dc = interactive_driver("ipars", "vijay");
    dc.acl.push((UserId::new("operator"), Privilege::ReadOnly));
    let (_, app) = b.application(host, synthetic_app(2, u64::MAX), dc.clone());
    let mut anchor = dc;
    anchor.name = "anchor".into();
    b.application(gateway, synthetic_app(1, u64::MAX), anchor);

    let steerer = steering_portal(&mut b, gateway, "vijay", app);
    let mut op = PortalConfig::new("operator").status_every(SimDuration::from_millis(500));
    op.login_delay = SimDuration::from_millis(150);
    let operator = b.attach(gateway, "operator", Portal::new(op));

    let mut c = b.build();
    for n in [steerer, operator] {
        c.engine.actor_mut::<Portal>(n).unwrap().server = Some(gateway.node);
    }
    c.engine.run_until(SimTime::from_secs(30));

    let hits = c.engine.stats().counter("substrate.cache.hits");
    let misses = c.engine.stats().counter("substrate.cache.misses")
        + c.engine.stats().counter("substrate.cache.expired");
    assert!(hits > 0, "steady-state dispatch must be served from the cache");
    assert!(misses >= 1, "the first dispatch and TTL boundaries must miss");
    let rate = hits as f64 / (hits + misses) as f64;
    assert!(rate >= 0.8, "steady-state hit rate must dominate, got {rate:.2}");

    // The gateway's registry holds every one of them (the host never
    // dispatches remotely here).
    let gw = c.engine.node_metrics(gateway.node);
    assert_eq!(gw.counter(names::SUBSTRATE_CACHE_HITS), hits);

    let p = c.engine.actor_ref::<Portal>(operator).unwrap();
    let (_, last) = p.status_reports.last().expect("periodic status probes");
    assert_eq!(last.dir_plane.shards, 1);
    assert!(last.dir_plane.cache_hits > 0, "cache hits must ride the status report");
    let page = last.render();
    assert!(
        page.contains("directory: shards=1"),
        "the rendered status page must show the directory plane:\n{page}"
    );
}
