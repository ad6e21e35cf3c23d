//! End-to-end tracing across a two-server peer call, plus per-node
//! metrics attribution.
//!
//! A portal at the gateway steers an application hosted on a second
//! server, so every tracked operation crosses the peer GIOP link. With
//! tracing enabled the run must yield causally-linked span trees that
//! cover the client, server, substrate, orb, proxy and application
//! layers — and two same-seed runs must export byte-identical traces.
//!
//! Uses `discover-client` as a dev-dependency (cargo permits the
//! dev-only cycle) because a trace only becomes interesting once it
//! spans the whole stack: portal → gateway → remote host → app daemon.

use std::collections::HashMap;

use appsim::{synthetic_app, DriverConfig};
use discover_client::{OpMix, Portal, PortalConfig, Workload};
use discover_core::{Collaboratory, CollaboratoryBuilder};
use simnet::{names, SimDuration, SimTime, SpanRecord};
use wire::{Privilege, UserId};

const SEED: u64 = 417;
const RUN_SECS: u64 = 30;

/// Gateway + remote host, one steering client at the gateway; returns
/// the finished collaboratory plus the handles the assertions need.
fn run_remote_steering(traced: bool) -> (Collaboratory, simnet::NodeId, simnet::NodeId, simnet::NodeId) {
    let mut b = CollaboratoryBuilder::new(SEED);
    b.tracing(traced);
    b.substrate_config.call_timeout = SimDuration::from_secs(2);
    b.substrate_config.sweep_interval = SimDuration::from_millis(500);
    b.substrate_config.discovery_interval = SimDuration::from_secs(5);

    let gateway = b.server("gateway");
    let host = b.server("host");
    b.link_servers(gateway, host, simnet::LinkSpec::wan());

    let acl = vec![(UserId::new("vijay"), Privilege::Steer)];
    let mut dc = DriverConfig::default();
    dc.name = "ipars".into();
    dc.acl = acl.clone();
    dc.batch_time = SimDuration::from_millis(50);
    dc.batches_per_phase = 1;
    dc.interaction_window = SimDuration::from_secs(1);
    let (_, app) = b.application(host, synthetic_app(2, u64::MAX), dc.clone());
    let mut anchor = dc;
    anchor.name = "anchor".into();
    b.application(gateway, synthetic_app(1, u64::MAX), anchor);

    let cfg = PortalConfig::new("vijay")
        .select_app(app)
        .poll_every(SimDuration::from_millis(200))
        .workload(Workload::new(app, OpMix::sensors_only(), SimDuration::from_millis(500)));
    let portal = b.attach(gateway, "vijay", Portal::new(cfg));

    let mut c = b.build();
    c.engine.actor_mut::<Portal>(portal).unwrap().server = Some(gateway.node);
    c.engine.run_until(SimTime::from_secs(RUN_SECS));
    (c, portal, gateway.node, host.node)
}

#[test]
fn remote_steering_yields_causally_linked_multi_layer_traces() {
    let (mut c, _, _, _) = run_remote_steering(true);
    c.engine.tracer_mut().finish_all(SimTime::from_secs(RUN_SECS));

    let spans = c.engine.tracer_mut().finished().to_vec();
    assert!(!spans.is_empty(), "traced run must produce spans");

    // Index the forest by trace.
    let mut by_trace: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for s in &spans {
        by_trace.entry(s.trace_id).or_default().push(s);
    }

    // Every non-root span's parent exists within the same trace, and
    // every trace has exactly one root.
    for (trace_id, members) in &by_trace {
        let ids: std::collections::HashSet<u64> = members.iter().map(|s| s.span_id).collect();
        let mut roots = 0;
        for s in members {
            match s.parent_span {
                None => roots += 1,
                Some(p) => {
                    assert!(ids.contains(&p), "trace {trace_id}: span {} orphaned (parent {p} missing)", s.span_id);
                }
            }
            assert!(s.end >= s.start, "span {} ends before it starts", s.span_id);
        }
        assert_eq!(roots, 1, "trace {trace_id} must have exactly one root");
    }

    // At least one remote steering op produced a tree of >= 5 spans
    // covering the client / server / orb / proxy / app layers.
    let best = by_trace
        .values()
        .filter(|m| m.iter().any(|s| s.name == "client.request"))
        .max_by_key(|m| m.len())
        .expect("at least one client.request trace");
    assert!(best.len() >= 5, "expected a >=5-span remote trace, got {}", best.len());
    for layer in ["client", "server", "orb", "proxy", "app"] {
        assert!(
            best.iter().any(|s| s.name.split('.').next() == Some(layer)),
            "layer {layer} missing from the deepest trace: {:?}",
            best.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
        );
    }
    // The cross-peer hop is visible: a skeleton-side span on the host.
    assert!(
        spans.iter().any(|s| s.name == "server.giop" && s.node == "host"),
        "remote ops must produce a server.giop span on the host"
    );
}

#[test]
fn same_seed_runs_export_identical_traces() {
    let export = |(mut c, _, _, _): (Collaboratory, simnet::NodeId, simnet::NodeId, simnet::NodeId)| {
        c.engine.tracer_mut().finish_all(SimTime::from_secs(RUN_SECS));
        c.engine.tracer_mut().export_chrome_json()
    };
    let a = export(run_remote_steering(true));
    let b = export(run_remote_steering(true));
    assert_eq!(a, b, "same-seed trace exports must be byte-identical");
}

#[test]
fn untraced_runs_mint_no_spans() {
    let (mut c, _, _, _) = run_remote_steering(false);
    assert_eq!(c.engine.tracer_mut().finished().len(), 0);
    assert_eq!(c.engine.tracer_mut().open_count(), 0);
}

#[test]
fn per_node_registries_attribute_and_fold_into_global_stats() {
    let (c, portal, gateway, host) = run_remote_steering(true);

    // Work landed where it should: HTTP at the gateway, GIOP skeleton
    // calls at the host, issued ops at the portal.
    let gw = c.engine.node_metrics(gateway);
    let ho = c.engine.node_metrics(host);
    let po = c.engine.node_metrics(portal);
    assert!(gw.counter(names::SERVER_HTTP_REQUESTS) > 0, "gateway served HTTP");
    assert!(gw.counter(names::SUBSTRATE_REMOTE_OPS) > 0, "gateway relayed remote ops");
    assert!(ho.counter(names::SERVER_PEER_PROXY_OPS) > 0, "host executed proxied ops");
    assert!(po.counter(names::CLIENT_OPS_ISSUED) > 0, "portal issued ops");
    // The host never serves client HTTP in this topology.
    assert_eq!(ho.counter(names::SERVER_HTTP_REQUESTS), 0);

    // Only the gateway serves HTTP here, so the run-wide sum must equal
    // its per-node count exactly.
    let gw_http = gw.counter(names::SERVER_HTTP_REQUESTS);
    assert_eq!(c.engine.stats().counter(names::SERVER_HTTP_REQUESTS.key()), gw_http);
}
