//! E13: latency attribution — where does a steering operation's time go?
//!
//! One gateway server and two backends. Three clients log in at the
//! gateway and steer, respectively, a gateway-local application (the
//! "local" path), a backend-hosted application (the "remote" path, every
//! op relayed over the peer network), and a backend-hosted application
//! whose host crashes mid-run (the "failover" path, exercising PR 1's
//! retry/backoff machinery). Tracing is enabled, so every tracked
//! operation yields one causally-linked span tree covering session
//! handling, broker dispatch (with retry backoff windows), proxy
//! execution and application compute; the run is repeated at 0 / 1 / 5 %
//! peer-link loss.
//!
//! Artifacts: `target/experiments/e13_trace.json` (Chrome trace-event
//! JSON of the 1 %-loss run) and `e13_breakdown.txt` (plain-text
//! per-layer latency breakdown).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::path::PathBuf;

use appsim::synthetic_app;
use discover_client::{OpMix, PortalConfig, Workload};
use discover_core::CollaboratoryBuilder;
use simnet::{names, FaultPlan, NodeId, SimDuration, SimTime, SpanRecord};
use wire::Privilege;

use crate::fixtures;
use crate::report::{f2, BenchSummary, Table};

const TRACE_SEED: u64 = 1300;

/// Per-path latency attribution extracted from the span forest.
#[derive(Clone, Debug, Default, PartialEq)]
struct PathProfile {
    /// Completed `client.request` traces rooted at this client.
    traces: u64,
    /// Spans across those traces.
    spans: u64,
    /// Largest single-trace span count.
    max_spans: u64,
    /// Distinct layers (first dotted name component) seen, union.
    layers: BTreeSet<String>,
    /// Mean end-to-end (root span) latency, microseconds.
    mean_root_us: u64,
    /// `orb.backoff` windows attributed to this path's traces.
    backoff_spans: u64,
}

/// Everything one traced run produced.
struct TraceRun {
    chrome_json: String,
    breakdown: String,
    /// Keyed by portal node name (`client-local` / `client-remote` /
    /// `client-failover`).
    paths: BTreeMap<String, PathProfile>,
    retries: u64,
}

fn run_traced(loss: f64) -> TraceRun {
    let mut b = CollaboratoryBuilder::new(TRACE_SEED);
    b.tracing();
    b.substrate_config.call_timeout = SimDuration::from_secs(2);
    b.substrate_config.sweep_interval = SimDuration::from_millis(500);
    b.substrate_config.discovery_interval = SimDuration::from_secs(5);

    let gateway = b.server("gateway");
    let backend_r = b.server("backend-r");
    let backend_f = b.server("backend-f");
    b.mesh_servers(simnet::LinkSpec::wan().with_loss(loss));

    let users = fixtures::acl_users(3, Privilege::ReadWrite);
    let acl: Vec<(&str, Privilege)> = users.iter().map(|(u, p)| (u.as_str(), *p)).collect();
    let (_, app_local) = b.application(
        gateway,
        synthetic_app(2, u64::MAX),
        fixtures::interactive_app_config("app-local", &acl),
    );
    let (_, app_remote) = b.application(
        backend_r,
        synthetic_app(2, u64::MAX),
        fixtures::interactive_app_config("app-remote", &acl),
    );
    let (_, app_failover) = b.application(
        backend_f,
        synthetic_app(2, u64::MAX),
        fixtures::interactive_app_config("app-failover", &acl),
    );

    let paths: [(&str, wire::AppId); 3] = [
        ("client-local", app_local),
        ("client-remote", app_remote),
        ("client-failover", app_failover),
    ];
    let mut portals: Vec<NodeId> = Vec::new();
    for (i, ((name, app), (user, _))) in paths.iter().zip(&users).enumerate() {
        let mut cfg = PortalConfig::new(user)
            .select_app(*app)
            .poll_every(fixtures::poll_period())
            .workload(Workload::new(*app, OpMix::sensors_only(), SimDuration::from_millis(500)));
        cfg.login_delay = SimDuration::from_millis(200 + i as u64 * 10);
        portals.push(b.portal(gateway, name, cfg));
    }

    let mut c = b.build();

    // One crash/restart cycle on the failover path's host, mid-run.
    let mut plan = FaultPlan::new(TRACE_SEED);
    plan.crash(backend_f.node, SimTime::from_secs(20), SimTime::from_secs(26));
    c.engine.apply_faults(&plan);

    let end = SimTime::from_secs(fixtures::RUN_SECS);
    c.engine.run_until(end);

    let retries = c.engine.stats().counter(names::SUBSTRATE_RETRIES.key());
    let tracer = c.engine.tracer_mut();
    tracer.finish_all(end);
    let chrome_json = tracer.export_chrome_json();
    let breakdown = tracer.export_text_breakdown();
    let spans = tracer.finished();

    // Attribute each trace to the portal its root span ran on.
    let mut root_of: HashMap<u64, &SpanRecord> = HashMap::new();
    for s in spans {
        if s.name == "client.request" && s.parent_span.is_none() {
            root_of.insert(s.trace_id, s);
        }
    }
    let mut paths: BTreeMap<String, PathProfile> = BTreeMap::new();
    let mut per_trace: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if root_of.contains_key(&s.trace_id) {
            *per_trace.entry(s.trace_id).or_default() += 1;
        }
    }
    for s in spans {
        let Some(root) = root_of.get(&s.trace_id) else { continue };
        let p = paths.entry(root.node.clone()).or_default();
        p.spans += 1;
        p.layers.insert(s.name.split('.').next().unwrap_or(&s.name).to_string());
        if s.name == "orb.backoff" {
            p.backoff_spans += 1;
        }
    }
    for (trace_id, root) in &root_of {
        let p = paths.entry(root.node.clone()).or_default();
        p.traces += 1;
        p.max_spans = p.max_spans.max(*per_trace.get(trace_id).unwrap_or(&0));
        p.mean_root_us += root.duration_us();
    }
    for p in paths.values_mut() {
        p.mean_root_us = p.mean_root_us.checked_div(p.traces).unwrap_or(0);
    }
    TraceRun { chrome_json, breakdown, paths, retries }
}

fn write_artifact(name: &str, contents: &str) -> Option<PathBuf> {
    let dir = PathBuf::from("target/experiments");
    fs::create_dir_all(&dir).ok()?;
    let path = dir.join(name);
    fs::write(&path, contents).ok()?;
    Some(path)
}

/// E13: end-to-end latency attribution of local vs remote vs failover
/// steering paths under peer-link loss, from the tracing substrate.
pub fn e13_latency_attribution() -> Table {
    let mut table = Table::new(
        "E13",
        "latency attribution: local vs remote vs failover steering paths, traced end to end",
        "\"the location of the application (local or remote) is transparent to the user\" (§5.2) — transparent in the interface, not in latency; tracing shows where the extra time goes",
        &["loss", "path", "traces", "spans", "max_spans", "layers", "mean_ms", "backoff_spans"],
    );
    for &loss in &[0.0f64, 0.01, 0.05] {
        let run = run_traced(loss);
        for (path, p) in &run.paths {
            table.row(vec![
                format!("{loss:.2}"),
                path.trim_start_matches("client-").to_string(),
                p.traces.to_string(),
                p.spans.to_string(),
                p.max_spans.to_string(),
                p.layers.iter().cloned().collect::<Vec<_>>().join("+"),
                f2(p.mean_root_us as f64 / 1000.0),
                p.backoff_spans.to_string(),
            ]);
        }
        if (loss - 0.01).abs() < 1e-9 {
            let mut summary = BenchSummary::new("e13", TRACE_SEED);
            for (path, p) in &run.paths {
                let key = path.trim_start_matches("client-");
                summary.metric_u64(format!("{key}.traces"), p.traces);
                summary.metric_u64(format!("{key}.spans"), p.spans);
                summary.metric_u64(format!("{key}.max_spans"), p.max_spans);
                summary.metric_f64(format!("{key}.mean_root_ms"), p.mean_root_us as f64 / 1000.0);
                summary.metric_u64(format!("{key}.backoff_spans"), p.backoff_spans);
            }
            summary.metric_u64("retries", run.retries);
            summary.write_repo_root(&mut table);
            // Acceptance: a remote steering op yields one causally-linked
            // tree of at least five spans across the stack's layers.
            let remote = &run.paths["client-remote"];
            let layers: Vec<&str> = remote.layers.iter().map(|s| s.as_str()).collect();
            table.note(format!(
                "remote trace: up to {} spans/trace across layers [{}] — {}",
                remote.max_spans,
                layers.join(", "),
                if remote.max_spans >= 5 { "≥5 causally linked" } else { "FEWER THAN 5" },
            ));
            table.note(format!(
                "failover path: {} retry backoff windows attributed as orb.backoff child spans ({} substrate retries in run)",
                run.paths["client-failover"].backoff_spans, run.retries,
            ));
            if let Some(p) = write_artifact("e13_trace.json", &run.chrome_json) {
                table.note(format!(
                    "chrome trace ({} bytes) -> {}",
                    run.chrome_json.len(),
                    p.display()
                ));
            }
            if let Some(p) = write_artifact("e13_breakdown.txt", &run.breakdown) {
                table.note(format!("per-layer breakdown -> {}", p.display()));
            }
            // Determinism: the export must be byte-identical when rerun.
            let again = run_traced(loss);
            table.note(if again.chrome_json == run.chrome_json {
                "determinism: two runs at loss 0.01 produced byte-identical trace exports"
                    .to_string()
            } else {
                "determinism VIOLATION: trace exports differ between same-seed runs".to_string()
            });
        }
    }
    table.note("remote ops pay the peer GIOP round-trip on top of proxy+app time; under loss the gap widens by whole backoff windows, which the trace attributes span by span");
    table
}
