//! E12: chaos — crash/restart cycles plus lossy WAN links, with and
//! without the substrate's retry/failover machinery.
//!
//! Five backend servers each host one application; ten clients work on
//! those applications remotely through an always-up gateway server, so
//! every client op crosses the peer network. A [`FaultPlan`] gives each
//! backend one crash/restart cycle during the run. The same scenario is
//! run with the fault-tolerant substrate (retry with backoff, circuit
//! breaker, peer health + failover) and with one send attempt per call
//! (`max_attempts = 1`) — the seed behaviour, where the first expired
//! call fails the client op.

use appsim::synthetic_app;
use discover_client::{OpMix, Portal, PortalConfig, Workload};
use discover_core::{Collaboratory, CollaboratoryBuilder};
use simnet::{names, FaultPlan, Histogram, NodeId, SimDuration, SimTime};
use wire::{ClientMessage, Privilege, ResponseBody};

use crate::fixtures;
use crate::report::{f2, BenchSummary, Table};

const BACKENDS: usize = 5;
const CLIENTS: usize = 10;
const CHAOS_SEED: u64 = 1200;

/// What one chaos run produced. Counter-valued fields double as the
/// determinism fingerprint: two runs of the same configuration must
/// agree on every one of them.
#[derive(Clone, Debug, PartialEq)]
struct ChaosOutcome {
    ok: u64,
    err: u64,
    p50_ms: f64,
    p99_ms: f64,
    crashes: u64,
    retries: u64,
    breaker_open: u64,
    failovers: u64,
    fastfails: u64,
}

impl ChaosOutcome {
    fn success_rate(&self) -> f64 {
        let total = self.ok + self.err;
        if total == 0 {
            0.0
        } else {
            self.ok as f64 / total as f64
        }
    }
}

fn run_chaos(loss: f64, max_attempts: u32) -> ChaosOutcome {
    let mut b = CollaboratoryBuilder::new(CHAOS_SEED);
    // Short call timeout / sweep so both modes resolve stuck calls well
    // within the run; identical for both modes so only the policy varies.
    b.substrate_config.call_timeout = SimDuration::from_secs(2);
    b.substrate_config.sweep_interval = SimDuration::from_millis(500);
    b.substrate_config.max_attempts = max_attempts;
    b.substrate_config.discovery_interval = SimDuration::from_secs(5);

    let gateway = b.server("gateway");
    let backends: Vec<_> = (0..BACKENDS).map(|i| b.server(&format!("backend{i}"))).collect();
    b.mesh_servers(simnet::LinkSpec::wan().with_loss(loss));

    let users = fixtures::acl_users(CLIENTS, Privilege::ReadWrite);
    let acl: Vec<(&str, Privilege)> = users.iter().map(|(u, p)| (u.as_str(), *p)).collect();
    // Login anchor at the gateway (clients log in against their local
    // server; the steered apps all live on the backends).
    b.application(gateway, synthetic_app(1, u64::MAX), fixtures::quiet_app_config("anchor", &acl));
    let apps: Vec<_> = backends
        .iter()
        .enumerate()
        .map(|(i, &srv)| {
            let cfg = fixtures::interactive_app_config(&format!("app{i}"), &acl);
            b.application(srv, synthetic_app(2, u64::MAX), cfg).1
        })
        .collect();

    // All clients sit behind the gateway and steer a backend-hosted app,
    // so every op is relayed over the (lossy, crash-prone) peer network.
    let mut portals = Vec::new();
    for (i, (u, _)) in users.iter().enumerate() {
        let app = apps[i % BACKENDS];
        let mut cfg = PortalConfig::new(u)
            .select_app(app)
            .poll_every(fixtures::poll_period())
            .workload(Workload::new(app, OpMix::sensors_only(), SimDuration::from_millis(500)));
        cfg.login_delay = SimDuration::from_millis(200 + i as u64 * 10);
        portals.push(b.portal(gateway, &format!("client-{u}"), cfg));
    }

    let mut c = b.build();

    // One crash/restart cycle per backend, staggered across the middle of
    // the run; the gateway stays up so clients always have a way in.
    let backend_nodes: Vec<NodeId> = backends.iter().map(|s| s.node).collect();
    let mut plan = FaultPlan::new(CHAOS_SEED);
    plan.stagger_crashes(
        &backend_nodes,
        SimTime::from_secs(10),
        SimTime::from_secs(45),
        SimDuration::from_secs(6),
    );
    c.engine.apply_faults(&plan);

    c.engine.run_until(SimTime::from_secs(fixtures::RUN_SECS));
    collect_outcome(&c, &portals)
}

fn collect_outcome(c: &Collaboratory, portals: &[NodeId]) -> ChaosOutcome {
    let mut ok = 0u64;
    let mut err = 0u64;
    let mut latencies = Histogram::new();
    for &node in portals {
        let Some(p) = c.engine.actor_ref::<Portal>(node) else { continue };
        for (_, msg) in &p.received {
            match msg {
                ClientMessage::Response(ResponseBody::OpDone { .. }) => ok += 1,
                ClientMessage::Error(_) => err += 1,
                _ => {}
            }
        }
        for &(_, us, _) in &p.op_completions {
            latencies.record(SimDuration::from_micros(us));
        }
    }
    let summary = latencies.summary();
    let stats = c.engine.stats();
    ChaosOutcome {
        ok,
        err,
        p50_ms: summary.p50.as_micros() as f64 / 1000.0,
        p99_ms: summary.p99.as_micros() as f64 / 1000.0,
        crashes: stats.counter(names::ENGINE_CRASHES.key()),
        retries: stats.counter(names::SUBSTRATE_RETRIES.key()),
        breaker_open: stats.counter(names::SUBSTRATE_BREAKER_OPEN.key()),
        failovers: stats.counter(names::SUBSTRATE_FAILOVERS.key()),
        fastfails: stats.counter(names::SUBSTRATE_FASTFAILS.key()),
    }
}

/// E12: success rate and latency under crashes and loss, fault-tolerant
/// substrate vs the original fail-on-timeout behaviour.
pub fn e12_fault_tolerance() -> Table {
    let mut table = Table::new(
        "E12",
        "chaos: crash/restart cycles + lossy WAN, retry/failover vs fail-on-timeout",
        "\"the availability of these servers is not guaranteed and must be determined at runtime\" (§5.2.1) — the substrate must keep sessions usable while peers come and go",
        &[
            "loss", "mode", "ops_ok", "ops_err", "success", "p50_ms", "p99_ms", "crashes",
            "retries", "brk_open", "failovers", "fastfails",
        ],
    );
    let modes = [("retry+failover", 3), ("fail-on-timeout", 1)];
    let mut compared: Vec<(f64, f64, f64)> = Vec::new();
    let mut summary = BenchSummary::new("e12", CHAOS_SEED);
    for &loss in &[0.0f64, 0.01, 0.05] {
        let mut rates = Vec::new();
        for &(mode, max_attempts) in &modes {
            let out = run_chaos(loss, max_attempts);
            rates.push(out.success_rate());
            let key = format!(
                "loss{:03}_{}",
                (loss * 100.0) as u64,
                if max_attempts > 1 { "retry" } else { "noretry" },
            );
            summary.metric_u64(format!("{key}.ops_ok"), out.ok);
            summary.metric_u64(format!("{key}.ops_err"), out.err);
            summary.metric_f64(format!("{key}.success_rate"), out.success_rate());
            summary.metric_f64(format!("{key}.p50_ms"), out.p50_ms);
            summary.metric_f64(format!("{key}.p99_ms"), out.p99_ms);
            summary.metric_u64(format!("{key}.retries"), out.retries);
            summary.metric_u64(format!("{key}.failovers"), out.failovers);
            table.row(vec![
                format!("{loss:.2}"),
                mode.to_string(),
                out.ok.to_string(),
                out.err.to_string(),
                f2(out.success_rate()),
                f2(out.p50_ms),
                f2(out.p99_ms),
                out.crashes.to_string(),
                out.retries.to_string(),
                out.breaker_open.to_string(),
                out.failovers.to_string(),
                out.fastfails.to_string(),
            ]);
        }
        compared.push((loss, rates[0], rates[1]));
    }
    for (loss, with_retry, without) in &compared {
        let verdict = if with_retry > without { "higher" } else { "NOT higher" };
        table.note(format!(
            "loss {loss:.2}: success {with:.2} (retry+failover) vs {wo:.2} (fail-on-timeout) — {verdict}",
            with = with_retry,
            wo = without,
        ));
    }
    // Determinism: the acceptance scenario (1% loss, retries on) must
    // produce an identical counter fingerprint when run again.
    let a = run_chaos(0.01, 3);
    let b = run_chaos(0.01, 3);
    table.note(if a == b {
        "determinism: two runs at loss 0.01 (retry+failover) produced identical counters"
            .to_string()
    } else {
        format!("determinism VIOLATION: {a:?} != {b:?}")
    });
    summary.write_repo_root(&mut table);
    table.note("retries ride out 6 s backend downtime; the breaker converts repeat timeouts into fast Unavailable+redirect errors");
    table
}
