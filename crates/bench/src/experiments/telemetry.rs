//! E17: telemetry overhead — the observability plane is free when armed
//! and cheap when probed.
//!
//! The continuous-telemetry PR adds three observation channels: quantile
//! histograms (always on), the anomaly flight recorder (opt-in), and the
//! live status page (a real wire request). This experiment prices each
//! one against the same deadline-expiry overload fixture — a 2 s compute
//! phase against 400 ms client deadlines, so every phase boundary
//! expires a cluster of buffered ops:
//!
//! * **bare**: no opt-in telemetry. The reference schedule.
//! * **armed**: flight recorder on at a low spike threshold. The
//!   recorder only appends to side rings, so the event schedule must be
//!   *identical* to bare — its acceptance check holds `schedule_delta`
//!   at exactly 0 — and a second armed run must reproduce the dumps byte
//!   for byte.
//! * **probed**: an operator portal polls `ClientRequest::Status` every
//!   500 ms. Probes are real traffic (they do change the schedule), so
//!   here we price them: probe round-trip percentiles and the goodput
//!   delta against bare.
//!
//! Artifacts: `BENCH_E17.json` at the repo root, which CI holds byte
//! for byte to the committed file across PRs.

use appsim::{synthetic_app, DriverConfig};
use discover_client::{OpMix, Portal, PortalConfig, Workload};
use simnet::{names, SimDuration, SimTime};
use wire::{Privilege, UserId};

use crate::report::{f2, BenchSummary, Table};

const E17_SEED: u64 = 1700;
/// Deadline-holding watchers driving the overload.
const WATCHERS: usize = 6;
/// Deadline-free residents whose ops complete — so the goodput column
/// is non-vacuous when bare and armed runs are compared.
const RESIDENTS: usize = 3;
/// Virtual run horizon.
const END_SECS: u64 = 30;
/// Operator status-probe period (probed variant).
const PROBE_MS: u64 = 500;

/// Which observation channels one run arms.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Variant {
    Bare,
    Armed,
    Probed,
}

impl Variant {
    fn key(&self) -> &'static str {
        match self {
            Variant::Bare => "bare",
            Variant::Armed => "armed",
            Variant::Probed => "probed",
        }
    }
}

/// One run's observables.
#[derive(Clone, Debug)]
struct TelemetryRun {
    variant: Variant,
    events: u64,
    ops_ok: u64,
    expired: u64,
    flight_dumps: u64,
    /// Rendered flight dumps (byte-identity oracle for armed reruns).
    dumps_rendered: String,
    probes_sent: u64,
    probes_served: u64,
    probe_reports: u64,
    probe_p50_ms: f64,
    probe_p99_ms: f64,
    /// Last rendered status page ("" when unprobed).
    status_page: String,
}

/// The shared fixture: one server, a slow application (2 s batches), six
/// read-only watchers whose 400 ms deadlines expire at every phase
/// boundary. All variants share [`E17_SEED`] so bare and armed runs are
/// schedule-comparable.
fn run_variant(variant: Variant) -> TelemetryRun {
    let mut b = discover_core::CollaboratoryBuilder::new(E17_SEED);
    if variant == Variant::Armed {
        b.flight_recorder(4);
    }
    let srv = b.server("server0");
    let mut dc = DriverConfig::default();
    dc.name = "slow".into();
    let mut users: Vec<String> = (0..WATCHERS).map(|i| format!("w{i}")).collect();
    users.extend((0..RESIDENTS).map(|i| format!("r{i}")));
    dc.acl = users.iter().map(|u| (UserId::new(u), Privilege::ReadOnly)).collect();
    if variant == Variant::Probed {
        dc.acl.push((UserId::new("operator"), Privilege::ReadOnly));
    }
    dc.batch_time = SimDuration::from_secs(2);
    dc.batches_per_phase = 1;
    dc.interaction_window = SimDuration::from_millis(300);
    let (_, app) = b.application(srv, synthetic_app(2, u64::MAX), dc);
    let mut portals = Vec::new();
    for (i, user) in users.iter().enumerate() {
        let mut cfg = PortalConfig::new(user)
            .select_app(app)
            .poll_every(SimDuration::from_millis(500))
            .workload(Workload::new(app, OpMix::sensors_only(), SimDuration::from_millis(300)));
        if i < WATCHERS {
            cfg = cfg.deadline(SimDuration::from_millis(400));
        }
        cfg.login_delay = SimDuration::from_millis(100 + 30 * i as u64);
        portals.push(b.portal(srv, user, cfg));
    }
    let operator = (variant == Variant::Probed).then(|| {
        let mut cfg =
            PortalConfig::new("operator").status_every(SimDuration::from_millis(PROBE_MS));
        cfg.login_delay = SimDuration::from_millis(150);
        b.portal(srv, "operator", cfg)
    });
    let mut c = b.build();
    c.engine.run_until(SimTime::from_secs(END_SECS));

    let ops_ok = portals
        .iter()
        .map(|&n| {
            let p = c.engine.actor_ref::<Portal>(n).unwrap();
            p.op_completions.iter().filter(|&&(_, _, ok)| ok).count() as u64
        })
        .sum();
    let (probes_sent, probe_reports, probe_p50_ms, probe_p99_ms, status_page) = match operator {
        Some(op) => {
            let m = c.engine.node_metrics(op);
            let (p50, p99) = m
                .stats()
                .histogram(names::CLIENT_STATUS_LATENCY.key())
                .map(|h| {
                    (
                        h.quantile(0.5).as_micros() as f64 / 1000.0,
                        h.quantile(0.99).as_micros() as f64 / 1000.0,
                    )
                })
                .unwrap_or((0.0, 0.0));
            let p = c.engine.actor_ref::<Portal>(op).unwrap();
            (
                m.counter(names::CLIENT_STATUS_PROBES),
                p.status_reports().count() as u64,
                p50,
                p99,
                p.status_page().unwrap_or_default(),
            )
        }
        None => (0, 0, 0.0, 0.0, String::new()),
    };
    let stats = c.engine.stats();
    TelemetryRun {
        variant,
        events: c.engine.events_processed(),
        ops_ok,
        expired: stats.counter(names::SERVER_DEADLINE_DEQUEUE_EXPIRED.key()),
        flight_dumps: stats.counter(names::ENGINE_FLIGHT_DUMPS.key()),
        dumps_rendered: c.engine.flight_dumps_rendered(),
        probes_sent,
        probes_served: stats.counter(names::SERVER_STATUS_REQUESTS.key()),
        probe_reports,
        probe_p50_ms,
        probe_p99_ms,
        status_page,
    }
}

fn summarize(
    bare: &TelemetryRun,
    armed: &TelemetryRun,
    probed: &TelemetryRun,
    armed_deterministic: bool,
    probed_deterministic: bool,
) -> BenchSummary {
    let mut s = BenchSummary::new("e17", E17_SEED);
    for r in [bare, armed, probed] {
        let key = r.variant.key();
        s.metric_u64(format!("{key}.events"), r.events);
        s.metric_u64(format!("{key}.ops_ok"), r.ops_ok);
        s.metric_u64(format!("{key}.expired"), r.expired);
    }
    s.metric_u64("armed.schedule_delta", bare.events.abs_diff(armed.events));
    s.metric_u64("armed.flight_dumps", armed.flight_dumps);
    s.metric_u64("armed.deterministic", armed_deterministic as u64);
    s.metric_u64("probes.sent", probed.probes_sent);
    s.metric_u64("probes.served", probed.probes_served);
    s.metric_u64("probes.reports", probed.probe_reports);
    s.metric_f64("probes.p50_ms", probed.probe_p50_ms);
    s.metric_f64("probes.p99_ms", probed.probe_p99_ms);
    s.metric_u64("probes.deterministic", probed_deterministic as u64);
    s
}

/// E17: the flight recorder costs zero schedule events; status probes
/// round-trip in milliseconds; everything reproduces byte for byte.
pub fn e17_telemetry_overhead() -> Table {
    let mut table = Table::new(
        "E17",
        "telemetry overhead: flight recorder, status probes, determinism",
        "\"analysis and profiling of current middleware\" (§7) — observation must not \
         perturb the system observed: an armed flight recorder shares the bare run's \
         event schedule exactly, and live status probes price in at a bounded \
         round-trip on top of the workload",
        &[
            "variant", "events", "ops_ok", "expired", "dumps", "probes", "served", "p50_ms",
            "p99_ms",
        ],
    );
    let bare = run_variant(Variant::Bare);
    let armed = run_variant(Variant::Armed);
    let probed = run_variant(Variant::Probed);
    for r in [&bare, &armed, &probed] {
        table.row(vec![
            r.variant.key().to_string(),
            r.events.to_string(),
            r.ops_ok.to_string(),
            r.expired.to_string(),
            r.flight_dumps.to_string(),
            r.probes_sent.to_string(),
            r.probes_served.to_string(),
            f2(r.probe_p50_ms),
            f2(r.probe_p99_ms),
        ]);
    }

    // Acceptance: arming the recorder leaves the schedule untouched —
    // same event count, same goodput, same expiry count — yet it fired.
    let zero_cost =
        bare.events == armed.events && bare.ops_ok == armed.ops_ok && bare.expired == armed.expired;
    table.note(if zero_cost && armed.flight_dumps > 0 {
        format!(
            "observer effect: armed run matched bare exactly ({} events, {} ops) while \
             capturing {} expiry-spike dumps",
            armed.events, armed.ops_ok, armed.flight_dumps
        )
    } else {
        format!(
            "observer VIOLATION: armed run diverged from bare or never fired \
             (events {} vs {}, ops {} vs {}, dumps {})",
            bare.events, armed.events, bare.ops_ok, armed.ops_ok, armed.flight_dumps
        )
    });

    // Acceptance: a second armed run reproduces the dumps byte for byte,
    // and a second probed run reproduces page + funnel.
    let armed2 = run_variant(Variant::Armed);
    let armed_deterministic =
        !armed.dumps_rendered.is_empty() && armed.dumps_rendered == armed2.dumps_rendered;
    let probed2 = run_variant(Variant::Probed);
    let probed_deterministic = !probed.status_page.is_empty()
        && probed.status_page == probed2.status_page
        && probed.events == probed2.events
        && (probed.probes_sent, probed.probes_served, probed.probe_reports)
            == (probed2.probes_sent, probed2.probes_served, probed2.probe_reports);
    table.note(if armed_deterministic && probed_deterministic {
        "determinism: same-seed reruns reproduced flight dumps and status pages byte for byte"
            .to_string()
    } else {
        "determinism VIOLATION: a same-seed rerun disagreed".to_string()
    });

    // Acceptance: probes actually flowed and completed.
    let funnel = probed.probe_reports > 0
        && probed.probes_served >= probed.probe_reports
        && probed.probes_sent >= probed.probes_served;
    table.note(if funnel {
        format!(
            "status probes: {} sent >= {} served >= {} reports; round-trip p50 {} ms, \
             p99 {} ms; workload goodput {} vs {} bare",
            probed.probes_sent,
            probed.probes_served,
            probed.probe_reports,
            f2(probed.probe_p50_ms),
            f2(probed.probe_p99_ms),
            probed.ops_ok,
            bare.ops_ok
        )
    } else {
        format!(
            "probe VIOLATION: funnel broke ({} sent, {} served, {} reports)",
            probed.probes_sent, probed.probes_served, probed.probe_reports
        )
    });

    let summary = summarize(&bare, &armed, &probed, armed_deterministic, probed_deterministic);
    summary.write_repo_root(&mut table);
    table
}
