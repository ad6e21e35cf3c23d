//! E15: overload protection — deadline propagation, admission control
//! and priority-aware shedding keep goodput flat as offered load grows.
//!
//! One server hosts one hot application (2 s compute phases, 100 ms
//! interaction windows — the Daemon servlet buffers every operation that
//! arrives mid-compute). A sweep of closed-loop monitoring clients
//! offers increasing load in three modes: unprotected (the seed
//! behaviour: unbounded proxy buffer, no admission, no deadlines) and
//! protected under a tight and a loose per-op deadline (bounded proxy
//! buffer with priority shedding, per-server inflight budget, portal
//! deadline stamps checked at every hop).
//!
//! Goodput counts successful completions faster than the tightness bound
//! — the only completions an interactive steering user experiences as
//! "the collaboratory responding". The protected modes shed or reject
//! surplus monitoring work deterministically at ingress instead of
//! queueing it behind the compute phase, so their goodput plateaus while
//! the unprotected mode decays; the proxy queue peak stays at or under
//! the configured capacity in every protected run.
//!
//! Artifacts: `BENCH_E15.json` at the repo root (stable schema, CI diffs
//! two same-seed runs for byte-identity) and the usual CSV.

use discover_client::{OpMix, Portal, PortalConfig, Workload};
use discover_core::DiscoverNode;
use simnet::{names, SimDuration, SimTime};
use wire::Privilege;

use crate::fixtures;
use crate::report::{f2, BenchSummary, Table};

const OVERLOAD_SEED: u64 = 1500;
/// Steady-state measurement window.
const MEASURE_SECS: u64 = 30;
/// Logins, selection and the first compute/interact cycles settle here.
const WARMUP_SECS: u64 = 15;
/// Bounded proxy buffer capacity in the protected modes.
const PROXY_CAP: usize = 8;
/// Per-server inflight budget in the protected modes.
const ADMIT_MAX: usize = 12;
/// The tight per-op deadline (and the goodput latency bound). Sized
/// above the poll-observation floor (completions are seen at the next
/// poll, up to `POLL_MS` after they are ready) but below one full
/// compute phase, so buffered-behind-compute work always misses it.
const TIGHT_MS: u64 = 800;
/// The loose per-op deadline (deadline-tightness dimension).
const LOOSE_MS: u64 = 2500;
/// Client poll period. Slower than the fixture default so the fixed
/// poll overhead does not saturate the server before the op path does.
const POLL_MS: u64 = 500;
/// Client think time between completion and the next issue.
const THINK_MS: u64 = 200;

/// Protection mode of one run.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    /// Seed behaviour: no stamps, no budget, unbounded buffer.
    Unprotected,
    /// Bounded buffer + admission budget + portal deadline stamps.
    Protected {
        /// Per-op deadline budget (milliseconds).
        deadline_ms: u64,
    },
}

impl Mode {
    fn key(&self) -> String {
        match self {
            Mode::Unprotected => "raw".to_string(),
            Mode::Protected { deadline_ms } => format!("dl{deadline_ms}"),
        }
    }
    fn index(&self) -> u64 {
        match self {
            Mode::Unprotected => 0,
            Mode::Protected { deadline_ms } if *deadline_ms == TIGHT_MS => 1,
            Mode::Protected { .. } => 2,
        }
    }
}

/// Counter deltas and completion stats over one run's window.
#[derive(Clone, Debug, PartialEq)]
struct OverloadRun {
    clients: usize,
    mode: Mode,
    offered: u64,
    completed_ok: u64,
    goodput_tight: u64,
    goodput_loose: u64,
    rejected: u64,
    expired: u64,
    shed: u64,
    admission_rejected: u64,
    proxy_peak: usize,
}

fn run_overload(clients: usize, mode: Mode) -> OverloadRun {
    let seed = OVERLOAD_SEED + clients as u64 * 10 + mode.index();
    let mut b = discover_core::CollaboratoryBuilder::new(seed);
    if matches!(mode, Mode::Protected { .. }) {
        b.tweak_servers(|cfg| {
            cfg.admission_inflight_max = Some(ADMIT_MAX);
            cfg.proxy_buffer_capacity = Some(PROXY_CAP);
        });
    }
    let srv = b.server("server0");
    let users = fixtures::acl_users(clients, Privilege::ReadWrite);
    let acl: Vec<(&str, Privilege)> = users.iter().map(|(u, p)| (u.as_str(), *p)).collect();
    // Half-duty application: 800 ms compute batches alternate with
    // 800 ms interaction windows. Ops landing mid-compute buffer for up
    // to a full batch (missing the tight deadline); ops landing in the
    // window complete within the poll floor. The slow update rate keeps
    // status-fanout overhead from drowning the op path at 48 clients.
    let mut app_cfg = fixtures::hot_app_config("app0", &acl);
    app_cfg.batch_time = SimDuration::from_millis(800);
    app_cfg.batches_per_phase = 1;
    app_cfg.interaction_window = SimDuration::from_millis(800);
    let (_, app) = b.application(srv, appsim::synthetic_app(2, u64::MAX), app_cfg);
    let mut portals = Vec::new();
    for (i, (u, _)) in users.iter().enumerate() {
        let mut cfg = PortalConfig::new(u)
            .select_app(app)
            .poll_every(SimDuration::from_millis(POLL_MS))
            .workload(Workload::new(
                app,
                OpMix::sensors_only(),
                SimDuration::from_millis(THINK_MS),
            ));
        // Spread logins so the select burst drains inside warmup.
        cfg.login_delay = SimDuration::from_millis(100 + (i as u64 * 97) % 4900);
        if let Mode::Protected { deadline_ms } = mode {
            cfg = cfg.deadline(SimDuration::from_millis(deadline_ms));
        }
        portals.push(b.portal(srv, &format!("portal{i}"), cfg));
    }
    let mut c = b.build();

    c.engine.run_until(SimTime::from_secs(WARMUP_SECS));
    let stats0 = c.engine.stats();
    let issued0 = stats0.counter(names::CLIENT_OPS_ISSUED.key());
    let rejected0 = stats0.counter(names::CLIENT_OPS_REJECTED.key());
    let expired0 = stats0.counter(names::CLIENT_OPS_EXPIRED.key());
    let shed0 = stats0.counter(names::SERVER_PROXY_SHED.key());
    let admit0 = stats0.counter(names::SERVER_ADMISSION_REJECTED.key());
    let mark = SimTime::from_secs(WARMUP_SECS);
    c.engine.run_until(SimTime::from_secs(WARMUP_SECS + MEASURE_SECS));
    let stats = c.engine.stats();

    let (mut completed_ok, mut goodput_tight, mut goodput_loose) = (0u64, 0u64, 0u64);
    for &node in &portals {
        let p = c.engine.actor_ref::<Portal>(node).unwrap();
        for &(at, lat_us, ok) in &p.op_completions {
            if at < mark || !ok {
                continue;
            }
            completed_ok += 1;
            if lat_us <= TIGHT_MS * 1000 {
                goodput_tight += 1;
            }
            if lat_us <= LOOSE_MS * 1000 {
                goodput_loose += 1;
            }
        }
    }
    let node = c.engine.actor_ref::<DiscoverNode>(srv.node).unwrap();
    OverloadRun {
        clients,
        mode,
        offered: stats.counter(names::CLIENT_OPS_ISSUED.key()) - issued0,
        completed_ok,
        goodput_tight,
        goodput_loose,
        rejected: stats.counter(names::CLIENT_OPS_REJECTED.key()) - rejected0,
        expired: stats.counter(names::CLIENT_OPS_EXPIRED.key()) - expired0,
        shed: stats.counter(names::SERVER_PROXY_SHED.key()) - shed0,
        admission_rejected: stats.counter(names::SERVER_ADMISSION_REJECTED.key()) - admit0,
        proxy_peak: node.core.proxy_buffered_peak_max(),
    }
}

/// Offered-load sweep × protection mode × deadline tightness.
const CLIENT_COUNTS: [usize; 3] = [4, 16, 32];
const MODES: [Mode; 3] = [
    Mode::Unprotected,
    Mode::Protected { deadline_ms: TIGHT_MS },
    Mode::Protected { deadline_ms: LOOSE_MS },
];

fn sweep() -> Vec<OverloadRun> {
    let mut runs = Vec::new();
    for &clients in &CLIENT_COUNTS {
        for &mode in &MODES {
            runs.push(run_overload(clients, mode));
        }
    }
    runs
}

fn summarize(runs: &[OverloadRun]) -> BenchSummary {
    let mut s = BenchSummary::new("e15", OVERLOAD_SEED);
    for r in runs {
        let key = format!("c{}_{}", r.clients, r.mode.key());
        s.metric_u64(format!("{key}.offered"), r.offered);
        s.metric_u64(format!("{key}.completed_ok"), r.completed_ok);
        s.metric_u64(format!("{key}.goodput_tight"), r.goodput_tight);
        s.metric_u64(format!("{key}.goodput_loose"), r.goodput_loose);
        s.metric_u64(format!("{key}.rejected"), r.rejected);
        s.metric_u64(format!("{key}.expired"), r.expired);
        s.metric_u64(format!("{key}.shed"), r.shed);
        s.metric_u64(format!("{key}.admission_rejected"), r.admission_rejected);
        s.metric_u64(format!("{key}.proxy_peak"), r.proxy_peak as u64);
        s.metric_f64(
            format!("{key}.goodput_tight_per_s"),
            r.goodput_tight as f64 / MEASURE_SECS as f64,
        );
    }
    s
}

/// E15: goodput stays flat under shedding while the unprotected path
/// decays; proxy queue peaks never exceed the configured capacity.
pub fn e15_overload() -> Table {
    let mut table = Table::new(
        "E15",
        "overload protection: deadline propagation, admission control, priority shedding",
        "\"the system must remain responsive as the number of simultaneous clients grows\" (§ Scalability) — the seed queued surplus monitoring work behind the compute phase; bounded buffers, inflight budgets and end-to-end deadlines shed it deterministically at ingress",
        &[
            "clients", "mode", "offered", "ok", "good@800ms", "good@2.5s", "rejected",
            "expired", "shed", "admit_rej", "proxy_peak", "good/s",
        ],
    );
    let runs = sweep();
    for r in &runs {
        table.row(vec![
            r.clients.to_string(),
            r.mode.key(),
            r.offered.to_string(),
            r.completed_ok.to_string(),
            r.goodput_tight.to_string(),
            r.goodput_loose.to_string(),
            r.rejected.to_string(),
            r.expired.to_string(),
            r.shed.to_string(),
            r.admission_rejected.to_string(),
            r.proxy_peak.to_string(),
            f2(r.goodput_tight as f64 / MEASURE_SECS as f64),
        ]);
    }

    // Acceptance: bounded queues in every protected run.
    let capped = runs
        .iter()
        .filter(|r| matches!(r.mode, Mode::Protected { .. }))
        .all(|r| r.proxy_peak <= PROXY_CAP);
    table.note(if capped {
        format!("bounded buffers: every protected run kept the proxy queue peak <= {PROXY_CAP}")
    } else {
        "bounded buffers VIOLATION: a protected run exceeded the configured proxy capacity"
            .to_string()
    });

    // Acceptance: at the highest offered load, shedding's goodput is at
    // least the unprotected goodput (the plateau vs the decay).
    let max_clients = *CLIENT_COUNTS.iter().max().unwrap();
    let at = |mode: Mode| {
        runs.iter()
            .find(|r| r.clients == max_clients && r.mode == mode)
            .map(|r| r.goodput_tight)
            .unwrap_or(0)
    };
    let raw = at(Mode::Unprotected);
    let tight = at(Mode::Protected { deadline_ms: TIGHT_MS });
    table.note(if tight >= raw {
        format!(
            "goodput plateau: at {max_clients} clients, protected goodput@{TIGHT_MS}ms ({tight}) >= unprotected ({raw})"
        )
    } else {
        format!(
            "goodput VIOLATION: at {max_clients} clients, protected goodput@{TIGHT_MS}ms ({tight}) < unprotected ({raw})"
        )
    });

    let summary = summarize(&runs);
    // Determinism: the full sweep re-run under the same seeds must
    // reproduce the summary byte for byte (shedding decisions are
    // seeded/simtime-driven, never wall-clock-driven).
    let again = sweep();
    table.note(if summarize(&again).to_json() == summary.to_json() {
        "determinism: two same-seed sweeps produced byte-identical BENCH_E15.json contents"
            .to_string()
    } else {
        "determinism VIOLATION: same-seed sweeps disagree".to_string()
    });
    summary.write_repo_root(&mut table);
    table.note(format!(
        "modes: raw = unbounded buffer, no admission, no deadlines; dl{TIGHT_MS}/dl{LOOSE_MS} = proxy cap {PROXY_CAP} + inflight budget {ADMIT_MAX} + per-op deadline stamps checked at ingress, dispatch, orb call and dequeue",
    ));
    table
}
