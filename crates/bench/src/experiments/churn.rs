//! E16: churn recovery — session leases, reconnect-with-resume and
//! paced rejoin keep a flash crowd from going metastable.
//!
//! One server hosts a mostly-interactive application with 40 closed-loop
//! clients. After a steady pre-burst window, 32 of them drop off the
//! network at once (a building-wide disconnect); the server's idle sweep
//! *parks* their sessions under the lease TTL instead of tearing them
//! down. Seven virtual seconds later the partition heals and all 32
//! rejoin simultaneously — the flash crowd. Each returning portal
//! presents its session cookie plus per-app archive cursors and the
//! server replays exactly the missed suffix.
//!
//! Two modes: **raw** admits every resume the instant it arrives;
//! **paced** caps resume admission per accounting second and defers the
//! surplus with jittered retry-after hints, trading a slightly longer
//! rejoin tail for a flat goodput floor under the stampede. The
//! acceptance gates: aggregate goodput recovers to >= 80% of the
//! pre-burst rate within the measured horizon in both modes, every
//! parked session is resumed (none leak), and the paced mode actually
//! throttles.
//!
//! Artifacts: `BENCH_E16.json` at the repo root (stable schema, CI diffs
//! two same-seed runs for byte-identity) and the usual CSV.

use discover_client::{OpMix, Portal, PortalConfig, Workload};
use simnet::{names, FaultPlan, SimDuration, SimTime};
use wire::Privilege;

use crate::fixtures;
use crate::report::{f2, BenchSummary, Table};

const CHURN_SEED: u64 = 1600;
/// Total closed-loop clients.
const CLIENTS: usize = 40;
/// Clients that disconnect in the burst (the rest are bystanders).
const CHURNERS: usize = 32;
/// Logins and app selection settle here.
const WARMUP_SECS: u64 = 15;
/// Pre-burst steady-state window: [WARMUP, DROP).
const DROP_SECS: u64 = 25;
/// The partition heals here; all churners rejoin at once.
const HEAL_SECS: u64 = 32;
/// End of the run; the post-recovery window is the final 10 s.
const END_SECS: u64 = 62;
/// Goodput is bucketed at this granularity to find the recovery point.
const BUCKET_MS: u64 = 2_000;
/// Session lease knobs: silence past the idle timeout parks the session;
/// the park TTL bounds how long parked state may be retained.
const IDLE_TIMEOUT_MS: u64 = 2_000;
const PARK_TTL_MS: u64 = 30_000;
/// Paced-mode resume admissions per accounting second.
const RESUME_RATE: u32 = 8;
/// Client poll period. Slower than the fixture default so 40 clients'
/// fixed poll overhead does not saturate the server (same reasoning as
/// E15).
const POLL_MS: u64 = 500;
/// Client think time between completion and the next issue.
const THINK_MS: u64 = 500;

/// Resume admission mode of one run.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    /// Every resume admitted immediately.
    Raw,
    /// At most [`RESUME_RATE`] resumes per accounting second; the rest
    /// are deferred with jittered retry-after hints.
    Paced,
}

impl Mode {
    fn key(&self) -> &'static str {
        match self {
            Mode::Raw => "raw",
            Mode::Paced => "paced",
        }
    }
    fn index(&self) -> u64 {
        match self {
            Mode::Raw => 0,
            Mode::Paced => 1,
        }
    }
}

/// One run's recovery observables.
#[derive(Clone, Debug)]
struct ChurnRun {
    mode: Mode,
    /// Successful completions per second over the pre-burst window.
    pre_rate: f64,
    /// Successful completions per second over the final 10 s.
    post_rate: f64,
    /// Virtual ms after the heal until a bucket first reaches 80% of the
    /// pre-burst rate (`None` = never recovered).
    recovery_ms: Option<u64>,
    parked: u64,
    resumed: u64,
    reclaimed: u64,
    throttled: u64,
    replayed: u64,
    resumes_sent: u64,
    resumes_ok: u64,
    fallbacks: u64,
    /// Sessions still parked when the run ended (leak detector).
    parked_at_end: usize,
}

fn run_churn(mode: Mode) -> ChurnRun {
    let seed = CHURN_SEED + mode.index();
    let mut b = discover_core::CollaboratoryBuilder::new(seed);
    b.tweak_servers(move |cfg| {
        cfg.session_idle_timeout = Some(SimDuration::from_millis(IDLE_TIMEOUT_MS));
        cfg.session_park_ttl = Some(SimDuration::from_millis(PARK_TTL_MS));
        cfg.resume_rate_limit = match mode {
            Mode::Raw => None,
            Mode::Paced => Some(RESUME_RATE),
        };
    });
    let srv = b.server("server0");
    let users = fixtures::acl_users(CLIENTS, Privilege::ReadWrite);
    let acl: Vec<(&str, Privilege)> = users.iter().map(|(u, p)| (u.as_str(), *p)).collect();
    let app_cfg = fixtures::interactive_app_config("app0", &acl);
    let (_, app) = b.application(srv, appsim::synthetic_app(2, u64::MAX), app_cfg);
    let mut portals = Vec::new();
    for (i, (u, _)) in users.iter().enumerate() {
        let mut cfg = PortalConfig::new(u)
            .select_app(app)
            .poll_every(SimDuration::from_millis(POLL_MS))
            .workload(Workload::new(app, OpMix::sensors_only(), SimDuration::from_millis(THINK_MS)))
            .resume();
        // Spread logins so the select burst drains inside warmup.
        cfg.login_delay = SimDuration::from_millis(100 + (i as u64 * 97) % 4900);
        portals.push(b.portal(srv, &format!("portal{i}"), cfg));
    }
    let mut c = b.build();

    // The burst: the last CHURNERS portals drop off the network together
    // and all come back at the same instant.
    let mut plan = FaultPlan::new(seed);
    for &node in portals.iter().skip(CLIENTS - CHURNERS) {
        plan.partition(
            node,
            srv.node,
            SimTime::from_secs(DROP_SECS),
            SimTime::from_secs(HEAL_SECS),
        );
    }
    c.engine.apply_faults(&plan);

    c.engine.run_until(SimTime::from_secs(END_SECS));
    let stats = c.engine.stats();

    // Successful completions, bucketed over virtual time.
    let mut completions: Vec<u64> = Vec::new();
    let (mut resumes_sent, mut resumes_ok, mut fallbacks) = (0u64, 0u64, 0u64);
    for &node in &portals {
        let p = c.engine.actor_ref::<Portal>(node).unwrap();
        let m = c.engine.node_metrics(node);
        resumes_sent += m.counter(names::CLIENT_RESUMES);
        resumes_ok += p.resumed_at.len() as u64;
        fallbacks += m.counter(names::CLIENT_RESUME_FALLBACKS);
        for &(at, _, ok) in &p.op_completions {
            if ok {
                completions.push(at.as_micros());
            }
        }
    }
    let rate = |from_s: u64, to_s: u64| -> f64 {
        let (lo, hi) = (from_s * 1_000_000, to_s * 1_000_000);
        completions.iter().filter(|&&t| t >= lo && t < hi).count() as f64 / (to_s - from_s) as f64
    };
    let pre_rate = rate(WARMUP_SECS, DROP_SECS);
    let post_rate = rate(END_SECS - 10, END_SECS);
    // First post-heal bucket at >= 80% of the pre-burst rate.
    let heal_us = HEAL_SECS * 1_000_000;
    let bucket_us = BUCKET_MS * 1_000;
    let floor = 0.8 * pre_rate * (BUCKET_MS as f64 / 1_000.0);
    let recovery_ms = (0..(END_SECS * 1_000 - HEAL_SECS * 1_000) / BUCKET_MS).find_map(|i| {
        let lo = heal_us + i * bucket_us;
        let n = completions.iter().filter(|&&t| t >= lo && t < lo + bucket_us).count();
        (n as f64 >= floor).then_some(i * BUCKET_MS)
    });

    let core = c.server_core(srv).expect("server exists");
    ChurnRun {
        mode,
        pre_rate,
        post_rate,
        recovery_ms,
        parked: stats.counter(names::SERVER_SESSIONS_PARKED.key()),
        resumed: stats.counter(names::SERVER_SESSIONS_RESUMED.key()),
        reclaimed: stats.counter(names::SERVER_SESSIONS_RECLAIMED.key()),
        throttled: stats.counter(names::SERVER_RESUME_THROTTLED.key()),
        replayed: stats.counter(names::SERVER_RESUME_REPLAYED.key()),
        resumes_sent,
        resumes_ok,
        fallbacks,
        parked_at_end: core.parked_count(),
    }
}

fn sweep() -> Vec<ChurnRun> {
    vec![run_churn(Mode::Raw), run_churn(Mode::Paced)]
}

fn summarize(runs: &[ChurnRun]) -> BenchSummary {
    let mut s = BenchSummary::new("e16", CHURN_SEED);
    for r in runs {
        let key = r.mode.key();
        s.metric_f64(format!("{key}.pre_rate_per_s"), r.pre_rate);
        s.metric_f64(format!("{key}.post_rate_per_s"), r.post_rate);
        s.metric_u64(format!("{key}.recovery_ms"), r.recovery_ms.unwrap_or(u64::MAX));
        s.metric_u64(format!("{key}.parked"), r.parked);
        s.metric_u64(format!("{key}.resumed"), r.resumed);
        s.metric_u64(format!("{key}.reclaimed"), r.reclaimed);
        s.metric_u64(format!("{key}.throttled"), r.throttled);
        s.metric_u64(format!("{key}.replayed"), r.replayed);
        s.metric_u64(format!("{key}.resumes_sent"), r.resumes_sent);
        s.metric_u64(format!("{key}.resumes_ok"), r.resumes_ok);
        s.metric_u64(format!("{key}.fallbacks"), r.fallbacks);
        s.metric_u64(format!("{key}.parked_at_end"), r.parked_at_end as u64);
    }
    s
}

/// E16: a 32-client flash-crowd rejoin recovers >= 80% of pre-burst
/// goodput in bounded virtual time; leases never leak; pacing engages.
pub fn e16_churn_recovery() -> Table {
    let mut table = Table::new(
        "E16",
        "churn recovery: session leases, reconnect-with-resume, paced rejoin",
        "\"clients can connect to and disconnect from the collaboratory at any time\" (§ Session management) — the seed tore down a silent session and made every rejoin a cold login plus full-archive refetch; leases park the session under a TTL and resume replays only the missed suffix, with admission pacing to keep a flash crowd from starving the steady state",
        &[
            "mode", "pre/s", "post/s", "recovery_ms", "parked", "resumed", "reclaimed",
            "throttled", "replayed", "resumes", "resumed_ok", "fallbacks", "parked_end",
        ],
    );
    let runs = sweep();
    for r in &runs {
        table.row(vec![
            r.mode.key().to_string(),
            f2(r.pre_rate),
            f2(r.post_rate),
            r.recovery_ms.map_or_else(|| "never".into(), |ms| ms.to_string()),
            r.parked.to_string(),
            r.resumed.to_string(),
            r.reclaimed.to_string(),
            r.throttled.to_string(),
            r.replayed.to_string(),
            r.resumes_sent.to_string(),
            r.resumes_ok.to_string(),
            r.fallbacks.to_string(),
            r.parked_at_end.to_string(),
        ]);
    }

    // Acceptance: goodput recovers to >= 80% of pre-burst in both modes,
    // within the measured horizon.
    let recovered = runs.iter().all(|r| r.recovery_ms.is_some() && r.post_rate >= 0.8 * r.pre_rate);
    table.note(if recovered {
        format!(
            "recovery: both modes regained >= 80% of pre-burst goodput ({})",
            runs.iter()
                .map(|r| format!("{}: {} ms", r.mode.key(), r.recovery_ms.unwrap_or(u64::MAX)))
                .collect::<Vec<_>>()
                .join(", ")
        )
    } else {
        "recovery VIOLATION: a mode failed to regain 80% of pre-burst goodput".to_string()
    });

    // Acceptance: the lease plane never leaks — every park ends in a
    // resume or a reclamation and nothing stays parked.
    let no_leak = runs.iter().all(|r| r.parked == r.resumed + r.reclaimed && r.parked_at_end == 0);
    table.note(if no_leak {
        "leases: every parked session was resumed or reclaimed; none leaked".to_string()
    } else {
        "lease VIOLATION: parked sessions leaked past the horizon".to_string()
    });

    // Acceptance: pacing engages in the paced mode and only there.
    let paced = runs.iter().find(|r| r.mode == Mode::Paced).expect("paced run");
    let raw = runs.iter().find(|r| r.mode == Mode::Raw).expect("raw run");
    table.note(if paced.throttled > 0 && raw.throttled == 0 {
        format!(
            "pacing: paced mode deferred {} resumes at {RESUME_RATE}/s; raw deferred none",
            paced.throttled
        )
    } else {
        format!(
            "pacing VIOLATION: expected deferrals only in the paced mode \
             (paced={}, raw={})",
            paced.throttled, raw.throttled
        )
    });

    let summary = summarize(&runs);
    // Determinism: the full sweep re-run under the same seeds must
    // reproduce the summary byte for byte.
    let again = sweep();
    table.note(if summarize(&again).to_json() == summary.to_json() {
        "determinism: two same-seed sweeps produced byte-identical BENCH_E16.json contents"
            .to_string()
    } else {
        "determinism VIOLATION: same-seed sweeps disagree".to_string()
    });
    summary.write_repo_root(&mut table);
    table.note(format!(
        "timeline (virtual s): warmup 0-{WARMUP_SECS}, pre-burst {WARMUP_SECS}-{DROP_SECS}, \
         {CHURNERS}/{CLIENTS} clients partitioned {DROP_SECS}-{HEAL_SECS}, flash-crowd rejoin \
         at {HEAL_SECS}, measured to {END_SECS}; idle timeout {IDLE_TIMEOUT_MS} ms, park TTL \
         {PARK_TTL_MS} ms",
    ));
    table
}
