//! E19: archival & recovery — snapshot + delta catch-up stays bounded
//! by the snapshot interval, and a crashed host rebuilds byte-identical
//! state from its own archive.
//!
//! **Part A (bounded catch-up).** One server hosts a hot application
//! streaming ~10 status updates/second with the archive snapshotting
//! every [`SNAP_EVERY`] records and compacting closed segments. Six
//! viewers issue one snapshot-aware `CatchUp` each at session ages from
//! 30 to 190 virtual seconds — the oldest fetch lands on an archive
//! more than 100 snapshot intervals deep. The claim under test: every
//! reply is nearest-snapshot + tail, so the tail record count (and the
//! reply bytes, dominated by one snapshot plus < one interval of
//! records) is bounded by the snapshot interval, *not* by session age —
//! while a naive latecomer would pull the whole log, which grows
//! linearly past tens of kilobytes over the same window.
//!
//! **Part B (crash fidelity).** Two runs under the same seed: a control
//! that runs undisturbed, and a crash run whose host dies at 20 s —
//! after the steerer has paused the app, quiescing the update stream —
//! and restarts at 24 s, rebuilding collab/session/lock state from its
//! archive via the `recover_from_archive` restart hook. Acceptance is exact: the
//! recovered host's folded application state is byte-identical to the
//! control's, and a post-restart catch-up serves a byte-identical
//! snapshot + tail, so a latecomer cannot tell the host ever crashed.
//!
//! Artifacts: `BENCH_E19.json` at the repo root (stable schema, CI
//! diffs two same-seed runs for byte-identity) and the usual CSV.

use discover_client::{Portal, PortalConfig};
use simnet::{names, FaultPlan, SimDuration, SimTime};
use wire::{AppOp, ClientRequest, Privilege, Value};

use crate::fixtures;
use crate::report::{BenchSummary, Table};

const E19_SEED: u64 = 1900;
/// Archive snapshot interval (records between snapshot boundaries).
const SNAP_EVERY: u64 = 16;
/// Part A horizon (virtual s). At ~10 archived records/second the log
/// is ~100 snapshot intervals deep by the final fetch.
const A_END_SECS: u64 = 200;
/// Part A catch-up instants (virtual s): session ages spanning well
/// past 10x the snapshot interval.
const FETCH_SECS: [u64; 6] = [30, 60, 90, 120, 150, 190];
/// Part A/B viewer poll period (light compared to the app stream).
const POLL_MS: u64 = 500;
/// Part B: the steerer pauses the app here, quiescing the update
/// stream well before the crash so the archive is identical across the
/// control and crash runs at the moment the host dies.
const B_PAUSE_SECS: u64 = 14;
/// Part B crash/restart/measurement timeline (virtual s).
const B_CRASH_SECS: u64 = 20;
const B_RESTART_SECS: u64 = 24;
const B_END_SECS: u64 = 40;
/// Part B post-restart catch-up instant (virtual s): after the
/// recovered host has re-admitted the viewer's fallback login.
const B_FETCH_SECS: u64 = 32;

/// One Part A catch-up observation.
#[derive(Clone, Debug)]
struct Fetch {
    /// Scripted fetch instant (virtual s) — the session age probe.
    age_s: u64,
    /// Host archive depth (`next_seq`) when the reply was served.
    depth: u64,
    /// Served snapshot boundary (`u64::MAX` = no snapshot yet).
    snap_seq: u64,
    /// Tail records after the snapshot boundary.
    tail_records: u64,
    /// Encoded reply payload: snapshot + tail records.
    bytes: u64,
}

/// Part A harvest.
#[derive(Clone, Debug)]
struct BoundedRun {
    fetches: Vec<Fetch>,
    snapshots: u64,
    compacted: u64,
    /// Records physically retained after compaction.
    stored_records: u64,
    /// Logical archive depth (what a naive latecomer would replay).
    next_seq: u64,
    /// Encoded size of the full stored log — the naive-latecomer bill.
    full_log_bytes: u64,
    snapshot_hits: u64,
    catchup_requests: u64,
}

fn run_bounded() -> BoundedRun {
    let mut b = discover_core::CollaboratoryBuilder::new(E19_SEED);
    b.tweak_servers(|cfg| {
        cfg.snapshot_every = Some(SNAP_EVERY);
        cfg.compact_closed_segments = true;
    });
    let srv = b.server("server0");
    let users: Vec<(String, Privilege)> =
        (0..FETCH_SECS.len()).map(|i| (format!("viewer{i}"), Privilege::ReadOnly)).collect();
    let acl: Vec<(&str, Privilege)> = users.iter().map(|(u, p)| (u.as_str(), *p)).collect();
    let app_cfg = fixtures::hot_app_config("app0", &acl);
    let (_, app) = b.application(srv, appsim::synthetic_app(2, u64::MAX), app_cfg);
    let mut portals = Vec::new();
    for (i, (u, _)) in users.iter().enumerate() {
        let mut cfg = PortalConfig::new(u)
            .poll_every(SimDuration::from_millis(POLL_MS))
            .at(SimDuration::from_secs(FETCH_SECS[i]), ClientRequest::CatchUp { app, since: 0 });
        // Spread logins so the login burst drains before the first probe.
        cfg.login_delay = SimDuration::from_millis(100 + (i as u64 * 97) % 900);
        portals.push(b.portal(srv, &format!("portal{i}"), cfg));
    }
    let mut c = b.build();
    c.engine.run_until(SimTime::from_secs(A_END_SECS));
    let stats = c.engine.stats();

    let mut fetches = Vec::new();
    for (i, &node) in portals.iter().enumerate() {
        let p = c.engine.actor_ref::<Portal>(node).unwrap();
        for (_, snap, recs, next) in p.catch_ups(app) {
            let snap_bytes = snap.as_ref().map_or(0, |s| wire::codec::encoded_len(s) as u64);
            fetches.push(Fetch {
                age_s: FETCH_SECS[i],
                depth: next,
                snap_seq: snap.as_ref().map_or(u64::MAX, |s| s.seq),
                tail_records: recs.len() as u64,
                bytes: snap_bytes + wire::codec::encoded_len(recs) as u64,
            });
        }
    }
    let core = c.server_core(srv).expect("server exists");
    let stored = core.archive().fetch_app(app, 0).0;
    let log = core.archive().app_log(app).expect("app archived");
    BoundedRun {
        fetches,
        snapshots: stats.counter(names::SERVER_ARCHIVE_SNAPSHOTS.key()),
        compacted: stats.counter(names::SERVER_ARCHIVE_COMPACTED.key()),
        stored_records: stored.len() as u64,
        next_seq: log.next_seq(),
        full_log_bytes: wire::codec::encoded_len(&stored) as u64,
        snapshot_hits: stats.counter(names::SERVER_CATCHUP_SNAPSHOT_HITS.key()),
        catchup_requests: stats.counter(names::SERVER_CATCHUP_REQUESTS.key()),
    }
}

/// Part B harvest of one run (control or crashed-and-recovered).
#[derive(Clone, Debug)]
struct FidelityRun {
    /// Encoded folded application state at the end of the run.
    folded: Vec<u8>,
    /// Encoded post-restart catch-up reply (snapshot + tail + next_seq).
    fetch_sig: Vec<u8>,
    /// Tail records in the post-restart catch-up.
    fetch_tail: u64,
    recoveries: u64,
    recovered_apps: u64,
    archive_records: u64,
}

fn run_fidelity(crash: bool) -> FidelityRun {
    // Same seed for both runs: the only difference is the fault plan.
    let seed = E19_SEED + 1;
    let mut b = discover_core::CollaboratoryBuilder::new(seed);
    b.tweak_servers(|cfg| {
        cfg.snapshot_every = Some(SNAP_EVERY);
        cfg.recover_from_archive = true;
    });
    let srv = b.server("server0");
    let acl = [("steerer", Privilege::Steer), ("viewer", Privilege::ReadOnly)];
    let app_cfg = fixtures::hot_app_config("app0", &acl);
    let (_, app) = b.application(srv, appsim::synthetic_app(2, u64::MAX), app_cfg);

    // The steerer takes the lock, lands a few parameter writes, then
    // pauses the app — all comfortably before the host crashes.
    let steer_cfg = PortalConfig::new("steerer")
        .poll_every(SimDuration::from_millis(POLL_MS))
        .at(SimDuration::from_secs(2), ClientRequest::RequestLock { app })
        .at(
            SimDuration::from_secs(4),
            ClientRequest::Op {
                app,
                op: AppOp::SetParam("injection_rate".into(), Value::Float(2.5)),
            },
        )
        .at(
            SimDuration::from_secs(6),
            ClientRequest::Op {
                app,
                op: AppOp::SetParam("injection_rate".into(), Value::Float(3.25)),
            },
        )
        .at(
            SimDuration::from_secs(8),
            ClientRequest::Op { app, op: AppOp::SetParam("viscosity".into(), Value::Int(7)) },
        )
        .at(
            SimDuration::from_secs(B_PAUSE_SECS),
            ClientRequest::Op { app, op: AppOp::Command(wire::AppCommand::Pause) },
        )
        .resume();
    b.portal(srv, "portal-steerer", steer_cfg);
    // The viewer survives the crash via resume/fallback-login and probes
    // the recovered host with a snapshot-aware catch-up.
    let view_cfg = PortalConfig::new("viewer")
        .poll_every(SimDuration::from_millis(POLL_MS))
        .at(SimDuration::from_secs(B_FETCH_SECS), ClientRequest::CatchUp { app, since: 0 })
        .resume();
    let viewer = b.portal(srv, "portal-viewer", view_cfg);

    let mut c = b.build();
    if crash {
        let mut plan = FaultPlan::new(seed);
        plan.crash(srv.node, SimTime::from_secs(B_CRASH_SECS), SimTime::from_secs(B_RESTART_SECS));
        c.engine.apply_faults(&plan);
    }
    c.engine.run_until(SimTime::from_secs(B_END_SECS));
    let stats = c.engine.stats();

    let mut fetch_sig = Vec::new();
    let mut fetch_tail = 0u64;
    let p = c.engine.actor_ref::<Portal>(viewer).unwrap();
    for (_, snap, recs, next) in p.catch_ups(app) {
        fetch_sig.extend_from_slice(&wire::codec::encode(snap));
        fetch_sig.extend_from_slice(&wire::codec::encode(recs));
        fetch_sig.extend_from_slice(&next.to_le_bytes());
        fetch_tail = recs.len() as u64;
    }
    let core = c.server_core(srv).expect("server exists");
    let log = core.archive().app_log(app).expect("app archived");
    FidelityRun {
        folded: wire::codec::encode(log.folded()).to_vec(),
        fetch_sig,
        fetch_tail,
        recoveries: stats.counter(names::SERVER_RECOVERIES.key()),
        recovered_apps: stats.counter(names::SERVER_RECOVERED_APPS.key()),
        archive_records: log.next_seq(),
    }
}

struct Sweep {
    bounded: BoundedRun,
    control: FidelityRun,
    crashed: FidelityRun,
}

fn sweep() -> Sweep {
    Sweep { bounded: run_bounded(), control: run_fidelity(false), crashed: run_fidelity(true) }
}

fn summarize(s: &Sweep) -> BenchSummary {
    let mut out = BenchSummary::new("e19", E19_SEED);
    for f in &s.bounded.fetches {
        out.metric_u64(format!("age{}s.depth", f.age_s), f.depth);
        out.metric_u64(format!("age{}s.tail_records", f.age_s), f.tail_records);
        out.metric_u64(format!("age{}s.bytes", f.age_s), f.bytes);
    }
    let tail_max = s.bounded.fetches.iter().map(|f| f.tail_records).max().unwrap_or(0);
    let bytes_max = s.bounded.fetches.iter().map(|f| f.bytes).max().unwrap_or(0);
    out.metric_u64("catchup.tail_records_max", tail_max);
    out.metric_u64("catchup.bytes_max", bytes_max);
    out.metric_u64("catchup.requests", s.bounded.catchup_requests);
    out.metric_u64("catchup.snapshot_hits", s.bounded.snapshot_hits);
    out.metric_u64("archive.snapshots", s.bounded.snapshots);
    out.metric_u64("archive.compacted", s.bounded.compacted);
    out.metric_u64("archive.stored_records", s.bounded.stored_records);
    out.metric_u64("archive.next_seq", s.bounded.next_seq);
    out.metric_u64("archive.full_log_bytes", s.bounded.full_log_bytes);
    out.metric_u64(
        "recovery.fold_identical",
        u64::from(!s.control.folded.is_empty() && s.control.folded == s.crashed.folded),
    );
    out.metric_u64(
        "recovery.catchup_identical",
        u64::from(!s.control.fetch_sig.is_empty() && s.control.fetch_sig == s.crashed.fetch_sig),
    );
    out.metric_u64("recovery.recoveries", s.crashed.recoveries);
    out.metric_u64("recovery.recovered_apps", s.crashed.recovered_apps);
    out.metric_u64("recovery.control_recoveries", s.control.recoveries);
    out.metric_u64("recovery.post_tail_records", s.crashed.fetch_tail);
    out.metric_u64("recovery.archive_records", s.crashed.archive_records);
    out
}

/// E19: latecomer catch-up cost is bounded by the snapshot interval
/// (not session age), and a crash-recovered host is byte-identical to
/// an uncrashed same-seed run.
pub fn e19_archival_recovery() -> Table {
    let mut table = Table::new(
        "E19",
        "archival & recovery: snapshots, compaction, bounded catch-up, restart-from-archive",
        "\"latecomers ... are briefed on the current state of the collaboration\" (§ Session \
         archival) — the seed replayed the full session log to every latecomer and reset a \
         crashed server to empty state; periodic snapshots bound the catch-up to \
         nearest-snapshot + tail, closed segments compact superseded view-class updates, and \
         the same archive rebuilds a crashed host byte-identically",
        &["probe", "seq_depth", "snapshot", "records", "bytes"],
    );
    let s = sweep();
    for f in &s.bounded.fetches {
        table.row(vec![
            format!("A catch-up @{}s", f.age_s),
            f.depth.to_string(),
            if f.snap_seq == u64::MAX { "none".into() } else { format!("@{}", f.snap_seq) },
            f.tail_records.to_string(),
            f.bytes.to_string(),
        ]);
    }
    table.row(vec![
        format!("A stored log @{A_END_SECS}s"),
        s.bounded.next_seq.to_string(),
        format!("{} taken", s.bounded.snapshots),
        format!("{} ({} compacted)", s.bounded.stored_records, s.bounded.compacted),
        s.bounded.full_log_bytes.to_string(),
    ]);
    for (label, r) in [("B control", &s.control), ("B crash+recover", &s.crashed)] {
        table.row(vec![
            format!("{label} folded @{B_END_SECS}s"),
            r.archive_records.to_string(),
            format!("{} recoveries", r.recoveries),
            r.fetch_tail.to_string(),
            r.folded.len().to_string(),
        ]);
    }

    // Acceptance: catch-up stays bounded by the snapshot interval while
    // the probed session ages span >= 10x that interval in depth.
    let tail_max = s.bounded.fetches.iter().map(|f| f.tail_records).max().unwrap_or(0);
    let deepest = s.bounded.fetches.iter().map(|f| f.depth).max().unwrap_or(0);
    let all_snapped = s.bounded.fetches.iter().all(|f| f.snap_seq != u64::MAX);
    table.note(
        if !s.bounded.fetches.is_empty()
            && tail_max <= SNAP_EVERY
            && deepest >= 10 * SNAP_EVERY
            && all_snapped
        {
            format!(
                "bounded catch-up: every tail <= {SNAP_EVERY}-record snapshot interval \
                 (max {tail_max}) while archive depth reached {deepest} records \
                 ({}x the interval); full-log replay would ship {} bytes",
                deepest / SNAP_EVERY,
                s.bounded.full_log_bytes
            )
        } else {
            format!(
                "bounded catch-up VIOLATION: max tail {tail_max} vs interval {SNAP_EVERY}, \
                 depth {deepest}, all_snapped={all_snapped}"
            )
        },
    );
    // Acceptance: compaction reclaimed superseded view-class records.
    table.note(if s.bounded.compacted > 0 && s.bounded.stored_records < s.bounded.next_seq {
        format!(
            "compaction: {} of {} records compacted out of closed segments; {} retained",
            s.bounded.compacted, s.bounded.next_seq, s.bounded.stored_records
        )
    } else {
        "compaction VIOLATION: closed segments retained every superseded record".to_string()
    });
    // Acceptance: crash recovery is exact — folded state and served
    // catch-up byte-identical to the uncrashed control, via exactly one
    // archive recovery.
    let fold_ok = !s.control.folded.is_empty() && s.control.folded == s.crashed.folded;
    let fetch_ok = !s.control.fetch_sig.is_empty() && s.control.fetch_sig == s.crashed.fetch_sig;
    table.note(if fold_ok && fetch_ok && s.crashed.recoveries == 1 && s.control.recoveries == 0 {
        format!(
            "recovery fidelity: crashed host rebuilt {} apps from its archive and its \
                 folded state ({} bytes) and post-restart catch-up reply are byte-identical \
                 to the uncrashed control",
            s.crashed.recovered_apps,
            s.crashed.folded.len()
        )
    } else {
        format!(
            "recovery VIOLATION: fold_identical={fold_ok} catchup_identical={fetch_ok} \
                 recoveries={} (control {})",
            s.crashed.recoveries, s.control.recoveries
        )
    });

    let summary = summarize(&s);
    // Determinism: the full sweep re-run under the same seeds must
    // reproduce the summary byte for byte.
    let again = sweep();
    table.note(if summarize(&again).to_json() == summary.to_json() {
        "determinism: two same-seed sweeps produced byte-identical BENCH_E19.json contents"
            .to_string()
    } else {
        "determinism VIOLATION: same-seed sweeps disagree".to_string()
    });
    summary.write_repo_root(&mut table);
    table.note(format!(
        "timelines (virtual s): A streams to {A_END_SECS} with snapshot-every={SNAP_EVERY} and \
         compaction on, probes at {FETCH_SECS:?}; B steerer pauses the app at {B_PAUSE_SECS}, \
         host crashes {B_CRASH_SECS}-{B_RESTART_SECS} with recover-from-archive on, catch-up \
         probe at {B_FETCH_SECS}, measured to {B_END_SECS}",
    ));
    table
}
