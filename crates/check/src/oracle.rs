//! The correctness oracles, applied to a completed [`RunResult`]. Each
//! applies whenever the feature it checks is on, whatever the family.
//!
//! * **Linearizability** — lock responses observed at portals (plus
//!   host-side evictions/forced releases as `Free` ops) must admit a
//!   legal total order of the single-holder lock automaton ([`crate::lin`]).
//! * **ACL** — every `op.accepted` history event (recorded at the host
//!   for local and relayed operations alike) must trace to a live,
//!   sufficient grant; users without a grant must complete nothing.
//! * **FIFO-within-class** — the Daemon buffer's flush order must
//!   preserve per-class arrival order, and no request may be both
//!   dispatched and dropped.
//! * **Replay** — the latecomer's catch-up fetch must be a prefix of
//!   their final full fetch, which must equal the host's archive under
//!   the wire codec; a resumed session's every replayed `History` batch
//!   must equal the archive over its range — only the missed suffix,
//!   never a rewrite. Under compaction "equal" is what compaction
//!   promises (`agrees`).
//! * **Reclaim** (session leases) — every parked session is resumed or
//!   reclaimed exactly once, and nothing stays parked at the horizon.
//! * **Pacing** (paced resumes) — with a resume rate limit of `r`/s, no
//!   sliding one-second window admits more than `2r` resumes (2x: the
//!   oracle's windows misalign with the server's accounting windows).
//! * **Goodput** (disconnect windows) — connected closed-loop bystanders
//!   keep completing work after the churn heals.
//! * **Recovery** (session leases) — every returning client attempts a
//!   resume and ends up resumed or re-logged-in, within an
//!   O(backlog/rate) time budget.
//! * **Snapshot** (snapshots) — one snapshot per configured interval,
//!   each equal to the fold of the records before it (no torn
//!   snapshots), and every snapshot-aware catch-up reply — including
//!   those a host recovered from its archive serves — agrees with the
//!   host's snapshot at that sequence and with the archive after it.
//! * **Discovery** (the cached directory) — replaying every server's
//!   recorded cache transitions, an invalidated entry generation is
//!   never served again without an intervening authoritative re-insert,
//!   and no hit lands past its entry's expiry.
//! * **Differential** (the `composed` family) — the same scenario on the
//!   paper's stack answers no request the featured run leaves unanswered
//!   (`check_differential`).
//!
//! ### Interval construction for the lock history
//!
//! A portal's k-th acquire-class response is matched with its k-th
//! acquire-class script invocation (same for the release class); the
//! interval is `[script time, response arrival]` with response times
//! monotonized per class (retried/polled responses can arrive out of
//! order; widening intervals is always sound — it only admits more
//! orders). When the host recorded *more* decisions for a user-class
//! than the portal observed responses (lost replies under crashes, or
//! relay retries that decided twice), client matching is unsound for
//! that user-class, so the oracle falls back to the host's own events
//! as near-zero-width ops at the host decision time — the host is the
//! serialization point, so its event times are exact.

use std::collections::{BTreeMap, BTreeSet};

use simnet::{names, NodeId};
use wire::{
    AppId, AppOp, CacheStep, DaemonStep, Event, LockStep, LogEntry, LogRecord, Lookup, Priority,
    Privilege,
};

use crate::features::Features;
use crate::lin::{self, LinKind, LinOp};
use crate::run::{lock_responses, op_done, LockObsKind, RunResult};
use crate::scenario::{ActionKind, Family, Scenario, UserSpec};

/// Slack around host-recorded event times (µs), absorbing the gap
/// between a decision and its observable effect.
const SLACK_US: u64 = 200_000;

/// One oracle failure.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which oracle fired (`"linearizability"`, `"acl"`, `"fifo"`,
    /// `"replay"`, `"reclaim"`, `"pacing"`, `"goodput"`, `"recovery"`,
    /// `"snapshot"`, `"discovery"`, `"differential"`).
    pub oracle: &'static str,
    /// What it saw.
    pub detail: String,
}

impl Violation {
    fn new(oracle: &'static str, detail: impl Into<String>) -> Self {
        Violation { oracle, detail: detail.into() }
    }
}

/// Script times of `user`'s `kind` invocations, µs, in issue order.
fn invocations_us(user: &UserSpec, kind: ActionKind) -> Vec<u64> {
    user.actions.iter().filter(|a| a.kind == kind).map(|a| a.at_ms * 1000).collect()
}

/// Build the lock-automaton history from a run (public so the mutation
/// test can inspect it).
pub fn build_lock_ops(run: &RunResult) -> Vec<LinOp> {
    let mut ops = Vec::new();

    // Host decisions per user, split by class, in host order.
    #[derive(Default)]
    struct HostEvents {
        acquire: Vec<(u64, LinKind)>,
        release: Vec<(u64, LinKind)>,
    }
    let mut host: BTreeMap<String, HostEvents> = BTreeMap::new();
    for (e, event) in run.events() {
        let Event::Lock(step, app, user, _) = event else { continue };
        if *app != run.app {
            continue;
        }
        let at = e.at.as_micros();
        let events = host.entry(user.to_string()).or_default();
        match step {
            LockStep::Granted => events.acquire.push((at, LinKind::Granted)),
            LockStep::Denied(holder) => {
                events.acquire.push((at, LinKind::Denied { holder: holder.to_string() }));
            }
            LockStep::Released => events.release.push((at, LinKind::ReleaseOk)),
            LockStep::ReleaseFailed(_) => {
                events.release.push((at, LinKind::ReleaseFail { checked: true }));
            }
            // Host-side lock seizures: the holder loses the lock without
            // asking. Required transitions, not optional ones.
            LockStep::Evicted | LockStep::ForceReleased => ops.push(LinOp {
                user: user.to_string(),
                kind: LinKind::Free,
                lo_us: at.saturating_sub(SLACK_US),
                hi_us: at + SLACK_US,
            }),
        }
    }

    let host_ops = |events: &[(u64, LinKind)], user: &str| -> Vec<LinOp> {
        events
            .iter()
            .map(|(at, kind)| LinOp {
                user: user.to_string(),
                kind: kind.clone(),
                lo_us: at.saturating_sub(SLACK_US),
                hi_us: at + SLACK_US,
            })
            .collect()
    };

    let mut seen_users = BTreeSet::new();
    for (i, u) in run.scenario.users.iter().enumerate() {
        seen_users.insert(u.name.clone());
        let h = host.get(&u.name);

        // Client-observed responses by class (arrival order), with
        // infrastructure fast-fail denials dropped: a `holder: None`
        // denial is the local server reporting the host unreachable,
        // not a lock decision.
        let mut acquire: Vec<(u64, LinKind)> = Vec::new();
        let mut release: Vec<(u64, LinKind)> = Vec::new();
        for obs in lock_responses(run.portal(i), run.app) {
            match obs.kind {
                LockObsKind::Granted => acquire.push((obs.at_us, LinKind::Granted)),
                LockObsKind::Denied(Some(holder)) => {
                    acquire.push((obs.at_us, LinKind::Denied { holder }));
                }
                LockObsKind::Denied(None) => {}
                LockObsKind::Released => release.push((obs.at_us, LinKind::ReleaseOk)),
                LockObsKind::ReleaseFailed => release.push((
                    obs.at_us,
                    // A remote release failure may be a relay fast-fail
                    // that the host never saw; only the host's local
                    // clients observe verified rejections.
                    LinKind::ReleaseFail { checked: u.server == 0 },
                )),
            }
        }

        for (class, client, invocations) in [
            ("acquire", acquire, invocations_us(u, ActionKind::Acquire)),
            ("release", release, invocations_us(u, ActionKind::Release)),
        ] {
            let host_events = h
                .map(|h| if class == "acquire" { &h.acquire } else { &h.release })
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            if host_events.len() > client.len() {
                // Lost replies / relay retries: the portal's pairing is
                // unsound for this user-class; trust the host's record.
                ops.extend(host_ops(host_events, &u.name));
                continue;
            }
            let mut hi_floor = 0u64;
            for (k, (resp_at, kind)) in client.into_iter().enumerate() {
                let lo = invocations.get(k).copied().unwrap_or(0);
                // Monotonize response bounds: a later response cannot
                // take effect before an earlier one of the same class.
                hi_floor = hi_floor.max(resp_at).max(lo);
                ops.push(LinOp { user: u.name.clone(), kind, lo_us: lo, hi_us: hi_floor });
            }
        }
    }

    // Host decisions for users with no portal in the scenario (should
    // not happen, but never silently drop history).
    for (user, events) in &host {
        if !seen_users.contains(user) {
            ops.extend(host_ops(&events.acquire, user));
            ops.extend(host_ops(&events.release, user));
        }
    }
    ops
}

fn check_lin(run: &RunResult, out: &mut Vec<Violation>) {
    let ops = build_lock_ops(run);
    if let Err(report) = lin::check_linearizable(&ops) {
        out.push(Violation::new("linearizability", report));
    }
}

/// The privilege `op` needs, written out here rather than read from the
/// stack under test.
fn required_privilege(op: &AppOp) -> Privilege {
    match op {
        AppOp::SetParam(..) => Privilege::ReadWrite,
        AppOp::Command(_) => Privilege::Steer,
        AppOp::GetStatus | AppOp::GetParam(_) | AppOp::GetSensors => Privilege::ReadOnly,
    }
}

fn check_acl(run: &RunResult, out: &mut Vec<Violation>) {
    let grants: BTreeMap<&str, Privilege> = run
        .scenario
        .users
        .iter()
        .filter_map(|u| u.privilege.map(|p| (u.name.as_str(), p)))
        .collect();
    // Revocations in history order; an accepted op AFTER the revocation
    // event (by global sequence — the harness injects the event at the
    // instant it applies the revocation) is a violation.
    let mut revoked_at_seq: BTreeMap<&str, u64> = BTreeMap::new();
    for (e, event) in run.events() {
        if let Event::AclRevoked(app, user, _) = event {
            if *app == run.app {
                revoked_at_seq.entry(user.as_str()).or_insert(e.seq);
            }
        }
    }
    for (e, event) in run.events() {
        let Event::OpAccepted(app, user, op, _) = event else { continue };
        if *app != run.app {
            continue;
        }
        let name = op.kind_name();
        match grants.get(user.as_str()) {
            None => out.push(Violation::new(
                "acl",
                format!(
                    "op accepted for user without any grant: seq={} user={user} op={name}",
                    e.seq
                ),
            )),
            Some(p) if !p.allows(required_privilege(op)) => out.push(Violation::new(
                "acl",
                format!(
                    "op accepted beyond grant: seq={} user={user} grant={p:?} op={name}",
                    e.seq
                ),
            )),
            Some(_) => {}
        }
        if let Some(&rev_seq) = revoked_at_seq.get(user.as_str()) {
            if e.seq > rev_seq {
                out.push(Violation::new(
                    "acl",
                    format!(
                        "op accepted after revocation: seq={} user={user} op={name} \
                         (revoked at seq={rev_seq})",
                        e.seq
                    ),
                ));
            }
        }
    }
    // Client side: a user with no grant must never see a completion on
    // the main app.
    for (i, u) in run.scenario.users.iter().enumerate() {
        let done = op_done(run.portal(i), run.app);
        if u.privilege.is_none() && done > 0 {
            out.push(Violation::new(
                "acl",
                format!("ungranted user {} observed {done} OpDone completions", u.name),
            ));
        }
    }
}

fn check_fifo(run: &RunResult, out: &mut Vec<Violation>) {
    // Per (app, class): buffered and flushed request id sequences in
    // history order, plus the drop records.
    let mut buffered: BTreeMap<(AppId, Priority), Vec<u64>> = BTreeMap::new();
    let mut flushed: BTreeMap<(AppId, Priority), Vec<u64>> = BTreeMap::new();
    let mut shed: Vec<u64> = Vec::new();
    let mut expired: Vec<u64> = Vec::new();
    for (_, event) in run.events() {
        let &Event::Daemon(step, app, req, class) = event else { continue };
        match step {
            DaemonStep::Buffered => buffered.entry((app, class)).or_default().push(req.0),
            DaemonStep::Flushed => flushed.entry((app, class)).or_default().push(req.0),
            DaemonStep::Shed => shed.push(req.0),
            DaemonStep::Expired => expired.push(req.0),
        }
    }
    for (&(app, class), flush) in &flushed {
        let buf = buffered.get(&(app, class)).map(Vec::as_slice).unwrap_or(&[]);
        // Order-preserving subsequence check (two pointers).
        let mut bi = 0usize;
        for &req in flush {
            while bi < buf.len() && buf[bi] != req {
                bi += 1;
            }
            if bi == buf.len() {
                out.push(Violation::new(
                    "fifo",
                    format!(
                        "app {app} class {class:?} flushed req {req} out of buffered order \
                         (buffered: {buf:?}, flushed: {flush:?})"
                    ),
                ));
                break;
            }
            bi += 1;
        }
    }
    // A request must complete at most once: never dispatched twice, and
    // never both dispatched and dropped.
    let all_flushed: Vec<u64> = flushed.values().flatten().copied().collect();
    let mut flushed_set = BTreeSet::new();
    for req in &all_flushed {
        if !flushed_set.insert(*req) {
            out.push(Violation::new("fifo", format!("req {req} flushed twice")));
        }
    }
    for req in shed.iter().chain(&expired) {
        if flushed_set.contains(req) {
            out.push(Violation::new("fifo", format!("req {req} both dispatched and dropped")));
        }
    }
}

fn check_replay(run: &RunResult, out: &mut Vec<Violation>) {
    check_latecomer_replay(run, out);
    check_resume_replay(run, out);
}

/// Records below this sequence may have been compacted out of the host
/// archive after they were served: the start of its open segment when
/// compaction is on, else 0.
fn compacted_below(run: &RunResult) -> u64 {
    let f = run.scenario.features;
    let every = f.snapshot_every.filter(|&every| f.compact_closed_segments && every > 0);
    every.zip(run.host_log()).map_or(0, |(every, log)| log.next_seq() / every * every)
}

/// The records of `archive` whose sequence lies within `served`'s range.
fn range_of<'a>(archive: &'a [LogRecord], served: &[LogRecord]) -> &'a [LogRecord] {
    let (Some(first), Some(last)) = (served.first(), served.last()) else { return &[] };
    let end = archive.partition_point(|r| r.seq <= last.seq);
    &archive[archive.partition_point(|r| r.seq < first.seq).min(end)..end]
}

/// Whether records a host served still agree, under the wire codec, with
/// `reference`, what the archive holds over the same range now. With
/// compaction off they must be byte-identical to it. With compaction on a
/// closed segment may since have dropped superseded view-class records,
/// so what compaction promises is checked instead: every reference
/// record is among the served ones, in order and byte-identical, and
/// every served record the reference no longer holds is a view-class
/// record below `compacted_below`. Served sequences ascend either way.
fn agrees(served: &[LogRecord], reference: &[LogRecord], compacted_below: u64) -> bool {
    let view = |r: &LogRecord| match &r.entry {
        LogEntry::Status(_) => true,
        LogEntry::Update(u) => u.body().coalesce_key().is_some(),
        _ => false,
    };
    let mut kept = reference.iter().peekable();
    served.windows(2).all(|w| w[0].seq < w[1].seq)
        && served.iter().all(|r| match kept.next_if(|k| k.seq == r.seq) {
            Some(k) => wire::codec::encode(r) == wire::codec::encode(k),
            None => r.seq < compacted_below && view(r),
        })
        && kept.next().is_none()
}

fn check_latecomer_replay(run: &RunResult, out: &mut Vec<Violation>) {
    let Some(late) = run.latecomer_portal() else { return };
    let fetches: Vec<&Vec<LogRecord>> = late.histories(run.app).map(|(_, f, _)| f).collect();
    if fetches.len() < 2 {
        out.push(Violation::new(
            "replay",
            format!(
                "latecomer completed {} history fetches, expected 2 (catch-up + final)",
                fetches.len()
            ),
        ));
        return;
    }
    let catchup = fetches[0];
    let fin = fetches[fetches.len() - 1];
    let archive = run.host_archive();
    if archive.is_empty() {
        out.push(Violation::new("replay", "host archive is empty"));
        return;
    }
    let below = compacted_below(run);
    let prefix = |records: &[LogRecord], upto: Option<&LogRecord>| {
        upto.map_or(0, |last| records.partition_point(|r| r.seq <= last.seq))
    };
    if !agrees(catchup, &fin[..prefix(fin, catchup.last())], below) {
        out.push(Violation::new(
            "replay",
            format!(
                "catch-up snapshot (len {}) is not a prefix of the final replay (len {})",
                catchup.len(),
                fin.len()
            ),
        ));
    }
    // Byte-level equivalence under the wire codec: the latecomer's
    // replayed view IS the host's archive as of the fetch, not merely
    // similar. The archive keeps growing after the fetch (the app
    // streams status updates), so compare against the prefix up to the
    // last sequence the latecomer saw.
    if fin.is_empty() {
        out.push(Violation::new("replay", "final replay is empty while the host archive is not"));
        return;
    }
    let cut = prefix(archive, fin.last());
    if !agrees(fin, &archive[..cut], below) {
        out.push(Violation::new(
            "replay",
            format!(
                "final replay (len {}) differs from the host archive prefix it fetched \
                 (len {} of {}) under the wire codec",
                fin.len(),
                cut,
                archive.len()
            ),
        ));
    }
}

/// A resumed session's replayed history batches must each agree with
/// the host archive over their range ([`agrees`]): resume replays
/// exactly the missed suffix, it never invents, reorders, or rewrites
/// records.
fn check_resume_replay(run: &RunResult, out: &mut Vec<Violation>) {
    let (archive, below) = (run.host_archive(), compacted_below(run));
    for (i, u) in run.scenario.users.iter().enumerate() {
        let portal = run.portal(i);
        if portal.resumed_at.is_empty() {
            continue;
        }
        let bad =
            portal.histories(run.app).find(|(_, f, _)| !agrees(f, range_of(archive, f), below));
        if let Some((_, f, _)) = bad {
            let seqs = f.first().zip(f.last()).map(|(a, b)| (a.seq, b.seq));
            let detail = format!(
                "resume replay for {} (seq {seqs:?}, len {}) is not a byte-identical contiguous \
                 slice of the host archive (len {})",
                u.name,
                f.len(),
                archive.len()
            );
            out.push(Violation::new("replay", detail));
        }
    }
}

/// The session-plane oracles: lease no-leak and bounded recovery
/// whenever session leases are on, resume pacing whenever resumes are
/// paced, and bystander goodput whenever clients disconnect.
fn check_churn(run: &RunResult, out: &mut Vec<Violation>) {
    let (features, disconnects) = (run.scenario.features, &run.scenario.faults.disconnects);
    let Some(leases) = features.leases else {
        return check_goodput(run, out);
    };

    // Reclaim: park/resume/reclaim events must balance, and nothing may
    // still be parked when the run ends. A leak here is exactly the
    // `Mutation::NoReclaim` bug.
    let mut parked = 0u64;
    let mut reclaimed = 0u64;
    let mut resumed_at: Vec<u64> = Vec::new();
    for (e, event) in run.events() {
        match event {
            Event::SessionParked(..) => parked += 1,
            Event::SessionResumed(..) => resumed_at.push(e.at.as_micros()),
            Event::SessionReclaimed(..) => reclaimed += 1,
            _ => {}
        }
    }
    let resumed = resumed_at.len() as u64;
    let parked_at_end = run.parked_at_end();
    if parked != resumed + reclaimed || parked_at_end != 0 {
        out.push(Violation::new(
            "reclaim",
            format!(
                "lease leak: parked={parked} resumed={resumed} reclaimed={reclaimed} \
                 parked_at_end={parked_at_end}"
            ),
        ));
    }

    // Pacing: with a server-side accounting window of r resumes/s, any
    // sliding 1s window holds at most 2r (it spans at most two
    // accounting windows).
    if let Some(rate) = leases.resume_rate {
        let limit = 2 * rate as usize;
        let mut lo = 0usize;
        for hi in 0..resumed_at.len() {
            while resumed_at[hi] - resumed_at[lo] >= 1_000_000 {
                lo += 1;
            }
            if hi - lo + 1 > limit {
                out.push(Violation::new(
                    "pacing",
                    format!(
                        "{} resumes inside one second around t={}µs exceeds 2x the \
                         configured rate {rate}/s",
                        hi - lo + 1,
                        resumed_at[hi]
                    ),
                ));
                break;
            }
        }
    }

    check_goodput(run, out);

    // Recovery: each returning client must attempt a resume and land
    // somewhere (resumed, or re-logged-in after its lease was
    // reclaimed), and a successful resume must complete within an
    // O(backlog/rate) budget of the heal.
    let returning: Vec<_> = disconnects.iter().filter(|d| d.until_ms.is_some()).collect();
    let k = returning.len() as u64;
    for d in &returning {
        let u = &run.scenario.users[d.user];
        let resumed_at = &run.portal(d.user).resumed_at;
        if run.portal_counter(d.user, names::CLIENT_RESUMES) == 0 {
            out.push(Violation::new(
                "recovery",
                format!("returning user {} never attempted a resume", u.name),
            ));
            continue;
        }
        let fallbacks = run.portal_counter(d.user, names::CLIENT_RESUME_FALLBACKS);
        if resumed_at.is_empty() && fallbacks == 0 {
            out.push(Violation::new(
                "recovery",
                format!("returning user {} neither resumed nor fell back to re-login", u.name),
            ));
            continue;
        }
        if let Some(first) = resumed_at.first().map(|t| t.as_micros()) {
            let until = d.until_ms.expect("returning");
            let budget_ms = match leases.resume_rate {
                Some(r) => until + 5_000 + 2_000 * k.div_ceil(r as u64),
                None => until + 5_000,
            };
            if first > budget_ms * 1_000 {
                out.push(Violation::new(
                    "recovery",
                    format!(
                        "user {} resumed at {first}µs, past the O(backlog) budget of \
                         {budget_ms}ms",
                        u.name
                    ),
                ));
            }
        }
    }
}

/// Goodput: closed-loop users who never disconnected must still complete
/// work after the last heal — a rejoin storm must not starve them.
fn check_goodput(run: &RunResult, out: &mut Vec<Violation>) {
    let disconnects = &run.scenario.faults.disconnects;
    let disconnected: BTreeSet<usize> = disconnects.iter().map(|d| d.user).collect();
    let Some(heal) = disconnects.iter().filter_map(|d| d.until_ms).max().map(|ms| ms * 1000) else {
        return;
    };
    for (ui, u) in run.scenario.users.iter().enumerate() {
        if disconnected.contains(&ui) || !u.closed_loop {
            continue;
        }
        let completions = &run.portal(ui).op_completions;
        if !completions.iter().any(|(at, _, ok)| *ok && at.as_micros() > heal) {
            out.push(Violation::new(
                "goodput",
                format!(
                    "bystander {} completed nothing after the churn healed at {heal}µs",
                    u.name
                ),
            ));
        }
    }
}

/// The snapshotting-archive oracle: cadence, torn-snapshot folds, and
/// byte-identical catch-up service (live and recovered hosts alike).
/// A no-op unless the scenario configures periodic snapshots.
fn check_snapshot(run: &RunResult, out: &mut Vec<Violation>) {
    let Some(every) = run.scenario.features.snapshot_every else { return };

    // Cadence: one snapshot per `every` appended records. The seeded
    // skip fault breaks exactly this equality.
    let (archive, below) = (run.host_archive(), compacted_below(run));
    let (snapshots, next_seq) =
        run.host_log().map_or((&[][..], 0), |log| (log.snapshots(), log.next_seq()));
    let expected = next_seq / every;
    if snapshots.len() as u64 != expected {
        out.push(Violation::new(
            "snapshot",
            format!(
                "snapshot cadence broken: {} snapshots for {next_seq} records at interval \
                 {every} (expected {expected})",
                snapshots.len()
            ),
        ));
    }

    // Torn snapshots: a snapshot at seq S must equal the fold of the
    // records strictly before S — never a half-applied boundary.
    // Compaction drops only records a later one supersedes in the fold,
    // so a compacted archive folds like the dense one.
    for snap in snapshots {
        let cut = archive.partition_point(|r| r.seq < snap.seq);
        let folded = wire::FoldedAppState::fold(&archive[..cut]);
        if wire::codec::encode(&snap.state) != wire::codec::encode(&folded) {
            out.push(Violation::new(
                "snapshot",
                format!(
                    "torn snapshot at seq {}: state differs from the fold of the {cut} \
                     records before it",
                    snap.seq
                ),
            ));
        }
    }

    // Catch-up service: every reply a viewer received — before the
    // crash or from the recovered host — must agree with the host's own
    // record of the same range.
    for (ui, u) in run.scenario.users.iter().enumerate() {
        let portal = run.portal(ui);
        for (i, (at, snap, tail, next_seq)) in portal.catch_ups(run.app).enumerate() {
            let host_snap = snap.as_ref().map(|s| snapshots.iter().find(|h| h.seq == s.seq));
            let encode = |s: &wire::ArchiveSnapshot| wire::codec::encode(&s.state);
            let first = tail.first().map(|r| r.seq);
            let problem = match (snap, host_snap) {
                (Some(s), Some(None)) => {
                    format!("served snapshot at seq {} is not among the host's", s.seq)
                }
                (Some(s), Some(Some(h))) if encode(h) != encode(s) => {
                    format!("served snapshot at seq {} differs from the host's", s.seq)
                }
                // The open segment is never compacted, so the tail starts
                // exactly at the boundary (no gap a viewer would skip).
                (Some(s), _) if first.is_some_and(|f| f != s.seq) => {
                    format!("tail starts at seq {first:?}, not the snapshot boundary {}", s.seq)
                }
                _ if !agrees(tail, range_of(archive, tail), below) => format!(
                    "tail (seq {first:?}.., len {}) is not a byte-identical contiguous slice of \
                     the host archive (len {})",
                    tail.len(),
                    archive.len()
                ),
                _ if tail.last().is_some_and(|last| next_seq != last.seq + 1) => {
                    format!("next_seq {next_seq} does not follow the last served record")
                }
                _ => continue,
            };
            let at_us = at.as_micros();
            out.push(Violation::new(
                "snapshot",
                format!("catch-up {i} for {} at {at_us}µs: {problem}", u.name),
            ));
        }
        // Every scripted catch-up must have produced a reply: losing
        // the post-restart fetch would hide a recovery that never came
        // back up. (A resume's own replay arrives with its `Resumed`.)
        let scripted = u.actions.iter().filter(|a| a.kind == ActionKind::CatchUp).count();
        let resumes = &portal.resumed_at;
        let replies = portal.catch_ups(run.app).filter(|c| !resumes.contains(&c.0)).count();
        if replies != scripted {
            out.push(Violation::new(
                "snapshot",
                format!(
                    "{} received {replies} catch-up replies for {scripted} scripted fetches",
                    u.name
                ),
            ));
        }
    }

    // A crashed host configured for archive recovery must actually have
    // recovered (the history records the rebuild).
    if run.scenario.features.recover_from_archive
        && run.scenario.faults.crashes.iter().any(|c| c.server == 0)
        && !run.events().any(|(_, event)| matches!(event, Event::ServerRecovered(..)))
    {
        out.push(Violation::new(
            "snapshot",
            "host crashed with recover_from_archive set but never rebuilt from its archive",
        ));
    }
}

/// The directory-consistency oracle (the cached plane): replays every
/// server's recorded cache transitions per (server, application),
/// counting each entry's generation as the inserts it has seen (the
/// harness's planted route is one).
///
/// * **Never re-served**: a hit whose generation equals a preceding
///   invalidation's generation — with no intervening insert (which would
///   bump the generation) — means an op was dispatched against a server
///   the directory already said lost ownership of the key. This is
///   exactly what the seeded `Mutation::StaleCache` bug produces.
/// * **No hit past expiry**: a served entry must still be within its
///   recorded TTL at service time (expiry is exclusive).
///
/// A no-op unless the scenario runs the cached discovery plane.
fn check_discovery(run: &RunResult, out: &mut Vec<Violation>) {
    if run.scenario.features.discovery.is_none() {
        return;
    }
    // Per (server, app): inserts seen, and the generation a pending
    // (un-reinserted) invalidation poisoned.
    #[derive(Default)]
    struct KeyState {
        generation: u64,
        poisoned: Option<u64>,
    }
    let mut state: BTreeMap<(NodeId, AppId), KeyState> = BTreeMap::new();
    for (e, event) in run.events() {
        let (app, step) = match *event {
            Event::Cache(app, step) => (app, Some(step)),
            // The plant installs a (wrong) positive entry.
            Event::CachePlanted(app, _) => (app, None),
            _ => continue,
        };
        let key = state.entry((e.node, app)).or_default();
        match step {
            None | Some(CacheStep::Insert(..)) => {
                key.generation += 1;
                // A fresh authoritative answer supersedes the poison.
                key.poisoned = None;
            }
            Some(CacheStep::Lookup(Lookup::Hit(_, expires))) => {
                let (at, generation) = (e.at.as_micros(), key.generation);
                if key.poisoned == Some(generation) {
                    out.push(Violation::new(
                        "discovery",
                        format!(
                            "{:?} {app}: generation {generation} re-served at {at}µs after its \
                             invalidation (op dispatched against a server that lost ownership)",
                            e.node
                        ),
                    ));
                }
                if e.at >= expires {
                    out.push(Violation::new(
                        "discovery",
                        format!(
                            "{:?} {app}: hit at {at}µs past the entry's expiry {}µs",
                            e.node,
                            expires.as_micros()
                        ),
                    ));
                }
            }
            Some(CacheStep::Invalidate(_)) => key.poisoned = Some(key.generation),
            Some(CacheStep::Lookup(_)) => {}
        }
    }
}

/// The scripted requests, by index, the paper's stack answered and the
/// featured run did not, less those `exempt` excuses: requests are
/// paired with their own answers ([`discover_client::Portal::script_answered`]), so an
/// excused request answered in one place cannot cover for another lost
/// elsewhere.
fn lost_answers<T>(
    featured: &[Option<T>],
    paper: &[Option<T>],
    exempt: impl Fn(usize) -> bool,
) -> Vec<usize> {
    let lost = |i: &usize| paper[*i].is_some() && featured[*i].is_none() && !exempt(*i);
    (0..paper.len().min(featured.len())).filter(lost).collect()
}

/// The differential oracle (composed family): the same scenario on the
/// paper's stack answers no request the featured run leaves unanswered.
/// Each scripted request is paired with its own answer (a closed-loop
/// workload issues what its answers let it, so two runs issue different
/// requests and are not compared). An error is an answer, so a request
/// the featured history records as shed, expired or refused at admission
/// is answered; coalescing merges only view-class updates, never an
/// answer; deferral applies to resumes, which are not scripted. So the
/// one exemption is a request sent while its own client was partitioned
/// from its server. The overload paths themselves (admission refusals,
/// proxy-buffer shedding, peer throttling, deadline expiry) are on in
/// the production profile, but no traffic shape loads a server enough to
/// take them yet. When one user at most may steer and each of their
/// requests was answered alike in both runs (a success, an error, or
/// not at all), the host's archive must also fold to the same parameter
/// values and lock holder.
///
/// The global lock order across users is not compared: the discovery
/// cache and deadline stamps move arrival times by design, so two users'
/// requests may interleave differently without anything being wrong.
fn check_differential(run: &RunResult, paper: &RunResult, out: &mut Vec<Violation>) {
    let users = &run.scenario.users;
    for (ui, u) in users.iter().enumerate() {
        // Sent while the user's own client was cut off from its server.
        let disconnected = |i: usize| {
            let at = u.actions[i].at_ms;
            let mut windows = run.scenario.faults.disconnects.iter().filter(|d| d.user == ui);
            windows.any(|d| at >= d.from_ms && d.until_ms.is_none_or(|until| at < until))
        };
        let answered = |r: &RunResult| r.portal(ui).script_answered.clone();
        for i in lost_answers(&answered(run), &answered(paper), disconnected) {
            let (what, at) = (u.actions[i].kind.name(), u.actions[i].at_ms);
            let detail = format!("{}'s {what} at {at} ms went unanswered", u.name);
            out.push(Violation::new("differential", detail + "; the paper's stack answered it"));
        }
    }
    let mut steerers =
        users.iter().enumerate().filter(|(_, u)| u.privilege == Some(Privilege::Steer));
    if let (Some((ui, u)), None) = (steerers.next(), steerers.next()) {
        let state = |r: &RunResult| {
            r.host_log().map(|log| (log.folded().params.clone(), log.folded().lock_holder.clone()))
        };
        let (featured, reference) = (state(run), state(paper));
        let outcomes = |r: &RunResult| {
            let answered = r.portal(ui).script_answered.iter();
            answered.map(|a| a.map(|(_, ok)| ok)).collect::<Vec<_>>()
        };
        if outcomes(run) == outcomes(paper) && featured != reference {
            let detail = format!(
                "steerer {} was answered alike, yet the host ends at {featured:?}, the paper's \
                 stack at {reference:?}",
                u.name
            );
            out.push(Violation::new("differential", detail));
        }
    }
}

/// Run every oracle over `run`; empty = the run is clean. A composed run
/// is also checked against the same scenario on the paper's stack.
pub fn check_run(run: &RunResult) -> Vec<Violation> {
    let mut out = Vec::new();
    check_lin(run, &mut out);
    check_acl(run, &mut out);
    check_fifo(run, &mut out);
    check_replay(run, &mut out);
    check_churn(run, &mut out);
    check_snapshot(run, &mut out);
    check_discovery(run, &mut out);
    if run.scenario.family == Family::Composed {
        let features =
            Features { lock_lease: run.scenario.features.lock_lease, ..Features::paper() };
        let paper = Scenario { features, mutation: None, ..run.scenario.clone() };
        check_differential(run, &crate::run::run(&paper), &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use simnet::HistoryEvent;
    use wire::{Origin, UserId};

    use super::*;

    #[test]
    fn the_acl_oracle_sees_operations_relayed_over_the_orb() {
        use crate::run::run;
        use crate::scenario::{Family, Scenario};
        // Half the `acl` family's users sit on a non-host server; the
        // host records their admitted operations like local ones.
        let relayed = |(_, event): &(&HistoryEvent, &Event)| {
            matches!(event, Event::OpAccepted(.., Origin::Relay(_)))
        };
        let mut result = (0..32)
            .map(|seed| Scenario::generate(Family::Acl, seed))
            .filter(|scenario| scenario.n_servers == 2)
            .map(|scenario| run(&scenario))
            .find(|result| result.events().any(|e| relayed(&e)))
            .expect("an acl run on two servers relays an admitted operation");
        let mut clean = Vec::new();
        check_acl(&result, &mut clean);
        assert!(clean.is_empty(), "clean run flagged: {clean:?}");
        // Had the host admitted that operation for a user without a
        // grant, the oracle must say so: record it again, for an outsider.
        let outsider = result.scenario.users.iter().find(|u| u.privilege.is_none());
        let outsider = UserId::new(&outsider.expect("the acl family has an off-ACL user").name);
        let (host, mut forged) =
            result.events().find(relayed).map(|(e, ev)| (e.node, ev.clone())).unwrap();
        if let Event::OpAccepted(_, user, ..) = &mut forged {
            *user = outsider;
        }
        result.collab.engine.record(host, || forged);
        let mut found = Vec::new();
        check_acl(&result, &mut found);
        assert!(found.iter().any(|v| v.oracle == "acl"), "breach over the ORB not reported");
    }

    #[test]
    fn an_excused_answer_does_not_cover_a_lost_one() {
        // Request 0 went out while its client was cut off and was
        // answered anyway; request 1, sent outside any window, lost its
        // answer. Counted in bulk the two cancel out; paired one by one,
        // request 1 is lost.
        let paper = [Some(1), Some(2)];
        assert_eq!(lost_answers(&[Some(1), None], &paper, |i| i == 0), [1]);
        // The excused request's own loss is not reported.
        assert!(lost_answers(&[None, Some(2)], &paper, |i| i == 0).is_empty());
        // Nor is a request the paper's stack left unanswered too.
        assert!(lost_answers(&[Some(1), None], &[Some(1), None], |_| false).is_empty());
    }

    #[test]
    fn required_privilege_matches_wire_semantics() {
        use wire::AppOp;
        for op in [
            AppOp::GetStatus,
            AppOp::GetParam("k".into()),
            AppOp::GetSensors,
            AppOp::SetParam("k".into(), wire::Value::Float(0.0)),
            AppOp::Command(wire::AppCommand::Checkpoint),
        ] {
            assert_eq!(required_privilege(&op), op.required_privilege(), "{op:?}");
        }
    }
}
