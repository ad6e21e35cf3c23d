//! The correctness oracles, applied to a completed [`RunResult`].
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
//!   their final full fetch, which must be byte-identical (under the
//!   wire codec) to the host's archive, with dense sequence numbers.
//!   Resumed sessions (churn families) extend this: every replayed
//!   `History` batch must be a byte-identical contiguous slice of the
//!   host archive — only the missed suffix, never a rewrite.
//! * **Reclaim** — every parked session is eventually resumed or
//!   reclaimed, exactly once, and nothing stays parked at the horizon
//!   (the no-leak lease invariant).
//! * **Pacing** — with a resume rate limit of `r`/s, no sliding
//!   one-second window may admit more than `2r` resumes (2x because
//!   the oracle's windows misalign with the server's accounting
//!   windows).
//! * **Goodput** — connected bystanders must keep completing work
//!   after the churn heals: a rejoin burst must not metastably starve
//!   the steady state.
//! * **Recovery** — every returning client must attempt a resume and
//!   end up either resumed or re-logged-in, within an O(backlog/rate)
//!   time budget.
//! * **Snapshot** (snapshotting runs) — the archive takes exactly one
//!   snapshot per configured interval, every snapshot equals the fold
//!   of the records strictly before it (no torn snapshots), and every
//!   snapshot-aware catch-up reply — including those served by a host
//!   recovered from its own archive — is byte-identical to the host's
//!   record: the served snapshot matches the host's snapshot at that
//!   sequence and the tail is a contiguous slice of the archive.
//! * **Discovery** (discovery runs) — replaying every server's recorded
//!   cache transitions, an invalidated entry generation is never served
//!   again without an intervening authoritative re-insert (no op
//!   completes against a server that lost ownership), and no hit lands
//!   past its entry's expiry.
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

use discover_core::CacheEventKind;
use simnet::names;
use wire::{LogRecord, Privilege};

use crate::lin::{self, LinKind, LinOp};
use crate::run::{lock_responses, op_done, LockObsKind, RunResult};
use crate::scenario::{ActionKind, UserSpec};

/// Slack around host-recorded event times (µs), absorbing the gap
/// between a decision and its observable effect.
const SLACK_US: u64 = 200_000;

/// One oracle failure.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which oracle fired (`"linearizability"`, `"acl"`, `"fifo"`,
    /// `"replay"`, `"reclaim"`, `"pacing"`, `"goodput"`, `"recovery"`,
    /// `"snapshot"`, `"discovery"`).
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

/// Extract `key=` from a `key=value` token list.
fn detail_field<'a>(detail: &'a str, key: &str) -> Option<&'a str> {
    detail
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
}

/// Build the lock-automaton history from a run (public so the mutation
/// test can inspect it).
pub fn build_lock_ops(run: &RunResult) -> Vec<LinOp> {
    let app = format!("{}", run.app);
    let mut ops = Vec::new();

    // Host decisions per user, split by class, in host order.
    #[derive(Default)]
    struct HostEvents {
        acquire: Vec<(u64, LinKind)>,
        release: Vec<(u64, LinKind)>,
    }
    let mut host: BTreeMap<String, HostEvents> = BTreeMap::new();
    for e in &run.history {
        if e.subject != app {
            continue;
        }
        let at = e.at.as_micros();
        let entry = || -> (String, u64) { (e.actor.clone(), at) };
        match e.label {
            "lock.granted" => {
                let (u, at) = entry();
                host.entry(u).or_default().acquire.push((at, LinKind::Granted));
            }
            "lock.denied" => {
                let holder =
                    detail_field(&e.detail, "holder").unwrap_or("?").to_string();
                let (u, at) = entry();
                host.entry(u).or_default().acquire.push((at, LinKind::Denied { holder }));
            }
            "lock.released" => {
                let (u, at) = entry();
                host.entry(u).or_default().release.push((at, LinKind::ReleaseOk));
            }
            "lock.release_failed" => {
                let (u, at) = entry();
                host.entry(u)
                    .or_default()
                    .release
                    .push((at, LinKind::ReleaseFail { checked: true }));
            }
            // Host-side lock seizures: the holder loses the lock without
            // asking. Required transitions, not optional ones.
            "lock.evicted" | "lock.force_released" => {
                ops.push(LinOp {
                    user: e.actor.clone(),
                    kind: LinKind::Free,
                    lo_us: at.saturating_sub(SLACK_US),
                    hi_us: at + SLACK_US,
                });
            }
            _ => {}
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

fn required_privilege(op_name: &str) -> Privilege {
    match op_name {
        "setParam" => Privilege::ReadWrite,
        "command" => Privilege::Steer,
        _ => Privilege::ReadOnly,
    }
}

fn check_acl(run: &RunResult, out: &mut Vec<Violation>) {
    let app = format!("{}", run.app);
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
    for e in &run.history {
        if e.label == "acl.revoked" && e.subject == app {
            for u in run.scenario.users.iter() {
                if u.name == e.actor {
                    revoked_at_seq.entry(u.name.as_str()).or_insert(e.seq);
                }
            }
        }
    }
    for e in &run.history {
        if e.label != "op.accepted" || e.subject != app {
            continue;
        }
        let op_name = detail_field(&e.detail, "op").unwrap_or("?");
        match grants.get(e.actor.as_str()) {
            None => out.push(Violation::new(
                "acl",
                format!(
                    "op accepted for user without any grant: seq={} user={} op={op_name}",
                    e.seq, e.actor
                ),
            )),
            Some(p) if !p.allows(required_privilege(op_name)) => out.push(Violation::new(
                "acl",
                format!(
                    "op accepted beyond grant: seq={} user={} grant={p:?} op={op_name}",
                    e.seq, e.actor
                ),
            )),
            Some(_) => {}
        }
        if let Some(&rev_seq) = revoked_at_seq.get(e.actor.as_str()) {
            if e.seq > rev_seq {
                out.push(Violation::new(
                    "acl",
                    format!(
                        "op accepted after revocation: seq={} user={} op={op_name} \
                         (revoked at seq={rev_seq})",
                        e.seq, e.actor
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
    let mut buffered: BTreeMap<(String, String), Vec<u64>> = BTreeMap::new();
    let mut flushed: BTreeMap<(String, String), Vec<u64>> = BTreeMap::new();
    let mut shed: Vec<u64> = Vec::new();
    let mut expired: Vec<u64> = Vec::new();
    for e in &run.history {
        let (Some(req), Some(class)) =
            (detail_field(&e.detail, "req"), detail_field(&e.detail, "class"))
        else {
            continue;
        };
        let Ok(req) = req.parse::<u64>() else { continue };
        let key = (e.subject.clone(), class.to_string());
        match e.label {
            "daemon.buffered" => buffered.entry(key).or_default().push(req),
            "daemon.flushed" => flushed.entry(key).or_default().push(req),
            "daemon.shed" => shed.push(req),
            "daemon.expired" => expired.push(req),
            _ => {}
        }
    }
    for (key, flush) in &flushed {
        let buf = buffered.get(key).map(Vec::as_slice).unwrap_or(&[]);
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
                        "app {} class {} flushed req {req} out of buffered order \
                         (buffered: {buf:?}, flushed: {flush:?})",
                        key.0, key.1
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
            out.push(Violation::new(
                "fifo",
                format!("req {req} both dispatched and dropped"),
            ));
        }
    }
}

fn check_replay(run: &RunResult, out: &mut Vec<Violation>) {
    check_latecomer_replay(run, out);
    check_resume_replay(run, out);
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
    if catchup.len() > fin.len() || catchup[..] != fin[..catchup.len()] {
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
    // last sequence the latecomer saw. (A slice, passed as `&&[_]`,
    // encodes to the same bytes as a `Vec` of it.)
    let cut = match fin.last() {
        Some(last) => archive.partition_point(|r| r.seq <= last.seq),
        None => {
            out.push(Violation::new(
                "replay",
                "final replay is empty while the host archive is not",
            ));
            return;
        }
    };
    if wire::codec::encode(fin) != wire::codec::encode(&archive[..cut]) {
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
    for w in fin.windows(2) {
        if w[1].seq <= w[0].seq {
            out.push(Violation::new(
                "replay",
                format!("non-monotone archive sequence: {} then {}", w[0].seq, w[1].seq),
            ));
            break;
        }
    }
}

/// A resumed session's replayed history batches must each be a
/// byte-identical contiguous slice of the host archive: resume replays
/// exactly the missed suffix, it never invents, reorders, or rewrites
/// records.
fn check_resume_replay(run: &RunResult, out: &mut Vec<Violation>) {
    if run.scenario.churn.is_none() {
        return;
    }
    let archive = run.host_archive();
    for (i, u) in run.scenario.users.iter().enumerate() {
        let portal = run.portal(i);
        if portal.resumed_at.is_empty() {
            continue;
        }
        for (_, f, _) in portal.histories(run.app) {
            let Some(first) = f.first() else { continue };
            let last = f.last().expect("non-empty");
            let start = archive.partition_point(|r| r.seq < first.seq);
            let end = start + f.len();
            let matches = end <= archive.len()
                && wire::codec::encode(f) == wire::codec::encode(&archive[start..end]);
            if !matches {
                out.push(Violation::new(
                    "replay",
                    format!(
                        "resume replay for {} (seq {}..={}, len {}) is not a \
                         byte-identical contiguous slice of the host archive (len {})",
                        u.name,
                        first.seq,
                        last.seq,
                        f.len(),
                        archive.len()
                    ),
                ));
                break;
            }
        }
    }
}

/// The churn-family oracles: lease no-leak, resume pacing, bystander
/// goodput, and bounded recovery. All are no-ops for non-churn runs.
fn check_churn(run: &RunResult, out: &mut Vec<Violation>) {
    let Some(churn) = &run.scenario.churn else { return };

    // Reclaim: park/resume/reclaim events must balance, and nothing may
    // still be parked when the run ends. A leak here is exactly the
    // `Mutation::NoReclaim` bug.
    let mut parked = 0u64;
    let mut reclaimed = 0u64;
    let mut resumed_at: Vec<u64> = Vec::new();
    for e in &run.history {
        match e.label {
            "session.parked" => parked += 1,
            "session.resumed" => resumed_at.push(e.at.as_micros()),
            "session.reclaimed" => reclaimed += 1,
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
    if let Some(rate) = churn.resume_rate {
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

    // Goodput: users who never disconnected must still complete work
    // after the last heal — the rejoin storm must not starve them.
    let disconnected: BTreeSet<usize> = churn.disconnects.iter().map(|d| d.user).collect();
    let max_heal_us = churn.disconnects.iter().filter_map(|d| d.until_ms).max().map(|ms| ms * 1000);
    if let Some(heal) = max_heal_us {
        for (ui, u) in run.scenario.users.iter().enumerate() {
            if disconnected.contains(&ui) {
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

    // Recovery: each returning client must attempt a resume and land
    // somewhere (resumed, or re-logged-in after its lease was
    // reclaimed), and a successful resume must complete within an
    // O(backlog/rate) budget of the heal.
    let returning: Vec<_> = churn.disconnects.iter().filter(|d| d.until_ms.is_some()).collect();
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
            let budget_ms = match churn.resume_rate {
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

/// The snapshotting-archive oracle: cadence, torn-snapshot folds, and
/// byte-identical catch-up service (live and recovered hosts alike).
/// A no-op unless the scenario configures periodic snapshots.
fn check_snapshot(run: &RunResult, out: &mut Vec<Violation>) {
    let Some(every) = run.scenario.snapshot_every else { return };

    // Cadence: one snapshot per `every` appended records. The seeded
    // skip fault breaks exactly this equality.
    let archive = run.host_archive();
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
    // records strictly before S — never a half-applied boundary. (The
    // check families keep compaction off, so the host's archive is the
    // full dense log.)
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
    // crash or from the recovered host — must be byte-identical to the
    // host's own record of the same range.
    for (ui, u) in run.scenario.users.iter().enumerate() {
        let portal = run.portal(ui);
        for (i, (at, snap, tail, next_seq)) in portal.catch_ups(run.app).enumerate() {
            let at_us = at.as_micros();
            if let Some(s) = snap {
                match snapshots.iter().find(|h| h.seq == s.seq) {
                    Some(h) if wire::codec::encode(&h.state) == wire::codec::encode(&s.state) => {}
                    Some(_) => out.push(Violation::new(
                        "snapshot",
                        format!(
                            "catch-up {i} for {} at {at_us}µs: served snapshot at seq {} \
                             differs from the host's snapshot at that seq",
                            u.name, s.seq
                        ),
                    )),
                    None => out.push(Violation::new(
                        "snapshot",
                        format!(
                            "catch-up {i} for {} at {at_us}µs: served snapshot at seq {} \
                             is not among the host's snapshots",
                            u.name, s.seq
                        ),
                    )),
                }
                // With compaction off the tail is dense: it must start
                // exactly at the snapshot boundary (no gap a viewer
                // would silently skip).
                if let Some(first) = tail.first() {
                    if first.seq != s.seq {
                        out.push(Violation::new(
                            "snapshot",
                            format!(
                                "catch-up {i} for {} at {at_us}µs: tail starts at seq {} \
                                 instead of the snapshot boundary {}",
                                u.name, first.seq, s.seq
                            ),
                        ));
                    }
                }
            }
            if let Some(first) = tail.first() {
                let start = archive.partition_point(|r| r.seq < first.seq);
                let end = start + tail.len();
                let matches = end <= archive.len()
                    && wire::codec::encode(tail) == wire::codec::encode(&archive[start..end]);
                if !matches {
                    out.push(Violation::new(
                        "snapshot",
                        format!(
                            "catch-up {i} for {} at {at_us}µs (seq {}.., len {}) is not a \
                             byte-identical contiguous slice of the host archive (len {})",
                            u.name,
                            first.seq,
                            tail.len(),
                            archive.len()
                        ),
                    ));
                }
            }
            if let Some(last) = tail.last() {
                if next_seq != last.seq + 1 {
                    out.push(Violation::new(
                        "snapshot",
                        format!(
                            "catch-up {i} for {} at {at_us}µs: next_seq {next_seq} does not \
                             follow the last served record (seq {})",
                            u.name, last.seq
                        ),
                    ));
                }
            }
        }
        // Every scripted catch-up must have produced a reply: losing
        // the post-restart fetch would hide a recovery that never came
        // back up.
        let scripted = u.actions.iter().filter(|a| a.kind == ActionKind::CatchUp).count();
        let replies = portal.catch_ups(run.app).count();
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
    if run.scenario.recover_from_archive
        && run.scenario.faults.crashes.iter().any(|c| c.server == 0)
        && !run.history.iter().any(|e| e.label == "server.recovered")
    {
        out.push(Violation::new(
            "snapshot",
            "host crashed with recover_from_archive set but never rebuilt from its archive",
        ));
    }
}

/// The directory-consistency oracle (discovery family): replays every
/// server's recorded cache transitions per (server, key).
///
/// * **Never re-served**: a `Hit`/`NegativeHit` whose generation equals
///   a preceding `Invalidate`'s generation — with no intervening
///   `Insert` (which would bump the generation) — means an op was
///   dispatched against a server the directory already said lost
///   ownership of the key. This is exactly what the seeded
///   `Mutation::StaleCache` bug produces.
/// * **No hit past expiry**: a served entry must still be within its
///   recorded TTL at service time (expiry is exclusive).
/// * **Generation discipline**: inserts stamp strictly increasing
///   generations, one step at a time — the replay above is meaningless
///   if the log itself is corrupt.
///
/// A no-op unless the scenario runs the cached discovery plane.
fn check_discovery(run: &RunResult, out: &mut Vec<Violation>) {
    if run.scenario.discovery.is_none() {
        return;
    }
    // Per (server, key): last inserted generation, and the generation a
    // pending (un-reinserted) invalidation poisoned.
    #[derive(Default)]
    struct KeyState {
        last_insert_gen: u64,
        poisoned_gen: Option<u64>,
    }
    let mut state: BTreeMap<(usize, &str), KeyState> = BTreeMap::new();
    for (srv, e) in run.cache_events() {
        let ks = state.entry((srv, e.key.as_str())).or_default();
        match e.kind {
            CacheEventKind::Insert | CacheEventKind::InsertNegative => {
                if e.generation != ks.last_insert_gen + 1 {
                    out.push(Violation::new(
                        "discovery",
                        format!(
                            "s{srv} {}: insert at {}µs stamped generation {} after {}",
                            e.key,
                            e.at.as_micros(),
                            e.generation,
                            ks.last_insert_gen
                        ),
                    ));
                }
                ks.last_insert_gen = e.generation;
                // A fresh authoritative answer supersedes the poison.
                ks.poisoned_gen = None;
            }
            CacheEventKind::Hit | CacheEventKind::NegativeHit => {
                if ks.poisoned_gen == Some(e.generation) {
                    out.push(Violation::new(
                        "discovery",
                        format!(
                            "s{srv} {}: generation {} re-served at {}µs after its \
                             invalidation (op dispatched against a server that lost \
                             ownership)",
                            e.key,
                            e.generation,
                            e.at.as_micros()
                        ),
                    ));
                }
                if e.at >= e.expires {
                    out.push(Violation::new(
                        "discovery",
                        format!(
                            "s{srv} {}: hit at {}µs past the entry's expiry {}µs",
                            e.key,
                            e.at.as_micros(),
                            e.expires.as_micros()
                        ),
                    ));
                }
            }
            CacheEventKind::Invalidate => ks.poisoned_gen = Some(e.generation),
            CacheEventKind::Miss | CacheEventKind::Expired => {}
        }
    }
}

/// Run every oracle over `run`; empty = the run is clean.
pub fn check_run(run: &RunResult) -> Vec<Violation> {
    let mut out = Vec::new();
    check_lin(run, &mut out);
    check_acl(run, &mut out);
    check_fifo(run, &mut out);
    check_replay(run, &mut out);
    check_churn(run, &mut out);
    check_snapshot(run, &mut out);
    check_discovery(run, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detail_field_parses_key_value_tokens() {
        assert_eq!(detail_field("origin=local holder=alice", "holder"), Some("alice"));
        assert_eq!(detail_field("origin=relay via=2", "via"), Some("2"));
        assert_eq!(detail_field("req=17 class=View", "req"), Some("17"));
        assert_eq!(detail_field("req=17 class=View", "class"), Some("View"));
        assert_eq!(detail_field("origin=local", "holder"), None);
    }

    #[test]
    fn the_acl_oracle_sees_operations_relayed_over_the_orb() {
        use crate::run::run;
        use crate::scenario::{Family, Scenario};
        // Half the `acl` family's users sit on a non-host server; the
        // host records their admitted operations like local ones.
        let relayed = |e: &simnet::HistoryEvent| {
            e.label == "op.accepted" && detail_field(&e.detail, "origin") == Some("relay")
        };
        let mut result = (0..32)
            .map(|seed| Scenario::generate(Family::Acl, seed))
            .filter(|scenario| scenario.n_servers == 2)
            .map(|scenario| run(&scenario))
            .find(|result| result.history.iter().any(|e| relayed(e)))
            .expect("an acl run on two servers relays an admitted operation");
        let mut clean = Vec::new();
        check_acl(&result, &mut clean);
        assert!(clean.is_empty(), "clean run flagged: {clean:?}");
        // Had the host admitted that operation for a user without a
        // grant, the oracle must say so.
        let outsider = result.scenario.users.iter().find(|u| u.privilege.is_none());
        let outsider = outsider.expect("the acl family has an off-ACL user").name.clone();
        let event = result.history.iter_mut().find(|e| relayed(e)).expect("found above");
        std::rc::Rc::make_mut(event).actor = outsider;
        let mut found = Vec::new();
        check_acl(&result, &mut found);
        assert!(found.iter().any(|v| v.oracle == "acl"), "breach over the ORB not reported");
    }

    #[test]
    fn required_privilege_matches_wire_semantics() {
        use wire::AppOp;
        for (name, op) in [
            ("getStatus", AppOp::GetStatus),
            ("getSensors", AppOp::GetSensors),
            ("setParam", AppOp::SetParam("k".into(), wire::Value::Float(0.0))),
            ("command", AppOp::Command(wire::AppCommand::Checkpoint)),
        ] {
            assert_eq!(required_privilege(name), op.required_privilege());
        }
    }
}
