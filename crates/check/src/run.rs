//! Scenario driver: executes a [`Scenario`] on the real DISCOVER stack
//! and collects everything the oracles need.
//!
//! The driver builds a server mesh with [`CollaboratoryBuilder`], hosts
//! the scenario's main application at server 0, anchors every user with
//! a ReadOnly grant on a per-server anchor application (so first-level
//! login succeeds everywhere), attaches one scripted [`Portal`] per
//! user, applies the fault schedule as a [`FaultPlan`], injects admin
//! revocations between run steps, and finally harvests:
//!
//! * the engine's semantic history (lock/ACL/daemon decision points),
//! * each portal's lock responses, completions and denials,
//! * the host's application archive and the latecomer's fetches.
//!
//! Everything is folded into [`RunResult::run_log`], a deterministic
//! text rendering: two runs of the same scenario produce byte-identical
//! logs, which is both the reproducibility guarantee and the cheapest
//! possible regression check.

use std::rc::Rc;
use std::sync::Arc;

use appsim::{synthetic_app, DriverConfig};
use discover_bench::fixtures::poll_period;
use discover_client::{OpMix, Portal, PortalConfig, Workload};
use discover_core::{
    CacheEvent, CollaboratoryBuilder, DiscoverNode, DiscoveryCacheConfig, ServerHandle,
};
use simnet::{names, FaultPlan, FlightConfig, HistoryEvent, LinkSpec, SimDuration, SimTime};
use wire::{
    AppCommand, AppId, AppOp, ArchiveSnapshot, ClientMessage, ClientRequest, ErrorCode, LogRecord,
    Privilege, ResponseBody, UserId, Value,
};

use crate::scenario::{ActionKind, Family, Scenario};

/// One lock-protocol response observed at a portal.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LockObs {
    /// Arrival time at the portal, µs.
    pub at_us: u64,
    /// What arrived.
    pub kind: LockObsKind,
}

/// The decisive lock responses a portal can observe.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LockObsKind {
    /// `LockGranted`.
    Granted,
    /// `LockDenied` with the reported holder; `None` is an
    /// infrastructure fast-fail (host unreachable), not a protocol
    /// decision.
    Denied(Option<String>),
    /// `LockReleased`.
    Released,
    /// The `BadRequest("not the lock holder")` release failure.
    ReleaseFailed,
}

impl LockObsKind {
    fn render(&self) -> String {
        match self {
            LockObsKind::Granted => "granted".into(),
            LockObsKind::Denied(Some(h)) => format!("denied(holder={h})"),
            LockObsKind::Denied(None) => "denied(infra)".into(),
            LockObsKind::Released => "released".into(),
            LockObsKind::ReleaseFailed => "release-failed".into(),
        }
    }
}

/// Everything one user's portal observed, plus their script timing.
#[derive(Clone, Debug)]
pub struct UserObservation {
    /// Login name.
    pub name: String,
    /// Home server index.
    pub server: usize,
    /// Grant on the main app.
    pub privilege: Option<Privilege>,
    /// Whether the user talks to the app's host server directly (their
    /// release failures are then host decisions, not relay fast-fails).
    pub local_to_host: bool,
    /// Script times of `RequestLock` invocations, µs, in issue order.
    pub acquire_invocations_us: Vec<u64>,
    /// Script times of `ReleaseLock` invocations, µs, in issue order.
    pub release_invocations_us: Vec<u64>,
    /// Lock responses in arrival order.
    pub lock_responses: Vec<LockObs>,
    /// `OpDone` completions observed for the main app.
    pub op_done: usize,
    /// `AccessDenied` errors observed.
    pub denied: usize,
    /// Tracked workload completions `(completion µs, success)` (churn
    /// families attach closed-loop workloads instead of scripts).
    pub op_completions_us: Vec<(u64, bool)>,
    /// `Resume` requests the portal sent (including paced retries).
    pub resumes_sent: u64,
    /// Successful resumes (`Resumed` replies).
    pub resumes_ok: u64,
    /// Resume attempts that fell back to a full re-login.
    pub resume_fallbacks: u64,
    /// Completion times of successful resumes, µs.
    pub resumed_at_us: Vec<u64>,
    /// Every `History` batch this portal received for the main app, in
    /// order (resume replays land here).
    pub history_fetches: Vec<Vec<LogRecord>>,
    /// Every snapshot-aware `CatchUp` reply for the main app, in order.
    pub catchup_fetches: Vec<CatchUpObservation>,
}

/// One snapshot-aware `CatchUp` reply as a portal saw it: arrival µs,
/// served snapshot (the host's own, shared), tail records, next sequence.
pub type CatchUpObservation = (u64, Option<Arc<ArchiveSnapshot>>, Vec<LogRecord>, u64);

/// The harvest of one scenario execution.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The executed scenario.
    pub scenario: Scenario,
    /// The main application.
    pub app: AppId,
    /// The engine's semantic history, in execution order.
    pub history: Vec<Rc<HistoryEvent>>,
    /// Per-user observations, in scenario user order.
    pub users: Vec<UserObservation>,
    /// The host's full application archive at the end of the run.
    pub host_archive: Vec<LogRecord>,
    /// The host's archive snapshots for the main app, in seq order.
    pub host_snapshots: Vec<Arc<ArchiveSnapshot>>,
    /// The host's archive next-sequence for the main app at run end.
    pub host_next_seq: u64,
    /// Every `History` response the latecomer received, in order
    /// (replay family: first = catch-up snapshot, last = full replay).
    pub latecomer_fetches: Vec<Vec<LogRecord>>,
    /// Sessions still parked across all servers when the run ended (a
    /// correct lease plane drains this to zero once TTLs pass).
    pub parked_at_end: usize,
    /// Recorded discovery-cache transitions, `(server index, event)` in
    /// per-server log order (discovery scenarios only). The directory-
    /// consistency oracle replays these: an invalidated generation must
    /// never be re-served, and no hit may land past its entry's expiry.
    pub cache_events: Vec<(usize, CacheEvent)>,
    /// Flight-recorder harvest: every triggered anomaly dump followed by
    /// each server's final ring (the last events it recorded). Attached
    /// to repro artifacts so a failing scenario ships with the context
    /// that led up to the anomaly. Deterministic text, like the run log.
    pub flight: String,
    /// Deterministic text rendering of the whole run (byte-identical
    /// across same-seed executions).
    pub run_log: String,
}

fn action_request(app: AppId, user_index: usize, n: u64, kind: ActionKind) -> ClientRequest {
    match kind {
        ActionKind::Acquire => ClientRequest::RequestLock { app },
        ActionKind::Release => ClientRequest::ReleaseLock { app },
        ActionKind::GetStatus => ClientRequest::Op { app, op: AppOp::GetStatus },
        ActionKind::GetSensors => ClientRequest::Op { app, op: AppOp::GetSensors },
        ActionKind::SetParam => ClientRequest::Op {
            app,
            op: AppOp::SetParam(
                "knob0".into(),
                Value::Float(user_index as f64 + n as f64 * 0.125),
            ),
        },
        // Checkpoint: Steer-privileged and lock-gated like any command,
        // but does not stall the kernel the way Pause would.
        ActionKind::Command => {
            ClientRequest::Op { app, op: AppOp::Command(AppCommand::Checkpoint) }
        }
        // From sequence 0: the server picks the nearest snapshot + tail.
        ActionKind::CatchUp => ClientRequest::CatchUp { app, since: 0 },
    }
}

/// Execute `scenario` and collect the oracle inputs.
pub fn run(scenario: &Scenario) -> RunResult {
    let s = scenario;
    let mut b = CollaboratoryBuilder::new(s.seed);
    b.history(true);
    // Discovery scenarios run the sharded + cached plane: the directory
    // is split across a consistent-hash ring, and every server's
    // substrate caches route resolutions with the oracle's event
    // recorder on.
    if let Some(d) = &s.discovery {
        if d.dir_shards > 1 {
            b.directory_shards(d.dir_shards);
        }
        b.substrate_config.discovery_cache = Some(DiscoveryCacheConfig {
            ttl: SimDuration::from_millis(d.cache_ttl_ms),
            negative_ttl: SimDuration::from_millis(d.negative_ttl_ms),
            record: true,
        });
    }
    // The flight recorder observes the same decision points as the
    // history log and appends to side buffers only, so arming it keeps
    // run logs byte-identical while giving every repro the recent-past
    // context of each server (breaker trips, shed bursts, expiry spikes).
    b.flight_recorder(FlightConfig::default());
    let lease = SimDuration::from_millis(s.lock_lease_ms);
    let mutation = s.mutation;
    let coalesce_fifo = s.coalesce_fifo;
    let churn = s.churn.clone();
    let snapshot_every = s.snapshot_every;
    let recover_from_archive = s.recover_from_archive;
    b.tweak_servers(move |cfg| {
        cfg.lock_lease = Some(lease);
        // Archival plane (recovery family): periodic snapshots and
        // restart rebuilds from the archive. Compaction stays off — the
        // oracles compare against the full dense log.
        cfg.snapshot_every = snapshot_every;
        cfg.recover_from_archive = recover_from_archive;
        // Hot-path delivery: churn scenarios flip FIFO coalescing at
        // random; every oracle (notably resume-replay byte-identity)
        // must hold in both positions because only superseded view-class
        // updates may ever be merged.
        cfg.coalesce_fifo = coalesce_fifo;
        match &churn {
            // Churn families run the full lease plane: silence parks the
            // session, the park TTL reclaims it, resumes may be paced.
            Some(c) => {
                cfg.session_idle_timeout =
                    Some(SimDuration::from_millis(c.idle_timeout_ms));
                cfg.session_park_ttl = Some(SimDuration::from_millis(c.park_ttl_ms));
                cfg.resume_rate_limit = c.resume_rate;
            }
            // Idle reaping off: a quiet scripted session must never be
            // torn down under the oracles' feet. (The lease sweep still
            // runs.)
            None => cfg.session_idle_timeout = None,
        }
        cfg.mutation = mutation;
    });
    let servers: Vec<ServerHandle> =
        (0..s.n_servers).map(|i| b.server(&format!("s{i}"))).collect();
    // Link pairs in index order (not mesh_servers, whose map iteration
    // order is not deterministic) so the wiring is a pure function of
    // the scenario.
    for i in 0..servers.len() {
        for j in i + 1..servers.len() {
            b.link_servers(servers[i], servers[j], LinkSpec::wan());
        }
    }

    // The main application, hosted at server 0.
    let mut acl: Vec<(UserId, Privilege)> = s
        .users
        .iter()
        .filter_map(|u| u.privilege.map(|p| (UserId::new(&u.name), p)))
        .collect();
    if let Some(l) = &s.latecomer {
        acl.push((UserId::new(&l.user), Privilege::ReadOnly));
    }
    let mut main_cfg = DriverConfig::default();
    main_cfg.name = "main".into();
    main_cfg.acl = acl;
    main_cfg.iters_per_batch = 2;
    main_cfg.batch_time = SimDuration::from_millis(200);
    main_cfg.batches_per_phase = 2;
    main_cfg.interaction_window = SimDuration::from_millis(300);
    let (_, app) =
        b.application(servers[0], synthetic_app(2, s.app_iterations.unwrap_or(u64::MAX)), main_cfg);

    // A quiet anchor application per server: first-level login requires
    // the user on the ACL of at least one app at THEIR server.
    let everyone: Vec<(UserId, Privilege)> = s
        .users
        .iter()
        .map(|u| (UserId::new(&u.name), Privilege::ReadOnly))
        .chain(s.latecomer.iter().map(|l| (UserId::new(&l.user), Privilege::ReadOnly)))
        .collect();
    for (i, &srv) in servers.iter().enumerate() {
        let mut cfg = DriverConfig::default();
        cfg.name = format!("anchor{i}");
        cfg.acl = everyone.clone();
        b.application(srv, synthetic_app(1, u64::MAX), cfg);
    }

    // Portals: scripted for the classic families; churn families use
    // closed-loop sensor-read workloads with reconnect-with-resume on,
    // so completion timestamps feed the goodput/recovery oracles.
    let mut portal_nodes = Vec::new();
    for (ui, u) in s.users.iter().enumerate() {
        let mut cfg = PortalConfig::new(&u.name).poll_every(poll_period());
        if s.churn.is_some() {
            cfg = cfg.select_app(app).resume().workload(Workload::new(
                app,
                OpMix::sensors_only(),
                SimDuration::from_millis(600),
            ));
        }
        if s.family == Family::Recovery {
            // The recovered host's session plane is wiped, so every
            // cookie stops validating after the restart; the resume
            // machinery falls back to a fresh login and the scripted
            // post-restart catch-ups land on the new session.
            cfg = cfg.resume();
        }
        let mut writes = 0u64;
        for a in &u.actions {
            if a.kind == ActionKind::SetParam {
                writes += 1;
            }
            cfg = cfg.at(
                SimDuration::from_millis(a.at_ms),
                action_request(app, ui, writes, a.kind),
            );
        }
        portal_nodes.push(b.attach(servers[u.server], &u.name, Portal::new(cfg)));
    }
    let late_node = s.latecomer.as_ref().map(|l| {
        let mut cfg = PortalConfig::new(&l.user).poll_every(poll_period());
        cfg.login_delay = SimDuration::from_millis(l.join_ms);
        let cfg = cfg
            // Catch-up snapshot shortly after joining…
            .at(
                SimDuration::from_millis(l.join_ms + 1000),
                ClientRequest::GetHistory { app, since: 0 },
            )
            // …and the full replay once the session has quiesced.
            .at(
                SimDuration::from_millis(s.horizon_ms.saturating_sub(1500)),
                ClientRequest::GetHistory { app, since: 0 },
            );
        b.attach(servers[0], &l.user, Portal::new(cfg))
    });

    let dir_crash = s.discovery.as_ref().and_then(|d| {
        d.directory_crash.map(|(at, restart)| {
            (b.directory_ring().node_for(&app.naming_path()), at, restart)
        })
    });

    let mut c = b.build();
    for (ui, u) in s.users.iter().enumerate() {
        c.engine.actor_mut::<Portal>(portal_nodes[ui]).unwrap().server =
            Some(servers[u.server].node);
    }
    if let Some(node) = late_node {
        c.engine.actor_mut::<Portal>(node).unwrap().server = Some(servers[0].node);
    }

    // Fault schedule. A discovery directory crash targets the shard
    // owning the main app's naming key, so failover resolves in the
    // window go unanswered mid-query.
    let mut plan = FaultPlan::new(s.seed);
    if let Some((node, at_ms, restart_ms)) = dir_crash {
        plan.crash(node, SimTime::from_millis(at_ms), SimTime::from_millis(restart_ms));
    }
    for cr in &s.faults.crashes {
        plan.crash(
            servers[cr.server].node,
            SimTime::from_millis(cr.at_ms),
            SimTime::from_millis(cr.restart_ms),
        );
    }
    for p in &s.faults.partitions {
        plan.partition(
            servers[p.a].node,
            servers[p.b].node,
            SimTime::from_millis(p.from_ms),
            SimTime::from_millis(p.until_ms),
        );
    }
    // Client churn: a disconnect is a portal<->server partition; a user
    // who never returns stays partitioned past the horizon.
    if let Some(churn) = &s.churn {
        for d in &churn.disconnects {
            let user = &s.users[d.user];
            plan.partition(
                portal_nodes[d.user],
                servers[user.server].node,
                SimTime::from_millis(d.from_ms),
                SimTime::from_millis(d.until_ms.unwrap_or(s.horizon_ms + 10_000)),
            );
        }
    }
    c.engine.apply_faults(&plan);

    // Run, pausing at each out-of-band harness action: admin
    // revocations applied at the host (with their history events
    // injected), and the discovery plant (a poisoned route entry primed
    // into the gateway's cache).
    enum Pause {
        Revoke(String),
        Plant { gateway: usize, wrong: usize },
    }
    let mut pauses: Vec<(u64, u8, String, Pause)> = s
        .admin
        .iter()
        .map(|a| (a.at_ms, 1u8, a.revoke.clone(), Pause::Revoke(a.revoke.clone())))
        .collect();
    if let Some(p) = s.discovery.as_ref().and_then(|d| d.plant_stale_route) {
        pauses.push((
            p.at_ms,
            0,
            String::new(),
            Pause::Plant { gateway: p.gateway, wrong: p.wrong },
        ));
    }
    pauses.sort_by(|a, b| (a.0, a.1, &a.2).cmp(&(b.0, b.1, &b.2)));
    for (at_ms, _, _, pause) in &pauses {
        c.engine.run_until(SimTime::from_millis(*at_ms));
        match pause {
            Pause::Revoke(revoke) => {
                let host = servers[0];
                let user = UserId::new(revoke);
                let node = c.engine.actor_mut::<DiscoverNode>(host.node).unwrap();
                let (was_on_acl, lock_freed) = node.core.revoke_user(app, &user);
                c.engine.record_history(
                    host.node,
                    "acl.revoked",
                    format!("{app}"),
                    revoke.clone(),
                    format!("applied={was_on_acl}"),
                );
                if lock_freed {
                    c.engine.record_history(
                        host.node,
                        "lock.force_released",
                        format!("{app}"),
                        revoke.clone(),
                        "origin=revoke",
                    );
                }
            }
            Pause::Plant { gateway, wrong } => {
                let gw = servers[*gateway];
                let wrong_addr = servers[*wrong].addr;
                let node = c.engine.actor_mut::<DiscoverNode>(gw.node).unwrap();
                node.substrate.prime_cache(SimTime::from_millis(*at_ms), app, wrong_addr);
                c.engine.record_history(
                    gw.node,
                    "cache.planted",
                    format!("{app}"),
                    "harness",
                    format!("wrong={wrong_addr}"),
                );
            }
        }
    }
    c.engine.run_until(SimTime::from_millis(s.horizon_ms));

    // Harvest.
    let history = c.engine.history().to_vec();
    let mut users = Vec::new();
    for (ui, u) in s.users.iter().enumerate() {
        let p = c.engine.actor_ref::<Portal>(portal_nodes[ui]).unwrap();
        let mut lock_responses = Vec::new();
        let mut op_done = 0usize;
        let mut denied = 0usize;
        for (at, m) in &p.received {
            match m {
                ClientMessage::Response(ResponseBody::LockGranted { app: a }) if *a == app => {
                    lock_responses
                        .push(LockObs { at_us: at.as_micros(), kind: LockObsKind::Granted });
                }
                ClientMessage::Response(ResponseBody::LockDenied { app: a, holder })
                    if *a == app =>
                {
                    lock_responses.push(LockObs {
                        at_us: at.as_micros(),
                        kind: LockObsKind::Denied(
                            holder.as_ref().map(|h| h.as_str().to_string()),
                        ),
                    });
                }
                ClientMessage::Response(ResponseBody::LockReleased { app: a }) if *a == app => {
                    lock_responses
                        .push(LockObs { at_us: at.as_micros(), kind: LockObsKind::Released });
                }
                ClientMessage::Response(ResponseBody::OpDone { app: a, .. }) if *a == app => {
                    op_done += 1;
                }
                ClientMessage::Error(e) => match e.code {
                    ErrorCode::AccessDenied => denied += 1,
                    ErrorCode::BadRequest if e.detail == "not the lock holder" => {
                        lock_responses.push(LockObs {
                            at_us: at.as_micros(),
                            kind: LockObsKind::ReleaseFailed,
                        });
                    }
                    _ => {}
                },
                _ => {}
            }
        }
        let history_fetches: Vec<Vec<LogRecord>> = p
            .received
            .iter()
            .filter_map(|(_, m)| match m {
                ClientMessage::Response(ResponseBody::History { app: a, records, .. })
                    if *a == app =>
                {
                    Some(records.clone())
                }
                _ => None,
            })
            .collect();
        let catchup_fetches: Vec<CatchUpObservation> = p
            .catch_ups(app)
            .map(|(at, snap, recs, next)| (at.as_micros(), snap.clone(), recs.clone(), next))
            .collect();
        let metrics = c.engine.node_metrics(portal_nodes[ui]);
        users.push(UserObservation {
            name: u.name.clone(),
            server: u.server,
            privilege: u.privilege,
            local_to_host: u.server == 0,
            acquire_invocations_us: u
                .actions
                .iter()
                .filter(|a| a.kind == ActionKind::Acquire)
                .map(|a| a.at_ms * 1000)
                .collect(),
            release_invocations_us: u
                .actions
                .iter()
                .filter(|a| a.kind == ActionKind::Release)
                .map(|a| a.at_ms * 1000)
                .collect(),
            lock_responses,
            op_done,
            denied,
            op_completions_us: p
                .op_completions
                .iter()
                .map(|(at, _, ok)| (at.as_micros(), *ok))
                .collect(),
            resumes_sent: metrics.counter(names::CLIENT_RESUMES),
            resumes_ok: p.resumed_at.len() as u64,
            resume_fallbacks: metrics.counter(names::CLIENT_RESUME_FALLBACKS),
            resumed_at_us: p.resumed_at.iter().map(|t| t.as_micros()).collect(),
            history_fetches,
            catchup_fetches,
        });
    }
    let host_archive = c
        .server_core(servers[0])
        .expect("host server exists")
        .archive()
        .fetch_app(app, 0)
        .0;
    let (host_snapshots, host_next_seq) = c
        .server_core(servers[0])
        .expect("host server exists")
        .archive()
        .app_log(app)
        .map(|log| (log.snapshots().to_vec(), log.next_seq()))
        .unwrap_or_default();
    let parked_at_end: usize =
        servers.iter().map(|&srv| c.server_core(srv).map_or(0, |s| s.parked_count())).sum();
    let latecomer_fetches: Vec<Vec<LogRecord>> = late_node
        .and_then(|node| c.engine.actor_ref::<Portal>(node))
        .map(|p| {
            p.received
                .iter()
                .filter_map(|(_, m)| match m {
                    ClientMessage::Response(ResponseBody::History { app: a, records, .. })
                        if *a == app =>
                    {
                        Some(records.clone())
                    }
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default();

    // Discovery harvest: every server's recorded cache transitions, in
    // server order (the oracle replays them per (server, key)).
    let mut cache_events: Vec<(usize, CacheEvent)> = Vec::new();
    if s.discovery.is_some() {
        for (i, &srv) in servers.iter().enumerate() {
            if let Some(n) = c.node(srv) {
                for e in &n.substrate.discovery_cache().events {
                    cache_events.push((i, e.clone()));
                }
            }
        }
    }

    // Flight harvest: triggered dumps first, then each server's final
    // ring so a repro shows what every node was doing at the end even
    // when no trigger fired.
    let mut flight = c.engine.flight_dumps_rendered();
    for (i, &srv) in servers.iter().enumerate() {
        flight.push_str(&format!("--- ring s{i} (n{}) ---\n", srv.node.0));
        flight.push_str(&c.engine.flight_ring_rendered(srv.node));
    }

    let mut run_log = String::new();
    run_log.push_str(&s.describe());
    run_log.push_str("--- history ---\n");
    for e in &history {
        run_log.push_str(&e.render());
        run_log.push('\n');
    }
    run_log.push_str("--- observations ---\n");
    for u in &users {
        let locks: Vec<String> =
            u.lock_responses.iter().map(|o| format!("{}@{}", o.kind.render(), o.at_us)).collect();
        run_log.push_str(&format!(
            "user {} s{} opdone={} denied={} locks=[{}]\n",
            u.name,
            u.server,
            u.op_done,
            u.denied,
            locks.join(", ")
        ));
        if s.churn.is_some() {
            let completions_ok = u.op_completions_us.iter().filter(|(_, ok)| *ok).count();
            run_log.push_str(&format!(
                "  churn {}: resumes={} ok={} fallbacks={} completions_ok={} resumed_at={:?}\n",
                u.name,
                u.resumes_sent,
                u.resumes_ok,
                u.resume_fallbacks,
                completions_ok,
                u.resumed_at_us,
            ));
        }
    }
    if s.churn.is_some() {
        run_log.push_str(&format!("parked at end={parked_at_end}\n"));
    }
    if s.discovery.is_some() {
        run_log.push_str("--- discovery ---\n");
        for (i, &srv) in servers.iter().enumerate() {
            if let Some(n) = c.node(srv) {
                let count = |def| c.engine.node_metrics(srv.node).counter(def);
                run_log.push_str(&format!(
                    "s{i} cache: hits={} neg={} misses={} expired={} inval={} events={}\n",
                    count(names::SUBSTRATE_CACHE_HITS),
                    count(names::SUBSTRATE_CACHE_NEG_HITS),
                    count(names::SUBSTRATE_CACHE_MISSES),
                    count(names::SUBSTRATE_CACHE_EXPIRED),
                    count(names::SUBSTRATE_CACHE_INVALIDATIONS),
                    n.substrate.discovery_cache().events.len(),
                ));
            }
        }
    }
    run_log.push_str(&format!("archive len={}\n", host_archive.len()));
    if s.snapshot_every.is_some() {
        let seqs: Vec<String> = host_snapshots.iter().map(|sn| sn.seq.to_string()).collect();
        run_log
            .push_str(&format!("snapshots=[{}] next_seq={host_next_seq}\n", seqs.join(", ")));
        for u in &users {
            for (i, (at_us, snap, recs, next)) in u.catchup_fetches.iter().enumerate() {
                run_log.push_str(&format!(
                    "catchup {} {i}@{at_us}: snap={:?} tail={} next={next}\n",
                    u.name,
                    snap.as_ref().map(|sn| sn.seq),
                    recs.len(),
                ));
            }
        }
    }
    for (i, f) in latecomer_fetches.iter().enumerate() {
        let first = f.first().map(|r| r.seq as i64).unwrap_or(-1);
        let last = f.last().map(|r| r.seq as i64).unwrap_or(-1);
        run_log.push_str(&format!("latecomer fetch {i}: len={} seq={first}..={last}\n", f.len()));
    }

    RunResult {
        scenario: s.clone(),
        app,
        history,
        users,
        host_archive,
        host_snapshots,
        host_next_seq,
        latecomer_fetches,
        parked_at_end,
        cache_events,
        flight,
        run_log,
    }
}
