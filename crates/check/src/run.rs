//! Scenario driver: executes a [`Scenario`] on the real DISCOVER stack
//! and hands the finished run to the oracles.
//!
//! The driver builds a server mesh with [`CollaboratoryBuilder`] under
//! the scenario's features, hosts its main application at server 0,
//! anchors every user with a ReadOnly grant on a per-server anchor app
//! (so first-level login succeeds everywhere), places one [`Portal`] per
//! user, applies the fault schedule as a [`FaultPlan`], and applies
//! harness actions between run steps. The [`RunResult`] keeps the network as
//! the run left it — portals, host archive, discovery caches — plus the
//! engine's semantic history (lock/ACL/daemon decision points).
//!
//! Everything is rendered into [`RunResult::run_log`], a deterministic
//! text rendering: two runs of the same scenario produce byte-identical
//! logs, which is both the reproducibility guarantee and the cheapest
//! possible regression check.

use appsim::{synthetic_app, DriverConfig};
use discover_bench::fixtures::poll_period;
use discover_client::{OpMix, Portal, PortalConfig, Workload};
use discover_core::{Collaboratory, CollaboratoryBuilder, DiscoverNode, ServerHandle};
use discover_server::Log;
use simnet::{names, CounterDef, FaultPlan, HistoryEvent, LinkSpec, NodeId, SimDuration, SimTime};
use wire::{
    AppCommand, AppId, AppOp, ClientMessage, ClientRequest, ErrorCode, Event, LockStep, LogRecord,
    Origin, Privilege, ResponseBody, UserId, Value,
};

use crate::scenario::{ActionKind, AdminKind, Scenario};

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

/// Every decisive lock response `portal` received for `app`, in arrival
/// order.
pub fn lock_responses(portal: &Portal, app: AppId) -> Vec<LockObs> {
    portal
        .received
        .iter()
        .filter_map(|(at, m)| {
            let kind = match m {
                ClientMessage::Response(ResponseBody::LockGranted { app: a }) if *a == app => {
                    LockObsKind::Granted
                }
                ClientMessage::Response(ResponseBody::LockDenied { app: a, holder })
                    if *a == app =>
                {
                    LockObsKind::Denied(holder.as_ref().map(|h| h.as_str().to_string()))
                }
                ClientMessage::Response(ResponseBody::LockReleased { app: a }) if *a == app => {
                    LockObsKind::Released
                }
                ClientMessage::Error(e)
                    if e.code == ErrorCode::BadRequest && e.detail == "not the lock holder" =>
                {
                    LockObsKind::ReleaseFailed
                }
                _ => return None,
            };
            Some(LockObs { at_us: at.as_micros(), kind })
        })
        .collect()
}

/// `OpDone` completions `portal` observed for `app`.
pub fn op_done(portal: &Portal, app: AppId) -> usize {
    portal
        .received
        .iter()
        .filter(|(_, m)| {
            matches!(m, ClientMessage::Response(ResponseBody::OpDone { app: a, .. }) if *a == app)
        })
        .count()
}

/// One finished scenario execution: the network as the run left it, and
/// handles into it. The oracles and the run-log renderer read each fact
/// where it lives — user facts in [`Scenario::users`], replies and
/// completions on the portals, resume counts in the portal nodes'
/// counters, the archive at the host, cache events in each server's
/// cache — so nothing is copied out.
pub struct RunResult {
    /// The executed scenario.
    pub scenario: Scenario,
    /// The main application.
    pub app: AppId,
    /// The network as the run left it.
    pub collab: Collaboratory,
    /// The servers in scenario index order; server 0 hosts the main app.
    pub servers: Vec<ServerHandle>,
    /// Each scenario user's portal node, in scenario user order.
    pub portals: Vec<NodeId>,
    /// The latecomer's portal node, if the scenario has one.
    pub latecomer: Option<NodeId>,
    /// Flight-recorder harvest: every triggered anomaly dump followed by
    /// each server's final ring (the last events it recorded). Attached
    /// to repro artifacts so a failing scenario ships with the context
    /// that led up to the anomaly. Deterministic text, like the run log.
    pub flight: String,
    /// Deterministic text rendering of the whole run (byte-identical
    /// across same-seed executions).
    pub run_log: String,
}

impl RunResult {
    /// Every recorded decision with its stamp, in execution order.
    pub fn events(&self) -> impl Iterator<Item = (&HistoryEvent, &Event)> {
        let history = self.collab.engine.history().iter();
        history.filter_map(|e| e.downcast().map(|event| (&**e, event)))
    }

    /// The portal of scenario user `i`.
    pub fn portal(&self, i: usize) -> &Portal {
        self.portal_at(self.portals[i])
    }

    /// The latecomer's portal, if the scenario has one.
    pub fn latecomer_portal(&self) -> Option<&Portal> {
        self.latecomer.map(|node| self.portal_at(node))
    }

    fn portal_at(&self, node: NodeId) -> &Portal {
        self.collab.engine.actor_ref::<Portal>(node).expect("a portal node")
    }

    /// A counter of scenario user `i`'s portal node.
    pub fn portal_counter(&self, i: usize, def: CounterDef) -> u64 {
        self.collab.engine.node_metrics(self.portals[i]).counter(def)
    }

    /// The main app's archive log at its host, if it archived anything.
    pub fn host_log(&self) -> Option<&Log> {
        let host = self.collab.server_core(self.servers[0]).expect("host server exists");
        host.archive().app_log(self.app)
    }

    /// The records the host's archive of the main app retains (every one,
    /// unless the run compacts closed segments).
    pub fn host_archive(&self) -> &[LogRecord] {
        self.host_log().map_or(&[], Log::all)
    }

    /// Sessions still parked across all servers (a correct lease plane
    /// drains this to zero once TTLs pass).
    pub fn parked_at_end(&self) -> usize {
        let parked = |&srv| self.collab.server_core(srv).map_or(0, |s| s.parked_count());
        self.servers.iter().map(parked).sum()
    }
}

fn action_request(app: AppId, user_index: usize, n: u64, kind: ActionKind) -> ClientRequest {
    match kind {
        ActionKind::Acquire => ClientRequest::RequestLock { app },
        ActionKind::Release => ClientRequest::ReleaseLock { app },
        ActionKind::GetStatus => ClientRequest::Op { app, op: AppOp::GetStatus },
        ActionKind::GetSensors => ClientRequest::Op { app, op: AppOp::GetSensors },
        ActionKind::SetParam => ClientRequest::Op {
            app,
            op: AppOp::SetParam("knob0".into(), Value::Float(user_index as f64 + n as f64 * 0.125)),
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
    b.history();
    s.features.apply(&mut b, s.mutation);
    // The flight recorder observes the same decision points as the
    // history log and appends to side buffers only, so arming it keeps
    // run logs byte-identical while giving every repro the recent-past
    // context of each server (breaker trips, shed bursts, expiry spikes,
    // the last at eight deadline expiries within a second).
    b.flight_recorder(8);
    let servers: Vec<ServerHandle> = (0..s.n_servers).map(|i| b.server(&format!("s{i}"))).collect();
    // Link pairs in index order (not mesh_servers, whose map iteration
    // order is not deterministic) so the wiring is a pure function of
    // the scenario.
    for i in 0..servers.len() {
        for j in i + 1..servers.len() {
            b.link_servers(servers[i], servers[j], LinkSpec::wan());
        }
    }

    // The main application, hosted at server 0.
    let mut acl: Vec<(UserId, Privilege)> =
        s.users.iter().filter_map(|u| u.privilege.map(|p| (UserId::new(&u.name), p))).collect();
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

    // Portals: scripted, or closed-loop sensor reads whose completion
    // timestamps feed the goodput/recovery oracles.
    let mut portals = Vec::new();
    for (ui, u) in s.users.iter().enumerate() {
        let mut cfg = s.features.portal(PortalConfig::new(&u.name).poll_every(poll_period()));
        if u.closed_loop {
            let think = SimDuration::from_millis(600);
            cfg = cfg.select_app(app).workload(Workload::new(app, OpMix::sensors_only(), think));
        }
        let mut writes = 0u64;
        for a in &u.actions {
            if a.kind == ActionKind::SetParam {
                writes += 1;
            }
            cfg =
                cfg.at(SimDuration::from_millis(a.at_ms), action_request(app, ui, writes, a.kind));
        }
        portals.push(b.portal(servers[u.server], &u.name, cfg));
    }
    let latecomer = s.latecomer.as_ref().map(|l| {
        let mut cfg = s.features.portal(PortalConfig::new(&l.user).poll_every(poll_period()));
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
        b.portal(servers[0], &l.user, cfg)
    });

    let dir_crash = s.faults.dir_crash.and_then(|(at, restart)| {
        Some((b.directory_ring().node_for(&app.naming_path())?, at, restart))
    });

    let mut c = b.build();

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
    for d in &s.faults.disconnects {
        plan.partition(
            portals[d.user],
            servers[s.users[d.user].server].node,
            SimTime::from_millis(d.from_ms),
            SimTime::from_millis(d.until_ms.unwrap_or(s.horizon_ms + 10_000)),
        );
    }
    c.engine.apply_faults(&plan);

    // Run, pausing at each out-of-band harness action: admin
    // revocations applied at the host (with their history events
    // injected), and the discovery plant (a poisoned route entry primed
    // into the gateway's cache).
    let mut admin: Vec<_> = s.admin.iter().collect();
    admin.sort_by(|a, b| (a.at_ms, &a.kind).cmp(&(b.at_ms, &b.kind)));
    for a in admin {
        c.engine.run_until(SimTime::from_millis(a.at_ms));
        match &a.kind {
            AdminKind::Revoke(user) => {
                let host = servers[0].node;
                let node = c.engine.actor_mut::<DiscoverNode>(host).unwrap();
                let user = UserId::new(user);
                let (applied, lock_freed) = node.core.revoke_user(app, &user);
                c.engine.record(host, || Event::AclRevoked(app, user.clone(), applied));
                if lock_freed {
                    let (step, origin) = (LockStep::ForceReleased, Origin::Revoke);
                    c.engine.record(host, || Event::Lock(step, app, user, origin));
                }
            }
            &AdminKind::PlantStaleRoute { gateway, wrong } => {
                let (gw, wrong) = (servers[gateway].node, servers[wrong].addr);
                let node = c.engine.actor_mut::<DiscoverNode>(gw).unwrap();
                node.substrate.prime_cache(SimTime::from_millis(a.at_ms), app, wrong);
                c.engine.record(gw, || Event::CachePlanted(app, wrong));
            }
        }
    }
    c.engine.run_until(SimTime::from_millis(s.horizon_ms));

    // Flight harvest: triggered dumps first, then each server's final
    // ring so a repro shows what every node was doing at the end even
    // when no trigger fired.
    let mut flight = c.engine.flight_dumps_rendered();
    for (i, &srv) in servers.iter().enumerate() {
        flight.push_str(&format!("--- ring s{i} (n{}) ---\n", srv.node.0));
        flight.push_str(&c.engine.flight_ring_rendered(srv.node));
    }

    let mut result = RunResult {
        scenario: s.clone(),
        app,
        collab: c,
        servers,
        portals,
        latecomer,
        flight,
        run_log: String::new(),
    };
    result.run_log = render_log(&result);
    result
}

/// The deterministic text rendering of a finished run.
fn render_log(r: &RunResult) -> String {
    let (s, app) = (&r.scenario, r.app);
    let mut run_log = String::new();
    run_log.push_str(&s.describe());
    run_log.push_str("--- history ---\n");
    for e in r.collab.engine.history() {
        run_log.push_str(&e.render());
        run_log.push('\n');
    }
    run_log.push_str("--- observations ---\n");
    for (i, u) in s.users.iter().enumerate() {
        let p = r.portal(i);
        let locks: Vec<String> = lock_responses(p, app)
            .iter()
            .map(|o| format!("{}@{}", o.kind.render(), o.at_us))
            .collect();
        let denied = p.received.iter().filter(|(_, m)| match m {
            ClientMessage::Error(e) => e.code == ErrorCode::AccessDenied,
            _ => false,
        });
        let denied = denied.count();
        run_log.push_str(&format!(
            "user {} s{} opdone={} denied={denied} locks=[{}]\n",
            u.name,
            u.server,
            op_done(p, app),
            locks.join(", ")
        ));
        if s.features.leases.is_some() {
            let completions_ok = p.op_completions.iter().filter(|(_, _, ok)| *ok).count();
            let resumed_at: Vec<u64> = p.resumed_at.iter().map(|t| t.as_micros()).collect();
            run_log.push_str(&format!(
                "  churn {}: resumes={} ok={} fallbacks={} completions_ok={} resumed_at={:?}\n",
                u.name,
                r.portal_counter(i, names::CLIENT_RESUMES),
                p.resumed_at.len(),
                r.portal_counter(i, names::CLIENT_RESUME_FALLBACKS),
                completions_ok,
                resumed_at,
            ));
        }
    }
    if s.features.leases.is_some() {
        run_log.push_str(&format!("parked at end={}\n", r.parked_at_end()));
    }
    if s.features.discovery.is_some() {
        run_log.push_str("--- discovery ---\n");
        for (i, srv) in r.servers.iter().enumerate() {
            let count = |def| r.collab.engine.node_metrics(srv.node).counter(def);
            let cached = |(e, event): &(&HistoryEvent, &Event)| {
                e.node == srv.node && matches!(event, Event::Cache(..) | Event::CachePlanted(..))
            };
            run_log.push_str(&format!(
                "s{i} cache: hits={} neg={} misses={} expired={} inval={} events={}\n",
                count(names::SUBSTRATE_CACHE_HITS),
                count(names::SUBSTRATE_CACHE_NEG_HITS),
                count(names::SUBSTRATE_CACHE_MISSES),
                count(names::SUBSTRATE_CACHE_EXPIRED),
                count(names::SUBSTRATE_CACHE_INVALIDATIONS),
                r.events().filter(cached).count(),
            ));
        }
    }
    run_log.push_str(&format!("archive len={}\n", r.host_archive().len()));
    if s.features.snapshot_every.is_some() {
        let (snapshots, next_seq) =
            r.host_log().map_or((&[][..], 0), |log| (log.snapshots(), log.next_seq()));
        let seqs: Vec<String> = snapshots.iter().map(|sn| sn.seq.to_string()).collect();
        run_log.push_str(&format!("snapshots=[{}] next_seq={next_seq}\n", seqs.join(", ")));
        for (ui, u) in s.users.iter().enumerate() {
            for (i, (at, snap, recs, next)) in r.portal(ui).catch_ups(app).enumerate() {
                run_log.push_str(&format!(
                    "catchup {} {i}@{}: snap={:?} tail={} next={next}\n",
                    u.name,
                    at.as_micros(),
                    snap.as_ref().map(|sn| sn.seq),
                    recs.len(),
                ));
            }
        }
    }
    if let Some(late) = r.latecomer_portal() {
        for (i, (_, f, _)) in late.histories(app).enumerate() {
            let first = f.first().map(|r| r.seq as i64).unwrap_or(-1);
            let last = f.last().map(|r| r.seq as i64).unwrap_or(-1);
            run_log
                .push_str(&format!("latecomer fetch {i}: len={} seq={first}..={last}\n", f.len()));
        }
    }
    run_log
}
