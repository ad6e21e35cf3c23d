//! The four in-simulation workloads: one repetition each.
//!
//! A repetition builds a fixed topology from its sub-seed, warms it up
//! (set-up), then runs a fixed span of virtual time (the measured
//! window). In wall-clock terms that is a closed batch job: the figures
//! are work completed per wall second, not latency at an offered rate.
//! Portals are closed-loop (think time after each completion) plus a
//! fixed-period poll; everything runs on one thread.

use appsim::{synthetic_app, DriverConfig};
use discover_client::{OpMix, PortalConfig, Workload as ClosedLoop};
use discover_core::{CollabMode, DiscoveryCacheConfig};
use simnet::{names, LinkSpec, NodeId, SimDuration, SimTime};
use wire::{AppId, AppToken, LogEntry, Privilege, UpdateBody, UserId};

use crate::alloc::AllocSnapshot;
use crate::calibration::{Pacer, Timed};
use crate::rep::Rep;
use crate::spans::{self, Layer};
use crate::spec::Workload;
use crate::topo::{Mesh, ServerHandle};

/// Slices a measured window is cut into, a calibration burst between
/// neighbours. Slice boundaries do not change what the engine does.
pub const SLICES: u64 = 12;

/// Warm-up and measured window in virtual seconds.
fn plan(workload: Workload) -> (u64, u64) {
    match workload {
        Workload::SteerLocal => (3, 480),
        // The join broadcast is O(N^2) in group size; 60 s drains it for
        // 256 viewers (the E18 warm-up).
        Workload::FanoutSteady => (60, 480),
        // The join is the workload: only the build is set-up.
        Workload::StormOverload => (0, 24),
        Workload::MeshRemote => (6, 240),
        Workload::WireIngress => unreachable!("wire_ingress does not run in the simulation"),
    }
}

fn acl(users: &[String], privilege: Privilege) -> Vec<(UserId, Privilege)> {
    users
        .iter()
        .map(|u| (UserId::new(u.as_str()), privilege))
        .collect()
}

/// "High-load" application of the experiments: 10 status updates per
/// second, an interaction window every 2 s.
fn hot_app(name: &str, acl: Vec<(UserId, Privilege)>) -> DriverConfig {
    DriverConfig {
        token: AppToken::new(name),
        name: name.to_string(),
        acl,
        iters_per_batch: 1,
        batch_time: SimDuration::from_millis(100),
        batches_per_phase: 20,
        interaction_window: SimDuration::from_millis(100),
    }
}

/// Mostly-interactive application: brief compute batches, long
/// interaction windows, so commands are not parked in the Daemon buffer.
fn interactive_app(name: &str, acl: Vec<(UserId, Privilege)>) -> DriverConfig {
    DriverConfig {
        batch_time: SimDuration::from_millis(50),
        batches_per_phase: 1,
        interaction_window: SimDuration::from_secs(1),
        ..hot_app(name, acl)
    }
}

fn build<const TRACED: bool>(workload: Workload, seed: u64) -> Mesh<TRACED> {
    let ms = SimDuration::from_millis;
    let mut mesh = Mesh::<TRACED>::new(seed);
    match workload {
        Workload::SteerLocal => {
            let srv = mesh.server("server0", |_| {});
            let mix = OpMix {
                get_status: 2,
                get_sensors: 5,
                get_param: 2,
                set_param: 0,
                chat: 1,
            };
            for i in 0..8 {
                let user = format!("user{i}");
                let cfg = interactive_app(
                    &format!("sim{i}"),
                    acl(std::slice::from_ref(&user), Privilege::ReadWrite),
                );
                let app = mesh.application(srv, synthetic_app(2, u64::MAX), cfg);
                let portal = PortalConfig::new(&user)
                    .select_app(app)
                    .poll_every(ms(200))
                    .workload(ClosedLoop::new(app, mix.clone(), ms(200)));
                mesh.portal(srv, &format!("portal-{user}"), portal);
            }
        }
        Workload::FanoutSteady | Workload::StormOverload => {
            let viewers = if workload == Workload::FanoutSteady {
                256
            } else {
                512
            };
            let srv = mesh.server("server0", |cfg| cfg.coalesce_fifo = true);
            let users: Vec<String> = (0..viewers).map(|i| format!("user{i}")).collect();
            let mut members = acl(&users, Privilege::ReadOnly);
            members.push((UserId::new("steerer"), Privilege::Steer));
            let app = mesh.application(srv, synthetic_app(2, u64::MAX), hot_app("storm0", members));
            let steerer = PortalConfig::new("steerer")
                .select_app(app)
                .poll_every(ms(500))
                .workload(ClosedLoop::new(app, OpMix::steering_only(), ms(200)));
            mesh.portal(srv, "steerer", steerer);
            for (i, user) in users.iter().enumerate() {
                let mut cfg = PortalConfig::new(user)
                    .select_app(app)
                    .poll_every(SimDuration::from_secs(4));
                // Logins spread over the first 8 s, as in E14/E18.
                cfg.login_delay = ms(200 + (i as u64 * 15) % 7800);
                mesh.portal(srv, &format!("viewer{i}"), cfg);
            }
        }
        Workload::MeshRemote => {
            const SERVERS: usize = 4;
            const PORTALS: usize = 16;
            mesh.directory_shards(2);
            mesh.substrate_config.collab_mode = CollabMode::Push;
            mesh.substrate_config.discovery_cache = Some(DiscoveryCacheConfig {
                ttl: SimDuration::from_secs(15),
                ..Default::default()
            });
            mesh.substrate_config.discovery_interval = SimDuration::from_secs(5);
            let servers: Vec<ServerHandle> = (0..SERVERS)
                .map(|i| mesh.server(&format!("server{i}"), |_| {}))
                .collect();
            mesh.mesh_servers(LinkSpec::wan());
            let users: Vec<String> = (0..PORTALS).map(|i| format!("user{i}")).collect();
            let apps: Vec<AppId> = servers
                .iter()
                .enumerate()
                .map(|(i, &srv)| {
                    let cfg = hot_app(&format!("app{i}"), acl(&users, Privilege::ReadWrite));
                    mesh.application(srv, synthetic_app(2, u64::MAX), cfg)
                })
                .collect();
            let mix = OpMix {
                set_param: 0,
                ..OpMix::default()
            };
            for (j, user) in users.iter().enumerate() {
                let home = j % SERVERS;
                let target = apps[(home + 1) % SERVERS];
                let mut cfg = PortalConfig::new(user)
                    .select_app(target)
                    .poll_every(ms(200))
                    .workload(ClosedLoop::new(target, mix.clone(), ms(200)));
                cfg.login_delay = ms(100 + (j as u64 * 131) % 1900);
                mesh.portal(servers[home], &format!("portal{j}"), cfg);
            }
        }
        Workload::WireIngress => unreachable!("wire_ingress does not run in the simulation"),
    }
    mesh.settle();
    mesh
}

/// Portal-side totals at one instant.
#[derive(Clone, Copy, Default)]
struct PortalTotals {
    issued: u64,
    completed: u64,
    failed: u64,
    deliveries: u64,
}

fn portal_totals<const TRACED: bool>(mesh: &Mesh<TRACED>) -> PortalTotals {
    let mut t = PortalTotals::default();
    for &node in mesh.portals() {
        let p = mesh.portal_ref(node);
        t.issued += p.ops_issued;
        let ok = p.op_completions.iter().filter(|c| c.2).count() as u64;
        t.completed += ok;
        t.failed += p.op_completions.len() as u64 - ok;
        t.deliveries += p.received.len() as u64;
    }
    t
}

/// Chat updates in the hosts' application archives (every routed chat is
/// logged by its host exactly once).
fn archived_chats<const TRACED: bool>(mesh: &Mesh<TRACED>) -> u64 {
    let mut chats = 0;
    for &srv in mesh.servers() {
        let core = mesh.core(srv);
        for app in core.archive().archived_apps() {
            let Some(log) = core.archive().app_log(app) else {
                continue;
            };
            chats += log
                .all()
                .iter()
                .filter(|r| matches!(&r.entry, LogEntry::Update(u) if matches!(u.body(), UpdateBody::Chat { .. })))
                .count() as u64;
        }
    }
    chats
}

const COUNTERS: [simnet::CounterDef; 7] = [
    names::WEBSERV_FIFO_ENQUEUED,
    names::WEBSERV_FIFO_COALESCED,
    names::WEBSERV_FIFO_DROPPED,
    names::SUBSTRATE_CACHE_HITS,
    names::SUBSTRATE_CACHE_MISSES,
    names::SUBSTRATE_CACHE_EXPIRED,
    names::SUBSTRATE_REMOTE_OPS,
];

fn counters<const TRACED: bool>(mesh: &Mesh<TRACED>) -> [u64; 7] {
    COUNTERS.map(|c| mesh.engine.stats().counter(c.key()))
}

/// FIFO conservation over the servers' live FIFOs: every message ever
/// accepted was delivered by a poll, absorbed by coalescing, lost to
/// overflow, or is still queued.
fn check_fifo_conservation<const TRACED: bool>(mesh: &Mesh<TRACED>) -> Result<(), String> {
    let stats = mesh.engine.stats();
    let (mut enqueued, mut queued, mut dropped) = (0u64, 0u64, 0u64);
    for &srv in mesh.servers() {
        for (_, len, _, lost, accepted) in mesh.core(srv).fifo_snapshot() {
            enqueued += accepted;
            queued += len as u64;
            dropped += lost;
        }
    }
    let delivered = stats.counter(names::SERVER_POLL_DELIVERED.key());
    let coalesced = stats.counter(names::WEBSERV_FIFO_COALESCED.key());
    if enqueued != delivered + coalesced + dropped + queued {
        return Err(format!(
            "FIFO conservation: enqueued {enqueued} != delivered {delivered} + coalesced \
             {coalesced} + dropped {dropped} + queued {queued}"
        ));
    }
    Ok(())
}

/// Run one repetition of a simulation workload from `seed` and check it.
pub fn run_rep<const TRACED: bool>(workload: Workload, seed: u64) -> Result<Rep, String> {
    let (warmup, window) = plan(workload);
    let window = SimDuration::from_secs(window);
    let mut pacer = Pacer::start();
    let (mut mesh, setup) = pacer.time(|| {
        let mut mesh = build::<TRACED>(workload, seed);
        let window_start = mesh.engine.now().max(SimTime::from_secs(warmup));
        mesh.engine.run_until(window_start);
        mesh
    });
    let window_start = mesh.engine.now();

    let portals0 = portal_totals(&mesh);
    let chats0 = archived_chats(&mesh);
    let counters0 = counters(&mesh);
    let events0 = mesh.engine.events_processed();
    let busy0: Vec<SimDuration> = mesh
        .servers()
        .iter()
        .map(|s| mesh.engine.node_busy(s.node))
        .collect();

    if TRACED {
        spans::set_active(true);
    }
    let (mut timed_window, mut alloc) = (Timed::default(), AllocSnapshot::default());
    for slice in 1..=SLICES {
        let until = window_start + window * slice / SLICES;
        let (heap, timed) = pacer.time(|| {
            let before = AllocSnapshot::now();
            spans::scope_if::<TRACED, _>(Layer::Engine, || mesh.engine.run_until(until));
            AllocSnapshot::now().since(before)
        });
        timed_window += timed;
        alloc += heap;
    }
    if TRACED {
        spans::set_active(false);
    }

    let portals1 = portal_totals(&mesh);
    let counters1 = counters(&mesh);
    let delta = |i: usize| counters1[i] - counters0[i];
    let window_us = window.as_micros() as f64;
    let rep = Rep {
        setup,
        window: timed_window,
        alloc,
        events: mesh.engine.events_processed() - events0,
        issued: portals1.issued - portals0.issued,
        completed: portals1.completed - portals0.completed,
        failed: portals1.failed - portals0.failed,
        chats: archived_chats(&mesh) - chats0,
        deliveries: portals1.deliveries - portals0.deliveries,
        portals: mesh.portals().len() as u64,
        fifo_enqueued: delta(0),
        fifo_coalesced: delta(1),
        fifo_dropped: delta(2),
        cache_hits: delta(3),
        cache_misses: delta(4) + delta(5),
        remote_ops: delta(6),
        utilization: mesh
            .servers()
            .iter()
            .zip(&busy0)
            .map(|(s, &b0)| (mesh.engine.node_busy(s.node) - b0).as_micros() as f64 / window_us)
            .collect(),
        latencies_ns: Vec::new(),
    };
    check(workload, &mesh, &rep)?;
    Ok(rep)
}

fn check<const TRACED: bool>(
    workload: Workload,
    mesh: &Mesh<TRACED>,
    rep: &Rep,
) -> Result<(), String> {
    let name = workload.name();
    // Ops conservation: everything issued was answered, was a chat that
    // reached its host, or is the one op a closed-loop portal may have in
    // flight at cut-off (at either edge of the window).
    let accounted = rep.completed + rep.failed + rep.chats;
    let slack = rep.portals;
    if accounted > rep.issued + slack || rep.issued > accounted + slack {
        return Err(format!(
            "ops conservation: issued {} vs completed {} + failed {} + chats {} (slack {slack})",
            rep.issued, rep.completed, rep.failed, rep.chats
        ));
    }
    check_fifo_conservation(mesh)?;
    // Regime: the unsaturated workloads stay clear of the busy-node
    // re-push regime; the storm stays inside it.
    for (i, &u) in rep.utilization.iter().enumerate() {
        let ok = if workload == Workload::StormOverload {
            u > 0.95
        } else {
            u < 0.8
        };
        if !ok {
            return Err(format!(
                "{name}: server{i} utilisation {u:.3} is outside its regime"
            ));
        }
    }
    if rep.work(workload) == 0 {
        return Err(format!("{name}: no work completed ({rep:?})"));
    }
    if workload == Workload::MeshRemote {
        for &node in mesh.portals() {
            check_remote_target(mesh, node)?;
        }
        // Every tracked op crossed the substrate to its host.
        if rep.remote_ops + rep.portals < rep.completed {
            return Err(format!(
                "mesh_remote: {} ops completed but only {} dispatched to a remote host",
                rep.completed, rep.remote_ops
            ));
        }
    }
    Ok(())
}

fn check_remote_target<const TRACED: bool>(
    mesh: &Mesh<TRACED>,
    node: NodeId,
) -> Result<(), String> {
    let portal = mesh.portal_ref(node);
    let home = portal.server.expect("wired");
    let target = portal.config.select.expect("selects an app");
    let host = mesh
        .servers()
        .iter()
        .find(|s| s.addr == target.host())
        .expect("host exists");
    if host.node == home {
        return Err(format!(
            "mesh_remote: portal {node:?} targets an app on its home server"
        ));
    }
    Ok(())
}
