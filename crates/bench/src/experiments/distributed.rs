//! E7–E10: distributed locking, peer-network scalability, slow-client
//! FIFO buffering, and latecomer catch-up.

use appsim::synthetic_app;
use discover_client::{OpMix, Portal, PortalConfig, Workload};
use discover_core::{CollaboratoryBuilder, DiscoverNode};
use simnet::{SimDuration, SimTime};
use wire::{ClientRequest, Privilege};

use crate::fixtures::{self, hot_app_config, interactive_app_config, RUN_SECS};
use crate::report::{f2, summarize_us, Table};

/// E7: steering-lock contention across servers. Lock state lives only at
/// the application's host server; remote servers relay requests (§5.2.4).
pub fn e7_lock_contention() -> Table {
    let mut table = Table::new(
        "E7",
        "distributed steering-lock contention",
        "\"locking information is only maintained at the application's host server ... servers providing remote access only relay lock requests\" (§5.2.4)",
        &["contenders", "grants", "denials", "acq_mean_ms", "acq_p95_ms", "steer_ops"],
    );
    for &n in &[2usize, 4, 8, 16, 32] {
        let mut b = CollaboratoryBuilder::new(700 + n as u64);
        let host = b.server("host");
        let gateway = b.server("gateway");
        b.link_servers(host, gateway, simnet::LinkSpec::wan());
        let users = fixtures::acl_users(n, Privilege::ReadWrite);
        let acl: Vec<(&str, Privilege)> = users.iter().map(|(u, p)| (u.as_str(), *p)).collect();
        let (_, app) =
            b.application(host, synthetic_app(2, u64::MAX), interactive_app_config("app0", &acl));
        b.application(gateway, synthetic_app(1, u64::MAX), interactive_app_config("anchor", &acl));
        let mut nodes = Vec::new();
        for (i, (u, _)) in users.iter().enumerate() {
            // Half the contenders are remote (via the gateway), half local.
            let srv = if i % 2 == 0 { host } else { gateway };
            let mut w = Workload::new(app, OpMix::steering_only(), SimDuration::from_millis(300));
            w.ops_per_lock = 3;
            let mut cfg = PortalConfig::new(u)
                .select_app(app)
                .poll_every(fixtures::poll_period())
                .workload(w);
            cfg.login_delay = SimDuration::from_millis(200 + i as u64 * 10);
            nodes.push(b.portal(srv, &format!("steerer-{u}"), cfg));
        }
        let mut c = b.build();
        c.engine.run_until(SimTime::from_secs(RUN_SECS));

        let acq = fixtures::collect_lock_latencies(&c, &nodes);
        let lat = summarize_us(&acq);
        let denials = c.engine.stats().counter("server.lock.denied");
        let ops = fixtures::total_ops(&c, &nodes);
        table.row(vec![
            n.to_string(),
            lat.count.to_string(),
            denials.to_string(),
            f2(lat.mean_ms),
            f2(lat.p95_ms),
            ops.to_string(),
        ]);
    }
    table.note("acquisition latency grows with contention (denied requesters retry); consistency holds — one driver at a time");
    table
}

/// E8: spreading a fixed client/application population over more peer
/// servers increases the load the network supports (§6.1: "with the
/// peer-to-peer server network in place, the number ... should further
/// increase").
pub fn e8_network_scalability() -> Table {
    let mut table = Table::new(
        "E8",
        "peer server network scalability (fixed population, more servers)",
        "\"with the peer-to-peer server network in place, the number of simultaneous applications that can be supported should further increase\" (§6.1)",
        &["servers", "ops_done", "mean_ms", "p95_ms", "max_srv_util"],
    );
    const CLIENTS: usize = 24;
    const APPS: usize = 8;
    for &s in &[1usize, 2, 4, 8] {
        let mut b = CollaboratoryBuilder::new(800 + s as u64);
        let servers: Vec<_> = (0..s).map(|i| b.server(&format!("server{i}"))).collect();
        b.mesh_servers(simnet::LinkSpec::wan());
        let users = fixtures::acl_users(CLIENTS, Privilege::ReadWrite);
        let acl: Vec<(&str, Privilege)> = users.iter().map(|(u, p)| (u.as_str(), *p)).collect();
        // Apps spread round-robin over servers; moderate update rate.
        let mut apps = Vec::new();
        for i in 0..APPS {
            // 2 updates/s, alternating 500 ms compute / 500 ms interaction
            // so the command path is half-open and latency reflects server
            // and WAN load rather than multi-second buffering.
            let mut cfg = hot_app_config(&format!("app{i}"), &acl);
            cfg.batch_time = SimDuration::from_millis(500);
            cfg.batches_per_phase = 1;
            cfg.interaction_window = SimDuration::from_millis(500);
            let (_, app) = b.application(servers[i % s], synthetic_app(2, u64::MAX), cfg);
            apps.push(app);
        }
        // Clients attach to their "closest" server round-robin and work
        // on apps round-robin (a mix of local and remote targets).
        let mut nodes = Vec::new();
        for (i, (u, _)) in users.iter().enumerate() {
            let srv = servers[i % s];
            let app = apps[i % APPS];
            let mut cfg = PortalConfig::new(u)
                .select_app(app)
                .poll_every(fixtures::poll_period())
                .workload(Workload::new(app, OpMix::sensors_only(), SimDuration::from_millis(500)));
            cfg.login_delay = SimDuration::from_millis(200 + i as u64 * 5);
            nodes.push(b.portal(srv, &format!("client-{u}"), cfg));
        }
        let mut c = b.build();
        c.engine.run_until(SimTime::from_secs(RUN_SECS));

        let lat = summarize_us(&fixtures::collect_op_latencies(&c, &nodes));
        let max_util =
            servers.iter().map(|srv| c.engine.node_utilization(srv.node)).fold(0.0f64, f64::max);
        table.row(vec![
            s.to_string(),
            lat.count.to_string(),
            f2(lat.mean_ms),
            f2(lat.p95_ms),
            f2(max_util),
        ]);
    }
    table.note("throughput rises and per-server utilization falls as servers are added; remote ops pay the WAN floor");
    table
}

/// E9: HTTP poll-and-pull requires per-client FIFO buffers; slow clients
/// grow them and eventually lose the oldest updates (§6.2's memory and
/// performance overhead concern).
pub fn e9_fifo_slow_clients() -> Table {
    let mut table = Table::new(
        "E9",
        "slow-client FIFO buffering under poll-and-pull",
        "\"the poll and pull mechanism makes it necessary to maintain FIFO buffers at the server for each client to support slow clients ... both memory and performance overheads\" (§6.2)",
        &["client", "poll_period", "delivered", "still_queued", "peak_depth", "dropped"],
    );
    let mut b = CollaboratoryBuilder::new(900);
    let acl = [
        ("fast", Privilege::ReadOnly),
        ("slow", Privilege::ReadOnly),
        ("dead", Privilege::ReadOnly),
    ];
    // Shrink the FIFO so the run demonstrates overflow.
    b.tweak_servers(|cfg| cfg.fifo_capacity = 64);
    let server = b.server("server0");
    let (_, app) = b.application(server, synthetic_app(2, u64::MAX), hot_app_config("app0", &acl));
    let mk = |user: &str, period_ms: u64, delay: u64| {
        let mut cfg =
            PortalConfig::new(user).select_app(app).poll_every(SimDuration::from_millis(period_ms));
        cfg.login_delay = SimDuration::from_millis(delay);
        cfg
    };
    b.portal(server, "fast", mk("fast", 200, 50));
    b.portal(server, "slow", mk("slow", 2_000, 60));
    b.portal(server, "dead", mk("dead", 3_600_000, 70));
    let mut c = b.build();
    c.engine.run_until(SimTime::from_secs(RUN_SECS));

    let core = &c.engine.actor_ref::<DiscoverNode>(server.node).unwrap().core;
    let snapshot = core.fifo_snapshot();
    let labels = ["fast (200ms)", "slow (2s)", "dead (never)"];
    for (i, (client, queued, peak, dropped, enqueued)) in snapshot.iter().enumerate() {
        let _ = client;
        let delivered = enqueued - dropped - *queued as u64;
        table.row(vec![
            labels.get(i).unwrap_or(&"?").to_string(),
            ["200ms", "2s", "never"].get(i).unwrap_or(&"?").to_string(),
            delivered.to_string(),
            queued.to_string(),
            peak.to_string(),
            dropped.to_string(),
        ]);
    }
    table.note("buffer depth and loss grow as poll rate falls; the fast client sees everything with shallow buffers");
    table
}

/// E10: latecomer catch-up from the session archive grows linearly with
/// how much session history exists (§5.2.5).
pub fn e10_latecomer_replay() -> Table {
    let mut table = Table::new(
        "E10",
        "latecomer catch-up from the session archive",
        "\"this log enables clients to replay their interactions ... enables latecomers to a collaboration group to get up to speed\" (§5.2.5)",
        &["join_at_s", "records", "bytes", "fetch_ms"],
    );
    for &join_at in &[10u64, 30, 60, 120] {
        let mut b = CollaboratoryBuilder::new(1000 + join_at);
        let server = b.server("server0");
        let acl = [("driver", Privilege::ReadWrite), ("late", Privilege::ReadOnly)];
        let mut app_cfg = hot_app_config("app0", &acl);
        app_cfg.batch_time = SimDuration::from_millis(500); // 2 upd/s of history
        let (_, app) = b.application(server, synthetic_app(2, u64::MAX), app_cfg);
        // A driver steers once a second, building interaction history.
        let mut w = Workload::new(app, OpMix::steering_only(), SimDuration::from_millis(1000));
        w.take_lock = true;
        let driver = PortalConfig::new("driver")
            .select_app(app)
            .poll_every(fixtures::poll_period())
            .workload(w);
        b.portal(server, "driver", driver);
        // The latecomer joins at T and fetches the archive.
        let fetch_at = SimDuration::from_secs(join_at) + SimDuration::from_secs(2);
        let mut late = PortalConfig::new("late")
            .select_app(app)
            .at(fetch_at, ClientRequest::GetHistory { app, since: 0 });
        late.login_delay = SimDuration::from_secs(join_at);
        let late_node = b.portal(server, "late", late);

        let mut c = b.build();
        c.engine.run_until(SimTime::from_secs(join_at + 20));

        let p = c.engine.actor_ref::<Portal>(late_node).unwrap();
        let result = p
            .histories(app)
            .next()
            .map(|(t, records, _)| (records.len(), wire::codec::encoded_len(records), t));
        match result {
            Some((count, bytes, at)) => {
                let fetch_ms = at.since(SimTime::ZERO + fetch_at).as_micros() as f64 / 1000.0;
                table.row(vec![
                    join_at.to_string(),
                    count.to_string(),
                    bytes.to_string(),
                    f2(fetch_ms),
                ]);
            }
            None => table.row(vec![join_at.to_string(), "-".into(), "-".into(), "-".into()]),
        }
    }
    table.note("archive volume and transfer bytes grow linearly with session age; fetch stays a single round trip");
    table
}
