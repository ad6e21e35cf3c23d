//! E4–E6: cross-server collaboration traffic, remote-vs-local access
//! latency, and discovery/authentication overheads (§5.2.3, §7).

use appsim::synthetic_app;
use discover_client::{OpMix, Portal, PortalConfig, Workload};
use discover_core::{CollabMode, CollaboratoryBuilder};
use simnet::{SimDuration, SimTime};
use wire::{ClientMessage, ClientRequest, Privilege, ResponseBody, UpdateBody};

use crate::fixtures::{self, hot_app_config, interactive_app_config, quiet_app_config, RUN_SECS};
use crate::report::{f2, summarize_us, Table};

/// E11 (ablation): push-mode vs poll-mode cross-server collaboration.
/// The paper's prototype has CorbaProxy objects "poll each other for
/// updates and responses"; push fan-out is the natural alternative the
/// §5.2.3 traffic argument implies. This quantifies the trade.
pub fn e11_push_vs_poll() -> Table {
    let mut table = Table::new(
        "E11",
        "ablation: push vs poll cross-server collaboration",
        "\"the CorbaProxy objects poll each other for updates and responses\" (§5.2.3) — vs the one-message-per-server push the traffic argument implies",
        &["mode", "wan_giop_msgs", "updates_delivered", "delivery_mean_ms", "delivery_p95_ms"],
    );
    for (label, mode) in [
        ("push", CollabMode::Push),
        ("poll 250ms", CollabMode::Poll { interval: SimDuration::from_millis(250) }),
        ("poll 1s", CollabMode::Poll { interval: SimDuration::from_secs(1) }),
    ] {
        let mut b = CollaboratoryBuilder::new(1100);
        b.substrate_config.collab_mode = mode;
        let host = b.server("host");
        let far = b.server("far");
        b.link_servers(host, far, simnet::LinkSpec::wan());
        let acl = [("viewer", Privilege::ReadOnly), ("chatter", Privilege::ReadWrite)];
        let mut app_cfg = hot_app_config("app0", &acl);
        app_cfg.batch_time = SimDuration::from_millis(500);
        let (_, app) = b.application(host, synthetic_app(2, u64::MAX), app_cfg);
        b.application(far, synthetic_app(1, u64::MAX), quiet_app_config("anchor", &acl));
        // One remote viewer; one local chatter providing timestamped content.
        let mut viewer = PortalConfig::new("viewer").select_app(app);
        viewer.login_delay = SimDuration::from_millis(200);
        let viewer_node = b.portal(far, "viewer", viewer);
        let mut chatter = PortalConfig::new("chatter").select_app(app);
        chatter.login_delay = SimDuration::from_millis(200);
        let mut send_times = Vec::new();
        for k in 0..20 {
            let t = SimDuration::from_secs(5) + SimDuration::from_millis(2000 * k as u64);
            send_times.push(t);
            chatter = chatter.at(t, ClientRequest::Chat { app, text: format!("chat-{k}") });
        }
        b.portal(host, "chatter", chatter);
        let mut c = b.build();
        c.engine.run_until(SimTime::from_secs(RUN_SECS));

        let p = c.engine.actor_ref::<Portal>(viewer_node).unwrap();
        let mut latencies = Vec::new();
        let mut delivered = 0u64;
        for (at, m) in &p.received {
            if let ClientMessage::Update(u) = m {
                if u.app() == app {
                    delivered += 1;
                }
                if let UpdateBody::Chat { text, .. } = u.body() {
                    if let Some(k) =
                        text.strip_prefix("chat-").and_then(|k| k.parse::<usize>().ok())
                    {
                        latencies.push(at.since(SimTime::ZERO + send_times[k]).as_micros());
                    }
                }
            }
        }
        let lat = summarize_us(&latencies);
        let wan = c.engine.stats().counter("link.wan.msgs");
        table.row(vec![
            label.to_string(),
            wan.to_string(),
            delivered.to_string(),
            f2(lat.mean_ms),
            f2(lat.p95_ms),
        ]);
    }
    table.note("push: one WAN message per update, lowest latency; poll trades latency for batched transfers and adds empty-poll overhead at low rates");
    table
}

/// E4: peer-to-peer collaboration fan-out — one message per remote
/// server, then local re-broadcast — versus the naive per-client WAN
/// broadcast a centralized design would need.
pub fn e4_collab_traffic() -> Table {
    let mut table = Table::new(
        "E4",
        "collaboration traffic: one WAN message per remote server",
        "\"instead of sending individual collaboration messages to all the clients connected through a remote server, only one message is sent to that remote server ... reduces overall network traffic as well as client latencies\" (§5.2.3)",
        &[
            "servers",
            "viewers",
            "wan_collab_msgs",
            "naive_wan_msgs",
            "saving",
            "chat_mean_ms",
            "chat_p95_ms",
        ],
    );
    const VIEWERS: usize = 12;
    const CHATS: usize = 20;
    for &s in &[1usize, 2, 4] {
        let mut b = CollaboratoryBuilder::new(400 + s as u64);
        let servers: Vec<_> = (0..s).map(|i| b.server(&format!("server{i}"))).collect();
        b.mesh_servers(simnet::LinkSpec::wan());
        // One moderately chatty app at server0. All users on its ACL.
        let mut users: Vec<(String, Privilege)> = fixtures::acl_users(VIEWERS, Privilege::ReadOnly);
        users.push(("chatter".to_string(), Privilege::ReadWrite));
        let acl: Vec<(&str, Privilege)> = users.iter().map(|(u, p)| (u.as_str(), *p)).collect();
        let mut app_cfg = hot_app_config("app0", &acl);
        app_cfg.batch_time = SimDuration::from_millis(500); // 2 upd/s
        let (_, app) = b.application(servers[0], synthetic_app(2, u64::MAX), app_cfg);
        // Anchor apps at the other servers so viewers can log in there.
        for (i, &srv) in servers.iter().enumerate().skip(1) {
            b.application(
                srv,
                synthetic_app(1, u64::MAX),
                quiet_app_config(&format!("anchor{i}"), &acl),
            );
        }
        // Viewers spread round-robin over servers.
        let mut viewer_nodes = Vec::new();
        for i in 0..VIEWERS {
            let srv = servers[i % s];
            let mut cfg = PortalConfig::new(&format!("user{i}")).select_app(app);
            cfg.login_delay = SimDuration::from_millis(200);
            viewer_nodes.push(b.portal(srv, &format!("viewer{i}"), cfg));
        }
        // The chatter at server0 sends timestamped chats.
        let mut chatter = PortalConfig::new("chatter").select_app(app);
        chatter.login_delay = SimDuration::from_millis(200);
        let mut send_times = Vec::new();
        for k in 0..CHATS {
            let t = SimDuration::from_secs(5) + SimDuration::from_millis(2000 * k as u64);
            send_times.push(t);
            chatter = chatter.at(t, ClientRequest::Chat { app, text: format!("chat-{k}") });
        }
        b.portal(servers[0], "chatter", chatter);

        let mut c = b.build();
        c.engine.run_until(SimTime::from_secs(RUN_SECS));

        // Chat delivery latency across every viewer.
        let mut latencies = Vec::new();
        for &node in &viewer_nodes {
            let p = c.engine.actor_ref::<Portal>(node).unwrap();
            for (at, m) in &p.received {
                if let ClientMessage::Update(u) = m {
                    let UpdateBody::Chat { text, .. } = u.body() else { continue };
                    if let Some(k) =
                        text.strip_prefix("chat-").and_then(|k| k.parse::<usize>().ok())
                    {
                        let sent = SimTime::ZERO + send_times[k];
                        latencies.push(at.since(sent).as_micros());
                    }
                }
            }
        }
        let lat = summarize_us(&latencies);
        let wan_collab = c.engine.stats().counter("substrate.collab.pushes")
            + c.engine.stats().counter("substrate.collab.forwards");
        // Counterfactual: every update delivered to a remote member would
        // have crossed the WAN individually.
        let remote_members = VIEWERS - VIEWERS.div_ceil(s);
        let updates_broadcast =
            c.engine.stats().counter("server.peer.collab_updates").max(wan_collab); // host-side receptions
        let naive = if s == 1 {
            0
        } else {
            // each fan-out that crossed the WAN once per server would have
            // crossed once per remote member instead
            wan_collab / (s as u64 - 1).max(1) * remote_members as u64
        };
        let saving = if wan_collab > 0 { naive as f64 / wan_collab as f64 } else { 1.0 };
        let _ = updates_broadcast;
        table.row(vec![
            s.to_string(),
            VIEWERS.to_string(),
            wan_collab.to_string(),
            naive.to_string(),
            format!("{saving:.1}x"),
            f2(lat.mean_ms),
            f2(lat.p95_ms),
        ]);
    }
    table.note(
        "WAN messages scale with #servers, not #clients; saving grows with remote membership",
    );
    table
}

/// E5: response latency and throughput for remote applications compared
/// to applications connected to the same server (§7's "currently
/// evaluating" measurement).
pub fn e5_remote_vs_local() -> Table {
    let mut table = Table::new(
        "E5",
        "remote vs local application access",
        "\"we are currently evaluating this framework to determine response latencies and throughput for remote applications as compared to multiple applications connected to the same server\" (§7)",
        &["placement", "ops_done", "mean_ms", "p50_ms", "p95_ms"],
    );
    for &remote in &[false, true] {
        let mut b = CollaboratoryBuilder::new(500 + remote as u64);
        let home = b.server("home");
        let far = b.server("far");
        b.link_servers(home, far, simnet::LinkSpec::wan());
        let acl = [("probe", Privilege::ReadWrite)];
        // The app lives at `far` in the remote case, at `home` otherwise.
        // It is almost always in its interaction phase so the comparison
        // isolates transport latency rather than compute-phase buffering.
        let app_server = if remote { far } else { home };
        let (_, app) = b.application(
            app_server,
            synthetic_app(2, u64::MAX),
            interactive_app_config("app0", &acl),
        );
        // Login anchor at home either way.
        if remote {
            b.application(home, synthetic_app(1, u64::MAX), quiet_app_config("anchor", &acl));
        }
        let mut cfg = PortalConfig::new("probe")
            .select_app(app)
            .poll_every(fixtures::poll_period())
            .workload(Workload::new(app, OpMix::sensors_only(), SimDuration::from_millis(500)));
        cfg.login_delay = SimDuration::from_millis(200);
        let node = b.portal(home, "probe", cfg);
        let mut c = b.build();
        c.engine.run_until(SimTime::from_secs(RUN_SECS));
        let lat = summarize_us(&fixtures::collect_op_latencies(&c, &[node]));
        table.row(vec![
            if remote { "remote (WAN)".into() } else { "local".to_string() },
            lat.count.to_string(),
            f2(lat.mean_ms),
            f2(lat.p50_ms),
            f2(lat.p95_ms),
        ]);
    }
    table.note("remote access pays ~2x WAN latency + ORB hop per op; throughput follows 1/latency in closed loop");
    table
}

/// E6: application/service discovery and remote authentication overheads
/// versus the size of the server network (§7).
pub fn e6_discovery_auth() -> Table {
    let mut table = Table::new(
        "E6",
        "discovery and remote authentication overhead",
        "\"we are also measuring the overheads incurred for application/service discovery and for remote authentication\" (§7)",
        &["servers", "auth_calls", "global_list_ms", "trader_queries", "directory_util"],
    );
    for &s in &[2usize, 4, 8, 16] {
        let mut b = CollaboratoryBuilder::new(600 + s as u64);
        let servers: Vec<_> = (0..s).map(|i| b.server(&format!("server{i}"))).collect();
        b.mesh_servers(simnet::LinkSpec::wan());
        let acl = [("probe", Privilege::ReadOnly)];
        for (i, &srv) in servers.iter().enumerate() {
            b.application(
                srv,
                synthetic_app(1, u64::MAX),
                quiet_app_config(&format!("app{i}"), &acl),
            );
        }
        let mut cfg = PortalConfig::new("probe");
        cfg.login_delay = SimDuration::from_millis(300);
        let node = b.portal(servers[0], "probe", cfg);
        let mut c = b.build();
        c.engine.run_until(SimTime::from_secs(20));

        let p = c.engine.actor_ref::<Portal>(node).unwrap();
        // Login was posted at t=300ms; the global list is complete when an
        // Apps/LoginOk response first contains all S applications.
        let login_at = SimTime::ZERO + SimDuration::from_millis(300);
        let complete_at = p.received.iter().find_map(|(t, m)| match m {
            ClientMessage::Response(ResponseBody::Apps(apps))
            | ClientMessage::Response(ResponseBody::LoginOk { apps, .. })
                if apps.len() >= s =>
            {
                Some(*t)
            }
            _ => None,
        });
        let global_ms =
            complete_at.map(|t| t.since(login_at).as_micros() as f64 / 1000.0).unwrap_or(f64::NAN);
        let auth_calls = c.engine.stats().counter("substrate.remote_auth.calls");
        let queries = c.engine.stats().counter("substrate.discovery.queries");
        let dir_util = c.engine.node_utilization(c.directory);
        table.row(vec![
            s.to_string(),
            auth_calls.to_string(),
            f2(global_ms),
            queries.to_string(),
            format!("{dir_util:.4}"),
        ]);
    }
    table.note("remote auth fans out once per peer (S-1 calls); global-list time grows with S but stays one WAN RTT-bound round");
    table
}
