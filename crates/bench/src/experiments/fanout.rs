//! E14: collaboration broadcast throughput — the encode-once fan-out.
//!
//! The paper's collaboration handler multiplies serialization cost by
//! group size: every steering update is broadcast to all N local group
//! members and pushed to every subscribed peer server, and the seed
//! implementation serialized (and size-counted) each outgoing copy
//! independently. The frozen-payload path serializes a broadcast exactly
//! once; every fan-out target shares the same `Bytes` handle.
//!
//! One hot application broadcasts status updates to a viewer group swept
//! over size (1/8/64/512) and server count (1–5, viewers round-robin
//! across the mesh). Counters are measured over a steady-state window
//! (after login/subscription warmup) so the per-broadcast arithmetic is
//! exact: `wire.encode_calls` per broadcast must be 1 regardless of
//! group size, while `server.fanout_payload_reuse` per broadcast grows
//! with N+M.
//!
//! Artifacts: `BENCH_E14.json` at the repo root (stable schema, CI diffs
//! two same-seed runs for byte-identity) and the usual CSV.

use appsim::synthetic_app;
use discover_client::{Portal, PortalConfig};
use discover_core::CollaboratoryBuilder;
use simnet::{names, SimDuration, SimTime};
use wire::{codec, ClientMessage, Privilege};

use crate::fixtures;
use crate::report::{f2, BenchSummary, Table};

const FANOUT_SEED: u64 = 1400;
/// Length of the steady-state measurement window.
const MEASURE_SECS: u64 = 30;

/// When the steady-state window starts. Joining a group broadcasts a
/// `MemberJoined` to every current member, so warmup must absorb an
/// O(N²) join storm — the 512-viewer configuration needs substantially
/// longer than the rest to drain it through the poll channel.
fn warmup_secs(collabs: usize) -> u64 {
    if collabs >= 256 {
        60
    } else {
        20
    }
}

/// Poll period: the 512-viewer configuration polls at a quarter of the
/// standard rate so the single simulated server CPU is not saturated by
/// poll traffic alone (we are measuring serialization arithmetic, not
/// overload behaviour — E2 covers that).
fn poll_every(collabs: usize) -> SimDuration {
    if collabs >= 256 {
        SimDuration::from_secs(4)
    } else {
        SimDuration::from_secs(1)
    }
}

/// Counter deltas over one configuration's measurement window.
#[derive(Clone, Debug, PartialEq)]
struct FanoutRun {
    collabs: usize,
    servers: usize,
    broadcasts: u64,
    encode_calls: u64,
    bytes_encoded: u64,
    reuse: u64,
    len_walks: u64,
    splices: u64,
    pool_hits: u64,
    pool_misses: u64,
    delivered: u64,
}

impl FanoutRun {
    fn encodes_per_broadcast(&self) -> f64 {
        self.encode_calls as f64 / self.broadcasts.max(1) as f64
    }
    fn reuse_per_broadcast(&self) -> f64 {
        self.reuse as f64 / self.broadcasts.max(1) as f64
    }
    /// What the seed implementation would have serialized: one DBP walk
    /// per fan-out target instead of one per broadcast.
    fn old_encodes_per_broadcast(&self) -> f64 {
        self.reuse_per_broadcast()
    }
}

fn run_fanout(collabs: usize, servers: usize) -> FanoutRun {
    let mut b = CollaboratoryBuilder::new(FANOUT_SEED + (collabs * 10 + servers) as u64);
    let handles: Vec<_> = (0..servers).map(|i| b.server(&format!("server{i}"))).collect();
    if servers > 1 {
        b.mesh_servers(simnet::LinkSpec::wan());
    }
    let users = fixtures::acl_users(collabs, Privilege::ReadOnly);
    let acl: Vec<(&str, Privilege)> = users.iter().map(|(u, p)| (u.as_str(), *p)).collect();
    // The broadcasting app at server0: 2 status updates per second keeps
    // the event count tractable at 512 viewers while the measurement
    // window still sees ~60 broadcasts.
    let mut app_cfg = fixtures::hot_app_config("app0", &acl);
    app_cfg.batch_time = SimDuration::from_millis(500);
    let (_, app) = b.application(handles[0], synthetic_app(2, u64::MAX), app_cfg);
    // Anchor apps so viewers can log in at the other servers.
    for (i, &srv) in handles.iter().enumerate().skip(1) {
        b.application(
            srv,
            synthetic_app(1, u64::MAX),
            fixtures::quiet_app_config(&format!("anchor{i}"), &acl),
        );
    }
    // Viewers round-robin across servers, all watching app0.
    let mut viewers = Vec::new();
    for (i, (u, _)) in users.iter().enumerate() {
        let srv = handles[i % servers];
        let mut cfg = PortalConfig::new(u).select_app(app).poll_every(poll_every(collabs));
        // Spread logins across the first ~8 s so the warmup window
        // absorbs the select/MemberJoined burst even at 512 viewers.
        cfg.login_delay = SimDuration::from_millis(200 + (i as u64 * 15) % 7800);
        viewers.push(b.portal(srv, &format!("viewer{i}"), cfg));
    }
    let mut c = b.build();

    // Warmup: logins, remote-privilege resolution and peer subscriptions
    // all settle; then snapshot both counter families and measure a
    // steady-state window where every `FrozenUpdate` freeze is a
    // broadcast origin.
    let warmup = warmup_secs(collabs);
    c.engine.run_until(SimTime::from_secs(warmup));
    let wire0 = codec::stats();
    let bcast0 = c.engine.stats().counter(names::SERVER_COLLAB_BROADCASTS.key());
    let reuse0 = c.engine.stats().counter(names::SERVER_FANOUT_PAYLOAD_REUSE.key());
    let mark = SimTime::from_secs(warmup);
    c.engine.run_until(SimTime::from_secs(warmup + MEASURE_SECS));
    let wire1 = codec::stats();
    let stats = c.engine.stats();

    let mut delivered = 0u64;
    for &node in &viewers {
        let p = c.engine.actor_ref::<Portal>(node).unwrap();
        delivered += p
            .received
            .iter()
            .filter(|(at, m)| {
                *at >= mark && matches!(m, ClientMessage::Update(u) if u.app() == app)
            })
            .count() as u64;
    }
    FanoutRun {
        collabs,
        servers,
        broadcasts: stats.counter(names::SERVER_COLLAB_BROADCASTS.key()) - bcast0,
        encode_calls: wire1.encode_calls - wire0.encode_calls,
        bytes_encoded: wire1.bytes_encoded - wire0.bytes_encoded,
        reuse: stats.counter(names::SERVER_FANOUT_PAYLOAD_REUSE.key()) - reuse0,
        len_walks: wire1.len_walks - wire0.len_walks,
        splices: wire1.payload_splices - wire0.payload_splices,
        pool_hits: wire1.pool_hits - wire0.pool_hits,
        pool_misses: wire1.pool_misses - wire0.pool_misses,
        delivered,
    }
}

/// The sweep: group size at one server, then server count at a fixed
/// 16-viewer group.
const CONFIGS: [(usize, usize); 8] =
    [(1, 1), (8, 1), (64, 1), (512, 1), (16, 2), (16, 3), (16, 4), (16, 5)];

fn summarize(runs: &[FanoutRun]) -> BenchSummary {
    let mut s = BenchSummary::new("e14", FANOUT_SEED);
    for r in runs {
        let key = format!("g{}_s{}", r.collabs, r.servers);
        s.metric_u64(format!("{key}.broadcasts"), r.broadcasts);
        s.metric_u64(format!("{key}.encode_calls"), r.encode_calls);
        s.metric_u64(format!("{key}.bytes_encoded"), r.bytes_encoded);
        s.metric_u64(format!("{key}.payload_reuse"), r.reuse);
        s.metric_u64(format!("{key}.len_walks"), r.len_walks);
        s.metric_u64(format!("{key}.payload_splices"), r.splices);
        s.metric_u64(format!("{key}.updates_delivered"), r.delivered);
        s.metric_f64(format!("{key}.encodes_per_broadcast"), r.encodes_per_broadcast());
        s.metric_f64(format!("{key}.reuse_per_broadcast"), r.reuse_per_broadcast());
    }
    let hits: u64 = runs.iter().map(|r| r.pool_hits).sum();
    let misses: u64 = runs.iter().map(|r| r.pool_misses).sum();
    s.metric_f64("pool.hit_rate", hits as f64 / (hits + misses).max(1) as f64);
    s
}

/// E14: encode calls per broadcast stay at 1 while fan-out reuse grows
/// with group size and peer count.
pub fn e14_broadcast_fanout() -> Table {
    let mut table = Table::new(
        "E14",
        "broadcast fan-out: one DBP serialization per update, shared by every target",
        "\"information must be broadcast to all the members of the application's collaboration group\" (§ Collaboration handler) — the seed paid one serializer walk per member; the frozen payload pays one per broadcast",
        &[
            "collabs", "servers", "broadcasts", "encodes", "enc/bcast", "reuse/bcast",
            "old_enc/bcast", "delivered", "kB_encoded",
        ],
    );
    let runs: Vec<FanoutRun> = CONFIGS.iter().map(|&(g, s)| run_fanout(g, s)).collect();
    for r in &runs {
        table.row(vec![
            r.collabs.to_string(),
            r.servers.to_string(),
            r.broadcasts.to_string(),
            r.encode_calls.to_string(),
            f2(r.encodes_per_broadcast()),
            f2(r.reuse_per_broadcast()),
            f2(r.old_encodes_per_broadcast()),
            r.delivered.to_string(),
            f2(r.bytes_encoded as f64 / 1024.0),
        ]);
    }
    let exact = runs.iter().all(|r| r.broadcasts > 0 && r.encode_calls == r.broadcasts);
    table.note(if exact {
        "encode-once: every configuration serialized each broadcast exactly once (encodes == broadcasts), independent of group size and server count".to_string()
    } else {
        "encode-once VIOLATION: some configuration re-serialized a broadcast".to_string()
    });
    let summary = summarize(&runs);
    // Determinism: the full sweep re-run under the same seeds must
    // reproduce the summary byte for byte (the optimisation may only be
    // visible in counters and wall-clock, never in the schedule).
    let again: Vec<FanoutRun> = CONFIGS.iter().map(|&(g, s)| run_fanout(g, s)).collect();
    table.note(if summarize(&again).to_json() == summary.to_json() {
        "determinism: two same-seed sweeps produced byte-identical BENCH_E14.json contents"
            .to_string()
    } else {
        "determinism VIOLATION: same-seed sweeps disagree".to_string()
    });
    summary.write_repo_root(&mut table);
    table.note("reuse/bcast tracks N+M+2 (N local fifos, M peer pushes, host log + archive); the seed would have run that many serializer walks per update");
    table
}
