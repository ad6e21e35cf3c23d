//! E20: million-client discovery — the sharded + cached directory plane
//! under a 10^4..10^6-client population.
//!
//! The paper's pitch is *global* access: "a collaboratory that spans
//! many servers and a very large, geographically distributed user
//! community". One simulation actor per client stops scaling long
//! before that, so this experiment uses **aggregated client actors**:
//! a fixed pool of closed-loop portals carries the wire traffic, and
//! each portal stands in for `k` virtual clients of identical behaviour
//! (the standard trick of load-scaling a closed-loop driver). Wire-level
//! observables — goodput of the sampled ops, discovery-cache hit rate,
//! trader-query coalescing — come from the real simulated traffic; the
//! *placement* observables come from hashing every one of the `N`
//! virtual clients' session keys over the very consistent-hash ring the
//! directory shards by.
//!
//! The sweep runs N = 10^4, 10^5, 10^6 virtual clients over an 8-server
//! WAN mesh with a 4-shard directory and the discovery cache on.
//! Acceptance: per-shard session balance stays within 2x the mean at
//! every tier, the steady-state cache hit rate stays >= 90%, and the
//! whole sweep reproduces byte-for-byte under the same seed.
//!
//! Artifacts: `BENCH_E20.json` at the repo root (stable schema, CI
//! diffs two same-seed runs for byte-identity) and the usual CSV.

use discover_client::{OpMix, Portal, PortalConfig, Workload};
use discover_core::shard::DirectoryRing;
use discover_core::DiscoveryCacheConfig;
use simnet::{SimDuration, SimTime};
use wire::Privilege;

use crate::fixtures;
use crate::report::{f2, BenchSummary, Table};

const E20_SEED: u64 = 2000;
/// WAN-mesh servers, each hosting one interactive application.
const SERVERS: usize = 8;
/// Directory shards on the consistent-hash ring.
const SHARDS: usize = 4;
/// Logins and app selection settle here.
const WARMUP_SECS: u64 = 10;
/// End of the measured window.
const END_SECS: u64 = 40;
/// Client think time between completion and the next issue.
const THINK_MS: u64 = 500;
/// Client poll period (slow: polling is not what E20 measures).
const POLL_MS: u64 = 1_000;

/// One sweep tier: a virtual-client population sampled by a pool of
/// real portal actors.
#[derive(Clone, Copy)]
struct Tier {
    key: &'static str,
    /// Virtual clients this tier models.
    virtual_clients: u64,
    /// Real aggregated portal actors carrying the wire traffic.
    actors: usize,
}

const TIERS: &[Tier] = &[
    Tier { key: "n10k", virtual_clients: 10_000, actors: 16 },
    Tier { key: "n100k", virtual_clients: 100_000, actors: 24 },
    Tier { key: "n1m", virtual_clients: 1_000_000, actors: 32 },
];

/// One tier's observables.
#[derive(Clone, Debug)]
struct ScaleRun {
    key: &'static str,
    virtual_clients: u64,
    actors: usize,
    /// Sampled wire-level goodput: ok completions per second over the
    /// measured window, across the whole portal pool.
    goodput_per_s: f64,
    /// Discovery-cache hit rate over the run (hits / all lookups).
    cache_hit_rate: f64,
    cache_hits: u64,
    cache_misses: u64,
    /// Trader/naming queries actually issued vs coalesced onto an
    /// identical in-flight one.
    dir_queries: u64,
    coalesced: u64,
    /// Per-shard virtual-session placement: max shard load over mean.
    shard_imbalance: f64,
    /// Virtual sessions on the fullest / emptiest shard.
    shard_max: u64,
    shard_min: u64,
}

/// Hash every virtual client's session key over the directory ring and
/// return per-shard counts. This is exactly the placement the sharded
/// session plane would use — the ring is the one the running directory
/// routes by, not a model of it.
fn session_distribution(ring: &DirectoryRing, n: u64) -> Vec<u64> {
    let mut counts = vec![0u64; ring.len()];
    for i in 0..n {
        if let Some(shard) = ring.shard_of(&format!("DISCOVER/sessions/user{i}")) {
            counts[shard] += 1;
        }
    }
    counts
}

fn run_tier(tier: Tier) -> ScaleRun {
    let mut b = discover_core::CollaboratoryBuilder::new(E20_SEED);
    b.directory_shards(SHARDS);
    // Scale operating point: routes are long-lived at this population,
    // so the positive TTL is generous (invalidation, not expiry, is the
    // freshness mechanism that matters here).
    b.substrate_config.discovery_cache =
        Some(DiscoveryCacheConfig { ttl: SimDuration::from_secs(15), ..Default::default() });
    b.substrate_config.discovery_interval = SimDuration::from_secs(5);

    let servers: Vec<_> = (0..SERVERS).map(|i| b.server(&format!("server{i}"))).collect();
    b.mesh_servers(simnet::LinkSpec::wan());

    // One interactive app per server; the shared user population covers
    // the whole portal pool so every portal anchors at its local server
    // and steers the next server's app through the sharded directory.
    let users = fixtures::acl_users(tier.actors, Privilege::ReadWrite);
    let acl: Vec<(&str, Privilege)> = users.iter().map(|(u, p)| (u.as_str(), *p)).collect();
    let apps: Vec<_> = servers
        .iter()
        .enumerate()
        .map(|(i, &srv)| {
            let cfg = fixtures::interactive_app_config(&format!("sim{i}"), &acl);
            b.application(srv, appsim::synthetic_app(2, u64::MAX), cfg).1
        })
        .collect();

    let mut portals = Vec::new();
    for (j, (u, _)) in users.iter().enumerate() {
        let home = j % SERVERS;
        let target = apps[(home + 1) % SERVERS];
        let mut cfg = PortalConfig::new(u)
            .select_app(target)
            .poll_every(SimDuration::from_millis(POLL_MS))
            .workload(Workload::new(
                target,
                OpMix::sensors_only(),
                SimDuration::from_millis(THINK_MS),
            ));
        // Spread logins so the select burst drains inside warmup.
        cfg.login_delay = SimDuration::from_millis(100 + (j as u64 * 131) % 4900);
        portals.push(b.portal(servers[home], &format!("portal{j}"), cfg));
    }

    let mut c = b.build();
    // Steady-state cache counters: snapshot at the end of warmup so the
    // hit rate reflects the measured window, not the cold start.
    c.engine.run_until(SimTime::from_secs(WARMUP_SECS));
    let warm_hits = c.engine.stats().counter("substrate.cache.hits")
        + c.engine.stats().counter("substrate.cache.negative_hits");
    let warm_misses = c.engine.stats().counter("substrate.cache.misses")
        + c.engine.stats().counter("substrate.cache.expired");
    c.engine.run_until(SimTime::from_secs(END_SECS));
    let stats = c.engine.stats();

    let (lo, hi) = (WARMUP_SECS * 1_000_000, END_SECS * 1_000_000);
    let mut ok_in_window = 0u64;
    for &node in &portals {
        let p = c.engine.actor_ref::<Portal>(node).unwrap();
        for &(at, _, ok) in &p.op_completions {
            let t = at.as_micros();
            if ok && t >= lo && t < hi {
                ok_in_window += 1;
            }
        }
    }
    let goodput_per_s = ok_in_window as f64 / (END_SECS - WARMUP_SECS) as f64;

    let cache_hits = stats.counter("substrate.cache.hits")
        + stats.counter("substrate.cache.negative_hits")
        - warm_hits;
    let cache_misses = stats.counter("substrate.cache.misses")
        + stats.counter("substrate.cache.expired")
        - warm_misses;
    let cache_hit_rate = if cache_hits + cache_misses == 0 {
        1.0
    } else {
        cache_hits as f64 / (cache_hits + cache_misses) as f64
    };

    let counts = session_distribution(&c.directory_ring, tier.virtual_clients);
    let max = *counts.iter().max().unwrap_or(&0);
    let min = *counts.iter().min().unwrap_or(&0);
    let mean = tier.virtual_clients as f64 / counts.len() as f64;

    ScaleRun {
        key: tier.key,
        virtual_clients: tier.virtual_clients,
        actors: tier.actors,
        goodput_per_s,
        cache_hit_rate,
        cache_hits,
        cache_misses,
        dir_queries: stats.counter("substrate.discovery.queries"),
        coalesced: stats.counter("substrate.queries.coalesced"),
        shard_imbalance: max as f64 / mean,
        shard_max: max,
        shard_min: min,
    }
}

fn sweep() -> Vec<ScaleRun> {
    TIERS.iter().map(|&t| run_tier(t)).collect()
}

fn summarize(runs: &[ScaleRun]) -> BenchSummary {
    let mut s = BenchSummary::new("e20", E20_SEED);
    for r in runs {
        let key = r.key;
        s.metric_u64(format!("{key}.virtual_clients"), r.virtual_clients);
        s.metric_u64(format!("{key}.actors"), r.actors as u64);
        s.metric_f64(format!("{key}.goodput_per_s"), r.goodput_per_s);
        s.metric_f64(format!("{key}.cache_hit_rate"), r.cache_hit_rate);
        s.metric_u64(format!("{key}.cache_hits"), r.cache_hits);
        s.metric_u64(format!("{key}.cache_misses"), r.cache_misses);
        s.metric_u64(format!("{key}.dir_queries"), r.dir_queries);
        s.metric_u64(format!("{key}.coalesced"), r.coalesced);
        s.metric_f64(format!("{key}.shard_imbalance"), r.shard_imbalance);
        s.metric_u64(format!("{key}.shard_max"), r.shard_max);
        s.metric_u64(format!("{key}.shard_min"), r.shard_min);
    }
    s
}

/// E20: a 10^4..10^6 virtual-client sweep over the sharded + cached
/// discovery plane — balance within 2x mean, hit rate >= 90%,
/// byte-identical reruns.
pub fn e20_million_clients() -> Table {
    let mut table = Table::new(
        "E20",
        "million-client discovery: sharded directory + cache at 10^4..10^6 clients",
        "\"supporting a very large and geographically distributed user community\" (§1) — \
         the seed funnelled every session, lock and lookup through one directory process; \
         sharding by consistent hash bounds any one shard's load and the per-node cache \
         keeps steady-state dispatch off the directory entirely",
        &[
            "tier",
            "virtual",
            "actors",
            "goodput/s",
            "hit_rate",
            "hits",
            "misses",
            "queries",
            "coalesced",
            "imbalance",
            "shard_max",
            "shard_min",
        ],
    );
    let runs = sweep();
    for r in &runs {
        table.row(vec![
            r.key.to_string(),
            r.virtual_clients.to_string(),
            r.actors.to_string(),
            f2(r.goodput_per_s),
            f2(r.cache_hit_rate),
            r.cache_hits.to_string(),
            r.cache_misses.to_string(),
            r.dir_queries.to_string(),
            r.coalesced.to_string(),
            f2(r.shard_imbalance),
            r.shard_max.to_string(),
            r.shard_min.to_string(),
        ]);
    }

    // Acceptance: the sweep reaches >= 10^5 virtual clients and every
    // tier keeps per-shard placement within 2x the mean.
    let top = runs.iter().map(|r| r.virtual_clients).max().unwrap_or(0);
    let balanced = runs.iter().all(|r| r.shard_imbalance <= 2.0 && r.shard_min > 0);
    table.note(if top >= 100_000 && balanced {
        format!(
            "balance: swept to {top} virtual clients with every shard within 2x mean \
             (worst imbalance {:.3})",
            runs.iter().map(|r| r.shard_imbalance).fold(0.0, f64::max)
        )
    } else {
        "balance VIOLATION: a tier left the 2x-mean envelope or an empty shard".to_string()
    });

    // Acceptance: the cache carries steady-state dispatch.
    let hot = runs.iter().all(|r| r.cache_hit_rate >= 0.90);
    table.note(if hot {
        format!(
            "cache: steady-state hit rate >= 90% at every tier (min {:.3})",
            runs.iter().map(|r| r.cache_hit_rate).fold(1.0, f64::min)
        )
    } else {
        "cache VIOLATION: a tier's hit rate fell below 90%".to_string()
    });

    let summary = summarize(&runs);
    // Determinism: the full sweep re-run under the same seeds must
    // reproduce the summary byte for byte.
    let again = sweep();
    table.note(if summarize(&again).to_json() == summary.to_json() {
        "determinism: two same-seed sweeps produced byte-identical BENCH_E20.json contents"
            .to_string()
    } else {
        "determinism VIOLATION: same-seed sweeps disagree".to_string()
    });
    summary.write_repo_root(&mut table);
    table.note(format!(
        "aggregation: each portal actor stands in for virtual_clients/actors identical \
         closed-loop clients; wire observables are the sampled pool's real traffic, \
         placement hashes all N session keys over the live directory ring \
         ({SERVERS} servers, {SHARDS} shards, window {WARMUP_SECS}-{END_SECS} s)",
    ));
    table
}
