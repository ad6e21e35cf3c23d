//! The server, substrate and portal settings a scenario runs under.
//!
//! A family describes a traffic shape; [`Features`] says which optional
//! planes the stack runs it with. [`Features::apply`] and
//! [`Features::portal`] are the only places those settings reach
//! `ServerConfig`, `SubstrateConfig`, the directory ring and
//! `PortalConfig`. Oracles key on a feature being on, not on the family
//! that turned it on (the differential oracle, which defines the
//! `composed` family, aside).

use discover_client::{PortalConfig, PRODUCTION_DEADLINE};
use discover_core::{
    CollaboratoryBuilder, DiscoveryCacheConfig, ServerConfig, SubstrateConfig,
    PRODUCTION_DIRECTORY_SHARDS,
};
use rand::rngs::StdRng;
use rand::Rng;
use simnet::SimDuration;
use wire::ServerAddr;

use crate::Mutation;

/// Session leases: silence parks a session, the park TTL reclaims it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Leases {
    /// Server `session_idle_timeout` (silence before parking).
    pub idle_timeout: SimDuration,
    /// Server `session_park_ttl` (parked grace before reclaim).
    pub park_ttl: SimDuration,
    /// Server resume admission limit per accounting second, if paced.
    pub resume_rate: Option<u32>,
}

/// The sharded, cached discovery plane.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Discovery {
    /// Number of directory shards on the consistent-hash ring.
    pub dir_shards: usize,
    /// Positive cache-entry TTL.
    pub cache_ttl: SimDuration,
    /// Negative cache-entry TTL.
    pub negative_ttl: SimDuration,
}

/// Every setting a run varies beyond its traffic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Features {
    /// Steering-lock lease (holder-inactivity bound).
    pub lock_lease: SimDuration,
    /// Session leases; `None` leaves idle reaping off, so a quiet
    /// scripted session is never torn down under the oracles' feet.
    pub leases: Option<Leases>,
    /// FIFO update coalescing. Only superseded view-class updates may
    /// merge, so every oracle must hold in both positions.
    pub coalesce_fifo: bool,
    /// Archive snapshot interval in records.
    pub snapshot_every: Option<u64>,
    /// Compact closed archive segments (meaningful with snapshots).
    pub compact_closed_segments: bool,
    /// Rebuild each hosted app from its archive when a server restarts.
    pub recover_from_archive: bool,
    /// Admission control: view operations in flight per server.
    pub admission_inflight_max: Option<usize>,
    /// Bound on each application's compute-phase Daemon buffer.
    pub proxy_buffer_capacity: Option<usize>,
    /// Served GIOP requests per peer per second.
    pub peer_rate_limit: Option<u32>,
    /// The sharded, cached discovery plane (its event recorder on).
    pub discovery: Option<Discovery>,
    /// Portals stamp every operation with a `now + budget` deadline.
    pub deadline: Option<SimDuration>,
}

impl Features {
    /// The paper's stack: every optional plane off, under the checker's
    /// 8 s steering-lock lease.
    pub fn paper() -> Features {
        Features {
            lock_lease: SimDuration::from_secs(8),
            leases: None,
            coalesce_fifo: false,
            snapshot_every: None,
            compact_closed_segments: false,
            recover_from_archive: false,
            admission_inflight_max: None,
            proxy_buffer_capacity: None,
            peer_rate_limit: None,
            discovery: None,
            deadline: None,
        }
    }

    /// The deployable configuration: every plane `ServerConfig::production`
    /// and `SubstrateConfig::production` turn on, over
    /// `PRODUCTION_DIRECTORY_SHARDS` directory shards, with portals that
    /// resume and stamp `PRODUCTION_DEADLINE`.
    pub fn production() -> Features {
        let server = ServerConfig::production(ServerAddr(0), "production");
        let leases = server.session_idle_timeout.zip(server.session_park_ttl);
        let cache = SubstrateConfig::production().discovery_cache;
        Features {
            leases: leases.map(|(idle_timeout, park_ttl)| Leases {
                idle_timeout,
                park_ttl,
                resume_rate: server.resume_rate_limit,
            }),
            coalesce_fifo: server.coalesce_fifo,
            snapshot_every: server.snapshot_every,
            compact_closed_segments: server.compact_closed_segments,
            recover_from_archive: server.recover_from_archive,
            admission_inflight_max: server.admission_inflight_max,
            proxy_buffer_capacity: server.proxy_buffer_capacity,
            peer_rate_limit: server.peer_rate_limit,
            discovery: cache.map(|c| Discovery {
                dir_shards: PRODUCTION_DIRECTORY_SHARDS,
                cache_ttl: c.ttl,
                negative_ttl: c.negative_ttl,
            }),
            deadline: Some(PRODUCTION_DEADLINE),
            ..Features::paper()
        }
    }

    /// `base` with the planes it leaves off taken from these features —
    /// all of them, or a seeded subset (each kept with probability ½)
    /// when `rng` is given. `base` keeps its lock lease.
    pub fn under(self, base: Features, mut rng: Option<&mut StdRng>) -> Features {
        let mut keep = || rng.as_mut().is_none_or(|rng| rng.gen_bool(0.5));
        Features {
            lock_lease: base.lock_lease,
            leases: base.leases.or(self.leases.filter(|_| keep())),
            coalesce_fifo: base.coalesce_fifo || self.coalesce_fifo && keep(),
            snapshot_every: base.snapshot_every.or(self.snapshot_every.filter(|_| keep())),
            compact_closed_segments: base.compact_closed_segments
                || self.compact_closed_segments && keep(),
            recover_from_archive: base.recover_from_archive || self.recover_from_archive && keep(),
            admission_inflight_max: base
                .admission_inflight_max
                .or(self.admission_inflight_max.filter(|_| keep())),
            proxy_buffer_capacity: base
                .proxy_buffer_capacity
                .or(self.proxy_buffer_capacity.filter(|_| keep())),
            peer_rate_limit: base.peer_rate_limit.or(self.peer_rate_limit.filter(|_| keep())),
            discovery: base.discovery.or(self.discovery.filter(|_| keep())),
            deadline: base.deadline.or(self.deadline.filter(|_| keep())),
        }
    }

    /// Configure a run: the directory ring and substrate of `b`, and every
    /// server it creates afterwards (which also runs `mutation`). Call it
    /// before the first server.
    pub fn apply(self, b: &mut CollaboratoryBuilder, mutation: Option<Mutation>) {
        if let Some(d) = self.discovery {
            b.directory_shards(d.dir_shards);
            b.substrate_config.discovery_cache =
                Some(DiscoveryCacheConfig { ttl: d.cache_ttl, negative_ttl: d.negative_ttl });
        }
        b.tweak_servers(move |cfg| {
            cfg.lock_lease = Some(self.lock_lease);
            cfg.session_idle_timeout = self.leases.map(|l| l.idle_timeout);
            cfg.session_park_ttl = self.leases.map(|l| l.park_ttl);
            cfg.resume_rate_limit = self.leases.and_then(|l| l.resume_rate);
            cfg.coalesce_fifo = self.coalesce_fifo;
            cfg.snapshot_every = self.snapshot_every;
            cfg.compact_closed_segments = self.compact_closed_segments;
            cfg.recover_from_archive = self.recover_from_archive;
            cfg.admission_inflight_max = self.admission_inflight_max;
            cfg.proxy_buffer_capacity = self.proxy_buffer_capacity;
            cfg.peer_rate_limit = self.peer_rate_limit;
            cfg.mutation = mutation;
        });
    }

    /// A portal's share of the features. A portal resumes whenever its
    /// server may park its session or drop it in a restart.
    pub fn portal(self, mut cfg: PortalConfig) -> PortalConfig {
        cfg.resume = self.leases.is_some() || self.recover_from_archive;
        cfg.deadline = self.deadline;
        cfg
    }
}
