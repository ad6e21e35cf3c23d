//! Scenario model and seeded generators.
//!
//! A [`Scenario`] is a fully explicit description of one randomized run:
//! every client action, every harness intervention and every fault
//! carries an absolute millisecond timestamp, so a scenario can be
//! replayed, mutated by the shrinker, and printed as a bug report. A
//! family's generator ([`Scenario::generate`]) draws a traffic shape and
//! the [`Features`] it runs under from a single `u64` seed via the
//! deterministic `StdRng`, so the same seed always yields the same
//! scenario.
//!
//! Generation constraints keep the oracles sound and tractable:
//!
//! * actions of one user are spaced ≥ 1.5 s apart — wider than webserv's
//!   retry/poll jitter, so each user's k-th request of a kind matches
//!   their k-th response of that kind;
//! * total lock operations are capped (the linearizability search is
//!   exponential in the worst case);
//! * the replay family only crashes non-host servers (the archive's host
//!   must stay reachable for the latecomer's local catch-up path).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::SimDuration;
use wire::Privilege;

use crate::features::{Discovery, Features, Leases};
use crate::Mutation;

/// Which traffic shape a scenario runs, and so which oracles it aims at
/// (each generator's doc says how).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Family {
    /// Contended steering locks across servers: linearizability.
    Locks,
    /// Mixed-privilege operations and mid-run revocations: ACL.
    Acl,
    /// A bounded application and a latecomer viewer: archive replay.
    Replay,
    /// Staggered disconnects under session leases: reclaim, resume replay.
    Churn,
    /// A synchronized mass rejoin under a resume rate limit: pacing,
    /// goodput, recovery.
    FlashCrowd,
    /// One long-parked consumer returning late: bounded parked-FIFO shed
    /// work and resume replay.
    SlowConsumer,
    /// A snapshotting archive and a host crash with restart from the
    /// archive: snapshot cadence, folds and catch-up replies.
    Recovery,
    /// Cache-poisoning churn over the sharded, cached directory:
    /// directory consistency.
    Discovery,
    /// One of the eight shapes above, picked by the seed and drawn by that
    /// shape's own generator, under [`Features::production`] or a seeded
    /// subset of it: every oracle, plus the differential one against the
    /// same scenario on the paper's stack.
    Composed,
}

impl Family {
    /// All families, in canonical order.
    pub const ALL: [Family; 9] = [
        Family::Locks,
        Family::Acl,
        Family::Replay,
        Family::Churn,
        Family::FlashCrowd,
        Family::SlowConsumer,
        Family::Recovery,
        Family::Discovery,
        Family::Composed,
    ];

    /// Stable lowercase name (CLI + logs).
    pub fn name(self) -> &'static str {
        match self {
            Family::Locks => "locks",
            Family::Acl => "acl",
            Family::Replay => "replay",
            Family::Churn => "churn",
            Family::FlashCrowd => "flashcrowd",
            Family::SlowConsumer => "slowconsumer",
            Family::Recovery => "recovery",
            Family::Discovery => "discovery",
            Family::Composed => "composed",
        }
    }
}

/// One client-side action in a user's script.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ActionKind {
    /// Request the steering lock.
    Acquire,
    /// Release the steering lock.
    Release,
    /// Read-only status fetch.
    GetStatus,
    /// Read-only sensor fetch.
    GetSensors,
    /// Mutating parameter write (requires ReadWrite).
    SetParam,
    /// Lifecycle command (requires Steer).
    Command,
    /// Snapshot-aware archive catch-up from sequence 0 (nearest
    /// snapshot + tail instead of a full-log replay).
    CatchUp,
}

impl ActionKind {
    /// Stable short name for logs.
    pub fn name(self) -> &'static str {
        match self {
            ActionKind::Acquire => "acquire",
            ActionKind::Release => "release",
            ActionKind::GetStatus => "getStatus",
            ActionKind::GetSensors => "getSensors",
            ActionKind::SetParam => "setParam",
            ActionKind::Command => "command",
            ActionKind::CatchUp => "catchUp",
        }
    }
}

/// A timestamped action.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Action {
    /// When the portal issues the request (ms since sim start).
    pub at_ms: u64,
    /// What it issues.
    pub kind: ActionKind,
}

/// One simulated user: identity, grant, home server and traffic.
#[derive(Clone, PartialEq, Debug)]
pub struct UserSpec {
    /// Login name (also the portal actor name).
    pub name: String,
    /// Grant on the scenario's main application; `None` means the user
    /// can log in (they are on the anchor app's ACL) but holds no grant
    /// on the main app, so every op on it must be denied.
    pub privilege: Option<Privilege>,
    /// Index of the user's home server (0 = the app's host).
    pub server: usize,
    /// Timestamped request script.
    pub actions: Vec<Action>,
    /// Selects the main app at login and runs a closed-loop sensor-read
    /// workload, so completion times feed the goodput and recovery
    /// oracles.
    pub closed_loop: bool,
}

/// What the harness does out of band, between run steps.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum AdminKind {
    /// Prime `gateway`'s discovery cache with a route sending the main
    /// app's traffic to `wrong` — a live server that does not host the
    /// app. The wrong host answers `NoSuchApp`, which must invalidate the
    /// poisoned entry; re-serving it afterwards is exactly the bug the
    /// discovery oracle catches. (Ordered first: at one instant a plant
    /// lands before a revocation.)
    PlantStaleRoute {
        /// Index of the server whose cache is poisoned (never the host).
        gateway: usize,
        /// Index of the server the stale route points at (live, not the
        /// host, not the gateway).
        wrong: usize,
    },
    /// The security manager revokes this user's grant at the host.
    Revoke(String),
}

/// An out-of-band harness action.
#[derive(Clone, PartialEq, Debug)]
pub struct AdminAction {
    /// When it lands (ms since sim start).
    pub at_ms: u64,
    /// What it does.
    pub kind: AdminKind,
}

/// One server crash with restart.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CrashSpec {
    /// Index of the server to crash.
    pub server: usize,
    /// Crash instant (ms).
    pub at_ms: u64,
    /// Restart instant (ms).
    pub restart_ms: u64,
}

/// One timed bidirectional partition between two servers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PartitionSpec {
    /// First server index.
    pub a: usize,
    /// Second server index.
    pub b: usize,
    /// Partition start (ms).
    pub from_ms: u64,
    /// Partition heal (ms).
    pub until_ms: u64,
}

/// One client disconnect: the user's portal is partitioned from its
/// server for a window, during which the server's lease machinery parks
/// (and possibly reclaims) the session.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DisconnectSpec {
    /// Index of the disconnected user in `Scenario::users`.
    pub user: usize,
    /// Partition start (ms).
    pub from_ms: u64,
    /// Partition heal (ms); `None` = the client never returns, so only
    /// the park-TTL reclaim can free its server-side state.
    pub until_ms: Option<u64>,
}

/// The fault schedule composed with a scenario.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FaultSpec {
    /// Server crashes.
    pub crashes: Vec<CrashSpec>,
    /// Server-to-server partitions.
    pub partitions: Vec<PartitionSpec>,
    /// Client disconnect windows.
    pub disconnects: Vec<DisconnectSpec>,
    /// A crash of the directory shard owning the main app's naming key:
    /// `(crash_ms, restart_ms)`. Trader/resolve queries in the window go
    /// unanswered mid-query.
    pub dir_crash: Option<(u64, u64)>,
}

/// The latecomer viewer of a replay scenario.
#[derive(Clone, PartialEq, Debug)]
pub struct Latecomer {
    /// Login name of the latecomer.
    pub user: String,
    /// When they join and issue their first catch-up fetch (ms).
    pub join_ms: u64,
}

/// A complete, explicit description of one randomized run.
#[derive(Clone, PartialEq, Debug)]
pub struct Scenario {
    /// The seed that generated (and names) this scenario.
    pub seed: u64,
    /// Which family generated it.
    pub family: Family,
    /// Number of servers in the mesh (host = index 0).
    pub n_servers: usize,
    /// Users and their traffic.
    pub users: Vec<UserSpec>,
    /// Mid-run harness actions.
    pub admin: Vec<AdminAction>,
    /// Fault schedule.
    pub faults: FaultSpec,
    /// Simulated run length, ms.
    pub horizon_ms: u64,
    /// Kernel iterations before the main app terminates; `None` = the
    /// app runs past the horizon (locks/acl families).
    pub app_iterations: Option<u64>,
    /// Latecomer viewer (replay family only).
    pub latecomer: Option<Latecomer>,
    /// The server, substrate and portal settings the run turns on.
    pub features: Features,
    /// The seeded bug every server runs with (mutation check: the
    /// oracle [`crate::mutation_case`] names must catch it). `None` in
    /// every generated scenario.
    pub mutation: Option<Mutation>,
}

/// `n` milliseconds.
const fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// `d` in whole milliseconds, as scenarios are written.
fn millis(d: SimDuration) -> u64 {
    d.as_micros() / 1000
}

/// Minimum spacing between one user's consecutive actions, ms.
const MIN_GAP_MS: u64 = 1500;
/// Maximum spacing between one user's consecutive actions, ms.
const MAX_GAP_MS: u64 = 3000;
/// First action no earlier than this (login + app registration settle).
const FIRST_ACTION_MS: u64 = 1500;
/// Cap on lock operations per scenario (linearizability search budget).
const MAX_LOCK_OPS: usize = 24;

/// A script of `n` actions: the first within `MIN_GAP_MS` of
/// `FIRST_ACTION_MS`, each later one `MIN_GAP_MS..=MAX_GAP_MS` after the
/// one before; `kind` draws action `i`'s kind.
fn script(
    rng: &mut StdRng,
    n: usize,
    mut kind: impl FnMut(&mut StdRng, usize) -> ActionKind,
) -> Vec<Action> {
    let mut at = FIRST_ACTION_MS + rng.gen_range(0..MIN_GAP_MS);
    let mut actions = Vec::new();
    for i in 0..n {
        actions.push(Action { at_ms: at, kind: kind(rng, i) });
        at += rng.gen_range(MIN_GAP_MS..=MAX_GAP_MS);
    }
    actions
}

/// The last scripted action's time, ms.
fn last_action_ms(users: &[UserSpec]) -> u64 {
    users.iter().flat_map(|u| u.actions.iter().map(|a| a.at_ms)).max().unwrap_or(FIRST_ACTION_MS)
}

impl UserSpec {
    fn scripted(
        name: String,
        privilege: Option<Privilege>,
        server: usize,
        actions: Vec<Action>,
    ) -> Self {
        UserSpec { name, privilege, server, actions, closed_loop: false }
    }

    /// A churn user: no script, a closed-loop sensor-read workload
    /// instead.
    fn closed_loop(name: String, server: usize) -> Self {
        let privilege = Some(Privilege::ReadWrite);
        UserSpec { name, privilege, server, actions: Vec::new(), closed_loop: true }
    }
}

impl Scenario {
    /// The base every scenario names its differences from: one server,
    /// nobody scripted, no faults, the paper's stack.
    fn quiet(seed: u64, family: Family) -> Scenario {
        Scenario {
            seed,
            family,
            n_servers: 1,
            users: Vec::new(),
            admin: Vec::new(),
            faults: FaultSpec::default(),
            horizon_ms: 0,
            app_iterations: None,
            latecomer: None,
            features: Features::paper(),
            mutation: None,
        }
    }

    /// Generate the scenario for `(family, seed)`.
    pub fn generate(family: Family, seed: u64) -> Scenario {
        // Salt the stream per family so families explore independent
        // schedules even for equal seeds.
        let salt = match family {
            Family::Locks => 0x4c4f_434b,
            Family::Acl => 0x41_434c,
            Family::Replay => 0x5245_504c,
            Family::Churn => 0x4348_5552,
            Family::FlashCrowd => 0x464c_4153,
            Family::SlowConsumer => 0x534c_4f57,
            Family::Recovery => 0x5245_4356,
            Family::Discovery => 0x4449_5343,
            Family::Composed => 0x434f_4d50,
        };
        let mut rng = StdRng::seed_from_u64(seed ^ salt);
        match family {
            Family::Locks => Self::gen_locks(seed, &mut rng),
            Family::Acl => Self::gen_acl(seed, &mut rng),
            Family::Replay => Self::gen_replay(seed, &mut rng),
            Family::Churn => Self::gen_churn(seed, &mut rng),
            Family::FlashCrowd => Self::gen_flashcrowd(seed, &mut rng),
            Family::SlowConsumer => Self::gen_slowconsumer(seed, &mut rng),
            Family::Recovery => Self::gen_recovery(seed, &mut rng),
            Family::Discovery => Self::gen_discovery(seed, &mut rng),
            Family::Composed => Self::gen_composed(seed, &mut rng),
        }
    }

    /// A traffic shape under the production profile, or under a seeded
    /// subset of it half the time. The shape's own settings win where it
    /// has any: its horizon and oracle budgets were drawn for them.
    fn gen_composed(seed: u64, rng: &mut StdRng) -> Scenario {
        let shape = Family::ALL[rng.gen_range(0..Family::ALL.len() - 1)];
        let subset = rng.gen_bool(0.5);
        let s = Scenario::generate(shape, seed);
        let features = Features::production().under(s.features, subset.then_some(rng));
        Scenario { family: Family::Composed, features, ..s }
    }

    /// Lock-contention workload: every user may steer, so the lock is
    /// the contended resource. Crashing the host is allowed — simnet
    /// restarts preserve server state, so the lock must stay coherent
    /// across the outage.
    fn gen_locks(seed: u64, rng: &mut StdRng) -> Scenario {
        let n_servers = rng.gen_range(2usize..=3);
        let n_users = rng.gen_range(2usize..=4);
        let mut users = Vec::new();
        let mut lock_ops = 0usize;
        for u in 0..n_users {
            let n_actions = rng.gen_range(3usize..=6);
            let actions = script(rng, n_actions, |rng, _| {
                let kind = match rng.gen_range(0u32..100) {
                    0..=39 if lock_ops < MAX_LOCK_OPS => ActionKind::Acquire,
                    40..=69 if lock_ops < MAX_LOCK_OPS => ActionKind::Release,
                    70..=84 => ActionKind::SetParam,
                    _ => ActionKind::GetStatus,
                };
                if matches!(kind, ActionKind::Acquire | ActionKind::Release) {
                    lock_ops += 1;
                }
                kind
            });
            let steer = Some(Privilege::Steer);
            users.push(UserSpec::scripted(format!("u{u}"), steer, u % n_servers, actions));
        }
        let horizon_ms = last_action_ms(&users) + 8000;
        let mut faults = FaultSpec::default();
        if rng.gen_bool(0.5) {
            // Any server may crash, including the lock's host.
            let server = rng.gen_range(0..n_servers);
            let at_ms = rng.gen_range(horizon_ms / 4..horizon_ms / 2);
            faults.crashes.push(CrashSpec {
                server,
                at_ms,
                restart_ms: at_ms + rng.gen_range(2000u64..=4000),
            });
        }
        if n_servers > 1 && rng.gen_bool(0.4) {
            let a = rng.gen_range(0..n_servers);
            let b = (a + 1 + rng.gen_range(0..n_servers - 1)) % n_servers;
            let from_ms = rng.gen_range(horizon_ms / 3..2 * horizon_ms / 3);
            faults.partitions.push(PartitionSpec {
                a,
                b,
                from_ms,
                until_ms: from_ms + rng.gen_range(2000u64..=4000),
            });
        }
        Scenario { n_servers, users, faults, horizon_ms, ..Scenario::quiet(seed, Family::Locks) }
    }

    /// Mixed-privilege workload: granted readers/writers/steerers plus
    /// at least one user with no grant at all, and (usually) one
    /// mid-run revocation. Every accepted op must trace to a live
    /// grant.
    fn gen_acl(seed: u64, rng: &mut StdRng) -> Scenario {
        let n_servers = rng.gen_range(1usize..=2);
        let n_granted = rng.gen_range(2usize..=3);
        let mut users = Vec::new();
        for u in 0..n_granted {
            let privilege = match rng.gen_range(0u32..3) {
                0 => Privilege::ReadOnly,
                1 => Privilege::ReadWrite,
                _ => Privilege::Steer,
            };
            let n_actions = rng.gen_range(3usize..=6);
            let actions = script(rng, n_actions, |rng, _| match rng.gen_range(0u32..100) {
                // The script ATTEMPTS ops beyond the user's grant on
                // purpose: the oracle checks that only sufficiently
                // privileged attempts are ever accepted.
                0..=29 => ActionKind::GetStatus,
                30..=49 => ActionKind::GetSensors,
                50..=74 => ActionKind::SetParam,
                75..=89 => ActionKind::Command,
                _ if privilege == Privilege::Steer => ActionKind::Acquire,
                _ => ActionKind::GetStatus,
            });
            users.push(UserSpec::scripted(
                format!("u{u}"),
                Some(privilege),
                u % n_servers,
                actions,
            ));
        }
        // An authenticated user with no grant on the main app: every op
        // they aim at it must be denied at the second level.
        let n_outsiders = rng.gen_range(1usize..=2);
        for o in 0..n_outsiders {
            let n_actions = rng.gen_range(2usize..=4);
            let actions = script(rng, n_actions, |rng, _| match rng.gen_range(0u32..4) {
                0 => ActionKind::GetStatus,
                1 => ActionKind::GetSensors,
                2 => ActionKind::SetParam,
                _ => ActionKind::Command,
            });
            let server = rng.gen_range(0..n_servers);
            users.push(UserSpec::scripted(format!("x{o}"), None, server, actions));
        }
        let horizon_ms = last_action_ms(&users) + 6000;
        let mut admin = Vec::new();
        if rng.gen_bool(0.6) {
            // Revoke one granted user partway through their script.
            let victim = rng.gen_range(0..n_granted);
            admin.push(AdminAction {
                at_ms: rng.gen_range(horizon_ms / 3..2 * horizon_ms / 3),
                kind: AdminKind::Revoke(format!("u{victim}")),
            });
        }
        let mut faults = FaultSpec::default();
        if n_servers > 1 && rng.gen_bool(0.3) {
            let from_ms = rng.gen_range(horizon_ms / 3..2 * horizon_ms / 3);
            faults.partitions.push(PartitionSpec {
                a: 0,
                b: 1,
                from_ms,
                until_ms: from_ms + rng.gen_range(1500u64..=3000),
            });
        }
        Scenario {
            n_servers,
            users,
            admin,
            faults,
            horizon_ms,
            ..Scenario::quiet(seed, Family::Acl)
        }
    }

    /// Bounded-application workload with a latecomer: the app terminates
    /// partway through the run, a viewer joins mid-session at the host
    /// and pages through the archive; catch-up + live tail must equal
    /// the host's full replay byte-for-byte.
    fn gen_replay(seed: u64, rng: &mut StdRng) -> Scenario {
        let n_servers = rng.gen_range(2usize..=3);
        let n_users = rng.gen_range(2usize..=3);
        let horizon_ms = 30_000;
        let mut users = Vec::new();
        for u in 0..n_users {
            let privilege = if u == 0 { Privilege::Steer } else { Privilege::ReadWrite };
            let n_actions = rng.gen_range(2usize..=5);
            let actions = script(rng, n_actions, |rng, i| {
                if i == 0 && privilege == Privilege::Steer {
                    // The steerer takes the lock first, so its later
                    // mutating ops are accepted and reach the archive.
                    ActionKind::Acquire
                } else {
                    match rng.gen_range(0u32..100) {
                        0..=34 => ActionKind::SetParam,
                        35..=54 if privilege == Privilege::Steer => ActionKind::Command,
                        _ => ActionKind::GetStatus,
                    }
                }
            });
            users.push(UserSpec::scripted(
                format!("u{u}"),
                Some(privilege),
                u % n_servers,
                actions,
            ));
        }
        let mut faults = FaultSpec::default();
        if rng.gen_bool(0.4) {
            // Only non-host servers crash: the archive (and the
            // latecomer's local catch-up path) lives at server 0.
            let server = rng.gen_range(1..n_servers);
            let at_ms = rng.gen_range(6000u64..14_000);
            faults.crashes.push(CrashSpec {
                server,
                at_ms,
                restart_ms: at_ms + rng.gen_range(2000u64..=4000),
            });
        }
        if n_servers > 1 && rng.gen_bool(0.4) {
            let a = rng.gen_range(0..n_servers);
            let b = (a + 1 + rng.gen_range(0..n_servers - 1)) % n_servers;
            let from_ms = rng.gen_range(6000u64..14_000);
            faults.partitions.push(PartitionSpec {
                a,
                b,
                from_ms,
                until_ms: from_ms + rng.gen_range(2000u64..=4000),
            });
        }
        Scenario {
            n_servers,
            users,
            faults,
            horizon_ms,
            // ~10 kernel iterations/s at the driver cadence the runner
            // configures, so the app closes roughly mid-run.
            app_iterations: Some(rng.gen_range(40u64..=80)),
            latecomer: Some(Latecomer {
                user: "late".into(),
                join_ms: rng.gen_range(6000u64..=12_000),
            }),
            ..Scenario::quiet(seed, Family::Replay)
        }
    }

    /// The churn families' base: closed-loop users on the host under
    /// session leases.
    fn churn_base(seed: u64, family: Family, n_users: usize, leases: Leases) -> Scenario {
        let users = (0..n_users).map(|u| UserSpec::closed_loop(format!("u{u}"), 0)).collect();
        let features = Features { leases: Some(leases), ..Features::paper() };
        Scenario { users, features, ..Scenario::quiet(seed, family) }
    }

    /// Staggered join/leave churn: several closed-loop users, a few of
    /// whom disconnect mid-run; some return (resume path), some never do
    /// (only the park-TTL reclaim may free their state).
    fn gen_churn(seed: u64, rng: &mut StdRng) -> Scenario {
        let n_users = rng.gen_range(3usize..=5);
        let idle_timeout_ms = 2000;
        let park_ttl_ms = rng.gen_range(4000u64..=6000);
        let (idle_timeout, park_ttl) = (ms(idle_timeout_ms), ms(park_ttl_ms));
        // User 0 is the never-disconnected bystander; every other user
        // may churn.
        let mut faults = FaultSpec::default();
        let mut last_heal = 0u64;
        for u in 1..n_users {
            if rng.gen_bool(0.75) {
                let from_ms = rng.gen_range(4000u64..=9000);
                let until_ms = if rng.gen_bool(0.7) {
                    // Away long enough for the idle sweep to park them
                    // (idle timeout + one 5 s sweep period + slack).
                    let heal = from_ms + rng.gen_range(8000u64..=11_000);
                    last_heal = last_heal.max(heal);
                    Some(heal)
                } else {
                    None // never returns; the lease must reclaim
                };
                faults.disconnects.push(DisconnectSpec { user: u, from_ms, until_ms });
            }
        }
        let leases = Leases { idle_timeout, park_ttl, resume_rate: None };
        let mut s = Self::churn_base(seed, Family::Churn, n_users, leases);
        // Horizon: every heal gets a full recovery window, and every
        // never-returning park gets idle + TTL + two sweep periods.
        s.horizon_ms = (last_heal + 15_000).max(9000 + idle_timeout_ms + park_ttl_ms + 14_000);
        s.faults = faults;
        s.features.coalesce_fifo = rng.gen_bool(0.5);
        s
    }

    /// Flash-crowd rejoin: most users drop in one synchronized window
    /// and all return at the same instant, against a resume rate limit —
    /// the paced-recovery and bystander-goodput oracles apply.
    fn gen_flashcrowd(seed: u64, rng: &mut StdRng) -> Scenario {
        let n_users = rng.gen_range(5usize..=8);
        let from_ms = rng.gen_range(5000u64..=7000);
        let heal_ms = from_ms + rng.gen_range(8000u64..=10_000);
        // Everyone but the bystander (user 0) drops and rejoins together.
        let disconnects = (1..n_users)
            .map(|u| DisconnectSpec { user: u, from_ms, until_ms: Some(heal_ms) })
            .collect();
        let resume_rate = Some(rng.gen_range(1u32..=3));
        // Long grace: the crowd returns before reclaim.
        let leases = Leases { idle_timeout: ms(2000), park_ttl: ms(20_000), resume_rate };
        let mut s = Self::churn_base(seed, Family::FlashCrowd, n_users, leases);
        // Horizon: heal + paced drain of the whole crowd + slack.
        s.horizon_ms = heal_ms + 4000 + 2000 * n_users as u64 + 8000;
        s.faults.disconnects = disconnects;
        s.features.coalesce_fifo = rng.gen_bool(0.5);
        s
    }

    /// Slow consumer: one user parks for a long stretch while the app
    /// keeps streaming (their parked FIFO sheds boundedly), then returns
    /// and resumes; the replay oracle checks the missed-suffix fetch.
    fn gen_slowconsumer(seed: u64, rng: &mut StdRng) -> Scenario {
        let n_users = rng.gen_range(2usize..=3);
        let from_ms = rng.gen_range(4000u64..=6000);
        let heal_ms = from_ms + rng.gen_range(12_000u64..=16_000);
        // The slow consumer must outlive its park.
        let leases = Leases { idle_timeout: ms(2000), park_ttl: ms(30_000), resume_rate: None };
        let mut s = Self::churn_base(seed, Family::SlowConsumer, n_users, leases);
        s.horizon_ms = heal_ms + 15_000;
        s.faults.disconnects =
            vec![DisconnectSpec { user: n_users - 1, from_ms, until_ms: Some(heal_ms) }];
        s.features.coalesce_fifo = rng.gen_bool(0.5);
        s
    }

    /// Snapshotting archive under a crash: one steerer writes params
    /// before the host crashes mid-run; a small flash crowd of viewers
    /// issues snapshot-aware catch-up fetches both before the crash and
    /// after the restart-from-archive recovery. The snapshot oracle
    /// checks cadence, fold consistency, and byte-identical catch-up
    /// service across the outage.
    fn gen_recovery(seed: u64, rng: &mut StdRng) -> Scenario {
        let crash_ms = rng.gen_range(10_000u64..=13_000);
        let restart_ms = crash_ms + rng.gen_range(2000u64..=4000);
        let mut users = Vec::new();
        // The steerer's whole script lands before the crash, so the
        // archive the recovery rebuilds from already holds its writes.
        let mut actions = vec![Action { at_ms: FIRST_ACTION_MS, kind: ActionKind::Acquire }];
        let mut at = FIRST_ACTION_MS;
        for _ in 0..rng.gen_range(2usize..=4) {
            at += rng.gen_range(MIN_GAP_MS..=MAX_GAP_MS);
            if at + 1000 >= crash_ms {
                break;
            }
            actions.push(Action { at_ms: at, kind: ActionKind::SetParam });
        }
        users.push(UserSpec::scripted("u0".into(), Some(Privilege::Steer), 0, actions));
        // Flash-crowd viewers: one catch-up well before the crash and
        // one well after the restart, so both the live and the
        // recovered host serve snapshot + tail.
        let n_viewers = rng.gen_range(2usize..=4);
        for v in 0..n_viewers {
            let pre_ms = rng.gen_range(5000u64..crash_ms - 2000);
            let post_ms = restart_ms + 4000 + rng.gen_range(0u64..=2000);
            let actions = vec![
                Action { at_ms: pre_ms, kind: ActionKind::CatchUp },
                Action { at_ms: post_ms, kind: ActionKind::CatchUp },
            ];
            users.push(UserSpec::scripted(format!("v{v}"), Some(Privilege::ReadOnly), 0, actions));
        }
        let mut faults = FaultSpec::default();
        faults.crashes.push(CrashSpec { server: 0, at_ms: crash_ms, restart_ms });
        Scenario {
            users,
            faults,
            horizon_ms: restart_ms + 12_000,
            // The recovered host's session plane is wiped, so every
            // cookie stops validating after the restart; the resume
            // machinery falls back to a fresh login and the scripted
            // post-restart catch-ups land on the new session.
            features: Features {
                snapshot_every: Some(rng.gen_range(4u64..=8)),
                recover_from_archive: true,
                ..Features::paper()
            },
            ..Scenario::quiet(seed, Family::Recovery)
        }
    }

    /// Cache-poisoning churn over the sharded + cached discovery plane:
    /// every user is homed off-host, so each of their operations routes
    /// through their server's discovery cache. TTLs sit near the action
    /// cadence (expiry races), a stale route may be planted mid-run (the
    /// Nak-invalidation path), the host may crash and restart (failover
    /// churn), and the directory shard owning the app's naming key may
    /// crash mid-query. The discovery oracle replays the recorded cache
    /// transitions: an invalidated generation must never be re-served
    /// and no hit may land past its entry's expiry.
    fn gen_discovery(seed: u64, rng: &mut StdRng) -> Scenario {
        let n_servers = rng.gen_range(3usize..=4);
        let n_users = rng.gen_range(2usize..=3);
        let mut users = Vec::new();
        for u in 0..n_users {
            let privilege =
                if rng.gen_bool(0.5) { Privilege::ReadWrite } else { Privilege::ReadOnly };
            let n_actions = rng.gen_range(3usize..=6);
            let actions = script(rng, n_actions, |rng, _| match rng.gen_range(0u32..100) {
                0..=44 => ActionKind::GetStatus,
                45..=74 => ActionKind::GetSensors,
                _ => ActionKind::SetParam,
            });
            // Never the host: every dispatch must cross the wire through
            // the gateway's discovery cache.
            let server = 1 + u % (n_servers - 1);
            users.push(UserSpec::scripted(format!("u{u}"), Some(privilege), server, actions));
        }
        let horizon_ms = last_action_ms(&users) + 8000;
        let mut faults = FaultSpec::default();
        if rng.gen_bool(0.4) {
            // Crash the app's host: gateways mark it down, re-query the
            // trader and re-resolve routes — real failover churn against
            // cached entries.
            let at_ms = rng.gen_range(horizon_ms / 3..horizon_ms / 2);
            faults.crashes.push(CrashSpec {
                server: 0,
                at_ms,
                restart_ms: at_ms + rng.gen_range(2000u64..=4000),
            });
        }
        let mut admin = Vec::new();
        if rng.gen_bool(0.5) {
            let gateway = users[0].server;
            // A live server that is neither the host nor the gateway.
            let wrong = (1..n_servers).find(|&i| i != gateway).expect("n_servers >= 3");
            let at_ms = rng.gen_range(3000u64..=6000);
            admin.push(AdminAction { at_ms, kind: AdminKind::PlantStaleRoute { gateway, wrong } });
        }
        if rng.gen_bool(0.4) {
            let at_ms = rng.gen_range(4000u64..=8000);
            faults.dir_crash = Some((at_ms, at_ms + rng.gen_range(2000u64..=4000)));
        }
        let discovery = Discovery {
            dir_shards: rng.gen_range(2usize..=4),
            // Near the action cadence: some hits, some expiries.
            cache_ttl: ms(rng.gen_range(1500u64..=4000)),
            negative_ttl: ms(1000),
        };
        Scenario {
            n_servers,
            users,
            admin,
            faults,
            horizon_ms,
            features: Features { discovery: Some(discovery), ..Features::paper() },
            ..Scenario::quiet(seed, Family::Discovery)
        }
    }

    /// The crafted stale-cache mutation-check scenario: a stale route
    /// (pointing the app's traffic at a live non-host server) is planted
    /// in the gateway's cache while the test-only stale-cache fault
    /// makes invalidation skip the eviction. The wrong host's
    /// `NoSuchApp` Nak invalidates the entry, the next dispatch serves
    /// it anyway, and the discovery oracle reports the re-served
    /// generation.
    pub fn mutation_stale_cache(seed: u64) -> Scenario {
        // Sensor reads dispatch remotely through the cache (status reads
        // are served from the local mirror and never touch it). The first
        // primes the true route; the planted entry is then exercised (Nak
        // + invalidate) and re-served (the bug).
        let reads =
            [2000, 4000, 5500, 7000].map(|at_ms| Action { at_ms, kind: ActionKind::GetSensors });
        // Long TTL: nothing expires, only the (skipped) eviction could
        // ever drop the poisoned entry.
        let discovery = Discovery { dir_shards: 1, cache_ttl: ms(30_000), negative_ttl: ms(2000) };
        Scenario {
            n_servers: 3,
            users: vec![UserSpec::scripted(
                "u0".into(),
                Some(Privilege::ReadOnly),
                1,
                reads.to_vec(),
            )],
            admin: vec![AdminAction {
                at_ms: 2500,
                kind: AdminKind::PlantStaleRoute { gateway: 1, wrong: 2 },
            }],
            horizon_ms: 12_000,
            features: Features {
                lock_lease: ms(60_000),
                discovery: Some(discovery),
                ..Features::paper()
            },
            mutation: Some(Mutation::StaleCache),
            ..Scenario::quiet(seed, Family::Discovery)
        }
    }

    /// The crafted snapshot mutation-check scenario: periodic
    /// snapshotting is configured but the test-only skip fault drops
    /// every due snapshot. A correct archive snapshots once per
    /// interval; the buggy one never does, which the snapshot oracle
    /// reports as a broken cadence.
    pub fn mutation_snapshot(seed: u64) -> Scenario {
        let actions = vec![
            Action { at_ms: 1500, kind: ActionKind::Acquire },
            Action { at_ms: 3200, kind: ActionKind::SetParam },
            Action { at_ms: 5000, kind: ActionKind::SetParam },
        ];
        Scenario {
            users: vec![UserSpec::scripted("u0".into(), Some(Privilege::Steer), 0, actions)],
            horizon_ms: 10_000,
            features: Features {
                lock_lease: ms(60_000),
                snapshot_every: Some(2),
                ..Features::paper()
            },
            mutation: Some(Mutation::SkipSnapshot),
            ..Scenario::quiet(seed, Family::Recovery)
        }
    }

    /// The crafted compaction mutation-check scenario: the production
    /// profile, with a steerer whose two parameter writes land in one
    /// archive segment, on a host whose compaction drops all but a closed
    /// segment's last request. The compacted archive then no longer folds
    /// to the snapshot at the segment's end, which the snapshot oracle
    /// reports as a torn snapshot.
    pub fn mutation_compaction(seed: u64) -> Scenario {
        let mut s = Scenario::mutation_snapshot(seed);
        s.family = Family::Composed;
        s.horizon_ms = 16_000;
        s.features =
            Features { lock_lease: ms(60_000), snapshot_every: Some(64), ..Features::production() };
        s.mutation = Some(Mutation::CompactRequests);
        s
    }

    /// The crafted restart mutation-check scenario: a remote read waits in
    /// the host's Daemon buffer as the host restarts from its archive and
    /// forgets it; the paper's stack answers it (differential oracle).
    pub fn mutation_restart(seed: u64) -> Scenario {
        let actions = vec![Action { at_ms: 8566, kind: ActionKind::GetSensors }];
        Scenario {
            n_servers: 2,
            users: vec![UserSpec::scripted("u0".into(), Some(Privilege::ReadOnly), 1, actions)],
            faults: FaultSpec {
                crashes: vec![CrashSpec { server: 0, at_ms: 8787, restart_ms: 11_975 }],
                ..FaultSpec::default()
            },
            horizon_ms: 18_000,
            features: Features { recover_from_archive: true, ..Features::paper() },
            mutation: Some(Mutation::ForgetAccepted),
            ..Scenario::quiet(seed, Family::Composed)
        }
    }

    /// The crafted churn mutation-check scenario: two users disconnect
    /// and never return, on a server whose park-TTL reclaim is disabled
    /// by the test-only fault. A correct lease plane reclaims both
    /// parked sessions; the buggy one leaks them, which the reclaim
    /// oracle reports as parked state surviving the horizon.
    pub fn mutation_churn(seed: u64) -> Scenario {
        let leases = Leases { idle_timeout: ms(2000), park_ttl: ms(3000), resume_rate: None };
        let mut s = Self::churn_base(seed, Family::FlashCrowd, 3, leases);
        s.features.lock_lease = ms(60_000);
        s.horizon_ms = 24_000;
        s.faults.disconnects =
            (1..3).map(|user| DisconnectSpec { user, from_ms: 4000, until_ms: None }).collect();
        s.mutation = Some(Mutation::NoReclaim);
        s
    }

    /// The crafted mutation-check scenario: two steerers acquire in
    /// close succession with no release between, on a host whose lock
    /// manager has the double-grant bug armed. A correct lock denies
    /// the second acquire; the buggy one grants both, which no
    /// linearization of a single-holder lock can explain.
    pub fn mutation(seed: u64) -> Scenario {
        let acquire = |at_ms| vec![Action { at_ms, kind: ActionKind::Acquire }];
        let steer = Some(Privilege::Steer);
        Scenario {
            users: vec![
                UserSpec::scripted("u0".into(), steer, 0, acquire(1500)),
                UserSpec::scripted("u1".into(), steer, 0, acquire(3200)),
            ],
            horizon_ms: 8000,
            features: Features { lock_lease: ms(60_000), ..Features::paper() },
            mutation: Some(Mutation::DoubleGrant),
            ..Scenario::quiet(seed, Family::Locks)
        }
    }

    /// Total number of removable events (shrink currency): user actions,
    /// harness actions and fault entries.
    pub fn event_count(&self) -> usize {
        let f = &self.faults;
        self.users.iter().map(|u| u.actions.len()).sum::<usize>()
            + self.admin.len()
            + f.crashes.len()
            + f.partitions.len()
            + f.disconnects.len()
            + usize::from(f.dir_crash.is_some())
    }

    /// Deterministic human-readable rendering (repro reports).
    pub fn describe(&self) -> String {
        let f = &self.features;
        let mut out = format!(
            "scenario seed={} family={} servers={} lease={}ms horizon={}ms",
            self.seed,
            self.family.name(),
            self.n_servers,
            millis(f.lock_lease),
            self.horizon_ms,
        );
        if f.coalesce_fifo {
            out.push_str(" coalesce-fifo");
        }
        if let Some(m) = self.mutation {
            out.push_str(&format!(" MUTATION={m:?}"));
        }
        if let Some(every) = f.snapshot_every {
            out.push_str(&format!(" snapshot-every={every}"));
        }
        if f.recover_from_archive {
            out.push_str(" recover-from-archive");
        }
        if let Some(d) = &f.discovery {
            let (shards, ttl, neg) = (d.dir_shards, millis(d.cache_ttl), millis(d.negative_ttl));
            out.push_str(&format!(" dir-shards={shards} cache-ttl={ttl}ms neg-ttl={neg}ms"));
        }
        if f.compact_closed_segments {
            out.push_str(" compact");
        }
        let limits = [
            ("admission", f.admission_inflight_max.map(|n| n as u64)),
            ("proxy-cap", f.proxy_buffer_capacity.map(|n| n as u64)),
            ("peer-rate", f.peer_rate_limit.map(u64::from)),
            ("deadline", f.deadline.map(millis)),
        ];
        for (name, limit) in limits {
            if let Some(v) = limit {
                out.push_str(&format!(" {name}={v}"));
            }
        }
        if let Some(iters) = self.app_iterations {
            out.push_str(&format!(" app-iterations={iters}"));
        }
        out.push('\n');
        for u in &self.users {
            let grant = match u.privilege {
                Some(p) => format!("{p:?}"),
                None => "none".into(),
            };
            out.push_str(&format!("  user {} @s{} grant={grant}:", u.name, u.server));
            for a in &u.actions {
                out.push_str(&format!(" {}@{}ms", a.kind.name(), a.at_ms));
            }
            out.push('\n');
        }
        if let Some(l) = &self.latecomer {
            out.push_str(&format!("  latecomer {} joins@{}ms\n", l.user, l.join_ms));
        }
        for a in &self.admin {
            if let AdminKind::Revoke(user) = &a.kind {
                out.push_str(&format!("  admin revoke {user} @{}ms\n", a.at_ms));
            }
        }
        for c in &self.faults.crashes {
            out.push_str(&format!(
                "  fault crash s{} @{}ms restart@{}ms\n",
                c.server, c.at_ms, c.restart_ms
            ));
        }
        for p in &self.faults.partitions {
            out.push_str(&format!(
                "  fault partition s{}<->s{} {}..{}ms\n",
                p.a, p.b, p.from_ms, p.until_ms
            ));
        }
        for a in &self.admin {
            if let AdminKind::PlantStaleRoute { gateway, wrong } = a.kind {
                out.push_str(&format!(
                    "  plant stale route @{}ms gateway=s{gateway} wrong=s{wrong}\n",
                    a.at_ms
                ));
            }
        }
        if let Some((at, restart)) = self.faults.dir_crash {
            out.push_str(&format!("  fault dir-crash @{at}ms restart@{restart}ms\n"));
        }
        if let Some(l) = &f.leases {
            let rate = l.resume_rate.map_or_else(|| "off".into(), |r| r.to_string());
            let (idle, ttl) = (millis(l.idle_timeout), millis(l.park_ttl));
            out.push_str(&format!("  churn idle={idle}ms ttl={ttl}ms rate={rate}\n"));
        }
        for d in &self.faults.disconnects {
            let until = d.until_ms.map_or_else(|| "never".into(), |u| format!("{u}ms"));
            out.push_str(&format!("  disconnect user#{} {}ms..{until}\n", d.user, d.from_ms));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for family in Family::ALL {
            for seed in [0u64, 1, 7, 42, 1000] {
                let a = Scenario::generate(family, seed);
                let b = Scenario::generate(family, seed);
                assert_eq!(a, b, "{family:?}/{seed} must regenerate identically");
                assert_eq!(a.describe(), b.describe());
            }
        }
    }

    #[test]
    fn families_respect_their_constraints() {
        for seed in 0..40u64 {
            let locks = Scenario::generate(Family::Locks, seed);
            let lock_ops = locks
                .users
                .iter()
                .flat_map(|u| &u.actions)
                .filter(|a| matches!(a.kind, ActionKind::Acquire | ActionKind::Release))
                .count();
            assert!(lock_ops <= MAX_LOCK_OPS, "seed {seed}: {lock_ops} lock ops");
            for u in &locks.users {
                for w in u.actions.windows(2) {
                    assert!(w[1].at_ms - w[0].at_ms >= MIN_GAP_MS);
                }
            }

            let acl = Scenario::generate(Family::Acl, seed);
            assert!(
                acl.users.iter().any(|u| u.privilege.is_none()),
                "seed {seed}: acl scenarios need an off-ACL user"
            );

            let replay = Scenario::generate(Family::Replay, seed);
            assert!(replay.latecomer.is_some());
            assert!(replay.app_iterations.is_some());
            for c in &replay.faults.crashes {
                assert_ne!(c.server, 0, "seed {seed}: replay must never crash the host");
            }

            for family in [Family::Churn, Family::FlashCrowd, Family::SlowConsumer] {
                let s = Scenario::generate(family, seed);
                let leases = s.features.leases.expect("churn families run session leases");
                assert!(s.faults.crashes.is_empty(), "churn families never crash servers");
                assert!(s.faults.partitions.is_empty());
                for d in &s.faults.disconnects {
                    assert!(d.user > 0, "seed {seed}: user 0 is the connected bystander");
                    assert!(d.user < s.users.len());
                    if let Some(until) = d.until_ms {
                        // Parked before the heal: away longer than the
                        // idle timeout plus a full sweep period.
                        assert!(
                            until - d.from_ms > millis(leases.idle_timeout) + 5000,
                            "seed {seed}: disconnect too short to park"
                        );
                        // Room to recover before the horizon.
                        assert!(until + 10_000 <= s.horizon_ms);
                    }
                }
            }

            let disc = Scenario::generate(Family::Discovery, seed);
            let d = disc.features.discovery.expect("discovery families run the cached plane");
            assert!((2..=4).contains(&d.dir_shards), "seed {seed}: shards {}", d.dir_shards);
            assert!(
                millis(d.cache_ttl) >= MIN_GAP_MS && millis(d.cache_ttl) <= 4000,
                "seed {seed}: TTL {}ms must sit near the action cadence",
                millis(d.cache_ttl)
            );
            for u in &disc.users {
                assert!(
                    u.server != 0 && u.server < disc.n_servers,
                    "seed {seed}: discovery users are homed off-host"
                );
                assert!(u.privilege.is_some(), "discovery users all hold grants");
                for a in &u.actions {
                    assert!(
                        !matches!(a.kind, ActionKind::Acquire | ActionKind::Release),
                        "seed {seed}: no lock ops — the family isolates the discovery plane"
                    );
                }
            }
            for a in &disc.admin {
                let AdminKind::PlantStaleRoute { gateway, wrong } = a.kind else {
                    panic!("seed {seed}: the discovery family revokes nothing")
                };
                assert!(gateway != 0 && gateway < disc.n_servers);
                assert!(wrong != 0 && wrong != gateway && wrong < disc.n_servers);
            }
            for c in &disc.faults.crashes {
                assert_eq!(c.server, 0, "seed {seed}: only the host crashes");
            }
            assert_eq!(disc.mutation, None, "generated scenarios seed no bug");

            let rec = Scenario::generate(Family::Recovery, seed);
            assert!(rec.features.snapshot_every.is_some());
            assert!(rec.features.recover_from_archive);
            assert_eq!(rec.faults.crashes.len(), 1, "seed {seed}: one host crash");
            let crash = rec.faults.crashes[0];
            assert_eq!(crash.server, 0, "recovery crashes the host");
            assert!(crash.restart_ms + 10_000 <= rec.horizon_ms);
            for u in &rec.users {
                for a in &u.actions {
                    if a.kind == ActionKind::CatchUp {
                        // Catch-ups land well clear of the outage window
                        // (their replies must not be lost mid-crash).
                        assert!(
                            a.at_ms + 2000 <= crash.at_ms || a.at_ms >= crash.restart_ms + 4000,
                            "seed {seed}: catch-up at {}ms inside the outage window",
                            a.at_ms
                        );
                    } else {
                        assert!(
                            a.at_ms + 1000 <= crash.at_ms,
                            "seed {seed}: steering action at {}ms too close to the crash",
                            a.at_ms
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn churn_families_explore_both_coalescing_positions() {
        // The delivery-plane flag must actually vary: across a modest
        // seed range every churn family generates runs with coalescing
        // on AND off, while the scripted families (whose oracles count
        // exact per-request responses) keep it off.
        for family in [Family::Churn, Family::FlashCrowd, Family::SlowConsumer] {
            let flags: Vec<bool> =
                (0..40u64).map(|s| Scenario::generate(family, s).features.coalesce_fifo).collect();
            assert!(flags.iter().any(|&f| f), "{family:?} never enables coalescing");
            assert!(flags.iter().any(|&f| !f), "{family:?} always enables coalescing");
        }
        for family in
            [Family::Locks, Family::Acl, Family::Replay, Family::Recovery, Family::Discovery]
        {
            for s in 0..10u64 {
                assert!(!Scenario::generate(family, s).features.coalesce_fifo);
            }
        }
    }

    #[test]
    fn composed_runs_every_shape_under_production_or_a_subset_of_it() {
        let production = Features::production();
        let (mut shapes, mut whole) = (std::collections::BTreeSet::new(), 0);
        for seed in 0..60u64 {
            let s = Scenario::generate(Family::Composed, seed);
            // The traffic is one shape's own at the same seed…
            let shape = Family::ALL[..8]
                .iter()
                .map(|&f| Scenario::generate(f, seed))
                .find(|t| (&t.users, &t.faults, &t.admin) == (&s.users, &s.faults, &s.admin))
                .expect("a shape's traffic");
            shapes.insert(shape.family.name());
            // …and its features keep the shape's own beside production's.
            let full = production.under(shape.features, None);
            assert_eq!(shape.features.under(s.features, None), s.features, "seed {seed}");
            assert_eq!(production.under(s.features, None), full, "seed {seed}");
            whole += usize::from(s.features == full);
        }
        assert_eq!(shapes.len(), 8, "every shape drawn: {shapes:?}");
        assert!(whole > 10 && whole < 50, "{whole} of 60 seeds ran the whole profile");
    }

    #[test]
    fn stale_cache_mutation_scenario_is_tiny() {
        let s = Scenario::mutation_stale_cache(1);
        assert_eq!(s.mutation, Some(Mutation::StaleCache));
        let d = s.features.discovery.unwrap();
        let plant = &s.admin[0];
        let AdminKind::PlantStaleRoute { gateway, wrong } = plant.kind else {
            panic!("the mutation plants the stale route")
        };
        assert!(wrong != 0 && wrong != gateway, "wrong host is live and remote");
        // Nothing expires on its own: only the (faulted) eviction could
        // drop the poisoned entry before the last action re-serves it.
        let last = s.users[0].actions.last().unwrap().at_ms;
        assert!(plant.at_ms + millis(d.cache_ttl) > last);
        assert!(s.event_count() <= 10);
    }

    #[test]
    fn mutation_scenario_is_tiny() {
        let s = Scenario::mutation(1);
        assert_eq!(s.mutation, Some(Mutation::DoubleGrant));
        assert!(s.event_count() <= 10);
    }

    #[test]
    fn snapshot_mutation_scenario_is_tiny() {
        let s = Scenario::mutation_snapshot(1);
        assert_eq!(s.mutation, Some(Mutation::SkipSnapshot));
        assert!(s.features.snapshot_every.is_some());
        assert!(s.event_count() <= 10);
        // No crash: the cadence break alone must trip the oracle.
        assert!(s.faults.crashes.is_empty());
    }

    #[test]
    fn churn_mutation_scenario_is_tiny() {
        let s = Scenario::mutation_churn(1);
        assert_eq!(s.mutation, Some(Mutation::NoReclaim));
        assert_eq!(s.family, Family::FlashCrowd);
        assert!(s.event_count() <= 10);
        // Park (idle + sweep) and the TTL both fit well inside the
        // horizon, so a correct server reclaims before the run ends.
        let c = s.features.leases.unwrap();
        assert!(4000 + millis(c.idle_timeout) + millis(c.park_ttl) + 12_000 <= s.horizon_ms);
    }
}
