//! One typed [`Event`] per recorded decision, recorded once through
//! `simnet`'s `Ctx::record` / `Engine::record` and read by the history
//! log, the flight rings, the run log and the oracles. `Display` writes
//! the text after the label (`subject=… actor=… detail`) that run logs pin.

use std::fmt;

use simnet::flight::{TRIGGER_BREAKER_OPEN, TRIGGER_EXPIRED, TRIGGER_SHED};
use simnet::history::Decision;
use simnet::{NodeId, SimTime};

use crate::{AppId, AppOp, Priority, RequestId, ServerAddr, UserId};

/// Where a decision came from: who asked, or what took the lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// A session at the deciding server.
    Local,
    /// A peer server, at this node, relaying for one of its sessions.
    Relay(NodeId),
    /// The holder's last session logged out.
    Logout,
    /// An administrator revoked the holder.
    Revoke,
    /// An acquire found the holder silent past its lease.
    LeaseLazy,
    /// The reaper found the holder silent past its lease.
    LeaseSweep,
    /// The server the grant was relayed through went down.
    PeerDown(ServerAddr),
}

/// What happened to a steering lock at its host.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LockStep {
    /// An acquire was granted.
    Granted,
    /// An acquire was refused: this user holds the lock.
    Denied(UserId),
    /// A release freed the lock.
    Released,
    /// A release by a non-holder was refused: this user, if any, holds it.
    ReleaseFailed(Option<UserId>),
    /// A lease ran out or the grant's relay went down; the host took it.
    Evicted,
    /// The holder logged out or was revoked; the host took it.
    ForceReleased,
}

/// What the Daemon servlet's compute-phase buffer did with a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DaemonStep {
    /// Held while the application computes.
    Buffered,
    /// Dispatched from the buffer.
    Flushed,
    /// Dropped to make room for a higher class.
    Shed,
    /// Dropped: its deadline passed while buffered.
    Expired,
}

/// What a discovery-cache lookup found: a route (`None`: a negative
/// entry) and its exclusive expiry, or nothing fresh.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// A fresh entry, served.
    Hit(Option<ServerAddr>, SimTime),
    /// Nothing cached.
    Miss,
    /// Only an expired entry, dropped on the spot.
    Expired,
}

/// A discovery-cache transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheStep {
    /// A lookup and what it found.
    Lookup(Lookup),
    /// An entry was (re)installed: route and expiry, as for a hit.
    Insert(Option<ServerAddr>, SimTime),
    /// A Nak or failover invalidated the entry (`false`: kept, the seeded
    /// `StaleCache` bug).
    Invalidate(bool),
}

/// One recorded decision.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A lock step at the host: step, app, who asked (or lost it), origin.
    Lock(LockStep, AppId, UserId, Origin),
    /// The host admitted an operation: app, user, op, origin.
    OpAccepted(AppId, UserId, AppOp, Origin),
    /// A second-level refusal: app, user, `"not-on-acl"`/`"privilege"`, op, origin.
    AclDenied(AppId, UserId, &'static str, AppOp, Origin),
    /// An administrator revoked a user: app, user, whether on the ACL.
    AclRevoked(AppId, UserId, bool),
    /// A Daemon buffer step: step, app, request, its class.
    Daemon(DaemonStep, AppId, RequestId, Priority),
    /// The reaper parked an idle session: user, apps selected.
    SessionParked(UserId, usize),
    /// A parked session resumed: user, ms parked, apps selected.
    SessionResumed(UserId, u64, usize),
    /// A session parked past its TTL was reclaimed: user, apps selected.
    SessionReclaimed(UserId, usize),
    /// The resume rate limit deferred a resume: user, resumes per second.
    ResumeDeferred(UserId, u32),
    /// A restart rebuilt from the archive: apps rebuilt, sessions dropped.
    ServerRecovered(u32, usize),
    /// A breaker toward a peer opened: peer, the operation that tripped it.
    BreakerOpen(NodeId, &'static str),
    /// A substrate's discovery cache moved an app's route entry.
    Cache(AppId, CacheStep),
    /// The harness planted a wrong route: app, the server it resolves to.
    CachePlanted(AppId, ServerAddr),
}

impl Decision for Event {
    fn label(&self) -> &'static str {
        match self {
            Event::Lock(step, ..) => match step {
                LockStep::Granted => "lock.granted",
                LockStep::Denied(_) => "lock.denied",
                LockStep::Released => "lock.released",
                LockStep::ReleaseFailed(_) => "lock.release_failed",
                LockStep::Evicted => "lock.evicted",
                LockStep::ForceReleased => "lock.force_released",
            },
            Event::OpAccepted(..) => "op.accepted",
            Event::AclDenied(..) => "acl.denied",
            Event::AclRevoked(..) => "acl.revoked",
            Event::Daemon(step, ..) => match step {
                DaemonStep::Buffered => "daemon.buffered",
                DaemonStep::Flushed => "daemon.flushed",
                DaemonStep::Shed => TRIGGER_SHED,
                DaemonStep::Expired => TRIGGER_EXPIRED,
            },
            Event::SessionParked(..) => "session.parked",
            Event::SessionResumed(..) => "session.resumed",
            Event::SessionReclaimed(..) => "session.reclaimed",
            Event::ResumeDeferred(..) => "session.resume_deferred",
            Event::ServerRecovered(..) => "server.recovered",
            Event::BreakerOpen(..) => TRIGGER_BREAKER_OPEN,
            Event::Cache(_, step) => match step {
                CacheStep::Lookup(Lookup::Hit(Some(_), _)) => "cache.hit",
                CacheStep::Lookup(Lookup::Hit(None, _)) => "cache.negative_hit",
                CacheStep::Lookup(Lookup::Miss) => "cache.miss",
                CacheStep::Lookup(Lookup::Expired) => "cache.expired",
                CacheStep::Insert(Some(_), _) => "cache.insert",
                CacheStep::Insert(None, _) => "cache.insert_negative",
                CacheStep::Invalidate(_) => "cache.invalidated",
            },
            Event::CachePlanted(..) => "cache.planted",
        }
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Origin::Local => f.write_str("origin=local"),
            Origin::Relay(via) => write!(f, "origin=relay via={via:?}"),
            Origin::Logout => f.write_str("origin=logout"),
            Origin::Revoke => f.write_str("origin=revoke"),
            Origin::LeaseLazy => f.write_str("origin=lease-lazy"),
            Origin::LeaseSweep => f.write_str("origin=lease-sweep"),
            Origin::PeerDown(peer) => write!(f, "origin=peer-down peer={}", peer.0),
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Lock(step, app, user, origin) => {
                write!(f, "subject={app} actor={user} {origin}")?;
                match step {
                    LockStep::Denied(holder) | LockStep::ReleaseFailed(Some(holder)) => {
                        write!(f, " holder={holder}")
                    }
                    LockStep::ReleaseFailed(None) => f.write_str(" holder=-"),
                    _ => Ok(()),
                }
            }
            Event::OpAccepted(app, user, op, origin) => {
                write!(f, "subject={app} actor={user} op={} {origin}", op.kind_name())
            }
            Event::AclDenied(app, user, reason, op, origin) => {
                let op = op.kind_name();
                write!(f, "subject={app} actor={user} level=2 reason={reason} op={op} {origin}")
            }
            Event::AclRevoked(app, user, applied) => {
                write!(f, "subject={app} actor={user} applied={applied}")
            }
            Event::Daemon(_, app, req, class) => {
                write!(f, "subject={app} actor= req={} class={class:?}", req.0)
            }
            Event::SessionParked(user, apps) | Event::SessionReclaimed(user, apps) => {
                write!(f, "subject= actor={user} apps={apps}")
            }
            Event::SessionResumed(user, parked_ms, apps) => {
                write!(f, "subject= actor={user} parked_ms={parked_ms} apps={apps}")
            }
            Event::ResumeDeferred(user, limit) => write!(f, "subject= actor={user} limit={limit}"),
            Event::ServerRecovered(apps, dropped) => {
                write!(f, "subject= actor= apps={apps} sessions_dropped={dropped}")
            }
            Event::BreakerOpen(peer, operation) => {
                write!(f, "subject=n{} actor= operation={operation}", peer.0)
            }
            Event::Cache(app, step) => {
                write!(f, "subject={app} actor=")?;
                match step {
                    CacheStep::Lookup(Lookup::Hit(route, expires))
                    | CacheStep::Insert(route, expires) => {
                        if let Some(route) = route {
                            write!(f, " route={route}")?;
                        }
                        write!(f, " expires={}", expires.as_micros())
                    }
                    CacheStep::Lookup(_) => Ok(()),
                    CacheStep::Invalidate(evicted) => write!(f, " evicted={evicted}"),
                }
            }
            Event::CachePlanted(app, wrong) => {
                write!(f, "subject={app} actor=harness wrong={wrong}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every variant's label and line. Run logs and `RUN_DIGESTS` pin the
    /// labels the fuzz families reach; this pins the rest too
    /// (`daemon.shed`, `daemon.expired` and `breaker.open` fire in none of
    /// them).
    #[test]
    fn every_variant_renders_its_pinned_line() {
        let app = AppId { server: ServerAddr(1), seq: 0 };
        let (u, v) = (UserId::new("u1"), UserId::new("u2"));
        let lock = |step, origin| Event::Lock(step, app, u.clone(), origin);
        let daemon = |step, class| Event::Daemon(step, app, RequestId(17), class);
        let cache = |step| Event::Cache(app, step);
        let lookup = |found| cache(CacheStep::Lookup(found));
        let (route, expires) = (Some(ServerAddr(2)), SimTime::from_millis(9));
        let set_param = AppOp::SetParam("k".into(), crate::Value::Float(1.0));
        let cases = [
            (lock(LockStep::Granted, Origin::Local), "lock.granted", "origin=local"),
            (
                lock(LockStep::Denied(v.clone()), Origin::Relay(NodeId(4))),
                "lock.denied",
                "origin=relay via=n4 holder=u2",
            ),
            (lock(LockStep::Released, Origin::Local), "lock.released", "origin=local"),
            (
                lock(LockStep::ReleaseFailed(Some(v.clone())), Origin::Local),
                "lock.release_failed",
                "origin=local holder=u2",
            ),
            (
                lock(LockStep::ReleaseFailed(None), Origin::Relay(NodeId(0))),
                "lock.release_failed",
                "origin=relay via=n0 holder=-",
            ),
            (lock(LockStep::Evicted, Origin::LeaseLazy), "lock.evicted", "origin=lease-lazy"),
            (lock(LockStep::Evicted, Origin::LeaseSweep), "lock.evicted", "origin=lease-sweep"),
            (
                lock(LockStep::Evicted, Origin::PeerDown(ServerAddr(2))),
                "lock.evicted",
                "origin=peer-down peer=2",
            ),
            (lock(LockStep::ForceReleased, Origin::Logout), "lock.force_released", "origin=logout"),
            (lock(LockStep::ForceReleased, Origin::Revoke), "lock.force_released", "origin=revoke"),
            (
                Event::OpAccepted(app, u.clone(), set_param, Origin::Relay(NodeId(3))),
                "op.accepted",
                "op=setParam origin=relay via=n3",
            ),
            (
                Event::AclDenied(app, u.clone(), "not-on-acl", AppOp::GetSensors, Origin::Local),
                "acl.denied",
                "level=2 reason=not-on-acl op=getSensors origin=local",
            ),
            (Event::AclRevoked(app, u.clone(), true), "acl.revoked", "applied=true"),
            (daemon(DaemonStep::Buffered, Priority::View), "daemon.buffered", "req=17 class=View"),
            (
                daemon(DaemonStep::Flushed, Priority::Command),
                "daemon.flushed",
                "req=17 class=Command",
            ),
            (daemon(DaemonStep::Shed, Priority::View), "daemon.shed", "req=17 class=View"),
            (daemon(DaemonStep::Expired, Priority::View), "daemon.expired", "req=17 class=View"),
            (Event::CachePlanted(app, ServerAddr(2)), "cache.planted", "wrong=10.0.0.2"),
            (lookup(Lookup::Hit(route, expires)), "cache.hit", "route=10.0.0.2 expires=9000"),
            (lookup(Lookup::Hit(None, expires)), "cache.negative_hit", "expires=9000"),
            (
                cache(CacheStep::Insert(route, expires)),
                "cache.insert",
                "route=10.0.0.2 expires=9000",
            ),
            (cache(CacheStep::Insert(None, expires)), "cache.insert_negative", "expires=9000"),
            (cache(CacheStep::Invalidate(true)), "cache.invalidated", "evicted=true"),
        ];
        for (event, label, detail) in cases {
            let actor = match &event {
                Event::Daemon(..) | Event::Cache(..) => "",
                Event::CachePlanted(..) => "harness",
                _ => "u1",
            };
            assert_eq!(event.label(), label);
            assert_eq!(event.to_string(), format!("subject=app:10.0.0.1#0 actor={actor} {detail}"));
        }
        for (found, label) in [(Lookup::Miss, "cache.miss"), (Lookup::Expired, "cache.expired")] {
            assert_eq!(lookup(found).label(), label);
            assert_eq!(lookup(found).to_string(), "subject=app:10.0.0.1#0 actor=");
        }
        let sessionless = [
            (Event::SessionParked(u.clone(), 2), "session.parked", "u1 apps=2"),
            (
                Event::SessionResumed(u.clone(), 1500, 1),
                "session.resumed",
                "u1 parked_ms=1500 apps=1",
            ),
            (Event::SessionReclaimed(u.clone(), 0), "session.reclaimed", "u1 apps=0"),
            (Event::ResumeDeferred(u.clone(), 8), "session.resume_deferred", "u1 limit=8"),
            (Event::ServerRecovered(2, 3), "server.recovered", " apps=2 sessions_dropped=3"),
        ];
        for (event, label, actor_detail) in sessionless {
            assert_eq!(event.label(), label);
            assert_eq!(event.to_string(), format!("subject= actor={actor_detail}"));
        }
        let breaker = Event::BreakerOpen(NodeId(5), "proxyOp");
        assert_eq!(breaker.label(), "breaker.open");
        assert_eq!(breaker.to_string(), "subject=n5 actor= operation=proxyOp");
    }
}
