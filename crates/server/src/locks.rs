//! The steering lock: "A simple locking mechanism is used to ensure that
//! the application remains in a consistent state during collaborative
//! interactions. This ensures that only one client 'drives' (issues
//! commands) the application at any time."
//!
//! In the distributed-server network, lock state is ONLY kept here, at
//! the application's host server; remote servers relay requests
//! (§5.2.4). A request while the lock is held is denied (the requester
//! retries), matching the paper's minimal protocol.
//!
//! Leases measure holder *inactivity*, not tenure: every grant,
//! idempotent re-acquisition and [`SteeringLock::touch`] (a mutating op
//! by the holder) refreshes the activity clock, so an actively steering
//! client is never evicted no matter how long it drives, while a holder
//! whose server crashed goes silent and ages out. Eviction happens both
//! lazily (a contending request past the lease steals the lock) and
//! eagerly (the host's sweep timer calls [`SteeringLock::expired`] so a
//! stale lease is reaped and broadcast even with zero contention).

use simnet::{SimDuration, SimTime};
use wire::{ServerAddr, UserId};

use crate::mutation::Mutation;

/// Steering-lock state for one application.
#[derive(Debug, Default)]
pub struct SteeringLock {
    holder: Option<UserId>,
    /// Last holder activity (grant, re-acquisition, or mutating op);
    /// the lease clock.
    active_at: Option<SimTime>,
    /// Holder evicted by the most recent leased acquire, not yet
    /// collected via [`SteeringLock::take_evicted`].
    evicted: Option<UserId>,
    /// The peer server that relayed the current grant, when the holder
    /// sits at a remote server. `None` for locally granted locks.
    pub granted_via: Option<ServerAddr>,
    /// Test-only: [`Mutation::DoubleGrant`] arms the seeded bug here.
    #[doc(hidden)]
    pub mutation: Option<Mutation>,
}

/// Outcome of a lock request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockOutcome {
    /// The requester now holds the lock.
    Granted,
    /// Someone else holds it.
    Denied {
        /// The current holder.
        holder: UserId,
    },
}

impl SteeringLock {
    /// Create a free lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current holder, if any.
    pub fn holder(&self) -> Option<&UserId> {
        self.holder.as_ref()
    }

    /// Request the lock for `user`, stealing it if the current holder's
    /// lease (if any) has expired — a lazy-expiry guard against
    /// disconnected or crashed holders. Re-acquisition by the holder is
    /// idempotent, granted, and refreshes the lease. A lazy eviction is
    /// reported through [`SteeringLock::take_evicted`].
    pub fn try_acquire_leased(
        &mut self,
        user: &UserId,
        now: SimTime,
        lease: Option<SimDuration>,
    ) -> LockOutcome {
        if self.holder.as_ref() != Some(user) && self.expired(now, lease) {
            self.evicted = self.force_release();
        }
        self.try_acquire(user, now)
    }

    /// True if a holder exists and has been silent past `lease`. The
    /// host's sweep timer uses this for eager eviction so a crashed
    /// remote holder cannot strand the lock until someone contends.
    pub fn expired(&self, now: SimTime, lease: Option<SimDuration>) -> bool {
        match (lease, self.active_at) {
            (Some(lease), Some(active)) => self.holder.is_some() && now.since(active) > lease,
            _ => false,
        }
    }

    /// The holder evicted by the most recent leased acquire, if any
    /// (collected once; lets the host record/broadcast the eviction).
    pub fn take_evicted(&mut self) -> Option<UserId> {
        self.evicted.take()
    }

    /// Holder activity ping: a mutating operation by the holder
    /// refreshes the lease so active drivers are never evicted.
    pub fn touch(&mut self, user: &UserId, now: SimTime) {
        if self.holder.as_ref() == Some(user) {
            self.active_at = Some(now);
        }
    }

    /// Request the lock for `user`. Re-acquisition by the holder is
    /// idempotent, granted, refreshes the lease clock and, like a fresh
    /// grant, clears the relay tag.
    pub fn try_acquire(&mut self, user: &UserId, now: SimTime) -> LockOutcome {
        match &self.holder {
            None => {
                self.holder = Some(user.clone());
                self.active_at = Some(now);
                self.granted_via = None;
                LockOutcome::Granted
            }
            Some(h) if h == user => {
                self.active_at = Some(now);
                // The grant now runs through whoever asked this time; a
                // relayed request re-tags it after the grant.
                self.granted_via = None;
                LockOutcome::Granted
            }
            Some(_) if self.mutation == Some(Mutation::DoubleGrant) => LockOutcome::Granted,
            Some(h) => LockOutcome::Denied { holder: h.clone() },
        }
    }

    /// Release by `user`; only the holder may release. Returns true if
    /// the lock was released.
    pub fn release(&mut self, user: &UserId) -> bool {
        if self.holder.as_ref() == Some(user) {
            self.holder = None;
            self.active_at = None;
            self.granted_via = None;
            true
        } else {
            false
        }
    }

    /// Force-release regardless of holder (logout/disconnect cleanup).
    /// Returns the previous holder.
    pub fn force_release(&mut self) -> Option<UserId> {
        self.active_at = None;
        self.granted_via = None;
        self.holder.take()
    }

    /// True if `user` currently drives the application.
    pub fn is_held_by(&self, user: &UserId) -> bool {
        self.holder.as_ref() == Some(user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(s: &str) -> UserId {
        UserId::new(s)
    }

    #[test]
    fn exclusive_acquisition() {
        let mut lock = SteeringLock::new();
        assert_eq!(lock.try_acquire(&u("a"), SimTime::ZERO), LockOutcome::Granted);
        assert_eq!(
            lock.try_acquire(&u("b"), SimTime::ZERO),
            LockOutcome::Denied { holder: u("a") }
        );
        assert!(lock.is_held_by(&u("a")));
        assert!(!lock.is_held_by(&u("b")));
    }

    #[test]
    fn reacquisition_is_idempotent() {
        let mut lock = SteeringLock::new();
        lock.try_acquire(&u("a"), SimTime::ZERO);
        assert_eq!(lock.try_acquire(&u("a"), SimTime::from_secs(1)), LockOutcome::Granted);
        assert_eq!(lock.holder(), Some(&u("a")));
        let lease = Some(SimDuration::from_secs(30));
        assert!(!lock.expired(SimTime::from_secs(31), lease), "lease clock refreshed");
        assert!(lock.expired(SimTime::from_secs(32), lease));
    }

    #[test]
    fn only_holder_releases() {
        let mut lock = SteeringLock::new();
        lock.try_acquire(&u("a"), SimTime::ZERO);
        assert!(!lock.release(&u("b")));
        assert!(lock.is_held_by(&u("a")));
        assert!(lock.release(&u("a")));
        assert_eq!(lock.holder(), None);
        assert!(!lock.release(&u("a")), "double release is a no-op");
    }

    #[test]
    fn handoff_after_release() {
        let mut lock = SteeringLock::new();
        lock.try_acquire(&u("a"), SimTime::ZERO);
        lock.release(&u("a"));
        assert_eq!(lock.try_acquire(&u("b"), SimTime::from_secs(2)), LockOutcome::Granted);
        assert_eq!(lock.holder(), Some(&u("b")));
        let lease = Some(SimDuration::from_secs(30));
        assert!(!lock.expired(SimTime::from_secs(32), lease), "the lease runs from the new grant");
        assert!(lock.expired(SimTime::from_secs(33), lease));
    }

    #[test]
    fn lease_expiry_allows_stealing() {
        let mut lock = SteeringLock::new();
        let lease = Some(SimDuration::from_secs(30));
        assert_eq!(lock.try_acquire_leased(&u("a"), SimTime::ZERO, lease), LockOutcome::Granted);
        // Within the lease: denied.
        assert_eq!(
            lock.try_acquire_leased(&u("b"), SimTime::from_secs(10), lease),
            LockOutcome::Denied { holder: u("a") }
        );
        // Past the lease: the stale holder is evicted and reported.
        assert_eq!(
            lock.try_acquire_leased(&u("b"), SimTime::from_secs(31), lease),
            LockOutcome::Granted
        );
        assert!(lock.is_held_by(&u("b")));
        assert_eq!(lock.take_evicted(), Some(u("a")));
        assert_eq!(lock.take_evicted(), None, "eviction collected once");
        // Without a lease, holders are never evicted.
        let mut lock = SteeringLock::new();
        lock.try_acquire_leased(&u("a"), SimTime::ZERO, None);
        assert_eq!(
            lock.try_acquire_leased(&u("b"), SimTime::from_secs(3600), None),
            LockOutcome::Denied { holder: u("a") }
        );
    }

    #[test]
    fn activity_refreshes_lease() {
        let mut lock = SteeringLock::new();
        let lease = Some(SimDuration::from_secs(30));
        lock.try_acquire_leased(&u("a"), SimTime::ZERO, lease);
        // Holder keeps steering: touch at t=25 refreshes the lease...
        lock.touch(&u("a"), SimTime::from_secs(25));
        // ...so a contender at t=40 (40s tenure, 15s inactivity) is denied.
        assert_eq!(
            lock.try_acquire_leased(&u("b"), SimTime::from_secs(40), lease),
            LockOutcome::Denied { holder: u("a") }
        );
        // A non-holder touch does nothing.
        lock.touch(&u("b"), SimTime::from_secs(41));
        assert_eq!(lock.active_at, Some(SimTime::from_secs(25)));
        // Silence past the lease: expired, eager sweep would reap it.
        assert!(!lock.expired(SimTime::from_secs(50), lease));
        assert!(lock.expired(SimTime::from_secs(56), lease));
        assert!(!lock.expired(SimTime::from_secs(56), None), "no lease, no expiry");
    }

    #[test]
    fn force_release_reports_previous_holder() {
        let mut lock = SteeringLock::new();
        assert_eq!(lock.force_release(), None);
        lock.try_acquire(&u("a"), SimTime::ZERO);
        lock.granted_via = Some(ServerAddr(9));
        assert_eq!(lock.force_release(), Some(u("a")));
        assert_eq!(lock.holder(), None);
        assert_eq!(lock.granted_via, None, "relay tag cleared with the grant");
    }

    #[test]
    fn reacquisition_drops_the_relay_tag() {
        // Granted via peer 9, then re-acquired through a session at the
        // host: peer 9 going down must no longer cost the holder the lock.
        let mut lock = SteeringLock::new();
        lock.try_acquire(&u("a"), SimTime::ZERO);
        lock.granted_via = Some(ServerAddr(9));
        assert_eq!(lock.try_acquire(&u("a"), SimTime::from_secs(1)), LockOutcome::Granted);
        assert_eq!(lock.granted_via, None, "relay tag cleared by the re-acquire");
        assert!(lock.is_held_by(&u("a")));
    }

    #[test]
    fn double_grant_fault_injection() {
        let mut lock = SteeringLock::new();
        lock.mutation = Some(Mutation::DoubleGrant);
        assert_eq!(lock.try_acquire(&u("a"), SimTime::ZERO), LockOutcome::Granted);
        // The injected bug grants the contender while "a" still holds.
        assert_eq!(lock.try_acquire(&u("b"), SimTime::ZERO), LockOutcome::Granted);
        assert!(lock.is_held_by(&u("a")), "holder not even updated: both clients believe");
    }
}
