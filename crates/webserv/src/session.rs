//! Per-client session records for the servlet container.
//!
//! The master handler "creates a session object for each connecting
//! client" (§4.1), and the server keeps one FIFO per client for slow
//! clients (§6.2): both are one [`HttpSession`], held by client id with a
//! second index by the `JSESSIONID` cookie. A session whose lease lapses
//! is *parked* in place: its cookie stops validating, and it keeps its
//! FIFO and selections until a resume revives it or a teardown removes it.

use std::collections::HashMap;

use rand::Rng;
use simnet::SimTime;
use wire::{AppId, ClientId, IdMap, UserId};

use crate::FifoBuffer;

/// The state a parked session keeps for its resume.
#[derive(Debug)]
pub struct Park {
    /// When the lease lapsed (park-TTL expiry is measured from here).
    pub since: SimTime,
    /// Archive cursor per selected local app at park time, the start of
    /// the suffix a resume replays (the caller's to fill in).
    pub cursors: Vec<(AppId, u64)>,
}

/// Server-side state of one logged-in client, live or parked. The table
/// indexes `cookie` and `client`: change neither.
#[derive(Debug)]
pub struct HttpSession {
    /// The session cookie.
    pub cookie: u64,
    /// Authenticated user (set by a successful login).
    pub user: UserId,
    /// Client id issued by the master handler.
    pub client: ClientId,
    /// Applications this client currently has selected (level-2 sessions).
    pub selected: Vec<AppId>,
    /// Last request instant (for idle reaping).
    pub last_active: SimTime,
    /// The client's poll buffer. It lives and dies with the session and
    /// keeps filling while the session is parked.
    pub fifo: FifoBuffer,
    /// `Some` while parked: the cookie does not validate. Boxed because
    /// parks are rare: inline, it would widen every record by 24 bytes.
    pub parked: Option<Box<Park>>,
}

/// The one record per client session: live and parked sessions by client
/// id, and a cookie index over both.
#[derive(Debug, Default)]
pub struct SessionTable {
    sessions: IdMap<ClientId, HttpSession>,
    /// Cookies arrive from clients, so this index keeps std's seeded
    /// hasher.
    by_cookie: HashMap<u64, ClientId>,
}

impl SessionTable {
    /// Create a live session for an authenticated user, holding `fifo`;
    /// returns the cookie, which no live or parked session holds.
    pub fn create(
        &mut self,
        rng: &mut impl Rng,
        user: UserId,
        client: ClientId,
        now: SimTime,
        fifo: FifoBuffer,
    ) -> u64 {
        // Cookies must be unpredictable and unique.
        let mut cookie: u64 = rng.gen();
        while cookie == 0 || self.by_cookie.contains_key(&cookie) {
            cookie = rng.gen();
        }
        self.by_cookie.insert(cookie, client);
        let selected = Vec::new();
        let session =
            HttpSession { cookie, user, client, selected, last_active: now, fifo, parked: None };
        self.sessions.insert(client, session);
        cookie
    }

    /// Look up the live session holding `cookie` and touch it.
    pub fn touch(&mut self, cookie: u64, now: SimTime) -> Option<&mut HttpSession> {
        let s = self.sessions.get_mut(self.by_cookie.get(&cookie)?)?;
        s.parked.is_none().then(|| {
            s.last_active = now;
            s
        })
    }

    /// The session holding `cookie`, live or parked.
    pub fn by_cookie(&self, cookie: u64) -> Option<&HttpSession> {
        self.sessions.get(self.by_cookie.get(&cookie)?)
    }

    /// The session of `client`, live or parked.
    pub fn get(&self, client: ClientId) -> Option<&HttpSession> {
        self.sessions.get(&client)
    }

    /// The session of `client`, live or parked, to change.
    pub fn get_mut(&mut self, client: ClientId) -> Option<&mut HttpSession> {
        self.sessions.get_mut(&client)
    }

    /// Revive the session holding `cookie` as of `now`: touch it, and
    /// take its park if it was parked.
    pub fn resume(&mut self, cookie: u64, now: SimTime) -> Option<(&HttpSession, Option<Park>)> {
        let s = self.sessions.get_mut(self.by_cookie.get(&cookie)?)?;
        s.last_active = now;
        let park = s.parked.take().map(|park| *park);
        Some((s, park))
    }

    /// End a session, live or parked, returning its final state.
    pub fn remove(&mut self, client: ClientId) -> Option<HttpSession> {
        let s = self.sessions.remove(&client)?;
        self.by_cookie.remove(&s.cookie);
        Some(s)
    }

    /// Park every live session idle since before `cutoff`, as of `now`
    /// and with no cursors yet; returns their clients in cookie order
    /// (the sweep must be deterministic for the simulation's replay
    /// guarantee). All of them leave the live set before the caller
    /// parks or tears down the first.
    pub fn reap_idle(&mut self, cutoff: SimTime, now: SimTime) -> Vec<ClientId> {
        let is_idle = |s: &&mut HttpSession| s.parked.is_none() && s.last_active < cutoff;
        let mut idle: Vec<&mut HttpSession> = self.sessions.values_mut().filter(is_idle).collect();
        idle.sort_unstable_by_key(|s| s.cookie);
        idle.iter_mut()
            .for_each(|s| s.parked = Some(Box::new(Park { since: now, cursors: Vec::new() })));
        idle.into_iter().map(|s| s.client).collect()
    }

    /// Parked sessions in cookie order.
    pub fn parked(&self) -> Vec<&HttpSession> {
        let mut parked: Vec<&HttpSession> =
            self.sessions.values().filter(|s| s.parked.is_some()).collect();
        parked.sort_unstable_by_key(|s| s.cookie);
        parked
    }

    /// Drop every session at once (crash recovery: a restarted server's
    /// session plane is volatile, so all cookies stop validating and
    /// clients fall back to resume-or-login). Returns the number of live
    /// sessions dropped.
    pub fn clear(&mut self) -> usize {
        let live = self.live().count();
        self.sessions.clear();
        self.by_cookie.clear();
        live
    }

    /// Every session, live or parked (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &HttpSession> {
        self.sessions.values()
    }

    /// Live sessions (arbitrary order).
    pub fn live(&self) -> impl Iterator<Item = &HttpSession> {
        self.iter().filter(|s| s.parked.is_none())
    }

    /// Users with a live session, sorted and deduplicated.
    pub fn users(&self) -> Vec<UserId> {
        let mut users: Vec<UserId> = self.live().map(|s| s.user.clone()).collect();
        users.sort();
        users.dedup();
        users
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use simnet::SimDuration;
    use wire::ServerAddr;

    fn client(seq: u32) -> ClientId {
        ClientId { server: ServerAddr(1), seq }
    }

    fn create(table: &mut SessionTable, rng: &mut impl Rng, user: &str, seq: u32) -> u64 {
        table.create(rng, UserId::new(user), client(seq), SimTime::ZERO, FifoBuffer::new(4))
    }

    #[test]
    fn create_touch_remove() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut table = SessionTable::default();
        let cookie = create(&mut table, &mut rng, "vijay", 0);
        assert_ne!(cookie, 0);
        assert_eq!(table.live().count(), 1);
        let t1 = SimTime::ZERO + SimDuration::from_secs(5);
        let s = table.touch(cookie, t1).unwrap();
        assert_eq!(s.last_active, t1);
        assert_eq!(s.user, UserId::new("vijay"));
        assert!(table.touch(cookie ^ 1, t1).is_none());
        let s = table.remove(client(0)).unwrap();
        assert_eq!(s.cookie, cookie);
        assert!(table.iter().next().is_none() && table.by_cookie(cookie).is_none());
    }

    #[test]
    fn reap_idle_parks_in_place() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut table = SessionTable::default();
        let c1 = create(&mut table, &mut rng, "a", 0);
        let c2 = create(&mut table, &mut rng, "b", 1);
        table.touch(c2, SimTime::from_secs(100));
        let now = SimTime::from_secs(120);
        assert_eq!(table.reap_idle(SimTime::from_secs(50), now), [client(0)]);
        assert!(table.touch(c1, now).is_none(), "a parked cookie does not validate");
        assert_eq!(table.get(client(0)).unwrap().parked.as_ref().unwrap().since, now);
        assert_eq!((table.live().count(), table.parked().len()), (1, 1));
        let (s, park) = table.resume(c1, now).unwrap();
        assert_eq!((s.client, park.map(|p| p.since)), (client(0), Some(now)));
        assert!(table.touch(c1, now).is_some());
    }

    #[test]
    fn users_deduplicated() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut table = SessionTable::default();
        create(&mut table, &mut rng, "a", 0);
        create(&mut table, &mut rng, "a", 1);
        create(&mut table, &mut rng, "b", 2);
        assert_eq!(table.users().len(), 2);
    }

    #[test]
    fn clear_drops_everything_and_counts_the_live() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut table = SessionTable::default();
        for i in 0..3 {
            create(&mut table, &mut rng, "u", i);
        }
        table.reap_idle(SimTime::from_secs(1), SimTime::from_secs(1));
        create(&mut table, &mut rng, "u", 3);
        assert_eq!(table.clear(), 1);
        assert!(table.iter().next().is_none());
    }

    #[test]
    fn cookies_are_unique() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut table = SessionTable::default();
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            assert!(seen.insert(create(&mut table, &mut rng, "u", i)), "duplicate cookie");
        }
    }

    /// Hands out the given draws in order.
    struct Scripted(Vec<u64>);

    impl RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            self.0.remove(0)
        }
    }

    #[test]
    fn a_fresh_cookie_never_matches_a_parked_one() {
        let mut table = SessionTable::default();
        let parked = create(&mut table, &mut Scripted(vec![7]), "a", 0);
        table.reap_idle(SimTime::from_secs(1), SimTime::from_secs(1));
        // The login's first draw is the parked cookie: it takes the next.
        let live = create(&mut table, &mut Scripted(vec![parked, 9]), "b", 1);
        assert_eq!(live, 9);
        let (s, park) = table.resume(parked, SimTime::from_secs(2)).unwrap();
        assert_eq!((s.client, park.is_some()), (client(0), true));
        let s = table.get(client(1)).unwrap();
        assert_eq!((s.cookie, &s.user, s.last_active), (9, &UserId::new("b"), SimTime::ZERO));
        assert_eq!(table.live().count(), 2);
    }
}
