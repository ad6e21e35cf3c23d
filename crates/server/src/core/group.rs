//! The collaboration handler: one broadcast path for every update,
//! selection and the group it joins, client-generated content, closing an
//! application, and the one replay of an application's log.

use std::sync::Arc;

use wire::{LogEntry, ResponseBody, UpdateBody};

use super::*;
use crate::security;

impl ServerCore {
    /// Deliver `update` to local group members (except `exclude`), and if
    /// this server hosts the app, log it and return the peer push set.
    pub(super) fn route_update(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        update: impl Into<FrozenUpdate>,
        exclude: Option<ClientId>,
        origin_peer: Option<ServerAddr>,
    ) {
        // Freeze once: the single DBP serialization this update will
        // ever get on this server (already-frozen updates from a peer
        // pass through untouched).
        let update: FrozenUpdate = update.into();
        let app = update.app();
        if origin_peer.is_none() {
            // A logical broadcast originates here (every origin_peer=Some
            // call re-routes an update some other server already froze
            // and counted), so `CodecStats::encode_calls` per
            // steady-state broadcast is exactly one network-wide.
            ctx.metrics().incr(names::SERVER_COLLAB_BROADCASTS);
        }
        // Every fan-out target below — N local fifos, the proxy update
        // log, the archive, and M peer pushes — shares the one frozen
        // encoding; each reuse is a reference-count bump, not a clone or
        // a serializer walk.
        let mut reuses = self.fan_out(ctx, &update, exclude);
        ctx.metrics().add(names::SERVER_COLLAB_LOCAL_FANOUT, reuses);
        if app.host() == self.config.addr {
            // We are the host: record and fan out to subscribed peers,
            // all but the one the update came from.
            let mut peers = None;
            if let Some(proxy) = self.apps.get_mut(&app) {
                proxy.push_update(update.clone(), origin_peer);
                reuses += 1;
                peers = Some(Rc::clone(&proxy.subscribers));
            }
            self.log_app_metered(ctx, app, None, LogEntry::Update(update.clone()));
            reuses += 1;
            if let Some(peers) = peers {
                let echo = origin_peer.is_some_and(|origin| peers.contains(&origin));
                let targets = peers.len() - usize::from(echo);
                if targets > 0 {
                    reuses += targets as u64;
                    self.effects.push(Effect::PushToPeers { update, peers, skip: origin_peer });
                }
            }
        } else if origin_peer.is_none() {
            // Locally generated update about a remote app: the host owns
            // global fan-out.
            reuses += 1;
            self.effects.push(Effect::ForwardToHost { update });
        }
        ctx.metrics().add(names::SERVER_FANOUT_PAYLOAD_REUSE, reuses);
    }

    /// Deliver `update` to the FIFO of every local broadcast target of
    /// its application (members minus `exclude` minus muted clients) and
    /// fold the FIFO counters once for the whole fan-out. Returns the
    /// number of targets; each got a reference to the one frozen
    /// encoding. On a coalescing server a view-class update is written
    /// once to its shared slot instead ([`ServerCore::share_latest`]).
    fn fan_out(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        update: &FrozenUpdate,
        exclude: Option<ClientId>,
    ) -> u64 {
        let app = update.app();
        let mut tally = FifoTally::default();
        let targets = if self.config.coalesce_fifo && update.coalesce_key().is_some() {
            self.share_latest(update, exclude, &mut tally);
            self.collab.target_count(app, exclude)
        } else {
            let mut targets = 0;
            for client in self.collab.broadcast_targets(app, exclude) {
                targets += 1;
                if let Some(s) = self.sessions.get_mut(client) {
                    tally.push(&mut s.fifo, ClientMessage::Update(update.clone()));
                }
            }
            targets
        };
        tally.fold(ctx);
        targets
    }

    /// The view-class broadcast of a coalescing server, in O(members that
    /// polled since the last one) instead of O(group): each target still
    /// holding a handle to the key's shared slot has exactly one queued
    /// entry the per-member push would coalesce into, so one write to
    /// the slot does all of those pushes; the pending members get a
    /// handle through the ordinary push. The FIFOs and counters end as
    /// that push loop leaves them.
    fn share_latest(
        &mut self,
        update: &FrozenUpdate,
        exclude: Option<ClientId>,
        tally: &mut FifoTally,
    ) {
        let app = update.app();
        let slot = self.collab.latest_for(update);
        // The excluded client keeps what it holds, not what follows.
        if let Some(s) = exclude.and_then(|client| self.sessions.get_mut(client)) {
            s.fifo.detach(&slot);
        }
        let holders = slot.set(update.clone());
        tally.enqueued += holders;
        tally.coalesced += holders;
        let mut pending = slot.take_pending();
        pending.retain(|&client| {
            if Some(client) == exclude || !self.collab.broadcast_enabled(app, client) {
                return true;
            }
            let Some(s) = self.sessions.get_mut(client) else { return true };
            tally.note(s.fifo.push_latest(&slot, client));
            false
        });
        slot.restore_pending(pending);
    }

    /// `client` stops following `app`'s shared slots (it leaves, or mutes
    /// the group): each handle its FIFO holds becomes a copy of the value
    /// it reads now.
    pub(super) fn unshare(&mut self, client: ClientId, app: AppId) {
        if let Some(s) = self.sessions.get_mut(client) {
            self.collab.latest(app).iter().for_each(|slot| {
                s.fifo.detach(slot);
            });
        }
    }

    /// Append to an app's archive log, folding the archival tick
    /// (snapshot taken / records compacted) into the node's metrics.
    pub(super) fn log_app_metered(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        app: AppId,
        user: Option<UserId>,
        entry: LogEntry,
    ) {
        let tick = self.archive.log_app(app, ctx.now(), user, entry);
        if tick.snapshot_taken {
            ctx.metrics().incr(names::SERVER_ARCHIVE_SNAPSHOTS);
        }
        if tick.compacted > 0 {
            ctx.metrics().add(names::SERVER_ARCHIVE_COMPACTED, tick.compacted);
        }
    }

    pub(super) fn do_select(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        client: ClientId,
        user: &UserId,
        app: AppId,
    ) -> Vec<ClientMessage> {
        // Level-2 authentication: resolve the user's privilege.
        let (privilege, interface, snapshot) = if app.host() == self.config.addr {
            match self.apps.get(&app) {
                None => return vec![Self::error(ErrorCode::NoSuchApp, format!("{app}"))],
                Some(proxy) => match proxy.privilege_of(user) {
                    None => {
                        ctx.metrics().incr(names::SERVER_ACL_DENIED);
                        return vec![Self::error(ErrorCode::AccessDenied, "not on the ACL")];
                    }
                    Some(p) => (
                        p,
                        proxy.interface.clone(),
                        Some(UpdateBody::AppStatus {
                            app,
                            status: proxy.last_status.clone(),
                            readings: proxy.last_readings.clone(),
                        }),
                    ),
                },
            }
        } else {
            match (self.remote_privs.get(&(user.clone(), app)), self.remote_apps.get(&app)) {
                (Some(p), Some(remote)) => (*p, remote.interface.clone(), None),
                _ => {
                    return vec![Self::error(
                        ErrorCode::AccessDenied,
                        "unknown remote application for this user (list applications first)",
                    )]
                }
            }
        };
        let first_member = !self.collab.has_members(app);
        self.collab.join(app, client);
        if let Some(s) = self.session_of(client, ctx.now()) {
            if !s.selected.contains(&app) {
                s.selected.push(app);
            }
        }
        if app.host() != self.config.addr && first_member {
            self.effects.push(Effect::Subscribe { app });
        }
        let update = UpdateBody::MemberJoined { app, user: user.clone() };
        self.route_update(ctx, update, Some(client), None);
        let mut out = vec![ClientMessage::Response(ResponseBody::AppSelected {
            app,
            interface: security::filter_interface(&interface, privilege),
            privilege,
        })];
        if let Some(snapshot) = snapshot {
            out.push(ClientMessage::update(snapshot));
        }
        out
    }

    pub(super) fn do_deselect(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        client: ClientId,
        user: &UserId,
        app: AppId,
    ) {
        self.unshare(client, app);
        self.collab.leave(app, client);
        if let Some(s) = self.session_of(client, ctx.now()) {
            s.selected.retain(|a| *a != app);
        }
        let update = UpdateBody::MemberLeft { app, user: user.clone() };
        self.route_update(ctx, update, Some(client), None);
        self.maybe_unsubscribe(app);
        self.release_lock_if_last_session(ctx, app, user);
    }

    pub(super) fn maybe_unsubscribe(&mut self, app: AppId) {
        if app.host() != self.config.addr && !self.collab.has_members(app) {
            self.effects.push(Effect::Unsubscribe { app });
        }
    }

    /// Collaboration content generated by a local client (chat,
    /// whiteboard, shared view).
    pub(super) fn client_update(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        client: ClientId,
        app: AppId,
        update: UpdateBody,
    ) -> Vec<ClientMessage> {
        if !self.collab.is_member(app, client) {
            return vec![Self::error(ErrorCode::AccessDenied, "select the application first")];
        }
        self.route_update(ctx, update, Some(client), None);
        vec![ClientMessage::Response(ResponseBody::Accepted)]
    }

    /// Remove a local application: notify groups, fail buffered requests,
    /// announce on the control channel.
    pub(super) fn close_app(&mut self, ctx: &mut Ctx<'_, Envelope>, app: AppId) {
        let Some(mut proxy) = self.apps.remove(&app) else { return };
        ctx.metrics().incr(names::SERVER_DAEMON_DEREGISTERED);
        // Fail anything still buffered.
        for entry in proxy.buffered.drain(..) {
            let error = WireError::new(ErrorCode::Unavailable, "application closed");
            self.resolve_op(ctx, entry.req, Err(error));
        }
        // Push directly (route_update would try the removed proxy);
        // frozen once, shared by fifos, archive and peer pushes alike.
        let update = FrozenUpdate::new(UpdateBody::AppClosed { app });
        ctx.metrics().incr(names::SERVER_COLLAB_BROADCASTS);
        let mut reuses = self.fan_out(ctx, &update, None);
        self.log_app_metered(ctx, app, None, LogEntry::Update(update.clone()));
        reuses += 1;
        let peers = proxy.subscribers;
        if !peers.is_empty() {
            reuses += peers.len() as u64;
            self.effects.push(Effect::PushToPeers { update, peers, skip: None });
        }
        ctx.metrics().add(names::SERVER_FANOUT_PAYLOAD_REUSE, reuses);
        self.collab.drop_app(app);
        self.effects.push(Effect::Announce {
            kind: ControlEventKind::AppClosed,
            detail: format!("{app}"),
            app: Some(app),
        });
    }

    /// The one host-side replay of an application's log from `since`,
    /// behind history fetches (local and relayed), catch-up and the
    /// resume suffix: the nearest snapshot ahead of the cursor plus the
    /// delta tail from its boundary, so the reply is O(snapshot
    /// interval), not O(session length), and the plain suffix when no
    /// snapshot helps — or when the reply cannot carry one (`History` has
    /// no snapshot field, so a history fetch keeps returning every
    /// retained record). `kind` also picks the counters that move.
    pub(super) fn replay(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        app: AppId,
        since: u64,
        kind: Replay,
    ) -> (Option<Arc<wire::ArchiveSnapshot>>, Vec<wire::LogRecord>, u64) {
        let replayed = match kind {
            Replay::History => {
                let (records, next_seq) = self.archive.fetch_app(app, since);
                return (None, records, next_seq);
            }
            Replay::CatchUp => {
                ctx.metrics().incr(names::SERVER_CATCHUP_REQUESTS);
                names::SERVER_CATCHUP_RECORDS
            }
            Replay::Resume => names::SERVER_RESUME_REPLAYED,
        };
        let (snapshot, records, next_seq) = self.archive.catch_up_app(app, since);
        if snapshot.is_some() {
            ctx.metrics().incr(names::SERVER_CATCHUP_SNAPSHOT_HITS);
        }
        ctx.metrics().add(replayed, records.len() as u64);
        (snapshot, records, next_seq)
    }

    /// Answer a local client's replay request: from the log when the
    /// application is hosted here; otherwise relayed to its host for a
    /// group member (the records arrive through the client's FIFO) and
    /// refused for anyone else. A resume replays only what its session
    /// had selected and has its own answer, so it says nothing either way.
    pub(super) fn client_replay(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        client: ClientId,
        app: AppId,
        since: u64,
        kind: Replay,
    ) -> Vec<ClientMessage> {
        if app.host() == self.config.addr {
            let (snapshot, records, next_seq) = self.replay(ctx, app, since, kind);
            let body = if snapshot.is_some() || matches!(kind, Replay::CatchUp) {
                ResponseBody::CatchUp { app, snapshot, records, next_seq }
            } else {
                ResponseBody::History { app, records, next_seq }
            };
            return vec![ClientMessage::Response(body)];
        }
        let member = self.collab.is_member(app, client);
        if member {
            self.effects.push(Effect::Relay { client, app, verb: RelayVerb::History { since } });
        }
        match (kind, member) {
            (Replay::Resume, _) => Vec::new(),
            (_, true) => vec![ClientMessage::Response(ResponseBody::Accepted)],
            (_, false) => {
                vec![Self::error(ErrorCode::AccessDenied, "select the application first")]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use simnet::{Actor, Engine};
    use wire::http::HttpResponse;
    use wire::{AppMsg, AppPhase, ClientRequest};

    use super::super::tests::*;
    use super::*;

    fn client(seq: u32) -> ClientId {
        ClientId { server: ADDR, seq }
    }

    fn status(iteration: u64) -> FrozenUpdate {
        FrozenUpdate::new(UpdateBody::AppStatus {
            app: APP,
            status: AppStatus { phase: AppPhase::Computing, iteration, progress: 0.0 },
            readings: Vec::new(),
        })
    }

    fn chat(text: &str) -> ClientMessage {
        ClientMessage::update(UpdateBody::Chat {
            app: APP,
            from: UserId::new("u"),
            text: text.into(),
        })
    }

    /// Give `core` group members whose FIFOs (capacity 4, coalescing)
    /// each meet the next status broadcast differently.
    fn stage_members(core: &mut ServerCore, ctx: &mut Ctx<'_, Envelope>) {
        let mut stage = |seq: u32, queued: Vec<ClientMessage>, drain: usize| {
            let mut fifo = FifoBuffer::with_coalescing(4, true);
            queued.into_iter().for_each(|msg| fifo.push(msg));
            fifo.drain_into(drain, &mut Vec::new());
            let now = ctx.now();
            core.sessions.create(ctx.rng(), user("u"), client(seq), now, fifo);
            core.collab.join(APP, client(seq));
        };
        let older = || ClientMessage::Update(status(1));
        // Coalesce: a superseded status is still queued.
        stage(0, vec![older()], 0);
        stage(1, vec![chat("a"), older(), chat("b")], 1);
        // Append below the high-water mark: peaked at 3, drained to 1.
        stage(2, vec![chat("a"), chat("b"), chat("c")], 2);
        // Evict: full, and no status among the four queued.
        stage(3, vec![chat("a"), chat("b"), chat("c"), chat("d")], 0);
        // Raise the peak: never held anything.
        stage(4, Vec::new(), 0);
        // A member whose FIFO is gone counts as a target and nothing else.
        core.collab.join(APP, client(5));
    }

    /// Stages the group at start, keeping or dropping every member's
    /// session, and delivers one status update to it: through
    /// `route_update`, or with one `fifo_push` per member.
    struct Host {
        core: ServerCore,
        batched: bool,
        sessions: bool,
    }

    impl Actor<Envelope> for Host {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
            stage_members(&mut self.core, ctx);
            if !self.sessions {
                self.core.sessions.clear();
            }
            let update = status(2);
            if self.batched {
                self.core.route_update(ctx, update, None, None);
            } else {
                for seq in 0..6 {
                    self.core.fifo_push(ctx, client(seq), ClientMessage::Update(update.clone()));
                }
            }
        }

        fn on_message(&mut self, _: &mut Ctx<'_, Envelope>, _: NodeId, _: Envelope) {}
    }

    type Counters = Vec<(String, u64)>;
    /// (run-wide, node registry) `webserv.fifo.*` counters and the FIFO
    /// snapshot after the delivery.
    type Outcome = (Counters, Counters, Vec<(ClientId, usize, usize, u64, u64)>);

    fn deliver(batched: bool) -> Outcome {
        let mut engine = Engine::new(1);
        let core = ServerCore::new(ServerConfig::new(ADDR, "s"));
        let node = engine.add_node("s", Host { core, batched, sessions: true });
        engine.run_to_quiescence();
        let fifo_counters = |stats: &simnet::Stats| {
            stats
                .counters()
                .filter(|(key, _)| key.starts_with("webserv.fifo."))
                .map(|(key, n)| (key.to_owned(), n))
                .collect::<Vec<_>>()
        };
        let host = engine.actor_ref::<Host>(node).expect("the host actor");
        (
            fifo_counters(&engine.stats()),
            fifo_counters(engine.node_metrics(node).stats()),
            host.core.fifo_snapshot(),
        )
    }

    #[test]
    fn one_broadcast_folds_to_the_counters_of_single_pushes() {
        let batched = deliver(true);
        assert_eq!(batched, deliver(false));
        let expected: Counters = [("coalesced", 2), ("dropped", 1), ("enqueued", 5), ("peak", 1)]
            .map(|(what, n)| (format!("webserv.fifo.{what}"), n))
            .into();
        assert_eq!(batched.0, expected);
        assert_eq!(batched.1, expected);
    }

    #[test]
    fn a_broadcast_that_moves_nothing_writes_no_fifo_counter() {
        // Per-push counting never created a counter it did not bump; the
        // fold must not either (reports list every written key).
        let mut engine = Engine::new(1);
        let core = ServerCore::new(ServerConfig::new(ADDR, "s"));
        let node = engine.add_node("s", Host { core, batched: true, sessions: false });
        engine.run_to_quiescence();
        let stats = engine.stats();
        let fifo = || stats.counters().filter(|(key, _)| key.starts_with("webserv.fifo."));
        assert_eq!(fifo().map(|(_, n)| n).sum::<u64>(), 0);
        assert_eq!(fifo().count(), 0);
        assert_eq!(engine.node_metrics(node).counter(names::SERVER_COLLAB_LOCAL_FANOUT), 6);
    }

    #[test]
    fn a_peer_push_keeps_the_subscriber_set_it_was_built_with() {
        // The push shares the proxy's set; a subscribe handled before the
        // push is handed off copies the set rather than widening the push.
        const LATE: ServerAddr = ServerAddr(3);
        let script: Script = Box::new(|core, ctx| {
            open_host(core, ctx, &[("u", Some(Privilege::Steer))]);
            subscribe_peer(core, ctx);
            let freed = FrozenUpdate::new(UpdateBody::LockChanged { app: APP, holder: None });
            core.route_update(ctx, freed.clone(), None, None);
            let effects = giop(core, ctx, PeerMsg::SubscribeApp { app: APP, subscriber: LATE });
            assert_eq!(effects.len(), 2, "{effects:?}");
            assert_eq!(effects[0], to_peer(freed));
            let Effect::PushToPeers { peers: seeded, .. } = &effects[1] else {
                panic!("the late subscriber's seed: {effects:?}")
            };
            assert_eq!(**seeded, BTreeSet::from([LATE]));
            assert_eq!(*core.apps[&APP].subscribers, BTreeSet::from([PEER, LATE]));
        });
        Loopback::run(ServerConfig::new(ADDR, "s"), script);
    }

    /// A coalescing server whose FIFOs hold four messages.
    fn coalescing(fifo_capacity: usize) -> ServerConfig {
        let mut config = ServerConfig::new(ADDR, "s");
        config.coalesce_fifo = true;
        config.fifo_capacity = fifo_capacity;
        config.recover_from_archive = true;
        config
    }

    fn drain_fifo(core: &mut ServerCore, client: ClientId, max: usize) -> Vec<ClientMessage> {
        let mut batch = Vec::new();
        if let Some(s) = core.sessions.get_mut(client) {
            s.fifo.drain_into(max, &mut batch);
        }
        batch
    }

    #[test]
    fn a_status_update_pushes_only_to_the_viewer_that_polled() {
        let names: Vec<String> = (0..256).map(|i| format!("v{i}")).collect();
        let script: Script = Box::new(move |core, ctx| {
            let acl: Vec<_> =
                names.iter().map(|n| (n.as_str(), Some(Privilege::ReadOnly))).collect();
            let viewers = open_host(core, ctx, &acl);
            for &(cookie, _) in &viewers {
                http(core, ctx, Some(cookie), ClientRequest::SelectApp { app: APP });
            }
            for &(_, client) in &viewers {
                drain_fifo(core, client, usize::MAX);
            }
            let update = |core: &mut ServerCore, ctx: &mut Ctx<'_, Envelope>, iteration| {
                let status = AppStatus { phase: AppPhase::Interacting, iteration, progress: 0.0 };
                tcp(core, ctx, AppMsg::Update { app: APP, status, readings: Vec::new() });
            };
            // The first status opens the slot and pushes to everyone; the
            // second is one write.
            update(core, ctx, 1);
            update(core, ctx, 2);
            let [slot] = core.collab.latest(APP) else { panic!("one slot") };
            let slot = Rc::clone(slot);
            assert_eq!((slot.holders(), slot.take_pending()), (256, Vec::new()));
            // One viewer polls the newest status and goes back on the list.
            let (cookie, first) = viewers[0];
            http(core, ctx, Some(cookie), ClientRequest::Poll);
            let pending = slot.take_pending();
            assert_eq!((slot.holders(), &pending[..]), (255, &[first][..]));
            slot.restore_pending(pending);
            // The next status: one push, to it; 255 writes through the slot.
            let counter =
                |ctx: &mut Ctx<'_, Envelope>, name: simnet::CounterDef| ctx.metrics().counter(name);
            let before = [names::WEBSERV_FIFO_ENQUEUED, names::WEBSERV_FIFO_COALESCED]
                .map(|name| counter(ctx, name));
            update(core, ctx, 3);
            let after = [names::WEBSERV_FIFO_ENQUEUED, names::WEBSERV_FIFO_COALESCED]
                .map(|name| counter(ctx, name));
            assert_eq!([after[0] - before[0], after[1] - before[1]], [256, 255]);
            assert_eq!((slot.holders(), slot.take_pending()), (256, Vec::new()));
            for &(cookie, _) in &viewers {
                http(core, ctx, Some(cookie), ClientRequest::Poll);
            }
        });
        let (engine, node) = Loopback::run(coalescing(256), script);
        let host = engine.actor_ref::<Loopback>(node).expect("the loopback actor");
        let iteration = |body: &[ClientMessage]| match body {
            [ClientMessage::Response(ResponseBody::Batch(batch))] => match &batch[..] {
                [ClientMessage::Update(u)] => match u.body() {
                    UpdateBody::AppStatus { status, .. } => status.iteration,
                    other => panic!("{other:?}"),
                },
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        };
        let polls = &host.http[host.http.len() - 257..];
        assert_eq!(iteration(&polls[0].body), 2, "the first poll read the second status");
        for poll in &polls[1..] {
            assert_eq!(iteration(&poll.body), 3, "every viewer reads the newest status");
        }
        assert_eq!(engine.node_metrics(node).counter(names::SERVER_POLL_DELIVERED), 257);
    }

    /// One step of a fan-out script; numbers pick one of the script's
    /// six users.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Login(usize),
        Select(usize),
        Deselect(usize),
        Mute(usize, bool),
        /// Drain up to this many messages, as a poll does.
        Poll(usize, usize),
        Logout(usize),
        Park(usize),
        Resume(usize),
        /// A view-class update (status, two parameters, the lock),
        /// skipping a user's client or nobody.
        Keyed(u64, Option<usize>),
        /// A chat line, skipping a user's client or nobody.
        Unkeyed(Option<usize>),
        Recover,
    }

    const USERS: usize = 6;

    /// SplitMix64: scripts from a seed, without a dependency.
    struct Draw(u64);

    impl Draw {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        fn user(&mut self) -> usize {
            self.below(USERS as u64) as usize
        }

        fn skipped(&mut self) -> Option<usize> {
            (self.below(3) > 0).then(|| self.user())
        }

        fn step(&mut self) -> Step {
            match self.below(40) {
                0..=2 => Step::Login(self.user()),
                3..=6 => Step::Select(self.user()),
                7 => Step::Deselect(self.user()),
                8..=9 => Step::Mute(self.user(), self.below(2) == 0),
                10..=17 => Step::Poll(self.user(), 1 + self.below(5) as usize),
                18 => Step::Logout(self.user()),
                19 => Step::Park(self.user()),
                20 => Step::Resume(self.user()),
                21..=35 => Step::Keyed(self.below(4), self.skipped()),
                36..=38 => Step::Unkeyed(self.skipped()),
                _ => Step::Recover,
            }
        }
    }

    /// What a script run shows of the FIFOs: every drained batch and
    /// every FIFO's (len, peak, dropped, enqueued), after each step.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Batch(usize, Vec<ClientMessage>),
        Fifos(Vec<(ClientId, usize, usize, u64, u64)>),
    }

    type Run = (Vec<Seen>, Vec<HttpResponse>, Vec<(String, u64)>);

    /// The per-member push loop the shared slots replaced: every target's
    /// FIFO gets its own push.
    fn push_to_each(
        core: &mut ServerCore,
        ctx: &mut Ctx<'_, Envelope>,
        update: &FrozenUpdate,
        exclude: Option<ClientId>,
    ) {
        let mut tally = FifoTally::default();
        for client in core.collab.broadcast_targets(update.app(), exclude) {
            if let Some(s) = core.sessions.get_mut(client) {
                tally.push(&mut s.fifo, ClientMessage::Update(update.clone()));
            }
        }
        tally.fold(ctx);
    }

    fn keyed(kind: u64, n: u64) -> FrozenUpdate {
        let param = |name: &str| UpdateBody::ParamChanged {
            app: APP,
            name: name.into(),
            value: wire::Value::Float(n as f64),
            by: user("u0"),
        };
        match kind {
            0 => status(n),
            1 => FrozenUpdate::new(param("alpha")),
            2 => FrozenUpdate::new(param("beta")),
            _ => FrozenUpdate::new(UpdateBody::LockChanged { app: APP, holder: None }),
        }
    }

    /// Run `steps` on a coalescing server whose FIFOs hold four messages,
    /// broadcasting view-class updates through `route_update` or, for
    /// the reference, through `push_to_each` (logged alike, so that
    /// resumes and recoveries read the same archive). Returns what the
    /// FIFOs showed, every HTTP reply, the `webserv.fifo.*` totals, and
    /// how many handles the slot writes reached.
    fn run_script(steps: Vec<Step>, shared: bool) -> (Run, u64) {
        let seen = Rc::new(std::cell::RefCell::new(Vec::new()));
        let log = Rc::clone(&seen);
        let absorbed = Rc::new(std::cell::Cell::new(0));
        let reached = Rc::clone(&absorbed);
        let script: Script = Box::new(move |core, ctx| {
            let names: Vec<String> = (0..USERS).map(|i| format!("u{i}")).collect();
            let acl: Vec<_> =
                names.iter().map(|n| (n.as_str(), Some(Privilege::ReadOnly))).collect();
            let mut sessions: Vec<Option<(u64, ClientId)>> =
                open_host(core, ctx, &acl).into_iter().map(Some).collect();
            let mut n = 0;
            for step in steps {
                n += 1;
                let session = |i: usize| sessions[i];
                let cookie = |i: usize| session(i).map(|(cookie, _)| cookie);
                let client = |i: Option<usize>| i.and_then(session).map(|(_, client)| client);
                match step {
                    Step::Login(i) if session(i).is_none() => {
                        sessions[i] = Some(login(core, ctx, &names[i]));
                    }
                    Step::Login(_) => {}
                    Step::Select(i) => {
                        http(core, ctx, cookie(i), ClientRequest::SelectApp { app: APP });
                    }
                    Step::Deselect(i) => {
                        http(core, ctx, cookie(i), ClientRequest::DeselectApp { app: APP });
                    }
                    Step::Mute(i, broadcast) => {
                        let mode = ClientRequest::SetCollabMode { app: APP, broadcast };
                        http(core, ctx, cookie(i), mode);
                    }
                    Step::Poll(i, max) => {
                        if let Some(c) = client(Some(i)) {
                            let batch = drain_fifo(core, c, max);
                            log.borrow_mut().push(Seen::Batch(i, batch));
                        }
                    }
                    Step::Logout(i) => {
                        http(core, ctx, cookie(i), ClientRequest::Logout);
                        sessions[i] = None;
                    }
                    Step::Park(i) => {
                        if let Some(s) = client(Some(i)).and_then(|c| core.sessions.get_mut(c)) {
                            let since = ctx.now();
                            s.parked = Some(Box::new(webserv::Park { since, cursors: Vec::new() }));
                        }
                    }
                    Step::Resume(i) => {
                        if let Some(cookie) = cookie(i) {
                            let resume = ClientRequest::Resume { cookie, cursors: Vec::new() };
                            http(core, ctx, None, resume);
                        }
                    }
                    Step::Keyed(kind, skipped) => {
                        let update = keyed(kind, n);
                        if shared {
                            core.route_update(ctx, update, client(skipped), None);
                            let slots = core.collab.latest(APP);
                            let holders: u64 = slots.iter().map(|slot| slot.holders()).sum();
                            reached.set(reached.get() + holders);
                        } else {
                            push_to_each(core, ctx, &update, client(skipped));
                            let entry = LogEntry::Update(update);
                            core.log_app_metered(ctx, APP, None, entry);
                        }
                    }
                    Step::Unkeyed(skipped) => {
                        let line =
                            UpdateBody::Chat { app: APP, from: user("u0"), text: "hi".into() };
                        core.route_update(ctx, line, client(skipped), None);
                    }
                    Step::Recover => {
                        core.recover_from_archive(ctx);
                        sessions.iter_mut().for_each(|s| *s = None);
                    }
                }
                log.borrow_mut().push(Seen::Fifos(core.fifo_snapshot()));
                // Every member either holds a handle or is pending, once.
                let members = core.collab.members(APP).len();
                for slot in core.collab.latest(APP) {
                    let pending = slot.take_pending();
                    assert_eq!(pending.len() as u64 + slot.holders(), members as u64, "{step:?}");
                    slot.restore_pending(pending);
                }
            }
        });
        let (engine, node) = Loopback::run(coalescing(4), script);
        let host = engine.actor_ref::<Loopback>(node).expect("the loopback actor");
        let totals = engine
            .node_metrics(node)
            .stats()
            .counters()
            .filter(|(key, _)| key.starts_with("webserv.fifo."))
            .map(|(key, n)| (key.to_owned(), n))
            .collect();
        let seen = seen.take();
        ((seen, host.http.clone(), totals), absorbed.get())
    }

    #[test]
    fn shared_slots_deliver_what_a_push_to_each_member_delivers() {
        let mut reached = 0;
        for seed in 0..300 {
            let mut draw = Draw(seed);
            let steps: Vec<Step> = (0..80).map(|_| draw.step()).collect();
            let ((seen, replies, totals), absorbed) = run_script(steps.clone(), true);
            let (reference, _) = run_script(steps.clone(), false);
            assert_eq!(seen, reference.0, "seed {seed}: {steps:?}");
            assert_eq!(replies, reference.1, "seed {seed}: replies");
            assert_eq!(totals, reference.2, "seed {seed}: totals");
            reached += absorbed;
        }
        assert!(reached > 1000, "the slot writes reached {reached} queued handles");
    }

    #[test]
    fn history_catch_up_and_resume_serve_one_walk() {
        let mut config = ServerConfig::new(ADDR, "s");
        config.snapshot_every = Some(4);
        let script: Script = Box::new(|core, ctx| {
            let cookie = open_session(core, ctx);
            let client = core.sessions.by_cookie(cookie).expect("live").client;
            for iteration in 1..=10 {
                let status = AppStatus { phase: AppPhase::Interacting, iteration, progress: 0.0 };
                tcp(core, ctx, AppMsg::Update { app: APP, status, readings: Vec::new() });
            }
            let log = core.archive.app_log(APP).expect("archived");
            let late = log.snapshots().last().expect("snapshots were taken").seq;
            assert!(late < log.next_seq(), "a tail follows the last snapshot");
            // Hosted: answered in the response, nothing to hand off.
            for since in [0, late] {
                let asks = [
                    ClientRequest::GetHistory { app: APP, since },
                    ClientRequest::CatchUp { app: APP, since },
                    ClientRequest::Resume { cookie, cursors: vec![(APP, since)] },
                ];
                for ask in asks {
                    assert!(http(core, ctx, Some(cookie), ask).is_empty());
                }
            }
            // Remote: relayed to the host for a member, refused (or, in a
            // resume, skipped) for anyone else.
            let relayed =
                [Effect::Relay { client, app: REMOTE, verb: RelayVerb::History { since: 3 } }];
            let stranger = AppId { server: PEER, seq: 9 };
            for app in [REMOTE, stranger] {
                let asks = [
                    ClientRequest::GetHistory { app, since: 3 },
                    ClientRequest::CatchUp { app, since: 3 },
                    ClientRequest::Resume { cookie, cursors: vec![(app, 3)] },
                ];
                for ask in asks {
                    let effects = http(core, ctx, Some(cookie), ask);
                    assert_eq!(effects, if app == REMOTE { &relayed[..] } else { &[] });
                }
            }
        });
        let (engine, node) = Loopback::run(config, script);
        let host = engine.actor_ref::<Loopback>(node).expect("the loopback actor");
        let bodies: Vec<&[ClientMessage]> =
            host.http[host.http.len() - 12..].iter().map(|r| r.body.as_slice()).collect();
        let body = |m: &ClientMessage| match m {
            ClientMessage::Response(body) => body.clone(),
            other => panic!("unexpected {other:?}"),
        };
        // Cursor behind the snapshots: history is the whole log; catch-up
        // and resume are the same snapshot + tail.
        let ResponseBody::History { records: full, .. } = body(&bodies[0][0]) else {
            panic!("{:?}", bodies[0]);
        };
        let caught_up = body(&bodies[1][0]);
        let ResponseBody::CatchUp { snapshot: Some(shared), records: tail, .. } = &caught_up else {
            panic!("{caught_up:?}");
        };
        assert!(tail.len() < full.len() && full.ends_with(tail));
        assert!(matches!(body(&bodies[2][0]), ResponseBody::Resumed { .. }));
        assert_eq!(body(&bodies[2][1]), caught_up);
        // Not a copy of it either: both replies point at the archive's own.
        let ResponseBody::CatchUp { snapshot: Some(resumed), .. } = body(&bodies[2][1]) else {
            panic!("{:?}", bodies[2]);
        };
        let archived = host.core.archive.app_log(APP).expect("archived").snapshots();
        assert!(Arc::ptr_eq(shared, &resumed));
        assert!(Arc::ptr_eq(shared, archived.last().expect("snapshots were taken")));
        // Cursor past the last snapshot: all three serve the plain suffix.
        let suffix = body(&bodies[3][0]);
        let ResponseBody::History { records, next_seq, .. } = suffix.clone() else {
            panic!("{suffix:?}");
        };
        assert!(!records.is_empty());
        let bare = ResponseBody::CatchUp { app: APP, snapshot: None, records, next_seq };
        assert_eq!(body(&bodies[4][0]), bare);
        assert_eq!(body(&bodies[5][1]), suffix);
        // Remote, member: accepted (a resume just resumes); stranger: refused.
        for accepted in [bodies[6], bodies[7]] {
            assert_eq!(body(&accepted[0]), ResponseBody::Accepted);
        }
        for resumed in [bodies[8], bodies[11]] {
            assert!(matches!(resumed, [ClientMessage::Response(ResponseBody::Resumed { .. })]));
        }
        for refused in [bodies[9], bodies[10]] {
            let [ClientMessage::Error(e)] = refused else { panic!("{refused:?}") };
            assert_eq!(e.code, ErrorCode::AccessDenied);
        }
        let stats = engine.node_metrics(node);
        assert_eq!(stats.counter(names::SERVER_CATCHUP_REQUESTS), 2);
        // One catch-up and one resume found a snapshot ahead of their cursor.
        assert_eq!(stats.counter(names::SERVER_CATCHUP_SNAPSHOT_HITS), 2);
    }
}
