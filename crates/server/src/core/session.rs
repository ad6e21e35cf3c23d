//! The master handler: HTTP ingress, login and the level-1 check,
//! resume, the idle reaper's park and reclaim, and the one teardown.

use wire::http::HttpRequest;
use wire::{AppDescriptor, ClientRequest, Event, LockStep, ResponseBody, UpdateBody};

use super::*;
use crate::security;

impl ServerCore {
    /// Handle one HTTP request from a client portal. Returns out-call
    /// effects for the substrate.
    pub fn handle_http(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        from: NodeId,
        req: HttpRequest,
        wire_bytes: usize,
    ) -> Vec<Effect> {
        ctx.metrics().incr(names::SERVER_HTTP_REQUESTS);
        // `wire_bytes` is the envelope's cached content size — the same
        // number `req.wire_size()` would produce, minus the re-walk.
        ctx.consume(HTTP_COSTS.request_cost(wire_bytes));
        let (status, set_session, body) = self.serve_http(ctx, req);
        self.respond(ctx, from, status, set_session, body);
        self.drain_effects()
    }

    /// Decide the single response to `req`: (status, session cookie to
    /// set, body).
    fn serve_http(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        req: HttpRequest,
    ) -> (u16, Option<u64>, Vec<ClientMessage>) {
        // Webserv ingress deadline check: work that expired in the
        // network (or a client queue) is answered immediately instead of
        // burning server capacity. Only stamped requests (workload ops)
        // ever carry a deadline, so session bookkeeping is unaffected.
        if self.incoming_deadline.is_some_and(|stamp| stamp.expired(ctx.now())) {
            ctx.metrics().incr(names::SERVER_DEADLINE_INGRESS_EXPIRED);
            let error =
                Self::error(ErrorCode::DeadlineExceeded, "deadline passed before server ingress");
            return (200, None, vec![error]);
        }

        let request = match req.body {
            // Login is the only request valid without a session.
            Some(ClientRequest::Login { user, password }) => {
                return self.do_login(ctx, user, &password);
            }
            // Resume authenticates by the presented token (the session
            // may be parked, in which case the live-session lookup below
            // would 401).
            Some(ClientRequest::Resume { cookie, cursors }) => {
                let (status, body) = self.do_resume(ctx, cookie, cursors);
                return (status, None, body);
            }
            // Status is a read-only introspection page, served with or
            // without a session (like the paper's server list): operators
            // must be able to probe a node whose session plane is wedged.
            Some(ClientRequest::Status) => {
                ctx.metrics().incr(names::SERVER_STATUS_REQUESTS);
                let now_us = ctx.now().as_micros();
                let report = Box::new(self.status_report(now_us, ctx.metrics()));
                return (200, None, vec![ClientMessage::Response(ResponseBody::Status(report))]);
            }
            request => request,
        };

        let session = req.session.and_then(|c| self.sessions.touch(c, ctx.now()));
        let Some(session) = session else {
            return (401, None, vec![Self::error(ErrorCode::AuthFailed, "no valid session")]);
        };
        let client = session.client;
        let user = session.user.clone();

        // Admission control: when an inflight budget is configured,
        // view-class operations are rejected at ingress once the budget
        // is spent. Steering commands and lock traffic are exempt — the
        // paper's interaction model keeps control responsive while
        // monitoring load is shed deterministically.
        if let Some(budget) = self.config.admission_inflight_max {
            if let Some(ClientRequest::Op { op, .. }) = &request {
                if !op.is_mutating() && self.origins.len() >= budget {
                    ctx.metrics().incr(names::SERVER_ADMISSION_REJECTED);
                    let error = Self::error(
                        ErrorCode::Overloaded,
                        format!("server overloaded; retry-after: {OVERLOAD_RETRY_AFTER_MS}ms"),
                    );
                    return (200, None, vec![error]);
                }
            }
        }

        let body = match request {
            None | Some(ClientRequest::Poll) => {
                // One envelope per poll: the whole drained batch ships
                // behind a single framing header (`ResponseBody::Batch`),
                // so frames-per-poll is 1 by construction. The batch Vec
                // travels inside the envelope, so the allocation elided
                // here is the empty-poll one: `drain_into` on an empty
                // FIFO never touches the heap, and a nonempty drain
                // reserves exactly once from the iterator's exact size.
                let mut batch = Vec::new();
                session.fifo.drain_into(POLL_BATCH_MAX, &mut batch);
                ctx.metrics().incr(names::SERVER_POLL_REQUESTS);
                ctx.metrics().add(names::SERVER_POLL_DELIVERED, batch.len() as u64);
                if !batch.is_empty() {
                    ctx.metrics().incr(names::SERVER_POLL_NONEMPTY);
                }
                vec![ClientMessage::Response(ResponseBody::Batch(batch))]
            }
            Some(ClientRequest::Logout) => {
                self.end_session(ctx, client);
                vec![ClientMessage::Response(ResponseBody::LogoutOk)]
            }
            Some(ClientRequest::ListApplications) => {
                // Refresh remote knowledge in the background.
                self.effects.push(Effect::RemoteAuth {
                    client,
                    user: user.clone(),
                    password: security::expected_password(&user),
                });
                vec![ClientMessage::Response(ResponseBody::Apps(self.visible_apps(&user)))]
            }
            Some(ClientRequest::SelectApp { app }) => self.do_select(ctx, client, &user, app),
            Some(ClientRequest::DeselectApp { app }) => {
                self.do_deselect(ctx, client, &user, app);
                vec![ClientMessage::Response(ResponseBody::AppDeselected { app })]
            }
            Some(ClientRequest::Op { app, op }) => self.do_op(ctx, client, &user, app, op),
            Some(ClientRequest::RequestLock { app }) => self.do_lock(ctx, client, &user, app, true),
            Some(ClientRequest::ReleaseLock { app }) => {
                self.do_lock(ctx, client, &user, app, false)
            }
            Some(ClientRequest::JoinSubgroup { app, group }) => {
                self.collab.join_subgroup(app, &group, client);
                vec![ClientMessage::Response(ResponseBody::SubgroupOk { app, group, joined: true })]
            }
            Some(ClientRequest::LeaveSubgroup { app, group }) => {
                self.collab.leave_subgroup(app, &group, client);
                vec![ClientMessage::Response(ResponseBody::SubgroupOk {
                    app,
                    group,
                    joined: false,
                })]
            }
            Some(ClientRequest::SetCollabMode { app, broadcast }) => {
                self.collab.set_broadcast(app, client, broadcast);
                if !broadcast {
                    self.unshare(client, app);
                }
                vec![ClientMessage::Response(ResponseBody::CollabModeOk { app, broadcast })]
            }
            Some(ClientRequest::Chat { app, text }) => {
                let update = UpdateBody::Chat { app, from: user, text };
                self.client_update(ctx, client, app, update)
            }
            Some(ClientRequest::Whiteboard { app, stroke }) => {
                let update = UpdateBody::Whiteboard { app, from: user, stroke };
                self.client_update(ctx, client, app, update)
            }
            Some(ClientRequest::ShareView { app, view }) => {
                // Explicit shares bypass the client's broadcast-disabled
                // mode by definition.
                let update = UpdateBody::ViewShared { app, from: user, view };
                self.client_update(ctx, client, app, update)
            }
            Some(ClientRequest::GetHistory { app, since }) => {
                self.client_replay(ctx, client, app, since, Replay::History)
            }
            Some(ClientRequest::CatchUp { app, since }) => {
                self.client_replay(ctx, client, app, since, Replay::CatchUp)
            }
            Some(ClientRequest::GetMyLog { app, since }) => {
                // Client logs live at the client's local server regardless
                // of where the application is hosted (§5.2.5).
                let (records, next_seq) = self.archive.fetch_client(client, app, since);
                vec![ClientMessage::Response(ResponseBody::ClientLog { app, records, next_seq })]
            }
            // Answered above, before the session lookup.
            Some(
                ClientRequest::Login { .. } | ClientRequest::Resume { .. } | ClientRequest::Status,
            ) => vec![Self::error(ErrorCode::BadRequest, "not a session request")],
        };
        (200, None, body)
    }

    fn do_login(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        user: UserId,
        password: &str,
    ) -> (u16, Option<u64>, Vec<ClientMessage>) {
        ctx.metrics().incr(names::SERVER_LOGINS);
        if !security::credentials_valid(&user, password) {
            return (401, None, vec![Self::error(ErrorCode::AuthFailed, "bad credentials")]);
        }
        // Level 1 (paper): the user must be on the authorized list of at
        // least one application registered with THIS server.
        if !self.apps.values().any(|p| p.privilege_of(&user).is_some()) {
            let detail = "user is not registered with any application at this server";
            return (401, None, vec![Self::error(ErrorCode::AuthFailed, detail)]);
        }
        ctx.consume(HTTP_COSTS.ssl_handshake);
        let client = ClientId { server: self.config.addr, seq: self.next_client_seq };
        self.next_client_seq += 1;
        let now = ctx.now();
        let (capacity, coalesce) = (self.config.fifo_capacity, self.config.coalesce_fifo);
        let fifo = FifoBuffer::with_coalescing(capacity, coalesce);
        let cookie = self.sessions.create(ctx.rng(), user.clone(), client, now, fifo);
        // Fan out level-1 authentication to the peer network for the
        // user's global application list.
        self.effects.push(Effect::RemoteAuth {
            client,
            user: user.clone(),
            password: password.to_string(),
        });
        let apps = self.visible_apps(&user);
        (200, Some(cookie), vec![ClientMessage::Response(ResponseBody::LoginOk { client, apps })])
    }

    /// Reconnect-with-resume: revive a parked (or still-live) session by
    /// its token and replay only the missed archive suffix through the
    /// paged catch-up path. Reclaimed/unknown tokens answer 401 so the
    /// client falls back to a full login.
    fn do_resume(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        cookie: u64,
        cursors: Vec<(AppId, u64)>,
    ) -> (u16, Vec<ClientMessage>) {
        // Paced recovery: reviving a parked session replays history, so
        // admissions are metered per accounting second. Deferred clients
        // get a retry-after jittered by stable identity — a flash crowd
        // spreads out instead of re-arriving as one synchronized burst.
        let parked = self.sessions.by_cookie(cookie).filter(|s| s.parked.is_some());
        if let (Some(parked), Some(limit)) = (parked, self.config.resume_rate_limit) {
            if !self.resume_window.admit(ctx.now().as_micros(), limit) {
                ctx.metrics().incr(names::SERVER_RESUME_THROTTLED);
                ctx.record(|| Event::ResumeDeferred(parked.user.clone(), limit));
                let user = parked.user.as_str();
                let retry_ms = OVERLOAD_RETRY_AFTER_MS
                    + wire::jitter::retry_jitter_us(user, 0, OVERLOAD_RETRY_AFTER_MS * 1000) / 1000;
                return (
                    200,
                    vec![Self::error(
                        ErrorCode::Overloaded,
                        format!("resume deferred; retry-after: {retry_ms}ms"),
                    )],
                );
            }
        }
        let Some((session, park)) = self.sessions.resume(cookie, ctx.now()) else {
            let error = Self::error(ErrorCode::SessionExpired, "session expired; log in again");
            return (401, vec![error]);
        };
        let (client, selected) = (session.client, session.selected.clone());
        let park_cursors = match park {
            Some(park) => {
                ctx.metrics().incr(names::SERVER_SESSIONS_RESUMED);
                let parked_ms = (ctx.now() - park.since).as_micros() / 1000;
                let apps = selected.len();
                ctx.record(|| Event::SessionResumed(session.user.clone(), parked_ms, apps));
                park.cursors
            }
            None => Vec::new(),
        };
        // Missed-suffix replay: park-time cursors establish the suffix
        // start; explicit client cursors override them (a client that
        // already paged further along skips what it has).
        let mut merged: BTreeMap<AppId, u64> = park_cursors.into_iter().collect();
        merged.extend(cursors);
        let mut body =
            vec![ClientMessage::Response(ResponseBody::Resumed { client, apps: selected.clone() })];
        for (app, since) in merged {
            if selected.contains(&app) {
                body.extend(self.client_replay(ctx, client, app, since, Replay::Resume));
            }
        }
        (200, body)
    }

    /// The global application list visible to `user` (local + cached
    /// remote knowledge).
    fn visible_apps(&self, user: &UserId) -> Vec<AppDescriptor> {
        let mut out: Vec<AppDescriptor> =
            self.apps.values().filter_map(|p| p.descriptor_for(user)).collect();
        for ((u, app), privilege) in &self.remote_privs {
            if u != user {
                continue;
            }
            if let Some(remote) = self.remote_apps.get(app) {
                out.push(AppDescriptor {
                    app: *app,
                    name: remote.name.clone(),
                    kind: remote.kind.clone(),
                    status: remote.last_status.clone(),
                    privilege: *privilege,
                    interface: remote.interface.clone(),
                });
            }
        }
        out.sort_by_key(|d| d.app);
        out
    }

    /// Tear down a session: its record (and FIFO) removed, every group
    /// left (and told), subscriptions dropped and steering locks freed.
    /// The one path behind a logout, the idle reaper and park-TTL
    /// reclamation.
    fn end_session(&mut self, ctx: &mut Ctx<'_, Envelope>, client: ClientId) {
        let Some(HttpSession { user, .. }) = self.sessions.remove(client) else { return };
        let affected = self.collab.drop_client(client);
        let last_session = !self.sessions.live().any(|s| s.user == user);
        for app in affected {
            let update = UpdateBody::MemberLeft { app, user: user.clone() };
            self.route_update(ctx, update, None, None);
            self.maybe_unsubscribe(app);
            self.release_lock_if_last_session(ctx, app, &user);
            // A lock held on a REMOTE application must be released at its
            // host server via the relay (otherwise the host would strand
            // the lock until lease expiry).
            if last_session && app.host() != self.config.addr {
                let verb = RelayVerb::Lock { user: user.clone(), acquire: false };
                self.effects.push(Effect::Relay { client, app, verb });
            }
        }
    }

    /// If no other session of `user` remains, force-release their lock on
    /// a local app (disconnect cleanup).
    pub(super) fn release_lock_if_last_session(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        app: AppId,
        user: &UserId,
    ) {
        let still_here = self.sessions.live().any(|s| s.user == *user);
        if still_here {
            return;
        }
        if let Some(proxy) = self.apps.get_mut(&app) {
            if proxy.lock.is_held_by(user) {
                proxy.lock.force_release();
                let logout = wire::Origin::Logout;
                ctx.record(|| Event::Lock(LockStep::ForceReleased, app, user.clone(), logout));
                let update = UpdateBody::LockChanged { app, holder: None };
                self.route_update(ctx, update, None, None);
            }
        }
    }

    /// The live session of a local client, its idle clock refreshed.
    pub(super) fn session_of(
        &mut self,
        client: ClientId,
        now: simnet::SimTime,
    ) -> Option<&mut HttpSession> {
        let s = self.sessions.get_mut(client).filter(|s| s.parked.is_none())?;
        s.last_active = now;
        Some(s)
    }

    /// Reap sessions idle past the configured timeout and sweep expired
    /// steering-lock leases (master-handler housekeeping). Without a park
    /// TTL an idle session is torn down like a logout immediately; with
    /// one, it is parked first — FIFO, selections, and lock interest kept
    /// — and only reclaimed when the park TTL also expires, so a silent
    /// client can reconnect-with-resume while parked state stays bounded
    /// under mass leave. Returns resulting effects.
    pub fn reap_idle_sessions(&mut self, ctx: &mut Ctx<'_, Envelope>) -> Vec<Effect> {
        let now = ctx.now();
        // Eager lease expiry: without it, a lock held by a crashed remote
        // client is only reclaimed lazily, when someone else contends —
        // zero-contention apps would stay locked forever.
        if let Some(lease) = self.config.lock_lease {
            let why = wire::Origin::LeaseSweep;
            self.seize_locks(ctx, why, |lock| lock.expired(now, Some(lease)));
        }
        let Some(timeout) = self.config.session_idle_timeout else {
            return self.drain_effects();
        };
        let cutoff_us = now.as_micros().saturating_sub(timeout.as_micros());
        let cutoff = simnet::SimTime::from_micros(cutoff_us);
        for client in self.sessions.reap_idle(cutoff, now) {
            match self.config.session_park_ttl {
                Some(_) => self.park_session(ctx, client),
                None => self.reclaim_session(ctx, client),
            }
        }
        // Park-TTL expiry keeps parked state bounded: the grace window
        // elapsed with no resume, so the session is torn down for real.
        // `Mutation::NoReclaim` disables exactly this step (the leak the
        // lease-reclamation oracle exists to catch).
        if let Some(ttl) = self.config.session_park_ttl {
            if self.config.mutation != Some(Mutation::NoReclaim) {
                let expired: Vec<ClientId> = self
                    .sessions
                    .parked()
                    .into_iter()
                    .filter(|s| s.parked.as_ref().is_some_and(|p| now - p.since >= ttl))
                    .map(|s| s.client)
                    .collect();
                for client in expired {
                    let Some(s) = self.sessions.get(client) else { continue };
                    ctx.metrics().incr(names::SERVER_SESSIONS_RECLAIMED);
                    let apps = s.selected.len();
                    ctx.record(|| Event::SessionReclaimed(s.user.clone(), apps));
                    self.reclaim_session(ctx, client);
                }
            }
        }
        self.drain_effects()
    }

    /// Count and tear down a session the reaper took off the live set
    /// (or out of the park): from here on it is exactly a logout.
    fn reclaim_session(&mut self, ctx: &mut Ctx<'_, Envelope>, client: ClientId) {
        ctx.metrics().incr(names::SERVER_SESSIONS_REAPED);
        self.end_session(ctx, client);
    }

    /// Keep a session the reaper parked under the park TTL: its token no
    /// longer validates (so the returning client learns to resume), but
    /// its FIFO keeps accumulating bounded updates, its collaboration
    /// membership stands, and any held steering lock stays granted until
    /// the lock lease or park TTL says otherwise. Records the archive
    /// cursors a resume replays from.
    fn park_session(&mut self, ctx: &mut Ctx<'_, Envelope>, client: ClientId) {
        let Some(session) = self.sessions.get_mut(client) else { return };
        ctx.metrics().incr(names::SERVER_SESSIONS_PARKED);
        let cursors = session
            .selected
            .iter()
            .filter(|a| a.host() == self.config.addr)
            .map(|a| (*a, self.archive.fetch_app(*a, u64::MAX).1))
            .collect();
        let apps = session.selected.len();
        ctx.record(|| Event::SessionParked(session.user.clone(), apps));
        if let Some(park) = &mut session.parked {
            park.cursors = cursors;
        }
    }

    /// A peer answered the level-1 authentication fan-out for `client`.
    pub fn complete_remote_auth(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        client: ClientId,
        apps: Vec<AppDescriptor>,
    ) {
        let Some(user) = self.user_of(client) else { return };
        for d in apps {
            self.remote_privs.insert((user.clone(), d.app), d.privilege);
            self.remote_apps.insert(
                d.app,
                RemoteApp {
                    name: d.name,
                    kind: d.kind,
                    interface: d.interface,
                    last_status: d.status,
                },
            );
        }
        ctx.metrics().incr(names::SERVER_REMOTE_AUTH_COMPLETIONS);
        let list = self.visible_apps(&user);
        self.fifo_push(ctx, client, ClientMessage::Response(ResponseBody::Apps(list)));
    }

    /// The user behind a local client's session, live or parked.
    pub(super) fn user_of(&self, client: ClientId) -> Option<UserId> {
        self.sessions.get(client).map(|s| s.user.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::*;
    use super::*;

    #[test]
    fn every_teardown_hands_the_same_effects_to_the_caller() {
        // Logout, the idle reaper and park-TTL reclamation are one
        // teardown: same effects, nothing left queued, nothing left held.
        type Teardown = fn(&mut ServerCore, &mut Ctx<'_, Envelope>, u64) -> Vec<Effect>;
        const MINUTE: simnet::SimDuration = simnet::SimDuration::from_secs(60);

        fn idle_for_a_minute(core: &mut ServerCore, ctx: &mut Ctx<'_, Envelope>) -> Vec<Effect> {
            ctx.consume(MINUTE + MINUTE / 60);
            let effects = core.reap_idle_sessions(ctx);
            handed_off(core, effects)
        }

        fn check(park_ttl: Option<simnet::SimDuration>, teardown: Teardown) {
            let mut config = ServerConfig::new(ADDR, "s");
            config.session_idle_timeout = Some(MINUTE);
            config.session_park_ttl = park_ttl;
            let script: Script = Box::new(move |core, ctx| {
                let cookie = open_session(core, ctx);
                let client = core.sessions.by_cookie(cookie).expect("live").client;
                let mut effects = teardown(core, ctx, cookie);
                let left = |app| FrozenUpdate::new(UpdateBody::MemberLeft { app, user: user("u") });
                let freed = FrozenUpdate::new(UpdateBody::LockChanged { app: APP, holder: None });
                let mut expected = vec![
                    to_peer(left(APP)),
                    to_peer(freed),
                    Effect::ForwardToHost { update: left(REMOTE) },
                    Effect::Unsubscribe { app: REMOTE },
                    Effect::Relay {
                        client,
                        app: REMOTE,
                        verb: RelayVerb::Lock { user: user("u"), acquire: false },
                    },
                ];
                effects.sort_by_key(|e| format!("{e:?}"));
                expected.sort_by_key(|e| format!("{e:?}"));
                assert_eq!(effects, expected);
                assert_eq!(core.session_count() + core.parked_count(), 0);
                assert!(core.sessions.iter().next().is_none());
                assert_eq!(core.apps[&APP].lock.holder(), None);
            });
            Loopback::run(config, script);
        }

        check(None, |core, ctx, cookie| http(core, ctx, Some(cookie), ClientRequest::Logout));
        check(None, |core, ctx, _| idle_for_a_minute(core, ctx));
        check(Some(MINUTE), |core, ctx, _| {
            assert!(idle_for_a_minute(core, ctx).is_empty(), "parking tears nothing down");
            assert_eq!(core.parked_count(), 1);
            idle_for_a_minute(core, ctx)
        });
    }

    #[test]
    fn one_sweep_takes_every_idle_session_of_a_user_out_before_either_goes() {
        // User `u` has two idle sessions, both with `APP` (whose lock `u`
        // holds) and `REMOTE` selected. One sweep takes both off the live
        // set before it parks or tears down the first, and walks them in
        // cookie order: the first teardown already finds `u` gone, so it
        // frees the lock and releases the remote one, and the second
        // releases the remote one again.
        const MINUTE: simnet::SimDuration = simnet::SimDuration::from_secs(60);

        fn sweep(park_ttl: Option<simnet::SimDuration>, expected: Vec<Effect>) -> Vec<Event> {
            let mut config = ServerConfig::new(ADDR, "s");
            config.session_idle_timeout = Some(MINUTE);
            config.session_park_ttl = park_ttl;
            let held = expected.is_empty().then(|| user("u"));
            let script: Script = Box::new(move |core, ctx| {
                open_session(core, ctx);
                let (second, _) = login(core, ctx, "u");
                for app in [APP, REMOTE] {
                    http(core, ctx, Some(second), ClientRequest::SelectApp { app });
                }
                ctx.consume(MINUTE + MINUTE / 60);
                let effects = core.reap_idle_sessions(ctx);
                assert_eq!(handed_off(core, effects), expected);
                assert_eq!(core.apps[&APP].lock.holder(), held.as_ref());
            });
            let (engine, _) = Loopback::run(config, script);
            let swept = engine.history().iter().filter(|e| e.at >= simnet::SimTime::ZERO + MINUTE);
            swept.filter_map(|e| e.downcast()).cloned().collect()
        }

        let left = |app| FrozenUpdate::new(UpdateBody::MemberLeft { app, user: user("u") });
        let release = |seq| Effect::Relay {
            client: ClientId { server: ADDR, seq },
            app: REMOTE,
            verb: RelayVerb::Lock { user: user("u"), acquire: false },
        };
        let torn_down = vec![
            // The second login's cookie sorts first.
            to_peer(left(APP)),
            to_peer(FrozenUpdate::new(UpdateBody::LockChanged { app: APP, holder: None })),
            Effect::ForwardToHost { update: left(REMOTE) },
            release(1),
            to_peer(left(APP)),
            Effect::ForwardToHost { update: left(REMOTE) },
            Effect::Unsubscribe { app: REMOTE },
            release(0),
        ];
        let parked = || Event::SessionParked(user("u"), 2);
        let freed = || Event::Lock(LockStep::ForceReleased, APP, user("u"), wire::Origin::Logout);
        let reclaimed = || Event::SessionReclaimed(user("u"), 2);

        assert_eq!(sweep(None, torn_down.clone()), [freed()]);
        assert_eq!(sweep(Some(MINUTE), Vec::new()), [parked(), parked()]);
        assert_eq!(
            sweep(Some(simnet::SimDuration::ZERO), torn_down),
            [parked(), parked(), reclaimed(), freed(), reclaimed()]
        );
    }
}
