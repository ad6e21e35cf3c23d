//! The command handler and the Daemon servlet: application registration
//! and status, op admission at the host, the compute-phase buffer and its
//! shedding, the one completion of an op, and the steering-lock decision.

use std::rc::Rc;

use wire::giop::GiopFrame;
use wire::tcp::TcpFrame;
use wire::UpdateBody;
use wire::{
    AppMsg, AppPhase, Channel, DaemonStep, Event, LockStep, LogEntry, ObjectKey, OpOutcome,
    PeerReply, ResponseBody,
};

use super::*;
use crate::locks::LockOutcome;
use crate::proxy::BufferPush;
use crate::security;
use crate::store::RecordData;

impl ServerCore {
    /// Handle one frame from an application driver.
    pub fn handle_tcp(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        from: NodeId,
        frame: TcpFrame,
        wire_bytes: usize,
    ) -> Vec<Effect> {
        ctx.metrics().incr(names::SERVER_TCP_FRAMES);
        // Cached envelope size; identical to `frame.wire_size()`.
        ctx.consume(TCP_COSTS.frame_cost(wire_bytes));
        match frame.msg {
            AppMsg::Register { token, name, kind, acl, interface, slot } => {
                // A pre-assigned slot pins the AppId (static deployment);
                // otherwise the Daemon hands out the next free sequence.
                // Pinning matters because concurrent registrations arrive
                // in network order, not launch order.
                let seq = slot.unwrap_or(self.next_app_seq);
                let app = AppId { server: self.config.addr, seq };
                let tokens = self.config.accepted_tokens.as_ref();
                let refusal = if tokens.is_some_and(|list| !list.contains(&token)) {
                    Some(WireError::new(ErrorCode::AuthFailed, "unknown app token"))
                } else if self.apps.contains_key(&app) {
                    Some(WireError::new(ErrorCode::BadRequest, "application slot already bound"))
                } else {
                    None
                };
                let reply = if let Some(error) = refusal {
                    ctx.metrics().incr(names::SERVER_DAEMON_REGISTER_REJECTED);
                    AppMsg::RegisterNak { error }
                } else {
                    self.next_app_seq = self.next_app_seq.max(seq + 1);
                    self.effects.push(Effect::Announce {
                        kind: ControlEventKind::AppRegistered,
                        detail: format!("{name} as {app}"),
                        app: Some(app),
                    });
                    let mut proxy = ApplicationProxy::new(app, name, kind, from, interface, acl);
                    proxy.buffer_capacity = self.config.proxy_buffer_capacity;
                    proxy.lock.mutation = self.config.mutation;
                    self.apps.insert(app, proxy);
                    ctx.metrics().incr(names::SERVER_DAEMON_REGISTERED);
                    AppMsg::RegisterAck { app }
                };
                ctx.send(from, Envelope::tcp(TcpFrame::new(Channel::Main, reply)));
            }
            AppMsg::Update { app, status, readings } => {
                if let Some(proxy) = self.apps.get_mut(&app) {
                    proxy.apply_status(status.clone(), &readings);
                    // Periodic data records owned by the app's owner, with
                    // read-only grants for the ACL users (§6.3): the record
                    // shares the ACL as it stands now.
                    proxy.status_updates += 1;
                    let record = proxy
                        .status_updates
                        .is_multiple_of(RECORD_EVERY)
                        .then(|| (proxy.owner.clone(), Rc::clone(&proxy.acl)));
                    self.log_app_metered(ctx, app, None, LogEntry::Status(status.clone()));
                    if let Some((owner, readers)) = record {
                        let data = RecordData::Readings(readings.to_vec());
                        self.records.create(app, owner, Some(readers), data);
                    }
                    let update = UpdateBody::AppStatus { app, status, readings };
                    self.route_update(ctx, update, None, None);
                }
            }
            AppMsg::PhaseChange { app, phase } => {
                // The flushed batch is consumed locally, so its
                // allocation never leaves this handler: take the core's
                // flush scratch, fill it, and put it back (capacity
                // intact) after dispatch instead of rebuilding a Vec on
                // every phase change.
                let mut to_flush: Vec<BufferedOp> = std::mem::take(&mut self.flush_scratch);
                if let Some(proxy) = self.apps.get_mut(&app) {
                    proxy.last_status.phase = phase;
                    if matches!(phase, AppPhase::Interacting | AppPhase::Paused)
                        && !proxy.buffered.is_empty()
                    {
                        // Daemon servlet: flush the buffered requests now
                        // that the application can interact.
                        if to_flush.capacity() > 0 {
                            wire::codec::note_drain_reuse();
                        }
                        to_flush.extend(proxy.buffered.drain(..));
                    }
                }
                for entry in to_flush.drain(..) {
                    // Proxy dequeue deadline check: work whose deadline
                    // lapsed while parked never reaches the application.
                    if entry.deadline.is_some_and(|stamp| stamp.expired(ctx.now())) {
                        ctx.metrics().incr(names::SERVER_DEADLINE_DEQUEUE_EXPIRED);
                        let (req, class) = (entry.req, entry.priority());
                        ctx.record(|| Event::Daemon(DaemonStep::Expired, app, req, class));
                        let error = WireError::new(
                            ErrorCode::DeadlineExceeded,
                            "deadline passed while buffered",
                        );
                        self.resolve_op(ctx, entry.req, Err(error));
                        continue;
                    }
                    ctx.metrics().incr(names::SERVER_DAEMON_FLUSHED);
                    let (req, class) = (entry.req, entry.priority());
                    ctx.record(|| Event::Daemon(DaemonStep::Flushed, app, req, class));
                    self.dispatch_to_app(ctx, app, entry.req, entry.op, entry.deadline);
                }
                self.flush_scratch = to_flush;
            }
            AppMsg::Response { req, result } => self.resolve_op(ctx, req, result),
            AppMsg::Deregister { app } => self.close_app(ctx, app),
            // Server-to-app messages arriving here would be a wiring bug.
            AppMsg::RegisterAck { .. } | AppMsg::RegisterNak { .. } | AppMsg::Command { .. } => {
                ctx.metrics().incr(names::SERVER_TCP_UNEXPECTED);
            }
        }
        self.drain_effects()
    }

    pub(super) fn do_op(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        client: ClientId,
        user: &UserId,
        app: AppId,
        op: AppOp,
    ) -> Vec<ClientMessage> {
        ctx.metrics().incr(names::SERVER_OPS);
        if app.host() == self.config.addr {
            let origin = Origin::Local { client };
            return vec![match self.admit_op(ctx, origin, user, app, op, None) {
                Ok(None) => ClientMessage::Response(ResponseBody::Accepted),
                Ok(Some(outcome)) => ClientMessage::Response(ResponseBody::OpDone { app, outcome }),
                Err(e) => ClientMessage::Error(e),
            }];
        }
        let Some(privilege) = self.remote_privs.get(&(user.clone(), app)).copied() else {
            return vec![Self::error(ErrorCode::AccessDenied, "unknown remote application")];
        };
        if let Err(e) = security::authorize_op(privilege, &op) {
            return vec![ClientMessage::Error(e)];
        }
        if matches!(op, AppOp::GetStatus) {
            if let Some(remote) = self.remote_apps.get(&app) {
                return vec![ClientMessage::Response(ResponseBody::OpDone {
                    app,
                    outcome: OpOutcome::Status(remote.last_status.clone()),
                })];
            }
        }
        self.archive.log_client(
            client,
            app,
            ctx.now(),
            Some(user.clone()),
            LogEntry::Request(op.clone()),
        );
        let verb = RelayVerb::Op { user: user.clone(), op };
        self.effects.push(Effect::Relay { client, app, verb });
        vec![ClientMessage::Response(ResponseBody::Accepted)]
    }

    /// The one admission of an operation at its application's host,
    /// whoever asks: ACL → privilege → steering lock held → cached
    /// `GetStatus` → log → dispatch toward the application.
    /// `Ok(Some(outcome))` was answered from the proxy's cached context,
    /// `Ok(None)` is in flight and ends in `complete_op`, `Err` was
    /// refused. `call` names the relayed GIOP call to answer (request id,
    /// operation name), kept with the operation while it is in flight.
    pub(super) fn admit_op(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        origin: Origin,
        user: &UserId,
        app: AppId,
        op: AppOp,
        call: Option<(u64, &Name)>,
    ) -> Result<Option<OpOutcome>, WireError> {
        let Some(proxy) = self.apps.get_mut(&app) else {
            return Err(WireError::new(ErrorCode::NoSuchApp, format!("{app}")));
        };
        let (not_on_acl, lock_required) = origin.refusal_texts();
        let refusal = match proxy.privilege_of(user) {
            None => Some(("not-on-acl", WireError::new(ErrorCode::AccessDenied, not_on_acl))),
            Some(privilege) => {
                security::authorize_op(privilege, &op).err().map(|e| ("privilege", e))
            }
        };
        if let Some((reason, error)) = refusal {
            // Counted where the user's session lives, as it always was
            // (the trend gates read this counter); the history records
            // both origins.
            if origin.client().is_some() {
                ctx.metrics().incr(names::SERVER_ACL_DENIED);
            }
            ctx.record(|| Event::AclDenied(app, user.clone(), reason, op.clone(), origin.into()));
            return Err(error);
        }
        if op.is_mutating() {
            if !proxy.lock.is_held_by(user) {
                return Err(WireError::new(ErrorCode::LockRequired, lock_required));
            }
            // Holder activity refreshes the steering-lock lease.
            proxy.lock.touch(user, ctx.now());
        }
        if matches!(op, AppOp::GetStatus) {
            // Served from the proxy's cached context.
            return Ok(Some(OpOutcome::Status(proxy.last_status.clone())));
        }
        let req = self.alloc_request();
        let request = LogEntry::Request(op.clone());
        if let Some(client) = origin.client() {
            self.archive.log_client(client, app, ctx.now(), Some(user.clone()), request.clone());
        }
        self.log_app_metered(ctx, app, Some(user.clone()), request);
        ctx.record(|| Event::OpAccepted(app, user.clone(), op.clone(), origin.into()));
        let call = call.map(|(id, operation)| (id, operation.clone()));
        self.origins.insert(req, PendingOp { origin, user: user.clone(), app, call, spans: None });
        let deadline = self.incoming_deadline;
        self.dispatch_to_app(ctx, app, req, op, deadline);
        Ok(None)
    }

    /// Forward `op` toward a local application, honouring the Daemon
    /// servlet's compute-phase buffering. `deadline` is the stamp the
    /// operation is travelling under (checked here at dispatch, and
    /// parked with the operation if it gets buffered).
    fn dispatch_to_app(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        app: AppId,
        req: RequestId,
        op: AppOp,
        deadline: Option<DeadlineStamp>,
    ) {
        if !self.apps.contains_key(&app) {
            return;
        }
        // Expired work is dropped at the dispatch hop instead of being
        // sent to (or buffered for) the application uselessly.
        if let Some(stamp) = deadline {
            if stamp.expired(ctx.now()) {
                ctx.metrics().incr(names::SERVER_DEADLINE_DISPATCH_EXPIRED);
                let error =
                    WireError::new(ErrorCode::DeadlineExceeded, "deadline passed at dispatch");
                return self.resolve_op(ctx, req, Err(error));
            }
        }
        // Admission put the op in `origins` before its first dispatch.
        let Some(pending) = self.origins.get_mut(&req) else { return };
        // A request reaches here once at ingress and possibly again when
        // flushed from the compute-phase buffer; the proxy span is opened
        // only on first dispatch so buffering time stays inside it.
        if pending.spans.is_none() {
            let execute = ctx.trace_child(self.incoming_trace, "proxy.execute");
            pending.spans = execute.map(|span| (span, None));
        }
        let execute = pending.spans.map(|(execute, _)| execute);
        let Some(proxy) = self.apps.get_mut(&app) else { return };
        match proxy.last_status.phase {
            AppPhase::Interacting | AppPhase::Paused => {
                let node = proxy.node;
                // Envelope construction performs the one sizing walk;
                // the cost model reuses its cached size.
                let env =
                    Envelope::tcp(TcpFrame::new(Channel::Command, AppMsg::Command { req, op }));
                ctx.consume(TCP_COSTS.frame_cost(env.wire_size()));
                ctx.send(node, env);
                // Application compute time: from command departure to the
                // daemon's response.
                if let Some((_, command)) = &mut pending.spans {
                    *command = ctx.trace_child(execute, "app.command");
                }
            }
            AppPhase::Computing => {
                let class = wire::Priority::of_op(&op);
                let shed = match proxy.buffer_op(req, op, deadline) {
                    BufferPush::Buffered => None,
                    BufferPush::Shed(victim) => Some(victim),
                };
                // The incoming op was buffered unless it was itself the
                // lowest-priority candidate.
                if shed.as_ref().is_none_or(|victim| victim.req != req) {
                    ctx.metrics().incr(names::SERVER_DAEMON_BUFFERED);
                    ctx.record(|| Event::Daemon(DaemonStep::Buffered, app, req, class));
                    ctx.trace_annotate(execute, "buffered: application computing");
                }
                if let Some(victim) = shed {
                    self.shed_op(ctx, app, victim);
                }
            }
            AppPhase::Terminated => {
                let error = WireError::new(ErrorCode::Unavailable, "application terminated");
                self.resolve_op(ctx, req, Err(error));
            }
        }
    }

    /// Fail a shed buffered operation with `Overloaded` and a retry-after
    /// hint.
    fn shed_op(&mut self, ctx: &mut Ctx<'_, Envelope>, app: AppId, victim: BufferedOp) {
        ctx.metrics().incr(names::SERVER_PROXY_SHED);
        let (req, class) = (victim.req, victim.priority());
        ctx.record(|| Event::Daemon(DaemonStep::Shed, app, req, class));
        let spans = self.origins.get(&victim.req).and_then(|pending| pending.spans);
        ctx.trace_annotate(spans.map(|(execute, _)| execute), "shed: daemon buffer full");
        let detail = format!("daemon buffer full; retry-after: {OVERLOAD_RETRY_AFTER_MS}ms");
        self.resolve_op(ctx, victim.req, Err(WireError::new(ErrorCode::Overloaded, detail)));
    }

    /// Settle request `req` with `result` — the application's answer, or
    /// the reason it never got one — and route it back to its origin.
    pub(super) fn resolve_op(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        req: RequestId,
        result: Result<OpOutcome, WireError>,
    ) {
        if let Some(pending) = self.origins.remove(&req) {
            if let Some((execute, command)) = pending.spans {
                ctx.trace_finish(command);
                ctx.trace_finish(Some(execute));
            }
            self.complete_op(ctx, pending, result);
        }
    }

    /// The one completion of an operation, wherever it ran and whoever
    /// asked: log the result (the application's log lives at its host, a
    /// client's own log at its local server, §5.2.5), deliver it — into
    /// the local client's FIFO, or as the GIOP reply the relaying peer is
    /// waiting for — and, for a success, run the tail: one update to the
    /// group, and the §6.3 record under the requesting user at the
    /// client's server. Reached from the application's response, from every
    /// path that fails an accepted operation, and (for a local client of
    /// a remote application) from `complete_relay`.
    ///
    /// A success is copied once for the keepers: both logs and the record
    /// share that copy. The delivery takes the original, and an update to
    /// the group is built from the shared copy.
    pub(super) fn complete_op(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        pending: PendingOp,
        result: Result<OpOutcome, WireError>,
    ) {
        let PendingOp { origin, user, app, call, .. } = pending;
        let hosted = app.host() == self.config.addr;
        let client = origin.client();
        let (entry, kept) = match &result {
            Ok(outcome) => {
                let kept = Rc::new(outcome.clone());
                (LogEntry::Response(Rc::clone(&kept)), Some(kept))
            }
            Err(e) => (LogEntry::Error(e.clone()), None),
        };
        if hosted {
            if let Some(client) = client {
                self.archive.log_client(client, app, ctx.now(), Some(user.clone()), entry.clone());
            }
            self.log_app_metered(ctx, app, Some(user.clone()), entry);
        } else if let Some(client) = client {
            self.archive.log_client(client, app, ctx.now(), Some(user.clone()), entry);
        }
        let broadcast = match &result {
            // The host owns global fan-out of state changes, whoever
            // steered; a relaying server broadcasts nothing for them.
            Ok(OpOutcome::ParamSet(..) | OpOutcome::CommandDone(_)) => hosted,
            // Collaborative response sharing: a non-mutating outcome is
            // echoed to the group when the client collaborates.
            Ok(_) => client.is_some_and(|client| self.collab.broadcast_enabled(app, client)),
            Err(_) => false,
        };
        let update = kept.as_deref().filter(|_| broadcast).map(|outcome| match outcome {
            OpOutcome::ParamSet(name, value) => UpdateBody::ParamChanged {
                app,
                name: name.clone(),
                value: value.clone(),
                by: user.clone(),
            },
            OpOutcome::CommandDone(command) => {
                UpdateBody::CommandApplied { app, command: *command, by: user.clone() }
            }
            outcome => {
                UpdateBody::InteractionEcho { app, by: user.clone(), outcome: outcome.clone() }
            }
        });
        match origin {
            Origin::Local { client } => {
                let message = match result {
                    Ok(outcome) => ClientMessage::Response(ResponseBody::OpDone { app, outcome }),
                    Err(e) => ClientMessage::Error(e),
                };
                self.fifo_push(ctx, client, message);
            }
            Origin::Relay { via } => {
                if let Some((giop_id, operation)) = call {
                    let env = Envelope::giop(GiopFrame::reply(
                        giop_id,
                        ObjectKey::from_static(CORBA_SERVER_KEY),
                        operation,
                        PeerReply::OpResult { app, result },
                    ));
                    ctx.consume(ORB_COSTS.call_cost(env.wire_size()));
                    ctx.send(via, env);
                }
            }
        }
        if let Some(update) = update {
            self.route_update(ctx, update, client, None);
        }
        if let (Some(outcome), Some(_)) = (kept, client) {
            self.records.create(app, user, None, RecordData::Outcome(outcome));
        }
    }

    pub(super) fn do_lock(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        client: ClientId,
        user: &UserId,
        app: AppId,
        acquire: bool,
    ) -> Vec<ClientMessage> {
        if app.host() == self.config.addr {
            return vec![match self.host_lock(ctx, Origin::Local { client }, app, user, acquire) {
                Ok((granted, holder)) => Self::lock_message(app, acquire, granted, holder),
                Err(e) => ClientMessage::Error(e),
            }];
        }
        if !self.remote_privs.contains_key(&(user.clone(), app)) {
            return vec![Self::error(ErrorCode::AccessDenied, "unknown remote application")];
        }
        let verb = RelayVerb::Lock { user: user.clone(), acquire };
        self.effects.push(Effect::Relay { client, app, verb });
        vec![ClientMessage::Response(ResponseBody::Accepted)]
    }

    /// The one steering-lock decision, taken at the application's host
    /// (the only place lock state lives, §5.2.4) whoever asks: run the
    /// acquire (lazily evicting a holder silent past its lease) or the
    /// release, record the `lock.*` history events, and broadcast
    /// `LockChanged` when the holder changed. Returns the verdict
    /// `(granted, holder)` — `holder` being who stood in the way of a
    /// refused request — which the caller maps to its own reply.
    pub(super) fn host_lock(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        origin: Origin,
        app: AppId,
        user: &UserId,
        acquire: bool,
    ) -> Result<(bool, Option<UserId>), WireError> {
        let Some(proxy) = self.apps.get_mut(&app) else {
            return Err(WireError::new(ErrorCode::NoSuchApp, format!("{app}")));
        };
        let step = if acquire {
            match proxy.lock.try_acquire_leased(user, ctx.now(), self.config.lock_lease) {
                LockOutcome::Granted => {
                    if let Some(evicted) = proxy.lock.take_evicted() {
                        let lazy = wire::Origin::LeaseLazy;
                        ctx.record(|| Event::Lock(LockStep::Evicted, app, evicted, lazy));
                    }
                    LockStep::Granted
                }
                LockOutcome::Denied { holder } => {
                    ctx.metrics().incr(names::SERVER_LOCK_DENIED);
                    LockStep::Denied(holder)
                }
            }
        } else if proxy.lock.release(user) {
            LockStep::Released
        } else {
            LockStep::ReleaseFailed(proxy.lock.holder().cloned())
        };
        ctx.record(|| Event::Lock(step.clone(), app, user.clone(), origin.into()));
        let (granted, holder) = match step {
            LockStep::Denied(holder) => (false, Some(holder)),
            LockStep::ReleaseFailed(holder) => (false, holder),
            _ => (true, None),
        };
        if granted {
            let holder = acquire.then(|| user.clone());
            self.route_update(ctx, UpdateBody::LockChanged { app, holder }, origin.client(), None);
        }
        Ok((granted, holder))
    }

    /// The client-facing message for the host's verdict on a lock
    /// request, taken here or relayed back from the host.
    pub(super) fn lock_message(
        app: AppId,
        acquire: bool,
        granted: bool,
        holder: Option<UserId>,
    ) -> ClientMessage {
        match (acquire, granted) {
            (true, true) => ClientMessage::Response(ResponseBody::LockGranted { app }),
            (true, false) => ClientMessage::Response(ResponseBody::LockDenied { app, holder }),
            (false, true) => ClientMessage::Response(ResponseBody::LockReleased { app }),
            (false, false) => Self::error(ErrorCode::BadRequest, "not the lock holder"),
        }
    }
}

#[cfg(test)]
mod tests {
    use wire::{ClientRequest, Value};

    use crate::store::{Record, RecordAccess};

    use super::super::tests::*;
    use super::*;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum LockState {
        Free,
        Mine,
        Theirs,
    }

    #[derive(Clone, Debug)]
    enum Verb {
        Op(AppOp),
        Acquire,
        Release,
    }

    #[derive(Debug, PartialEq)]
    enum Verdict {
        /// Dispatched to the application.
        Admitted,
        /// Answered from the proxy's cached context.
        Answered,
        Refused(ErrorCode),
        Lock {
            granted: bool,
            blocked_by: Option<UserId>,
        },
    }

    /// Put one request to a host whose `APP` grants "u" `privilege` and
    /// whose lock is in `lock`, through HTTP (`relayed == false`) or GIOP;
    /// returns the verdict the caller saw and the history it left.
    fn decide(
        relayed: bool,
        privilege: Option<Privilege>,
        lock: LockState,
        verb: Verb,
    ) -> (Verdict, Vec<Event>) {
        let (acquire, release) = (matches!(verb, Verb::Acquire), matches!(verb, Verb::Release));
        let script: Script = Box::new(move |core, ctx| {
            let acl = [("u", privilege), ("other", Some(Privilege::Steer))];
            let sessions = open_host(core, ctx, &acl);
            let holder = match lock {
                LockState::Free => None,
                LockState::Mine => Some(user("u")),
                LockState::Theirs => Some(user("other")),
            };
            if let Some(holder) = holder {
                let lock = &mut core.apps.get_mut(&APP).expect("registered").lock;
                assert_eq!(lock.try_acquire(&holder, ctx.now()), LockOutcome::Granted);
            }
            let (app, user) = (APP, user("u"));
            if relayed {
                let call = match verb {
                    Verb::Op(op) => PeerMsg::ProxyOp { app, user, op },
                    Verb::Acquire => PeerMsg::LockRequest { app, user, via: PEER },
                    Verb::Release => PeerMsg::LockRelease { app, user },
                };
                giop(core, ctx, call);
            } else {
                let request = match verb {
                    Verb::Op(op) => ClientRequest::Op { app, op },
                    Verb::Acquire => ClientRequest::RequestLock { app },
                    Verb::Release => ClientRequest::ReleaseLock { app },
                };
                http(core, ctx, Some(sessions[0].0), request);
            }
        });
        let (engine, node) = Loopback::run(ServerConfig::new(ADDR, "s"), script);
        let host = engine.actor_ref::<Loopback>(node).expect("the loopback actor");
        // Who stood in the way is part of the verdict only for a refused
        // acquire: HTTP words a refused release as a bare error.
        let lock_verdict = |granted: bool, holder: &Option<UserId>| Verdict::Lock {
            granted,
            blocked_by: holder.clone().filter(|_| acquire && !granted),
        };
        let verdict = if relayed {
            match host.giop.as_slice() {
                [PeerReply::OpResult { result: Ok(OpOutcome::Status(_)), .. }] => Verdict::Answered,
                [PeerReply::OpResult { result: Ok(_), .. }] => Verdict::Admitted,
                [PeerReply::OpResult { result: Err(e), .. }] => Verdict::Refused(e.code),
                [PeerReply::LockDecision { granted, holder, .. }] => lock_verdict(*granted, holder),
                other => panic!("unexpected GIOP replies: {other:?}"),
            }
        } else {
            match host.http.last().map(|response| response.body.as_slice()) {
                Some([ClientMessage::Response(body)]) => match body {
                    ResponseBody::Accepted => Verdict::Admitted,
                    ResponseBody::OpDone { outcome: OpOutcome::Status(_), .. } => Verdict::Answered,
                    ResponseBody::LockGranted { .. } | ResponseBody::LockReleased { .. } => {
                        lock_verdict(true, &None)
                    }
                    ResponseBody::LockDenied { holder, .. } => lock_verdict(false, holder),
                    other => panic!("unexpected response: {other:?}"),
                },
                Some([ClientMessage::Error(_)]) if release => lock_verdict(false, &None),
                Some([ClientMessage::Error(e)]) => Verdict::Refused(e.code),
                other => panic!("unexpected HTTP response: {other:?}"),
            }
        };
        (verdict, recorded(&engine))
    }

    /// `event` as the host records it for a request relayed by the peer
    /// (the loopback node itself).
    fn relayed(mut event: Event) -> Event {
        if let Event::Lock(.., origin)
        | Event::OpAccepted(.., origin)
        | Event::AclDenied(.., origin) = &mut event
        {
            *origin = wire::Origin::Relay(NodeId(0));
        }
        event
    }

    #[test]
    fn local_and_relay_agree() {
        let privileges =
            [None, Some(Privilege::ReadOnly), Some(Privilege::ReadWrite), Some(Privilege::Steer)];
        let verbs = [
            Verb::Op(AppOp::GetStatus),
            Verb::Op(AppOp::GetSensors),
            Verb::Op(AppOp::SetParam("knob".into(), Value::Float(1.0))),
            Verb::Op(AppOp::Command(wire::AppCommand::Pause)),
            Verb::Acquire,
            Verb::Release,
        ];
        let mut accepted = 0;
        for privilege in privileges {
            for lock in [LockState::Free, LockState::Mine, LockState::Theirs] {
                for verb in &verbs {
                    let case = format!("{privilege:?} / lock {lock:?} / {verb:?}");
                    let (local, local_history) = decide(false, privilege, lock, verb.clone());
                    let (relay, relay_history) = decide(true, privilege, lock, verb.clone());
                    assert_eq!(local, relay, "verdicts differ: {case}");
                    let expected: Vec<Event> = local_history.iter().cloned().map(relayed).collect();
                    assert_eq!(expected, relay_history, "histories differ: {case}");
                    let admissions =
                        local_history.iter().filter(|e| matches!(e, Event::OpAccepted(..)));
                    accepted += admissions.count();
                }
            }
        }
        // The table is not vacuous: both refusals and admissions occur.
        assert!(accepted > 0, "no case admitted an operation");
        let (refused, history) = decide(true, None, LockState::Free, verbs[1].clone());
        assert_eq!(refused, Verdict::Refused(ErrorCode::AccessDenied));
        let (app, user, origin) = (APP, user("u"), wire::Origin::Relay(NodeId(0)));
        let refusal = Event::AclDenied(app, user.clone(), "not-on-acl", AppOp::GetSensors, origin);
        assert_eq!(history, [refusal]);
        let (admitted, history) =
            decide(true, Some(Privilege::Steer), LockState::Mine, verbs[3].clone());
        assert_eq!(admitted, Verdict::Admitted);
        let pause = AppOp::Command(wire::AppCommand::Pause);
        assert_eq!(history, [Event::OpAccepted(app, user, pause, origin)]);
    }

    #[test]
    fn a_relayed_holder_keeps_the_lease_alive_by_steering() {
        // The admission is one function, so a relayed mutating operation
        // refreshes the holder's lease exactly as a local one does.
        let mut config = ServerConfig::new(ADDR, "s");
        config.lock_lease = Some(simnet::SimDuration::from_secs(30));
        let script: Script = Box::new(|core, ctx| {
            open_host(core, ctx, &[("u", Some(Privilege::Steer))]);
            giop(core, ctx, PeerMsg::LockRequest { app: APP, user: user("u"), via: PEER });
            ctx.consume(simnet::SimDuration::from_secs(20));
            let op = AppOp::SetParam("knob".into(), Value::Float(1.0));
            giop(core, ctx, PeerMsg::ProxyOp { app: APP, user: user("u"), op });
            ctx.consume(simnet::SimDuration::from_secs(20));
            assert!(core.reap_idle_sessions(ctx).is_empty(), "an active holder is not evicted");
            let lock = &core.apps[&APP].lock;
            assert!(lock.is_held_by(&user("u")));
            assert_eq!(lock.granted_via, Some(PEER));
        });
        Loopback::run(config, script);
    }

    #[test]
    fn lock_decisions_hand_their_broadcast_to_the_caller() {
        let script: Script = Box::new(|core, ctx| {
            let sessions = open_host(core, ctx, &[("u", Some(Privilege::Steer))]);
            subscribe_peer(core, ctx);
            let cookie = Some(sessions[0].0);
            let granted = http(core, ctx, cookie, ClientRequest::RequestLock { app: APP });
            let holder = Some(user("u"));
            assert_eq!(pushed(&granted), [&UpdateBody::LockChanged { app: APP, holder }]);
            // Refused: nothing changed, nothing to hand off.
            let other = PeerMsg::LockRequest { app: APP, user: user("other"), via: PEER };
            assert!(giop(core, ctx, other).is_empty());
            let released = giop(core, ctx, PeerMsg::LockRelease { app: APP, user: user("u") });
            assert_eq!(pushed(&released), [&UpdateBody::LockChanged { app: APP, holder: None }]);
        });
        Loopback::run(ServerConfig::new(ADDR, "s"), script);
    }

    #[test]
    fn admitted_and_completed_ops_hand_their_effects_to_the_caller() {
        let knob = || AppOp::SetParam("knob".into(), Value::Float(2.0));
        let script: Script = Box::new(move |core, ctx| {
            let sessions = open_host(core, ctx, &[("u", Some(Privilege::Steer))]);
            subscribe_peer(core, ctx);
            let (cookie, client) = (Some(sessions[0].0), sessions[0].1);
            http(core, ctx, cookie, ClientRequest::RequestLock { app: APP });
            // Admission dispatches and hands off nothing, from either
            // origin; the completions (answered by the loopback as the
            // application, checked below) carry the broadcast.
            assert!(http(core, ctx, cookie, ClientRequest::Op { app: APP, op: knob() }).is_empty());
            let relayed = PeerMsg::ProxyOp { app: APP, user: user("u"), op: knob() };
            assert!(giop(core, ctx, relayed).is_empty());
            // A local client of a remote application: the completion only
            // queues (the substrate drains it), here an echo for the host.
            core.collab.join(REMOTE, client);
            let done =
                PeerReply::OpResult { app: REMOTE, result: Ok(OpOutcome::Sensors(Vec::new())) };
            core.complete_relay(ctx, client, REMOTE, Relayed::Op, Ok(done));
            let queued = core.drain_effects();
            assert!(
                matches!(queued.as_slice(), [Effect::ForwardToHost { update }]
                    if matches!(update.body(), UpdateBody::InteractionEcho { .. })),
                "{queued:?}"
            );
            assert!(core.effects.is_empty());
        });
        let (engine, node) = Loopback::run(ServerConfig::new(ADDR, "s"), script);
        let host = engine.actor_ref::<Loopback>(node).expect("the loopback actor");
        let changed = UpdateBody::ParamChanged {
            app: APP,
            name: "knob".into(),
            value: Value::Float(2.0),
            by: user("u"),
        };
        assert_eq!(pushed(&host.effects), [&changed, &changed], "one per completed operation");
        assert!(host.core.effects.is_empty());
        assert!(host.core.origins.is_empty(), "both operations settled");
    }

    #[test]
    fn a_settled_op_finishes_its_spans() {
        // Traced, with a one-slot Daemon buffer: a read buffered while the
        // application computes is shed for a steering command, which runs
        // once the application interacts again. Both settle, and so does
        // every span they opened.
        let mut config = ServerConfig::new(ADDR, "s");
        config.proxy_buffer_capacity = Some(1);
        let script: Script = Box::new(|core, ctx| {
            let (cookie, _) = open_host(core, ctx, &[("u", Some(Privilege::Steer))])[0];
            http(core, ctx, Some(cookie), ClientRequest::RequestLock { app: APP });
            tcp(core, ctx, AppMsg::PhaseChange { app: APP, phase: AppPhase::Computing });
            let request = ctx.trace_root("client.request");
            core.incoming_trace = request;
            http(core, ctx, Some(cookie), ClientRequest::Op { app: APP, op: AppOp::GetSensors });
            let knob = AppOp::SetParam("knob".into(), Value::Float(1.0));
            http(core, ctx, Some(cookie), ClientRequest::Op { app: APP, op: knob });
            core.incoming_trace = None;
            ctx.trace_finish(request);
            assert_eq!(core.proxy_shed_total(), 1, "the read was shed");
            tcp(core, ctx, AppMsg::PhaseChange { app: APP, phase: AppPhase::Interacting });
        });
        let mut engine = simnet::Engine::new(1);
        engine.enable_tracing();
        let (mut engine, node) = Loopback::run_in(engine, config, script);
        let host = engine.actor_ref::<Loopback>(node).expect("the loopback actor");
        assert_eq!(host.commands.len(), 1, "the command ran");
        assert!(host.core.origins.is_empty(), "both operations settled");
        let tracer = engine.tracer_mut();
        assert_eq!(tracer.open_count(), 0, "a settled operation left a span open");
        let finished = tracer.finished();
        let opened = |name: &str| finished.iter().filter(|s| s.name == name).count();
        assert_eq!((opened("proxy.execute"), opened("app.command")), (2, 1));
    }

    #[test]
    fn a_record_keeps_the_acl_it_was_granted_under() {
        // §6.3: every ACL user may read the periodic records. Records
        // share the proxy's ACL until a revoke copies it, so the records
        // made before it still grant the revoked user and later ones do
        // not.
        let script: Script = Box::new(|core, ctx| {
            open_host(
                core,
                ctx,
                &[("o", Some(Privilege::Steer)), ("v", Some(Privilege::ReadOnly))],
            );
            let status = AppStatus { phase: AppPhase::Interacting, iteration: 0, progress: 0.0 };
            let update = AppMsg::Update { app: APP, status, readings: Vec::new() };
            for _ in 0..2 * RECORD_EVERY {
                tcp(core, ctx, update.clone());
            }
            assert_eq!(core.revoke_user(APP, &user("v")), (true, false));
            for _ in 0..RECORD_EVERY {
                tcp(core, ctx, update.clone());
            }
        });
        let (engine, node) = Loopback::run(ServerConfig::new(ADDR, "s"), script);
        let core = &engine.actor_ref::<Loopback>(node).expect("the loopback actor").core;
        let records = core.records.query_app(APP, &user("o"));
        let [first, second, after] = records[..] else { panic!("three records: {records:?}") };
        let acl = |record: &Record| Rc::clone(record.readers.as_ref().expect("an ACL"));
        assert!(Rc::ptr_eq(&acl(first), &acl(second)), "one ACL until the revoke");
        assert!(!Rc::ptr_eq(&acl(second), &acl(after)));
        assert!(Rc::ptr_eq(&acl(after), &core.apps[&APP].acl));
        for (record, viewer) in [(first, RecordAccess::Read), (after, RecordAccess::None)] {
            assert_eq!(core.records.access(record.id, &user("o")), RecordAccess::Full);
            assert_eq!(core.records.access(record.id, &user("v")), viewer);
        }
    }

    #[test]
    fn a_completed_op_goes_to_its_owners_and_no_further() {
        // The outcome is copied for the log and for an update built from
        // it; its delivery takes the original. Who gets what must not
        // depend on which of them got the original.
        let sensors = || ClientRequest::Op { app: APP, op: AppOp::GetSensors };
        let script: Script = Box::new(move |core, ctx| {
            let sessions = open_host(core, ctx, &[("u", Some(Privilege::Steer))]);
            subscribe_peer(core, ctx);
            let cookie = Some(sessions[0].0);
            http(core, ctx, cookie, ClientRequest::SelectApp { app: APP });
            // A relayed read: logged and answered, neither echoed nor
            // recorded (the relaying server does both for its client).
            giop(core, ctx, PeerMsg::ProxyOp { app: APP, user: user("u"), op: AppOp::GetSensors });
            // A local read by a client that keeps its views to itself:
            // answered and recorded, not echoed.
            let quiet = ClientRequest::SetCollabMode { app: APP, broadcast: false };
            http(core, ctx, cookie, quiet);
            http(core, ctx, cookie, sensors());
        });
        let (mut engine, node) = Loopback::run(ServerConfig::new(ADDR, "s"), script);
        let host = engine.actor_mut::<Loopback>(node).expect("the loopback actor");
        let done = sensors_read();
        assert_eq!(host.giop.len(), 2, "SubscribeOk, then the relayed result");
        assert_eq!(host.giop[1], PeerReply::OpResult { app: APP, result: Ok(done.clone()) });
        let echoes = |effects: &[Effect]| {
            pushed(effects)
                .iter()
                .filter(|u| matches!(u, UpdateBody::InteractionEcho { .. }))
                .count()
        };
        assert_eq!(echoes(&host.effects), 0);
        let responses = |log: &[wire::LogRecord]| {
            log.iter().filter(|r| r.entry == LogEntry::Response(Rc::new(done.clone()))).count()
        };
        let app_log = host.core.archive.app_log(APP).expect("logged");
        assert_eq!(responses(app_log.all()), 2, "both reads are in the application's log");
        assert_eq!(host.core.records.count_for_app(APP), 1, "only the local read is recorded");
        let client = host.core.sessions.iter().next().expect("logged in").client;
        let answered = ClientMessage::Response(ResponseBody::OpDone { app: APP, outcome: done });
        let mut queued = Vec::new();
        host.core
            .sessions
            .get_mut(client)
            .expect("its FIFO")
            .fifo
            .drain_into(usize::MAX, &mut queued);
        assert_eq!(queued.iter().filter(|m| **m == answered).count(), 1);

        // The same local read by a collaborating client is echoed too.
        let script: Script = Box::new(move |core, ctx| {
            let sessions = open_host(core, ctx, &[("u", Some(Privilege::Steer))]);
            subscribe_peer(core, ctx);
            http(core, ctx, Some(sessions[0].0), ClientRequest::SelectApp { app: APP });
            http(core, ctx, Some(sessions[0].0), sensors());
        });
        let (engine, node) = Loopback::run(ServerConfig::new(ADDR, "s"), script);
        let host = engine.actor_ref::<Loopback>(node).expect("the loopback actor");
        assert_eq!(echoes(&host.effects), 1);
        assert_eq!(host.core.records.count_for_app(APP), 1);
    }

    #[test]
    fn a_completion_keeps_one_copy_of_its_outcome() {
        // A collaborating client's read at the host: both logs and the
        // §6.3 record share the one copy; the echo to the group carries
        // an equal one of its own (`UpdateBody` stays as wide as it was).
        let script: Script = Box::new(|core, ctx| {
            let sessions = open_host(core, ctx, &[("u", Some(Privilege::Steer))]);
            subscribe_peer(core, ctx);
            let cookie = Some(sessions[0].0);
            http(core, ctx, cookie, ClientRequest::SelectApp { app: APP });
            http(core, ctx, cookie, ClientRequest::Op { app: APP, op: AppOp::GetSensors });
        });
        let (engine, node) = Loopback::run(ServerConfig::new(ADDR, "s"), script);
        let host = engine.actor_ref::<Loopback>(node).expect("the loopback actor");
        let core = &host.core;
        let response = |log: &[wire::LogRecord]| {
            let mut responses = log.iter().filter_map(|r| match &r.entry {
                LogEntry::Response(outcome) => Some(Rc::clone(outcome)),
                _ => None,
            });
            let response = responses.next().expect("a logged response");
            assert!(responses.next().is_none(), "one response per completion");
            response
        };
        let client = core.sessions.iter().next().expect("logged in").client;
        let kept = response(&core.archive.fetch_client(client, APP, 0).0);
        assert_eq!(*kept, sensors_read());
        let in_app_log = response(core.archive.app_log(APP).expect("logged").all());
        let [UpdateBody::InteractionEcho { outcome: echoed, .. }] = pushed(&host.effects)[..]
        else {
            panic!("one echo: {:?}", host.effects)
        };
        assert_eq!(echoed, &*kept);
        let [record] = core.records.query_app(APP, &user("u"))[..] else {
            panic!("one record: {:?}", core.records.query_app(APP, &user("u")))
        };
        let RecordData::Outcome(recorded) = &record.data else { panic!("{record:?}") };
        for (holder, other) in [("app log", &in_app_log), ("record", recorded)] {
            assert!(Rc::ptr_eq(&kept, other), "the {holder} holds a copy of its own");
        }
        // Rendered when read, as the text the record was written with
        // when it rendered eagerly.
        let text = Value::Text(r#"Sensors([("pressure", Float(1.5))])"#.into());
        assert_eq!(record.data().as_ref(), [("outcome".to_string(), text)]);
    }
}
