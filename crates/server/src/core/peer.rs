//! The server as a peer: serving GIOP calls (the `DiscoverCorbaServer`
//! servant, with per-peer rate accounting), ingesting peers' updates, and
//! completing the verbs this server relayed for its own clients.

use wire::giop::{GiopBody, GiopFrame, GiopKind};
use wire::{AppDescriptor, PeerReply, ResponseBody, UpdateBody};

use super::*;
use crate::security;

impl ServerCore {
    /// Serve one GIOP *request* frame from a peer server. Reply frames
    /// must be routed to the substrate's broker instead.
    pub fn handle_giop(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        from: NodeId,
        frame: GiopFrame,
    ) -> Vec<Effect> {
        let GiopFrame { kind, request_id, target, operation, body } = frame;
        let GiopBody::Call(call) = body else {
            ctx.metrics().incr(names::SERVER_GIOP_STRAY_REPLY);
            return self.drain_effects();
        };
        ctx.metrics().incr(names::SERVER_GIOP_CALLS);
        let expects_reply = matches!(kind, GiopKind::Request { response_expected: true });
        // §6.3 resource accounting: meter each peer's request rate and
        // enforce the configured access policy.
        let now_us = ctx.now().as_micros();
        let admitted = self.config.peer_rate_limit.is_none_or(|limit| {
            let window = self.peer_windows.entry(from).or_insert(RateWindow::opening(now_us));
            window.admit(now_us, limit)
        });
        if !admitted {
            ctx.metrics().incr(names::SERVER_PEER_THROTTLED);
            // Refused before the skeleton runs: no marshalling is charged.
            if expects_reply {
                let refusal = PeerReply::Exception(WireError::new(
                    ErrorCode::Unavailable,
                    "peer request rate exceeds access policy",
                ));
                let frame = GiopFrame::reply(request_id, target, operation, refusal);
                ctx.send(from, Envelope::giop(frame));
            }
            return self.drain_effects();
        }
        // Skeleton-side unmarshalling/dispatch cost for every incoming call.
        ctx.consume(orb_call_cost(&call));
        let reply = self.serve_giop(ctx, from, request_id, &operation, call);
        if let (Some(reply), true) = (reply, expects_reply) {
            let env = Envelope::giop(GiopFrame::reply(request_id, target, operation, reply));
            ctx.consume(ORB_COSTS.call_cost(env.wire_size()));
            ctx.send(from, env);
        }
        self.drain_effects()
    }

    /// Decode one peer call, run the verb it names, and shape the reply
    /// (`None`: nothing to say now — a oneway, or an operation in flight
    /// whose reply `complete_op` sends). `operation` is the call's name,
    /// which an admitted `ProxyOp` keeps for that later reply.
    fn serve_giop(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        from: NodeId,
        request_id: u64,
        operation: &Name,
        call: PeerMsg,
    ) -> Option<PeerReply> {
        let origin = Origin::Relay { via: from };
        let no_such_app = |app: AppId| {
            PeerReply::Exception(WireError::new(ErrorCode::NoSuchApp, format!("{app}")))
        };
        Some(match call {
            PeerMsg::Authenticate { user, password } => {
                ctx.metrics().incr(names::SERVER_PEER_AUTH);
                let apps: Vec<AppDescriptor> = if security::credentials_valid(&user, &password) {
                    self.apps.values().filter_map(|p| p.descriptor_for(&user)).collect()
                } else {
                    Vec::new()
                };
                if apps.is_empty() {
                    PeerReply::AuthDenied
                } else {
                    PeerReply::AuthOk { apps }
                }
            }
            PeerMsg::ListActive => {
                let apps: Vec<AppDescriptor> = self
                    .apps
                    .values()
                    .map(|p| AppDescriptor {
                        app: p.app,
                        name: p.name.clone(),
                        kind: p.kind.clone(),
                        status: p.last_status.clone(),
                        privilege: Privilege::ReadOnly,
                        interface: p.interface.clone(),
                    })
                    .collect();
                PeerReply::Active { apps, users: self.sessions.users() }
            }
            PeerMsg::ProxyOp { app, user, op } => {
                ctx.metrics().incr(names::SERVER_PEER_PROXY_OPS);
                let call = Some((request_id, operation));
                let verdict = self.admit_op(ctx, origin, &user, app, op, call);
                // Admitted: the reply is sent when the application responds.
                PeerReply::OpResult { app, result: verdict.transpose()? }
            }
            PeerMsg::LockRequest { app, user, via } => {
                ctx.metrics().incr(names::SERVER_PEER_LOCK_REQUESTS);
                match self.host_lock(ctx, origin, app, &user, true) {
                    Ok((true, _)) => {
                        // Remember which server relayed the grant, so the
                        // lock can be seized if that server goes down.
                        if let Some(proxy) = self.apps.get_mut(&app) {
                            proxy.lock.granted_via = Some(via);
                        }
                        PeerReply::LockDecision { app, granted: true, holder: Some(user) }
                    }
                    Ok((false, holder)) => PeerReply::LockDecision { app, granted: false, holder },
                    Err(e) => PeerReply::Exception(e),
                }
            }
            PeerMsg::LockRelease { app, user } => {
                match self.host_lock(ctx, origin, app, &user, false) {
                    Ok((granted, holder)) => PeerReply::LockDecision { app, granted, holder },
                    Err(e) => PeerReply::Exception(e),
                }
            }
            PeerMsg::SubscribeApp { app, subscriber } => {
                ctx.metrics().incr(names::SERVER_PEER_SUBSCRIBES);
                let Some(proxy) = self.apps.get_mut(&app) else { return Some(no_such_app(app)) };
                Rc::make_mut(&mut proxy.subscribers).insert(subscriber);
                // Seed the subscriber with the current status.
                self.effects.push(Effect::PushToPeers {
                    update: FrozenUpdate::new(UpdateBody::AppStatus {
                        app,
                        status: proxy.last_status.clone(),
                        readings: proxy.last_readings.clone(),
                    }),
                    peers: Rc::new(BTreeSet::from([subscriber])),
                    skip: None,
                });
                PeerReply::SubscribeOk { app }
            }
            PeerMsg::UnsubscribeApp { app, subscriber } => {
                if let Some(proxy) = self.apps.get_mut(&app) {
                    Rc::make_mut(&mut proxy.subscribers).remove(&subscriber);
                }
                PeerReply::SubscribeOk { app }
            }
            PeerMsg::CollabUpdate { update, origin } => {
                ctx.metrics().incr(names::SERVER_PEER_COLLAB_UPDATES);
                self.apply_peer_update(ctx, update, origin);
                return None;
            }
            PeerMsg::PollUpdates { app, since, requester } => match self.apps.get(&app) {
                Some(proxy) => {
                    let (updates, next_seq) = proxy.updates_since(since, Some(requester));
                    PeerReply::Updates { app, updates, next_seq }
                }
                None => no_such_app(app),
            },
            PeerMsg::FetchHistory { app, since } => {
                let (_, records, next_seq) = self.replay(ctx, app, since, Replay::History);
                PeerReply::History { app, records, next_seq }
            }
            PeerMsg::Control(event) => {
                ctx.metrics().incr_dynamic(&format!("server.control.{:?}", event.kind));
                return None;
            }
            // Directory operations belong to the directory node.
            other => PeerReply::Exception(WireError::new(
                ErrorCode::BadRequest,
                format!("not served here: {other:?}"),
            )),
        })
    }

    /// Ingest an update that arrived from a peer (push or poll). If this
    /// server hosts the app, it re-fans to locals and subscribers (minus
    /// the origin); otherwise it only reaches local clients. Only queues
    /// effects: the caller drains them ([`ServerCore::drain_effects`]).
    pub fn apply_peer_update(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        update: FrozenUpdate,
        origin: ServerAddr,
    ) {
        // Maintain the remote mirror's status cache.
        if let UpdateBody::AppStatus { app, status, .. } = update.body() {
            if let Some(remote) = self.remote_apps.get_mut(app) {
                remote.last_status = status.clone();
            }
        }
        if let UpdateBody::AppClosed { app } = update.body() {
            self.remote_apps.remove(app);
            self.remote_privs.retain(|(_, a), _| a != app);
        }
        // The update arrives already frozen by its origin server; the
        // local re-fan-out reuses those bytes with zero re-encode.
        self.route_update(ctx, update, None, Some(origin));
    }

    /// The one completion of a relayed verb: `result` is the host's
    /// reply, or why none will come (the substrate's refusal, fast-fail
    /// or give-up). Every [`Effect::Relay`] ends here exactly once and
    /// answers its client exactly once: an operation with its outcome or
    /// the error (through `complete_op`, like a local one), a lock verb
    /// with the host's decision or a plain refusal, a history fetch with
    /// the host's page or an empty one that leaves the cursor unmoved.
    pub fn complete_relay(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        client: ClientId,
        app: AppId,
        verb: Relayed,
        result: Result<PeerReply, WireError>,
    ) {
        let message = match (verb, result) {
            (Relayed::Op, result) => {
                let result = match result {
                    Ok(PeerReply::OpResult { result, .. }) => result,
                    Ok(PeerReply::Exception(e)) | Err(e) => Err(e),
                    Ok(_) => Err(WireError::new(ErrorCode::Unavailable, "unexpected peer reply")),
                };
                let Some(user) = self.user_of(client) else { return };
                let origin = Origin::Local { client };
                let pending = PendingOp { origin, user, app, call: None, spans: None };
                return self.complete_op(ctx, pending, result);
            }
            (Relayed::Lock { acquire }, Ok(PeerReply::LockDecision { granted, holder, .. })) => {
                Self::lock_message(app, acquire, granted, holder)
            }
            (Relayed::Lock { acquire }, _) => Self::lock_message(app, acquire, false, None),
            (Relayed::History { .. }, Ok(PeerReply::History { records, next_seq, .. })) => {
                ClientMessage::Response(ResponseBody::History { app, records, next_seq })
            }
            (Relayed::History { since }, _) => ClientMessage::Response(ResponseBody::History {
                app,
                records: Vec::new(),
                next_seq: since,
            }),
        };
        self.fifo_push(ctx, client, message);
    }
}

#[cfg(test)]
mod tests {
    use wire::{ClientRequest, LogEntry, OpOutcome, ResponseBody, Value};

    use super::super::tests::*;
    use super::*;

    #[test]
    fn a_relayed_answer_reaches_a_client_that_parked_meanwhile() {
        // A client here steers `REMOTE`, hosted at the peer, and parks
        // between the relay and the host's reply. The reply is answered as
        // a local op's would be: into the parked FIFO and the client's log.
        const MINUTE: simnet::SimDuration = simnet::SimDuration::from_secs(60);
        let mut config = ServerConfig::new(ADDR, "s");
        config.session_idle_timeout = Some(MINUTE);
        config.session_park_ttl = Some(MINUTE * 10);
        let outcome = OpOutcome::ParamSet("knob".into(), Value::Float(1.0));
        let reply = PeerReply::OpResult { app: REMOTE, result: Ok(outcome.clone()) };
        let script: Script = Box::new(move |core, ctx| {
            let cookie = open_session(core, ctx);
            let op = AppOp::SetParam("knob".into(), Value::Float(1.0));
            let effects = http(core, ctx, Some(cookie), ClientRequest::Op { app: REMOTE, op });
            let [Effect::Relay { client, .. }] = effects[..] else { panic!("{effects:?}") };
            ctx.consume(MINUTE + MINUTE / 60);
            let effects = core.reap_idle_sessions(ctx);
            assert!(handed_off(core, effects).is_empty());
            assert_eq!(core.parked_count(), 1);
            core.complete_relay(ctx, client, REMOTE, Relayed::Op, Ok(reply));
            assert!(core.drain_effects().is_empty());
            http(core, ctx, None, ClientRequest::Resume { cookie, cursors: Vec::new() });
            http(core, ctx, Some(cookie), ClientRequest::Poll);
            http(core, ctx, Some(cookie), ClientRequest::GetMyLog { app: REMOTE, since: 0 });
        });
        let (engine, node) = Loopback::run(config, script);
        let host = engine.actor_ref::<Loopback>(node).expect("the loopback actor");
        let [.., poll, log] = &host.http[..] else { panic!("{:?}", host.http) };
        let [ClientMessage::Response(ResponseBody::Batch(batch))] = &poll.body[..] else {
            panic!("{poll:?}")
        };
        let done = ResponseBody::OpDone { app: REMOTE, outcome: outcome.clone() };
        assert!(batch.contains(&ClientMessage::Response(done)), "{batch:?}");
        let [ClientMessage::Response(ResponseBody::ClientLog { records, .. })] = &log.body[..]
        else {
            panic!("{log:?}")
        };
        let response = LogEntry::Response(outcome.into());
        assert!(records.iter().any(|r| r.entry == response), "{records:?}");
    }
}
