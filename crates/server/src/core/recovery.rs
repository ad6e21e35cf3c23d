//! Taking state back: seizing steering locks (lease sweep, peer down),
//! revoking a user, and the restart that rebuilds each hosted
//! application from its archive.

use wire::{Event, LockStep, UpdateBody};

use super::*;
use crate::locks::SteeringLock;

impl ServerCore {
    /// The one lock seizure: force-release every local steering lock
    /// `stale` picks out, counting and recording each eviction as coming
    /// from `why` and broadcasting the change.
    pub(super) fn seize_locks(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        why: wire::Origin,
        stale: impl Fn(&SteeringLock) -> bool,
    ) {
        let mut freed = Vec::new();
        for (app, proxy) in self.apps.iter_mut() {
            if stale(&proxy.lock) {
                if let Some(holder) = proxy.lock.force_release() {
                    freed.push((*app, holder));
                }
            }
        }
        for (app, holder) in freed {
            ctx.metrics().incr(names::SERVER_LOCK_EVICTED);
            ctx.record(|| Event::Lock(LockStep::Evicted, app, holder, why));
            let update = UpdateBody::LockChanged { app, holder: None };
            self.route_update(ctx, update, None, None);
        }
    }

    /// Force-release every lock whose grant was relayed via `peer`, which
    /// the substrate has just observed Down: the holder's path back to us
    /// is gone, so an explicit release can no longer arrive and waiting
    /// out the lease (or forever, without one) would strand the
    /// application for all other collaborators.
    pub fn evict_peer_locks(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        peer: ServerAddr,
    ) -> Vec<Effect> {
        let why = wire::Origin::PeerDown(peer);
        self.seize_locks(ctx, why, |lock| lock.granted_via == Some(peer));
        self.drain_effects()
    }

    /// Administrative ACL revocation (the security manager's
    /// dynamic-policy path), applied directly to core state so harnesses
    /// can drive it out-of-band via `Engine::actor_mut`. Removes `user`
    /// from the local app's ACL and force-releases their steering lock if
    /// held, so a de-authorized client cannot keep driving; their next
    /// operation fails second-level authentication. Returns
    /// `(was_on_acl, lock_was_freed)`. Callers recording correctness
    /// histories should inject matching events via `Engine::record`.
    pub fn revoke_user(&mut self, app: AppId, user: &UserId) -> (bool, bool) {
        self.apps.get_mut(&app).map(|p| p.revoke(user)).unwrap_or((false, false))
    }

    /// Restart-from-archive crash recovery (gated on
    /// `ServerConfig::recover_from_archive`; a no-op otherwise). Called
    /// from the node shell's `on_restart`: the volatile session plane —
    /// sessions, parked leases, FIFOs, collaboration groups, remote
    /// caches — is wiped (a restarted server has no RAM), and each local
    /// application's proxy context is rebuilt from the archive's folded
    /// state: cached status and readings via `apply_status`, and the
    /// steering lock re-granted to the folded holder. The operations the
    /// host accepted and has not answered survive, with the Daemon buffer
    /// holding some of them: admission archives each one's request before
    /// dispatching it, so they are durable, and a relayed one is still
    /// awaited by the relaying peer, whose call outlives this restart.
    /// Clients recover through the existing resume path: their cookie
    /// stops validating, the resume answers `SessionExpired`, and the
    /// fallback login storm is paced by `resume_rate_limit` — the same
    /// admission limiter that tames flash crowds of latecomers.
    pub fn recover_from_archive(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        if !self.config.recover_from_archive {
            return;
        }
        let dropped_sessions = self.sessions.clear();
        self.resume_window = RateWindow::default();
        self.collab.reset();
        self.apps.values_mut().for_each(ApplicationProxy::forget_volatile);
        if self.config.mutation == Some(Mutation::ForgetAccepted) {
            self.origins.clear();
            self.apps.values_mut().for_each(|proxy| proxy.buffered.clear());
        }
        self.remote_apps.clear();
        self.remote_privs.clear();
        self.peer_windows.clear();
        self.effects.clear();
        let now = ctx.now();
        let mut recovered = 0u32;
        for app in self.archive.archived_apps() {
            if app.host() != self.config.addr {
                continue;
            }
            let Some(log) = self.archive.app_log(app) else { continue };
            let folded = log.folded().clone();
            let Some(proxy) = self.apps.get_mut(&app) else { continue };
            // Any lock the crashed incarnation held is rebuilt from the
            // folded transition history, not from volatile memory.
            proxy.lock.force_release();
            if let Some(status) = folded.status {
                proxy.apply_status(status, &folded.readings);
            }
            if !folded.closed {
                if let Some(holder) = folded.lock_holder {
                    let _ = proxy.lock.try_acquire(&holder, now);
                }
            }
            recovered += 1;
        }
        self.recovered_apps = recovered;
        ctx.metrics().incr(names::SERVER_RECOVERIES);
        ctx.metrics().add(names::SERVER_RECOVERED_APPS, recovered as u64);
        ctx.record(|| Event::ServerRecovered(recovered, dropped_sessions));
    }
}

#[cfg(test)]
mod tests {
    use wire::{AppMsg, AppPhase, AppToken, ClientRequest, InteractionSpec, PeerReply, Value};

    use super::super::tests::*;
    use super::*;

    #[test]
    fn both_seizures_hand_their_broadcast_to_the_caller() {
        let mut config = ServerConfig::new(ADDR, "s");
        config.lock_lease = Some(simnet::SimDuration::from_secs(30));
        let script: Script = Box::new(|core, ctx| {
            open_host(core, ctx, &[("u", Some(Privilege::Steer))]);
            subscribe_peer(core, ctx);
            let grant = PeerMsg::LockRequest { app: APP, user: user("u"), via: PEER };
            let freed = UpdateBody::LockChanged { app: APP, holder: None };
            // The relaying peer goes down.
            giop(core, ctx, grant.clone());
            let effects = core.evict_peer_locks(ctx, PEER);
            assert_eq!(pushed(&handed_off(core, effects)), [&freed]);
            let effects = core.evict_peer_locks(ctx, PEER);
            assert!(handed_off(core, effects).is_empty(), "nothing left to seize");
            // The holder goes silent past the lease.
            giop(core, ctx, grant);
            ctx.consume(simnet::SimDuration::from_secs(31));
            let effects = core.reap_idle_sessions(ctx);
            assert_eq!(pushed(&handed_off(core, effects)), [&freed]);
            assert_eq!(ctx.metrics().counter(names::SERVER_LOCK_EVICTED), 2);
        });
        let (engine, _) = Loopback::run(config, script);
        let evictions: Vec<wire::Origin> = recorded(&engine)
            .into_iter()
            .filter_map(|e| match e {
                Event::Lock(LockStep::Evicted, .., origin) => Some(origin),
                _ => None,
            })
            .collect();
        assert_eq!(evictions, [wire::Origin::PeerDown(PEER), wire::Origin::LeaseSweep]);
    }

    #[test]
    fn every_walk_over_the_hosted_apps_is_in_app_order() {
        // Registered in reverse, each granted through the same peer: the
        // seizure, its broadcasts and a peer's `ListActive` all list the
        // applications in `AppId` order, in every process.
        let apps: Vec<AppId> = (0..8).map(|seq| AppId { server: ADDR, seq }).collect();
        let ordered = apps.clone();
        let script: Script = Box::new(move |core, ctx| {
            for app in apps.iter().rev() {
                let acl = vec![(user("u"), Privilege::Steer)];
                tcp(
                    core,
                    ctx,
                    AppMsg::Register {
                        token: AppToken::new("t"),
                        name: format!("app{}", app.seq),
                        kind: "k".into(),
                        acl,
                        interface: InteractionSpec::default(),
                        slot: Some(app.seq),
                    },
                );
                giop(core, ctx, PeerMsg::SubscribeApp { app: *app, subscriber: PEER });
                giop(core, ctx, PeerMsg::LockRequest { app: *app, user: user("u"), via: PEER });
            }
            let effects = core.evict_peer_locks(ctx, PEER);
            let freed: Vec<UpdateBody> =
                apps.iter().map(|&app| UpdateBody::LockChanged { app, holder: None }).collect();
            assert_eq!(pushed(&handed_off(core, effects)), freed.iter().collect::<Vec<_>>());
            giop(core, ctx, PeerMsg::ListActive);
        });
        let (engine, node) = Loopback::run(ServerConfig::new(ADDR, "s"), script);
        let evicted: Vec<AppId> = recorded(&engine)
            .into_iter()
            .filter_map(|e| match e {
                Event::Lock(LockStep::Evicted, app, ..) => Some(app),
                _ => None,
            })
            .collect();
        assert_eq!(evicted, ordered);
        let host = engine.actor_ref::<Loopback>(node).expect("the loopback actor");
        let Some(PeerReply::Active { apps, .. }) = host.giop.last() else {
            panic!("{:?}", host.giop.last());
        };
        assert_eq!(apps.iter().map(|d| d.app).collect::<Vec<_>>(), ordered);
    }

    #[test]
    fn the_status_page_counts_recoveries_on_the_node() {
        let mut config = ServerConfig::new(ADDR, "s");
        config.recover_from_archive = true;
        let script: Script = Box::new(|core, ctx| {
            open_host(core, ctx, &[("u", Some(Privilege::Steer))]);
            core.recover_from_archive(ctx);
            core.recover_from_archive(ctx);
            let now_us = ctx.now().as_micros();
            let report = core.status_report(now_us, ctx.metrics());
            assert_eq!(report.recoveries, 2);
            assert_eq!(report.recoveries, ctx.metrics().counter(names::SERVER_RECOVERIES));
        });
        Loopback::run(config, script);
    }

    #[test]
    fn a_recovered_host_still_dispatches_its_buffered_ops() {
        // A `SetParam` buffered while the application computes was
        // archived at admission, and its pending op survives the restart:
        // the next interaction phase still hands it to the application.
        // Only the seeded bug forgets it.
        for mutation in [None, Some(Mutation::ForgetAccepted)] {
            let mut config = ServerConfig::new(ADDR, "s");
            config.recover_from_archive = true;
            config.mutation = mutation;
            let script: Script = Box::new(|core, ctx| {
                let (cookie, _) = open_host(core, ctx, &[("u", Some(Privilege::Steer))])[0];
                http(core, ctx, Some(cookie), ClientRequest::RequestLock { app: APP });
                tcp(core, ctx, AppMsg::PhaseChange { app: APP, phase: AppPhase::Computing });
                let op = AppOp::SetParam("knob".into(), Value::Float(1.0));
                http(core, ctx, Some(cookie), ClientRequest::Op { app: APP, op });
                assert_eq!(core.apps[&APP].buffered.len(), 1);
                core.recover_from_archive(ctx);
                tcp(core, ctx, AppMsg::PhaseChange { app: APP, phase: AppPhase::Interacting });
            });
            let (engine, node) = Loopback::run(config, script);
            let events = recorded(&engine);
            let recovered = events
                .iter()
                .position(|e| matches!(e, Event::ServerRecovered(..)))
                .expect("recovered");
            let flushed = events[recovered..]
                .iter()
                .any(|e| matches!(e, Event::Daemon(wire::DaemonStep::Flushed, ..)));
            let host = engine.actor_ref::<Loopback>(node).expect("the loopback actor");
            assert_eq!(flushed, mutation.is_none(), "{mutation:?}: {events:?}");
            assert_eq!(host.commands.is_empty(), mutation.is_some(), "{mutation:?}");
        }
    }
}
