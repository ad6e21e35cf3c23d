//! The application-side driver: a simulation actor that runs a
//! [`SteerableApp`] through the compute/interaction phase loop and speaks
//! the custom TCP protocol to its host DISCOVER server.
//!
//! Lifecycle (paper §4.1): register with the Daemon servlet → receive the
//! assigned application id → alternate *compute* batches (periodic status
//! updates on the Main channel) with *interaction* windows. Commands
//! arriving mid-compute are queued locally and answered when the
//! application next enters its interaction phase — mirroring the Daemon
//! servlet's own buffering on the server side ("requests are not lost
//! while the application is busy computing").

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use simnet::{names, Actor, Ctx, NodeId, SimDuration};
use wire::tcp::TcpFrame;
use wire::{
    AppCommand, AppId, AppMsg, AppOp, AppPhase, AppToken, Channel, Envelope, ErrorCode, Privilege,
    RequestId, UserId, WireError,
};

use crate::control::{Kernel, SteerableApp};

const TAG_BATCH: u64 = 1;
const TAG_INTERACT_END: u64 = 2;
const TAG_GATE: u64 = 3;

/// A shared launch gate: a driver created with a closed gate stays
/// dormant until something (e.g. the CoG kit's GRAM site, after staging
/// and queueing) opens it — at which point the application registers
/// with its DISCOVER server and starts computing.
#[derive(Clone, Default)]
pub struct LaunchGate {
    open: Arc<AtomicBool>,
}

impl LaunchGate {
    /// A closed gate.
    pub fn closed() -> Self {
        LaunchGate { open: Arc::new(AtomicBool::new(false)) }
    }

    /// Open the gate (idempotent).
    pub fn open(&self) {
        self.open.store(true, Ordering::Release);
    }

    /// Is the gate open?
    pub fn is_open(&self) -> bool {
        self.open.load(Ordering::Acquire)
    }
}

/// Static configuration of an application driver.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Pre-assigned registration token.
    pub token: AppToken,
    /// Human name.
    pub name: String,
    /// ACL registered with the server.
    pub acl: Vec<(UserId, Privilege)>,
    /// Kernel iterations per compute batch (one status update per batch).
    pub iters_per_batch: u32,
    /// Virtual wall time one compute batch takes.
    pub batch_time: SimDuration,
    /// Compute batches between interaction windows.
    pub batches_per_phase: u32,
    /// Virtual length of each interaction window.
    pub interaction_window: SimDuration,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            token: AppToken::new("tok"),
            name: "app".to_string(),
            acl: Vec::new(),
            iters_per_batch: 4,
            batch_time: SimDuration::from_millis(500),
            batches_per_phase: 4,
            interaction_window: SimDuration::from_millis(250),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum DriverState {
    Unregistered,
    AwaitingAck,
    Computing,
    Interacting,
    Paused,
    Terminated,
}

/// The driver actor. `S` is the numeric kernel.
pub struct AppDriver<S: Kernel> {
    app: SteerableApp<S>,
    config: DriverConfig,
    /// Host server node; must be set before the engine starts the actor.
    pub server: Option<NodeId>,
    state: DriverState,
    assigned: Option<AppId>,
    batch_in_phase: u32,
    queued: VecDeque<(RequestId, AppOp)>,
    /// If set, registration is deferred until the gate opens (CoG/GRAM
    /// staged launch).
    pub gate: Option<LaunchGate>,
    /// Pre-assigned application slot at the host server. Static
    /// deployments pin this so the AppId is a function of the topology
    /// rather than of registration arrival order.
    pub slot: Option<u32>,
    /// Count of updates sent (tests/metrics).
    pub updates_sent: u64,
    /// Count of ops answered (tests/metrics).
    pub ops_answered: u64,
}

impl<S: Kernel> AppDriver<S> {
    /// Wrap a steerable application.
    pub fn new(app: SteerableApp<S>, config: DriverConfig) -> Self {
        AppDriver {
            app,
            config,
            server: None,
            gate: None,
            slot: None,
            state: DriverState::Unregistered,
            assigned: None,
            batch_in_phase: 0,
            queued: VecDeque::new(),
            updates_sent: 0,
            ops_answered: 0,
        }
    }

    /// The id assigned at registration, once known.
    pub fn app_id(&self) -> Option<AppId> {
        self.assigned
    }

    /// Borrow the wrapped application (tests).
    pub fn app(&self) -> &SteerableApp<S> {
        &self.app
    }

    fn phase(&self) -> AppPhase {
        match self.state {
            DriverState::Computing => AppPhase::Computing,
            DriverState::Interacting => AppPhase::Interacting,
            DriverState::Paused => AppPhase::Paused,
            DriverState::Terminated => AppPhase::Terminated,
            _ => AppPhase::Computing,
        }
    }

    fn send_main(&self, ctx: &mut Ctx<'_, Envelope>, msg: AppMsg) {
        let server = self.server.expect("driver server not wired");
        ctx.send(server, Envelope::tcp(TcpFrame::new(Channel::Main, msg)));
    }

    fn send_response(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        req: RequestId,
        result: Result<wire::OpOutcome, WireError>,
    ) {
        let server = self.server.expect("driver server not wired");
        self.ops_answered += 1;
        ctx.send(
            server,
            Envelope::tcp(TcpFrame::new(Channel::Response, AppMsg::Response { req, result })),
        );
    }

    fn send_update(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let Some(app) = self.assigned else { return };
        let status = self.app.status(self.phase());
        let readings = self.app.readings();
        self.updates_sent += 1;
        self.send_main(ctx, AppMsg::Update { app, status, readings });
    }

    fn send_phase(&self, ctx: &mut Ctx<'_, Envelope>, phase: AppPhase) {
        if let Some(app) = self.assigned {
            self.send_main(ctx, AppMsg::PhaseChange { app, phase });
        }
    }

    fn enter_computing(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        self.state = DriverState::Computing;
        self.batch_in_phase = 0;
        self.send_phase(ctx, AppPhase::Computing);
        ctx.schedule(self.config.batch_time, TAG_BATCH);
    }

    fn process_op(&mut self, ctx: &mut Ctx<'_, Envelope>, req: RequestId, op: AppOp) {
        match &op {
            AppOp::Command(AppCommand::Pause) => {
                let result = self.app.apply(&op, AppPhase::Paused);
                self.state = DriverState::Paused;
                self.send_phase(ctx, AppPhase::Paused);
                self.send_response(ctx, req, result);
            }
            AppOp::Command(AppCommand::Resume) => {
                let result = self.app.apply(&op, AppPhase::Computing);
                self.send_response(ctx, req, result);
                if self.state == DriverState::Paused {
                    self.enter_computing(ctx);
                }
            }
            AppOp::Command(AppCommand::Terminate) => {
                let result = self.app.apply(&op, AppPhase::Terminated);
                self.send_response(ctx, req, result);
                self.state = DriverState::Terminated;
                if let Some(app) = self.assigned {
                    self.send_main(ctx, AppMsg::Deregister { app });
                }
            }
            _ => {
                let phase = self.phase();
                let result = self.app.apply(&op, phase);
                self.send_response(ctx, req, result);
            }
        }
    }
}

impl<S: Kernel> AppDriver<S> {
    fn register_now(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        self.state = DriverState::AwaitingAck;
        self.send_main(
            ctx,
            AppMsg::Register {
                token: self.config.token.clone(),
                name: self.config.name.clone(),
                kind: self.app.kind().to_string(),
                acl: self.config.acl.clone(),
                interface: self.app.interface(),
                slot: self.slot,
            },
        );
    }
}

impl<S: Kernel> Actor<Envelope> for AppDriver<S> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        match &self.gate {
            Some(gate) if !gate.is_open() => {
                // Dormant until the grid middleware opens the gate.
                ctx.schedule(SimDuration::from_millis(100), TAG_GATE);
            }
            _ => self.register_now(ctx),
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Envelope>, _from: NodeId, msg: Envelope) {
        let wire::Content::Tcp(frame) = msg.content else { return };
        match frame.msg {
            AppMsg::RegisterAck { app } if self.state == DriverState::AwaitingAck => {
                self.assigned = Some(app);
                // First status update announces the app, then compute.
                self.send_update(ctx);
                self.enter_computing(ctx);
            }
            AppMsg::RegisterNak { error } => {
                ctx.metrics().incr(names::DRIVER_REGISTER_NAK);
                let _ = error;
                self.state = DriverState::Terminated;
            }
            AppMsg::Command { req, op } => match self.state {
                DriverState::Interacting | DriverState::Paused => self.process_op(ctx, req, op),
                DriverState::Computing => self.queued.push_back((req, op)),
                _ => self.send_response(
                    ctx,
                    req,
                    Err(WireError::new(ErrorCode::Unavailable, "application not running")),
                ),
            },
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Envelope>, tag: u64) {
        if tag == TAG_GATE {
            if self.state == DriverState::Unregistered {
                if self.gate.as_ref().is_some_and(LaunchGate::is_open) {
                    self.register_now(ctx);
                } else {
                    ctx.schedule(SimDuration::from_millis(100), TAG_GATE);
                }
            }
            return;
        }
        match (tag, self.state) {
            (TAG_BATCH, DriverState::Computing) => {
                for _ in 0..self.config.iters_per_batch {
                    self.app.step();
                }
                self.batch_in_phase += 1;
                self.send_update(ctx);
                if self.batch_in_phase >= self.config.batches_per_phase {
                    self.state = DriverState::Interacting;
                    self.send_phase(ctx, AppPhase::Interacting);
                    // Serve everything queued during the compute phase.
                    while let Some((req, op)) = self.queued.pop_front() {
                        if self.state != DriverState::Interacting {
                            // A queued Pause/Terminate changed state.
                            self.queued.push_front((req, op));
                            break;
                        }
                        self.process_op(ctx, req, op);
                    }
                    if self.state == DriverState::Interacting {
                        ctx.schedule(self.config.interaction_window, TAG_INTERACT_END);
                    }
                }
                // Re-queue the next batch... handled below to avoid
                // double-scheduling after a phase switch.
                if self.state == DriverState::Computing {
                    ctx.schedule(self.config.batch_time, TAG_BATCH);
                }
            }
            (TAG_INTERACT_END, DriverState::Interacting) => {
                self.enter_computing(ctx);
            }
            _ => {} // stale timer after pause/terminate
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::synthetic_app;
    use simnet::{Engine, LinkSpec, SimTime};
    use wire::{Content, OpOutcome, ServerAddr, Value};

    /// Minimal fake Daemon servlet: acks registration, records traffic,
    /// and fires scripted commands at fixed times.
    struct FakeServer {
        assign: AppId,
        updates: Vec<AppMsg>,
        responses: Vec<(RequestId, Result<OpOutcome, WireError>)>,
        phase_log: Vec<AppPhase>,
        script: Vec<(SimDuration, AppOp)>,
        app_node: Option<NodeId>,
        next_req: u64,
    }

    impl FakeServer {
        fn new(script: Vec<(SimDuration, AppOp)>) -> Self {
            FakeServer {
                assign: AppId { server: ServerAddr(1), seq: 1 },
                updates: vec![],
                responses: vec![],
                phase_log: vec![],
                script,
                app_node: None,
                next_req: 0,
            }
        }
    }

    impl Actor<Envelope> for FakeServer {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
            for (i, (delay, _)) in self.script.iter().enumerate() {
                ctx.schedule(*delay, i as u64);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Envelope>, from: NodeId, msg: Envelope) {
            let Content::Tcp(frame) = msg.content else { return };
            match frame.msg {
                AppMsg::Register { .. } => {
                    self.app_node = Some(from);
                    ctx.send(
                        from,
                        Envelope::tcp(TcpFrame::new(
                            Channel::Main,
                            AppMsg::RegisterAck { app: self.assign },
                        )),
                    );
                }
                AppMsg::Update { .. } => self.updates.push(frame.msg),
                AppMsg::PhaseChange { phase, .. } => self.phase_log.push(phase),
                AppMsg::Response { req, result } => self.responses.push((req, result)),
                _ => {}
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Envelope>, tag: u64) {
            let op = self.script[tag as usize].1.clone();
            let req = RequestId(self.next_req);
            self.next_req += 1;
            if let Some(app) = self.app_node {
                ctx.send(
                    app,
                    Envelope::tcp(TcpFrame::new(Channel::Command, AppMsg::Command { req, op })),
                );
            }
        }
    }

    fn wire_up(
        script: Vec<(SimDuration, AppOp)>,
        config: DriverConfig,
    ) -> (Engine<Envelope>, NodeId, NodeId) {
        let mut eng = Engine::new(9);
        let server = eng.add_node("server", FakeServer::new(script));
        let driver = eng.add_node("app", AppDriver::new(synthetic_app(2, 1000), config));
        eng.link(server, driver, LinkSpec::lan());
        eng.actor_mut::<AppDriver<crate::synthetic::Synthetic>>(driver).unwrap().server =
            Some(server);
        (eng, server, driver)
    }

    type Drv = AppDriver<crate::synthetic::Synthetic>;

    #[test]
    fn registers_and_sends_periodic_updates() {
        let (mut eng, server, driver) = wire_up(vec![], DriverConfig::default());
        eng.run_until(SimTime::from_secs(10));
        let drv = eng.actor_ref::<Drv>(driver).unwrap();
        assert_eq!(drv.app_id(), Some(AppId { server: ServerAddr(1), seq: 1 }));
        let srv = eng.actor_ref::<FakeServer>(server).unwrap();
        assert!(srv.updates.len() >= 10, "expected many updates, got {}", srv.updates.len());
        // Phases alternate between Computing and Interacting.
        assert!(srv.phase_log.contains(&AppPhase::Interacting));
        assert!(srv.phase_log.contains(&AppPhase::Computing));
    }

    #[test]
    fn command_during_compute_is_buffered_until_interaction() {
        // Batches of 500 ms x4 → first interaction window at ~2 s. A command
        // sent at 0.7 s must be answered only at the window.
        let script = vec![(SimDuration::from_millis(700), AppOp::GetStatus)];
        let (mut eng, server, _driver) = wire_up(script, DriverConfig::default());
        eng.run_until(SimTime::from_secs(5));
        let srv = eng.actor_ref::<FakeServer>(server).unwrap();
        assert_eq!(srv.responses.len(), 1);
        // The response carries the Interacting phase — proof it waited.
        match &srv.responses[0].1 {
            Ok(OpOutcome::Status(st)) => assert_eq!(st.phase, AppPhase::Interacting),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn steering_applies_and_echoes() {
        let script = vec![(
            SimDuration::from_millis(100),
            AppOp::SetParam("knob0".into(), Value::Float(7.0)),
        )];
        let (mut eng, server, driver) = wire_up(script, DriverConfig::default());
        eng.run_until(SimTime::from_secs(5));
        let srv = eng.actor_ref::<FakeServer>(server).unwrap();
        assert_eq!(srv.responses[0].1, Ok(OpOutcome::ParamSet("knob0".into(), Value::Float(7.0))));
        let drv = eng.actor_ref::<Drv>(driver).unwrap();
        assert_eq!(drv.app().kernel().knobs[0], 7.0);
    }

    #[test]
    fn pause_stops_iterations_resume_restarts() {
        // The first interaction window runs 2.0–2.25 s; Pause sent at
        // 2.1 s lands inside it and takes effect immediately. (A Pause
        // sent mid-compute is buffered to the next window by design.)
        let script = vec![
            (SimDuration::from_millis(2100), AppOp::Command(AppCommand::Pause)),
            (SimDuration::from_secs(6), AppOp::Command(AppCommand::Resume)),
        ];
        let (mut eng, _server, driver) = wire_up(script, DriverConfig::default());
        eng.run_until(SimTime::from_secs(4));
        let at_pause = eng.actor_ref::<Drv>(driver).unwrap().app().kernel().iteration();
        eng.run_until(SimTime::from_secs(6));
        let still_paused = eng.actor_ref::<Drv>(driver).unwrap().app().kernel().iteration();
        assert_eq!(at_pause, still_paused, "no iterations while paused");
        eng.run_until(SimTime::from_secs(10));
        let resumed = eng.actor_ref::<Drv>(driver).unwrap().app().kernel().iteration();
        assert!(resumed > still_paused, "iterations resume after Resume");
    }

    #[test]
    fn terminate_deregisters() {
        let script = vec![(SimDuration::from_millis(2300), AppOp::Command(AppCommand::Terminate))];
        let (mut eng, server, driver) = wire_up(script, DriverConfig::default());
        eng.run_until(SimTime::from_secs(8));
        let drv = eng.actor_ref::<Drv>(driver).unwrap();
        assert_eq!(drv.ops_answered, 1);
        let srv = eng.actor_ref::<FakeServer>(server).unwrap();
        // After termination no further updates accumulate.
        let updates_at_end = srv.updates.len();
        let mut eng2 = eng;
        eng2.run_until(SimTime::from_secs(12));
        assert_eq!(eng2.actor_ref::<FakeServer>(server).unwrap().updates.len(), updates_at_end);
    }
}
