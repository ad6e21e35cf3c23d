//! The back-end control network: sensors, actuators and interaction
//! agents "superimposed on the application" (paper §4, Figure 2).
//!
//! A [`ControlNetwork`] decorates a numeric [`Kernel`] with named,
//! dynamically typed access points; [`SteerableApp`] combines the two and
//! adds checkpoint/rollback, yielding everything the DISCOVER server's
//! `ApplicationProxy` needs: an [`InteractionSpec`] to publish, and an
//! `apply` entry point for interaction operations.

use wire::{
    AppCommand, AppOp, AppPhase, AppStatus, ErrorCode, InteractionSpec, OpOutcome, Value, WireError,
};

/// A numeric simulation kernel that can be advanced one iteration at a
/// time. `Clone` supplies checkpoint/rollback for free.
pub trait Kernel: Clone + Send + 'static {
    /// Kind tag (`"oilres"`, `"cfd"`, `"seismic"`, `"relativity"`).
    fn kind(&self) -> &'static str;
    /// Perform one iteration of real numeric work.
    fn advance(&mut self);
    /// Completed iterations.
    fn iteration(&self) -> u64;
    /// Monotone progress metric in `[0, 1]` where meaningful.
    fn progress(&self) -> f64;
}

type ReadFn<S> = Box<dyn Fn(&S) -> Value + Send>;
type WriteFn<S> = Box<dyn Fn(&mut S, &Value) -> Result<Value, String> + Send>;
type AgentFn<S> = Box<dyn FnMut(&mut S) + Send>;

/// A read-only probe on kernel state.
pub struct Sensor<S> {
    name: String,
    read: ReadFn<S>,
}

/// A steerable parameter: readable and writable.
pub struct Actuator<S> {
    name: String,
    type_name: &'static str,
    read: ReadFn<S>,
    write: WriteFn<S>,
}

/// An automated periodic interaction ("schedule automated periodic
/// interactions" is an explicitly listed DISCOVER capability).
pub struct InteractionAgent<S> {
    period: u64,
    act: AgentFn<S>,
}

/// The set of sensors, actuators and agents superimposed on a kernel.
pub struct ControlNetwork<S> {
    sensors: Vec<Sensor<S>>,
    actuators: Vec<Actuator<S>>,
    agents: Vec<InteractionAgent<S>>,
}

impl<S> Default for ControlNetwork<S> {
    fn default() -> Self {
        ControlNetwork { sensors: Vec::new(), actuators: Vec::new(), agents: Vec::new() }
    }
}

impl<S> ControlNetwork<S> {
    /// Empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a sensor (builder style).
    pub fn sensor(
        mut self,
        name: impl Into<String>,
        read: impl Fn(&S) -> Value + Send + 'static,
    ) -> Self {
        self.sensors.push(Sensor { name: name.into(), read: Box::new(read) });
        self
    }

    /// Register an actuator (builder style). `write` validates and applies
    /// the value, returning the value actually applied (e.g. clamped).
    pub fn actuator(
        mut self,
        name: impl Into<String>,
        type_name: &'static str,
        read: impl Fn(&S) -> Value + Send + 'static,
        write: impl Fn(&mut S, &Value) -> Result<Value, String> + Send + 'static,
    ) -> Self {
        self.actuators.push(Actuator {
            name: name.into(),
            type_name,
            read: Box::new(read),
            write: Box::new(write),
        });
        self
    }

    /// Register an interaction agent firing every `period` iterations.
    pub fn agent(mut self, period: u64, act: impl FnMut(&mut S) + Send + 'static) -> Self {
        assert!(period > 0, "agent period must be positive");
        self.agents.push(InteractionAgent { period, act: Box::new(act) });
        self
    }

    /// Sensor names.
    pub fn sensor_names(&self) -> Vec<String> {
        self.sensors.iter().map(|s| s.name.clone()).collect()
    }
}

/// A kernel plus its control network plus checkpointing: the complete
/// interactive application object the server-side proxy talks to.
pub struct SteerableApp<S: Kernel> {
    kernel: S,
    net: ControlNetwork<S>,
    checkpoint: Option<S>,
}

impl<S: Kernel> SteerableApp<S> {
    /// Combine a kernel with its control network.
    pub fn new(kernel: S, net: ControlNetwork<S>) -> Self {
        SteerableApp { kernel, net, checkpoint: None }
    }

    /// Kind tag of the underlying kernel.
    pub fn kind(&self) -> &'static str {
        self.kernel.kind()
    }

    /// Borrow the kernel (tests and sensors-by-hand).
    pub fn kernel(&self) -> &S {
        &self.kernel
    }

    /// The interaction interface published at registration.
    pub fn interface(&self) -> InteractionSpec {
        InteractionSpec {
            params: self
                .net
                .actuators
                .iter()
                .map(|a| (a.name.clone(), a.type_name.to_string(), (a.read)(&self.kernel)))
                .collect(),
            sensors: self.net.sensor_names(),
            commands: vec![
                AppCommand::Pause,
                AppCommand::Resume,
                AppCommand::Checkpoint,
                AppCommand::Rollback,
                AppCommand::Terminate,
            ],
        }
    }

    /// Advance one iteration and fire any due interaction agents.
    pub fn step(&mut self) {
        self.kernel.advance();
        let it = self.kernel.iteration();
        for agent in &mut self.net.agents {
            if it.is_multiple_of(agent.period) {
                (agent.act)(&mut self.kernel);
            }
        }
    }

    /// Current status snapshot under the given phase.
    pub fn status(&self, phase: AppPhase) -> AppStatus {
        AppStatus { phase, iteration: self.kernel.iteration(), progress: self.kernel.progress() }
    }

    /// Read every sensor.
    pub fn readings(&self) -> Vec<(String, Value)> {
        self.net.sensors.iter().map(|s| (s.name.clone(), (s.read)(&self.kernel))).collect()
    }

    /// Apply an interaction operation. `phase` is the phase to report in
    /// status outcomes.
    pub fn apply(&mut self, op: &AppOp, phase: AppPhase) -> Result<OpOutcome, WireError> {
        match op {
            AppOp::GetStatus => Ok(OpOutcome::Status(self.status(phase))),
            AppOp::GetSensors => Ok(OpOutcome::Sensors(self.readings())),
            AppOp::GetParam(name) => {
                let a = self.find_actuator(name)?;
                Ok(OpOutcome::Param(name.clone(), (a.read)(&self.kernel)))
            }
            AppOp::SetParam(name, value) => {
                let idx = self.actuator_index(name)?;
                let applied = (self.net.actuators[idx].write)(&mut self.kernel, value)
                    .map_err(|e| WireError::new(ErrorCode::BadParameter, e))?;
                Ok(OpOutcome::ParamSet(name.clone(), applied))
            }
            AppOp::Command(cmd) => {
                match cmd {
                    AppCommand::Checkpoint => {
                        self.checkpoint = Some(self.kernel.clone());
                    }
                    AppCommand::Rollback => match self.checkpoint.clone() {
                        Some(saved) => self.kernel = saved,
                        None => {
                            return Err(WireError::new(
                                ErrorCode::BadRequest,
                                "no checkpoint to roll back to",
                            ))
                        }
                    },
                    // Pause/Resume/Terminate are lifecycle transitions the
                    // driver owns; acknowledging here is sufficient.
                    AppCommand::Pause | AppCommand::Resume | AppCommand::Terminate => {}
                }
                Ok(OpOutcome::CommandDone(*cmd))
            }
        }
    }

    fn actuator_index(&self, name: &str) -> Result<usize, WireError> {
        self.net
            .actuators
            .iter()
            .position(|a| a.name == name)
            .ok_or_else(|| WireError::new(ErrorCode::BadParameter, format!("no parameter {name}")))
    }

    fn find_actuator(&self, name: &str) -> Result<&Actuator<S>, WireError> {
        self.actuator_index(name).map(|i| &self.net.actuators[i])
    }
}

/// Helper for float actuators: parse a numeric [`Value`], clamp to
/// `[lo, hi]`, store via `set`, and return the applied value.
pub fn write_clamped_f64<S>(
    value: &Value,
    lo: f64,
    hi: f64,
    state: &mut S,
    set: impl FnOnce(&mut S, f64),
) -> Result<Value, String> {
    let x = value
        .as_f64()
        .ok_or_else(|| format!("expected a numeric value, got {}", value.type_name()))?;
    if !x.is_finite() {
        return Err("value must be finite".to_string());
    }
    let clamped = x.clamp(lo, hi);
    set(state, clamped);
    Ok(Value::Float(clamped))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct Counter {
        it: u64,
        gain: f64,
        total: f64,
        agent_fires: u64,
    }

    impl Kernel for Counter {
        fn kind(&self) -> &'static str {
            "counter"
        }
        fn advance(&mut self) {
            self.it += 1;
            self.total += self.gain;
        }
        fn iteration(&self) -> u64 {
            self.it
        }
        fn progress(&self) -> f64 {
            (self.it as f64 / 100.0).min(1.0)
        }
    }

    fn build() -> SteerableApp<Counter> {
        SteerableApp::new(
            Counter { it: 0, gain: 1.0, total: 0.0, agent_fires: 0 },
            ControlNetwork::new()
                .sensor("total", |s: &Counter| Value::Float(s.total))
                .actuator(
                    "gain",
                    "float",
                    |s: &Counter| Value::Float(s.gain),
                    |s, v| write_clamped_f64(v, 0.0, 10.0, s, |s, x| s.gain = x),
                )
                .agent(5, |s: &mut Counter| s.agent_fires += 1),
        )
    }

    #[test]
    fn interface_reflects_network() {
        let app = build();
        let spec = app.interface();
        assert_eq!(spec.params.len(), 1);
        assert_eq!(spec.params[0].0, "gain");
        assert_eq!(spec.sensors, vec!["total".to_string()]);
        assert_eq!(spec.commands.len(), 5);
    }

    #[test]
    fn step_advances_and_fires_agents() {
        let mut app = build();
        for _ in 0..10 {
            app.step();
        }
        assert_eq!(app.kernel().it, 10);
        assert_eq!(app.kernel().agent_fires, 2, "agent with period 5 fires at 5 and 10");
        assert_eq!(app.readings()[0].1, Value::Float(10.0));
    }

    #[test]
    fn set_param_clamps_and_echoes() {
        let mut app = build();
        let out = app
            .apply(&AppOp::SetParam("gain".into(), Value::Float(99.0)), AppPhase::Interacting)
            .unwrap();
        assert_eq!(out, OpOutcome::ParamSet("gain".into(), Value::Float(10.0)));
        let out = app.apply(&AppOp::GetParam("gain".into()), AppPhase::Interacting).unwrap();
        assert_eq!(out, OpOutcome::Param("gain".into(), Value::Float(10.0)));
    }

    #[test]
    fn bad_params_rejected() {
        let mut app = build();
        let err = app
            .apply(&AppOp::SetParam("missing".into(), Value::Int(1)), AppPhase::Interacting)
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::BadParameter);
        let err = app
            .apply(&AppOp::SetParam("gain".into(), Value::Text("x".into())), AppPhase::Interacting)
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::BadParameter);
        let err = app
            .apply(&AppOp::SetParam("gain".into(), Value::Float(f64::NAN)), AppPhase::Interacting)
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::BadParameter);
    }

    #[test]
    fn checkpoint_rollback_cycle() {
        let mut app = build();
        for _ in 0..3 {
            app.step();
        }
        assert!(app.checkpoint.is_none());
        let err =
            app.apply(&AppOp::Command(AppCommand::Rollback), AppPhase::Interacting).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        app.apply(&AppOp::Command(AppCommand::Checkpoint), AppPhase::Interacting).unwrap();
        for _ in 0..4 {
            app.step();
        }
        assert_eq!(app.kernel().it, 7);
        app.apply(&AppOp::Command(AppCommand::Rollback), AppPhase::Interacting).unwrap();
        assert_eq!(app.kernel().it, 3, "rollback restores the checkpointed iteration");
    }

    #[test]
    fn status_carries_phase_and_progress() {
        let mut app = build();
        for _ in 0..50 {
            app.step();
        }
        let st = app.status(AppPhase::Computing);
        assert_eq!(st.phase, AppPhase::Computing);
        assert_eq!(st.iteration, 50);
        assert!((st.progress - 0.5).abs() < 1e-12);
    }
}
