//! Seismic modeling — the paper's third application class.
//!
//! 2-D acoustic wave propagation `u_tt = c² ∇²u` on a layered velocity
//! model, advanced with a leapfrog stencil (row-parallel via `parkit`),
//! driven by a Ricker wavelet point source, absorbed at the edges by a
//! damping sponge, and recorded by a row of receivers (geophones) near
//! the surface.
//!
//! Steerables: `source_freq`, `layer_velocity`, `damping`.
//! Sensors: receiver-trace RMS, peak amplitude, total field energy.

use crate::control::{write_clamped_f64, ControlNetwork, Kernel, SteerableApp};
use wire::Value;

/// Acoustic wavefield kernel state.
#[derive(Clone)]
pub struct Seismic {
    n: usize,
    /// Current field.
    u: Vec<f64>,
    /// Previous field.
    u_prev: Vec<f64>,
    /// Velocity model (upper medium fixed at 1.0; lower layer steerable).
    c: Vec<f64>,
    /// Ricker source dominant frequency.
    pub source_freq: f64,
    /// Lower-layer velocity.
    pub layer_velocity: f64,
    /// Sponge damping coefficient.
    pub damping: f64,
    dt: f64,
    it: u64,
    /// Recorded traces: one sample per iteration per receiver.
    receivers: Vec<usize>,
    last_trace: Vec<f64>,
}

impl Seismic {
    /// Create an `n × n` model: velocity 1 above row `n/2`, steerable
    /// `layer_velocity` below; source at (4, n/2); receivers on row 2.
    pub fn new(n: usize) -> Self {
        assert!(n >= 16, "grid too small");
        let mut s = Seismic {
            n,
            u: vec![0.0; n * n],
            u_prev: vec![0.0; n * n],
            c: vec![1.0; n * n],
            source_freq: 12.0,
            layer_velocity: 1.8,
            damping: 0.015,
            dt: 0.0, // set by rebuild_model
            it: 0,
            receivers: (0..n).step_by(4).map(|j| 2 * n + j).collect(),
            last_trace: Vec::new(),
        };
        s.rebuild_model();
        s
    }

    /// Recompute the velocity field and a CFL-stable dt after steering.
    fn rebuild_model(&mut self) {
        let n = self.n;
        for i in 0..n {
            for j in 0..n {
                self.c[i * n + j] = if i >= n / 2 { self.layer_velocity } else { 1.0 };
            }
        }
        let cmax = self.c.iter().fold(0.0f64, |m, &x| m.max(x));
        let h = 1.0 / (n - 1) as f64;
        self.dt = 0.4 * h / cmax; // CFL 0.4 in 2-D
    }

    /// Ricker wavelet at time `t`.
    fn ricker(&self, t: f64) -> f64 {
        let t0 = 1.2 / self.source_freq;
        let arg = std::f64::consts::PI * self.source_freq * (t - t0);
        let a2 = arg * arg;
        (1.0 - 2.0 * a2) * (-a2).exp()
    }

    /// RMS of the latest receiver-row samples.
    pub fn trace_rms(&self) -> f64 {
        if self.last_trace.is_empty() {
            return 0.0;
        }
        (self.last_trace.iter().map(|x| x * x).sum::<f64>() / self.last_trace.len() as f64).sqrt()
    }

    /// Peak |u| over the whole field.
    pub fn max_amplitude(&self) -> f64 {
        self.u.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// Sum of squared field values (crude energy proxy).
    pub fn energy(&self) -> f64 {
        self.u.iter().map(|x| x * x).sum()
    }

    /// The latest receiver samples.
    pub fn trace(&self) -> &[f64] {
        &self.last_trace
    }
}

impl Kernel for Seismic {
    fn kind(&self) -> &'static str {
        "seismic"
    }

    fn advance(&mut self) {
        let n = self.n;
        let h = 1.0 / (n - 1) as f64;
        let dt = self.dt;
        let t = self.it as f64 * dt;
        let mut next = vec![0.0f64; n * n];
        {
            let u = &self.u;
            let up = &self.u_prev;
            let c = &self.c;
            let damping = self.damping;
            parkit::par_chunks_mut(&mut next[..], n, |offset, row| {
                let i = offset / n;
                if i == 0 || i == n - 1 {
                    return;
                }
                #[allow(clippy::needless_range_loop)] // stencil indexing
                for j in 1..n - 1 {
                    let k = i * n + j;
                    let lap = (u[k - n] + u[k + n] + u[k - 1] + u[k + 1] - 4.0 * u[k]) / (h * h);
                    let r = c[k] * dt / h;
                    let mut v = 2.0 * u[k] - up[k] + (r * r) * (h * h) * lap;
                    // Sponge: stronger damping near all four edges.
                    let border = i.min(n - 1 - i).min(j).min(n - 1 - j);
                    if border < 6 {
                        v *= 1.0 - damping * (6 - border) as f64;
                    }
                    row[j] = v;
                }
            });
        }
        // Inject the source.
        let src = 4 * n + n / 2;
        next[src] += self.ricker(t) * dt * dt * 400.0;

        self.u_prev = std::mem::take(&mut self.u);
        self.u = next;
        self.it += 1;
        self.last_trace = self.receivers.iter().map(|&k| self.u[k]).collect();
    }

    fn iteration(&self) -> u64 {
        self.it
    }

    fn progress(&self) -> f64 {
        // A "shot" is ~4 source periods of propagation across the model.
        let shot_steps = (4.0 / (self.source_freq * self.dt)).max(1.0);
        (self.it as f64 / shot_steps).min(1.0)
    }
}

/// Build the fully instrumented seismic application.
pub fn seismic_app(n: usize) -> SteerableApp<Seismic> {
    let net = ControlNetwork::new()
        .sensor("trace_rms", |k: &Seismic| Value::Float(k.trace_rms()))
        .sensor("max_amplitude", |k: &Seismic| Value::Float(k.max_amplitude()))
        .sensor("energy", |k: &Seismic| Value::Float(k.energy()))
        .sensor("trace", |k: &Seismic| Value::Vector(k.trace().to_vec()))
        .actuator(
            "source_freq",
            "float",
            |k: &Seismic| Value::Float(k.source_freq),
            |k, v| write_clamped_f64(v, 2.0, 60.0, k, |k, x| k.source_freq = x),
        )
        .actuator(
            "layer_velocity",
            "float",
            |k: &Seismic| Value::Float(k.layer_velocity),
            |k, v| {
                write_clamped_f64(v, 0.5, 4.0, k, |k, x| {
                    k.layer_velocity = x;
                    k.rebuild_model();
                })
            },
        )
        .actuator(
            "damping",
            "float",
            |k: &Seismic| Value::Float(k.damping),
            |k, v| write_clamped_f64(v, 0.0, 0.15, k, |k, x| k.damping = x),
        );
    SteerableApp::new(Seismic::new(n), net)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wave_radiates_from_source() {
        let mut k = Seismic::new(32);
        for _ in 0..40 {
            k.advance();
        }
        assert!(k.max_amplitude() > 0.0, "source should excite the field");
        assert!(k.u.iter().all(|x| x.is_finite()), "leapfrog must stay stable under CFL");
    }

    #[test]
    fn receivers_record_the_arrival() {
        let mut k = Seismic::new(32);
        for _ in 0..120 {
            k.advance();
        }
        assert!(k.trace_rms() > 0.0, "geophones should see the wave");
        assert_eq!(k.trace().len(), k.receivers.len());
    }

    #[test]
    fn sponge_damps_energy_after_shot() {
        // After the source stops exciting, stronger damping leaves less
        // energy in the field.
        let run = |damping: f64| {
            let mut k = Seismic::new(32);
            k.damping = damping;
            for _ in 0..400 {
                k.advance();
            }
            k.energy()
        };
        let weak = run(0.002);
        let strong = run(0.08);
        assert!(
            strong < weak,
            "stronger sponge should absorb more energy: strong={strong:.3e} weak={weak:.3e}"
        );
    }

    #[test]
    fn layer_velocity_steering_rebuilds_model_stably() {
        use wire::{AppOp, AppPhase};
        let mut app = seismic_app(32);
        for _ in 0..30 {
            app.step();
        }
        app.apply(
            &AppOp::SetParam("layer_velocity".into(), Value::Float(3.5)),
            AppPhase::Interacting,
        )
        .unwrap();
        for _ in 0..60 {
            app.step();
        }
        assert!(app.kernel().max_amplitude().is_finite(), "dt must re-satisfy CFL after steering");
        assert_eq!(app.kernel().layer_velocity, 3.5);
    }
}
