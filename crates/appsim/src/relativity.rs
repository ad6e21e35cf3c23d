//! Numerical relativity — the paper's fourth application class.
//!
//! Black-hole perturbation theory at toy scale: the Regge–Wheeler
//! equation for an axial perturbation `ψ(t, x)` of a Schwarzschild black
//! hole of mass `M`,
//!
//! ```text
//! ∂²ψ/∂t² = ∂²ψ/∂x² − V(r(x)) ψ,
//! V(r) = (1 − 2M/r) [ l(l+1)/r² − 6M/r³ ]
//! ```
//!
//! on the tortoise coordinate `x = r + 2M ln(r/2M − 1)` (inverted per grid
//! point by Newton iteration), evolved by leapfrog from a Gaussian pulse.
//! The signal at an observer station shows the characteristic quasinormal
//! ringdown whose frequency scales with `1/M` — which makes `M` a
//! satisfying steering knob.
//!
//! Steerables: `mass`, `multipole_l` (potential rebuild on change).
//! Sensors: ψ at the observer, peak |ψ|, field energy.

use crate::control::{write_clamped_f64, ControlNetwork, Kernel, SteerableApp};
use wire::Value;

/// Regge–Wheeler evolution kernel state.
#[derive(Clone)]
pub struct ReggeWheeler {
    n: usize,
    x_min: f64,
    dx: f64,
    /// Current field.
    psi: Vec<f64>,
    /// Previous field.
    psi_prev: Vec<f64>,
    /// Potential V(r(x)) per grid point.
    potential: Vec<f64>,
    /// Black hole mass.
    pub mass: f64,
    /// Multipole index l (>= 2 for axial perturbations).
    pub multipole_l: i64,
    dt: f64,
    it: u64,
    observer: usize,
}

impl ReggeWheeler {
    /// Create a grid of `n` points on tortoise x ∈ [-60, 140], with a
    /// Gaussian pulse centred at x = 20 and an observer at x = 80.
    pub fn new(n: usize) -> Self {
        assert!(n >= 64, "grid too small for ringdown");
        let x_min = -60.0;
        let x_max = 140.0;
        let dx = (x_max - x_min) / (n - 1) as f64;
        let mut k = ReggeWheeler {
            n,
            x_min,
            dx,
            psi: vec![0.0; n],
            psi_prev: vec![0.0; n],
            potential: vec![0.0; n],
            mass: 1.0,
            multipole_l: 2,
            dt: 0.5 * dx,
            it: 0,
            observer: ((80.0 - x_min) / dx) as usize,
        };
        k.rebuild_potential();
        // Initial data: ingoing Gaussian, ψ_prev = ψ (time-symmetric).
        for i in 0..n {
            let x = x_min + i as f64 * dx;
            let g = (-(x - 20.0) * (x - 20.0) / 18.0).exp();
            k.psi[i] = g;
            k.psi_prev[i] = g;
        }
        k
    }

    /// Invert the tortoise coordinate: find r with
    /// `x = r + 2M ln(r/2M − 1)`.
    ///
    /// With `w = r/2M − 1` the relation reads `w = exp(x/2M − 1 − w)`.
    /// Near the horizon (small `w`) that fixed-point iteration converges
    /// rapidly and stays accurate where Newton on `r` would stall against
    /// the horizon; in the far field plain Newton from `r ≈ x` converges
    /// quadratically.
    fn r_of_x(&self, x: f64) -> f64 {
        let m2 = 2.0 * self.mass;
        if x < m2 {
            // Near-horizon branch: fixed point on w.
            let e = x / m2 - 1.0;
            let mut w = e.exp();
            for _ in 0..80 {
                let next = (e - w).exp();
                if (next - w).abs() <= 1e-16 * (1.0 + w) {
                    w = next;
                    break;
                }
                w = next;
            }
            m2 * (1.0 + w)
        } else {
            // Far-field branch: Newton on r.
            let mut r = x.max(m2 * 1.5);
            for _ in 0..60 {
                let f = r + m2 * (r / m2 - 1.0).ln() - x;
                let fp = 1.0 + m2 / (r - m2);
                let step = f / fp;
                r -= step;
                if r <= m2 {
                    r = m2 * (1.0 + 1e-12);
                }
                if step.abs() < 1e-12 {
                    break;
                }
            }
            r
        }
    }

    /// Recompute the Regge–Wheeler potential (after steering M or l).
    fn rebuild_potential(&mut self) {
        let l = self.multipole_l as f64;
        let m = self.mass;
        let xs: Vec<f64> = (0..self.n).map(|i| self.x_min + i as f64 * self.dx).collect();
        self.potential = parkit::par_map(&xs, |&x| {
            let r = self.r_of_x(x);
            (1.0 - 2.0 * m / r) * (l * (l + 1.0) / (r * r) - 6.0 * m / (r * r * r))
        });
    }

    /// ψ at the observer station.
    pub fn observer_signal(&self) -> f64 {
        self.psi[self.observer]
    }

    /// Peak |ψ| over the grid.
    pub fn max_abs(&self) -> f64 {
        self.psi.iter().fold(0.0f64, |a, &b| a.max(b.abs()))
    }

    /// Crude energy: Σ (ψ_t² + ψ_x²).
    pub fn energy(&self) -> f64 {
        let mut e = 0.0;
        for i in 1..self.n - 1 {
            let pt = (self.psi[i] - self.psi_prev[i]) / self.dt;
            let px = (self.psi[i + 1] - self.psi[i - 1]) / (2.0 * self.dx);
            e += pt * pt + px * px;
        }
        e * self.dx
    }

    /// The potential (tests).
    pub fn potential(&self) -> &[f64] {
        &self.potential
    }
}

impl Kernel for ReggeWheeler {
    fn kind(&self) -> &'static str {
        "relativity"
    }

    fn advance(&mut self) {
        let n = self.n;
        let r2 = (self.dt / self.dx) * (self.dt / self.dx);
        let dt2 = self.dt * self.dt;
        let mut next = vec![0.0f64; n];
        {
            let psi = &self.psi;
            let prev = &self.psi_prev;
            let pot = &self.potential;
            parkit::par_chunks_mut(&mut next[..], 256, |offset, chunk| {
                for (k, v) in chunk.iter_mut().enumerate() {
                    let i = offset + k;
                    if i == 0 || i == n - 1 {
                        *v = 0.0; // outgoing-ish: kill at far boundaries
                        continue;
                    }
                    *v = 2.0 * psi[i] - prev[i] + r2 * (psi[i + 1] - 2.0 * psi[i] + psi[i - 1])
                        - dt2 * pot[i] * psi[i];
                }
            });
        }
        self.psi_prev = std::mem::take(&mut self.psi);
        self.psi = next;
        self.it += 1;
    }

    fn iteration(&self) -> u64 {
        self.it
    }

    fn progress(&self) -> f64 {
        // One "evolution" = time for the pulse to cross the grid twice.
        let total = 2.0 * (self.n as f64 * self.dx) / self.dt;
        (self.it as f64 / total).min(1.0)
    }
}

/// Build the fully instrumented relativity application.
pub fn relativity_app(n: usize) -> SteerableApp<ReggeWheeler> {
    let net = ControlNetwork::new()
        .sensor("observer_signal", |k: &ReggeWheeler| Value::Float(k.observer_signal()))
        .sensor("max_abs", |k: &ReggeWheeler| Value::Float(k.max_abs()))
        .sensor("energy", |k: &ReggeWheeler| Value::Float(k.energy()))
        .actuator(
            "mass",
            "float",
            |k: &ReggeWheeler| Value::Float(k.mass),
            |k, v| {
                write_clamped_f64(v, 0.25, 8.0, k, |k, x| {
                    k.mass = x;
                    k.rebuild_potential();
                })
            },
        )
        .actuator(
            "multipole_l",
            "int",
            |k: &ReggeWheeler| Value::Int(k.multipole_l),
            |k, v| {
                let l = v.as_i64().ok_or_else(|| "expected an int".to_string())?;
                if !(2..=8).contains(&l) {
                    return Err(format!("l must be in [2, 8], got {l}"));
                }
                k.multipole_l = l;
                k.rebuild_potential();
                Ok(Value::Int(l))
            },
        );
    SteerableApp::new(ReggeWheeler::new(n), net)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tortoise_inversion_is_consistent() {
        let k = ReggeWheeler::new(128);
        for &x in &[-40.0, -5.0, 0.0, 10.0, 100.0] {
            let r = k.r_of_x(x);
            let back = r + 2.0 * k.mass * (r / (2.0 * k.mass) - 1.0).ln();
            assert!((back - x).abs() < 1e-6, "x={x}: r={r}, back={back}");
            assert!(r > 2.0 * k.mass, "r must stay outside the horizon");
        }
    }

    #[test]
    fn potential_has_a_positive_barrier_and_decays() {
        let k = ReggeWheeler::new(256);
        let peak = k.potential().iter().cloned().fold(f64::MIN, f64::max);
        assert!(peak > 0.0, "potential barrier must exist");
        // Far field: potential tends to zero on both ends.
        assert!(k.potential()[0].abs() < 0.05);
        assert!(k.potential()[k.n - 1].abs() < 0.05);
    }

    #[test]
    fn pulse_reaches_observer_then_rings_down() {
        let mut k = ReggeWheeler::new(256);
        let mut peak = 0.0f64;
        let mut peak_it = 0;
        let steps = 1200;
        for i in 0..steps {
            k.advance();
            let s = k.observer_signal().abs();
            if s > peak {
                peak = s;
                peak_it = i;
            }
        }
        assert!(peak > 1e-3, "signal should arrive at the observer");
        assert!(peak_it < steps - 100, "peak should not be at the very end");
        assert!(
            k.observer_signal().abs() < peak * 0.8,
            "signal should decay after the main burst (ringdown)"
        );
        assert!(k.psi.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn steering_mass_changes_the_potential() {
        use wire::{AppOp, AppPhase};
        let mut app = relativity_app(128);
        let v1 = app.kernel().potential().to_vec();
        app.apply(&AppOp::SetParam("mass".into(), Value::Float(2.0)), AppPhase::Interacting)
            .unwrap();
        let v2 = app.kernel().potential().to_vec();
        assert_ne!(v1, v2, "mass steering must rebuild the potential");
    }

    #[test]
    fn multipole_validation() {
        use wire::{AppOp, AppPhase, ErrorCode};
        let mut app = relativity_app(128);
        let err = app
            .apply(&AppOp::SetParam("multipole_l".into(), Value::Int(1)), AppPhase::Interacting)
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::BadParameter);
        app.apply(&AppOp::SetParam("multipole_l".into(), Value::Int(3)), AppPhase::Interacting)
            .unwrap();
        assert_eq!(app.kernel().multipole_l, 3);
    }
}
