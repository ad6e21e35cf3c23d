//! Computational fluid dynamics — the paper's second application class.
//!
//! Lid-driven cavity flow in vorticity–streamfunction form: each
//! iteration relaxes the streamfunction Poisson equation `∇²ψ = -ω`
//! (row-parallel Jacobi via `parkit`), applies Thom's wall formula for
//! boundary vorticity, and advances interior vorticity with an explicit
//! upwind advection + central diffusion step at Reynolds number `Re`.
//!
//! Steerables: `reynolds`, `lid_velocity`.
//! Sensors: kinetic energy, peak vorticity magnitude, streamfunction
//! minimum (primary-vortex strength), residual.

use crate::control::{write_clamped_f64, ControlNetwork, Kernel, SteerableApp};
use wire::Value;

/// Lid-driven cavity kernel state.
#[derive(Clone)]
pub struct Cavity {
    n: usize,
    /// Vorticity field (n × n).
    w: Vec<f64>,
    /// Streamfunction field (n × n).
    psi: Vec<f64>,
    /// Reynolds number.
    pub reynolds: f64,
    /// Lid (top wall) velocity.
    pub lid_velocity: f64,
    dt: f64,
    psi_sweeps: usize,
    it: u64,
    last_residual: f64,
}

impl Cavity {
    /// Create an `n × n` cavity at rest.
    pub fn new(n: usize) -> Self {
        assert!(n >= 8, "grid too small");
        Cavity {
            n,
            w: vec![0.0; n * n],
            psi: vec![0.0; n * n],
            reynolds: 100.0,
            lid_velocity: 1.0,
            dt: 0.2 / (n * n) as f64 * 4.0,
            psi_sweeps: 20,
            it: 0,
            last_residual: f64::INFINITY,
        }
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> usize {
        i * self.n + j
    }

    /// Total kinetic energy (from streamfunction gradients).
    pub fn kinetic_energy(&self) -> f64 {
        let n = self.n;
        let h = 1.0 / (n - 1) as f64;
        let mut e = 0.0;
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                let u = (self.psi[self.at(i + 1, j)] - self.psi[self.at(i - 1, j)]) / (2.0 * h);
                let v = -(self.psi[self.at(i, j + 1)] - self.psi[self.at(i, j - 1)]) / (2.0 * h);
                e += 0.5 * (u * u + v * v) * h * h;
            }
        }
        e
    }

    /// Peak |vorticity|.
    pub fn max_vorticity(&self) -> f64 {
        self.w.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// Minimum streamfunction (primary vortex strength, negative).
    pub fn psi_min(&self) -> f64 {
        self.psi.iter().fold(f64::INFINITY, |m, &x| m.min(x))
    }

    /// Last vorticity-update residual (L2 of change).
    pub fn residual(&self) -> f64 {
        self.last_residual
    }

    fn relax_psi(&mut self) {
        let n = self.n;
        let h2 = (1.0 / (n - 1) as f64).powi(2);
        let mut next = self.psi.clone();
        for _ in 0..self.psi_sweeps {
            {
                let psi = &self.psi;
                let w = &self.w;
                parkit::par_chunks_mut(&mut next[..], n, |offset, row| {
                    let i = offset / n;
                    if i == 0 || i == n - 1 {
                        return; // walls: psi = 0
                    }
                    #[allow(clippy::needless_range_loop)] // stencil indexing
                    for j in 1..n - 1 {
                        let c = i * n + j;
                        row[j] =
                            0.25 * (psi[c - n] + psi[c + n] + psi[c - 1] + psi[c + 1] + h2 * w[c]);
                    }
                });
            }
            std::mem::swap(&mut self.psi, &mut next);
        }
    }

    fn wall_vorticity(&mut self) {
        let n = self.n;
        let h = 1.0 / (n - 1) as f64;
        // Thom's formula on all four walls; the moving lid is row 0.
        for j in 0..n {
            let top = self.at(0, j);
            let below = self.at(1, j);
            self.w[top] = -2.0 * self.psi[below] / (h * h) - 2.0 * self.lid_velocity / h;
            let bot = self.at(n - 1, j);
            let above = self.at(n - 2, j);
            self.w[bot] = -2.0 * self.psi[above] / (h * h);
        }
        for i in 1..n - 1 {
            let left = self.at(i, 0);
            self.w[left] = -2.0 * self.psi[self.at(i, 1)] / (h * h);
            let right = self.at(i, n - 1);
            self.w[right] = -2.0 * self.psi[self.at(i, n - 2)] / (h * h);
        }
    }

    fn advance_vorticity(&mut self) {
        let n = self.n;
        let h = 1.0 / (n - 1) as f64;
        let nu = 1.0 / self.reynolds;
        let dt = self.dt;
        let mut next = self.w.clone();
        let mut residual = 0.0;
        {
            let w = &self.w;
            let psi = &self.psi;
            for i in 1..n - 1 {
                for j in 1..n - 1 {
                    let c = self.at(i, j);
                    let u = (psi[c + n] - psi[c - n]) / (2.0 * h);
                    let v = -(psi[c + 1] - psi[c - 1]) / (2.0 * h);
                    // First-order upwind advection.
                    let dwdx = if v >= 0.0 { (w[c] - w[c - 1]) / h } else { (w[c + 1] - w[c]) / h };
                    let dwdy = if u >= 0.0 { (w[c] - w[c - n]) / h } else { (w[c + n] - w[c]) / h };
                    let lap = (w[c - n] + w[c + n] + w[c - 1] + w[c + 1] - 4.0 * w[c]) / (h * h);
                    let dw = dt * (-v * dwdx - u * dwdy + nu * lap);
                    next[c] = w[c] + dw;
                    residual += dw * dw;
                }
            }
        }
        self.last_residual = residual.sqrt();
        self.w = next;
    }
}

impl Kernel for Cavity {
    fn kind(&self) -> &'static str {
        "cfd"
    }

    fn advance(&mut self) {
        self.relax_psi();
        self.wall_vorticity();
        self.advance_vorticity();
        self.it += 1;
    }

    fn iteration(&self) -> u64 {
        self.it
    }

    fn progress(&self) -> f64 {
        // Approach to steady state: residual below threshold counts as done.
        if self.last_residual.is_finite() {
            (1.0 / (1.0 + self.last_residual)).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }
}

/// Build the fully instrumented cavity-flow application.
pub fn cfd_app(n: usize) -> SteerableApp<Cavity> {
    let net = ControlNetwork::new()
        .sensor("kinetic_energy", |k: &Cavity| Value::Float(k.kinetic_energy()))
        .sensor("max_vorticity", |k: &Cavity| Value::Float(k.max_vorticity()))
        .sensor("psi_min", |k: &Cavity| Value::Float(k.psi_min()))
        .sensor("residual", |k: &Cavity| {
            Value::Float(if k.residual().is_finite() { k.residual() } else { -1.0 })
        })
        .actuator(
            "reynolds",
            "float",
            |k: &Cavity| Value::Float(k.reynolds),
            |k, v| write_clamped_f64(v, 10.0, 5000.0, k, |k, x| k.reynolds = x),
        )
        .actuator(
            "lid_velocity",
            "float",
            |k: &Cavity| Value::Float(k.lid_velocity),
            |k, v| write_clamped_f64(v, 0.0, 5.0, k, |k, x| k.lid_velocity = x),
        );
    SteerableApp::new(Cavity::new(n), net)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_spins_up_from_rest() {
        let mut k = Cavity::new(16);
        assert_eq!(k.kinetic_energy(), 0.0);
        for _ in 0..50 {
            k.advance();
        }
        assert!(k.kinetic_energy() > 0.0, "lid should drive the flow");
        assert!(k.psi_min() < 0.0, "primary vortex should form (psi < 0)");
    }

    #[test]
    fn fields_stay_finite() {
        let mut k = Cavity::new(16);
        for _ in 0..200 {
            k.advance();
        }
        assert!(k.w.iter().all(|x| x.is_finite()));
        assert!(k.psi.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn stationary_lid_means_no_flow() {
        let mut k = Cavity::new(16);
        k.lid_velocity = 0.0;
        for _ in 0..50 {
            k.advance();
        }
        assert!(k.kinetic_energy() < 1e-20);
    }

    #[test]
    fn faster_lid_stronger_vortex() {
        let run = |u: f64| {
            let mut k = Cavity::new(16);
            k.lid_velocity = u;
            for _ in 0..100 {
                k.advance();
            }
            -k.psi_min()
        };
        assert!(run(2.0) > run(0.5));
    }
}
