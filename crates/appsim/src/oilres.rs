//! Oil reservoir simulation — the paper's flagship application class
//! ("oil reservoir simulations" driven by IPARS at UT Austin's CSM).
//!
//! A toy-scale IMPES (IMplicit Pressure, Explicit Saturation) two-phase
//! waterflood on a 2-D grid: each iteration solves the pressure equation
//! `∇·(λ(S)∇p) = q` with damped Jacobi sweeps (parallelised row-wise with
//! `parkit`), then advances water saturation with an explicit upwind
//! fractional-flow update. An injector sits at one corner, a producer at
//! the opposite corner.
//!
//! Steerables: `injection_rate`, `oil_viscosity`, `dt`.
//! Sensors: water cut at the producer, recovery fraction, average
//! pressure, iteration count.

use crate::control::{write_clamped_f64, ControlNetwork, Kernel, SteerableApp};
use wire::Value;

/// Two-phase waterflood kernel state.
#[derive(Clone)]
pub struct OilReservoir {
    n: usize,
    /// Pressure field (n × n, row-major).
    p: Vec<f64>,
    /// Water saturation field in `[0, 1]`.
    s: Vec<f64>,
    /// Injection rate (pore volumes / unit time).
    pub injection_rate: f64,
    /// Oil viscosity relative to water (mobility ratio driver).
    pub oil_viscosity: f64,
    /// Time step.
    pub dt: f64,
    /// Jacobi sweeps per pressure solve.
    pressure_sweeps: usize,
    it: u64,
    produced_oil: f64,
    produced_water: f64,
    initial_oil: f64,
}

impl OilReservoir {
    /// Create an `n × n` reservoir initially full of oil (connate water
    /// saturation 0.1).
    pub fn new(n: usize) -> Self {
        assert!(n >= 8, "grid too small for wells");
        let s0 = 0.1;
        let initial_oil = (1.0 - s0) * (n * n) as f64;
        OilReservoir {
            n,
            p: vec![0.0; n * n],
            s: vec![s0; n * n],
            injection_rate: 1.0,
            oil_viscosity: 4.0,
            dt: 0.05,
            pressure_sweeps: 24,
            it: 0,
            produced_oil: 0.0,
            produced_water: 0.0,
            initial_oil,
        }
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        i * self.n + j
    }

    /// Water relative permeability (quadratic Corey).
    fn krw(s: f64) -> f64 {
        s * s
    }

    /// Oil relative permeability.
    fn kro(s: f64) -> f64 {
        (1.0 - s) * (1.0 - s)
    }

    /// Total mobility at saturation `s` (water viscosity = 1).
    fn mobility(&self, s: f64) -> f64 {
        Self::krw(s) + Self::kro(s) / self.oil_viscosity
    }

    /// Water fractional flow.
    fn frac_flow(&self, s: f64) -> f64 {
        let mw = Self::krw(s);
        mw / (mw + Self::kro(s) / self.oil_viscosity)
    }

    /// Fraction of original oil in place that has been produced.
    pub fn recovery(&self) -> f64 {
        (self.produced_oil / self.initial_oil).clamp(0.0, 1.0)
    }

    /// Producer water cut (fraction of produced stream that is water).
    pub fn water_cut(&self) -> f64 {
        self.frac_flow(self.s[self.idx(self.n - 1, self.n - 1)])
    }

    /// Mean reservoir pressure.
    pub fn avg_pressure(&self) -> f64 {
        self.p.iter().sum::<f64>() / self.p.len() as f64
    }

    /// Saturation field accessor (tests).
    pub fn saturation(&self) -> &[f64] {
        &self.s
    }

    fn pressure_solve(&mut self) {
        let n = self.n;
        let inj = self.idx(0, 0);
        let prod = self.idx(n - 1, n - 1);
        let q = self.injection_rate;
        // Mobility field is frozen during the solve (IMPES splitting).
        let lam: Vec<f64> = self.s.iter().map(|&s| self.mobility(s)).collect();
        let mut next = self.p.clone();
        for _ in 0..self.pressure_sweeps {
            {
                let p = &self.p;
                let lam = &lam;
                parkit::par_chunks_mut(&mut next[..], n, |offset, row| {
                    let i = offset / n;
                    #[allow(clippy::needless_range_loop)] // stencil indexing
                    for j in 0..n {
                        let c = i * n + j;
                        let mut num = 0.0;
                        let mut den = 0.0;
                        let mut face = |o: usize| {
                            let t = 0.5 * (lam[c] + lam[o]);
                            num += t * p[o];
                            den += t;
                        };
                        if i > 0 {
                            face(c - n);
                        }
                        if i + 1 < n {
                            face(c + n);
                        }
                        if j > 0 {
                            face(c - 1);
                        }
                        if j + 1 < n {
                            face(c + 1);
                        }
                        let src = if c == inj {
                            q
                        } else if c == prod {
                            -q
                        } else {
                            0.0
                        };
                        row[j] = if den > 0.0 { (num + src) / den } else { 0.0 };
                    }
                });
            }
            std::mem::swap(&mut self.p, &mut next);
        }
        // Pin the producer pressure to anchor the singular Neumann system.
        let prod = self.idx(n - 1, n - 1);
        let offsetp = self.p[prod];
        for v in &mut self.p {
            *v -= offsetp;
        }
    }

    fn saturation_update(&mut self) {
        let n = self.n;
        let inj = self.idx(0, 0);
        let prod = self.idx(n - 1, n - 1);
        let mut flux = vec![0.0f64; n * n];
        // Upwind two-point flux on each face, accumulated per cell.
        for i in 0..n {
            for j in 0..n {
                let c = self.idx(i, j);
                for (di, dj) in [(0usize, 1usize), (1, 0)] {
                    let (i2, j2) = (i + di, j + dj);
                    if i2 >= n || j2 >= n {
                        continue;
                    }
                    let o = self.idx(i2, j2);
                    let t = 0.5 * (self.mobility(self.s[c]) + self.mobility(self.s[o]));
                    let v = t * (self.p[c] - self.p[o]); // volumetric flux c -> o
                    let fw = if v >= 0.0 {
                        self.frac_flow(self.s[c])
                    } else {
                        self.frac_flow(self.s[o])
                    };
                    flux[c] -= v * fw;
                    flux[o] += v * fw;
                }
            }
        }
        // Wells: injector adds water; producer removes the mixed stream.
        flux[inj] += self.injection_rate;
        let cut = self.frac_flow(self.s[prod]);
        flux[prod] -= self.injection_rate * cut;
        self.produced_water += self.injection_rate * cut * self.dt;
        self.produced_oil += self.injection_rate * (1.0 - cut) * self.dt;

        for (s, f) in self.s.iter_mut().zip(flux.iter()) {
            *s = (*s + self.dt * f).clamp(0.0, 1.0);
        }
    }
}

impl Kernel for OilReservoir {
    fn kind(&self) -> &'static str {
        "oilres"
    }

    fn advance(&mut self) {
        self.pressure_solve();
        self.saturation_update();
        self.it += 1;
    }

    fn iteration(&self) -> u64 {
        self.it
    }

    fn progress(&self) -> f64 {
        self.recovery()
    }
}

/// Build the fully instrumented oil reservoir application.
pub fn oil_reservoir_app(n: usize) -> SteerableApp<OilReservoir> {
    let net = ControlNetwork::new()
        .sensor("water_cut", |k: &OilReservoir| Value::Float(k.water_cut()))
        .sensor("recovery", |k: &OilReservoir| Value::Float(k.recovery()))
        .sensor("avg_pressure", |k: &OilReservoir| Value::Float(k.avg_pressure()))
        .sensor("iteration", |k: &OilReservoir| Value::Int(k.iteration() as i64))
        .actuator(
            "injection_rate",
            "float",
            |k: &OilReservoir| Value::Float(k.injection_rate),
            |k, v| write_clamped_f64(v, 0.0, 10.0, k, |k, x| k.injection_rate = x),
        )
        .actuator(
            "oil_viscosity",
            "float",
            |k: &OilReservoir| Value::Float(k.oil_viscosity),
            |k, v| write_clamped_f64(v, 0.5, 50.0, k, |k, x| k.oil_viscosity = x),
        )
        .actuator(
            "dt",
            "float",
            |k: &OilReservoir| Value::Float(k.dt),
            |k, v| write_clamped_f64(v, 1e-4, 0.2, k, |k, x| k.dt = x),
        );
    SteerableApp::new(OilReservoir::new(n), net)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturation_stays_physical() {
        let mut k = OilReservoir::new(16);
        for _ in 0..50 {
            k.advance();
        }
        assert!(k.saturation().iter().all(|&s| (0.0..=1.0).contains(&s)));
        assert!(k.saturation().iter().all(|s| s.is_finite()));
    }

    #[test]
    fn recovery_is_monotone_and_progresses() {
        let mut k = OilReservoir::new(16);
        let mut last = 0.0;
        for _ in 0..100 {
            k.advance();
            let r = k.recovery();
            assert!(r >= last - 1e-12, "recovery decreased: {r} < {last}");
            last = r;
        }
        assert!(last > 0.0, "waterflood should produce oil");
        assert!(last < 1.0);
    }

    #[test]
    fn water_front_reaches_producer_eventually() {
        let mut k = OilReservoir::new(12);
        k.injection_rate = 3.0;
        let cut0 = k.water_cut();
        for _ in 0..400 {
            k.advance();
        }
        assert!(k.water_cut() > cut0, "water cut should rise as the front arrives");
    }

    #[test]
    fn higher_injection_recovers_faster() {
        let run = |rate: f64| {
            let mut k = OilReservoir::new(12);
            k.injection_rate = rate;
            for _ in 0..150 {
                k.advance();
            }
            k.recovery()
        };
        assert!(run(2.0) > run(0.5), "higher injection should recover more oil");
    }

    #[test]
    fn steering_interface_works() {
        use wire::{AppOp, AppPhase, OpOutcome};
        let mut app = oil_reservoir_app(12);
        let out = app
            .apply(
                &AppOp::SetParam("injection_rate".into(), Value::Float(5.0)),
                AppPhase::Interacting,
            )
            .unwrap();
        assert_eq!(out, OpOutcome::ParamSet("injection_rate".into(), Value::Float(5.0)));
        assert_eq!(app.kernel().injection_rate, 5.0);
        let spec = app.interface();
        assert_eq!(spec.params.len(), 3);
        assert_eq!(spec.sensors.len(), 4);
    }
}
