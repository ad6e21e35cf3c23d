//! Machine-speed calibration: a fixed reference kernel timed next to
//! every slice of measured work.
//!
//! The box this benchmark runs on is shared: its speed drifts between a
//! fast and a slow state about 30 % apart and stays in one for seconds at
//! a time, so ten runs of one program spread by 8–20 % however many
//! repetitions each takes a median over. The reference kernel below (event
//! heap, string-keyed counters, ordered-map lookups, small buffer copies,
//! formatting — the instruction mix of the simulated stack, in std only)
//! slows down and speeds up with the machine. A [`Pacer`] runs one burst
//! of it before and after every slice of work, so every repetition comes
//! with the burst time that prevailed while it ran.
//!
//! [`at_reference_speed`] then regresses the machine out: within one run
//! it fits how strongly the workload's time follows the burst time (a
//! workload that waits on memory slows down less than the reference, one
//! that is all small allocations slows down as much) and reports the
//! median time the repetitions would have taken at the workload's nominal
//! burst time. Raw times are reported beside the normalised ones. Nothing
//! under `crates/` can change the reference kernel, so it cannot hide a
//! regression.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

const HEAP_ENTRIES: u64 = 4096;
const TREE_ENTRIES: u64 = 2048;
const STEPS_PER_BURST: u64 = 3000;

struct Reference {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    counters: HashMap<String, u64>,
    keys: Vec<String>,
    tree: BTreeMap<u64, Vec<u8>>,
    x: u64,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Reference {
    fn new() -> Self {
        let mut x = 88_172_645_463_325_252;
        Reference {
            heap: (0..HEAP_ENTRIES)
                .map(|i| Reverse((xorshift(&mut x) % 1_000_000, i)))
                .collect(),
            counters: HashMap::new(),
            keys: (0..96)
                .map(|i| format!("server.http.requests.node{i}"))
                .collect(),
            tree: (0..TREE_ENTRIES)
                .map(|i| (i, vec![i as u8; 96 + (i % 160) as usize]))
                .collect(),
            x,
        }
    }

    fn burst(&mut self) -> u64 {
        let started = Instant::now();
        for step in 0..STEPS_PER_BURST {
            let Reverse((time, seq)) = self.heap.pop().expect("the heap never empties");
            let r = xorshift(&mut self.x);
            self.heap.push(Reverse((time + 1 + r % 5000, seq)));
            let key = &self.keys[(r >> 20) as usize % self.keys.len()];
            *self.counters.entry(key.clone()).or_insert(0) += 1;
            let payload = &self.tree[&((r >> 8) % TREE_ENTRIES)];
            let mut copy = Vec::with_capacity(payload.len() + 16);
            copy.extend_from_slice(payload);
            copy.extend_from_slice(format!("{step:016x}").as_bytes());
            black_box(&copy);
        }
        started.elapsed().as_nanos() as u64
    }
}

thread_local! {
    static REFERENCE: RefCell<Reference> = RefCell::new(Reference::new());
}

fn burst_ns() -> f64 {
    REFERENCE.with(|r| r.borrow_mut().burst()) as f64
}

/// A span of work: its wall time and the burst time around it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Timed {
    /// Wall seconds, as the clock read them.
    pub wall_s: f64,
    /// Sum over the span's slices of wall seconds times burst nanoseconds.
    burst_weight: f64,
}

impl Timed {
    /// Burst nanoseconds that prevailed during the span (time-weighted).
    pub fn burst_ns(&self) -> f64 {
        self.burst_weight / self.wall_s
    }
}

impl std::ops::AddAssign for Timed {
    fn add_assign(&mut self, rhs: Timed) {
        self.wall_s += rhs.wall_s;
        self.burst_weight += rhs.burst_weight;
    }
}

/// Times slices of work, with a reference burst between neighbours.
pub struct Pacer {
    last_burst_ns: f64,
}

impl Pacer {
    /// Start pacing: runs the first burst.
    pub fn start() -> Self {
        Pacer {
            last_burst_ns: burst_ns(),
        }
    }

    /// Run `work`, then a burst; the slice's burst time is the mean of
    /// the bursts on either side.
    pub fn time<R>(&mut self, work: impl FnOnce() -> R) -> (R, Timed) {
        let started = Instant::now();
        let out = work();
        let wall_s = started.elapsed().as_secs_f64();
        let burst = burst_ns();
        let around = (self.last_burst_ns + burst) / 2.0;
        self.last_burst_ns = burst;
        (
            out,
            Timed {
                wall_s,
                burst_weight: wall_s * around,
            },
        )
    }
}

/// How strongly a time may follow the burst time: 1 is proportional.
const SLOPE_RANGE: (f64, f64) = (0.4, 1.0);
/// Slope assumed when a run has too few repetitions to fit one.
const DEFAULT_SLOPE: f64 = 0.8;
/// Fewest samples a slope is fitted to.
const MIN_FIT_SAMPLES: usize = 8;

/// The median of `samples`' times at `nominal_burst_ns`, and the slope
/// used. Each sample is `(time, burst_ns)`; the slope of ln(time) on
/// ln(burst) is the median of all pairwise slopes (Theil–Sen, which a few
/// disturbed repetitions cannot move), kept inside [`SLOPE_RANGE`].
pub fn at_reference_speed(samples: &[(f64, f64)], nominal_burst_ns: f64) -> (f64, f64) {
    assert!(!samples.is_empty(), "no samples to normalise");
    let points: Vec<(f64, f64)> = samples
        .iter()
        .map(|&(time, burst)| ((burst / nominal_burst_ns).ln(), time.ln()))
        .collect();
    let mut slopes = Vec::new();
    for (i, a) in points.iter().enumerate() {
        for b in &points[i + 1..] {
            if (b.0 - a.0).abs() > 1e-3 {
                slopes.push((b.1 - a.1) / (b.0 - a.0));
            }
        }
    }
    let slope = if points.len() < MIN_FIT_SAMPLES || slopes.is_empty() {
        DEFAULT_SLOPE
    } else {
        median(&mut slopes).clamp(SLOPE_RANGE.0, SLOPE_RANGE.1)
    };
    let mut scaled: Vec<f64> = points.iter().map(|&(x, y)| y - slope * x).collect();
    (median(&mut scaled).exp(), slope)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regresses_the_machine_out() {
        // time = 2 s at the nominal burst, following the burst with slope 0.6.
        let nominal = 1_000_000.0;
        let samples: Vec<(f64, f64)> = (0..20)
            .map(|i| {
                let burst = nominal * (0.9 + 0.02 * i as f64);
                (2.0 * (burst / nominal).powf(0.6), burst)
            })
            .collect();
        let (time, slope) = at_reference_speed(&samples, nominal);
        assert!(
            (slope - 0.6).abs() < 1e-9 && (time - 2.0).abs() < 1e-9,
            "{time} {slope}"
        );
        // One wild repetition moves neither.
        let mut disturbed = samples.clone();
        disturbed[3].0 *= 5.0;
        let (time, slope) = at_reference_speed(&disturbed, nominal);
        assert!(
            (slope - 0.6).abs() < 0.05 && (time - 2.0).abs() < 0.05,
            "{time} {slope}"
        );
        // Too few samples: the default slope, still a median.
        let (_, slope) = at_reference_speed(&samples[..3], nominal);
        assert_eq!(slope, DEFAULT_SLOPE);
    }
}
