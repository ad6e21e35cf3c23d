//! One benchmark run: repetitions of one workload for a wall budget,
//! folded into the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`).
//!
//! Repetition `i` of a run uses sub-seed `seed + i`, so a traced and an
//! untraced run of the same seed execute the same repetitions. Rates and
//! set-up times are medians over repetitions of machine-speed-normalised
//! time (see `calibration`), which neither a burst of interference nor a
//! slow spell of the shared box moves much.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::calibration::at_reference_speed;
use crate::json::Value;
use crate::kernels;
use crate::rep::Rep;
use crate::sim;
use crate::spans::{self, Layer, Report};
use crate::spec::{self, Workload, END_TO_END};
use crate::stats::{median, peak_rss_mb, quantile_sorted, quartiles, schedstat};
use crate::wire_ingress;

/// Fewest repetitions a run reports medians over.
const MIN_REPS: usize = 3;
/// Repetitions the allocation metrics are taken over (all, if fewer ran).
const ALLOC_REPS: usize = 8;
/// Share of `--seconds` a traced run spends in traced windows; about as
/// much again goes to the untraced twin and the rest to the kernels.
const TRACED_SHARE: f64 = 0.3;
/// Wall budget of one kernel.
const KERNEL_BUDGET: Duration = Duration::from_millis(120);
/// A run gives up (and fails) rather than pass the driver's 180 s limit.
const RUN_LIMIT: Duration = Duration::from_secs(150);

/// What the driver asks for.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Inputs derive from this and nothing else.
    pub seed: u64,
    /// Wall seconds of measured window to collect.
    pub seconds: f64,
    /// Per-layer metrics from a traced run instead of end-to-end ones.
    pub trace: bool,
}

fn one_rep<const TRACED: bool>(workload: Workload, seed: u64) -> Result<Rep, String> {
    match workload {
        Workload::WireIngress => wire_ingress::run_rep::<TRACED>(seed),
        simulated => sim::run_rep::<TRACED>(simulated, seed),
    }
}

/// Repeat until `budget_s` of measured window is collected (and at least
/// [`MIN_REPS`] repetitions), or exactly `count` times when given.
fn repeat<const TRACED: bool>(
    args: Args,
    budget_s: f64,
    count: Option<usize>,
    started: Instant,
) -> Result<Vec<Rep>, String> {
    let mut reps: Vec<Rep> = Vec::new();
    let mut measured = 0.0;
    loop {
        let done = match count {
            Some(n) => reps.len() >= n,
            None => measured >= budget_s && reps.len() >= MIN_REPS,
        };
        if done {
            return Ok(reps);
        }
        if started.elapsed() > RUN_LIMIT {
            return Err(format!(
                "run exceeded {RUN_LIMIT:?} after {} repetitions",
                reps.len()
            ));
        }
        let rep = one_rep::<TRACED>(args.workload, args.seed + reps.len() as u64)?;
        measured += rep.window.wall_s;
        reps.push(rep);
    }
}

/// The result of one run, ready to print.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted over all repetitions.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `(name, value, unit)` in contract order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// The driver's result line.
    pub fn to_json(&self) -> Value {
        let metric = |(name, value, unit): &(String, f64, &str)| {
            let body = Value::obj([
                ("value", Value::Num(*value)),
                ("unit", Value::Str(unit.to_string())),
            ]);
            (name.clone(), body)
        };
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(self.metrics.iter().map(metric))),
        ])
    }

    fn of(workload: Workload, reps: &[Rep], metrics: Vec<(String, f64, &'static str)>) -> Outcome {
        Outcome {
            correct: true,
            attempted: reps.iter().map(|r| r.attempted(workload)).sum(),
            failed: reps.iter().map(|r| r.failed).sum(),
            metrics,
        }
    }
}

fn describe(label: &str, unit: &str, mut values: Vec<f64>) -> String {
    let mid = median(&mut values);
    if values.len() < 2 {
        return format!("{label}: {mid:.6} {unit} (1 repetition)");
    }
    let (q1, q3) = quartiles(&mut values);
    format!(
        "{label}: median {mid:.6} {unit}, quartiles {q1:.6}..{q3:.6} over {} repetitions",
        values.len()
    )
}

fn end_to_end(args: Args, started: Instant) -> Result<Outcome, String> {
    let workload = args.workload;
    if workload == Workload::WireIngress {
        wire_ingress::differential_check(args.seed)?;
    }
    let reps = repeat::<false>(args, args.seconds, None, started)?;
    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let sum = |f: &dyn Fn(&Rep) -> u64| reps.iter().map(f).sum::<u64>();
    let (work, wall) = (
        sum(&|r| r.work(workload)),
        reps.iter().map(|r| r.window.wall_s).sum::<f64>(),
    );

    let nominal = workload.nominal_burst_ns();
    let per_work: Vec<(f64, f64)> = reps
        .iter()
        .map(|r| {
            (
                r.window.wall_s / r.work(workload) as f64,
                r.window.burst_ns(),
            )
        })
        .collect();
    let setups: Vec<(f64, f64)> = reps
        .iter()
        .map(|r| (r.setup.wall_s, r.setup.burst_ns()))
        .collect();
    let (s_per_work, work_slope) = at_reference_speed(&per_work, nominal);
    let (setup_s, setup_slope) = at_reference_speed(&setups, nominal);
    // Allocation counts repeat exactly for a sub-seed, so a fixed prefix
    // of repetitions gives the same figure however many the clock allowed.
    let head = &reps[..reps.len().min(ALLOC_REPS)];
    let head_work = head.iter().map(|r| r.work(workload)).sum::<u64>() as f64;
    let allocs = head.iter().map(|r| r.alloc.allocs).sum::<u64>() as f64 / head_work;
    let bytes = head.iter().map(|r| r.alloc.bytes).sum::<u64>() as f64 / head_work;

    eprintln!(
        "{}: {work} x {} in {wall:.3} s of measured window over {} repetitions: {:.1} /s overall",
        workload.name(),
        workload.work_unit(),
        reps.len(),
        work as f64 / wall
    );
    eprintln!(
        "  work_per_s: {:.3} 1/s at a reference burst of {:.0} us (time follows burst with slope {work_slope:.2})",
        1.0 / s_per_work,
        nominal / 1e3
    );
    eprintln!("  setup_s: {setup_s:.6} s at the same burst (slope {setup_slope:.2})");
    let raw_rate = per_rep(&|r| r.work(workload) as f64 / r.window.wall_s);
    eprintln!(
        "  {}",
        describe("raw work per wall second", "1/s", raw_rate)
    );
    eprintln!(
        "  {}",
        describe("raw set-up wall", "s", per_rep(&|r| r.setup.wall_s))
    );
    eprintln!(
        "  {}",
        describe(
            "reference burst",
            "us",
            per_rep(&|r| r.window.burst_ns() / 1e3)
        )
    );
    eprintln!(
        "  allocs_per_work: {allocs:.6}, alloc_bytes_per_work: {bytes:.3} B over the first {} repetitions",
        head.len()
    );
    let (ops, deliveries, events) = (
        sum(&|r| r.completed),
        sum(&|r| r.deliveries),
        sum(&|r| r.events),
    );
    eprintln!(
        "  ops {ops} ({:.1} /s), deliveries {deliveries} ({:.1} /s), engine events {events} ({:.0} /s)",
        ops as f64 / wall,
        deliveries as f64 / wall,
        events as f64 / wall
    );

    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let values = [1.0 / s_per_work, setup_s, allocs, bytes, rss];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name.to_string(), v, m.unit))
        .collect();
    Ok(Outcome::of(workload, &reps, metrics))
}

/// Where trace dumps go: the build directory, which `.gitignore` covers.
fn dump_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("benchmark/target"), PathBuf::from)
}

fn dump_spans(workload: Workload, report: &Report) -> Result<PathBuf, String> {
    let lines: Vec<String> = report
        .raw
        .iter()
        .map(|s| {
            Value::obj([
                ("id", Value::Num(s.id as f64)),
                ("parent", Value::Num(s.parent as f64)),
                ("name", Value::Str(s.layer.name().to_string())),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                ("unit", Value::Num(s.unit as f64)),
            ])
            .to_string()
        })
        .collect();
    let dir = dump_dir();
    let path = dir.join(format!("wallbench-spans-{}.json", workload.name()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    std::fs::write(&path, format!("[\n{}\n]\n", lines.join(",\n")))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Named values of a traced run; anything never set reads 0.
#[derive(Default)]
struct Values(Vec<(String, f64)>);

impl Values {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Self time, calls and cost per call of every layer, from the spans.
fn layer_values(values: &mut Values, report: &Report, events: u64) {
    let engine = report.layer(Layer::Engine);
    values.set("simnet.engine.self_s", engine.self_ns as f64 / 1e9);
    values.set("simnet.engine.events", events as f64);
    values.set(
        "simnet.engine.ns_per_event",
        share(engine.self_ns as f64, events as f64),
    );
    values.set(
        "simnet.engine.dispatch_share",
        share(report.handler_calls as f64, events as f64),
    );
    for layer in Layer::ALL {
        let total = report.layer(layer);
        let name = layer.name();
        let ns_per_call = share(total.self_ns as f64, total.calls as f64);
        if spec::SPAN_LAYERS.contains(&layer) {
            values.set(format!("{name}.calls"), total.calls as f64);
            values.set(format!("{name}.ns_per_call"), ns_per_call);
        }
        if layer != Layer::Engine {
            values.set(format!("{name}.self_s"), total.self_ns as f64 / 1e9);
        }
        if total.calls > 0 {
            eprintln!(
                "  {name:<34} self {:>9.4} s ({:>5.1} %)  calls {:>9}  {ns_per_call:>9.1} ns/call",
                total.self_ns as f64 / 1e9,
                100.0 * share(total.self_ns as f64, report.root_ns as f64),
                total.calls,
            );
        }
    }
}

fn kernel_values(values: &mut Values, seed: u64) {
    let results = kernels::run_all(seed, KERNEL_BUDGET);
    let spin = results[0].ns_per_op;
    for k in &results {
        values.set(format!("{}.ns_per_op", k.name), k.ns_per_op);
        values.set(format!("{}.allocs_per_op", k.name), k.allocs_per_op);
        eprintln!(
            "  kernel {:<38} {:>10.1} ns/op  {:>7.3} x spin  {:>6.2} allocs/op  ({} ops)",
            k.name,
            k.ns_per_op,
            k.ns_per_op / spin,
            k.allocs_per_op,
            k.ops
        );
    }
}

/// Counts at the layer boundaries and the wire latencies, from the
/// untraced repetitions.
fn count_values(values: &mut Values, workload: Workload, plain: &[Rep]) {
    let sum = |f: fn(&Rep) -> u64| plain.iter().map(f).sum::<u64>() as f64;
    let (enqueued, coalesced) = (sum(|r| r.fifo_enqueued), sum(|r| r.fifo_coalesced));
    let (hits, misses) = (sum(|r| r.cache_hits), sum(|r| r.cache_misses));
    values.set("webserv.fifo.enqueued", enqueued);
    values.set("webserv.fifo.coalesced", coalesced);
    values.set("webserv.fifo.dropped", sum(|r| r.fifo_dropped));
    values.set("webserv.fifo.coalesce_share", share(coalesced, enqueued));
    values.set("discover-core.cache.hit_share", share(hits, hits + misses));
    values.set("discover-core.substrate.remote_ops", sum(|r| r.remote_ops));
    let busiest = plain
        .iter()
        .flat_map(|r| r.utilization.iter().copied())
        .fold(0.0, f64::max);
    values.set("simnet.node.utilization_max", busiest);
    let mut raw_rate: Vec<f64> = plain
        .iter()
        .map(|r| r.work(workload) as f64 / r.window.wall_s)
        .collect();
    values.set("raw.work_per_wall_s", median(&mut raw_rate));
    let mut latencies: Vec<u32> = plain
        .iter()
        .flat_map(|r| r.latencies_ns.iter().copied())
        .collect();
    latencies.sort_unstable();
    if !latencies.is_empty() {
        values.set(
            "wire.request.p50_us",
            quantile_sorted(&latencies, 0.5) as f64 / 1e3,
        );
        values.set(
            "wire.request.p99_us",
            quantile_sorted(&latencies, 0.99) as f64 / 1e3,
        );
        values.set("wire.request.samples", latencies.len() as f64);
    }
}

fn per_layer(args: Args, started: Instant) -> Result<Outcome, String> {
    let workload = args.workload;
    let sched0 = schedstat();
    spans::reset();
    let traced = repeat::<true>(args, args.seconds * TRACED_SHARE, None, started)?;
    let report = spans::take();
    let plain = repeat::<false>(args, 0.0, Some(traced.len()), started)?;
    for (i, (t, p)) in traced.iter().zip(&plain).enumerate() {
        if t.fingerprint() != p.fingerprint() {
            return Err(format!(
                "repetition {i}: traced run (events, ops, deliveries, failed) = {:?} but untraced = {:?}",
                t.fingerprint(),
                p.fingerprint()
            ));
        }
    }
    let traced_wall: f64 = traced.iter().map(|r| r.window.wall_s).sum();
    let plain_wall: f64 = plain.iter().map(|r| r.window.wall_s).sum();
    let self_sum = report.self_ns_sum() as f64 / 1e9;
    if (self_sum - traced_wall).abs() > 0.02 * traced_wall {
        return Err(format!(
            "layer self times sum to {self_sum:.4} s but the traced windows took {traced_wall:.4} s"
        ));
    }
    let path = dump_spans(workload, &report)?;
    eprintln!(
        "{}: {} traced repetitions, {traced_wall:.3} s traced vs {plain_wall:.3} s untraced; first {} spans -> {}",
        workload.name(),
        traced.len(),
        report.raw.len(),
        path.display()
    );

    let mut values = Values::default();
    layer_values(&mut values, &report, traced.iter().map(|r| r.events).sum());
    values.set("trace.wall_s", traced_wall);
    values.set("trace.overhead_share", traced_wall / plain_wall - 1.0);
    kernel_values(&mut values, args.seed);
    count_values(&mut values, workload, &plain);
    if let (Some((run0, wait0)), Some((run1, wait1))) = (sched0, schedstat()) {
        let (run, wait) = ((run1 - run0) as f64, (wait1 - wait0) as f64);
        values.set("process.runqueue_wait_share", share(wait, run + wait));
    }
    let metrics = spec::per_layer()
        .into_iter()
        .map(|m| (m.name.clone(), values.get(&m.name), m.unit))
        .collect();
    Ok(Outcome::of(workload, &plain, metrics))
}

/// Run one workload as the driver asks and return what to print. A
/// failed check comes back as an incorrect outcome with every metric 0,
/// not as a panic.
pub fn run(args: Args) -> Outcome {
    let started = Instant::now();
    let result = if args.trace {
        per_layer(args, started)
    } else {
        end_to_end(args, started)
    };
    result.unwrap_or_else(|why| {
        eprintln!("{}: FAILED: {why}", args.workload.name());
        let metrics = if args.trace {
            spec::per_layer()
                .into_iter()
                .map(|m| (m.name, 0.0, m.unit))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| (m.name.to_string(), 0.0, m.unit))
                .collect()
        };
        Outcome {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics,
        }
    })
}
