//! Cross-PR bench trend gate.
//!
//! ```text
//! bench_trend [--ids e12,e15,...] [--self-test]
//! ```
//!
//! Default mode, for CI: for every experiment with trend gates, read the
//! *committed* `BENCH_<ID>.json` baseline into memory, rerun the
//! experiment (which rewrites the file in place — regenerating baselines
//! is just "run the harness and commit"), and gate the fresh numbers
//! against the baseline with [`discover_bench::trend::compare`]. Any
//! gated metric that moved past tolerance — or a `VIOLATION` note in an
//! experiment's own acceptance checks — fails the build.
//!
//! `--self-test` proves the gate has teeth without running anything: it
//! parses each committed baseline, requires every gate pattern to match
//! at least one real metric, injects a synthetic regression per
//! experiment, and asserts the gate trips on it (and stays quiet on an
//! untouched copy).

use std::path::PathBuf;
use std::process::ExitCode;

use discover_bench::experiments;
use discover_bench::trend::{compare, parse_summary, Baseline, Direction, GATES};

fn repo_root() -> PathBuf {
    // crates/bench/ -> crates/ -> repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap().to_path_buf()
}

/// Experiment ids with at least one gate, in registry order.
fn gated_ids() -> Vec<&'static str> {
    experiments::all()
        .iter()
        .map(|&(id, _)| id)
        .filter(|id| GATES.iter().any(|g| g.experiment == *id))
        .collect()
}

fn read_baseline(id: &str) -> Result<Baseline, String> {
    let path = repo_root().join(format!("BENCH_{}.json", id.to_uppercase()));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_summary(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Gate one experiment: capture the committed baseline, rerun, compare.
fn gate_one(id: &str, run: fn() -> discover_bench::report::Table) -> Result<usize, Vec<String>> {
    let baseline = read_baseline(id).map_err(|e| {
        vec![format!("{e} — every gated experiment must have a committed baseline")]
    })?;
    println!("bench-trend: rerunning {id} against committed baseline (seed {})", baseline.seed);
    let table = run();
    let mut errors: Vec<String> = table
        .notes
        .iter()
        .filter(|n| n.contains("VIOLATION"))
        .map(|n| format!("{id} acceptance: {n}"))
        .collect();
    match read_baseline(id) {
        Ok(fresh) => {
            let report = compare(&baseline, &fresh);
            for v in &report.violations {
                errors.push(format!("{id} trend: {} {}", v.key, v.detail));
            }
            if errors.is_empty() {
                println!(
                    "bench-trend: {id} ok ({} gated metrics within tolerance)",
                    report.checked
                );
            }
            if errors.is_empty() {
                Ok(report.checked)
            } else {
                Err(errors)
            }
        }
        Err(e) => {
            errors.push(format!("{id}: fresh summary unreadable after rerun: {e}"));
            Err(errors)
        }
    }
}

/// Push a gated metric past its tolerance in the bad direction.
fn inject_regression(baseline: &Baseline) -> Option<(Baseline, String)> {
    let gate = GATES.iter().find(|g| g.experiment == baseline.experiment)?;
    let idx = baseline.metrics.iter().position(|(k, _)| match gate.pattern.strip_prefix('*') {
        Some(suffix) => k.ends_with(suffix),
        None => k == gate.pattern,
    })?;
    let mut worse = baseline.clone();
    let key = worse.metrics[idx].0.clone();
    let base = worse.metrics[idx].1;
    let slack = base.abs() * gate.rel_tol + gate.abs_tol;
    let bump = slack + base.abs().max(1.0);
    worse.metrics[idx].1 = match gate.direction {
        Direction::UpIsBad | Direction::Exact => base + bump,
        Direction::DownIsBad => base - bump,
    };
    Some((worse, key))
}

fn self_test() -> ExitCode {
    let mut failed = false;
    for id in gated_ids() {
        let baseline = match read_baseline(id) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("self-test FAILED: {e}");
                failed = true;
                continue;
            }
        };
        // An untouched copy must pass, and the gates must actually bind
        // to real keys — a pattern that matches nothing is a dead gate.
        let clean = compare(&baseline, &baseline.clone());
        if !clean.violations.is_empty() {
            eprintln!("self-test FAILED: {id} baseline disagrees with itself");
            failed = true;
            continue;
        }
        if clean.checked == 0 {
            eprintln!("self-test FAILED: no gate pattern matches any {id} metric");
            failed = true;
            continue;
        }
        // An injected regression must trip.
        let Some((worse, key)) = inject_regression(&baseline) else {
            eprintln!("self-test FAILED: cannot inject a regression into {id}");
            failed = true;
            continue;
        };
        let tripped = compare(&baseline, &worse);
        if tripped.violations.iter().any(|v| v.key == key) {
            println!(
                "self-test: {id} gates bind ({} metrics) and trip on injected \
                 regression of {key}",
                clean.checked
            );
        } else {
            eprintln!("self-test FAILED: injected regression of {id} {key} not detected");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("bench-trend self-test passed");
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let mut ids: Vec<String> = Vec::new();
    let mut self_test_mode = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--self-test" => self_test_mode = true,
            "--ids" => match args.next() {
                Some(v) => ids.extend(v.split(',').map(|s| s.trim().to_lowercase())),
                None => {
                    eprintln!("--ids requires a comma-separated list");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("usage: bench_trend [--ids e12,e15,...] [--self-test]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    if self_test_mode {
        return self_test();
    }
    let registry = experiments::all();
    let selected: Vec<&'static str> = if ids.is_empty() {
        gated_ids()
    } else {
        let mut out = Vec::new();
        for id in &ids {
            match registry.iter().find(|(rid, _)| rid == id) {
                Some(&(rid, _)) => out.push(rid),
                None => {
                    eprintln!("unknown experiment {id:?}");
                    return ExitCode::FAILURE;
                }
            }
        }
        out
    };
    let mut checked = 0usize;
    let mut errors: Vec<String> = Vec::new();
    for id in selected {
        let run = registry.iter().find(|(rid, _)| *rid == id).map(|&(_, f)| f).unwrap();
        match gate_one(id, run) {
            Ok(n) => checked += n,
            Err(mut e) => errors.append(&mut e),
        }
    }
    if errors.is_empty() {
        println!("bench-trend: all gates passed ({checked} gated metrics checked)");
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("bench-trend FAIL: {e}");
        }
        ExitCode::FAILURE
    }
}
