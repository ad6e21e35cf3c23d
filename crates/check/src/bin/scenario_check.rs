//! Scenario-check CLI: fuzz the DISCOVER stack with seeded scenarios
//! and validate every run against the correctness oracles.
//!
//! ```text
//! scenario_check [--seeds N] [--start-seed S] [--family all|<name>]
//!                [--budget-secs T] [--out DIR] [--mutation]
//! ```
//!
//! A family `<name>` is its [`Family::name`]; `--help` lists them. The
//! ninth, `composed`, runs one of the other eight traffic shapes under
//! the production profile (or a seeded subset of it) and also re-runs
//! it on the paper's stack for the differential oracle.
//!
//! For each seed × family the scenario is generated, executed **twice**
//! (byte-identical run logs required — nondeterminism is itself a
//! failure), and checked with [`discover_check::oracle::check_run`]. On
//! any violation the scenario is shrunk to a 1-minimal reproduction and
//! written to `--out` (default `target/scenario-repros`). Exit status is
//! non-zero if any seed failed. When every requested seed ran, a last
//! line prints one FNV-1a digest over every run log and flight artifact,
//! so two trees' logs compare as one line.
//!
//! `--mutation` runs the self-test instead: for every
//! [`discover_check::Mutation`], the crafted scenario that seeds the
//! bug must trip the oracle [`discover_check::mutation_case`] names for
//! it, and shrink to ≤ 10 events.

use std::process::ExitCode;
use std::time::Instant;

use discover_check::oracle::{check_run, Violation};
use discover_check::run::run;
use discover_check::scenario::{Family, Scenario};
use discover_check::shrink::shrink;
use discover_check::{mutation_case, Mutation};
use wire::codec::digest_fnv1a;

struct Args {
    seeds: u64,
    start_seed: u64,
    families: Vec<Family>,
    budget_secs: u64,
    out: String,
    mutation: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 50,
        start_seed: 0,
        families: Family::ALL.to_vec(),
        budget_secs: u64::MAX,
        out: "target/scenario-repros".into(),
        mutation: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        let mut number = || value()?.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--seeds" => args.seeds = number()?,
            "--start-seed" => args.start_seed = number()?,
            "--budget-secs" => args.budget_secs = number()?,
            "--family" => {
                args.families = match value()?.as_str() {
                    "all" => Family::ALL.to_vec(),
                    name => match Family::ALL.into_iter().find(|f| f.name() == name) {
                        Some(family) => vec![family],
                        None => return Err(format!("unknown family {name:?}")),
                    },
                };
            }
            "--out" => args.out = value()?,
            "--mutation" => args.mutation = true,
            "--help" | "-h" => {
                let families: Vec<&str> = Family::ALL.iter().map(|f| f.name()).collect();
                return Err(format!(
                    "usage: scenario_check [--seeds N] [--start-seed S] [--family all|{}] \
                     [--budget-secs T] [--out DIR] [--mutation]\n\
                     `composed` runs a traffic shape under the production profile and \
                     checks it against the paper's stack too",
                    families.join("|")
                ));
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn render_violations(violations: &[Violation]) -> String {
    violations
        .iter()
        .map(|v| format!("  [{}] {}", v.oracle, v.detail))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Re-run a candidate scenario and ask whether the original oracle
/// still fires (same oracle name, any detail — details shift as the
/// scenario shrinks).
fn still_fails(s: &Scenario, oracle: &str) -> bool {
    check_run(&run(s)).iter().any(|v| v.oracle == oracle)
}

fn write_repro(out_dir: &str, tag: &str, s: &Scenario, violations: &[Violation], flight: &str) {
    let report = format!(
        "reproduce with: scenario_check --seeds 1 --start-seed {} --family {}\n\n\
         violations:\n{}\n\nshrunk scenario ({} events):\n{}",
        s.seed,
        s.family.name(),
        render_violations(violations),
        s.event_count(),
        s.describe(),
    );
    // The flight-recorder harvest rides along: triggered anomaly dumps
    // plus each server's final ring, from the same run the repro
    // describes.
    for (path, body) in [
        (format!("{out_dir}/{tag}.txt"), report.as_str()),
        (format!("{out_dir}/{tag}.flight.txt"), flight),
    ] {
        match std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => eprintln!("  written to {path}"),
            Err(e) => eprintln!("warning: cannot write {path}: {e}"),
        }
    }
}

/// Run one seed of one family twice and check it; `digests` gains the
/// first run's log and flight digests.
fn check_one(seed: u64, family: Family, out_dir: &str, digests: &mut Vec<u64>) -> bool {
    let scenario = Scenario::generate(family, seed);
    let first = run(&scenario);
    let second = run(&scenario);
    digests.extend([digest_fnv1a(&first.run_log), digest_fnv1a(&first.flight)]);
    if first.run_log != second.run_log {
        eprintln!(
            "FAIL seed={seed} family={}: nondeterministic run (logs differ across \
             identical executions)",
            family.name()
        );
        write_repro(
            out_dir,
            &format!("nondet-{}-{seed}", family.name()),
            &scenario,
            &[Violation { oracle: "determinism", detail: "run logs differ".into() }],
            &first.flight,
        );
        return false;
    }
    let violations = check_run(&first);
    if violations.is_empty() {
        return true;
    }
    eprintln!("FAIL seed={seed} family={}:\n{}", family.name(), render_violations(&violations));
    let oracle = violations[0].oracle;
    eprintln!("  shrinking against oracle {oracle:?}…");
    let shrunk = shrink(&scenario, |s| still_fails(s, oracle));
    let shrunk_run = run(&shrunk);
    let shrunk_violations = check_run(&shrunk_run);
    write_repro(
        out_dir,
        &format!("{}-{seed}", family.name()),
        &shrunk,
        &shrunk_violations,
        &shrunk_run.flight,
    );
    false
}

/// Run one seeded mutation: its scenario carries an injected bug that
/// its oracle must detect, and the shrunk repro must stay small.
fn mutation_detected(mutation: Mutation) -> bool {
    let (scenario, oracle) = mutation_case(mutation);
    let violations = check_run(&run(&scenario));
    if !violations.iter().any(|v| v.oracle == oracle) {
        eprintln!(
            "mutation self-test FAILED: {mutation:?} not detected by oracle {oracle:?}; \
             violations:\n{}",
            render_violations(&violations)
        );
        return false;
    }
    let shrunk = shrink(&scenario, |s| still_fails(s, oracle));
    let confirm = check_run(&run(&shrunk));
    if !confirm.iter().any(|v| v.oracle == oracle) {
        eprintln!("mutation self-test FAILED: shrunk {mutation:?} scenario no longer fails");
        return false;
    }
    if shrunk.event_count() > 10 {
        eprintln!(
            "mutation self-test FAILED: {mutation:?} shrunk to {} events (> 10)\n{}",
            shrunk.event_count(),
            shrunk.describe()
        );
        return false;
    }
    println!(
        "mutation self-test: {mutation:?} detected and shrunk to {} events",
        shrunk.event_count()
    );
    true
}

fn mutation_selftest() -> ExitCode {
    // Counted, not short-circuited: a failing run reports every miss.
    let missed = Mutation::ALL.into_iter().filter(|&m| !mutation_detected(m)).count();
    if missed == 0 {
        println!("mutation self-test passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.mutation {
        return mutation_selftest();
    }
    let started = Instant::now();
    let mut ran = 0u64;
    let mut failed = 0u64;
    let mut digests = Vec::new();
    let mut out_of_budget = false;
    'outer: for seed in args.start_seed..args.start_seed + args.seeds {
        for &family in &args.families {
            if started.elapsed().as_secs() >= args.budget_secs {
                out_of_budget = true;
                break 'outer;
            }
            ran += 1;
            if !check_one(seed, family, &args.out, &mut digests) {
                failed += 1;
            }
        }
    }
    let note = if out_of_budget { " (time budget reached)" } else { "" };
    println!(
        "scenario-check: {ran} runs, {failed} failures in {:.1}s{note}",
        started.elapsed().as_secs_f64()
    );
    if !out_of_budget {
        let digest = digest_fnv1a(&digests);
        println!("scenario-check: digest {digest:016x} over {ran} run logs and flight artifacts");
    }
    if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
