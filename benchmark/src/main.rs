//! `wallbench`: the wall-clock benchmark's command line.
//!
//! ```text
//! wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the driver's form)
//! wallbench run [--seed n] [--seconds s] [--repeat k] [--out file]     every workload, each in a child process
//! wallbench compare <base.json> <other.json>                           gate two result sets
//! wallbench compare --repeat k [--seed n] [--seconds s]                run two sets and gate them
//! wallbench compare --self-test                                        show the gate trips
//! wallbench spec                                                       print BENCHMARK.json
//! ```

use std::process::{Command, ExitCode};

use discover_wallbench::alloc::Counting;
use discover_wallbench::bench::{self, Args};
use discover_wallbench::compare::{self, ResultSet, WorkloadResult};
use discover_wallbench::json::{self, Value};
use discover_wallbench::spec::{self, Workload, RUN_SECONDS};

#[global_allocator]
static ALLOC: Counting = Counting;

/// `--flag value` pairs after the subcommand, plus positional arguments.
struct Flags {
    pairs: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            pairs: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if switches.contains(&arg.as_str()) {
                flags.pairs.push((arg.clone(), String::new()));
            } else if arg.starts_with("--") {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                flags.pairs.push((arg.clone(), value.clone()));
            } else {
                flags.positional.push(arg.clone());
            }
        }
        Ok(flags)
    }

    fn has(&self, flag: &str) -> bool {
        self.pairs.iter().any(|(f, _)| f == flag)
    }

    fn get<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.pairs.iter().find(|(f, _)| f == flag) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value for {flag}: {v}")),
        }
    }

    fn known(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .pairs
            .iter()
            .find(|(f, _)| !allowed.contains(&f.as_str()))
        {
            Some((flag, _)) => Err(format!("unknown flag {flag}")),
            None => Ok(()),
        }
    }
}

/// The driver's form: one workload, one result line.
fn one_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &[])?;
    flags.known(&["--workload", "--seed", "--seconds", "--trace"])?;
    if !flags.positional.is_empty() {
        return Err(format!("unexpected argument {}", flags.positional[0]));
    }
    let name: String = flags.get("--workload")?.ok_or("--workload is required")?;
    let workload = Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seconds: f64 = flags.get("--seconds")?.unwrap_or(RUN_SECONDS as f64);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    let trace = match flags.get::<u8>("--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, got {other}")),
    };
    let args = Args {
        workload,
        seed: flags.get("--seed")?.unwrap_or(1),
        seconds,
        trace,
    };
    let outcome = bench::run(args);
    println!("{}", outcome.to_json());
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run one workload in a child process and parse its result line.
fn child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{}: the child printed nothing", workload.name()))?;
    let result =
        json::parse(line).map_err(|e| format!("{}: bad result line: {e}", workload.name()))?;
    if !output.status.success() || result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!(
            "{}: run failed ({}): {line}",
            workload.name(),
            output.status
        ));
    }
    Ok(result)
}

/// Every workload: `repeat` end-to-end runs and one traced run each.
fn run_set(seed: u64, seconds: f64, repeat: usize, with_trace: bool) -> Result<ResultSet, String> {
    let mut set = ResultSet {
        seed,
        seconds,
        workloads: Vec::new(),
    };
    for workload in Workload::ALL {
        let mut result = WorkloadResult::default();
        for _ in 0..repeat {
            result.add_end_to_end(&child(workload, seed, seconds, false)?);
        }
        if with_trace {
            result.set_per_layer(&child(workload, seed, seconds, true)?);
        }
        set.workloads.push((workload.name().to_string(), result));
    }
    Ok(set)
}

fn print_set(set: &ResultSet) {
    for (name, w) in &set.workloads {
        println!("== {name}: attempted {}, failed {}", w.attempted, w.failed);
        for (metric, unit, values) in &w.end_to_end {
            let mut sorted = values.clone();
            let mid = discover_wallbench::stats::median(&mut sorted);
            println!("  {metric:<44} {mid:>16.4} {unit:<6} {values:?}");
        }
        for (metric, unit, value) in &w.per_layer {
            println!("  {metric:<44} {value:>16.4} {unit}");
        }
    }
}

fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &[])?;
    flags.known(&["--seed", "--seconds", "--repeat", "--out"])?;
    let seed = flags.get("--seed")?.unwrap_or(1);
    let seconds = flags.get("--seconds")?.unwrap_or(RUN_SECONDS as f64);
    let set = run_set(seed, seconds, flags.get("--repeat")?.unwrap_or(1), true)?;
    print_set(&set);
    let out: String = flags
        .get("--out")?
        .unwrap_or_else(|| "benchmark/target/wallbench-result.json".to_string());
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, set.to_json().pretty()).map_err(|e| format!("write {out}: {e}"))?;
    println!("result set -> {out}");
    Ok(ExitCode::SUCCESS)
}

fn read_set(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    ResultSet::from_json(&json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
}

fn compare_sets(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--self-test"])?;
    flags.known(&["--self-test", "--repeat", "--seed", "--seconds"])?;
    let passed = if flags.has("--self-test") {
        compare::self_test()
    } else {
        let (base, other) = match (flags.positional.as_slice(), flags.get::<usize>("--repeat")?) {
            ([base, other], None) => (read_set(base)?, read_set(other)?),
            ([], Some(repeat)) => {
                let seed = flags.get("--seed")?.unwrap_or(1);
                let seconds = flags.get("--seconds")?.unwrap_or(RUN_SECONDS as f64);
                (
                    run_set(seed, seconds, repeat, false)?,
                    run_set(seed, seconds, repeat, false)?,
                )
            }
            _ => {
                return Err(
                    "compare takes two result files, or --repeat k, or --self-test".to_string(),
                )
            }
        };
        let (rows, complaints) = compare::compare(&base, &other);
        compare::print(&rows, &complaints)
    };
    Ok(if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare_sets(&args[1..]),
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        _ => one_run(&args),
    };
    result.unwrap_or_else(|why| {
        eprintln!("wallbench: {why}");
        ExitCode::from(2)
    })
}
