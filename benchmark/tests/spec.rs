//! `BENCHMARK.json` at the repository root is `spec::benchmark_json()`
//! written out, and the contract's limits hold for it.

use std::collections::HashSet;

use discover_wallbench::alloc::Counting;
use discover_wallbench::bench::{self, Args};
use discover_wallbench::json;
use discover_wallbench::spec::{self, Workload, END_TO_END};

// Without it the allocation metrics of a run read 0.
#[global_allocator]
static ALLOC: Counting = Counting;

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[test]
fn committed_file_matches_the_spec() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        spec::benchmark_json(),
        "regenerate with `wallbench spec > BENCHMARK.json`"
    );
    assert!(committed.len() <= 64 * 1024);
    json::parse(&committed).expect("valid JSON");
}

#[test]
fn contract_limits_hold() {
    let per_layer = spec::per_layer();
    assert!((2..=8).contains(&Workload::ALL.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!(
        (1..=128).contains(&per_layer.len()),
        "{} per-layer metrics",
        per_layer.len()
    );
    assert!((1..=60).contains(&spec::RUN_SECONDS));

    let mut names = HashSet::new();
    for w in Workload::ALL {
        assert!(
            valid_name(w.name()) && names.insert(w.name().to_string()),
            "{}",
            w.name()
        );
        assert!(
            w.why().len() <= 200 && !w.why().contains('\n'),
            "{}: why is {} chars",
            w.name(),
            w.why().len()
        );
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }
    for m in END_TO_END {
        assert!(
            valid_name(m.name) && valid_unit(m.unit) && names.insert(m.name.to_string()),
            "{}",
            m.name
        );
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    for m in &per_layer {
        assert!(
            valid_name(&m.name) && valid_unit(m.unit) && names.insert(m.name.clone()),
            "{}",
            m.name
        );
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", spec::Better::Lower));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}

#[test]
fn a_run_reports_exactly_the_contract_metrics() {
    let args = Args {
        workload: Workload::SteerLocal,
        seed: 3,
        seconds: 0.2,
        trace: false,
    };
    let outcome = bench::run(args);
    assert!(
        outcome.correct && outcome.failed == 0 && outcome.attempted > 0,
        "{outcome:?}"
    );
    let names: Vec<&str> = outcome.metrics.iter().map(|(n, ..)| n.as_str()).collect();
    assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
    assert!(
        outcome.metrics.iter().all(|(_, v, _)| *v > 0.0),
        "end-to-end metrics are never 0: {outcome:?}"
    );
    // The last line the driver reads parses back to the same numbers.
    let line = json::parse(&outcome.to_json().to_string()).unwrap();
    assert_eq!(line.get("correct"), Some(&json::Value::Bool(true)));
    assert_eq!(
        line.get("metrics").unwrap().members().len(),
        END_TO_END.len()
    );
}
