//! Cross-PR bench trend gates: parse the committed `BENCH_<ID>.json`
//! baselines, compare them against fresh same-seed reruns, and fail on
//! regressions beyond per-metric tolerances.
//!
//! The harness writes every experiment summary in one stable schema
//! (see [`crate::report::BenchSummary`]):
//!
//! ```json
//! {"experiment": "e16", "seed": 1600, "metrics": {"raw.recovery_ms": 4000, ...}}
//! ```
//!
//! Those files are committed at the repo root, so each PR carries the
//! previous PR's numbers. [`GATES`] declares which metrics are promises
//! rather than observations — each with a *direction* (is up bad, or
//! down?) and a tolerance — and [`compare`] turns a (baseline, fresh)
//! pair into a list of violations. The `bench_trend` binary wires this
//! into CI; EXPERIMENTS.md documents the baseline-update procedure for
//! PRs that shift a gated metric on purpose.

/// A parsed `BENCH_<ID>.json` document. All metric values are held as
/// `f64`; the schema's integers convert exactly up to 2^53, far above
/// any counter the harness emits except the `u64::MAX` "never"
/// sentinel, which stays comfortably larger than every finite value.
#[derive(Clone, Debug, PartialEq)]
pub struct Baseline {
    /// Experiment id, lowercase (`"e16"`).
    pub experiment: String,
    /// The run's root RNG seed.
    pub seed: u64,
    /// Metrics in file order.
    pub metrics: Vec<(String, f64)>,
}

impl Baseline {
    /// Look up a metric by exact key.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// Parse the stable summary schema. This is a line-oriented reader of
/// the exact format [`crate::report::BenchSummary::to_json`] emits, not
/// a general JSON parser — the schema is ours, and keeping the reader
/// this small means no parser dependency anywhere in the gate path.
pub fn parse_summary(text: &str) -> Result<Baseline, String> {
    let mut experiment = None;
    let mut seed = None;
    let mut metrics = Vec::new();
    let mut in_metrics = false;
    for raw in text.lines() {
        let line = raw.trim().trim_end_matches(',');
        if line == "\"metrics\": {" {
            in_metrics = true;
            continue;
        }
        if in_metrics && line == "}" {
            in_metrics = false;
            continue;
        }
        let Some((key, value)) = line.split_once(':') else { continue };
        let key = key.trim().trim_matches('"');
        let value = value.trim();
        if in_metrics {
            let v: f64 =
                value.parse().map_err(|e| format!("metric {key:?}: bad value {value:?}: {e}"))?;
            metrics.push((key.to_string(), v));
        } else if key == "experiment" {
            experiment = Some(value.trim_matches('"').to_string());
        } else if key == "seed" {
            seed = Some(value.parse().map_err(|e| format!("seed: {e}"))?);
        }
    }
    Ok(Baseline {
        experiment: experiment.ok_or("missing \"experiment\"")?,
        seed: seed.ok_or("missing \"seed\"")?,
        metrics,
    })
}

/// Which direction of movement a gate treats as a regression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Direction {
    /// Larger is worse (latencies, retries, encode counts).
    UpIsBad,
    /// Smaller is worse (goodput, success rates, hit rates).
    DownIsBad,
    /// Any drift beyond the absolute tolerance is a regression
    /// (invariants like "zero leaked sessions", determinism bits).
    Exact,
}

/// One trend gate: a metric-key pattern within one experiment plus the
/// movement it forbids. Patterns are either exact keys or a leading
/// `*` wildcard matched as a suffix (`"*.success_rate"`).
#[derive(Clone, Copy, Debug)]
pub struct Gate {
    /// Experiment id this gate applies to (`"e15"`).
    pub experiment: &'static str,
    /// Exact key or `*`-prefixed suffix pattern.
    pub pattern: &'static str,
    /// Which movement is a regression.
    pub direction: Direction,
    /// Relative slack as a fraction of the baseline magnitude.
    pub rel_tol: f64,
    /// Absolute slack in the metric's own unit.
    pub abs_tol: f64,
    /// Why this metric is a promise (printed with violations).
    pub why: &'static str,
}

/// The gated metrics. Everything else in the summaries is tracked but
/// unjudged — observations, not promises. Tolerances are deliberately
/// loose: the gate exists to catch *regressions*, not noise, and every
/// run is seed-deterministic so any drift at all means the code moved.
pub const GATES: &[Gate] = &[
    Gate {
        experiment: "e12",
        pattern: "*.success_rate",
        direction: Direction::DownIsBad,
        rel_tol: 0.10,
        abs_tol: 0.02,
        why: "fault-tolerance success rates must not erode",
    },
    Gate {
        experiment: "e12",
        pattern: "*.p99_ms",
        direction: Direction::UpIsBad,
        rel_tol: 0.30,
        abs_tol: 100.0,
        why: "tail latency under loss must stay bounded",
    },
    Gate {
        experiment: "e13",
        pattern: "*.mean_root_ms",
        direction: Direction::UpIsBad,
        rel_tol: 0.25,
        abs_tol: 50.0,
        why: "end-to-end root-span latency must not creep",
    },
    Gate {
        experiment: "e13",
        pattern: "*.traces",
        direction: Direction::DownIsBad,
        rel_tol: 0.25,
        abs_tol: 5.0,
        why: "a collapsing trace count means instrumentation broke",
    },
    Gate {
        experiment: "e14",
        pattern: "*.encodes_per_broadcast",
        direction: Direction::UpIsBad,
        rel_tol: 0.0,
        abs_tol: 0.01,
        why: "the encode-once broadcast invariant",
    },
    Gate {
        experiment: "e14",
        pattern: "pool.hit_rate",
        direction: Direction::DownIsBad,
        rel_tol: 0.05,
        abs_tol: 0.02,
        why: "buffer-pool reuse must not degrade",
    },
    Gate {
        experiment: "e15",
        pattern: "*_dl800.goodput_tight_per_s",
        direction: Direction::DownIsBad,
        rel_tol: 0.25,
        abs_tol: 0.5,
        why: "deadline-protected goodput under overload",
    },
    Gate {
        experiment: "e15",
        pattern: "*_dl2500.goodput_tight_per_s",
        direction: Direction::DownIsBad,
        rel_tol: 0.25,
        abs_tol: 0.5,
        why: "deadline-protected goodput under overload",
    },
    Gate {
        experiment: "e16",
        pattern: "*.recovery_ms",
        direction: Direction::UpIsBad,
        rel_tol: 0.25,
        abs_tol: 2_000.0,
        why: "flash-crowd goodput recovery must stay prompt",
    },
    Gate {
        experiment: "e16",
        pattern: "*.parked_at_end",
        direction: Direction::Exact,
        rel_tol: 0.0,
        abs_tol: 0.0,
        why: "the lease plane must never leak a parked session",
    },
    Gate {
        experiment: "e16",
        pattern: "*.fallbacks",
        direction: Direction::UpIsBad,
        rel_tol: 0.0,
        abs_tol: 2.0,
        why: "resume fallbacks to cold login must stay rare",
    },
    Gate {
        experiment: "e17",
        pattern: "armed.schedule_delta",
        direction: Direction::Exact,
        rel_tol: 0.0,
        abs_tol: 0.0,
        why: "the armed flight recorder must not perturb the schedule",
    },
    Gate {
        experiment: "e17",
        pattern: "armed.deterministic",
        direction: Direction::Exact,
        rel_tol: 0.0,
        abs_tol: 0.0,
        why: "flight dumps must reproduce byte for byte",
    },
    Gate {
        experiment: "e17",
        pattern: "probes.deterministic",
        direction: Direction::Exact,
        rel_tol: 0.0,
        abs_tol: 0.0,
        why: "status pages must reproduce byte for byte",
    },
    Gate {
        experiment: "e17",
        pattern: "probes.p99_ms",
        direction: Direction::UpIsBad,
        rel_tol: 0.50,
        abs_tol: 20.0,
        why: "status-probe round-trip tail must stay cheap",
    },
    Gate {
        experiment: "e18",
        pattern: "*.coalesce_frac",
        direction: Direction::DownIsBad,
        rel_tol: 0.05,
        abs_tol: 0.02,
        why: "storm coalescing must keep absorbing superseded telemetry",
    },
    Gate {
        experiment: "e18",
        pattern: "*.frames_per_poll",
        direction: Direction::Exact,
        rel_tol: 0.0,
        abs_tol: 0.0,
        why: "every poll batch must ship behind exactly one framing header",
    },
    Gate {
        experiment: "e18",
        pattern: "*.encode_copy_bytes",
        direction: Direction::Exact,
        rel_tol: 0.0,
        abs_tol: 0.0,
        why: "encode finalization must stay a refcount handoff, never a memcpy",
    },
    Gate {
        experiment: "e18",
        pattern: "fidelity.post_origin_copies",
        direction: Direction::Exact,
        rel_tol: 0.0,
        abs_tol: 0.0,
        why: "a payload in peer transit must never be copied after origin",
    },
    Gate {
        experiment: "e18",
        pattern: "fidelity.payload_reencode_walks",
        direction: Direction::Exact,
        rel_tol: 0.0,
        abs_tol: 0.0,
        why: "relaying a decoded update must splice, not re-serialize",
    },
    Gate {
        experiment: "e18",
        pattern: "fidelity.byte_identical",
        direction: Direction::Exact,
        rel_tol: 0.0,
        abs_tol: 0.0,
        why: "zero-copy transit must be byte-transparent on the wire",
    },
    Gate {
        experiment: "e18",
        pattern: "fidelity.peer_payload_borrows_ingress",
        direction: Direction::Exact,
        rel_tol: 0.0,
        abs_tol: 0.0,
        why: "the decoded payload must alias the receive buffer, not own a copy",
    },
    Gate {
        experiment: "e19",
        pattern: "catchup.tail_records_max",
        direction: Direction::UpIsBad,
        rel_tol: 0.0,
        abs_tol: 4.0,
        why: "latecomer catch-up tails must stay bounded by the snapshot interval, not session age",
    },
    Gate {
        experiment: "e19",
        pattern: "catchup.bytes_max",
        direction: Direction::UpIsBad,
        rel_tol: 0.10,
        abs_tol: 512.0,
        why: "catch-up reply bytes (snapshot + tail) must not creep with session length",
    },
    Gate {
        experiment: "e19",
        pattern: "recovery.fold_identical",
        direction: Direction::Exact,
        rel_tol: 0.0,
        abs_tol: 0.0,
        why: "a crash-recovered host must reach folded state byte-identical to the uncrashed run",
    },
    Gate {
        experiment: "e19",
        pattern: "recovery.catchup_identical",
        direction: Direction::Exact,
        rel_tol: 0.0,
        abs_tol: 0.0,
        why: "a recovered host must serve byte-identical catch-up suffixes to latecomers",
    },
    Gate {
        experiment: "e19",
        pattern: "recovery.recoveries",
        direction: Direction::Exact,
        rel_tol: 0.0,
        abs_tol: 0.0,
        why: "exactly one archive recovery per crash — restarts must never silently reset",
    },
    Gate {
        experiment: "e20",
        pattern: "*.cache_hit_rate",
        direction: Direction::DownIsBad,
        rel_tol: 0.05,
        abs_tol: 0.02,
        why: "steady-state dispatch must keep riding the discovery cache",
    },
    Gate {
        experiment: "e20",
        pattern: "*.shard_imbalance",
        direction: Direction::UpIsBad,
        rel_tol: 0.10,
        abs_tol: 0.05,
        why: "per-shard session placement must stay within the balance envelope",
    },
    Gate {
        experiment: "e20",
        pattern: "*.goodput_per_s",
        direction: Direction::DownIsBad,
        rel_tol: 0.25,
        abs_tol: 0.5,
        why: "sampled goodput through the sharded plane must not erode",
    },
    Gate {
        experiment: "e20",
        pattern: "*.shard_min",
        direction: Direction::DownIsBad,
        rel_tol: 0.25,
        abs_tol: 0.0,
        why: "no directory shard may empty out as the population grows",
    },
];

fn key_matches(pattern: &str, key: &str) -> bool {
    match pattern.strip_prefix('*') {
        Some(suffix) => key.ends_with(suffix),
        None => pattern == key,
    }
}

/// One gated metric that moved the wrong way.
#[derive(Clone, Debug)]
pub struct TrendViolation {
    /// Experiment id.
    pub experiment: String,
    /// The concrete metric key (not the pattern).
    pub key: String,
    /// Human-readable description of what happened.
    pub detail: String,
}

/// The outcome of gating one experiment.
#[derive(Clone, Debug, Default)]
pub struct TrendReport {
    /// Gated metric instances actually checked.
    pub checked: usize,
    /// Gated metrics that regressed.
    pub violations: Vec<TrendViolation>,
}

/// Gate `fresh` against `baseline`. Both documents must describe the
/// same experiment under the same seed — a seed drift means the
/// baseline is stale and every comparison would be meaningless, so it
/// is itself a violation. Gated metrics present in the baseline must
/// still exist in the fresh run; metrics new in the fresh run are
/// ignored (they have no baseline yet).
pub fn compare(baseline: &Baseline, fresh: &Baseline) -> TrendReport {
    let mut report = TrendReport::default();
    let id = &baseline.experiment;
    let mut violate = |key: &str, detail: String| {
        report.violations.push(TrendViolation {
            experiment: id.clone(),
            key: key.to_string(),
            detail,
        });
    };
    if baseline.experiment != fresh.experiment {
        violate(
            "experiment",
            format!(
                "baseline is {:?} but fresh run is {:?}",
                baseline.experiment, fresh.experiment
            ),
        );
        return report;
    }
    if baseline.seed != fresh.seed {
        violate(
            "seed",
            format!(
                "seed changed {} -> {} without regenerating the baseline",
                baseline.seed, fresh.seed
            ),
        );
        return report;
    }
    for gate in GATES.iter().filter(|g| g.experiment == *id) {
        for (key, base) in baseline.metrics.iter().filter(|(k, _)| key_matches(gate.pattern, k)) {
            report.checked += 1;
            let Some(new) = fresh.get(key) else {
                report.violations.push(TrendViolation {
                    experiment: id.clone(),
                    key: key.clone(),
                    detail: format!("gated metric disappeared from the fresh run ({})", gate.why),
                });
                continue;
            };
            let slack = base.abs() * gate.rel_tol + gate.abs_tol;
            let regressed = match gate.direction {
                Direction::UpIsBad => new > base + slack,
                Direction::DownIsBad => new < base - slack,
                Direction::Exact => (new - base).abs() > gate.abs_tol,
            };
            if regressed {
                report.violations.push(TrendViolation {
                    experiment: id.clone(),
                    key: key.clone(),
                    detail: format!(
                        "{base} -> {new} exceeds {:?} tolerance (rel {}, abs {}): {}",
                        gate.direction, gate.rel_tol, gate.abs_tol, gate.why
                    ),
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::BenchSummary;

    fn sample() -> Baseline {
        let mut s = BenchSummary::new("e16", 1600);
        s.metric_f64("raw.pre_rate_per_s", 7.25);
        s.metric_u64("raw.recovery_ms", 4_000);
        s.metric_u64("raw.fallbacks", 0);
        s.metric_u64("raw.parked_at_end", 0);
        s.metric_u64("paced.recovery_ms", 6_000);
        s.metric_u64("paced.parked_at_end", 0);
        parse_summary(&s.to_json()).expect("parse")
    }

    #[test]
    fn parses_the_stable_schema_round_trip() {
        let b = sample();
        assert_eq!(b.experiment, "e16");
        assert_eq!(b.seed, 1600);
        assert_eq!(b.metrics.len(), 6);
        assert_eq!(b.get("raw.pre_rate_per_s"), Some(7.25));
        assert_eq!(b.get("paced.recovery_ms"), Some(6_000.0));
        assert_eq!(b.get("missing"), None);
    }

    #[test]
    fn identical_runs_pass_and_are_actually_checked() {
        let b = sample();
        let report = compare(&b, &b.clone());
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        // recovery_ms x2, parked_at_end x2, fallbacks x1.
        assert_eq!(report.checked, 5);
    }

    #[test]
    fn regression_beyond_tolerance_trips_each_direction() {
        let b = sample();
        // UpIsBad: recovery_ms 4000 -> 8000 is past 25% + 2000 abs.
        let mut worse = b.clone();
        worse.metrics[1].1 = 8_000.0;
        let report = compare(&b, &worse);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].key, "raw.recovery_ms");
        // Exact: one leaked session trips at any magnitude.
        let mut leak = b.clone();
        leak.metrics[3].1 = 1.0;
        assert_eq!(compare(&b, &leak).violations[0].key, "raw.parked_at_end");
        // DownIsBad on a gated goodput metric (e15 fixture).
        let mut s = BenchSummary::new("e15", 1500);
        s.metric_f64("c16_dl800.goodput_tight_per_s", 10.0);
        let base = parse_summary(&s.to_json()).unwrap();
        let mut slow = base.clone();
        slow.metrics[0].1 = 6.0; // past 25% + 0.5 abs
        assert_eq!(compare(&base, &slow).violations.len(), 1);
        let mut fine = base.clone();
        fine.metrics[0].1 = 8.0; // within tolerance
        assert!(compare(&base, &fine).violations.is_empty());
    }

    #[test]
    fn movement_in_the_good_direction_never_trips() {
        let b = sample();
        let mut better = b.clone();
        better.metrics[1].1 = 1_000.0; // recovery got faster
        assert!(compare(&b, &better).violations.is_empty());
    }

    #[test]
    fn missing_gated_metric_and_seed_drift_trip() {
        let b = sample();
        let mut gone = b.clone();
        gone.metrics.remove(1);
        let report = compare(&b, &gone);
        assert!(report.violations.iter().any(|v| v.detail.contains("disappeared")));
        let mut reseeded = b.clone();
        reseeded.seed = 1601;
        assert!(compare(&b, &reseeded).violations[0].detail.contains("seed changed"));
    }

    #[test]
    fn wildcard_patterns_match_suffixes_only() {
        assert!(key_matches("*.recovery_ms", "raw.recovery_ms"));
        assert!(key_matches("*.recovery_ms", "paced.recovery_ms"));
        assert!(!key_matches("*.recovery_ms", "raw.recovery_ms_hint"));
        assert!(key_matches("pool.hit_rate", "pool.hit_rate"));
        assert!(!key_matches("pool.hit_rate", "apool.hit_rate"));
    }

    #[test]
    fn every_gate_names_a_registered_experiment() {
        let ids: Vec<&str> = crate::experiments::all().iter().map(|&(id, _)| id).collect();
        for gate in GATES {
            assert!(ids.contains(&gate.experiment), "gate on unknown {:?}", gate.experiment);
        }
    }
}
