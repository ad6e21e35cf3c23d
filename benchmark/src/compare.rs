//! Result sets: what `wallbench run` writes and `wallbench compare` gates.
//!
//! A set holds, per workload, the end-to-end metrics of one or more runs
//! (`--repeat`) and the per-layer metrics of one traced run. Comparing
//! two sets takes each end-to-end metric's median on both sides and
//! applies the bound and direction fixed in [`crate::spec`].

use crate::json::Value;
use crate::spec::{Better, Workload, END_TO_END};
use crate::stats::median;

/// One workload's entry of a result set.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadResult {
    /// Operations attempted, summed over the end-to-end runs.
    pub attempted: u64,
    /// Operations failed, summed over the end-to-end runs.
    pub failed: u64,
    /// `(metric, unit, one value per run)`.
    pub end_to_end: Vec<(String, String, Vec<f64>)>,
    /// `(metric, unit, value)` of the traced run.
    pub per_layer: Vec<(String, String, f64)>,
}

/// A full result set.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResultSet {
    /// The seed every run used.
    pub seed: u64,
    /// Seconds of measured window per run.
    pub seconds: f64,
    /// `(workload name, result)`.
    pub workloads: Vec<(String, WorkloadResult)>,
}

/// `(name, value, unit)` triples of a driver result line's `metrics`.
pub fn metrics_of(line: &Value) -> Vec<(String, f64, String)> {
    let metrics = line.get("metrics").map(Value::members).unwrap_or_default();
    metrics
        .iter()
        .filter_map(|(name, m)| {
            Some((
                name.clone(),
                m.get("value")?.as_f64()?,
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

impl WorkloadResult {
    /// Fold in the result line of one `--trace 0` run.
    pub fn add_end_to_end(&mut self, line: &Value) {
        let count = |key| line.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
        self.attempted += count("attempted");
        self.failed += count("failed");
        for (name, value, unit) in metrics_of(line) {
            match self.end_to_end.iter_mut().find(|(n, ..)| *n == name) {
                Some((_, _, values)) => values.push(value),
                None => self.end_to_end.push((name, unit, vec![value])),
            }
        }
    }

    /// Take the metrics of a `--trace 1` run.
    pub fn set_per_layer(&mut self, line: &Value) {
        self.per_layer = metrics_of(line)
            .into_iter()
            .map(|(n, v, u)| (n, u, v))
            .collect();
    }

    fn median_of(&self, metric: &str) -> Option<f64> {
        let (_, _, values) = self.end_to_end.iter().find(|(n, ..)| n == metric)?;
        (!values.is_empty()).then(|| median(&mut values.clone()))
    }
}

impl ResultSet {
    /// Render for `--out`.
    pub fn to_json(&self) -> Value {
        let workloads = self.workloads.iter().map(|(name, w)| {
            let e2e = w.end_to_end.iter().map(|(n, unit, values)| {
                let values = Value::Arr(values.iter().map(|v| Value::Num(*v)).collect());
                (
                    n.as_str(),
                    Value::obj([("unit", Value::Str(unit.clone())), ("values", values)]),
                )
            });
            let layers = w.per_layer.iter().map(|(n, unit, value)| {
                (
                    n.as_str(),
                    Value::obj([
                        ("unit", Value::Str(unit.clone())),
                        ("value", Value::Num(*value)),
                    ]),
                )
            });
            let entry = Value::obj([
                ("attempted", Value::Num(w.attempted as f64)),
                ("failed", Value::Num(w.failed as f64)),
                ("end_to_end", Value::obj(e2e)),
                ("per_layer", Value::obj(layers)),
            ]);
            (name.as_str(), entry)
        });
        Value::obj([
            ("seed", Value::Num(self.seed as f64)),
            ("seconds", Value::Num(self.seconds)),
            ("workloads", Value::obj(workloads)),
        ])
    }

    /// Read back what [`ResultSet::to_json`] wrote.
    pub fn from_json(doc: &Value) -> Result<ResultSet, String> {
        let num = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("result set: no number \"{key}\""))
        };
        let unit = |m: &Value| {
            m.get("unit")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let mut set = ResultSet {
            seed: num(doc, "seed")? as u64,
            seconds: num(doc, "seconds")?,
            workloads: Vec::new(),
        };
        let workloads = doc.get("workloads").ok_or("result set: no \"workloads\"")?;
        for (name, entry) in workloads.members() {
            let mut w = WorkloadResult {
                attempted: num(entry, "attempted")? as u64,
                failed: num(entry, "failed")? as u64,
                ..WorkloadResult::default()
            };
            for (metric, m) in entry
                .get("end_to_end")
                .map(Value::members)
                .unwrap_or_default()
            {
                let values = m.get("values").map(Value::elements).unwrap_or_default();
                w.end_to_end.push((
                    metric.clone(),
                    unit(m),
                    values.iter().filter_map(Value::as_f64).collect(),
                ));
            }
            for (metric, m) in entry
                .get("per_layer")
                .map(Value::members)
                .unwrap_or_default()
            {
                w.per_layer
                    .push((metric.clone(), unit(m), num(m, "value")?));
            }
            set.workloads.push((name.clone(), w));
        }
        Ok(set)
    }

    fn workload(&self, name: &str) -> Option<&WorkloadResult> {
        self.workloads
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, w)| w)
    }
}

/// One row of a comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// Base side's median.
    pub base: f64,
    /// Other side's median.
    pub other: f64,
    /// Share of the base by which the other side is worse (negative when
    /// it is better).
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
}

impl Row {
    /// Whether the row is outside its bound.
    pub fn regressed(&self) -> bool {
        self.worse_by > self.bound
    }
}

/// Compare `other` against `base`: one row per workload and end-to-end
/// metric, plus a complaint per workload missing on either side or
/// failing more operations than the base.
pub fn compare(base: &ResultSet, other: &ResultSet) -> (Vec<Row>, Vec<String>) {
    let (mut rows, mut complaints) = (Vec::new(), Vec::new());
    for workload in Workload::ALL {
        let name = workload.name();
        let (Some(a), Some(b)) = (base.workload(name), other.workload(name)) else {
            complaints.push(format!("{name}: missing from one of the result sets"));
            continue;
        };
        if b.failed > a.failed {
            complaints.push(format!(
                "{name}: {} operations failed, base had {}",
                b.failed, a.failed
            ));
        }
        for metric in END_TO_END {
            let (Some(x), Some(y)) = (a.median_of(metric.name), b.median_of(metric.name)) else {
                complaints.push(format!("{name}: no values for {}", metric.name));
                continue;
            };
            let worse_by = match metric.better {
                Better::Higher => (x - y) / x,
                Better::Lower => (y - x) / x,
            };
            rows.push(Row {
                workload: name,
                metric: metric.name,
                base: x,
                other: y,
                worse_by,
                bound: metric.bound,
            });
        }
    }
    (rows, complaints)
}

/// Print a comparison; returns whether every row is inside its bound.
pub fn print(rows: &[Row], complaints: &[String]) -> bool {
    println!(
        "{:<15} {:<21} {:>14} {:>14} {:>16} {:>8}  verdict",
        "workload", "metric", "base", "other", "other/base", "bound"
    );
    for row in rows {
        println!(
            "{:<15} {:<21} {:>14.4} {:>14.4} {:>9.4} x base {:>7.0}%  {}",
            row.workload,
            row.metric,
            row.base,
            row.other,
            row.other / row.base,
            row.bound * 100.0,
            if row.regressed() {
                format!("WORSE by {:.1}%", row.worse_by * 100.0)
            } else {
                "ok".to_string()
            }
        );
    }
    for complaint in complaints {
        println!("!! {complaint}");
    }
    complaints.is_empty() && !rows.iter().any(Row::regressed)
}

/// Gate self-test on synthetic sets: identical sets pass, a 20 % slowdown
/// trips `work_per_s`, allocation drift trips once past its bound and a
/// +1 % drift stays inside it.
pub fn self_test() -> bool {
    let base = ResultSet {
        seed: 1,
        seconds: 10.0,
        workloads: Workload::ALL
            .iter()
            .map(|w| {
                let end_to_end = END_TO_END
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            m.unit.to_string(),
                            vec![100.0, 101.0, 99.0],
                        )
                    })
                    .collect();
                (
                    w.name().to_string(),
                    WorkloadResult {
                        attempted: 1000,
                        end_to_end,
                        ..Default::default()
                    },
                )
            })
            .collect(),
    };
    let scaled = |metric: &str, factor: f64| {
        let mut set = base.clone();
        for (_, w) in &mut set.workloads {
            for (name, _, values) in &mut w.end_to_end {
                if name == metric {
                    values.iter_mut().for_each(|v| *v *= factor);
                }
            }
        }
        set
    };
    let alloc_bound = END_TO_END
        .iter()
        .find(|m| m.name == "allocs_per_work")
        .expect("in the contract")
        .bound;
    let cases = [
        ("identical sets", base.clone(), true),
        (
            "20 % slowdown of work_per_s",
            scaled("work_per_s", 0.8),
            false,
        ),
        (
            "+1 % allocation drift",
            scaled("allocs_per_work", 1.01),
            true,
        ),
        (
            "allocation drift 1 % past its bound",
            scaled("allocs_per_work", 1.01 + alloc_bound),
            false,
        ),
    ];
    let mut all_as_expected = true;
    for (what, other, should_pass) in cases {
        println!(
            "== self-test: {what} (gate should {})",
            if should_pass { "pass" } else { "trip" }
        );
        let (rows, complaints) = compare(&base, &other);
        let passed = print(&rows, &complaints);
        println!("== gate {}", if passed { "passed" } else { "tripped" });
        all_as_expected &= passed == should_pass;
    }
    all_as_expected
}
