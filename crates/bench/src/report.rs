//! Tabular reporting for the experiment harness: aligned console tables
//! plus CSV dumps under `target/experiments/` for plotting.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

use simnet::{Histogram, SimDuration};

/// A result table: header row plus data rows of strings.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Experiment id, e.g. `"E1"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// What the paper claims; printed above the data.
    pub paper_claim: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form conclusions appended under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Start a table.
    pub fn new(id: &str, title: &str, paper_claim: &str, columns: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            paper_claim: paper_claim.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a data row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch in {}", self.id);
        self.rows.push(cells);
    }

    /// Append a conclusion note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// The notes in which an acceptance check reports that it failed:
    /// each says `VIOLATION`.
    pub fn violations(&self) -> impl Iterator<Item = &str> {
        self.notes.iter().map(String::as_str).filter(|n| n.contains("VIOLATION"))
    }

    /// Render to the console.
    pub fn print(&self) {
        println!();
        println!("== {}: {} ==", self.id, self.title);
        println!("paper: {}", self.paper_claim);
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        println!("  {}", header.join("  "));
        println!("  {}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
        for row in &self.rows {
            let line: Vec<String> =
                row.iter().enumerate().map(|(i, c)| format!("{:>w$}", c, w = widths[i])).collect();
            println!("  {}", line.join("  "));
        }
        for note in &self.notes {
            println!("  -> {note}");
        }
    }

    /// Write the table as CSV under `target/experiments/<id>.csv`.
    pub fn write_csv(&self) {
        let dir = PathBuf::from("target/experiments");
        if fs::create_dir_all(&dir).is_err() {
            return;
        }
        let path = dir.join(format!("{}.csv", self.id.to_lowercase()));
        let Ok(mut f) = fs::File::create(&path) else { return };
        let _ = writeln!(f, "{}", self.columns.join(","));
        for row in &self.rows {
            let _ = writeln!(f, "{}", row.join(","));
        }
    }
}

/// A machine-readable experiment summary, emitted as `BENCH_<ID>.json`
/// at the repository root so successive PRs can track the perf
/// trajectory. Schema (documented in EXPERIMENTS.md):
///
/// ```json
/// {"experiment": "e14", "seed": 1400, "metrics": {"name": value, ...}}
/// ```
///
/// Metric values are integers or floats; insertion order is preserved
/// and every formatting choice is deterministic, so two same-seed runs
/// produce byte-identical files (CI diffs them).
#[derive(Clone, Debug, PartialEq)]
pub struct BenchSummary {
    /// Experiment id, lowercase (`"e14"`).
    pub experiment: String,
    /// The run's root RNG seed.
    pub seed: u64,
    metrics: Vec<(String, MetricValue)>,
}

/// One metric value in a [`BenchSummary`].
#[derive(Clone, Copy, Debug, PartialEq)]
enum MetricValue {
    Int(u64),
    Float(f64),
}

impl BenchSummary {
    /// Start a summary for `experiment` run under `seed`.
    pub fn new(experiment: &str, seed: u64) -> Self {
        BenchSummary { experiment: experiment.to_lowercase(), seed, metrics: Vec::new() }
    }

    /// Record an integer-valued metric.
    pub fn metric_u64(&mut self, name: impl Into<String>, value: u64) {
        self.metrics.push((name.into(), MetricValue::Int(value)));
    }

    /// Record a float-valued metric (rendered with 6 decimals).
    pub fn metric_f64(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), MetricValue::Float(value)));
    }

    /// Render the stable JSON document (trailing newline included).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"experiment\": \"{}\",\n  \"seed\": {},\n  \"metrics\": {{\n",
            self.experiment, self.seed
        ));
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            let rendered = match value {
                MetricValue::Int(v) => v.to_string(),
                MetricValue::Float(v) if v.is_finite() => format!("{v:.6}"),
                MetricValue::Float(_) => "null".to_string(),
            };
            out.push_str(&format!("    \"{name}\": {rendered}{comma}\n"));
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Write `BENCH_<ID>.json` at the repository root and, on success,
    /// note its path in `table`, relative to that root so that what a
    /// run prints does not depend on where the checkout lives.
    pub fn write_repo_root(&self, table: &mut Table) {
        let name = format!("BENCH_{}.json", self.experiment.to_uppercase());
        // crates/bench/ -> crates/ -> repo root.
        let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        if fs::write(root.join(&name), self.to_json()).is_ok() {
            table.note(format!("machine-readable summary -> {name}"));
        }
    }
}

/// Summary statistics of a latency sample set (microsecond inputs).
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// Sample count.
    pub count: usize,
    /// Mean, milliseconds.
    pub mean_ms: f64,
    /// Median, milliseconds.
    pub p50_ms: f64,
    /// 95th percentile, milliseconds.
    pub p95_ms: f64,
}

/// Summarize a set of microsecond latencies via [`Histogram::summary`].
pub fn summarize_us(values: &[u64]) -> LatencySummary {
    if values.is_empty() {
        return LatencySummary::default();
    }
    let mut h = Histogram::new();
    for &v in values {
        h.record(SimDuration::from_micros(v));
    }
    let ms = |d: SimDuration| d.as_micros() as f64 / 1000.0;
    let p95 = h.quantile(0.95);
    let s = h.summary();
    LatencySummary { count: s.count, mean_ms: ms(s.mean), p50_ms: ms(s.p50), p95_ms: ms(p95) }
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_violation_notes_are_reported() {
        let mut table = Table::new("E0", "t", "c", &["x"]);
        table.note("encode-once holds: 1 encode per broadcast");
        table.note("machine-readable summary -> BENCH_E0.json");
        assert_eq!(table.violations().count(), 0);
        table.note("determinism VIOLATION: same-seed sweeps disagree");
        let found: Vec<&str> = table.violations().collect();
        assert_eq!(found, ["determinism VIOLATION: same-seed sweeps disagree"]);
    }
}
