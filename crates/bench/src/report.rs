//! Machine-readable benchmark reports: `BENCH_<name>.json`.
//!
//! Every bench target emits one JSON file next to its human-readable
//! table so the measured trajectory can be committed and gated
//! (`cargo run -p xtask -- bench-check`). The schema is deliberately tiny
//! and hand-rolled — no JSON dependency on either end:
//!
//! ```json
//! {
//!   "bench": "fig2",
//!   "git_rev": "1ed79a8",
//!   "full_scale": false,
//!   "config": { "queries_per_point": "3" },
//!   "metrics": [
//!     { "id": "work_plans_max_linear16_w2", "unit": "count",
//!       "median": 1638258.0, "q1": 1638258.0, "q3": 1638258.0,
//!       "p95": 1638258.0, "samples": 1 },
//!     { "id": "wtime_linear16_w2", "unit": "ms",
//!       "median": 41.2, "q1": 40.8, "q3": 41.9, "p95": 42.0, "samples": 3 }
//!   ]
//! }
//! ```
//!
//! The unit decides how the checker treats an id. [`EXACT_UNITS`] are
//! counters, byte totals and quotients of counters: the same on any host
//! and under any load, so any difference from the baseline fails. Every
//! other unit is a clock reading, compared only against the spread
//! (`q3 − q1` over `median`) the two runs themselves recorded, and only
//! ever warned about. Lower is better for every id.
//! Files land in `$MPQ_BENCH_OUT` when set, else the current directory.

use std::fmt::Write as _;
use std::path::PathBuf;

/// Units of ids that are exact: work counters, network bytes, and ratios
/// of two such counts.
pub const EXACT_UNITS: [&str; 3] = ["count", "bytes", "ratio"];

/// One summarized metric of a bench run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable identifier compared across revisions.
    pub id: String,
    /// Unit label; membership in [`EXACT_UNITS`] picks the checker's rule.
    pub unit: String,
    /// Median of the samples.
    pub median: f64,
    /// First and third quartile of the samples (linear interpolation).
    pub quartiles: (f64, f64),
    /// 95th percentile of the samples (nearest-rank).
    pub p95: f64,
    /// Sample count behind the summary.
    pub samples: usize,
}

/// Builder for one `BENCH_<name>.json` report.
#[derive(Debug, Clone)]
pub struct BenchReport {
    name: String,
    config: Vec<(String, String)>,
    metrics: Vec<Metric>,
}

impl BenchReport {
    /// Starts a report for bench target `name`. The `full_scale` flag and
    /// git revision are captured automatically at write time.
    pub fn new(name: &str) -> BenchReport {
        BenchReport {
            name: name.to_string(),
            config: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Records one configuration key (worker counts, query sizes, ...) so
    /// a committed baseline documents what it measured.
    pub fn config(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        self.config.push((key.to_string(), value.to_string()));
        self
    }

    /// Records one exact value: a counter, a byte total, or a ratio of
    /// counters (`unit` must be one of [`EXACT_UNITS`]).
    pub fn exact(&mut self, id: &str, unit: &str, value: f64) -> &mut Self {
        assert!(EXACT_UNITS.contains(&unit), "{id}: {unit} is not exact");
        self.summarize(id, unit, &[value])
    }

    /// Summarizes clock readings (anything that depends on the host).
    pub fn timing(&mut self, id: &str, unit: &str, samples: &[f64]) -> &mut Self {
        assert!(!EXACT_UNITS.contains(&unit), "{id}: {unit} is exact");
        self.summarize(id, unit, samples)
    }

    fn summarize(&mut self, id: &str, unit: &str, samples: &[f64]) -> &mut Self {
        assert!(!samples.is_empty(), "metric {id} has no samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        self.metrics.push(Metric {
            id: id.to_string(),
            unit: unit.to_string(),
            median: crate::quantile(&sorted, 0.5),
            quartiles: (
                crate::quantile(&sorted, 0.25),
                crate::quantile(&sorted, 0.75),
            ),
            p95: sorted[((sorted.len() * 95).div_ceil(100)).clamp(1, sorted.len()) - 1],
            samples: samples.len(),
        });
        self
    }

    /// The metrics recorded so far.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Serializes the report to its JSON form.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"bench\": {},", json_str(&self.name));
        let _ = writeln!(s, "  \"git_rev\": {},", json_str(&git_rev()));
        let _ = writeln!(s, "  \"full_scale\": {},", crate::full_scale());
        s.push_str("  \"config\": {");
        for (i, (k, v)) in self.config.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\n    {}: {}", json_str(k), json_str(v));
        }
        if !self.config.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("},\n  \"metrics\": [");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{ \"id\": {}, \"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"p95\": {}, \"samples\": {} }}",
                json_str(&m.id),
                json_str(&m.unit),
                json_num(m.median),
                json_num(m.quartiles.0),
                json_num(m.quartiles.1),
                json_num(m.p95),
                m.samples,
            );
        }
        if !self.metrics.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }

    /// Writes `BENCH_<name>.json` into `$MPQ_BENCH_OUT` (or the current
    /// directory). Errors are printed, not fatal — a bench run on a
    /// read-only checkout still shows its tables.
    pub fn write(&self) {
        let dir = std::env::var("MPQ_BENCH_OUT").unwrap_or_else(|_| ".".to_string());
        let path = PathBuf::from(dir).join(format!("BENCH_{}.json", self.name));
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => println!("\nwrote {}", path.display()),
            Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
        }
    }
}

/// JSON string literal (ASCII-safe escaping; ids and config values are
/// plain identifiers in practice).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite floats with enough digits to round-trip; integral values print
/// without an exponent so the files diff cleanly.
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metrics must be finite");
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The current short git revision, or "unknown" outside a checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries_are_median_and_p95() {
        let mut r = BenchReport::new("t");
        let samples: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        r.timing("m", "ms", &samples);
        let m = &r.metrics()[0];
        assert_eq!(m.median, 10.5);
        assert_eq!(m.quartiles, (5.75, 15.25));
        assert_eq!(m.p95, 19.0);
        assert_eq!(m.samples, 20);
    }

    #[test]
    fn single_sample_summaries_degenerate_cleanly() {
        let mut r = BenchReport::new("t");
        r.timing("m", "ms", &[4.0]);
        let m = &r.metrics()[0];
        assert_eq!((m.median, m.p95, m.samples), (4.0, 4.0, 1));
        assert_eq!(m.quartiles, (4.0, 4.0));
    }

    #[test]
    fn json_shape_is_stable() {
        let mut r = BenchReport::new("demo");
        r.config("tables", 16);
        r.timing("a", "ms", &[2.0, 1.0, 3.0]);
        r.exact("b", "count", 100.0);
        let json = r.to_json();
        assert!(json.contains("\"bench\": \"demo\""));
        assert!(json.contains("\"tables\": \"16\""));
        assert!(json.contains(
            "\"id\": \"a\", \"unit\": \"ms\", \"median\": 2.0, \"q1\": 1.5, \"q3\": 2.5, \"p95\": 3.0"
        ));
        assert!(json.contains("\"id\": \"b\", \"unit\": \"count\", \"median\": 100.0"));
        assert!(json.contains("\"git_rev\": \""));
    }

    #[test]
    #[should_panic(expected = "is not exact")]
    fn a_clock_reading_cannot_be_recorded_as_exact() {
        BenchReport::new("t").exact("m", "ms", 4.0);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn numbers_round_trip() {
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(0.125), "0.125");
    }
}
