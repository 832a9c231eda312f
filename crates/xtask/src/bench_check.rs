//! `bench-check` — gate over the committed `BENCH_*.json` baselines.
//!
//! Every bench target of `crates/bench` emits a machine-readable report;
//! the copies committed at the repo root are the **recorded trajectory**.
//! This subcommand compares a fresh run against those baselines. How an
//! id is compared follows from the unit its report records:
//!
//! * **exact** ids ([`EXACT_UNITS`]: work counters, network bytes, ratios
//!   of counters) are the same on any host and under any load, so **any**
//!   difference **fails**, and so does an exact id missing from the
//!   current run;
//! * every other id is a **clock reading**. A CI runner and the recording
//!   host do not share a clock, so these never fail: an id **warns** when
//!   its median moved by more than the spread the two runs recorded
//!   themselves — `(q3 − q1) / median` of the baseline plus that of the
//!   current run, the quantity `benchmark/spread.py` reports — and a
//!   missing one warns;
//! * a baseline file with no current counterpart **fails** (the bench was
//!   dropped or renamed without updating the trajectory); brand-new
//!   current ids are listed informationally (commit a new baseline).
//!
//! Lower is better for every id the benches emit, so a clock reading that
//! moved down is reported as an improvement to re-record, not a warning.
//! The JSON parser below is hand-rolled for exactly the schema
//! `mpq_bench::report` writes — this crate stays dependency-free.

use std::path::Path;

/// Units whose ids are exact; mirrors `mpq_bench::report::EXACT_UNITS`
/// (the reporter refuses to record a clock reading under one of them).
pub const EXACT_UNITS: [&str; 3] = ["count", "bytes", "ratio"];

/// One finding of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Finding {
    /// An exact id differs or is missing, or a report is; fails the run.
    Fail(String),
    /// A clock reading outside its band, or one that is missing.
    Warn(String),
    /// Informational (new metrics, per-metric verdicts).
    Note(String),
}

impl Finding {
    fn is_fail(&self) -> bool {
        matches!(self, Finding::Fail(_))
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Finding::Fail(m) => write!(f, "FAIL  {m}"),
            Finding::Warn(m) => write!(f, "warn  {m}"),
            Finding::Note(m) => write!(f, "      {m}"),
        }
    }
}

/// One parsed metric row.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub id: String,
    pub unit: String,
    pub median: f64,
    /// First and third quartile of the samples behind `median`.
    pub quartiles: (f64, f64),
}

impl Metric {
    fn is_exact(&self) -> bool {
        EXACT_UNITS.contains(&self.unit.as_str())
    }

    /// Interquartile range over median: the run's own relative spread.
    fn spread(&self) -> f64 {
        (self.quartiles.1 - self.quartiles.0) / self.median
    }
}

/// One parsed `BENCH_<name>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub bench: String,
    pub metrics: Vec<Metric>,
}

/// Compares one current report against its baseline.
pub fn compare_reports(baseline: &Report, current: &Report) -> Vec<Finding> {
    let bench = &baseline.bench;
    let mut findings = Vec::new();
    for base in &baseline.metrics {
        let id = &base.id;
        let cur = current.metrics.iter().find(|m| m.id == base.id);
        findings.push(match cur {
            None if base.is_exact() => Finding::Fail(format!(
                "{bench}: exact metric `{id}` missing from the current run"
            )),
            None => Finding::Warn(format!(
                "{bench}: metric `{id}` missing from the current run"
            )),
            Some(cur) if base.is_exact() => {
                if cur.median == base.median && cur.unit == base.unit {
                    Finding::Note(format!("{bench}: `{id}` exact ({})", base.median))
                } else {
                    Finding::Fail(format!(
                        "{bench}: `{id}` is exact and moved: baseline {} {}, current {} {}",
                        base.median, base.unit, cur.median, cur.unit
                    ))
                }
            }
            Some(cur) => {
                let drift = cur.median / base.median - 1.0;
                let band = base.spread() + cur.spread();
                let verdict = format!(
                    "{bench}: `{id}` {:+.1}% of baseline {:.4} {} (band ±{:.1}% from both runs' quartiles)",
                    100.0 * drift,
                    base.median,
                    base.unit,
                    100.0 * band
                );
                // A zero median makes both NaN, which compares false twice
                // and lands on the warning.
                if drift.abs() <= band {
                    Finding::Note(verdict)
                } else if drift < 0.0 {
                    Finding::Note(format!("{verdict}: faster, re-record the baseline"))
                } else {
                    Finding::Warn(verdict)
                }
            }
        });
    }
    for cur in &current.metrics {
        if !baseline.metrics.iter().any(|m| m.id == cur.id) {
            findings.push(Finding::Note(format!(
                "{bench}: new metric `{}` (no baseline; commit an updated BENCH file to track it)",
                cur.id
            )));
        }
    }
    findings
}

/// Runs the whole check: every `BENCH_*.json` under `baseline_dir` must
/// have a current counterpart, and no exact metric may differ. Returns
/// the findings and whether the check passed.
pub fn run(baseline_dir: &Path, current_dir: &Path) -> (Vec<Finding>, bool) {
    let mut findings = Vec::new();
    let baselines = bench_files(baseline_dir);
    if baselines.is_empty() {
        findings.push(Finding::Fail(format!(
            "no BENCH_*.json baselines found under {}",
            baseline_dir.display()
        )));
    }
    for name in baselines {
        let base = match load_report(&baseline_dir.join(&name)) {
            Ok(r) => r,
            Err(e) => {
                findings.push(Finding::Fail(format!("{name}: unreadable baseline: {e}")));
                continue;
            }
        };
        let cur_path = current_dir.join(&name);
        if !cur_path.is_file() {
            findings.push(Finding::Fail(format!(
                "{name}: baseline exists but the current run produced no such report \
                 (looked in {})",
                current_dir.display()
            )));
            continue;
        }
        match load_report(&cur_path) {
            Ok(cur) => findings.extend(compare_reports(&base, &cur)),
            Err(e) => findings.push(Finding::Fail(format!("{name}: unreadable current: {e}"))),
        }
    }
    let ok = !findings.iter().any(Finding::is_fail);
    (findings, ok)
}

/// Sorted `BENCH_*.json` file names directly under `dir`.
fn bench_files(dir: &Path) -> Vec<String> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().to_string();
            if name.starts_with("BENCH_") && name.ends_with(".json") && entry.path().is_file() {
                out.push(name);
            }
        }
    }
    out.sort();
    out
}

/// Loads and parses one report file.
pub fn load_report(path: &Path) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    parse_report(&text)
}

/// Parses the `mpq_bench::report` schema out of its JSON text.
pub fn parse_report(text: &str) -> Result<Report, String> {
    let value = Json::parse(text)?;
    let bench = value
        .get("bench")
        .and_then(Json::as_str)
        .ok_or("missing string field `bench`")?
        .to_string();
    let mut metrics = Vec::new();
    let rows = value
        .get("metrics")
        .and_then(Json::as_array)
        .ok_or("missing array field `metrics`")?;
    for row in rows {
        let id = row
            .get("id")
            .and_then(Json::as_str)
            .ok_or("metric without string `id`")?
            .to_string();
        let num = |key: &str| row.get(key).and_then(Json::as_num);
        let median =
            num("median").ok_or_else(|| format!("metric `{id}` without numeric `median`"))?;
        let unit = row
            .get("unit")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("metric `{id}` without string `unit`"))?
            .to_string();
        metrics.push(Metric {
            id,
            unit,
            median,
            // A report without quartiles claims no spread of its own.
            quartiles: (num("q1").unwrap_or(median), num("q3").unwrap_or(median)),
        });
    }
    Ok(Report { bench, metrics })
}

// ---------------------------------------------------------------------------
// Minimal JSON reader — exactly enough for the report schema.
// ---------------------------------------------------------------------------

/// A parsed JSON value (no number/string edge cases beyond what the
/// reporter emits).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect_byte(b: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", char::from(want), *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_keyword(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_keyword(b: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected `{word}` at byte {}", *pos))
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect_byte(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect_byte(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect_byte(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect_byte(b, pos, b'"')?;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = b.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(format!("unsupported escape `\\{}`", char::from(other))),
                }
            }
            _ => {
                // Collect the full UTF-8 sequence starting at this byte.
                let start = *pos - 1;
                let mut end = *pos;
                while end < b.len() && (b[end] & 0xC0) == 0x80 {
                    end += 1;
                }
                let s = std::str::from_utf8(&b[start..end]).map_err(|_| "invalid UTF-8")?;
                out.push_str(s);
                *pos = end;
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "invalid number bytes")?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    /// `(id, unit, median, q1, q3)` rows.
    fn report(bench: &str, rows: &[(&str, &str, f64, f64, f64)]) -> Report {
        Report {
            bench: bench.to_string(),
            metrics: rows
                .iter()
                .map(|&(id, unit, median, q1, q3)| Metric {
                    id: id.to_string(),
                    unit: unit.to_string(),
                    median,
                    quartiles: (q1, q3),
                })
                .collect(),
        }
    }

    #[test]
    fn parses_the_reporter_schema() {
        let text = r#"{
  "bench": "fig2",
  "git_rev": "abc1234",
  "full_scale": false,
  "config": { "queries_per_point": "3" },
  "metrics": [
    { "id": "wtime_linear16_w2", "unit": "ms", "median": 12.5, "q1": 12.25, "q3": 13.0, "p95": 13.1, "samples": 11 },
    { "id": "work_plans_max_linear16_w2", "unit": "count", "median": 1753089.0, "q1": 1753089.0, "q3": 1753089.0, "p95": 1753089.0, "samples": 1 }
  ]
}"#;
        let r = parse_report(text).unwrap();
        assert_eq!(
            r,
            report(
                "fig2",
                &[
                    ("wtime_linear16_w2", "ms", 12.5, 12.25, 13.0),
                    (
                        "work_plans_max_linear16_w2",
                        "count",
                        1753089.0,
                        1753089.0,
                        1753089.0
                    ),
                ]
            ),
            "quartiles survive the hand-rolled parser"
        );
        assert!(!r.metrics[0].is_exact());
        assert_eq!(r.metrics[0].spread(), 0.06);
        assert!(r.metrics[1].is_exact());
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse(r#"{"a": }"#).is_err());
        assert!(Json::parse(r#"{"a": 1} trailing"#).is_err());
        assert!(parse_report(r#"{"metrics": []}"#).is_err(), "no bench name");
        assert!(
            parse_report(r#"{"bench": "x"}"#).is_err(),
            "no metrics array"
        );
        assert!(
            parse_report(r#"{"bench": "x", "metrics": [{"id": "a", "median": 1}]}"#).is_err(),
            "no unit: the id's class would be a guess"
        );
    }

    #[test]
    fn within_noise_is_clean() {
        // 4% up, inside the 3% + 2% the two runs spread themselves.
        let base = report("kernels", &[("a", "ms", 10.0, 9.9, 10.2)]);
        let cur = report("kernels", &[("a", "ms", 10.4, 10.3, 10.508)]);
        let findings = compare_reports(&base, &cur);
        assert!(findings.iter().all(|f| matches!(f, Finding::Note(_))));
    }

    #[test]
    fn timing_outside_its_band_warns_and_never_fails() {
        let base = report("kernels", &[("a", "ms", 10.0, 9.9, 10.2)]);
        for slower in [10.6, 21.0, 1000.0] {
            let cur = report("kernels", &[("a", "ms", slower, slower, slower)]);
            let findings = compare_reports(&base, &cur);
            assert!(matches!(findings[0], Finding::Warn(_)), "{findings:?}");
        }
        // Faster beyond the band is news, not a warning.
        let cur = report("kernels", &[("a", "ms", 5.0, 5.0, 5.0)]);
        assert!(matches!(compare_reports(&base, &cur)[0], Finding::Note(_)));
        // A degenerate baseline cannot vouch for anything.
        let zero = report("kernels", &[("a", "ms", 0.0, 0.0, 0.0)]);
        assert!(matches!(compare_reports(&zero, &cur)[0], Finding::Warn(_)));
    }

    #[test]
    fn exact_drift_of_one_count_fails() {
        let base = report(
            "fig2",
            &[("plans", "count", 1753089.0, 1753089.0, 1753089.0)],
        );
        for (moved, unit) in [
            (1753090.0, "count"),
            (1753088.0, "count"),
            (1753089.0, "ms"),
        ] {
            let cur = report("fig2", &[("plans", unit, moved, moved, moved)]);
            assert!(compare_reports(&base, &cur)[0].is_fail(), "{moved} {unit}");
        }
        assert!(matches!(compare_reports(&base, &base)[0], Finding::Note(_)));
        for unit in EXACT_UNITS {
            let base = report("fig3", &[("x", unit, 1.5, 1.5, 1.5)]);
            let cur = report("fig3", &[("x", unit, 1.5000000000000002, 1.5, 1.5)]);
            assert!(compare_reports(&base, &cur)[0].is_fail(), "{unit} is exact");
        }
    }

    #[test]
    fn missing_and_new_metrics_are_soft() {
        let base = report("kernels", &[("gone", "ms", 10.0, 10.0, 10.0)]);
        let cur = report("kernels", &[("fresh", "count", 10.0, 10.0, 10.0)]);
        let findings = compare_reports(&base, &cur);
        assert!(matches!(findings[0], Finding::Warn(_)), "missing → warn");
        assert!(matches!(findings[1], Finding::Note(_)), "new → note");
    }

    #[test]
    fn missing_exact_metric_fails() {
        let base = report(
            "fig2",
            &[("net_bytes_linear16_w1", "bytes", 1515.0, 1515.0, 1515.0)],
        );
        let cur = report("fig2", &[]);
        assert!(compare_reports(&base, &cur)[0].is_fail());
    }

    #[test]
    fn end_to_end_over_directories() {
        let dir = std::env::temp_dir().join(format!("bench_check_{}", std::process::id()));
        let baseline = dir.join("baseline");
        let current = dir.join("current");
        std::fs::create_dir_all(&baseline).unwrap();
        std::fs::create_dir_all(&current).unwrap();
        let doc = |ms: f64, count: u64| {
            format!(
                r#"{{"bench":"kernels","metrics":[
                {{"id":"a","unit":"ms","median":{ms},"q1":{ms},"q3":{ms},"p95":{ms},"samples":3}},
                {{"id":"n","unit":"count","median":{count}.0,"q1":{count}.0,"q3":{count}.0,"p95":{count}.0,"samples":1}}]}}"#
            )
        };
        std::fs::write(baseline.join("BENCH_kernels.json"), doc(10.0, 642755)).unwrap();
        // A clock that reads three times slower passes (with a warning).
        std::fs::write(current.join("BENCH_kernels.json"), doc(30.0, 642755)).unwrap();
        let (findings, ok) = run(&baseline, &current);
        assert!(ok, "{findings:?}");
        assert!(findings.iter().any(|f| matches!(f, Finding::Warn(_))));

        // One count off by one does not.
        std::fs::write(current.join("BENCH_kernels.json"), doc(10.0, 642756)).unwrap();
        let (findings, ok) = run(&baseline, &current);
        assert!(!ok, "{findings:?}");

        // Dropping the current report is a hard failure.
        std::fs::remove_file(current.join("BENCH_kernels.json")).unwrap();
        let (findings, ok) = run(&baseline, &current);
        assert!(!ok);
        assert!(findings.iter().any(Finding::is_fail));

        // An empty baseline directory is a hard failure too.
        let (_, ok) = run(&current, &baseline);
        assert!(!ok);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
