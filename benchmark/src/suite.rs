//! The whole set: every workload, untraced then traced, one process per
//! run, collected into `benchmark/out/result.json`; and the repeat check
//! that runs the set twice and compares it with the benchmark's own
//! bounds.

use crate::measure::END_TO_END;
use crate::sys::host_stamp;
use crate::workload::{out_dir, specs};
use crate::{metrics_json, Args};
use std::collections::BTreeMap;
use std::process::Command;

type Values = BTreeMap<String, (String, f64)>;

/// What one child process reported.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Values,
}

/// Parses a child's standard output: `name unit value` lines, then the
/// result line (whose tallies are read by key; the format is ours).
fn parse_report(stdout: &str) -> Option<Report> {
    let last = stdout.lines().last()?;
    let number_after = |key: &str| -> Option<u64> {
        let rest = &last[last.find(key)? + key.len()..];
        rest.trim_start_matches([':', ' '])
            .split(|c: char| !c.is_ascii_digit())
            .next()?
            .parse()
            .ok()
    };
    let metrics = stdout
        .lines()
        .filter(|l| !l.starts_with(['#', '{']))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let (name, unit, value) = (parts.next()?, parts.next()?, parts.next()?);
            Some((name.to_string(), (unit.to_string(), value.parse().ok()?)))
        })
        .collect();
    Some(Report {
        correct: last.contains("\"correct\": true"),
        attempted: number_after("\"attempted\"")?,
        failed: number_after("\"failed\"")?,
        metrics,
    })
}

fn run_child(workload: &str, args: &Args, trace: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("{workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            u8::from(trace),
            out.status
        ));
    }
    parse_report(&stdout).ok_or_else(|| format!("{workload}: unreadable result"))
}

fn json_values(values: &Values) -> String {
    metrics_json(
        values
            .iter()
            .map(|(name, (unit, value))| (name.as_str(), unit.as_str(), *value)),
    )
}

/// One full set: `workload -> (untraced report, traced report)`.
fn run_set(args: &Args) -> Result<BTreeMap<&'static str, (Report, Report)>, String> {
    specs(false)
        .iter()
        .map(|spec| {
            Ok((
                spec.name,
                (
                    run_child(spec.name, args, false)?,
                    run_child(spec.name, args, true)?,
                ),
            ))
        })
        .collect()
}

/// How far `second` is from `first`, as a share of `first`.
fn moved(first: f64, second: f64) -> f64 {
    if first == 0.0 {
        0.0
    } else {
        (second - first).abs() / first.abs()
    }
}

pub fn run(args: &Args) -> Result<bool, String> {
    let stamp = host_stamp();
    let sets = (0..if args.repeat_check { 2 } else { 1 })
        .map(|_| run_set(args))
        .collect::<Result<Vec<_>, _>>()?;

    let mut correct = true;
    let sets_json: Vec<String> = sets
        .iter()
        .map(|set| {
            let workloads: Vec<String> = set
                .iter()
                .map(|(name, (plain, traced))| {
                    correct &= plain.correct && traced.correct;
                    format!(
                        "\"{name}\": {{\"attempted\": {}, \"failed\": {}, \"end_to_end\": {}, \"per_layer\": {}}}",
                        plain.attempted + traced.attempted,
                        plain.failed + traced.failed,
                        json_values(&plain.metrics),
                        json_values(&traced.metrics)
                    )
                })
                .collect();
            format!("{{{}}}", workloads.join(", "))
        })
        .collect();
    let stamp_json: Vec<String> = stamp
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
        .collect();
    let json = format!(
        "{{\"stamp\": {{{}}}, \"seed\": {}, \"seconds\": {}, \"sets\": [{}]}}\n",
        stamp_json.join(", "),
        args.seed,
        args.seconds,
        sets_json.join(", ")
    );
    let path = out_dir().join("result.json");
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, json))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());

    if let [first, second] = sets.as_slice() {
        println!("# repeat check: workload metric first second moved bound");
        for (name, (plain, _)) in first {
            // A workload the driver does not gate is shown, not judged.
            let gated = specs(false).iter().any(|s| s.name == *name && s.gated);
            for (metric, _, _, bound) in END_TO_END {
                let (a, b) = (plain.metrics[metric].1, second[name].0.metrics[metric].1);
                let share = moved(a, b);
                let verdict = match (share > bound, gated) {
                    (false, _) => "ok",
                    (true, true) => "MOVED",
                    (true, false) => "moved (not gated)",
                };
                println!("# {name} {metric} {a} {b} {share:.4} {bound} {verdict}");
                correct &= share <= bound || !gated;
            }
        }
    }
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_output_parses_back() {
        let stdout = "# workload w seed 1 seconds 2 trace 0\nqps 1/s 1234.5\nsetup_s s 0.001\n\
                      {\"correct\": true, \"attempted\": 120, \"failed\": 3, \"metrics\": {}}\n";
        let report = parse_report(stdout).unwrap();
        assert!(report.correct);
        assert_eq!((report.attempted, report.failed), (120, 3));
        assert_eq!(report.metrics["qps"], ("1/s".to_string(), 1234.5));
        assert_eq!(report.metrics.len(), 2);
        assert!(parse_report("").is_none());
    }

    #[test]
    fn moved_is_relative_to_the_first_set() {
        assert!((moved(100.0, 108.0) - 0.08).abs() < 1e-12);
        assert!((moved(100.0, 92.0) - 0.08).abs() < 1e-12);
        assert_eq!(moved(0.0, 5.0), 0.0);
    }
}
