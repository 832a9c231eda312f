//! The pqopt benchmark runner. See `README.md` beside `Cargo.toml`.
//!
//! `--workload W --seed N --seconds S --trace 0|1` measures one workload
//! and prints one JSON object as the last line of standard output.
//! Without `--workload` it runs every workload, one process each, and
//! writes `benchmark/out/result.json`; `--repeat-check` does that twice
//! and fails if an end-to-end metric moved by more than its bound.

mod est;
mod gen;
mod layers;
mod measure;
mod suite;
mod sys;
mod trace;
mod workload;

use measure::{Outcome, Tally};
use std::process::ExitCode;

/// How long one run measures; `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: u32 = 30;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat_check: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 12,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        repeat_check: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat-check" => args.repeat_check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`. Values print with all their digits (Rust's
/// shortest round-trip form).
pub fn result_json(correct: bool, tally: Tally, metrics: &[(String, &'static str, f64)]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        metrics_json(
            metrics
                .iter()
                .map(|(name, unit, value)| (name.as_str(), *unit, *value))
        )
    )
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_json<'a>(metrics: impl Iterator<Item = (&'a str, &'a str, f64)>) -> String {
    let body: Vec<String> = metrics
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let spec = workload::specs(false)
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    std::fs::create_dir_all(workload::out_dir()).map_err(|e| format!("benchmark/out: {e}"))?;
    let Outcome {
        metrics,
        tally,
        oracle_disputes,
    } = if args.trace {
        layers::per_layer(&spec, args.seed, args.seconds)?
    } else {
        measure::end_to_end(&spec, args.seed, args.seconds)?
    };
    // A metric is always a finite number; anything else is a bug here.
    let finite = metrics.iter().all(|(_, _, v)| v.is_finite());
    let correct = tally.failed == 0 && oracle_disputes == 0 && finite && tally.attempted > 0;
    println!("# workload {name}: {}", spec.why);
    println!(
        "# seed {} seconds {} trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (metric, unit, value) in &metrics {
        println!("{metric} {unit} {value}");
    }
    println!("{}", result_json(correct, tally, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match &args.workload {
        Some(name) => run_one(name, &args),
        None => suite::run(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: outputs were not correct");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use measure::END_TO_END;

    #[test]
    fn result_json_has_exactly_the_contract_keys() {
        let tally = Tally {
            attempted: 10,
            failed: 0,
        };
        let metrics = [
            ("qps".to_string(), "1/s", 10234.567891),
            ("setup_s".to_string(), "s", 0.25),
        ];
        assert_eq!(
            result_json(true, tally, &metrics),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"qps\": {\"value\": 10234.567891, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload stream_zipf --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("stream_zipf"), 7, 3.0, true)
        );
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }

    /// `BENCHMARK.json` as the tables in this crate define it.
    fn benchmark_json() -> String {
        let workloads: Vec<String> = workload::specs(false)
            .iter()
            .filter(|s| s.gated)
            .map(|s| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", s.name, s.why))
            .collect();
        let end_to_end: Vec<String> = END_TO_END
            .iter()
            .map(|(name, unit, better, bound)| {
                format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}")
            })
            .collect();
        let per_layer: Vec<String> = layers::per_layer_table()
            .iter()
            .map(|(name, unit, better)| {
                format!(
                    "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}"
                )
            })
            .collect();
        format!(
            "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
             \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
             \"per_layer\": [\n{}\n  ]\n}}\n",
            workloads.join(",\n"),
            end_to_end.join(",\n"),
            per_layer.join(",\n")
        )
    }

    /// Regenerate with
    /// `cargo test print_benchmark_json -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn print_benchmark_json() {
        print!("{}", benchmark_json());
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(committed, benchmark_json());
        assert!(layers::per_layer_table().len() <= 128);
        for s in workload::specs(false) {
            assert!(s.why.len() <= 200 && !s.why.contains('\n'));
        }
    }

    /// All five workloads at about 1/20 size, untraced and traced: every
    /// answer correct, every metric present, by name and in order.
    #[test]
    fn smoke_run_of_every_workload_is_correct() {
        // Socket paths and `out/` are relative to the checkout root.
        std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).unwrap();
        std::fs::create_dir_all(workload::out_dir()).unwrap();
        for spec in workload::specs(true) {
            let plain = measure::end_to_end(&spec, 12, 0.2).unwrap();
            assert_eq!(plain.tally.failed, 0, "{}", spec.name);
            assert!(
                plain.tally.attempted > 0 && plain.oracle_disputes == 0,
                "{}",
                spec.name
            );
            let names: Vec<&str> = plain.metrics.iter().map(|m| m.0.as_str()).collect();
            assert_eq!(names, END_TO_END.map(|m| m.0), "{}", spec.name);
            assert!(
                plain.metrics.iter().all(|m| m.2.is_finite() && m.2 > 0.0),
                "{}: {:?}",
                spec.name,
                plain.metrics
            );

            let traced = layers::per_layer(&spec, 12, 0.2).unwrap();
            assert_eq!(traced.tally.failed, 0, "{}", spec.name);
            let got: Vec<(&str, &str)> =
                traced.metrics.iter().map(|m| (m.0.as_str(), m.1)).collect();
            let table = layers::per_layer_table();
            let want: Vec<(&str, &str)> = table.iter().map(|m| (m.0.as_str(), m.1)).collect();
            assert_eq!(got, want, "{}", spec.name);
            assert!(
                traced.metrics.iter().all(|m| m.2.is_finite()),
                "{}",
                spec.name
            );
            let value = |name: &str| traced.metrics.iter().find(|m| m.0 == name).unwrap().2;
            assert_eq!(
                value("cache.lookups") > 0.0,
                spec.cache_bytes > 0,
                "{}",
                spec.name
            );
            assert_eq!(
                value("socket.frames_per_query") > 0.0,
                spec.sockets,
                "{}",
                spec.name
            );
            // Stages are timed independently, so in an unoptimized build of
            // tiny queries a worker that starts before `send` has returned
            // shows as overlap; a broken span join would show as ~0.
            let share = value("trace.stage_sum_share");
            assert!(
                (0.9..1.5).contains(&share),
                "{}: stage sum {share}",
                spec.name
            );
        }
    }
}
