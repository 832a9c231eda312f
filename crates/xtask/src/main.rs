//! `xtask` — project gates that neither rustc nor clippy holds.
//!
//! ```text
//! cargo run -p xtask -- bench-check --current D [--baseline D]
//!                                       # compare BENCH_*.json against baselines
//! cargo run -p xtask -- model-check [--depth N] [--schedules N] [...]
//!                                       # exhaustive schedule-space model check
//!                                       # (delegates to the pqopt_model binary)
//! ```
//!
//! **bench-check** ([`bench_check`]) compares freshly-emitted
//! `BENCH_*.json` reports against the committed baselines and fails when
//! an exact id (a work counter, a byte total) differs at all; clock
//! readings only warn. **model-check** sweeps the service's schedule
//! space.
//!
//! Panic- and clock-freedom are clippy lints (`[workspace.lints.clippy]`
//! in the root `Cargo.toml`, the disallowed macros, methods and types in
//! `clippy.toml`); each audited site carries an `#[expect(<lint>, reason =
//! "…")]`, and an expectation left unfulfilled fails `-D warnings`. This
//! crate's one test, `real_tree_is_clean`, runs that clippy step so that
//! the gate stays in the plain test run.

#![forbid(unsafe_code)]

mod bench_check;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workspace root: two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .unwrap_or(manifest)
        .to_path_buf()
}

/// The `cargo` that runs this process (`cargo` on the `PATH` otherwise).
fn cargo() -> String {
    std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string())
}

const USAGE: &str =
    "usage: cargo run -p xtask -- bench-check --current DIR [--baseline DIR]\n       \
     cargo run -p xtask -- model-check [--depth N] [--schedules N] [--scenario NAME] \
[--seed-violation]";

/// `model-check`: delegate to the `pqopt_model` binary (release — the
/// sweep is compute-bound), forwarding flags and the exit code. Kept as
/// an xtask subcommand so CI and developers have one analysis
/// entry point.
fn run_model_check(rest: &[String]) -> ExitCode {
    let status = std::process::Command::new(cargo())
        .args(["run", "-q", "--release", "-p", "pqopt_model", "--", "check"])
        .args(rest)
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xtask model-check: cannot run pqopt_model: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `model-check` forwards its flags verbatim to the model checker.
    if args.first().map(String::as_str) == Some("model-check") {
        return run_model_check(&args[1..]);
    }
    let mut baseline: Option<PathBuf> = None;
    let mut current: Option<PathBuf> = None;
    let mut bench_check = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "bench-check" => bench_check = true,
            "--baseline" => match it.next() {
                Some(dir) => baseline = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--baseline needs a value");
                    return ExitCode::FAILURE;
                }
            },
            "--current" => match it.next() {
                Some(dir) => current = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--current needs a value");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    if !bench_check {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let baseline = baseline.unwrap_or_else(workspace_root);
    let Some(current) = current else {
        eprintln!("bench-check needs --current DIR (where the fresh BENCH_*.json live)");
        return ExitCode::FAILURE;
    };
    let (findings, ok) = bench_check::run(&baseline, &current);
    for f in &findings {
        println!("{f}");
    }
    if ok {
        println!("xtask bench-check: every exact id matches its baseline");
        ExitCode::SUCCESS
    } else {
        println!("xtask bench-check: exact id(s) or report(s) differ from the baseline");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_macros)]
    use super::*;

    /// The gate itself: CI's clippy step passes on the real tree. Its own
    /// target directory keeps it off the lock of the build running this
    /// test. A clippy that cannot start fails the test: a gate that skips
    /// guards nothing.
    #[test]
    fn real_tree_is_clean() {
        let out = std::process::Command::new(cargo())
            .current_dir(workspace_root())
            .args([
                "clippy",
                "--offline",
                "--workspace",
                "--all-targets",
                "--target-dir",
                "target/clippy-gate",
                "--",
                "-D",
                "warnings",
            ])
            .output()
            .expect("cargo clippy must start");
        assert!(
            out.status.success(),
            "cargo clippy found warnings in the real tree:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    #[test]
    fn workspace_root_finds_the_manifest() {
        assert!(workspace_root().join("Cargo.toml").is_file());
        assert!(workspace_root().join("clippy.toml").is_file());
    }
}
