//! `xtask` — project-specific static analysis for the pqopt workspace.
//!
//! ```text
//! cargo run -p xtask -- lint            # all rules, exit 1 on any violation
//! cargo run -p xtask -- lint --root D   # lint another tree (fixture debugging)
//! cargo run -p xtask -- lint --check-stale
//!                                       # also fail on allowlist entries whose
//!                                       # file no longer exists
//! cargo run -p xtask -- bench-check --current D [--baseline D]
//!                                       # compare BENCH_*.json against baselines
//! cargo run -p xtask -- model-check [--depth N] [--schedules N] [...]
//!                                       # exhaustive schedule-space model check
//!                                       # (delegates to the pqopt_model binary)
//! ```
//!
//! Three rules, each guarding an invariant the test suites *prove* but
//! nothing previously *gated*:
//!
//! 1. **panic-freedom** (`rules::panics`) — no `unwrap`/`expect`/
//!    `panic!`/`unreachable!`/`todo!`/`assert!` in non-test code of the
//!    protocol and service layers (`crates/{mpq,sma,cluster,plan}`,
//!    `src/`) and of `crates/dp/src/explain.rs`, which prices decoded
//!    plans. Escape hatch: `crates/xtask/allow/panics.allow`.
//! 2. **clock-freedom** (`rules::clocks`) — no `Instant::now`/
//!    `SystemTime`/`sleep` in the scheduler/evidence paths outside the
//!    audited timer allowlist (`crates/xtask/allow/clocks.allow`), so
//!    the "recovery decisions are evidence-based, never wall-clock"
//!    discipline cannot silently regress.
//! 3. **protocol-dispatch** (`rules::protocol`) — the semantic
//!    send-site/handler graph: every variant of the tagged session
//!    enum (`WorkerMsg`) has an explicit
//!    non-catch-all handler arm in the master/worker dispatch *and* a
//!    send site that constructs it — decodable-but-ignored and
//!    dead-surface variants both fail.
//!
//! Wire-protocol conformance was a fourth, until each layout became one
//! `mpq_cluster::wire!` declaration: what the rule re-derived from the text
//! is now what the macro expands to, a compile error, or (golden coverage)
//! a tier-1 test over each crate's `WIRE_TYPES`.
//!
//! The analyzer is token-level (see [`lexer`]) — it understands strings,
//! comments, and `#[cfg(test)]`/`mod tests` scoping, which is exactly
//! enough to make these rules precise without a full parser.
//!
//! A further gate, **bench-check** ([`bench_check`]), is dynamic rather
//! than static: it compares freshly-emitted `BENCH_*.json` reports
//! against the committed baselines and fails when an exact id (a work
//! counter, a byte total) differs at all; clock readings only warn.

#![forbid(unsafe_code)]

mod allowlist;
mod bench_check;
mod lexer;
mod rules;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One rule finding. Printed as `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line; 0 when the finding is file-level.
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One loaded source file: text, per-line copies (for allowlist
/// matching) and the lexed token stream.
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    pub lines: Vec<String>,
    pub tokens: Vec<lexer::Token>,
}

impl SourceFile {
    /// Loads `root.join(rel)`; returns `None` (with a violation) when
    /// unreadable — a lint that silently skips files guards nothing.
    pub fn load(root: &Path, rel: &str) -> Result<SourceFile, Violation> {
        match std::fs::read_to_string(root.join(rel)) {
            Ok(text) => Ok(SourceFile {
                rel: rel.to_string(),
                lines: text.lines().map(str::to_string).collect(),
                tokens: lexer::lex(&text),
            }),
            Err(e) => Err(Violation {
                rule: "io",
                file: rel.to_string(),
                line: 0,
                message: format!("cannot read: {e}"),
            }),
        }
    }

    /// The trimmed text of 1-based line `line` (empty when out of range).
    pub fn line_text(&self, line: usize) -> &str {
        self.lines
            .get(line.wrapping_sub(1))
            .map(|s| s.trim())
            .unwrap_or("")
    }
}

/// The workspace root: two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .unwrap_or(manifest)
        .to_path_buf()
}

/// All `.rs` files under `root.join(rel)` — or `rel` itself, when it names
/// one — as workspace-relative paths with forward slashes, sorted for
/// deterministic output.
pub fn rs_files_under(root: &Path, rel: &str) -> Vec<String> {
    if root.join(rel).is_file() {
        return vec![rel.to_string()];
    }
    let mut out = Vec::new();
    let mut stack = vec![root.join(rel)];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    out.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    out.sort();
    out
}

/// Runs every rule against the tree at `root`.
pub fn run_lint(root: &Path) -> Vec<Violation> {
    let mut violations = Vec::new();
    violations.extend(rules::panics::check(root));
    violations.extend(rules::clocks::check(root));
    violations.extend(rules::protocol::check(root));
    violations
}

/// `--check-stale`: every entry of every allowlist under
/// `crates/xtask/allow/` must name a file that still exists. Entries
/// that merely stopped suppressing are caught per-rule
/// ([`allowlist::Allowlist::stale_entries`]); this catches the harder
/// rot where the whole file was deleted or renamed and the entry would
/// silently shadow a future file of the same name.
pub fn check_stale_allowlists(root: &Path) -> Vec<Violation> {
    let mut violations = Vec::new();
    let allow_dir = root.join("crates/xtask/allow");
    let Ok(entries) = std::fs::read_dir(&allow_dir) else {
        return violations; // no allowlists, nothing to rot
    };
    let mut files: Vec<String> = entries
        .flatten()
        .filter_map(|e| {
            let p = e.path();
            (p.extension().is_some_and(|x| x == "allow"))
                .then(|| format!("crates/xtask/allow/{}", e.file_name().to_string_lossy()))
        })
        .collect();
    files.sort();
    for rel in files {
        let (allow, parse_violations) = allowlist::Allowlist::load(root, &rel);
        violations.extend(parse_violations);
        for entry in &allow.entries {
            if !root.join(&entry.path).is_file() {
                violations.push(Violation {
                    rule: "allowlist",
                    file: allow.source.clone(),
                    line: entry.line,
                    message: format!(
                        "entry names a file that no longer exists: {} | {} | {}",
                        entry.path, entry.needle, entry.justification
                    ),
                });
            }
        }
    }
    violations
}

const USAGE: &str = "usage: cargo run -p xtask -- lint [--root DIR] [--check-stale]\n       \
     cargo run -p xtask -- bench-check --current DIR [--baseline DIR]\n       \
     cargo run -p xtask -- model-check [--depth N] [--schedules N] [--scenario NAME] \
[--seed-violation]";

/// `model-check`: delegate to the `pqopt_model` binary (release — the
/// sweep is compute-bound), forwarding flags and the exit code. Kept as
/// an xtask subcommand so CI and developers have one analysis
/// entry point.
fn run_model_check(rest: &[String]) -> ExitCode {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = std::process::Command::new(cargo)
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
    let mut root = workspace_root();
    let mut baseline: Option<PathBuf> = None;
    let mut current: Option<PathBuf> = None;
    let mut check_stale = false;
    let mut cmd = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "lint" => cmd = Some("lint"),
            "bench-check" => cmd = Some("bench-check"),
            "--check-stale" => check_stale = true,
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root needs a value");
                    return ExitCode::FAILURE;
                }
            },
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
    match cmd {
        Some("lint") => {
            let mut violations = run_lint(&root);
            if check_stale {
                violations.extend(check_stale_allowlists(&root));
            }
            for v in &violations {
                println!("{v}");
            }
            if violations.is_empty() {
                println!(
                    "xtask lint: clean (panic-freedom, clock-freedom, protocol dispatch{})",
                    if check_stale {
                        ", allowlist staleness"
                    } else {
                        ""
                    }
                );
                ExitCode::SUCCESS
            } else {
                println!("xtask lint: {} violation(s)", violations.len());
                ExitCode::FAILURE
            }
        }
        Some("bench-check") => {
            let baseline = baseline.unwrap_or_else(|| root.clone());
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
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    /// The gate itself: the real tree is clean. Every seeded-violation
    /// fixture case lives in the per-rule test modules; this is the
    /// "passes on the real tree" half of the self-test contract.
    #[test]
    fn real_tree_is_clean() {
        let violations = run_lint(&workspace_root());
        assert!(
            violations.is_empty(),
            "xtask lint found violations in the real tree:\n{}",
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// `--check-stale` passes on the real tree (every allowlisted file
    /// exists) and fires when an entry's file is gone.
    #[test]
    fn check_stale_passes_real_tree_and_fires_on_missing_files() {
        let root = workspace_root();
        let violations = check_stale_allowlists(&root);
        assert!(violations.is_empty(), "{violations:?}");

        let dir = std::env::temp_dir().join(format!("xtask-stale-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("crates/xtask/allow")).unwrap();
        std::fs::write(
            dir.join("crates/xtask/allow/ghost.allow"),
            "# entry for a file that does not exist\n\
             crates/gone/src/lib.rs | some_line | was justified once\n",
        )
        .unwrap();
        let violations = check_stale_allowlists(&dir);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].message.contains("no longer exists"));
        assert!(violations[0].message.contains("crates/gone/src/lib.rs"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn workspace_root_finds_the_manifest() {
        assert!(workspace_root().join("Cargo.toml").is_file());
        assert!(workspace_root()
            .join("crates/cluster/src/codec.rs")
            .is_file());
    }
}
