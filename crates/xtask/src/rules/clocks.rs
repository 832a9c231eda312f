//! Rule: **clock-freedom** of the scheduler/evidence paths.
//!
//! PR 5's straggler recovery is *evidence-based*: steal and retry
//! decisions read relative progress from piggybacked reports, never a
//! wall clock, which is what makes steal-on results bit-identical to
//! steal-off. A stray `Instant::now()` feeding a decision would
//! reintroduce timing nondeterminism that no differential test can
//! reliably catch. This rule flags every clock/timer primitive in
//! non-test code of the cluster and the two cluster services; each
//! permitted site lives in the audited allowlist
//! (`allow/clocks.allow`) with a justification — metrics, the injected
//! straggle fault, or the one wall-clock *receive* timeout whose expiry only
//! triggers evidence re-examination, never a result change.
//!
//! Flagged patterns: `Instant::now`, any `SystemTime` use, and `sleep(`
//! calls.

use crate::allowlist::Allowlist;
use crate::{rs_files_under, SourceFile, Violation};
use std::path::Path;

/// Directories whose non-test code must be clock-audited.
pub const SCOPE: [&str; 3] = ["crates/mpq/src", "crates/cluster/src", "crates/dp/src"];

/// Workspace-relative path of this rule's allowlist.
pub const ALLOWLIST: &str = "crates/xtask/allow/clocks.allow";

/// Runs the rule over the real tree.
pub fn check(root: &Path) -> Vec<Violation> {
    let (allow, mut violations) = Allowlist::load(root, ALLOWLIST);
    for dir in SCOPE {
        for rel in rs_files_under(root, dir) {
            match SourceFile::load(root, &rel) {
                Ok(file) => violations.extend(check_file(&file, &allow)),
                Err(v) => violations.push(v),
            }
        }
    }
    violations.extend(allow.stale_entries());
    violations
}

/// Checks one file against the rule (the fixture-testable core).
pub fn check_file(file: &SourceFile, allow: &Allowlist) -> Vec<Violation> {
    let mut out = Vec::new();
    let toks = &file.tokens;
    let mut flag = |line: usize, what: &str| {
        if !allow.permits(&file.rel, file.line_text(line)) {
            out.push(Violation {
                rule: "clock-freedom",
                file: file.rel.clone(),
                line,
                message: format!(
                    "`{what}` in a scheduler/evidence path; recovery decisions must be \
                     evidence-based (or audit the site in {ALLOWLIST})"
                ),
            });
        }
    };
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        let Some(name) = t.ident() else { continue };
        match name {
            // `Instant::now` (also matches `time::Instant::now`).
            "Instant"
                if toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|a| a.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|a| a.is_ident("now")) =>
            {
                flag(t.line, "Instant::now")
            }
            // Any `SystemTime` use: wall-clock timestamps have no place
            // in the protocol at all.
            "SystemTime" => flag(t.line, "SystemTime"),
            // `sleep(` / `thread::sleep(` / `std::thread::sleep(`.
            "sleep" if toks.get(i + 1).is_some_and(|a| a.is_punct('(')) => flag(t.line, "sleep"),
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use std::path::PathBuf;

    fn fixture(name: &str) -> SourceFile {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        SourceFile::load(&root, name).expect("fixture exists")
    }

    fn empty_allowlist() -> Allowlist {
        Allowlist {
            source: "test.allow".into(),
            entries: Vec::new(),
        }
    }

    /// The rule fires on each seeded clock primitive and ignores the
    /// decoys (comments, strings, `Instant` as a plain type, tests).
    #[test]
    fn fires_on_seeded_violations() {
        let file = fixture("clock_violation.rs");
        let found = check_file(&file, &empty_allowlist());
        let kinds: Vec<&str> = found
            .iter()
            .map(|v| v.message.split('`').nth(1).expect("names the pattern"))
            .collect();
        assert_eq!(
            kinds,
            vec!["Instant::now", "SystemTime", "sleep"],
            "exactly the three seeded sites: {found:?}"
        );
    }

    /// Auditing the sites in an allowlist silences the rule.
    #[test]
    fn allowlisted_sites_pass() {
        let file = fixture("clock_violation.rs");
        let allow = Allowlist {
            source: "test.allow".into(),
            entries: ["seeded_instant", "seeded_systemtime", "seeded_sleep"]
                .iter()
                .enumerate()
                .map(|(i, needle)| crate::allowlist::Entry {
                    path: "clock_violation.rs".into(),
                    needle: (*needle).into(),
                    justification: "test".into(),
                    line: i + 1,
                    used: std::cell::Cell::new(0),
                })
                .collect(),
        };
        let found = check_file(&file, &allow);
        assert!(found.is_empty(), "all sites audited: {found:?}");
        assert!(allow.stale_entries().is_empty());
    }
}
