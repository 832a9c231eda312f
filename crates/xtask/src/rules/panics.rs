//! Rule: **panic-freedom** of the protocol and service layers.
//!
//! The exactness guarantees (bit-identical results under faults, steal
//! and caching) ride on the service surfaces answering *typed errors*,
//! never aborting: a panicking master poisons every in-flight session.
//! PR 5 gated three service files with per-file clippy attributes; this
//! rule generalizes the gate to all non-test code of
//! `crates/{mpq,sma,cluster,plan,cost}` and `src/`, plus the one file of
//! `crates/dp` that runs on decoded input (`explain.rs`), with an explicit audited
//! allowlist (`allow/panics.allow`) for the few justified sites
//! (documented panicking convenience wrappers, encoder capacity caps).
//!
//! Flagged patterns: `.unwrap(`, `.expect(`, `panic!`, `unreachable!`,
//! `todo!`, `unimplemented!`, `assert!`, `assert_eq!`, `assert_ne!` (not
//! the `debug_assert*` forms, which release builds compile out) —
//! token-level, so strings, comments and `#[cfg(test)]`/`mod tests` code
//! never false-positive, and neither does the initialiser of a `const`,
//! which the compiler evaluates.

use crate::allowlist::Allowlist;
use crate::lexer::Token;
use crate::{rs_files_under, SourceFile, Violation};
use std::path::Path;

/// Directories, and single files, whose non-test code must be panic-free.
/// `explain.rs` is the one file of `crates/dp` in scope: the MPQ master
/// prices every decoded reply plan with it, and its walk runs `cost` code.
pub const SCOPE: [&str; 7] = [
    "crates/mpq/src",
    "crates/sma/src",
    "crates/cluster/src",
    "crates/plan/src",
    "crates/cost/src",
    "crates/dp/src/explain.rs",
    "src",
];

/// Workspace-relative path of this rule's allowlist.
pub const ALLOWLIST: &str = "crates/xtask/allow/panics.allow";

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
/// Not their `debug_` forms, which release builds compile out.
const ASSERT_MACROS: [&str; 3] = ["assert", "assert_eq", "assert_ne"];

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
                rule: "panic-freedom",
                file: file.rel.clone(),
                line,
                message: format!(
                    "`{what}` in non-test code; return a typed error \
                     (or add an audited entry to {ALLOWLIST})"
                ),
            });
        }
    };
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        if let Some(name) = t.ident() {
            // `.unwrap(` / `.expect(` — method calls only, so idents
            // like `unwrap_used` or fn definitions don't fire.
            if (name == "unwrap" || name == "expect")
                && i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            {
                flag(t.line, &format!(".{name}()"));
            }
            if (PANIC_MACROS.contains(&name) || ASSERT_MACROS.contains(&name))
                && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
                && !const_evaluated(toks, i)
            {
                flag(t.line, &format!("{name}!"));
            }
        }
    }
    out
}

/// Whether the macro at `i` initialises a `const` item or opens a
/// `const { }` block: the compiler evaluates it, so it fails the build and
/// never a running service.
fn const_evaluated(toks: &[Token], i: usize) -> bool {
    for j in (0..i).rev() {
        if toks[j].is_punct(';') || toks[j].is_punct('}') {
            return false;
        }
        if toks[j].is_punct('{') {
            return j > 0 && toks[j - 1].is_ident("const");
        }
        if toks[j].is_ident("const") {
            return true;
        }
    }
    false
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

    /// The rule fires on every seeded violation in the fixture, and on
    /// nothing else.
    #[test]
    fn fires_on_seeded_violations() {
        let file = fixture("panic_violation.rs");
        let found = check_file(&file, &empty_allowlist());
        let kinds: Vec<&str> = found
            .iter()
            .map(|v| {
                v.message
                    .split('`')
                    .nth(1)
                    .expect("message names the pattern")
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                ".unwrap()",
                ".expect()",
                "assert!",
                "panic!",
                "unreachable!",
                "todo!"
            ],
            "one finding per seeded site, in order: {found:?}"
        );
    }

    /// Strings, comments, and test modules never fire.
    #[test]
    fn clean_fixture_passes() {
        let file = fixture("panic_clean.rs");
        let found = check_file(&file, &empty_allowlist());
        assert!(found.is_empty(), "false positives: {found:?}");
    }

    /// An allowlist entry suppresses its line and is marked used; a
    /// stale entry is reported.
    #[test]
    fn allowlist_suppresses_and_staleness_is_reported() {
        let file = fixture("panic_violation.rs");
        let allow = Allowlist {
            source: "test.allow".into(),
            entries: vec![
                crate::allowlist::Entry {
                    path: "panic_violation.rs".into(),
                    needle: "seeded_unwrap".into(),
                    justification: "test".into(),
                    line: 1,
                    used: std::cell::Cell::new(0),
                },
                crate::allowlist::Entry {
                    path: "panic_violation.rs".into(),
                    needle: "no such line".into(),
                    justification: "test".into(),
                    line: 2,
                    used: std::cell::Cell::new(0),
                },
            ],
        };
        let found = check_file(&file, &allow);
        assert_eq!(found.len(), 5, "the unwrap is suppressed: {found:?}");
        assert_eq!(allow.entries[0].used.get(), 1);
        let stale = allow.stale_entries();
        assert_eq!(stale.len(), 1, "the unused entry is stale");
        assert!(stale[0].message.contains("no such line"));
    }
}
