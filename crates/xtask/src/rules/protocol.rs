//! Rule: **protocol-dispatch** — the semantic send-site/handler graph.
//!
//! A `wire!` declaration makes each message type *codable* by
//! construction: one tag list drives encode and decode, unknown tags are
//! rejected. It says nothing about whether a decodable message is ever
//! **dispatched** — a variant whose only consumer is a `_` catch-all is
//! a message the protocol can carry but the services silently ignore,
//! and a variant nothing ever constructs is dead protocol surface whose
//! handler can never run. Both have bitten real systems: the tag
//! round-trips in codec tests while the session state machine never
//! sees the message.
//!
//! This rule builds the graph per tagged wire enum (the `message.rs`
//! module of `crates/mpq`; SMA's messages are only encoded to be counted,
//! never dispatched, so they are out of scope):
//!
//! * **handlers** — `Enum::Variant` appearing in *pattern position*
//!   (a `match` arm or a `let`/`if let`/`while let` destructure) in
//!   non-test dispatch code **outside the enum's own codec module**
//!   (the `wire!` declaration does not count, and neither does a
//!   catch-all `_`/binding arm);
//! * **send sites** — `Enum::Variant` in *expression position* in the
//!   same scope: somewhere a master or worker actually constructs the
//!   message to put it on the wire.
//!
//! and verifies every variant has **at least one of each**. Reachability
//! is approximated syntactically: an explicit non-test arm in the
//! master/worker dispatch is reachable because the services' message
//! pumps match every frame they receive (the chaos and model-check
//! suites drive all of them); what the approximation cannot excuse is
//! an arm that does not exist.

use crate::lexer::{matching_brace, Token, TokenKind};
use crate::{rs_files_under, SourceFile, Violation};
use std::collections::{BTreeMap, HashSet};
use std::path::Path;

/// The modules that define the tagged session-protocol enums. Each wire
/// enum found here must be dispatched and constructed elsewhere.
pub const MESSAGE_SCOPE: [&str; 1] = ["crates/mpq/src/message.rs"];

/// Directories scanned for handlers and send sites (the master/worker
/// dispatch surfaces plus the facade).
pub const DISPATCH_SCOPE: [&str; 3] = ["crates/mpq/src", "crates/cluster/src", "src"];

/// One tagged wire enum extracted from a message module.
pub struct WireEnum {
    pub name: String,
    /// Workspace-relative path of the defining module.
    pub file: String,
    /// Variant names with their declaration lines.
    pub variants: Vec<(String, usize)>,
}

/// Runs the rule over the real tree.
pub fn check(root: &Path) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut message_files = Vec::new();
    for rel in MESSAGE_SCOPE {
        match SourceFile::load(root, rel) {
            Ok(f) => message_files.push(f),
            Err(v) => violations.push(v),
        }
    }
    let mut dispatch_files = Vec::new();
    for dir in DISPATCH_SCOPE {
        for rel in rs_files_under(root, dir) {
            if MESSAGE_SCOPE.contains(&rel.as_str()) {
                continue;
            }
            match SourceFile::load(root, &rel) {
                Ok(f) => dispatch_files.push(f),
                Err(v) => violations.push(v),
            }
        }
    }
    violations.extend(check_files(&message_files, &dispatch_files));
    violations
}

/// Checks loaded message modules against loaded dispatch files (the
/// fixture-testable core). The defining module itself must not be in
/// `dispatch_files`: its own tests and helpers would vacuously satisfy
/// both sides of the graph.
pub fn check_files(message_files: &[SourceFile], dispatch_files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    let enums: Vec<WireEnum> = message_files.iter().flat_map(collect_wire_enums).collect();
    if enums.is_empty() {
        return out;
    }
    // (enum, variant) pairs seen in pattern position / expression
    // position anywhere in the dispatch scope.
    let mut handled: HashSet<(String, String)> = HashSet::new();
    let mut sent: HashSet<(String, String)> = HashSet::new();
    let known: BTreeMap<&str, HashSet<&str>> = enums
        .iter()
        .map(|e| {
            (
                e.name.as_str(),
                e.variants.iter().map(|(v, _)| v.as_str()).collect(),
            )
        })
        .collect();
    for file in dispatch_files {
        collect_usages(file, &known, &mut handled, &mut sent);
    }
    for e in &enums {
        for (variant, line) in &e.variants {
            let key = (e.name.clone(), variant.clone());
            if !handled.contains(&key) {
                out.push(Violation {
                    rule: "protocol-dispatch",
                    file: e.file.clone(),
                    line: *line,
                    message: format!(
                        "decodable `{}::{}` has no dispatch handler outside its codec module; \
                         a received message of this variant only reaches a catch-all",
                        e.name, variant
                    ),
                });
            }
            if !sent.contains(&key) {
                out.push(Violation {
                    rule: "protocol-dispatch",
                    file: e.file.clone(),
                    line: *line,
                    message: format!(
                        "`{}::{}` is never constructed at any send site; the variant is dead \
                         protocol surface (its handler cannot run)",
                        e.name, variant
                    ),
                });
            }
        }
    }
    out
}

/// Extracts every enum declared in a `wire! { .. }` schema in `file` — the
/// definition of a wire enum — with the variants the declaration lists
/// (`tag => Variant`). The macro's encoder matches every variant of the
/// Rust enum with no catch-all, so the declaration cannot list fewer.
pub fn collect_wire_enums(file: &SourceFile) -> Vec<WireEnum> {
    let tokens = &file.tokens;
    let mut out = Vec::new();
    // Tokens before this index sit inside a schema.
    let mut schema_end = 0;
    for i in 0..tokens.len().saturating_sub(2) {
        if tokens[i].in_test {
            continue;
        }
        if tokens[i].is_ident("wire") && tokens[i + 1].is_punct('!') && tokens[i + 2].is_punct('{')
        {
            schema_end = matching_brace(tokens, i + 2);
        }
        if i >= schema_end || !tokens[i].is_ident("enum") {
            continue;
        }
        // The body opens after the name and an optional `check guard`.
        let open = (i + 2..schema_end).find(|&j| tokens[j].is_punct('{'));
        if let (Some(name), Some(open)) = (tokens[i + 1].ident(), open) {
            out.push(WireEnum {
                name: name.to_string(),
                file: file.rel.clone(),
                variants: declared_variants(&tokens[open + 1..matching_brace(tokens, open) - 1]),
            });
        }
    }
    out
}

/// Variant names of a declared enum body: the identifier after each
/// depth-0 `=>`. Field lists sit behind brackets, so depth tracking skips
/// them.
fn declared_variants(body: &[Token]) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    for (i, t) in body.iter().enumerate() {
        match t.kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => depth -= 1,
            TokenKind::Punct('=')
                if depth == 0 && body.get(i + 1).is_some_and(|n| n.is_punct('>')) =>
            {
                if let Some(variant) = body.get(i + 2).and_then(|v| v.ident()) {
                    out.push((variant.to_string(), body[i + 2].line));
                }
            }
            _ => {}
        }
    }
    out
}

/// Scans one dispatch file: every `Enum::Variant` path of a known wire
/// enum is classified by position — pattern (handler) or expression
/// (send site). Test code is ignored entirely.
fn collect_usages(
    file: &SourceFile,
    known: &BTreeMap<&str, HashSet<&str>>,
    handled: &mut HashSet<(String, String)>,
    sent: &mut HashSet<(String, String)>,
) {
    let tokens = &file.tokens;
    let pattern = pattern_positions(tokens);
    let mut i = 0;
    while i + 3 < tokens.len() {
        let t = &tokens[i];
        if t.in_test {
            i += 1;
            continue;
        }
        let path = t.ident().and_then(|name| {
            let variants = known.get(name)?;
            if !(tokens[i + 1].is_punct(':') && tokens[i + 2].is_punct(':')) {
                return None;
            }
            let v = tokens[i + 3].ident()?;
            variants
                .contains(v)
                .then(|| (name.to_string(), v.to_string()))
        });
        if let Some(key) = path {
            if pattern.contains(&i) {
                handled.insert(key);
            } else {
                sent.insert(key);
            }
            i += 4;
            continue;
        }
        i += 1;
    }
}

/// Token indices that sit in pattern position: `match` arm patterns
/// (cut at a depth-0 `if` guard) and `let`-binding patterns (`let`,
/// `if let`, `while let`, up to the depth-0 `=`).
fn pattern_positions(tokens: &[Token]) -> HashSet<usize> {
    let mut out = HashSet::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.in_test {
            continue;
        }
        if t.is_ident("match") {
            let mut open = i + 1;
            while open < tokens.len() && !tokens[open].is_punct('{') {
                open += 1;
            }
            if open < tokens.len() {
                let end = matching_brace(tokens, open);
                mark_match_arms(tokens, open + 1, end.saturating_sub(1), &mut out);
            }
        } else if t.is_ident("let") {
            // Pattern runs to the binding `=` (or `;` for `let pat;`).
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < tokens.len() {
                match tokens[j].kind {
                    TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => {
                        depth += 1
                    }
                    TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    TokenKind::Punct('=') | TokenKind::Punct(';') if depth == 0 => break,
                    _ => {}
                }
                out.insert(j);
                j += 1;
            }
        }
    }
    out
}

/// Marks the pattern tokens of each arm in a match body (`tokens[start..
/// end]` is the text between the match's braces): tokens from the arm
/// start to the depth-0 `=>`, stopping early at a depth-0 `if` guard,
/// whose condition is expression position.
fn mark_match_arms(tokens: &[Token], start: usize, end: usize, out: &mut HashSet<usize>) {
    let mut i = start;
    while i < end {
        // Pattern: tokens until `=>` at depth 0.
        let mut depth = 0i32;
        let mut in_guard = false;
        while i < end {
            match tokens[i].kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => depth -= 1,
                TokenKind::Punct('=')
                    if depth == 0 && tokens.get(i + 1).is_some_and(|t| t.is_punct('>')) =>
                {
                    i += 2; // past `=>`
                    break;
                }
                TokenKind::Ident(ref s) if depth == 0 && s == "if" => in_guard = true,
                _ => {}
            }
            if !in_guard {
                out.insert(i);
            }
            i += 1;
        }
        // Arm expression: a block, or tokens until a depth-0 `,`.
        if i < end && tokens[i].is_punct('{') {
            i = matching_brace(tokens, i);
            if i < end && tokens[i].is_punct(',') {
                i += 1;
            }
        } else {
            let mut depth = 0i32;
            while i < end {
                match tokens[i].kind {
                    TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => {
                        depth += 1
                    }
                    TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                        depth -= 1
                    }
                    TokenKind::Punct(',') if depth == 0 => {
                        i += 1;
                        break;
                    }
                    _ => {}
                }
                i += 1;
            }
        }
    }
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

    #[test]
    fn wire_enum_extraction_reads_the_fixture() {
        let enums = collect_wire_enums(&fixture("protocol_msg.rs"));
        assert_eq!(enums.len(), 1, "one tagged wire enum");
        assert_eq!(enums[0].name, "CtrlMsg");
        let names: Vec<&str> = enums[0].variants.iter().map(|(v, _)| v.as_str()).collect();
        assert_eq!(names, vec!["Ping", "Halt", "Status"]);
    }

    #[test]
    fn clean_dispatch_passes() {
        let found = check_files(
            &[fixture("protocol_msg.rs")],
            &[fixture("protocol_dispatch_clean.rs")],
        );
        assert!(found.is_empty(), "all variants handled and sent: {found:?}");
    }

    /// The seeded violation: `Status` decodes fine (wire-conformance is
    /// silent) but the dispatch swallows it with `_ => {}` — the rule
    /// must name exactly that variant.
    #[test]
    fn unhandled_variant_fires() {
        let found = check_files(
            &[fixture("protocol_msg.rs")],
            &[fixture("protocol_dispatch_missing.rs")],
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(
            found[0].message.contains("`CtrlMsg::Status`")
                && found[0].message.contains("no dispatch handler"),
            "{found:?}"
        );
    }

    /// A variant handled everywhere but constructed nowhere is dead
    /// protocol surface.
    #[test]
    fn unsent_variant_fires() {
        let found = check_files(
            &[fixture("protocol_msg.rs")],
            &[fixture("protocol_dispatch_unsent.rs")],
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(
            found[0].message.contains("`CtrlMsg::Halt`")
                && found[0].message.contains("never constructed"),
            "{found:?}"
        );
    }

    /// The rule reads declarations, so it must find the real ones: when
    /// the `impl Wire for` text it used to key on went, it found nothing
    /// and still reported clean. Exactly the one session enum in scope,
    /// `WorkerMsg`, with every variant.
    #[test]
    fn real_tree_declares_the_three_session_enums() {
        let root = crate::workspace_root();
        let found: Vec<(String, usize)> = MESSAGE_SCOPE
            .iter()
            .map(|rel| SourceFile::load(&root, rel).expect("message module exists"))
            .flat_map(|file| collect_wire_enums(&file))
            .map(|e| (e.name, e.variants.len()))
            .collect();
        let expected = [("WorkerMsg", 2)];
        assert_eq!(
            found,
            expected.map(|(name, variants)| (name.to_string(), variants))
        );
    }

    /// The defining module's own declaration satisfies neither side of
    /// the graph: with no dispatch files at all, every variant fires both
    /// ways.
    #[test]
    fn codec_module_does_not_count() {
        let found = check_files(&[fixture("protocol_msg.rs")], &[]);
        assert_eq!(
            found.len(),
            6,
            "3 variants x (unhandled + unsent): {found:?}"
        );
    }
}
