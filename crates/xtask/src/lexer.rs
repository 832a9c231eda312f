//! A small hand-rolled Rust lexer, sufficient for the project-specific
//! lint rules in this crate.
//!
//! It is **not** a full Rust parser: it tokenizes identifiers, integer
//! literals and punctuation while skipping the three things that defeat
//! naive `grep`-style linting — string literals (including raw and byte
//! strings), character literals vs. lifetimes, and comments (line, doc
//! and nested block comments). A second pass marks every token that
//! lives inside test-only code (`#[cfg(test)]` items, `#[test]`
//! functions, `mod tests { .. }`), so rules can restrict themselves to
//! production code.
//!
//! The rules work on token *patterns* (e.g. `.` `unwrap` `(`), which is
//! exactly the granularity the project invariants need; anything
//! requiring real type information belongs in clippy, not here.

/// One lexed token.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    /// 1-based source line of the token's first character.
    pub line: usize,
    /// Whether the token is inside test-only code (see module docs).
    pub in_test: bool,
}

/// Token classification. String/char literals are kept as opaque tokens
/// so patterns can never match inside them.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword; the text is preserved.
    Ident(String),
    /// Integer literal, suffix included (its value is not kept).
    Int,
    /// A string, byte-string, raw-string or char literal (contents
    /// deliberately discarded).
    Literal,
    /// Any other single character (`.`, `(`, `::` arrives as two `:`).
    Punct(char),
}

impl Token {
    /// The identifier text, if this is an identifier token.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True if this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.ident() == Some(s)
    }

    /// True if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// Lexes `src` into tokens with test-scope annotations.
pub fn lex(src: &str) -> Vec<Token> {
    let mut tokens = raw_lex(src);
    mark_test_scopes(&mut tokens);
    tokens
}

fn raw_lex(src: &str) -> Vec<Token> {
    let b: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            // Line comment (also covers `///` and `//!` doc comments).
            '/' if b.get(i + 1) == Some(&'/') => {
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
            }
            // Nested block comment.
            '/' if b.get(i + 1) == Some(&'*') => {
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            // Raw / byte / plain string literals.
            'r' | 'b' if starts_string(&b, i) => {
                let start_line = line;
                i = skip_string(&b, i, &mut line);
                out.push(Token {
                    kind: TokenKind::Literal,
                    line: start_line,
                    in_test: false,
                });
            }
            '"' => {
                let start_line = line;
                i = skip_string(&b, i, &mut line);
                out.push(Token {
                    kind: TokenKind::Literal,
                    line: start_line,
                    in_test: false,
                });
            }
            // Char literal vs. lifetime.
            '\'' => {
                let next = b.get(i + 1).copied().unwrap_or(' ');
                let after = b.get(i + 2).copied().unwrap_or(' ');
                if (next.is_alphabetic() || next == '_') && after != '\'' {
                    // Lifetime: consume the quote; the identifier lexes
                    // on its own in the next iteration.
                    i += 1;
                } else {
                    // Char literal, possibly escaped.
                    i += 1;
                    if b.get(i) == Some(&'\\') {
                        i += 2; // backslash + escaped char
                                // Multi-char escapes (\x41, \u{..}) end at the quote.
                        while i < b.len() && b[i] != '\'' {
                            i += 1;
                        }
                    } else {
                        i += 1;
                    }
                    if i < b.len() && b[i] == '\'' {
                        i += 1;
                    }
                    out.push(Token {
                        kind: TokenKind::Literal,
                        line,
                        in_test: false,
                    });
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                out.push(Token {
                    kind: TokenKind::Ident(b[start..i].iter().collect()),
                    line,
                    in_test: false,
                });
            }
            c if c.is_ascii_digit() => {
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                out.push(Token {
                    kind: TokenKind::Int,
                    line,
                    in_test: false,
                });
            }
            c => {
                out.push(Token {
                    kind: TokenKind::Punct(c),
                    line,
                    in_test: false,
                });
                i += 1;
            }
        }
    }
    out
}

/// Whether position `i` (at `r` or `b`) starts a raw/byte string literal.
fn starts_string(b: &[char], i: usize) -> bool {
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
    }
    if b.get(j) == Some(&'r') {
        j += 1;
        while b.get(j) == Some(&'#') {
            j += 1;
        }
    }
    b.get(j) == Some(&'"') && j > i
}

/// Consumes a string literal starting at `i`; returns the index just past
/// its closing quote. Handles `b".."`, `r".."`, `r#".."#` and escapes.
fn skip_string(b: &[char], mut i: usize, line: &mut usize) -> usize {
    if b.get(i) == Some(&'b') {
        i += 1;
    }
    let mut hashes = 0;
    let raw = b.get(i) == Some(&'r');
    if raw {
        i += 1;
        while b.get(i) == Some(&'#') {
            hashes += 1;
            i += 1;
        }
    }
    debug_assert_eq!(b.get(i), Some(&'"'));
    i += 1;
    while i < b.len() {
        match b[i] {
            '\n' => {
                *line += 1;
                i += 1;
            }
            // An escape; `\<newline>` (string continuation) still ends a
            // source line, so keep the line count honest.
            '\\' if !raw => {
                if b.get(i + 1) == Some(&'\n') {
                    *line += 1;
                }
                i += 2;
            }
            '"' => {
                i += 1;
                if !raw {
                    return i;
                }
                let mut k = 0;
                while k < hashes && b.get(i + k) == Some(&'#') {
                    k += 1;
                }
                if k == hashes {
                    return i + hashes;
                }
            }
            _ => i += 1,
        }
    }
    i
}

/// Marks every token inside test-only code: the item following a
/// `#[cfg(test)]` or `#[test]` attribute (through its braced body or
/// terminating `;`), and any `mod tests { .. }` even without the
/// attribute.
fn mark_test_scopes(tokens: &mut [Token]) {
    let mut i = 0;
    while i < tokens.len() {
        // Attribute? Collect `#[ .. ]` and check for cfg(test) / test.
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let (attr_end, is_test) = scan_attribute(tokens, i + 1);
            if is_test {
                let body_end = mark_item(tokens, attr_end);
                for t in &mut tokens[i..body_end] {
                    t.in_test = true;
                }
                i = body_end;
                continue;
            }
            i = attr_end;
            continue;
        }
        // `mod tests {` without the attribute (defensive).
        if tokens[i].is_ident("mod")
            && tokens.get(i + 1).is_some_and(|t| t.is_ident("tests"))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('{'))
        {
            let body_end = mark_item(tokens, i);
            for t in &mut tokens[i..body_end] {
                t.in_test = true;
            }
            i = body_end;
            continue;
        }
        i += 1;
    }
}

/// Scans the attribute whose `[` is at `open`; returns (index past `]`,
/// whether the attribute gates test-only code). `#[test]` and
/// `#[cfg(test)]`-style attributes (any `cfg`/`cfg_attr` mentioning
/// `test`) count; `cfg(not(test))` does **not** — that code is
/// production code and the rules must keep applying to it.
fn scan_attribute(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0;
    let mut idents: Vec<&str> = Vec::new();
    let mut i = open;
    while i < tokens.len() {
        match &tokens[i].kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    let bare_test = idents == ["test"];
                    let cfg_test = idents.iter().any(|s| *s == "cfg" || *s == "cfg_attr")
                        && idents.contains(&"test")
                        && !idents.contains(&"not");
                    return (i + 1, bare_test || cfg_test);
                }
            }
            TokenKind::Ident(s) => idents.push(s),
            _ => {}
        }
        i += 1;
    }
    (i, false)
}

/// Starting at an item (possibly preceded by more attributes), returns
/// the index just past the item's body: the matching `}` of its first
/// brace block, or the first `;` before any brace opens.
fn mark_item(tokens: &[Token], mut i: usize) -> usize {
    // Skip any further attributes between the test attribute and the item.
    while i < tokens.len()
        && tokens[i].is_punct('#')
        && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
    {
        let (end, _) = scan_attribute(tokens, i + 1);
        i = end;
    }
    while i < tokens.len() {
        match tokens[i].kind {
            TokenKind::Punct(';') => return i + 1,
            TokenKind::Punct('{') => {
                let mut depth = 0;
                while i < tokens.len() {
                    match tokens[i].kind {
                        TokenKind::Punct('{') => depth += 1,
                        TokenKind::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                return i + 1;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                return i;
            }
            _ => i += 1,
        }
    }
    i
}

/// Returns the index just past the `}` matching the `{` at `open`.
pub fn matching_brace(tokens: &[Token], open: usize) -> usize {
    debug_assert!(tokens[open].is_punct('{'));
    let mut depth = 0;
    let mut i = open;
    while i < tokens.len() {
        match tokens[i].kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn idents(tokens: &[Token]) -> Vec<&str> {
        tokens.iter().filter_map(|t| t.ident()).collect()
    }

    #[test]
    fn strings_and_comments_are_opaque() {
        let src = r##"
            // unwrap in a comment
            /* panic! in /* a nested */ block */
            let s = "call .unwrap() here";
            let r = r#"raw "quoted" unwrap"#;
            let b = b"bytes unwrap";
            let c = '\n';
            real.unwrap();
        "##;
        let toks = lex(src);
        let unwraps: Vec<_> = toks.iter().filter(|t| t.is_ident("unwrap")).collect();
        assert_eq!(unwraps.len(), 1, "only the real call survives lexing");
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let toks = lex("fn f<'a>(x: &'a str) { x.expect(\"boom\") }");
        assert!(idents(&toks).contains(&"expect"));
    }

    #[test]
    fn string_continuations_keep_line_numbers_honest() {
        let src = "let a = \"one \\\n         two\";\nlet target = 1;\n";
        let toks = lex(src);
        let target = toks
            .iter()
            .find(|t| t.is_ident("target"))
            .expect("target lexes");
        assert_eq!(target.line, 3, "continuation newline must be counted");
    }

    /// An integer literal, radix prefix and type suffix included, is one
    /// token.
    #[test]
    fn int_literals_parse() {
        let toks = lex("x = 0x2A + 1_000usize;");
        let kinds: Vec<&TokenKind> = toks.iter().map(|t| &t.kind).collect();
        assert_eq!(
            kinds,
            [
                &TokenKind::Ident("x".into()),
                &TokenKind::Punct('='),
                &TokenKind::Int,
                &TokenKind::Punct('+'),
                &TokenKind::Int,
                &TokenKind::Punct(';'),
            ]
        );
    }

    #[test]
    fn cfg_test_items_are_marked() {
        let src = r#"
            fn prod() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                fn t() { y.unwrap(); }
            }
        "#;
        let toks = lex(src);
        let flags: Vec<bool> = toks
            .iter()
            .filter(|t| t.is_ident("unwrap"))
            .map(|t| t.in_test)
            .collect();
        assert_eq!(flags, vec![false, true]);
    }

    #[test]
    fn test_attribute_marks_one_fn() {
        let src = r#"
            #[test]
            fn a_test() { z.unwrap(); }
            fn prod() { w.unwrap(); }
        "#;
        let toks = lex(src);
        let flags: Vec<bool> = toks
            .iter()
            .filter(|t| t.is_ident("unwrap"))
            .map(|t| t.in_test)
            .collect();
        assert_eq!(flags, vec![true, false]);
    }

    #[test]
    fn non_test_attributes_do_not_mark() {
        let src = r#"
            #[derive(Debug)]
            struct S;
            #[allow(dead_code)]
            fn prod() { q.unwrap(); }
        "#;
        let toks = lex(src);
        assert!(toks
            .iter()
            .filter(|t| t.is_ident("unwrap"))
            .all(|t| !t.in_test));
    }

    #[test]
    fn cfg_test_with_following_attributes() {
        let src = r#"
            #[cfg(test)]
            #[allow(clippy::unwrap_used)]
            mod tests { fn t() { y.unwrap(); } }
        "#;
        let toks = lex(src);
        let unwraps: Vec<_> = toks.iter().filter(|t| t.is_ident("unwrap")).collect();
        assert!(!unwraps.is_empty());
        assert!(unwraps.iter().all(|t| t.in_test));
    }

    #[test]
    fn cfg_not_test_stays_production() {
        let src = r#"
            #[cfg(not(test))]
            fn prod() { q.unwrap(); }
        "#;
        let toks = lex(src);
        assert!(toks
            .iter()
            .filter(|t| t.is_ident("unwrap"))
            .all(|t| !t.in_test));
    }
}
