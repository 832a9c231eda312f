//! The README's wire-format listing is the declarations themselves: the
//! three `wire!` schemas rendered by `mpq_cluster::codec::describe`. A
//! layout changed, added or removed without the README following fails
//! here (and, the bytes being frozen, in the `codec_golden.rs` suites).

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use pqopt::cluster::codec::{describe, WireType};

const BEGIN: &str = "<!-- wire-types: tests/wire_spec.rs compares this block -->\n```text\n";
const END: &str = "```\n";

fn rendered() -> String {
    let lists: [(&str, &[WireType]); 3] = [
        (
            "mpq_cluster::codec::WIRE_TYPES",
            pqopt::cluster::codec::WIRE_TYPES,
        ),
        (
            "mpq_algo::message::WIRE_TYPES",
            pqopt::mpq::message::WIRE_TYPES,
        ),
        (
            "mpq_sma::message::WIRE_TYPES",
            pqopt::sma::message::WIRE_TYPES,
        ),
    ];
    lists
        .iter()
        .map(|(title, types)| format!("# {title}\n{}", describe(types)))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn readme_quotes_the_declarations() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md is readable");
    let start = readme.find(BEGIN).expect("README has the wire-types block") + BEGIN.len();
    let len = readme[start..].find(END).expect("the block is closed");
    let quoted = &readme[start..start + len];
    let rendered = rendered();
    assert_eq!(
        quoted, rendered,
        "README.md \"Wire-format stability\" no longer quotes the `wire!` declarations; \
         the block should read:\n{rendered}"
    );
}
