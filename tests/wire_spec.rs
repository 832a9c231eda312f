//! The README's wire-format listing is the declarations themselves: the
//! three `wire!` schemas rendered by `mpq_cluster::codec::describe`. A
//! layout changed, added or removed without the README following fails
//! here (and, the bytes being frozen, in the `codec_golden.rs` suites),
//! and so does one that leaves the handshake's version as it was.

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_macros)]

use pqopt::cluster::codec::{describe, WireType};
use pqopt::cluster::Hello;

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

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The handshake's magic names the layouts it speaks: this pair is the
/// magic and the FNV-1a of the rendered declarations it was bumped for. A
/// layout change that keeps the magic fails here — bump the version byte
/// of `Hello::MAGIC`, then enter the new pair.
#[test]
fn the_handshake_version_names_the_wire_layouts() {
    const VERSION: ([u8; 4], u64) = (*b"MPQ3", 0xec94_7508_8ccd_d3a0);
    let spec = fnv1a(rendered().as_bytes());
    assert_eq!(
        (Hello::MAGIC.to_le_bytes(), spec),
        VERSION,
        "the wire layouts hash to {spec:#018x}: a layout changed, so bump the version byte \
         of `Hello::MAGIC` and pin the new (magic, hash) pair"
    );
}
