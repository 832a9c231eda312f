//! Wire-format regression tests for the SMA protocol messages.
//!
//! Golden byte vectors in the same style as the `mpq_cluster` codec suite:
//! exact frozen encodings of hand-constructed values covering every variant
//! of both tagged enums plus the memo-slot payload. Any change to the wire
//! format — field order, widths, tags — fails these tests and forces a
//! deliberate format-version decision instead of a silent break.
//!
//! To regenerate the golden constants after an *intentional* format change:
//! `cargo test -p mpq_sma --test codec_golden -- --ignored --nocapture`
//! and paste the printed constants below.

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mpq_cluster::Wire;
use mpq_cost::{CostVector, Objective, ScanOp};
use mpq_dp::WorkerStats;
use mpq_model::{Catalog, JoinGraph, Predicate, Query, TableSet, TableStats};
use mpq_partition::PlanSpace;
use mpq_plan::{Plan, PlanEntry, PlanOp};
use mpq_sma::{SlotUpdate, SmaMasterMsg, SmaReply};

// ---------------------------------------------------------------------------
// Fixed values under golden protection (same shapes as the cluster suite).
// ---------------------------------------------------------------------------

fn golden_query() -> Query {
    Query {
        catalog: Catalog::from_stats(vec![
            TableStats {
                cardinality: 1000.0,
                tuple_bytes: 64.0,
            },
            TableStats {
                cardinality: 50000.0,
                tuple_bytes: 128.0,
            },
            TableStats {
                cardinality: 8.0,
                tuple_bytes: 16.0,
            },
        ]),
        predicates: vec![
            Predicate {
                left: 0,
                right: 1,
                selectivity: 0.01,
            },
            Predicate {
                left: 1,
                right: 2,
                selectivity: 0.5,
            },
        ],
        graph: JoinGraph::Chain,
    }
}

fn golden_slot() -> SlotUpdate {
    SlotUpdate {
        set: TableSet::from_tables([0, 1]),
        entries: vec![PlanEntry::scan(0, ScanOp::Full, CostVector::new(1.0, 2.0))],
    }
}

fn golden_stats() -> WorkerStats {
    WorkerStats {
        stored_sets: 11,
        total_entries: 22,
        splits_tried: 33,
        plans_generated: 44,
        optimize_micros: 55,
    }
}

fn golden_final_plan() -> Plan {
    Plan {
        cost: CostVector::new(8.0, 16.0),
        ops: vec![PlanOp::Scan {
            table: 2,
            op: ScanOp::Full,
        }],
    }
}

// ---------------------------------------------------------------------------
// Frozen encodings. Regenerate only on a deliberate wire-format change.
// ---------------------------------------------------------------------------

const GOLDEN_SLOT_UPDATE: &str = "030000000000000001000000000000000000f03f000000000000004000000000";
const GOLDEN_MASTER_INIT: &str = "00030000000000000000408f40000000000000504000000000006ae840000000\
    0000006040000000000000204000000000000030400200000000017b14ae47e1\
    7a843f0102000000000000e03f000000";
const GOLDEN_MASTER_ASSIGN: &str = "010200000003000000000000000c00000000000000";
const GOLDEN_MASTER_DELTA: &str =
    "0201000000030000000000000001000000000000000000f03f000000000000004000000000";
const GOLDEN_MASTER_FINISH: &str = "03";
const GOLDEN_REPLY_LEVEL_DONE: &str = "000100000003000000000000000100000000000000000\
    0f03f0000000000000040000000002a00000000000000";
const GOLDEN_REPLY_FINAL: &str = "010100000001020b00000000000000160000000000000021000000000000002c\
    000000000000003700000000000000";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn assert_golden<T: Wire + PartialEq + std::fmt::Debug>(value: &T, expected_hex: &str, what: &str) {
    let encoded = value.to_bytes();
    assert_eq!(
        hex(&encoded),
        expected_hex,
        "wire format of {what} changed — if intentional, regenerate the golden constants \
         (see module docs); if not, you just broke cross-version compatibility"
    );
    let decoded = T::from_bytes(&encoded).expect("golden bytes decode");
    assert_eq!(&decoded, value, "golden {what} did not round-trip");
}

/// [`assert_golden`] for a value that carries plans: they travel without
/// their sender's costs, so what decodes is the same value with its plans
/// unpriced, which encodes to the same golden bytes again.
fn assert_golden_sent<T: Wire + std::fmt::Debug>(value: &T, expected_hex: &str, what: &str) {
    let encoded = value.to_bytes();
    assert_eq!(
        hex(&encoded),
        expected_hex,
        "wire format of {what} changed — if intentional, regenerate the golden constants \
         (see module docs); if not, you just broke cross-version compatibility"
    );
    let decoded = T::from_bytes(&encoded).expect("golden bytes decode");
    assert_eq!(
        hex(&decoded.to_bytes()),
        expected_hex,
        "golden {what} did not round-trip"
    );
}

#[test]
fn golden_slot_update_bytes() {
    assert_golden(&golden_slot(), GOLDEN_SLOT_UPDATE, "SlotUpdate");
}

#[test]
fn golden_master_msg_bytes() {
    assert_golden(
        &SmaMasterMsg::Init {
            query: golden_query(),
            space: PlanSpace::Linear,
            objective: Objective::Single,
        },
        GOLDEN_MASTER_INIT,
        "SmaMasterMsg::Init",
    );
    assert_golden(
        &SmaMasterMsg::Assign {
            sets: vec![TableSet::from_tables([0, 1]), TableSet::from_tables([2, 3])],
        },
        GOLDEN_MASTER_ASSIGN,
        "SmaMasterMsg::Assign",
    );
    assert_golden(
        &SmaMasterMsg::Delta {
            slots: vec![golden_slot()],
        },
        GOLDEN_MASTER_DELTA,
        "SmaMasterMsg::Delta",
    );
    assert_golden(
        &SmaMasterMsg::Finish,
        GOLDEN_MASTER_FINISH,
        "SmaMasterMsg::Finish",
    );
}

#[test]
fn golden_reply_bytes() {
    assert_golden(
        &SmaReply::LevelDone {
            slots: vec![golden_slot()],
            micros: 42,
        },
        GOLDEN_REPLY_LEVEL_DONE,
        "SmaReply::LevelDone",
    );
    assert_golden_sent(
        &SmaReply::Final {
            plans: vec![golden_final_plan()],
            stats: golden_stats(),
        },
        GOLDEN_REPLY_FINAL,
        "SmaReply::Final",
    );
}

/// Pin the tag layout: every variant's first byte is its wire tag, and the
/// payload-free variant is exactly one byte.
#[test]
fn golden_tag_layout() {
    assert_eq!(
        SmaMasterMsg::Assign { sets: vec![] }.to_bytes()[0],
        1,
        "Assign tag"
    );
    assert_eq!(
        SmaMasterMsg::Delta { slots: vec![] }.to_bytes()[0],
        2,
        "Delta tag"
    );
    assert_eq!(&SmaMasterMsg::Finish.to_bytes()[..], [3]);
    assert_eq!(
        SmaReply::LevelDone {
            slots: vec![],
            micros: 0
        }
        .to_bytes()[0],
        0,
        "LevelDone tag"
    );
}

/// Prints the golden constants for pasting after an intentional change.
#[test]
#[ignore = "regeneration helper, not a check"]
fn regenerate_golden_constants() {
    let pairs: Vec<(&str, String)> = vec![
        ("GOLDEN_SLOT_UPDATE", hex(&golden_slot().to_bytes())),
        (
            "GOLDEN_MASTER_INIT",
            hex(&SmaMasterMsg::Init {
                query: golden_query(),
                space: PlanSpace::Linear,
                objective: Objective::Single,
            }
            .to_bytes()),
        ),
        (
            "GOLDEN_MASTER_ASSIGN",
            hex(&SmaMasterMsg::Assign {
                sets: vec![TableSet::from_tables([0, 1]), TableSet::from_tables([2, 3])],
            }
            .to_bytes()),
        ),
        (
            "GOLDEN_MASTER_DELTA",
            hex(&SmaMasterMsg::Delta {
                slots: vec![golden_slot()],
            }
            .to_bytes()),
        ),
        (
            "GOLDEN_MASTER_FINISH",
            hex(&SmaMasterMsg::Finish.to_bytes()),
        ),
        (
            "GOLDEN_REPLY_LEVEL_DONE",
            hex(&SmaReply::LevelDone {
                slots: vec![golden_slot()],
                micros: 42,
            }
            .to_bytes()),
        ),
        (
            "GOLDEN_REPLY_FINAL",
            hex(&SmaReply::Final {
                plans: vec![golden_final_plan()],
                stats: golden_stats(),
            }
            .to_bytes()),
        ),
    ];
    for (name, value) in pairs {
        println!("const {name}: &str = \"{value}\";");
    }
}

// ---------------------------------------------------------------------------
// Coverage: every type on the crate's declared list has a frozen vector,
// and no vector decodes with bytes left over.
// ---------------------------------------------------------------------------

use mpq_cluster::{DecodeError, WireType};
use mpq_sma::message::WIRE_TYPES;

/// Every frozen vector of this file, by the listed wire type it encodes.
const VECTORS: [(&str, &str); 7] = [
    ("SlotUpdate", GOLDEN_SLOT_UPDATE),
    ("SmaMasterMsg", GOLDEN_MASTER_INIT),
    ("SmaMasterMsg", GOLDEN_MASTER_ASSIGN),
    ("SmaMasterMsg", GOLDEN_MASTER_DELTA),
    ("SmaMasterMsg", GOLDEN_MASTER_FINISH),
    ("SmaReply", GOLDEN_REPLY_LEVEL_DONE),
    ("SmaReply", GOLDEN_REPLY_FINAL),
];

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digits"))
        .collect()
}

fn vectors_of(ty: &WireType) -> Vec<&'static str> {
    VECTORS
        .into_iter()
        .filter(|(name, _)| *name == ty.name)
        .map(|(_, golden)| golden)
        .collect()
}

/// What `xtask lint`'s wire rule checked from the text until ISSUE 23: a
/// message added to the schema without a frozen vector fails here.
#[test]
fn every_listed_wire_type_has_a_golden_vector() {
    for ty in WIRE_TYPES {
        let goldens = vectors_of(ty);
        assert!(
            !goldens.is_empty(),
            "wire type `{}` has no golden vector: freeze one and enter it in `VECTORS`",
            ty.name
        );
        for golden in goldens {
            let again = (ty.recode)(&unhex(golden)).expect("golden bytes decode");
            assert_eq!(hex(&again), golden, "golden {} did not re-encode", ty.name);
        }
    }
    for (name, _) in VECTORS {
        assert!(
            WIRE_TYPES.iter().any(|ty| ty.name == name),
            "vector for `{name}`, which is not on the list"
        );
    }
}

/// `from_bytes` takes one whole message: a frame with 1..=8 bytes appended
/// fails typed.
#[test]
fn golden_vectors_with_trailing_bytes_fail_typed() {
    for ty in WIRE_TYPES {
        for golden in vectors_of(ty) {
            for extra in 1..=8 {
                let mut bytes = unhex(golden);
                bytes.resize(bytes.len() + extra, 0xA5);
                assert_eq!(
                    (ty.recode)(&bytes).err(),
                    Some(DecodeError::TrailingBytes(extra)),
                    "{} + {extra} bytes",
                    ty.name
                );
            }
        }
    }
}

/// The `BadTag` arm comes with the declaration: every declared enum answers
/// an undeclared tag with it, naming itself.
#[test]
fn every_declared_enum_rejects_an_undeclared_tag() {
    let enums = WIRE_TYPES.iter().filter(|ty| ty.decl.starts_with("enum "));
    let mut seen = 0;
    for ty in enums {
        seen += 1;
        assert_eq!(
            (ty.recode)(&[0xEE]).err(),
            Some(DecodeError::BadTag {
                tag: 0xEE,
                ty: ty.name
            })
        );
    }
    assert_eq!(seen, 2, "SmaMasterMsg and SmaReply");
}
