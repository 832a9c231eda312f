//! Wire-format regression tests for the MPQ protocol messages.
//!
//! Golden byte vectors in the same style as the `mpq_cluster` codec suite:
//! exact frozen encodings of hand-constructed values. Any change to the
//! task/reply wire format — field order, widths, tags — fails these tests
//! and forces a deliberate format-version decision instead of a silent
//! break between a master and a worker built from different revisions.
//!
//! To regenerate the golden constants after an *intentional* format change:
//! `cargo test -p mpq_algo --test codec_golden -- --ignored --nocapture`
//! and paste the printed constants below.

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_macros)]

use mpq_algo::{MasterMessage, WorkerMsg, WorkerReply};
use mpq_cluster::{Progress, Wire};
use mpq_cost::{CostVector, Objective, ScanOp};
use mpq_dp::WorkerStats;
use mpq_model::{Catalog, JoinGraph, Predicate, Query, TableStats};
use mpq_partition::PlanSpace;
use mpq_plan::{Plan, PlanOp};

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

fn golden_master_message() -> MasterMessage {
    MasterMessage {
        query: golden_query(),
        space: PlanSpace::Bushy,
        objective: Objective::Multi { alpha: 10.0 },
        first_partition: 5,
        partition_count: 2,
        total_partitions: 8,
        progress_every: 1,
    }
}

fn golden_reply() -> WorkerReply {
    WorkerReply {
        first_partition: 3,
        partition_count: 2,
        plans: vec![Plan {
            cost: CostVector::new(8.0, 16.0),
            ops: vec![PlanOp::Scan {
                table: 2,
                op: ScanOp::Full,
            }],
        }],
        stats: WorkerStats {
            stored_sets: 11,
            total_entries: 22,
            splits_tried: 33,
            plans_generated: 44,
            optimize_micros: 55,
        },
        cache_hits: 1,
        cache_misses: 1,
    }
}

fn golden_progress() -> Progress {
    Progress {
        first_partition: 5,
        completed: 2,
        partition_count: 8,
    }
}

// ---------------------------------------------------------------------------
// Frozen encodings. Regenerate only on a deliberate wire-format change.
// ---------------------------------------------------------------------------

const GOLDEN_MASTER_MESSAGE: &str =
    "030000000000000000408f40000000000000504000000000006ae84000000000\
    00006040000000000000204000000000000030400200000000017b14ae47e17a\
    843f0102000000000000e03f0001010000000000002440050000000000000002\
    0000000000000008000000000000000100000000000000";
const GOLDEN_WORKER_REPLY: &str =
    "030000000000000002000000000000000100000001020b000000000000001600\
    00000000000021000000000000002c0000000000000037000000000000000100\
    0000000000000100000000000000";
const GOLDEN_WORKER_MSG_REPLY: &str =
    "00030000000000000002000000000000000100000001020b0000000000000016\
    0000000000000021000000000000002c00000000000000370000000000000001\
    000000000000000100000000000000";
const GOLDEN_WORKER_MSG_PROGRESS: &str = "01050000000000000002000000000000000800000000000000";

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
fn golden_master_message_bytes() {
    assert_golden(
        &golden_master_message(),
        GOLDEN_MASTER_MESSAGE,
        "MasterMessage",
    );
}

#[test]
fn golden_worker_reply_bytes() {
    assert_golden_sent(&golden_reply(), GOLDEN_WORKER_REPLY, "WorkerReply");
    let back = WorkerReply::from_bytes(&golden_reply().to_bytes()).unwrap();
    assert_eq!(back.plans[0].ops, golden_reply().plans[0].ops);
    assert!(
        back.plans[0].cost.time.is_nan(),
        "the reply's plan is unpriced"
    );
}

#[test]
fn golden_worker_msg_bytes() {
    assert_golden_sent(
        &WorkerMsg::Reply(golden_reply()),
        GOLDEN_WORKER_MSG_REPLY,
        "WorkerMsg::Reply",
    );
    assert_golden(
        &WorkerMsg::Progress(golden_progress()),
        GOLDEN_WORKER_MSG_PROGRESS,
        "WorkerMsg::Progress",
    );
}

/// Pin the layout facts the master's cheap tag peek relies on: the first
/// byte of a `WorkerMsg` is its tag, and a progress message is exactly the
/// tag byte plus the 24-byte fixed report.
#[test]
fn golden_worker_msg_layout() {
    let reply = WorkerMsg::Reply(golden_reply()).to_bytes();
    assert_eq!(reply[0], WorkerMsg::TAG_REPLY);
    let progress = WorkerMsg::Progress(golden_progress()).to_bytes();
    assert_eq!(progress[0], WorkerMsg::TAG_PROGRESS);
    assert_eq!(progress.len(), 25, "tag byte plus the 24-byte report");
    // The task's trailing integers sit after the query/space/objective
    // prefix: the last 32 bytes are four LE u64s.
    let task = golden_master_message().to_bytes();
    let tail = &task[task.len() - 32..];
    let ints: Vec<u64> = tail
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect();
    assert_eq!(ints, vec![5, 2, 8, 1]);
}

/// Prints the golden constants for pasting after an intentional change.
#[test]
#[ignore = "regeneration helper, not a check"]
fn regenerate_golden_constants() {
    let pairs: Vec<(&str, String)> = vec![
        (
            "GOLDEN_MASTER_MESSAGE",
            hex(&golden_master_message().to_bytes()),
        ),
        ("GOLDEN_WORKER_REPLY", hex(&golden_reply().to_bytes())),
        (
            "GOLDEN_WORKER_MSG_REPLY",
            hex(&WorkerMsg::Reply(golden_reply()).to_bytes()),
        ),
        (
            "GOLDEN_WORKER_MSG_PROGRESS",
            hex(&WorkerMsg::Progress(golden_progress()).to_bytes()),
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

use mpq_algo::message::WIRE_TYPES;
use mpq_cluster::{DecodeError, WireType};

/// Every frozen vector of this file, by the listed wire type it encodes.
const VECTORS: [(&str, &str); 4] = [
    ("MasterMessage", GOLDEN_MASTER_MESSAGE),
    ("WorkerReply", GOLDEN_WORKER_REPLY),
    ("WorkerMsg", GOLDEN_WORKER_MSG_REPLY),
    ("WorkerMsg", GOLDEN_WORKER_MSG_PROGRESS),
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

/// Golden coverage, by the declared list rather than from the source text: a
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

/// `from_bytes` takes one whole message: a task or reply with 1..=8 bytes
/// appended fails typed.
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
    assert_eq!(seen, 1, "WorkerMsg");
}
