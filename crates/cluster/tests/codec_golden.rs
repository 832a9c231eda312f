//! Wire-format regression tests for the `mpq_cluster` codec.
//!
//! Two layers of protection:
//!
//! 1. **Property tests** — randomized values round-trip bit-exactly through
//!    encode/decode, and every strict prefix of an encoding fails to decode
//!    (no silent truncation).
//! 2. **Golden byte vectors** — exact frozen encodings of hand-constructed
//!    values, in the MV2S tradition (fixed-width little-endian primitives,
//!    `u32` length prefixes). Any change to the wire format — field order,
//!    widths, endianness, tags — fails these tests and forces a deliberate
//!    format-version decision instead of a silent break.
//!
//! To regenerate the golden constants after an *intentional* format change:
//! `cargo test -p mpq_cluster --test codec_golden -- --ignored --nocapture`
//! and paste the printed constants below.

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_macros)]

use mpq_cluster::{
    frame_with_prefix, DecodeError, EncodeError, Hello, Progress, QueryId, SessionEnvelope, Wire,
    LENGTH_PREFIX_BYTES,
};
use mpq_cost::{CostVector, JoinOp, Objective, Order, ScanOp};
use mpq_dp::WorkerStats;
use mpq_model::{Catalog, JoinGraph, Predicate, Query, TableSet, TableStats};
use mpq_partition::PlanSpace;
use mpq_plan::{Plan, PlanEntry, PlanNode, PlanOp};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Fixed values under golden protection.
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

fn golden_plan() -> Plan {
    Plan {
        cost: CostVector::new(51500.0, 192.0),
        ops: vec![golden_scan_op(), golden_scan_op_of(1), golden_join_op()],
    }
}

fn golden_scan_op() -> PlanOp {
    golden_scan_op_of(0)
}

fn golden_scan_op_of(table: u8) -> PlanOp {
    PlanOp::Scan {
        table,
        op: ScanOp::Full,
    }
}

fn golden_join_op() -> PlanOp {
    PlanOp::Join { op: JoinOp::Hash }
}

fn golden_entry() -> PlanEntry {
    PlanEntry::join(
        JoinOp::SortMerge,
        TableSet::from_tables([0, 1]),
        7,
        TableSet::singleton(2),
        0,
        CostVector::new(5.0, 6.0),
        Order::OnAttribute(1),
    )
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

fn golden_scan_node() -> PlanNode {
    PlanNode::Scan {
        table: 2,
        op: ScanOp::Full,
    }
}

fn golden_join_node() -> PlanNode {
    PlanNode::Join {
        op: JoinOp::Hash,
        left: TableSet::from_tables([0, 1]),
        left_idx: 7,
        right: TableSet::singleton(2),
        right_idx: 0,
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

const GOLDEN_U64: &str = "efbeadde00000000";
const GOLDEN_F64: &str = "000000000000f83f";
const GOLDEN_VEC_U64: &str = "03000000010000000000000002000000000000000300000000000000";
const GOLDEN_TABLESET: &str = "2100000000000080";
const GOLDEN_TABLESTATS: &str = "0000000000408f400000000000005040";
const GOLDEN_PREDICATE: &str = "0309000000000000903f";
const GOLDEN_QUERY: &str = "030000000000000000408f40000000000000504000000000006ae84000000000000060\
    40000000000000204000000000000030400200000000017b14ae47e17a843f0102000000000000e03f00";
const GOLDEN_COST_VECTOR: &str = "000000000000f83f0000000000000440";
const GOLDEN_OBJECTIVE_MULTI: &str = "010000000000002440";
const GOLDEN_PLAN: &str = "03000141";
const GOLDEN_PLAN_ENTRY: &str =
    "000000000000144000000000000018400201020300000000000000070000000400000\
    00000000000000000";
const GOLDEN_WORKER_STATS: &str =
    "0b00000000000000160000000000000021000000000000002c00000000000000\
    3700000000000000";
// Session layer (multi-query cluster): the QueryId and the envelope frame
// that wraps every wire message — 8-byte LE id, then the payload verbatim.
const GOLDEN_QUERY_ID: &str = "efbeadde00000000";
const GOLDEN_ENVELOPE: &str = "2a00000000000000010203";
// Socket transport layer: the connection handshake (u32 LE magic "MPQ3",
// then the assigned worker id as LE u64) and the length-prefixed frame the
// stream transport writes (u32 LE envelope length, then the envelope).
const GOLDEN_HELLO: &str = "4d5051330700000000000000";
const GOLDEN_PREFIXED_FRAME: &str = "0b0000002a00000000000000010203";
// A Predicate whose table index exceeds the 64-table `TableSet` capacity:
// `to_bytes` emits the 0xFF poison sentinel (never a truncated index), and
// decoding it must fail typed rather than resurrect a bogus table 255.
const GOLDEN_POISONED_PREDICATE: &str = "ff09000000000000903f";
// Straggler-adaptive redistribution: the fixed-size worker progress report
// (three LE u64s: first_partition, completed, partition_count).
const GOLDEN_PROGRESS: &str = "050000000000000002000000000000000800000000000000";
// Plan-space selector (one tag byte) and the memo-reference plan nodes.
const GOLDEN_PLAN_SPACE_LINEAR: &str = "00";
const GOLDEN_PLAN_SPACE_BUSHY: &str = "01";
const GOLDEN_PLAN_NODE_SCAN: &str = "000200";
const GOLDEN_PLAN_NODE_JOIN: &str = "0101030000000000000007000000040000000000000000000000";

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
fn golden_primitives() {
    assert_golden(&0xDEAD_BEEFu64, GOLDEN_U64, "u64");
    assert_golden(&1.5f64, GOLDEN_F64, "f64");
    assert_golden(&vec![1u64, 2, 3], GOLDEN_VEC_U64, "Vec<u64>");
}

#[test]
fn golden_model_types() {
    assert_golden(
        &TableSet::from_tables([0, 5, 63]),
        GOLDEN_TABLESET,
        "TableSet",
    );
    assert_golden(
        &TableStats {
            cardinality: 1000.0,
            tuple_bytes: 64.0,
        },
        GOLDEN_TABLESTATS,
        "TableStats",
    );
    assert_golden(
        &Predicate {
            left: 3,
            right: 9,
            selectivity: 0.015625,
        },
        GOLDEN_PREDICATE,
        "Predicate",
    );
    assert_golden(&golden_query(), GOLDEN_QUERY, "Query");
}

#[test]
fn golden_cost_and_plan_types() {
    assert_golden(&CostVector::new(1.5, 2.5), GOLDEN_COST_VECTOR, "CostVector");
    assert_golden(
        &Objective::Multi { alpha: 10.0 },
        GOLDEN_OBJECTIVE_MULTI,
        "Objective::Multi",
    );
    assert_golden_sent(&golden_plan(), GOLDEN_PLAN, "Plan");
    // The operators alone: the sender's cost does not travel, and the
    // decoded plan is unpriced.
    let plan = Plan::from_bytes(&golden_plan().to_bytes()).unwrap();
    assert_eq!(plan.ops, golden_plan().ops);
    assert!(plan.cost.time.is_nan() && plan.cost.buffer.is_nan());
    // Layout pins: a one-byte operator count, then a byte per operator —
    // a scan is its table, a join 64 plus its `JoinOp` tag (Hash = 1).
    assert_eq!(&golden_plan().to_bytes()[..], [3, 0, 1, 64 + 1]);
    assert_golden(&golden_entry(), GOLDEN_PLAN_ENTRY, "PlanEntry");
    assert_golden(&golden_stats(), GOLDEN_WORKER_STATS, "WorkerStats");
}

#[test]
fn golden_session_layer() {
    assert_golden(&QueryId(0xDEAD_BEEF), GOLDEN_QUERY_ID, "QueryId");
    let framed = SessionEnvelope::frame(QueryId(42), &[1, 2, 3]);
    assert_eq!(
        hex(&framed),
        GOLDEN_ENVELOPE,
        "wire format of SessionEnvelope changed — if intentional, regenerate the golden \
         constants (see module docs); if not, you just broke cross-version compatibility"
    );
    let opened = SessionEnvelope::unframe(&framed).expect("golden frame opens");
    assert_eq!(opened.query, QueryId(42));
    assert_eq!(&opened.payload[..], &[1, 2, 3]);
}

#[test]
fn golden_transport_layer() {
    assert_golden(&Hello { worker_id: 7 }, GOLDEN_HELLO, "Hello");
    // Layout pins: the magic is the literal bytes "MPQ3" (version folded
    // into the magic), the id an LE u64, 12 bytes total.
    let hello = Hello { worker_id: 7 }.to_bytes();
    assert_eq!(hello.len(), Hello::WIRE_SIZE);
    assert_eq!(&hello[..4], b"MPQ3");
    assert_eq!(u64::from_le_bytes(hello[4..12].try_into().unwrap()), 7);
    // A corrupted magic fails typed — a master that dials a non-pqopt port
    // gets a decode error, not a garbage worker id.
    let mut bad = hello.to_vec();
    bad[0] ^= 0xFF;
    assert!(matches!(
        Hello::from_bytes(&bad),
        Err(DecodeError::BadTag { ty: "Hello", .. })
    ));

    // The stream framing is the u32 LE envelope length, then the envelope
    // exactly as the in-process transport would carry it.
    let framed = frame_with_prefix(QueryId(42), &[1, 2, 3]);
    assert_eq!(
        hex(&framed),
        GOLDEN_PREFIXED_FRAME,
        "wire format of the length-prefixed frame changed — if intentional, regenerate the \
         golden constants (see module docs); if not, you just broke cross-version compatibility"
    );
    let (prefix, envelope) = framed.split_at(LENGTH_PREFIX_BYTES);
    assert_eq!(
        u32::from_le_bytes(prefix.try_into().unwrap()) as usize,
        envelope.len()
    );
    assert_eq!(hex(envelope), GOLDEN_ENVELOPE);
}

/// Regression for the silent `as u8` truncation bug: a table index ≥ 64
/// must surface as a typed error on both sides of the wire, never as a
/// plausible-looking small index.
#[test]
fn golden_out_of_range_predicate() {
    let bad = Predicate {
        left: 200,
        right: 9,
        selectivity: 0.015625,
    };
    assert_eq!(
        bad.try_to_bytes(),
        Err(EncodeError::TableIndexOutOfRange { index: 200 })
    );
    // The infallible path emits the 0xFF poison sentinel in place of the
    // index (the old code emitted 200 % 256 = 0xC8, a "valid" table 8 after
    // masking downstream); pin that byte layout.
    assert_eq!(hex(&bad.to_bytes()), GOLDEN_POISONED_PREDICATE);
    assert!(matches!(
        Predicate::from_bytes(&bad.to_bytes()),
        Err(DecodeError::IndexOutOfRange {
            index: 255,
            ty: "Predicate"
        })
    ));
}

#[test]
fn golden_plan_space_and_nodes() {
    assert_golden(
        &PlanSpace::Linear,
        GOLDEN_PLAN_SPACE_LINEAR,
        "PlanSpace::Linear",
    );
    assert_golden(
        &PlanSpace::Bushy,
        GOLDEN_PLAN_SPACE_BUSHY,
        "PlanSpace::Bushy",
    );
    assert_golden(&golden_scan_node(), GOLDEN_PLAN_NODE_SCAN, "PlanNode::Scan");
    assert_golden(&golden_join_node(), GOLDEN_PLAN_NODE_JOIN, "PlanNode::Join");
    // Layout pins: PlanSpace is a single tag byte; PlanNode leads with its
    // variant tag (0 = Scan, 1 = Join).
    assert_eq!(&PlanSpace::Linear.to_bytes()[..], [0]);
    assert_eq!(&PlanSpace::Bushy.to_bytes()[..], [1]);
    assert_eq!(golden_scan_node().to_bytes()[0], 0);
    assert_eq!(golden_join_node().to_bytes()[0], 1);
}

#[test]
fn golden_progress_report() {
    assert_golden(&golden_progress(), GOLDEN_PROGRESS, "Progress");
    // Fixed-size layout: exactly three LE u64s, 24 bytes.
    let bytes = golden_progress().to_bytes();
    assert_eq!(bytes.len(), 24);
    assert_eq!(u64::from_le_bytes(bytes[0..8].try_into().unwrap()), 5);
    assert_eq!(u64::from_le_bytes(bytes[8..16].try_into().unwrap()), 2);
    assert_eq!(u64::from_le_bytes(bytes[16..24].try_into().unwrap()), 8);
}

/// The golden query must stay byte-identical structurally: length prefix,
/// per-table stats, predicates, graph tag — this pins the *layout*, not
/// just the bytes.
#[test]
fn golden_query_layout() {
    let bytes = golden_query().to_bytes();
    // u32 LE table count.
    assert_eq!(&bytes[..4], &[3, 0, 0, 0], "leading u32 LE table count");
    // 3 tables x 2 f64 stats.
    let stats_end = 4 + 3 * 16;
    assert_eq!(
        f64::from_le_bytes(bytes[4..12].try_into().unwrap()),
        1000.0,
        "first stat is table 0 cardinality, f64 LE"
    );
    // u32 LE predicate count right after the stats.
    assert_eq!(&bytes[stats_end..stats_end + 4], &[2, 0, 0, 0]);
    // Trailing join-graph tag (Chain = 0).
    assert_eq!(*bytes.last().unwrap(), 0);
    // Total size: 4 + 48 stats + 4 + 2 predicates x 10 + 1 tag.
    assert_eq!(bytes.len(), 4 + 48 + 4 + 20 + 1);
}

/// Prints the golden constants for pasting after an intentional change.
#[test]
#[ignore = "regeneration helper, not a check"]
fn regenerate_golden_constants() {
    let pairs: Vec<(&str, String)> = vec![
        ("GOLDEN_U64", hex(&0xDEAD_BEEFu64.to_bytes())),
        ("GOLDEN_F64", hex(&1.5f64.to_bytes())),
        ("GOLDEN_VEC_U64", hex(&vec![1u64, 2, 3].to_bytes())),
        (
            "GOLDEN_TABLESET",
            hex(&TableSet::from_tables([0, 5, 63]).to_bytes()),
        ),
        (
            "GOLDEN_TABLESTATS",
            hex(&TableStats {
                cardinality: 1000.0,
                tuple_bytes: 64.0,
            }
            .to_bytes()),
        ),
        (
            "GOLDEN_PREDICATE",
            hex(&Predicate {
                left: 3,
                right: 9,
                selectivity: 0.015625,
            }
            .to_bytes()),
        ),
        ("GOLDEN_QUERY", hex(&golden_query().to_bytes())),
        (
            "GOLDEN_COST_VECTOR",
            hex(&CostVector::new(1.5, 2.5).to_bytes()),
        ),
        (
            "GOLDEN_OBJECTIVE_MULTI",
            hex(&Objective::Multi { alpha: 10.0 }.to_bytes()),
        ),
        ("GOLDEN_PLAN", hex(&golden_plan().to_bytes())),
        ("GOLDEN_PLAN_ENTRY", hex(&golden_entry().to_bytes())),
        ("GOLDEN_WORKER_STATS", hex(&golden_stats().to_bytes())),
        ("GOLDEN_QUERY_ID", hex(&QueryId(0xDEAD_BEEF).to_bytes())),
        (
            "GOLDEN_ENVELOPE",
            hex(&SessionEnvelope::frame(QueryId(42), &[1, 2, 3])),
        ),
        ("GOLDEN_HELLO", hex(&Hello { worker_id: 7 }.to_bytes())),
        (
            "GOLDEN_PREFIXED_FRAME",
            hex(&frame_with_prefix(QueryId(42), &[1, 2, 3])),
        ),
        (
            "GOLDEN_POISONED_PREDICATE",
            hex(&Predicate {
                left: 200,
                right: 9,
                selectivity: 0.015625,
            }
            .to_bytes()),
        ),
        ("GOLDEN_PROGRESS", hex(&golden_progress().to_bytes())),
        (
            "GOLDEN_PLAN_SPACE_LINEAR",
            hex(&PlanSpace::Linear.to_bytes()),
        ),
        ("GOLDEN_PLAN_SPACE_BUSHY", hex(&PlanSpace::Bushy.to_bytes())),
        ("GOLDEN_PLAN_NODE_SCAN", hex(&golden_scan_node().to_bytes())),
        ("GOLDEN_PLAN_NODE_JOIN", hex(&golden_join_node().to_bytes())),
    ];
    for (name, value) in pairs {
        println!("const {name}: &str = \"{value}\";");
    }
}

// ---------------------------------------------------------------------------
// Property tests: random values round-trip, prefixes fail.
// ---------------------------------------------------------------------------

fn arb_stats() -> impl Strategy<Value = TableStats> {
    (1.0..1e9f64, 1.0..4096.0f64).prop_map(|(cardinality, tuple_bytes)| TableStats {
        cardinality: cardinality.round(),
        tuple_bytes: tuple_bytes.round(),
    })
}

fn arb_query() -> impl Strategy<Value = Query> {
    (
        prop::collection::vec(arb_stats(), 1..12),
        prop::collection::vec((0..12usize, 0..12usize, 0.0001..1.0f64), 0..16),
        0..4usize,
    )
        .prop_map(|(stats, raw_preds, graph)| {
            let n = stats.len();
            Query {
                catalog: Catalog::from_stats(stats),
                predicates: raw_preds
                    .into_iter()
                    .map(|(left, right, selectivity)| Predicate {
                        left: left % n,
                        right: right % n,
                        selectivity,
                    })
                    .collect(),
                graph: JoinGraph::ALL[graph],
            }
        })
}

fn arb_left_deep_plan() -> impl Strategy<Value = Plan> {
    (
        prop::collection::vec(0..3usize, 0..8),
        0.0..1e9f64,
        0.0..1e9f64,
    )
        .prop_map(|(joins, time, buffer)| {
            let mut ops = vec![golden_scan_op()];
            for (t, op_idx) in joins.into_iter().enumerate() {
                ops.push(golden_scan_op_of(t as u8 + 1));
                ops.push(PlanOp::Join {
                    op: mpq_cost::JOIN_OPS[op_idx],
                });
            }
            Plan {
                cost: CostVector::new(time, buffer),
                ops,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn stats_roundtrip(stats in arb_stats()) {
        let back = TableStats::from_bytes(&stats.to_bytes()).unwrap();
        prop_assert_eq!(back, stats);
    }

    #[test]
    fn query_roundtrip(query in arb_query()) {
        let back = Query::from_bytes(&query.to_bytes()).unwrap();
        prop_assert_eq!(back, query);
    }

    #[test]
    fn plan_roundtrip(plan in arb_left_deep_plan()) {
        let back = Plan::from_bytes(&plan.to_bytes()).unwrap();
        prop_assert_eq!(back.ops, plan.ops);
        prop_assert!(back.cost.time.is_nan() && back.cost.buffer.is_nan());
    }

    #[test]
    fn cost_vector_roundtrip_bit_exact(time in prop::num::f64::NORMAL, buffer in prop::num::f64::NORMAL) {
        let v = CostVector::new(time, buffer);
        let back = CostVector::from_bytes(&v.to_bytes()).unwrap();
        prop_assert_eq!(back.time.to_bits(), v.time.to_bits());
        prop_assert_eq!(back.buffer.to_bits(), v.buffer.to_bits());
    }

    #[test]
    fn vec_u64_roundtrip_and_length_prefix(values in prop::collection::vec(any::<u64>(), 0..64)) {
        let bytes = values.clone().to_bytes();
        prop_assert_eq!(bytes.len(), 4 + 8 * values.len(), "u32 length prefix + fixed-width items");
        let back = Vec::<u64>::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, values);
    }

    /// No strict prefix of a query encoding decodes: truncation is always
    /// detected, never silently accepted.
    #[test]
    fn query_prefixes_always_fail(query in arb_query(), cut_seed in any::<u64>()) {
        let bytes = query.to_bytes();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(
            Query::from_bytes(&bytes[..cut]).is_err(),
            "prefix of {} / {} bytes decoded successfully",
            cut,
            bytes.len()
        );
    }
}

// ---------------------------------------------------------------------------
// Coverage: every type on the crate's declared list has a frozen vector,
// and no vector decodes with bytes left over.
// ---------------------------------------------------------------------------

use mpq_cluster::codec::{WireType, WIRE_TYPES};
use mpq_cluster::FixedSize;

// The listed types the vectors above do not reach: the two remaining
// primitives and the one-byte selectors.
const GOLDEN_U8: &str = "2a";
const GOLDEN_U32: &str = "efbeadde";
const GOLDEN_ORDER_NONE: &str = "00";
const GOLDEN_ORDER_ON_ATTRIBUTE_1: &str = "02";
const GOLDEN_JOIN_GRAPHS: [&str; 4] = ["00", "01", "02", "03"];
const GOLDEN_SCAN_OP_FULL: &str = "00";
const GOLDEN_JOIN_OPS: [&str; 3] = ["00", "01", "02"];
const GOLDEN_OBJECTIVE_SINGLE: &str = "00";

#[test]
fn golden_small_primitives_and_selectors() {
    assert_golden(&0x2Au8, GOLDEN_U8, "u8");
    assert_golden(&0xDEAD_BEEFu32, GOLDEN_U32, "u32");
    assert_golden(&Order::None, GOLDEN_ORDER_NONE, "Order::None");
    assert_golden(
        &Order::OnAttribute(1),
        GOLDEN_ORDER_ON_ATTRIBUTE_1,
        "Order::OnAttribute",
    );
    for (graph, golden) in JoinGraph::ALL.iter().zip(GOLDEN_JOIN_GRAPHS) {
        assert_golden(graph, golden, "JoinGraph");
    }
    assert_golden(&ScanOp::Full, GOLDEN_SCAN_OP_FULL, "ScanOp");
    for (op, golden) in mpq_cost::JOIN_OPS.iter().zip(GOLDEN_JOIN_OPS) {
        assert_golden(op, golden, "JoinOp");
    }
    assert_golden(
        &Objective::Single,
        GOLDEN_OBJECTIVE_SINGLE,
        "Objective::Single",
    );
}

/// Every frozen vector of this file, by the listed wire type it encodes.
fn vectors() -> Vec<(&'static str, &'static str)> {
    let mut all = vec![
        ("u8", GOLDEN_U8),
        ("u32", GOLDEN_U32),
        ("u64", GOLDEN_U64),
        ("f64", GOLDEN_F64),
        ("Predicate", GOLDEN_PREDICATE),
        ("Query", GOLDEN_QUERY),
        ("Order", GOLDEN_ORDER_NONE),
        ("Order", GOLDEN_ORDER_ON_ATTRIBUTE_1),
        ("Hello", GOLDEN_HELLO),
        ("QueryId", GOLDEN_QUERY_ID),
        ("Progress", GOLDEN_PROGRESS),
        ("TableSet", GOLDEN_TABLESET),
        ("TableStats", GOLDEN_TABLESTATS),
        ("CostVector", GOLDEN_COST_VECTOR),
        ("PlanEntry", GOLDEN_PLAN_ENTRY),
        ("WorkerStats", GOLDEN_WORKER_STATS),
        ("ScanOp", GOLDEN_SCAN_OP_FULL),
        ("PlanSpace", GOLDEN_PLAN_SPACE_LINEAR),
        ("PlanSpace", GOLDEN_PLAN_SPACE_BUSHY),
        ("Objective", GOLDEN_OBJECTIVE_SINGLE),
        ("Objective", GOLDEN_OBJECTIVE_MULTI),
        ("Plan", GOLDEN_PLAN),
        ("PlanNode", GOLDEN_PLAN_NODE_SCAN),
        ("PlanNode", GOLDEN_PLAN_NODE_JOIN),
    ];
    all.extend(GOLDEN_JOIN_GRAPHS.map(|golden| ("JoinGraph", golden)));
    all.extend(GOLDEN_JOIN_OPS.map(|golden| ("JoinOp", golden)));
    all
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digits"))
        .collect()
}

fn vectors_of(ty: &WireType) -> Vec<&'static str> {
    vectors()
        .into_iter()
        .filter(|(name, _)| *name == ty.name)
        .map(|(_, golden)| golden)
        .collect()
}

/// Golden coverage, by the declared list rather than from the source text: a
/// wire type added to the schema without a frozen vector fails here.
#[test]
fn every_listed_wire_type_has_a_golden_vector() {
    for ty in WIRE_TYPES {
        let goldens = vectors_of(ty);
        assert!(
            !goldens.is_empty(),
            "wire type `{}` has no golden vector: freeze one and enter it in `vectors()`",
            ty.name
        );
        for golden in goldens {
            let again = (ty.recode)(&unhex(golden)).expect("golden bytes decode");
            assert_eq!(hex(&again), golden, "golden {} did not re-encode", ty.name);
        }
    }
    for (name, _) in vectors() {
        assert!(
            WIRE_TYPES.iter().any(|ty| ty.name == name),
            "vector for `{name}`, which is not on the list"
        );
    }
}

/// `from_bytes` takes one whole message: a golden vector with 1..=8 bytes
/// appended fails typed, for every listed type.
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

/// The sizes the compiler sums from the declarations are the lengths of
/// the frozen vectors.
#[test]
fn fixed_sizes_equal_the_golden_lengths() {
    assert_eq!(QueryId::SIZE, GOLDEN_QUERY_ID.len() / 2);
    assert_eq!(Progress::SIZE, GOLDEN_PROGRESS.len() / 2);
    assert_eq!(Hello::SIZE, GOLDEN_HELLO.len() / 2);
    assert_eq!(QueryId::WIRE_SIZE, QueryId::SIZE);
    assert_eq!(Progress::WIRE_SIZE, Progress::SIZE);
    assert_eq!(Hello::WIRE_SIZE, Hello::SIZE);
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
    assert_eq!(seen, 6, "the six tagged types of this crate");
}
