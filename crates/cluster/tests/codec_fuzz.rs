//! Codec robustness fuzzing: the `Decoder` must never panic, whatever
//! bytes arrive.
//!
//! Complements `codec_golden.rs` (which pins the format of *valid*
//! encodings): these property tests feed the decoder arbitrary byte
//! soup, truncated valid encodings and bit-flipped valid encodings for
//! every `Wire` type, and require that decoding always returns — `Ok` on
//! a well-formed prefix, `DecodeError` otherwise, never a panic, hang or
//! unbounded allocation. This is the trust boundary of the simulated
//! network: a faulty or malicious worker reply must surface as a typed
//! error at the master, not a crash.

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mpq_cluster::{frame_with_prefix, DecodeError, FrameBuffer, Hello, QueryId, Wire};
use mpq_cost::{CostVector, JoinOp, Objective, Order, ScanOp};
use mpq_dp::WorkerStats;
use mpq_model::{
    Catalog, JoinGraph, Predicate, Query, TableSet, TableStats, WorkloadConfig, WorkloadGenerator,
};
use mpq_partition::{is_partition_range, partition_constraints, PlanSpace};
use mpq_plan::{Plan, PlanEntry, PlanNode};
use proptest::prelude::*;

/// Case count: `PROPTEST_CASES` (as in the CI chaos job) or the default.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs every `Wire` decoder over `data`; panics (failing the test) only
/// if a decoder itself panics. Results are deliberately discarded: both
/// `Ok` and `Err` are acceptable outcomes for hostile bytes.
fn decode_all(data: &[u8]) {
    let _ = u64::from_bytes(data);
    let _ = f64::from_bytes(data);
    let _ = Vec::<u64>::from_bytes(data);
    let _ = TableSet::from_bytes(data);
    let _ = TableStats::from_bytes(data);
    let _ = Predicate::from_bytes(data);
    let _ = JoinGraph::from_bytes(data);
    let _ = Query::from_bytes(data);
    let _ = CostVector::from_bytes(data);
    let _ = Order::from_bytes(data);
    let _ = ScanOp::from_bytes(data);
    let _ = JoinOp::from_bytes(data);
    let _ = PlanSpace::from_bytes(data);
    let _ = Objective::from_bytes(data);
    let _ = Plan::from_bytes(data);
    let _ = Vec::<Plan>::from_bytes(data);
    let _ = PlanNode::from_bytes(data);
    let _ = PlanEntry::from_bytes(data);
    let _ = Vec::<PlanEntry>::from_bytes(data);
    let _ = WorkerStats::from_bytes(data);
    let _ = Hello::from_bytes(data);
}

/// Runs the stream reassembler over `data` delivered in `chunk`-byte
/// reads, as a socket might segment it. Decoded frames and typed errors
/// are both fine; panics and unbounded allocation are not. Pure
/// in-memory — no sockets — so it runs under Miri like the rest of this
/// suite.
fn reassemble_all(data: &[u8], chunk: usize) {
    let mut fb = FrameBuffer::new();
    for piece in data.chunks(chunk.max(1)) {
        fb.push(piece);
        loop {
            match fb.next_frame() {
                Ok(Some(env)) => decode_all(&env.payload),
                Ok(None) => break,
                // Corrupt prefix: the stream is poisoned, as a real
                // reader would treat it.
                Err(_) => return,
            }
        }
    }
    let _ = fb.finish();
}

/// A valid, content-rich encoding to truncate and mutate: a generated
/// query plus a full optimal plan for it.
fn valid_encodings(seed: u64, n: usize) -> Vec<Vec<u8>> {
    let q = WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).next_query();
    let out = mpq_dp::optimize_serial(&q, PlanSpace::Linear, mpq_cost::Objective::Single);
    vec![
        q.to_bytes().to_vec(),
        out.plans[0].to_bytes().to_vec(),
        out.stats.to_bytes().to_vec(),
    ]
}

/// A query of exactly `n` tables and no predicates.
fn query_of(n: usize) -> Query {
    Query {
        catalog: Catalog::from_stats(vec![TableStats::with_cardinality(10.0); n]),
        predicates: Vec::new(),
        graph: JoinGraph::Chain,
    }
}

/// Regression (ISSUE 13 satellite): a table count no optimizer accepts —
/// zero, or more than a `TableSet` holds — is rejected by the decoder, so
/// a hostile or corrupt frame cannot reach `Grouping::new`'s assert on a
/// resident worker. The encoder is untouched (it still writes them), and
/// the boundary sizes 1 and 64 still round-trip.
#[test]
fn unoptimizable_table_counts_fail_typed() {
    for n in [0, TableSet::MAX_TABLES + 1] {
        assert_eq!(
            Query::from_bytes(&query_of(n).to_bytes()),
            Err(DecodeError::TableCount(n)),
            "{n} tables"
        );
    }
    for n in [1, TableSet::MAX_TABLES] {
        let q = query_of(n);
        assert_eq!(Query::from_bytes(&q.to_bytes()), Ok(q), "{n} tables");
    }
}

/// Regression (ISSUE 18 satellite): `Predicate::decode` can only bound an
/// endpoint by the `TableSet` capacity, so a decoded 6-table query could
/// carry a predicate on table 40 — inert while predicates were only ever
/// scanned, an out-of-bounds index once anything is indexed per table.
/// `Query::decode` knows the table count and rejects it; the encoder is
/// untouched, and the last real table still round-trips.
#[test]
fn predicate_outside_the_query_fails_typed() {
    let with_predicate = |left, right| {
        let mut q = query_of(6);
        q.predicates.push(Predicate {
            left,
            right,
            selectivity: 0.5,
        });
        q
    };
    for (left, right, index) in [(40, 1, 40), (2, 6, 6), (63, 63, 63)] {
        assert_eq!(
            Query::from_bytes(&with_predicate(left, right).to_bytes()),
            Err(DecodeError::IndexOutOfRange { index, ty: "Query" }),
            "predicate ({left}, {right})"
        );
    }
    let q = with_predicate(5, 0);
    assert_eq!(Query::from_bytes(&q.to_bytes()), Ok(q));
}

/// Regression (ISSUE 22 satellite): `Objective::decode` accepted any
/// `f64` as the approximation factor, and `PruningPolicy::new` asserts it
/// is at least 1 — so a task carrying α = 0.5 or NaN killed the resident
/// worker that decoded it. The decoder rejects what no optimizer accepts;
/// the encoder is untouched, and valid factors (1 included) round-trip.
#[test]
fn hostile_approximation_factors_fail_typed() {
    for alpha in [0.5, 0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(
            Objective::from_bytes(&Objective::Multi { alpha }.to_bytes()),
            Err(DecodeError::ApproximationFactor(alpha.to_bits())),
            "alpha {alpha}"
        );
    }
    for objective in [
        Objective::Single,
        Objective::Multi { alpha: 1.0 },
        Objective::PAPER_MULTI,
    ] {
        assert_eq!(Objective::from_bytes(&objective.to_bytes()), Ok(objective));
    }
}

/// Regression (ROADMAP 5b): `Query::decode` took any `f64` as a
/// statistic, so `0 · ∞` cardinalities reached the DP as NaN plan times —
/// where the optimum can depend on the partition cut, which the service
/// now varies with load. The decoder refuses what no catalog can have
/// (NaN, ±∞ or negative cardinality or tuple width; a selectivity that
/// is NaN, ≤ 0 or > 1); the encoder is untouched, and
/// the boundary values round-trip.
#[test]
fn impossible_statistics_fail_typed() {
    let bad = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -1.0,
        -f64::MIN_POSITIVE,
    ];
    let sound = TableStats::with_cardinality(10.0);
    // Built whole: a mutated catalog bumps its epoch, which the wire
    // does not carry.
    let with_stats = |last: TableStats| {
        let mut stats = vec![sound.clone(); 2];
        stats.push(last);
        Query {
            catalog: Catalog::from_stats(stats),
            predicates: Vec::new(),
            graph: JoinGraph::Chain,
        }
    };
    for value in bad {
        for (field, stats) in [
            (
                "cardinality",
                TableStats {
                    cardinality: value,
                    ..sound.clone()
                },
            ),
            (
                "tuple_bytes",
                TableStats {
                    tuple_bytes: value,
                    ..sound.clone()
                },
            ),
        ] {
            let q = with_stats(stats);
            assert_eq!(
                Query::from_bytes(&q.to_bytes()),
                Err(DecodeError::Statistic {
                    field,
                    bits: value.to_bits()
                }),
                "{field} = {value}"
            );
        }
    }
    let with_selectivity = |selectivity| {
        let mut q = with_stats(sound.clone());
        q.predicates.push(Predicate {
            left: 0,
            right: 2,
            selectivity,
        });
        q
    };
    for value in [f64::NAN, 0.0, -0.0, -0.5, 1.0 + f64::EPSILON, f64::INFINITY] {
        assert_eq!(
            Query::from_bytes(&with_selectivity(value).to_bytes()),
            Err(DecodeError::Statistic {
                field: "selectivity",
                bits: value.to_bits()
            }),
            "selectivity {value}"
        );
    }
    // The edges of what a catalog can have still decode.
    let mut q = with_stats(TableStats {
        cardinality: 0.0,
        tuple_bytes: f64::MAX,
    });
    for selectivity in [1.0, f64::MIN_POSITIVE] {
        q.predicates.push(Predicate {
            left: 1,
            right: 2,
            selectivity,
        });
    }
    assert_eq!(Query::from_bytes(&q.to_bytes()), Ok(q));
}

/// Regression (ISSUE 24 satellite): a task's partition range is three
/// integers decoded as they come, and `partition_constraints` asserts on a
/// total that is no power of two, an ID past it, or more constraints than
/// the query has groups — so a task carrying one killed the resident
/// worker that decoded it, and a count of `u64::MAX` would have run for
/// good. `is_partition_range` is what worker and master ask first; valid
/// ranges, the whole space included, pass.
#[test]
fn hostile_partition_ranges_are_refused() {
    let linear3 =
        |first, count, total| is_partition_range(3, PlanSpace::Linear, first, count, total);
    for (first, count, total) in [
        (0, 1, 3),
        (7, 1, 4),
        (0, 1, 1 << 40),
        (0, u64::MAX, 1),
        (1, u64::MAX, 2),
        (0, 0, 1),
        (0, 1, 0),
    ] {
        assert!(!linear3(first, count, total), "{first}+{count} of {total}");
    }
    assert!(linear3(0, 1, 1) && linear3(1, 1, 2) && linear3(0, 2, 2));
    assert!(is_partition_range(
        24,
        PlanSpace::Linear,
        0,
        1 << 12,
        1 << 12
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(128)))]

    /// Arbitrary partition ranges: one the guard accepts decodes to
    /// constraints at both its ends; the rest never reach the decoder.
    #[test]
    fn accepted_partition_ranges_decode(
        n in 1usize..=24,
        bushy in any::<bool>(),
        first in any::<u64>(),
        count in any::<u64>(),
        log in 0u32..64,
        junk in any::<u64>(),
        small in any::<bool>(),
    ) {
        let space = if bushy { PlanSpace::Bushy } else { PlanSpace::Linear };
        // Half the totals are powers of two, half the ranges lie near them.
        let total = if junk % 2 == 0 { 1u64 << (log % 14) } else { junk };
        let (first, count) = if small { (first % (total | 1), 1 + count % 4) } else { (first, count) };
        if is_partition_range(n, space, first, count, total) {
            for id in [first, first + (count - 1)] {
                let constraints = partition_constraints(n, space, id, total);
                prop_assert_eq!(constraints.len() as u32, total.trailing_zeros());
            }
        }
    }

    /// Arbitrary byte soup: every decoder returns instead of panicking.
    #[test]
    fn arbitrary_bytes_never_panic(data in prop::collection::vec(any::<u8>(), 0..600)) {
        decode_all(&data);
    }

    /// Truncations of valid encodings: never a panic, and a *strict*
    /// truncation of a query encoding never decodes as a full query.
    #[test]
    fn truncated_encodings_never_panic(
        seed in any::<u64>(),
        n in 1usize..=6,
        cut_frac in 0.0..1.0f64,
    ) {
        for bytes in valid_encodings(seed, n) {
            let cut = ((bytes.len() as f64) * cut_frac) as usize;
            decode_all(&bytes[..cut.min(bytes.len())]);
        }
        // The full (untruncated) query encoding must stay decodable.
        let q = WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).next_query();
        prop_assert!(Query::from_bytes(&q.to_bytes()).is_ok());
        let strict = q.to_bytes();
        prop_assert!(Query::from_bytes(&strict[..strict.len() - 1]).is_err());
    }

    /// Bit-flipped valid encodings: a single corrupted bit anywhere in a
    /// golden-style payload yields `Ok` or `DecodeError`, never a panic.
    #[test]
    fn mutated_encodings_never_panic(
        seed in any::<u64>(),
        n in 1usize..=6,
        pos_frac in 0.0..1.0f64,
        bit in 0u8..8,
    ) {
        for bytes in valid_encodings(seed, n) {
            let mut mutated = bytes.clone();
            let pos = ((mutated.len() as f64) * pos_frac) as usize;
            let pos = pos.min(mutated.len() - 1);
            mutated[pos] ^= 1 << bit;
            decode_all(&mutated);
        }
    }

    /// Length-prefix bombs: a huge or lying collection length either
    /// fails the sanity cap or runs out of bytes — bounded time and
    /// allocation, no panic.
    #[test]
    fn hostile_length_prefixes_never_panic(len in any::<u32>(), tail in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut data = len.to_le_bytes().to_vec();
        data.extend_from_slice(&tail);
        decode_all(&data);
    }

    /// Framed-stream soup: arbitrary bytes through the socket-transport
    /// reassembler at an arbitrary read granularity — typed errors or
    /// frames, never a panic.
    #[test]
    fn arbitrary_framed_streams_never_panic(
        data in prop::collection::vec(any::<u8>(), 0..600),
        chunk in 1usize..64,
    ) {
        reassemble_all(&data, chunk);
    }

    /// Well-formed frame sequences survive any read segmentation: every
    /// frame comes back exactly once, in order, whatever the chunking.
    #[test]
    fn valid_framed_streams_reassemble_exactly(
        seed in any::<u64>(),
        n in 1usize..=5,
        chunk in 1usize..64,
    ) {
        let payloads = valid_encodings(seed, n);
        let mut stream = Vec::new();
        for (i, payload) in payloads.iter().enumerate() {
            stream.extend_from_slice(&frame_with_prefix(QueryId(i as u64), payload));
        }
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            fb.push(piece);
            while let Some(env) = fb.next_frame().expect("well-formed stream") {
                got.push((env.query, env.payload.to_vec()));
            }
        }
        fb.finish().expect("no partial frame at a clean EOF");
        prop_assert_eq!(got.len(), payloads.len());
        for (i, (payload, (query, reassembled))) in payloads.iter().zip(&got).enumerate() {
            prop_assert_eq!(*query, QueryId(i as u64));
            prop_assert_eq!(payload, reassembled);
        }
    }

    /// A truncated final frame is always a typed error at EOF, at any cut
    /// point and any read granularity — the worker-side guarantee that a
    /// master dying mid-write cannot be mistaken for a clean goodbye.
    #[test]
    fn truncated_framed_streams_fail_typed(
        seed in any::<u64>(),
        n in 1usize..=5,
        cut_frac in 0.0..1.0f64,
        chunk in 1usize..64,
    ) {
        let payload = &valid_encodings(seed, n)[0];
        let stream = frame_with_prefix(QueryId(7), payload);
        let cut = 1 + ((stream.len() - 2) as f64 * cut_frac) as usize; // 1..len-1: strictly partial
        let mut fb = FrameBuffer::new();
        for piece in stream[..cut].chunks(chunk) {
            fb.push(piece);
            prop_assert!(fb.next_frame().expect("prefix of a valid frame").is_none());
        }
        prop_assert!(fb.finish().is_err(), "cut at {} of {} must be typed", cut, stream.len());
    }
}
