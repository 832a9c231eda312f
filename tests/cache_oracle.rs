//! Differential cache-oracle suite: the cross-query memo cache must be
//! **provably transparent**.
//!
//! For 50 seeded query streams, three runs of the identical stream —
//! cache-disabled, cache-enabled cold, cache-enabled warm (the whole
//! stream replayed on the now-hot service) — must agree: equal cost bit
//! patterns and equal Pareto frontiers across all three, and every hit
//! **byte-identical** to the answer it stores, plan trees included. A
//! cache that changes any bit of any answer is a wrong cache, however
//! fast.
//!
//! On top of the stream oracle, a property test interleaves catalog-
//! statistics mutations with optimizations and checks that a cached
//! service never serves a pre-mutation entry: after every mutation the
//! next answers equal a fresh, uncached serial-DP run on the *current*
//! catalog, bit for bit (epoch + statistics-bits keying makes stale
//! entries structurally unreachable). Case count honors the
//! `PROPTEST_CASES` environment variable, like the chaos suite.

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_macros)]

use pqopt::cluster::Wire;
use pqopt::cost::Objective;
use pqopt::dp::optimize_serial;
use pqopt::model::{JoinGraph, Query, TableStats, WorkloadConfig, WorkloadGenerator};
use pqopt::partition::PlanSpace;
use pqopt::prelude::{OptimizerService, Plan, ServiceConfig};
use proptest::prelude::*;

const STREAMS: u64 = 50;
const CACHE_BUDGET: usize = 8 << 20;

fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Stream seed → a short query stream with intra-stream repetition:
/// 2–7 tables, cycling the four join-graph shapes.
fn stream_queries(stream: u64) -> Vec<Query> {
    let n = 2 + (stream % 6) as usize;
    let graph = JoinGraph::ALL[(stream % 4) as usize];
    let mut queries: Vec<Query> = (0..3)
        .map(|i| {
            WorkloadGenerator::new(WorkloadConfig::with_graph(n, graph), stream * 7919 + i)
                .next_query()
        })
        .collect();
    // The stream revisits its first query, so even the cold pass
    // exercises a same-stream hit.
    queries.push(queries[0].clone());
    queries
}

/// Canonical byte form of a plan list: every plan wire-serialized, the
/// list sorted. Multi-plan frontiers are assembled in worker-reply
/// arrival order, which is scheduling noise — the *set* of plans is the
/// result, and it must match byte for byte.
fn canonical_bytes(plans: &[Plan]) -> Vec<Vec<u8>> {
    let mut bytes: Vec<Vec<u8>> = plans.iter().map(|p| p.to_bytes().to_vec()).collect();
    bytes.sort();
    bytes
}

/// The sorted cost bit patterns of a plan list — the "byte-identical
/// costs and Pareto frontiers" contract of every answer.
fn canonical_cost_bits(plans: &[Plan]) -> Vec<(u64, u64)> {
    let mut bits: Vec<(u64, u64)> = plans
        .iter()
        .map(|p| (p.cost().time.to_bits(), p.cost().buffer.to_bits()))
        .collect();
    bits.sort_unstable();
    bits
}

/// Equal cost bits and Pareto frontiers: the contract between any two
/// runs. Plan *trees* are not compared: MPQ's tie-breaks between
/// equal-cost plans from different partitions depend on reply arrival
/// order even with the cache disabled.
fn assert_same_costs(a: &[Plan], b: &[Plan], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: plan counts differ");
    assert_eq!(
        canonical_cost_bits(a),
        canonical_cost_bits(b),
        "{ctx}: cost bit patterns differ"
    );
}

/// Byte-identical plan lists, trees included: the contract between a
/// cache hit and the answer it stores.
fn assert_same_bytes(a: &[Plan], b: &[Plan], ctx: &str) {
    assert_same_costs(a, b, ctx);
    assert_eq!(
        canonical_bytes(a),
        canonical_bytes(b),
        "{ctx}: serialized plans differ"
    );
}

/// Runs every stream through one cache-disabled and one cache-enabled
/// resident service, in cold and warm passes: every answer costs what
/// the disabled run's does, and every warm answer — a hit — is
/// byte-identical to the same service's cold answer.
fn oracle(space: PlanSpace, objective: Objective, max_tables: usize) {
    let mut disabled = OptimizerService::spawn(ServiceConfig::new(3)).expect("disabled spawns");
    let mut cached =
        OptimizerService::spawn(ServiceConfig::with_cache(3, CACHE_BUDGET)).expect("cached spawns");
    for stream in 0..STREAMS {
        let queries = stream_queries(stream);
        if queries[0].num_tables() > max_tables {
            continue;
        }
        let mut cold: Vec<Vec<Plan>> = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            let ctx = format!("stream {stream} query {i} (cold pass)");
            let reference = disabled
                .optimize(q, space, objective)
                .expect("disabled run");
            let got = cached.optimize(q, space, objective).expect("cached run");
            assert_same_costs(&got, &reference, &ctx);
            cold.push(got);
        }
        // The stream's last query repeats its first: a same-pass hit.
        let last = queries.len() - 1;
        let ctx = format!("stream {stream}: cold-pass repeat");
        assert_same_bytes(&cold[last], &cold[0], &ctx);
        for (i, q) in queries.iter().enumerate() {
            let ctx = format!("stream {stream} query {i} (warm pass)");
            let got = cached.optimize(q, space, objective).expect("cached run");
            assert_same_bytes(&got, &cold[i], &ctx);
        }
    }
    let stats = cached.cache_stats();
    assert!(
        stats.hits > 0,
        "the warm passes must actually hit the cache"
    );
    assert_eq!(
        disabled.cache_stats().hits + disabled.cache_stats().misses,
        0,
        "the disabled service must never touch a cache"
    );
    disabled.shutdown();
    cached.shutdown();
}

/// Single-objective oracle: cold, warm and disabled agree bitwise on the
/// optimal plan for every stream.
#[test]
fn cold_warm_disabled_agree_single_objective() {
    oracle(PlanSpace::Linear, Objective::Single, usize::MAX);
}

/// Bushy spaces go through different split enumeration; the oracle must
/// hold there too (small queries keep it cheap).
#[test]
fn cold_warm_disabled_agree_bushy() {
    oracle(PlanSpace::Bushy, Objective::Single, 5);
}

/// Multi-objective oracle: the full Pareto frontier — not just the best
/// cost — agrees bitwise across cold, warm and disabled runs.
#[test]
fn cold_warm_disabled_agree_on_pareto_frontiers() {
    oracle(PlanSpace::Linear, Objective::Multi { alpha: 1.0 }, 5);
}

/// One mutation step of the epoch-invalidation property.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Replace one table's statistics (bumps the epoch).
    Mutate { table: u64, cardinality: u64 },
    /// Bump the epoch without changing any statistics bits.
    Bump,
    /// Optimize twice (cold + potentially-warm) and check both answers
    /// against a fresh uncached serial run on the current catalog.
    Check,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u64..6, any::<u64>()).prop_map(|(kind, payload)| match kind {
        0 | 1 => Op::Mutate {
            table: payload % 5,
            cardinality: 10 + payload % 90_000,
        },
        2 => Op::Bump,
        _ => Op::Check,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    /// Epoch invalidation: no interleaving of catalog-statistics
    /// mutations and queries ever serves a pre-mutation entry — every
    /// answer out of the cached service costs what a fresh serial-DP run
    /// on the catalog as it stands at that moment does, bit for bit, and
    /// the warm answer is byte-identical to the cold one.
    #[test]
    fn mutation_interleavings_never_serve_stale_entries(
        qseed in any::<u64>(),
        ops in proptest::collection::vec(arb_op(), 1..14),
    ) {
        let space = PlanSpace::Linear;
        let mut svc = OptimizerService::spawn(ServiceConfig::with_cache(3, CACHE_BUDGET))
            .expect("service spawns");
        let mut query =
            WorkloadGenerator::new(WorkloadConfig::paper_default(5), qseed).next_query();
        // Warm the service so later stale entries would exist to serve.
        let _ = svc.optimize(&query, space, Objective::Single);
        for op in ops.iter().chain([Op::Check].iter()) {
            match *op {
                Op::Mutate { table, cardinality } => {
                    query.catalog.set_stats(
                        table as usize % query.num_tables(),
                        TableStats::with_cardinality(cardinality as f64),
                    );
                }
                Op::Bump => query.catalog.bump_epoch(),
                Op::Check => {
                    let reference =
                        optimize_serial(&query, space, Objective::Single).plans;
                    let mut answers = Vec::new();
                    for pass in ["cold", "warm"] {
                        let got = svc
                            .optimize(&query, space, Objective::Single)
                            .expect("cached service answers");
                        prop_assert_eq!(got.len(), reference.len(), "{} pass: plan count", pass);
                        prop_assert_eq!(
                            got[0].cost().time.to_bits(),
                            reference[0].cost().time.to_bits(),
                            "{} pass: stale cost served", pass
                        );
                        answers.push(canonical_bytes(&got));
                    }
                    prop_assert_eq!(&answers[1], &answers[0], "the hit is the cold answer");
                }
            }
        }
        svc.shutdown();
    }
}

/// A pure epoch bump — statistics bits unchanged — still invalidates
/// master-side entries: the bumped query must miss, not hit, where the
/// epoch is visible.
#[test]
fn pure_epoch_bump_is_a_structural_miss() {
    let mut svc =
        OptimizerService::spawn(ServiceConfig::with_cache(3, CACHE_BUDGET)).expect("spawn");
    let mut q = WorkloadGenerator::new(WorkloadConfig::paper_default(6), 77).next_query();
    let cold = svc
        .optimize(&q, PlanSpace::Linear, Objective::Single)
        .expect("cold");
    let hits_before = svc.cache_stats().hits;
    q.catalog.bump_epoch();
    let bumped = svc
        .optimize(&q, PlanSpace::Linear, Objective::Single)
        .expect("bumped");
    assert_eq!(
        svc.cache_stats().hits,
        hits_before,
        "the bumped query must not hit the pre-bump entry"
    );
    // Identical statistics still mean an equal-cost (recomputed) answer.
    assert_same_costs(&bumped, &cold, "epoch bump recomputation");
    svc.shutdown();
}
