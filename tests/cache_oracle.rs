//! Differential cache-oracle suite: the cross-query memo cache must be
//! **provably transparent**.
//!
//! For 50 seeded query streams and all three backends, three runs of the
//! identical stream — cache-disabled, cache-enabled cold, cache-enabled
//! warm (the whole stream replayed on the now-hot service) — must produce
//! **byte-identical** plans: equal cost bit patterns, equal Pareto
//! frontiers, equal plan trees. A cache that changes any bit of any
//! answer is a wrong cache, however fast.
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
#![allow(clippy::unwrap_used, clippy::expect_used)]

use pqopt::cluster::Wire;
use pqopt::cost::Objective;
use pqopt::dp::optimize_serial;
use pqopt::model::{JoinGraph, Query, TableStats, WorkloadConfig, WorkloadGenerator};
use pqopt::partition::PlanSpace;
use pqopt::prelude::{Backend, Optimizer, OptimizerService, Plan, ServiceConfig};
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
/// costs and Pareto frontiers" contract that holds for *every* backend.
fn canonical_cost_bits(plans: &[Plan]) -> Vec<(u64, u64)> {
    let mut bits: Vec<(u64, u64)> = plans
        .iter()
        .map(|p| (p.cost().time.to_bits(), p.cost().buffer.to_bits()))
        .collect();
    bits.sort_unstable();
    bits
}

/// Byte-identical plan-list equality. Costs and frontiers are compared
/// bitwise for every backend. Full plan *trees* are compared only when
/// `deterministic_trees` holds: MPQ's tree tie-breaks between equal-cost
/// plans from different partitions depend on reply arrival order even
/// with the cache disabled, so cross-run tree equality is not MPQ's
/// contract — equal cost bits are.
fn assert_identical(a: &[Plan], b: &[Plan], deterministic_trees: bool, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: plan counts differ");
    assert_eq!(
        canonical_cost_bits(a),
        canonical_cost_bits(b),
        "{ctx}: cost bit patterns differ"
    );
    if deterministic_trees {
        assert_eq!(
            canonical_bytes(a),
            canonical_bytes(b),
            "{ctx}: serialized plans differ"
        );
    }
}

/// Runs every stream through one cache-disabled and one cache-enabled
/// resident service per backend, in cold and warm passes, asserting
/// byte-identical results throughout.
fn oracle_over_backends(space: PlanSpace, objective: Objective, max_tables: usize) {
    for backend in Backend::ALL {
        let mut disabled =
            OptimizerService::spawn(ServiceConfig::new(backend, 3)).expect("disabled spawns");
        let mut cached =
            OptimizerService::spawn(ServiceConfig::with_cache(backend, 3, CACHE_BUDGET))
                .expect("cached spawns");
        for stream in 0..STREAMS {
            let queries = stream_queries(stream);
            if queries[0].num_tables() > max_tables {
                continue;
            }
            let reference: Vec<Vec<Plan>> = queries
                .iter()
                .map(|q| {
                    disabled
                        .optimize(q, space, objective)
                        .expect("disabled run")
                })
                .collect();
            for (pass, label) in [(0, "cold"), (1, "warm")] {
                let _ = pass;
                for (i, q) in queries.iter().enumerate() {
                    let got = cached.optimize(q, space, objective).expect("cached run");
                    assert_identical(
                        &got,
                        &reference[i],
                        backend != Backend::Mpq,
                        &format!(
                            "backend {} stream {stream} query {i} ({label} pass)",
                            backend.name()
                        ),
                    );
                }
            }
        }
        let stats = cached.cache_stats();
        assert!(
            stats.hits > 0,
            "backend {}: the warm passes must actually hit the cache",
            backend.name()
        );
        assert_eq!(
            disabled.cache_stats().hits + disabled.cache_stats().misses,
            0,
            "backend {}: the disabled service must never touch a cache",
            backend.name()
        );
        disabled.shutdown();
        cached.shutdown();
    }
}

/// Single-objective oracle: cold, warm and disabled agree bitwise on the
/// optimal plan for every stream and backend.
#[test]
fn cold_warm_disabled_agree_single_objective() {
    oracle_over_backends(PlanSpace::Linear, Objective::Single, usize::MAX);
}

/// Bushy spaces go through different split enumeration; the oracle must
/// hold there too (small queries keep it cheap).
#[test]
fn cold_warm_disabled_agree_bushy() {
    oracle_over_backends(PlanSpace::Bushy, Objective::Single, 5);
}

/// Multi-objective oracle: the full Pareto frontier — not just the best
/// cost — is byte-identical across cold, warm and disabled runs.
#[test]
fn cold_warm_disabled_agree_on_pareto_frontiers() {
    oracle_over_backends(PlanSpace::Linear, Objective::Multi { alpha: 1.0 }, 5);
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
    /// answer out of the cached services equals a fresh serial-DP run on
    /// the catalog as it stands at that moment, bit for bit.
    #[test]
    fn mutation_interleavings_never_serve_stale_entries(
        qseed in any::<u64>(),
        ops in proptest::collection::vec(arb_op(), 1..14),
    ) {
        let space = PlanSpace::Linear;
        let mut serial_svc = OptimizerService::spawn(ServiceConfig::with_cache(
            Backend::SerialDp,
            1,
            CACHE_BUDGET,
        ))
        .expect("serial service spawns");
        let mut mpq_svc = OptimizerService::spawn(ServiceConfig::with_cache(
            Backend::Mpq,
            3,
            CACHE_BUDGET,
        ))
        .expect("mpq service spawns");
        let mut query =
            WorkloadGenerator::new(WorkloadConfig::paper_default(5), qseed).next_query();
        // Warm both services so later stale entries would exist to serve.
        let _ = serial_svc.optimize(&query, space, Objective::Single);
        let _ = mpq_svc.optimize(&query, space, Objective::Single);
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
                    for (svc, name, deterministic_trees) in [
                        (&mut serial_svc, "serial", true),
                        (&mut mpq_svc, "mpq", false),
                    ] {
                        for pass in ["cold", "warm"] {
                            let got = svc
                                .optimize(&query, space, Objective::Single)
                                .expect("cached service answers");
                            prop_assert_eq!(
                                got.len(),
                                reference.len(),
                                "{} {} pass: plan count", name, pass
                            );
                            prop_assert_eq!(
                                got[0].cost().time.to_bits(),
                                reference[0].cost().time.to_bits(),
                                "{} {} pass: stale cost served", name, pass
                            );
                            if deterministic_trees {
                                prop_assert_eq!(
                                    &got[0], &reference[0],
                                    "{} {} pass: stale plan served", name, pass
                                );
                            }
                        }
                    }
                }
            }
        }
        serial_svc.shutdown();
        mpq_svc.shutdown();
    }
}

/// A pure epoch bump — statistics bits unchanged — still invalidates
/// master-side entries: the bumped query must miss, not hit, where the
/// epoch is visible.
#[test]
fn pure_epoch_bump_is_a_structural_miss() {
    let mut svc = OptimizerService::spawn(ServiceConfig::with_cache(
        Backend::SerialDp,
        1,
        CACHE_BUDGET,
    ))
    .expect("spawn");
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
    // Identical statistics still mean an identical (recomputed) answer.
    assert_identical(&bumped, &cold, true, "epoch bump recomputation");
    svc.shutdown();
}
