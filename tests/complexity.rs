//! Integration tests for the paper's complexity results (Section 5):
//! network, memory and master-side work bounds, and the contrast between
//! MPQ's O(m·(b_q+b_p)) traffic and SMA's memo-sized traffic.

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_macros)]

use pqopt::prelude::*;

fn query(n: usize, seed: u64) -> Query {
    WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).next_query()
}

/// Theorem 1's bill `m · (b_q + b_p)` as the codec writes it, for an
/// idle `m`-worker single-objective run of `q`: `m` tasks — an 8-byte
/// session id, then the query and its partition range — and `m` replies
/// of 85 bytes (the id, tag, range echo, plan count, stats and cache
/// counters) plus one plan of `b_p(n) = 2n` bytes: a one-byte operator
/// count and a byte per operator, no cost.
fn theorem1_bytes(q: &Query, m: u64) -> u64 {
    use pqopt::cluster::Wire;
    let task = pqopt::mpq::MasterMessage {
        query: q.clone(),
        space: PlanSpace::Linear,
        objective: Objective::Single,
        first_partition: 0,
        partition_count: 1,
        total_partitions: m,
        progress_every: 0,
    }
    .to_bytes()
    .len() as u64;
    let b_p = 2 * q.num_tables() as u64;
    m * (8 + task) + m * (85 + b_p)
}

#[test]
fn theorem1_network_linear_in_workers() {
    let opt = MpqOptimizer::new(MpqConfig::default());
    let q = query(12, 1);
    for workers in [1u64, 2, 4, 8, 16, 32] {
        let net = opt
            .optimize(&q, PlanSpace::Linear, Objective::Single, workers)
            .metrics
            .network;
        assert_eq!(net.messages, 2 * workers, "{workers} workers");
        assert_eq!(
            net.total_bytes(),
            theorem1_bytes(&q, workers),
            "{workers} workers"
        );
    }
}

#[test]
fn theorem1_network_linear_in_query_size() {
    let opt = MpqOptimizer::new(MpqConfig::default());
    for n in [8, 16] {
        let q = query(n, 2);
        let bytes = opt
            .optimize(&q, PlanSpace::Linear, Objective::Single, 8)
            .metrics
            .network
            .total_bytes();
        assert_eq!(bytes, theorem1_bytes(&q, 8), "{n} tables");
    }
}

#[test]
fn theorem2_admissible_sets_shrink_at_three_quarters() {
    use pqopt::partition::{partition_constraints, AdmissibleSets};
    let n = 12;
    let mut prev = f64::NAN;
    for l in 0..=6u32 {
        let adm = AdmissibleSets::new(&partition_constraints(n, PlanSpace::Linear, 0, 1 << l));
        let count = adm.len() as f64;
        if !prev.is_nan() {
            let factor = count / prev;
            assert!((factor - 0.75).abs() < 1e-9, "l={l}: factor {factor}");
        }
        prev = count;
    }
}

#[test]
fn theorem3_bushy_sets_shrink_at_seven_eighths() {
    use pqopt::partition::{partition_constraints, AdmissibleSets};
    let n = 12;
    let mut prev = f64::NAN;
    for l in 0..=4u32 {
        let adm = AdmissibleSets::new(&partition_constraints(n, PlanSpace::Bushy, 0, 1 << l));
        let count = adm.len() as f64;
        if !prev.is_nan() {
            let factor = count / prev;
            assert!((factor - 0.875).abs() < 1e-9, "l={l}: factor {factor}");
        }
        prev = count;
    }
}

#[test]
fn theorem7_bushy_splits_shrink_at_21_27() {
    // The number of admissible splits (summed over sets) drops by 21/27
    // per constraint for a fully divisible query.
    let q = query(9, 3);
    let mut prev = f64::NAN;
    for l in 0..=3u32 {
        let constraints = pqopt::partition::partition_constraints(9, PlanSpace::Bushy, 0, 1 << l);
        let out =
            pqopt::dp::optimize_partition(&q, PlanSpace::Bushy, Objective::Single, &constraints);
        let splits = out.stats.splits_tried as f64;
        if !prev.is_nan() {
            let factor = splits / prev;
            assert!(
                (factor - 21.0 / 27.0).abs() < 0.02,
                "l={l}: split factor {factor} (expected ~{:.4})",
                21.0 / 27.0
            );
        }
        prev = splits;
    }
}

#[test]
fn linear_splits_shrink_at_three_quarters() {
    // Theorem 6: per-worker time (∝ admissible sets × splits each) drops
    // by 3/4 per constraint in linear spaces.
    let q = query(12, 4);
    let mut prev = f64::NAN;
    for l in 0..=4u32 {
        let constraints = pqopt::partition::partition_constraints(12, PlanSpace::Linear, 0, 1 << l);
        let out =
            pqopt::dp::optimize_partition(&q, PlanSpace::Linear, Objective::Single, &constraints);
        let splits = out.stats.splits_tried as f64;
        if !prev.is_nan() {
            let factor = splits / prev;
            // Splits per set shrink slightly faster than sets; the paper's
            // 3/4 bound applies asymptotically — allow a band.
            assert!(
                factor > 0.65 && factor < 0.80,
                "l={l}: split factor {factor}"
            );
        }
        prev = splits;
    }
}

#[test]
fn mpq_sends_one_round_sma_sends_n_rounds() {
    let q = query(8, 5);
    let mpq = MpqOptimizer::new(MpqConfig::default()).optimize(
        &q,
        PlanSpace::Linear,
        Objective::Single,
        4,
    );
    assert_eq!(mpq.metrics.network.rounds, 1);
    let sma = SmaOptimizer.optimize(&q, PlanSpace::Linear, Objective::Single, 4);
    // init + (n-1) DP levels + finish.
    assert_eq!(sma.metrics.rounds, 1 + 7 + 1);
}

#[test]
fn sma_traffic_is_orders_of_magnitude_larger() {
    let q = query(10, 6);
    let mpq = MpqOptimizer::new(MpqConfig::default()).optimize(
        &q,
        PlanSpace::Linear,
        Objective::Single,
        8,
    );
    let sma = SmaOptimizer.optimize(&q, PlanSpace::Linear, Objective::Single, 8);
    let ratio = sma.metrics.network.total_bytes() as f64 / mpq.metrics.network.total_bytes() as f64;
    assert!(
        ratio > 30.0,
        "SMA must ship the (exponential) memo; ratio was only {ratio:.1}"
    );
}

#[test]
fn sma_traffic_grows_exponentially_in_query_size() {
    let sma = SmaOptimizer;
    let b8 = sma
        .optimize(&query(8, 7), PlanSpace::Linear, Objective::Single, 4)
        .metrics
        .network
        .total_bytes() as f64;
    let b11 = sma
        .optimize(&query(11, 7), PlanSpace::Linear, Objective::Single, 4)
        .metrics
        .network
        .total_bytes() as f64;
    // 3 more tables => ~2^3 more memo entries; require at least 4x.
    assert!(
        b11 / b8 > 4.0,
        "SMA traffic must grow exponentially: {b8} -> {b11}"
    );
}

#[test]
fn mpq_memory_follows_theorem_4() {
    let opt = MpqOptimizer::new(MpqConfig::default());
    let q = query(14, 8);
    let mut prev = f64::NAN;
    for workers in [1u64, 2, 4, 8, 16] {
        let out = opt.optimize(&q, PlanSpace::Linear, Objective::Single, workers);
        let mem = out.metrics.max_worker_stored_sets as f64;
        if !prev.is_nan() {
            let factor = mem / prev;
            assert!(
                (factor - 0.75).abs() < 0.05,
                "memory factor per doubling was {factor} (expected ~0.75)"
            );
        }
        prev = mem;
    }
}

#[test]
fn master_work_is_linear_in_workers() {
    // The master exchanges exactly 2 messages per worker and compares m
    // plans — message counts are the observable proxy.
    let opt = MpqOptimizer::new(MpqConfig::default());
    let q = query(12, 9);
    for workers in [2u64, 8, 32] {
        let out = opt.optimize(&q, PlanSpace::Linear, Objective::Single, workers);
        assert_eq!(out.metrics.network.messages, 2 * workers);
    }
}

#[test]
fn max_parallelism_is_bounded_by_query_size() {
    // Requesting more workers than 2^(n/2) must silently cap (the paper
    // scales "up to the maximal degree of parallelism supported").
    let opt = MpqOptimizer::new(MpqConfig::default());
    let q = query(6, 10);
    let out = opt.optimize(&q, PlanSpace::Linear, Objective::Single, 1024);
    assert_eq!(out.metrics.partitions, 8); // 2^(6/2)
    assert_eq!(out.metrics.workers_used, 8);
}
