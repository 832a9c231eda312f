//! Differential suite for the DP kernel variants: the streaming kernel and
//! its level-parallel scheduler must be **bit-identical** to the textbook
//! reference loop — not approximately equal, identical.
//!
//! For 50 seeded random queries (5–8 tables, all four join-graph shapes),
//! both plan spaces, and several partition IDs, the suite runs the
//! slot-at-a-time reference loop and the arena kernel at 1, 2 and 4 threads
//! and asserts equal cost bit patterns, equal reconstructed plan trees, and
//! equal work counters. A parallel schedule that changes any bit of any
//! answer is a wrong schedule, however fast.
//!
//! The second half pins the reduction equivalence the arena kernel's
//! single-objective fast path rests on: inserting only the per-order-class
//! minima of a candidate stream through the scalar pruning function yields
//! a memo slot identical (contents *and* entry order) to inserting every
//! candidate sequentially (see `OrderClassMinima` in `mpq_dp::arena`).

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mpq_cost::{CostVector, Objective, Order};
use mpq_dp::{
    optimize_partition_parallel, optimize_partition_reference, OrderClassMinima, ParallelPolicy,
    PartitionOutcome,
};
use mpq_model::{JoinGraph, Query, WorkloadConfig, WorkloadGenerator};
use mpq_partition::{partition_constraints, ConstraintSet, PlanSpace};
use mpq_plan::{PlanEntry, PlanNode, PruningPolicy};

const SEEDS: u64 = 50;

/// Seed → (query, n): 5–8 tables so every query admits at least one
/// partitioning constraint in both spaces, cycling the four graph shapes.
fn seeded_query(seed: u64) -> (Query, usize) {
    let n = 5 + (seed % 4) as usize;
    let graph = JoinGraph::ALL[(seed % 4) as usize];
    let q =
        WorkloadGenerator::new(WorkloadConfig::with_graph(n, graph), seed * 6271 + 5).next_query();
    (q, n)
}

/// Partition IDs to sample for an `m`-way split: the first, one interior,
/// and the last partition.
fn sample_ids(m: u64) -> Vec<u64> {
    let mut ids = vec![0];
    if m > 2 {
        ids.push(m / 2);
    }
    if m > 1 {
        ids.push(m - 1);
    }
    ids
}

/// Strict bitwise equality of two kernel outcomes: plan trees (`Plan`
/// carries its costs and cardinalities, so `PartialEq` is tree identity),
/// cost bit patterns, and every work counter except `threads_used` (the
/// one field that legitimately differs across thread counts).
fn assert_bit_identical(a: &PartitionOutcome, b: &PartitionOutcome, ctx: &str) {
    assert_eq!(a.plans.len(), b.plans.len(), "{ctx}: plan counts differ");
    for (i, (pa, pb)) in a.plans.iter().zip(b.plans.iter()).enumerate() {
        assert_eq!(
            pa.cost().time.to_bits(),
            pb.cost().time.to_bits(),
            "{ctx}: plan {i} time bits differ"
        );
        assert_eq!(
            pa.cost().buffer.to_bits(),
            pb.cost().buffer.to_bits(),
            "{ctx}: plan {i} buffer bits differ"
        );
        assert_eq!(pa, pb, "{ctx}: plan {i} trees differ");
    }
    assert_eq!(
        a.stats.stored_sets, b.stats.stored_sets,
        "{ctx}: stored_sets differ"
    );
    assert_eq!(
        a.stats.total_entries, b.stats.total_entries,
        "{ctx}: total_entries differ"
    );
    assert_eq!(
        a.stats.splits_tried, b.stats.splits_tried,
        "{ctx}: splits_tried differ"
    );
    assert_eq!(
        a.stats.plans_generated, b.stats.plans_generated,
        "{ctx}: plans_generated differ"
    );
}

/// Runs all four kernel configurations on one (query, partition) point and
/// checks them against each other.
fn check_point(q: &Query, space: PlanSpace, objective: Objective, c: &ConstraintSet, ctx: &str) {
    let reference = optimize_partition_reference(q, space, objective, c);
    for threads in [1usize, 2, 4] {
        let policy = if threads == 1 {
            ParallelPolicy::serial()
        } else {
            ParallelPolicy::with_threads(threads)
        };
        let arena = optimize_partition_parallel(q, space, objective, c, policy);
        assert_bit_identical(&reference, &arena, &format!("{ctx} threads={threads}"));
    }
}

#[test]
fn arena_and_parallel_match_dense_on_linear_partitions() {
    for seed in 0..SEEDS {
        let (q, n) = seeded_query(seed);
        let space = PlanSpace::Linear;
        let m = 1u64 << space.max_constraints(n).min(2);
        for id in sample_ids(m) {
            let c = partition_constraints(n, space, id, m);
            check_point(
                &q,
                space,
                Objective::Single,
                &c,
                &format!("seed {seed} (n={n}) linear partition {id}/{m}"),
            );
        }
    }
}

#[test]
fn arena_and_parallel_match_dense_on_bushy_partitions() {
    for seed in 0..SEEDS {
        let (q, n) = seeded_query(seed);
        let space = PlanSpace::Bushy;
        let m = 1u64 << space.max_constraints(n).min(2);
        for id in sample_ids(m) {
            let c = partition_constraints(n, space, id, m);
            check_point(
                &q,
                space,
                Objective::Single,
                &c,
                &format!("seed {seed} (n={n}) bushy partition {id}/{m}"),
            );
        }
    }
}

/// The multi-objective path bypasses the winner reduction (every candidate
/// goes through the scalar Pareto pruning function), but the level
/// schedule still reorders work across threads — frontiers must stay
/// bit-identical anyway.
#[test]
fn arena_and_parallel_match_dense_on_pareto_frontiers() {
    for seed in 0..SEEDS {
        let (q, n) = seeded_query(seed);
        if n > 6 {
            continue; // frontier memos grow fast; keep the sweep cheap
        }
        for space in [PlanSpace::Linear, PlanSpace::Bushy] {
            let c = partition_constraints(n, space, 0, 1);
            check_point(
                &q,
                space,
                Objective::Multi { alpha: 1.0 },
                &c,
                &format!("seed {seed} (n={n}) {space:?} multi-objective"),
            );
        }
    }
}

/// Parallel runs actually fan out: on a query with enough sets per level,
/// the reported peak thread count reflects the policy.
#[test]
fn parallel_policy_reports_peak_threads() {
    let (q, n) = seeded_query(3); // n = 8
    let c = partition_constraints(n, PlanSpace::Linear, 0, 1);
    let serial = optimize_partition_parallel(
        &q,
        PlanSpace::Linear,
        Objective::Single,
        &c,
        ParallelPolicy::serial(),
    );
    assert_eq!(serial.stats.threads_used, 1);
    let parallel = optimize_partition_parallel(
        &q,
        PlanSpace::Linear,
        Objective::Single,
        &c,
        ParallelPolicy::with_threads(4),
    );
    assert!(
        parallel.stats.threads_used >= 2,
        "an 8-table query has levels wide enough to split"
    );
}

// ---------------------------------------------------------------------------
// Reduction equivalence (the claim in `OrderClassMinima`'s docs).
// ---------------------------------------------------------------------------

/// Deterministic splitmix-style generator; the dp crate deliberately has
/// no property-testing dependency.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// A random candidate whose time is drawn from a small grid (forcing
/// frequent exact ties) and whose order cycles through unordered plus
/// three attribute classes.
fn random_candidate(rng: &mut Lcg) -> PlanEntry {
    let time = (1 + rng.next() % 8) as f64;
    let buffer = (rng.next() % 4) as f64;
    let order = match rng.next() % 4 {
        0 => Order::None,
        k => Order::OnAttribute(k as u8),
    };
    PlanEntry {
        cost: CostVector::new(time, buffer),
        order,
        node: PlanNode::Scan {
            table: (rng.next() % 4) as u8,
            op: mpq_cost::ScanOp::Full,
        },
    }
}

/// Inserting only the streamed winners through the scalar pruning
/// function must produce a slot identical — contents and entry order — to
/// inserting every candidate sequentially. 200 random bursts with heavy
/// tie pressure.
#[test]
fn batch_matches_sequential_insertion() {
    let policy = PruningPolicy::new(Objective::Single, 6);
    let mut minima = OrderClassMinima::default();
    for trial in 0..200u64 {
        let mut rng = Lcg(trial * 2654435761 + 99);
        let len = 1 + (rng.next() % 24) as usize;
        let cands: Vec<PlanEntry> = (0..len).map(|_| random_candidate(&mut rng)).collect();

        // Reference: every candidate through the scalar pruning function.
        let mut sequential = Vec::new();
        for &c in &cands {
            policy.try_insert(&mut sequential, c);
        }

        // Streaming path: per-order-class minima only, in ascending
        // generation order, exactly as the arena kernel inserts them (the
        // one reducer is reused across trials, as it is across sets).
        for &c in &cands {
            minima.offer(c);
        }
        let mut streamed = Vec::new();
        minima.insert_winners(&policy, &mut streamed, 0);

        assert_eq!(
            sequential, streamed,
            "trial {trial}: streamed winners diverged from sequential insertion on {cands:?}"
        );
    }
}

/// The same equivalence holds when the slot under construction is the tail
/// of a shared arena with a frozen prefix: `try_insert_range` never reads
/// or touches entries below `start`.
#[test]
fn batch_equivalence_holds_behind_a_frozen_prefix() {
    let policy = PruningPolicy::new(Objective::Single, 6);
    let mut rng = Lcg(7);
    // A prefix cheaper than every candidate: if range insertion consulted
    // it, it would reject everything and the tails would stay empty.
    let prefix = vec![PlanEntry {
        cost: CostVector::new(0.25, 0.0),
        order: Order::None,
        node: PlanNode::Scan {
            table: 0,
            op: mpq_cost::ScanOp::Full,
        },
    }];
    for _ in 0..50 {
        let len = 1 + (rng.next() % 16) as usize;
        let cands: Vec<PlanEntry> = (0..len).map(|_| random_candidate(&mut rng)).collect();

        let mut sequential = prefix.clone();
        for &c in &cands {
            policy.try_insert_range(&mut sequential, prefix.len(), c);
        }

        let mut minima = OrderClassMinima::default();
        for &c in &cands {
            minima.offer(c);
        }
        let mut streamed = prefix.clone();
        minima.insert_winners(&policy, &mut streamed, prefix.len());

        assert_eq!(sequential, streamed);
        assert_eq!(&sequential[..prefix.len()], &prefix[..], "prefix untouched");
        assert!(sequential.len() > prefix.len(), "tail actually populated");
    }
}
