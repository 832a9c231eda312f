//! Differential suite for the DP kernels: the streaming kernel must be
//! **bit-identical** to the textbook reference loop — not approximately
//! equal, identical.
//!
//! For 50 seeded random queries (5–8 tables, all four join-graph shapes),
//! both plan spaces, and several partition IDs, the suite runs the
//! slot-at-a-time reference loop and the arena kernel and asserts equal
//! cost bit patterns, equal reconstructed plan trees, and equal work
//! counters. A shortcut that changes any bit of any answer is a wrong
//! shortcut, however fast.
//!
//! The second half pins the reduction equivalence the arena kernel's
//! single-objective fast path rests on: offering a candidate stream to the
//! lazy reducer, which builds and inserts only the per-order-class minima,
//! yields a memo slot identical (contents *and* entry order) to building
//! every candidate and inserting it through the scalar pruning function
//! (see `ClassMinima` in `mpq_dp::arena`).

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mpq_cost::{CostVector, Objective, Order, JOIN_OPS};
use mpq_dp::{
    optimize_partition, optimize_partition_reference, Candidate, ClassMinima, PartitionOutcome,
};
use mpq_model::{JoinGraph, Query, TableSet, WorkloadConfig, WorkloadGenerator};
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
/// cost bit patterns, and every work counter.
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

/// Runs both kernels on one (query, partition) point and checks them
/// against each other.
fn check_point(q: &Query, space: PlanSpace, objective: Objective, c: &ConstraintSet, ctx: &str) {
    let reference = optimize_partition_reference(q, space, objective, c);
    let arena = optimize_partition(q, space, objective, c);
    assert_bit_identical(&reference, &arena, ctx);
    assert_eq!(arena.stats.threads_used, 1, "{ctx}");
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

/// The multi-objective path bypasses the winner reduction, but it too
/// builds an entry only for a candidate the Pareto pruning function keeps,
/// deciding on cost and order alone — frontiers must stay bit-identical
/// anyway.
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

// ---------------------------------------------------------------------------
// Reduction equivalence (the claim in `ClassMinima`'s docs).
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

/// The result set of the randomized streams, and its splits' left operands.
const SET: TableSet = TableSet(0b1111);

/// A random candidate of a random split of [`SET`], whose time is drawn
/// from a small grid (forcing frequent exact ties, infinities at both ends
/// included) and whose order cycles through unordered plus three attribute
/// classes.
fn random_candidate(rng: &mut Lcg) -> (TableSet, Candidate) {
    let time = match rng.next() % 10 {
        0 => f64::NEG_INFINITY,
        9 => f64::INFINITY,
        k => k as f64,
    };
    let buffer = (rng.next() % 4) as f64;
    let order = match rng.next() % 4 {
        0 => Order::None,
        k => Order::OnAttribute(k as u8),
    };
    let left = TableSet(1 + rng.next() % (SET.bits() - 1));
    let candidate = Candidate {
        cost: CostVector::new(time, buffer),
        order,
        op: JOIN_OPS[(rng.next() % 3) as usize],
        left_idx: (rng.next() % 4) as u32,
        right_idx: (rng.next() % 4) as u32,
    };
    (left, candidate)
}

fn materialise((left, candidate): (TableSet, Candidate)) -> PlanEntry {
    candidate.entry(left, SET.difference(left))
}

/// Offering every candidate to the lazy reducer must produce a slot
/// identical — contents and entry order — to building every candidate's
/// entry and inserting it sequentially. 200 random bursts with heavy tie
/// pressure.
#[test]
fn batch_matches_sequential_insertion() {
    let policy = PruningPolicy::new(Objective::Single, 6);
    let mut minima = ClassMinima::default();
    for trial in 0..200u64 {
        let mut rng = Lcg(trial * 2654435761 + 99);
        let len = 1 + (rng.next() % 24) as usize;
        let cands: Vec<(TableSet, Candidate)> =
            (0..len).map(|_| random_candidate(&mut rng)).collect();

        // Reference: every candidate, built, through the scalar pruning
        // function.
        let mut sequential = Vec::new();
        for &c in &cands {
            policy.try_insert(&mut sequential, materialise(c));
        }

        // Streaming path: per-order-class minima only, built and inserted
        // in ascending generation order, exactly as the arena kernel does
        // (the one reducer is reused across trials, as it is across sets).
        for &(left, c) in &cands {
            minima.offer(left, c);
        }
        let mut streamed = Vec::new();
        minima.insert_winners(SET, &policy, &mut streamed);

        assert_eq!(
            sequential, streamed,
            "trial {trial}: streamed winners diverged from sequential insertion on {cands:?}"
        );
    }
}

/// The Pareto path's lazy insertion — rejection decided on cost and order,
/// the entry built only when kept — equals inserting the built entry, on
/// the same streams, α-approximate pruning included.
#[test]
fn lazy_pareto_insertion_matches_eager_insertion() {
    for alpha in [1.0, 2.0] {
        let policy = PruningPolicy::new(Objective::Multi { alpha }, 3);
        for trial in 0..200u64 {
            let mut rng = Lcg(trial * 40503 + 7);
            let len = 1 + (rng.next() % 24) as usize;
            let (mut eager, mut lazy) = (Vec::new(), Vec::new());
            let mut built = 0;
            for _ in 0..len {
                let c = random_candidate(&mut rng);
                let kept = policy.try_insert(&mut eager, materialise(c));
                let (cost, order) = (c.1.cost, c.1.order);
                let kept_lazily = policy.try_insert_with(&mut lazy, 0, cost, order, || {
                    built += 1;
                    materialise(c)
                });
                assert_eq!(kept, kept_lazily, "trial {trial}");
                assert_eq!(eager, lazy, "trial {trial}");
            }
            assert!(built >= lazy.len() && built <= len);
        }
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
        cost: CostVector::new(f64::NEG_INFINITY, 0.0),
        order: Order::None,
        node: PlanNode::Scan {
            table: 0,
            op: mpq_cost::ScanOp::Full,
        },
    }];
    for _ in 0..50 {
        let len = 1 + (rng.next() % 16) as usize;
        let cands: Vec<(TableSet, Candidate)> =
            (0..len).map(|_| random_candidate(&mut rng)).collect();

        let mut sequential = prefix.clone();
        for &c in &cands {
            policy.try_insert_range(&mut sequential, prefix.len(), materialise(c));
        }

        let mut minima = ClassMinima::default();
        for &(left, c) in &cands {
            minima.offer(left, c);
        }
        let mut tail = Vec::new();
        minima.insert_winners(SET, &policy, &mut tail);
        let streamed = [prefix.clone(), tail].concat();

        assert_eq!(sequential, streamed);
        assert_eq!(&sequential[..prefix.len()], &prefix[..], "prefix untouched");
        assert!(sequential.len() > prefix.len(), "tail actually populated");
    }
}
