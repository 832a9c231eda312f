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
//! lazy reducer, which compares candidates on time and costs, builds and
//! inserts only the per-order-class minima, yields a memo slot identical
//! (contents *and* entry order, every cost bit) to costing and building
//! every candidate and inserting it through the scalar pruning function
//! (see `ClassMinima` in `mpq_dp::arena`). The streams go through the
//! kernel's own reducer, one operand-plan pair at a time
//! (`ClassMinima::offer_pair`, which offers one of a pair's nested loop and
//! hash join), over made-up operands; the sequential side is made of real
//! candidates (`Candidate::new`, as the candidate loop makes them).

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mpq_cost::{
    CardinalityEstimator, CostVector, Objective, Order, PredicateIndex, SetStats, SplitCosts,
    JOIN_OPS,
};
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
/// anyway. At α = 2 (the benchmark's `large_bushy_multi`) a candidate is
/// dropped when a kept one is within the per-level factor of α on every
/// cost, so which of two near-equal plans survives depends on the order
/// the candidates arrive in: those points run on partitions 0/1, 0/2 and
/// 1/2, up to 7 tables.
#[test]
fn arena_and_parallel_match_dense_on_pareto_frontiers() {
    for seed in 0..SEEDS {
        let (q, n) = seeded_query(seed);
        if n > 7 {
            continue; // frontier memos grow fast; keep the sweep cheap
        }
        for space in [PlanSpace::Linear, PlanSpace::Bushy] {
            if n <= 6 {
                let c = partition_constraints(n, space, 0, 1);
                check_point(
                    &q,
                    space,
                    Objective::Multi { alpha: 1.0 },
                    &c,
                    &format!("seed {seed} (n={n}) {space:?} multi-objective"),
                );
            }
            for (id, m) in [(0, 1), (0, 2), (1, 2)] {
                let c = partition_constraints(n, space, id, m);
                check_point(
                    &q,
                    space,
                    Objective::Multi { alpha: 2.0 },
                    &c,
                    &format!("seed {seed} (n={n}) {space:?} α = 2 partition {id}/{m}"),
                );
            }
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

    fn pick<T: Copy>(&mut self, grid: &[T]) -> T {
        grid[(self.next() % grid.len() as u64) as usize]
    }
}

/// The result set of the randomized streams: four tables of a six-table
/// clique, so every split has a sort-merge predicate and the set has
/// orders a later join can ask for.
const SET: TableSet = TableSet(0b1111);

/// One split of [`SET`] with made-up operands: plans and statistics drawn
/// from small grids, so that times tie exactly — between the operators of
/// one plan pair (nested loop and hash cost the same at cardinalities 3 × 3,
/// 4 × 2, 0 × 0), between plans of one operand, between splits — and
/// buffers tie, differ only in the sign of zero, or are NaN: a `max` taken
/// of the wrong plan's operands, or in another order, shows in the bits.
/// With NaN, cardinalities ∞ × 0 cost a nested loop at NaN beside a hash
/// join that is not NaN, which the pair must still offer.
struct MadeUpSplit {
    left: TableSet,
    lefts: Vec<PlanEntry>,
    rights: Vec<PlanEntry>,
    costs: SplitCosts,
}

impl MadeUpSplit {
    /// Plans' times are drawn from `times`, operand cardinalities from
    /// `cardinalities`.
    fn random(
        rng: &mut Lcg,
        predicates: &PredicateIndex,
        times: &[f64],
        cardinalities: &[f64],
    ) -> Self {
        let plans = |rng: &mut Lcg| -> Vec<PlanEntry> {
            (0..1 + rng.next() % 3)
                .map(|_| PlanEntry {
                    cost: CostVector::new(
                        rng.pick(times),
                        rng.pick(&[-0.0, 0.0, 1.0, 2.0, f64::NAN]),
                    ),
                    order: match rng.next() % 5 {
                        4 => Order::None,
                        t => Order::OnAttribute(t as u8),
                    },
                    node: PlanNode::Scan {
                        table: 0,
                        op: mpq_cost::ScanOp::Full,
                    },
                })
                .collect()
        };
        let stats = |rng: &mut Lcg| SetStats {
            cardinality: rng.pick(cardinalities),
            tuple_bytes: rng.pick(&[-0.0, 0.0, 1.0, 2.0]),
            sort_cost: rng.pick(&[0.0, 1.0, 2.0]),
        };
        let left = TableSet(1 + rng.next() % (SET.bits() - 1));
        let right = SET.difference(left);
        MadeUpSplit {
            left,
            lefts: plans(rng),
            rights: plans(rng),
            costs: SplitCosts::from_stats(predicates, left, &stats(rng), right, &stats(rng)),
        }
    }

    /// The split's operand-plan pairs, in the candidate loop's order.
    fn pairs(&self) -> impl Iterator<Item = ((u32, &PlanEntry), (u32, &PlanEntry))> {
        plans(&self.lefts).flat_map(move |l| plans(&self.rights).map(move |r| (l, r)))
    }

    /// The split's candidates, in the candidate loop's order.
    fn candidates(&self, live: TableSet) -> impl Iterator<Item = Candidate<'_>> {
        plans(&self.lefts).flat_map(move |l| {
            plans(&self.rights).flat_map(move |r| {
                JOIN_OPS
                    .into_iter()
                    .filter_map(move |op| Candidate::new(&self.costs, op, l, r, live))
            })
        })
    }
}

/// The plans of one operand, numbered by their slot position.
fn plans(side: &[PlanEntry]) -> impl Iterator<Item = (u32, &PlanEntry)> {
    (0..).zip(side)
}

/// A made-up candidate stream of [`SET`]: a few splits and the orders that
/// are live above the set.
struct MadeUpStream {
    splits: Vec<MadeUpSplit>,
    live: TableSet,
}

impl MadeUpStream {
    /// With `nan`, times may be NaN: a plan's own, the sum of opposite
    /// infinities, or a nested loop's over cardinalities `0 · ∞`. Without,
    /// a stream has infinite times of one sign only.
    fn random(rng: &mut Lcg, predicates: &PredicateIndex, nan: bool) -> Self {
        let inf = f64::INFINITY;
        let (low, odd, high) = if nan {
            (-inf, f64::NAN, inf)
        } else {
            let one_sign = if rng.next() % 2 == 0 { inf } else { -inf };
            (one_sign, 2.0, one_sign)
        };
        let times = [low, 0.0, 1.0, 2.0, odd, high];
        let cardinalities: &[f64] = if nan {
            &[0.0, 2.0, 3.0, 4.0, inf]
        } else {
            &[0.0, 2.0, 3.0, 4.0]
        };
        MadeUpStream {
            live: TableSet(rng.next() & SET.bits()),
            splits: (0..1 + rng.next() % 4)
                .map(|_| MadeUpSplit::random(rng, predicates, &times, cardinalities))
                .collect(),
        }
    }

    /// Every candidate with the operands of its split, in stream order.
    fn candidates(&self) -> impl Iterator<Item = (TableSet, TableSet, Candidate<'_>)> {
        self.splits.iter().flat_map(|split| {
            let right = SET.difference(split.left);
            split
                .candidates(self.live)
                .map(move |c| (split.left, right, c))
        })
    }

    /// The slot the streaming reducer leaves behind `prefix`, offered
    /// every operand-plan pair as the kernel offers them.
    fn streamed(
        &self,
        minima: &mut ClassMinima,
        policy: &PruningPolicy,
        prefix: &[PlanEntry],
    ) -> Vec<PlanEntry> {
        let mut offered = 0;
        for split in &self.splits {
            for (l, r) in split.pairs() {
                offered += minima.offer_pair(&split.costs, split.left, l, r, self.live);
            }
        }
        assert_eq!(
            offered,
            self.candidates().count() as u64,
            "every candidate counted"
        );
        let mut slot = prefix.to_vec();
        minima.insert_winners(SET, policy, &mut slot, prefix.len());
        slot
    }
}

/// Entries as bit patterns: NaN costs must compare equal to themselves,
/// and the zeros of either sign must not.
fn bits(slot: &[PlanEntry]) -> Vec<(u64, u64, Order, PlanNode)> {
    slot.iter()
        .map(|e| {
            (
                e.cost.time.to_bits(),
                e.cost.buffer.to_bits(),
                e.order,
                e.node,
            )
        })
        .collect()
}

/// The predicates of a six-table clique: the made-up splits take their
/// sort-merge attributes from a real index.
fn with_clique_predicates(f: impl FnOnce(&PredicateIndex)) {
    let q =
        WorkloadGenerator::new(WorkloadConfig::with_graph(6, JoinGraph::Clique), 3).next_query();
    f(CardinalityEstimator::new(&q).predicates());
}

/// What the reducer computes, done eagerly: every candidate costed in full
/// and built the moment it is generated, the running strict minimum of
/// each order class kept (a class opens with its first candidate whatever
/// it costs, NaN included; `<` never lets a NaN in later), the survivors
/// inserted in generation order. The streaming reducer compares on time
/// and costs a winner once, at the end — the slot must not tell.
fn eager_class_minima(stream: &MadeUpStream, policy: &PruningPolicy) -> Vec<PlanEntry> {
    let mut best: Vec<(Order, usize, PlanEntry)> = Vec::new();
    for (generation, (left, right, c)) in stream.candidates().enumerate() {
        let entry = c.entry(left, right);
        match best.iter_mut().find(|(order, ..)| *order == c.order) {
            None => best.push((c.order, generation, entry)),
            Some(class) if entry.cost.time < class.2.cost.time => {
                *class = (c.order, generation, entry)
            }
            Some(_) => {}
        }
    }
    best.sort_by_key(|&(_, generation, _)| generation);
    let mut slot = Vec::new();
    for (.., entry) in best {
        policy.try_insert(&mut slot, entry);
    }
    slot
}

/// Offering every operand-plan pair to the lazy reducer must produce a
/// slot identical — contents, entry order, every cost bit — to costing and
/// building every candidate: 400 random bursts with heavy tie pressure,
/// half of them with NaN times. On a NaN-free stream that is the slot of
/// inserting every candidate through the scalar pruning function (a NaN
/// time is beyond that claim: sequential insertion never rejects or
/// removes one, the reducer keeps at most the one that opened its class).
#[test]
fn batch_matches_sequential_insertion() {
    let policy = PruningPolicy::new(Objective::Single, 6);
    // Coverage the streams must reach: NaN and ±∞ as a class's first and as
    // a later candidate, exact ties between the operators of one plan pair
    // and between plans of one operand; and every branch of the pair rule —
    // hash join strictly cheaper, tied with or dearer than the nested loop,
    // and a NaN nested loop beside a hash join that is not NaN.
    let (mut nan_first, mut nan_later, mut inf_first, mut inf_later) = (0, 0, 0, 0);
    let (mut operator_ties, mut plan_ties) = (0, 0);
    let (mut hash_cheaper, mut hash_tied, mut hash_dearer, mut nan_nested_loop) = (0, 0, 0, 0);
    with_clique_predicates(|predicates| {
        // One reducer reused across trials, as it is across sets.
        let mut minima = ClassMinima::default();
        for trial in 0..400u64 {
            let nan = trial % 2 == 1;
            let mut rng = Lcg(trial * 2654435761 + 99);
            let stream = MadeUpStream::random(&mut rng, predicates, nan);
            let streamed = stream.streamed(&mut minima, &policy, &[]);
            assert_eq!(
                bits(&eager_class_minima(&stream, &policy)),
                bits(&streamed),
                "trial {trial}: a deferred cost diverged from the eager one"
            );

            let mut seen: Vec<Order> = Vec::new();
            let mut previous: Option<Candidate<'_>> = None;
            let mut sequential = Vec::new();
            for (left, right, c) in stream.candidates() {
                let first = !seen.contains(&c.order);
                if first {
                    seen.push(c.order);
                }
                match (c.time.is_nan(), c.time.is_infinite(), first) {
                    (true, _, true) => nan_first += 1,
                    (true, _, false) => nan_later += 1,
                    (_, true, true) => inf_first += 1,
                    (_, true, false) => inf_later += 1,
                    _ => {}
                }
                if let Some(p) = previous.filter(|p| p.time == c.time && p.order == c.order) {
                    let same_pair = (p.left_idx, p.right_idx) == (c.left_idx, c.right_idx);
                    operator_ties += usize::from(same_pair);
                    plan_ties += usize::from(p.left_idx != c.left_idx);
                }
                previous = Some(c);
                policy.try_insert(&mut sequential, c.entry(left, right));
            }
            for split in &stream.splits {
                for (l, r) in split.pairs() {
                    let [nested_loop, hash] = [JOIN_OPS[0], JOIN_OPS[1]]
                        .map(|op| Candidate::new(&split.costs, op, l, r, stream.live).unwrap());
                    let (nl, h) = (nested_loop.time, hash.time);
                    hash_cheaper += usize::from(h < nl);
                    hash_tied += usize::from(h == nl);
                    hash_dearer += usize::from(h > nl);
                    nan_nested_loop += usize::from(nl.is_nan() && !h.is_nan());
                }
            }
            if !nan {
                assert_eq!(
                    bits(&sequential),
                    bits(&streamed),
                    "trial {trial}: streamed winners diverged from sequential insertion"
                );
            }
        }
    });
    for (what, count) in [
        ("NaN opens a class", nan_first),
        ("NaN after a class opened", nan_later),
        ("±∞ opens a class", inf_first),
        ("±∞ after a class opened", inf_later),
        ("operators of one pair tie", operator_ties),
        ("plans of one operand tie", plan_ties),
        ("hash join cheaper than its nested loop", hash_cheaper),
        ("hash join tied with its nested loop", hash_tied),
        ("hash join dearer than its nested loop", hash_dearer),
        (
            "NaN nested loop beside a hash join that is not",
            nan_nested_loop,
        ),
    ] {
        assert!(count >= 20, "{what}: only {count} times in 400 streams");
    }
}

/// The Pareto path's lazy insertion — every candidate costed in full,
/// rejection decided on cost and order, the entry built only when kept —
/// equals inserting the built entry, on the same streams, α-approximate
/// pruning included.
#[test]
fn lazy_pareto_insertion_matches_eager_insertion() {
    with_clique_predicates(|predicates| {
        for alpha in [1.0, 2.0] {
            let policy = PruningPolicy::new(Objective::Multi { alpha }, 3);
            for trial in 0..200u64 {
                let mut rng = Lcg(trial * 40503 + 7);
                let stream = MadeUpStream::random(&mut rng, predicates, trial % 2 == 1);
                let (mut eager, mut lazy) = (Vec::new(), Vec::new());
                let (mut built, mut offered) = (0, 0);
                for (left, right, c) in stream.candidates() {
                    offered += 1;
                    let kept = policy.try_insert(&mut eager, c.entry(left, right));
                    let kept_lazily =
                        policy.try_insert_with(&mut lazy, 0, c.cost(), c.order, || {
                            built += 1;
                            c.entry(left, right)
                        });
                    assert_eq!(kept, kept_lazily, "trial {trial}");
                    assert_eq!(bits(&eager), bits(&lazy), "trial {trial}");
                }
                assert!(built >= lazy.len() && built <= offered);
            }
        }
    });
}

/// The same equivalence holds when the slot under construction is the tail
/// of a shared arena with a frozen prefix, as the kernel builds it:
/// `try_insert_with` never reads or touches entries below `start`.
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
    with_clique_predicates(|predicates| {
        for _ in 0..50 {
            let stream = MadeUpStream::random(&mut rng, predicates, false);

            let mut sequential = prefix.clone();
            for (left, right, c) in stream.candidates() {
                let e = c.entry(left, right);
                policy.try_insert_with(&mut sequential, prefix.len(), e.cost, e.order, || e);
            }

            let streamed = stream.streamed(&mut ClassMinima::default(), &policy, &prefix);

            assert_eq!(bits(&sequential), bits(&streamed));
            assert_eq!(&sequential[..prefix.len()], &prefix[..], "prefix untouched");
            assert!(sequential.len() > prefix.len(), "tail actually populated");
        }
    });
}
