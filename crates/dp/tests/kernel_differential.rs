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
//! Final plans and counters do not show everything a memo holds. In a
//! left-deep space the inner operand is an unsorted scan, so a sort-merge
//! join sorts it (`rc · log2 rc ≥ rc`) and never costs less than the hash
//! join of the same pair (`lc + 2 rc`), so no final plan needs one. A
//! left-deep arm that charges a sorted outer plan the wrong sort-merge
//! term moves only the times of the ordered entries sort-merge makes: on
//! these queries neither a final plan nor a counter changes, and this
//! suite cannot see it. Whole-slot comparisons own it —
//! `arena::tests::the_left_deep_loop_offers_what_the_pair_loop_offers` in
//! tier-1 and the deep grid `arena::tests::arena_equals_reference_deep`.
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
//! candidates (`Candidate::new`, as the candidate loop makes them). The
//! same streams hold the Pareto path's group skipping (`ParetoSink`) to
//! eager insertion of every candidate.

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mpq_cost::{
    CardinalityEstimator, CostVector, Objective, Order, PredicateIndex, SetStats, SplitCosts,
    JOIN_OPS,
};
use mpq_dp::{
    join_plans, optimize_partition, optimize_partition_reference, Candidate, CandidateSink,
    ClassMinima, ParetoSink, PartitionOutcome,
};
use mpq_model::{JoinGraph, Query, TableSet, WorkloadConfig, WorkloadGenerator};
use mpq_partition::{partition_constraints, ConstraintSet, PlanSpace};
use mpq_plan::{KeyedSlot, PlanEntry, PlanNode, PruningPolicy};
use std::cell::Cell;

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
    assert_eq!(a.stats, b.stats, "{ctx}: work counters differ");
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
/// anyway, and so must the left plans' groups of candidates it passes
/// over whole (`ParetoSink`). At α = 2 (the benchmark's
/// `large_bushy_multi`) and α = 10 (the paper's, `Objective::PAPER_MULTI`)
/// a candidate is dropped when a kept one is within the per-level factor
/// of α on every cost, so which of two near-equal plans survives depends
/// on the order the candidates arrive in: those points run on partitions
/// 0/1, 0/2 and 1/2, up to 7 tables.
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
                for objective in [Objective::Multi { alpha: 2.0 }, Objective::PAPER_MULTI] {
                    check_point(
                        &q,
                        space,
                        objective,
                        &c,
                        &format!("seed {seed} (n={n}) {space:?} {objective:?} partition {id}/{m}"),
                    );
                }
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
    fn streamed(&self, minima: &mut ClassMinima, prefix: &[PlanEntry]) -> Vec<PlanEntry> {
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
        minima.insert_winners(SET, &mut slot, prefix.len());
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
            let streamed = stream.streamed(&mut minima, &[]);
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

/// The Pareto path's lazy insertion — every candidate costed in full and
/// offered to a keyed slot, rejection decided on cost and order, the entry
/// built only when kept — equals inserting the built entry, on the same
/// streams, α-approximate pruning included.
#[test]
fn lazy_pareto_insertion_matches_eager_insertion() {
    with_clique_predicates(|predicates| {
        for alpha in [1.0, 2.0] {
            let policy = PruningPolicy::new(Objective::Multi { alpha }, 3);
            for trial in 0..200u64 {
                let mut rng = Lcg(trial * 40503 + 7);
                let stream = MadeUpStream::random(&mut rng, predicates, trial % 2 == 1);
                let (mut eager, mut lazy) = (Vec::new(), KeyedSlot::new(&policy));
                let (mut built, mut offered) = (0, 0);
                for (left, right, c) in stream.candidates() {
                    offered += 1;
                    let kept = policy.try_insert(&mut eager, c.entry(left, right));
                    let kept_lazily = lazy.offer(c.cost(), c.order, || {
                        built += 1;
                        c.entry(left, right)
                    });
                    assert_eq!(kept, kept_lazily, "trial {trial}");
                    assert_eq!(bits(&eager), bits(lazy.entries()), "trial {trial}");
                }
                assert!(built >= lazy.entries().len() && built <= offered);
            }
        }
    });
}

/// A made-up scan entry of the given cost and order.
fn scan(time: f64, buffer: f64, order: Order) -> PlanEntry {
    PlanEntry {
        cost: CostVector::new(time, buffer),
        order,
        node: PlanNode::Scan {
            table: 0,
            op: mpq_cost::ScanOp::Full,
        },
    }
}

/// A slot's times as the memo stores them: one NaN for every NaN time.
fn stored(slot: &KeyedSlot) -> Vec<PlanEntry> {
    let mut entries = slot.entries().to_vec();
    for e in &mut entries {
        if e.cost.time.is_nan() {
            e.cost.time = f64::NAN;
        }
    }
    entries
}

/// A sink that counts the groups the sink it wraps declines.
struct CountDeclines<'c, S> {
    sink: S,
    declined: &'c Cell<u64>,
}

impl<S: CandidateSink> CandidateSink for CountDeclines<'_, S> {
    fn wants_group(&self, costs: &SplitCosts, outer: &PlanEntry) -> bool {
        let wants = self.sink.wants_group(costs, outer);
        self.declined.set(self.declined.get() + u64::from(!wants));
        wants
    }

    fn take(&mut self, candidate: Candidate<'_>) {
        self.sink.take(candidate);
    }
}

/// The Pareto kernel's candidate loop, which passes over a left plan's
/// group when the slot already rejects each of its classes' floors
/// (`ParetoSink`), leaves the slot that inserting every candidate leaves,
/// bit for bit, and counts every candidate: the made-up streams above,
/// from random slots, at per-insertion factors α ∈ {1, 2^(1/8), 2, 10}.
/// Half the streams have NaN and ±∞ times in their operand plans and NaN
/// operator times; the slots have NaN and ±∞ times too.
#[test]
fn declined_groups_leave_the_slot_of_eager_insertion() {
    let (mut declined, mut nan_kept) = (0, 0);
    with_clique_predicates(|predicates| {
        for alpha in [1.0, 2f64.powf(1.0 / 8.0), 2.0, 10.0] {
            // Two tables: one join level, so α is the per-insertion factor.
            let policy = PruningPolicy::new(Objective::Multi { alpha }, 2);
            assert_eq!(policy.insert_alpha(), alpha);
            for trial in 0..600u64 {
                let mut rng = Lcg(trial * 7919 + 3);
                let stream = MadeUpStream::random(&mut rng, predicates, trial % 2 == 1);
                let start: Vec<PlanEntry> = (0..rng.next() % 8)
                    .map(|_| {
                        let time = rng.pick(&[-f64::INFINITY, 0.0, 0.0, 1.0, 2.0, 4.0, f64::NAN]);
                        let buffer = rng.pick(&[-0.0, 0.0, 1.0, 2.0, f64::NAN]);
                        let order = match rng.next() % 5 {
                            4 => Order::None,
                            t => Order::OnAttribute(t as u8),
                        };
                        scan(time, buffer, order)
                    })
                    .collect();

                let mut eager = start.clone();
                for (left, right, c) in stream.candidates() {
                    policy.try_insert(&mut eager, c.entry(left, right));
                }

                let mut gated = KeyedSlot::with_entries(&policy, start.iter().copied());
                let declines = Cell::new(0);
                let mut generated = 0;
                for split in &stream.splits {
                    let operands = (split.left, SET.difference(split.left));
                    let sink = CountDeclines {
                        sink: ParetoSink::new(&mut gated, operands, &split.rights, stream.live),
                        declined: &declines,
                    };
                    generated +=
                        join_plans(&split.costs, &split.lefts, &split.rights, stream.live, sink);
                }
                let ctx = format!("α = {alpha}, trial {trial}");
                assert_eq!(generated, stream.candidates().count() as u64, "{ctx}");
                assert_eq!(bits(&eager), bits(&stored(&gated)), "{ctx}");
                declined += declines.get();
                let from_stream = |e: &&PlanEntry| matches!(e.node, PlanNode::Join { .. });
                nan_kept += eager
                    .iter()
                    .filter(from_stream)
                    .filter(|e| e.cost.time.is_nan())
                    .count();
            }
        }
    });
    assert!(
        declined >= 300 && nan_kept >= 300,
        "{declined} groups declined, {nan_kept} NaN candidates kept"
    );
}

/// The case the finiteness guard is there for: a left plan of time −∞
/// beside right plans of time 0 and +∞. Every class's floor is −∞ in time,
/// which a slot entry of time −∞ α-dominates; but −∞ + ∞ makes the second
/// right plan's candidates NaN, which no entry rejects and eager insertion
/// keeps. The group must be generated: a floor over non-finite operands
/// bounds nothing.
#[test]
fn a_group_of_mixed_infinities_is_generated() {
    with_clique_predicates(|predicates| {
        let (left, right) = (TableSet(0b0011), TableSet(0b1100));
        let stats = SetStats {
            cardinality: 2.0,
            tuple_bytes: 1.0,
            sort_cost: 1.0,
        };
        let costs = SplitCosts::from_stats(predicates, left, &stats, right, &stats);
        let lefts = [scan(f64::NEG_INFINITY, 0.0, Order::None)];
        let rights = [0.0, f64::INFINITY].map(|time| scan(time, 0.0, Order::None));
        // No order is live: every candidate is unordered, and the slot's
        // one unordered entry covers every class.
        let live = TableSet::EMPTY;
        for alpha in [1.0, 10.0] {
            let policy = PruningPolicy::new(Objective::Multi { alpha }, 2);
            let start = vec![scan(f64::NEG_INFINITY, 0.0, Order::None)];
            let mut eager = start.clone();
            for l in plans(&lefts) {
                for r in plans(&rights) {
                    for c in JOIN_OPS
                        .into_iter()
                        .filter_map(|op| Candidate::new(&costs, op, l, r, live))
                    {
                        policy.try_insert(&mut eager, c.entry(left, right));
                    }
                }
            }
            let mut gated = KeyedSlot::with_entries(&policy, start.iter().copied());
            let sink = ParetoSink::new(&mut gated, (left, right), &rights, live);
            assert_eq!(join_plans(&costs, &lefts, &rights, live, sink), 6);
            let nan = eager.iter().filter(|e| e.cost.time.is_nan()).count();
            assert_eq!(nan, 3, "α = {alpha}: the +∞ plan's three candidates");
            assert_eq!(bits(&eager), bits(&stored(&gated)), "α = {alpha}");
        }
    });
}

/// The reducer writes its winners behind whatever the arena already
/// holds, as the kernel has it build each set's slot at the arena's tail:
/// behind a frozen prefix, the tail it writes is the slot that inserting
/// every candidate into an empty slot leaves, and the prefix is untouched.
#[test]
fn batch_equivalence_holds_behind_a_frozen_prefix() {
    let policy = PruningPolicy::new(Objective::Single, 6);
    let mut rng = Lcg(7);
    // A prefix cheaper than every candidate: if the reducer consulted it,
    // it would reject everything and the tail would stay empty.
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
            let mut slot = Vec::new();
            for (left, right, c) in stream.candidates() {
                policy.try_insert(&mut slot, c.entry(left, right));
            }
            sequential.extend(slot);

            let streamed = stream.streamed(&mut ClassMinima::default(), &prefix);

            assert_eq!(bits(&sequential), bits(&streamed));
            assert_eq!(&streamed[..prefix.len()], &prefix[..], "prefix untouched");
            assert!(streamed.len() > prefix.len(), "tail actually populated");
        }
    });
}
