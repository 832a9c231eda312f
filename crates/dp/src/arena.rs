//! The memo (the `P` array of Algorithm 2) and the streaming, optionally
//! parallel DP kernel.
//!
//! [`ArenaMemo`] is the one memo of the crate: it maps each admissible
//! table set to its surviving plan entries, stored in one contiguous entry
//! arena with per-set `(start, len)` spans addressed by the dense
//! mixed-radix index of [`AdmissibleSets`] — O(1) lookup, no hashing, and
//! sized to the partition, so memory shrinks with the constraint count
//! exactly as Theorem 4 predicts. Single tables are stored separately: the
//! paper notes that singleton sets need not be part of the admissible-set
//! enumeration because scans are always constructed (Section 4.2). Slots
//! are written exactly once, when a set's candidates have been generated
//! and pruned — one at a time by the slot-at-a-time traversals
//! ([`ArenaMemo::push_slot`]), a whole level chunk at a time by the
//! streaming kernel — so the DP inner loop performs no per-set allocation
//! and reads operand plans from cache-line-friendly contiguous memory.
//!
//! [`optimize_partition_parallel`] is the kernel built on it. It produces
//! results **bit-identical** to the textbook reference loop
//! ([`crate::worker::optimize_partition_reference`]) for every thread
//! count:
//!
//! * Candidates for a set come from the same split enumeration and the
//!   same candidate loop as the reference kernel's (`for_each_split`,
//!   `join_candidates` in [`crate::worker`]), so they are generated in
//!   exactly its order.
//! * For single-objective runs the candidates are reduced as they stream
//!   by ([`OrderClassMinima`]): only the cheapest candidate of each
//!   interesting-order class (an order is relabelled `None` once no later
//!   join can use it, so a set has few) reaches the scalar pruning
//!   function, which provably yields the same slot, in the same entry
//!   order, as inserting every candidate sequentially. Multi-objective
//!   runs insert every candidate as it is generated.
//! * Sets are built in ascending-cardinality levels. A set reads only
//!   strictly smaller sets, so sets of one level are independent: each
//!   slot's content is the same under any level schedule, and under
//!   [`ParallelPolicy`] a level is split into contiguous chunks whose
//!   results are merged back in chunk order — parallel-on ≡ parallel-off
//!   by construction (the serial kernel runs the very same level loop with
//!   one chunk), and by the `kernel_differential` test suite.

use crate::stats::WorkerStats;
use crate::worker::{
    finish, for_each_split, join_candidates, seed_scans, PartitionOutcome, SplitEnv, SplitScratch,
};
use mpq_cost::{CardinalityEstimator, Objective};
use mpq_model::{Query, TableSet};
use mpq_partition::{AdmissibleSets, ConstraintSet, PlanSpace};
use mpq_plan::{PlanEntry, PruningPolicy};
use std::time::Instant;

/// Opt-in intra-worker parallelism for the arena kernel: how many threads
/// one worker may spread its partition's independent admissible sets
/// across. The default is serial; any thread count produces bit-identical
/// results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelPolicy {
    threads: usize,
}

impl ParallelPolicy {
    /// Single-threaded (the default).
    pub fn serial() -> Self {
        ParallelPolicy { threads: 1 }
    }

    /// Use up to `threads` threads per partition (0 is treated as 1).
    pub fn with_threads(threads: usize) -> Self {
        ParallelPolicy {
            threads: threads.max(1),
        }
    }

    /// Maximum threads this policy allows.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether more than one thread may be used.
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }
}

impl Default for ParallelPolicy {
    fn default() -> Self {
        ParallelPolicy::serial()
    }
}

/// The memo: one contiguous entry array, per-set write-once spans
/// addressed by the dense admissible-set index, scans kept apart.
pub struct ArenaMemo {
    adm: AdmissibleSets,
    arena: Vec<PlanEntry>,
    spans: Vec<(u32, u32)>,
    singles: Vec<Vec<PlanEntry>>,
}

impl ArenaMemo {
    /// Creates an empty arena memo laid out for the partition's admissible
    /// sets.
    pub fn new(adm: AdmissibleSets) -> Self {
        let n = adm.num_tables();
        let total = adm.len();
        ArenaMemo {
            adm,
            arena: Vec::new(),
            spans: vec![(0, 0); total],
            singles: vec![Vec::new(); n],
        }
    }

    /// The admissible-set index this memo is laid out by.
    pub fn admissible(&self) -> &AdmissibleSets {
        &self.adm
    }

    /// Entries of the set at dense index `idx` (hot-path lookup without a
    /// second `index_of`).
    #[inline]
    pub fn entries_at(&self, idx: usize) -> &[PlanEntry] {
        let (s, l) = self.spans[idx];
        &self.arena[s as usize..(s as usize + l as usize)]
    }

    /// Plan entries stored for `set`. Singleton sets resolve to the scan
    /// entries; inadmissible or not-yet-written sets resolve to an empty
    /// slice.
    #[inline]
    pub fn entries(&self, set: TableSet) -> &[PlanEntry] {
        if set.len() == 1 {
            return &self.singles[set.min_table().expect("non-empty")];
        }
        match self.adm.index_of(set) {
            Some(i) => self.entries_at(i),
            None => &[],
        }
    }

    /// Scan entries for single table `t`.
    #[inline]
    pub fn single_entries(&self, t: usize) -> &[PlanEntry] {
        &self.singles[t]
    }

    /// Mutable access to the scan entries of table `t` (seeding).
    pub fn single_slot_mut(&mut self, t: usize) -> &mut Vec<PlanEntry> {
        &mut self.singles[t]
    }

    /// Writes the finished slot of the set at dense index `idx` — the
    /// write side of the slot-at-a-time traversals (the streaming kernel
    /// merges whole level chunks instead). Slots are write-once, because
    /// parents refer to entries by position: a second write of a non-empty
    /// slot is refused (`false`) and changes nothing.
    pub fn push_slot(&mut self, idx: usize, entries: &[PlanEntry]) -> bool {
        if self.spans[idx].1 > 0 {
            return false;
        }
        let start = u32::try_from(self.arena.len()).expect("arena entry count fits u32");
        let len = u32::try_from(entries.len()).expect("slot length fits u32");
        self.arena.extend_from_slice(entries);
        self.spans[idx] = (start, len);
        true
    }

    /// [`ArenaMemo::push_slot`] addressed by table set; `false` also for a
    /// set that is inadmissible in this partition (it has no slot).
    pub fn push_slot_of(&mut self, set: TableSet, entries: &[PlanEntry]) -> bool {
        match self.adm.index_of(set) {
            Some(idx) => self.push_slot(idx, entries),
            None => false,
        }
    }

    /// Number of table sets (including single tables) with at least one
    /// stored entry — the paper's "Memory (relations)" metric.
    pub fn stored_sets(&self) -> u64 {
        let sets = self.spans.iter().filter(|&&(_, l)| l > 0).count();
        let singles = self.singles.iter().filter(|s| !s.is_empty()).count();
        (sets + singles) as u64
    }

    /// Total number of stored entries.
    pub fn total_entries(&self) -> u64 {
        // Every arena entry belongs to exactly one span (slots are written
        // once, already pruned), so the arena length is the entry total.
        let singles: usize = self.singles.iter().map(Vec::len).sum();
        (self.arena.len() + singles) as u64
    }
}

/// Shared read-only context of one kernel run.
struct Ctx<'a> {
    space: PlanSpace,
    objective: Objective,
    constraints: &'a ConstraintSet,
    pruning: &'a PruningPolicy,
}

/// Streaming single-objective reduction of one set's candidates: the
/// running cheapest candidate per interesting-order class.
///
/// Under single-objective pruning the fate of a set's whole candidate
/// stream is decided by one number per order class — the minimum time.
/// Inserting exactly the per-class minima (strict minimum: on ties the
/// earliest candidate wins, matching the pruning function's "an existing
/// plan at most as expensive rejects the newcomer"), in ascending
/// generation order, yields a slot **identical** (contents and entry order)
/// to inserting every candidate sequentially: a skipped candidate `c` has a
/// same-order winner `w` with `w.time <= c.time`, so everything `c` would
/// reject or remove, `w` rejects or removes too, and `c` itself never
/// survives `w`'s insertion. `kernel_differential` checks this equivalence
/// over randomized candidate streams.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct OrderClassMinima {
    /// (generation index, candidate) per order class, in first-seen order.
    /// Classes are few (the set's interesting orders, plus unordered), so a
    /// linear probe beats any map.
    best: Vec<(u64, PlanEntry)>,
    offered: u64,
}

impl OrderClassMinima {
    /// Offers the next candidate of the stream.
    #[inline]
    pub fn offer(&mut self, c: PlanEntry) {
        let idx = self.offered;
        self.offered += 1;
        match self.best.iter_mut().find(|(_, b)| b.order == c.order) {
            Some(slot) => {
                if c.cost.time < slot.1.cost.time {
                    *slot = (idx, c);
                }
            }
            None => self.best.push((idx, c)),
        }
    }

    /// Inserts the winners into the slot occupying `out[start..]`, in
    /// generation order, and resets for the next set.
    pub fn insert_winners(
        &mut self,
        pruning: &PruningPolicy,
        out: &mut Vec<PlanEntry>,
        start: usize,
    ) {
        self.best.sort_unstable_by_key(|&(idx, _)| idx);
        for (_, w) in self.best.drain(..) {
            pruning.try_insert_range(out, start, w);
        }
    }
}

/// Per-thread working state: estimator, enumeration scratch, the
/// single-objective reducer, and the output staging buffer the thread's
/// slots are built into before the in-order merge.
struct Scratch<'q> {
    est: CardinalityEstimator<'q>,
    split_scratch: SplitScratch,
    minima: OrderClassMinima,
    out: Vec<PlanEntry>,
    /// Finished slots staged in `out`: (dense index, start, len).
    built: Vec<(u32, u32, u32)>,
    splits_tried: u64,
    plans_generated: u64,
}

impl<'q> Scratch<'q> {
    fn new(query: &'q Query) -> Self {
        Scratch {
            est: CardinalityEstimator::new(query),
            split_scratch: SplitScratch::default(),
            minima: OrderClassMinima::default(),
            out: Vec::new(),
            built: Vec::new(),
            splits_tried: 0,
            plans_generated: 0,
        }
    }
}

/// Builds the slots for one contiguous chunk of same-cardinality sets into
/// the scratch staging buffer. Reads only strictly smaller sets from the
/// arena, so chunks of one level can run concurrently.
fn process_chunk(ctx: &Ctx<'_>, memo: &ArenaMemo, chunk: &[u32], s: &mut Scratch<'_>) {
    let env = SplitEnv {
        space: ctx.space,
        constraints: ctx.constraints,
        adm: &memo.adm,
    };
    let Scratch {
        est,
        split_scratch,
        minima,
        out,
        built,
        splits_tried,
        plans_generated,
    } = s;
    for &idx in chunk {
        let set = memo.adm.set_at(idx as usize);
        let slot_start = out.len();
        let live = est.predicates().interesting_orders(set);
        for_each_split(&env, set, memo, split_scratch, |split| {
            *splits_tried += 1;
            *plans_generated += match ctx.objective {
                Objective::Single => join_candidates(est, split, live, |c| minima.offer(c)),
                // Pareto pruning has no single-number reduction: every
                // candidate meets the slot built so far.
                Objective::Multi { .. } => join_candidates(est, split, live, |c| {
                    ctx.pruning.try_insert_range(out, slot_start, c);
                }),
            };
        });
        minima.insert_winners(ctx.pruning, out, slot_start);
        let len = out.len() - slot_start;
        built.push((
            idx,
            u32::try_from(slot_start).expect("staged entries fit u32"),
            u32::try_from(len).expect("slot length fits u32"),
        ));
    }
}

/// Appends one scratch's staged slots to the arena and records their
/// spans. Called in chunk order, which fixes the arena layout
/// deterministically regardless of thread timing.
fn merge_scratch(memo: &mut ArenaMemo, s: &mut Scratch<'_>, stats: &mut WorkerStats) {
    let base = u32::try_from(memo.arena.len()).expect("arena entry count fits u32");
    memo.arena.extend_from_slice(&s.out);
    for &(idx, start, len) in &s.built {
        memo.spans[idx as usize] = (base + start, len);
    }
    s.out.clear();
    s.built.clear();
    stats.splits_tried += s.splits_tried;
    stats.plans_generated += s.plans_generated;
    s.splits_tried = 0;
    s.plans_generated = 0;
}

/// Don't fan a level out unless every thread gets at least this many sets
/// (thread wake-up costs more than a few tiny slots).
const MIN_SETS_PER_THREAD: usize = 2;

/// Optimizes one partition with streaming pruning and optional
/// intra-worker parallelism. Bit-identical to the reference loop for every
/// `policy` (see the module docs for why).
pub fn optimize_partition_parallel(
    query: &Query,
    space: PlanSpace,
    objective: Objective,
    constraints: &ConstraintSet,
    policy: ParallelPolicy,
) -> PartitionOutcome {
    let start = Instant::now();
    let n = query.num_tables();
    assert!(n >= 1, "query must join at least one table");
    let pruning = PruningPolicy::new(objective, n);
    let mut memo = ArenaMemo::new(AdmissibleSets::new(constraints));
    let mut stats = WorkerStats::default();
    let threads = policy.threads().max(1);
    // One estimator per thread; seeding and reconstruction borrow the
    // first, so a serial run allocates exactly one cardinality table.
    let mut scratches: Vec<Scratch<'_>> = (0..threads).map(|_| Scratch::new(query)).collect();

    seed_scans(&mut memo, &mut scratches[0].est, &pruning);

    // Group the admissible sets into ascending-cardinality levels. A set
    // reads only strictly smaller sets, so the sets of one level are
    // independent of each other; within a level, dense-index order is kept
    // so the arena layout (and the candidate enumeration) is fixed.
    let mut levels: Vec<Vec<u32>> = vec![Vec::new(); n + 1];
    for idx in 0..memo.adm.len() {
        let c = memo.adm.set_at(idx).len();
        if c >= 2 {
            levels[c].push(u32::try_from(idx).expect("dense index fits u32"));
        }
    }

    let ctx = Ctx {
        space,
        objective,
        constraints,
        pruning: &pruning,
    };
    let mut peak_threads = 1u64;

    for level in &levels {
        if level.is_empty() {
            continue;
        }
        // The fan-out decision depends only on deterministic counts.
        let t_eff = if level.len() >= threads * MIN_SETS_PER_THREAD {
            threads
        } else {
            1
        };
        if t_eff <= 1 {
            process_chunk(&ctx, &memo, level, &mut scratches[0]);
            merge_scratch(&mut memo, &mut scratches[0], &mut stats);
        } else {
            let chunk_size = level.len().div_ceil(t_eff);
            let memo_ref = &memo;
            let ctx_ref = &ctx;
            std::thread::scope(|scope| {
                for (chunk, s) in level.chunks(chunk_size).zip(scratches.iter_mut()) {
                    scope.spawn(move || process_chunk(ctx_ref, memo_ref, chunk, s));
                }
            });
            peak_threads = peak_threads.max(level.chunks(chunk_size).count() as u64);
            // Merge in chunk order: the arena layout never depends on
            // which thread finished first.
            for s in scratches.iter_mut() {
                merge_scratch(&mut memo, s, &mut stats);
            }
        }
    }

    stats.threads_used = peak_threads;
    finish(&memo, &mut scratches[0].est, &pruning, stats, start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{optimize_partition_reference, optimize_serial};
    use mpq_cost::{CostVector, Order, ScanOp};
    use mpq_model::{WorkloadConfig, WorkloadGenerator};
    use mpq_partition::{partition_constraints, Grouping};
    use mpq_plan::PlanNode;

    fn query(n: usize, seed: u64) -> Query {
        WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).next_query()
    }

    /// Streams `(time, order)` candidates through the reducer and returns
    /// the resulting slot as `(time, order)` pairs.
    fn reduce(minima: &mut OrderClassMinima, cands: &[(f64, Order)]) -> Vec<(f64, Order)> {
        for &(time, order) in cands {
            minima.offer(PlanEntry {
                cost: CostVector::new(time, 0.0),
                order,
                node: PlanNode::Scan {
                    table: 0,
                    op: ScanOp::Full,
                },
            });
        }
        let mut slot = Vec::new();
        minima.insert_winners(&PruningPolicy::new(Objective::Single, 4), &mut slot, 0);
        slot.iter().map(|e| (e.cost.time, e.order)).collect()
    }

    #[test]
    fn winners_are_per_order_minima_in_generation_order() {
        let slot = reduce(
            &mut OrderClassMinima::default(),
            &[
                (5.0, Order::None),
                (3.0, Order::OnAttribute(1)),
                (2.0, Order::None),
                (4.0, Order::OnAttribute(1)),
                (9.0, Order::OnAttribute(2)),
            ],
        );
        assert_eq!(
            slot,
            vec![
                (3.0, Order::OnAttribute(1)),
                (2.0, Order::None),
                (9.0, Order::OnAttribute(2))
            ]
        );
    }

    #[test]
    fn ties_keep_the_earliest_candidate() {
        let mut minima = OrderClassMinima::default();
        for table in [7u8, 9] {
            minima.offer(PlanEntry::scan(
                table,
                ScanOp::Full,
                CostVector::new(2.0, 0.0),
            ));
        }
        let mut slot = Vec::new();
        minima.insert_winners(&PruningPolicy::new(Objective::Single, 4), &mut slot, 0);
        assert_eq!(slot.len(), 1);
        assert!(matches!(slot[0].node, PlanNode::Scan { table: 7, .. }));
    }

    #[test]
    fn inserting_winners_resets_the_reducer() {
        let mut minima = OrderClassMinima::default();
        assert_eq!(reduce(&mut minima, &[(1.0, Order::None)]).len(), 1);
        // A cheaper class minimum of the previous set must not leak.
        assert_eq!(
            reduce(&mut minima, &[(9.0, Order::None)]),
            vec![(9.0, Order::None)]
        );
        assert!(reduce(&mut minima, &[]).is_empty());
    }

    fn entry(time: f64) -> PlanEntry {
        PlanEntry::scan(0, ScanOp::Full, CostVector::new(time, 0.0))
    }

    /// A memo for partition `id` of `m` of a linear `n`-table query.
    fn memo(n: usize, id: u64, m: u64) -> ArenaMemo {
        let cs = partition_constraints(n, PlanSpace::Linear, id, m);
        ArenaMemo::new(AdmissibleSets::new(&cs))
    }

    #[test]
    fn push_slot_is_write_once() {
        let mut memo = memo(6, 1, 4);
        let set = TableSet::from_tables([0, 1, 4]);
        let idx = memo.admissible().index_of(set).unwrap();
        assert!(memo.push_slot(idx, &[entry(5.0), entry(6.0)]));
        // Written by index, read back by set.
        assert_eq!(memo.entries(set), [entry(5.0), entry(6.0)]);
        assert_eq!((memo.stored_sets(), memo.total_entries()), (1, 2));
        // Parents refer to entries by position: a rewrite is refused, by
        // index and by set, and changes nothing.
        assert!(!memo.push_slot(idx, &[entry(1.0)]));
        assert!(!memo.push_slot_of(set, &[entry(1.0)]));
        assert_eq!(memo.entries(set), [entry(5.0), entry(6.0)]);
        assert_eq!((memo.stored_sets(), memo.total_entries()), (1, 2));
    }

    #[test]
    fn inadmissible_set_has_no_slot() {
        let mut memo = memo(4, 0, 2); // Q0 ≺ Q1
        let set = TableSet::from_tables([1, 2]);
        assert!(!memo.push_slot_of(set, &[entry(3.0)]));
        assert!(memo.entries(set).is_empty());
        assert_eq!((memo.stored_sets(), memo.total_entries()), (0, 0));
    }

    #[test]
    fn unwritten_admissible_set_is_empty() {
        let mut memo = memo(4, 0, 2);
        let (written, unwritten) = (TableSet::from_tables([0, 1]), TableSet::from_tables([0, 3]));
        assert!(memo.push_slot_of(written, &[entry(7.0)]));
        assert!(memo.admissible().is_admissible(unwritten));
        assert!(memo.entries(unwritten).is_empty());
    }

    #[test]
    fn singles_are_separate_from_the_admissible_index() {
        let mut memo = memo(4, 0, 2);
        memo.single_slot_mut(2).push(entry(1.0));
        assert_eq!(memo.single_entries(2).len(), 1);
        assert_eq!(memo.entries(TableSet::singleton(2)).len(), 1);
        // Table 1 is inadmissible as a set under Q0 ≺ Q1, but its scan is
        // still reachable via the singles path.
        assert!(!memo.admissible().is_admissible(TableSet::singleton(1)));
        memo.single_slot_mut(1).push(entry(2.0));
        assert_eq!(memo.entries(TableSet::singleton(1)).len(), 1);
        assert_eq!((memo.stored_sets(), memo.total_entries()), (2, 2));
    }

    #[test]
    fn arena_matches_dense_reference_serial() {
        for seed in 0..4 {
            let q = query(7, seed);
            for space in [PlanSpace::Linear, PlanSpace::Bushy] {
                let cs = ConstraintSet::unconstrained(Grouping::new(7, space));
                let reference = optimize_partition_reference(&q, space, Objective::Single, &cs);
                let arena = optimize_partition_parallel(
                    &q,
                    space,
                    Objective::Single,
                    &cs,
                    ParallelPolicy::serial(),
                );
                assert_eq!(
                    reference.plans[0].cost().time.to_bits(),
                    arena.plans[0].cost().time.to_bits(),
                    "seed {seed} {space:?}"
                );
                assert_eq!(reference.stats.splits_tried, arena.stats.splits_tried);
                assert_eq!(reference.stats.plans_generated, arena.stats.plans_generated);
                assert_eq!(reference.stats.stored_sets, arena.stats.stored_sets);
                assert_eq!(reference.stats.total_entries, arena.stats.total_entries);
            }
        }
    }

    #[test]
    fn arena_matches_dense_on_constrained_partitions() {
        for seed in 0..3 {
            let q = query(8, seed + 20);
            for space in [PlanSpace::Linear, PlanSpace::Bushy] {
                // Bushy 8-table queries have two constraint groups → at
                // most 4 partitions.
                let m = match space {
                    PlanSpace::Linear => 8,
                    PlanSpace::Bushy => 4,
                };
                for id in [0u64, 3, m - 1] {
                    let cs = partition_constraints(8, space, id, m);
                    let reference = optimize_partition_reference(&q, space, Objective::Single, &cs);
                    let arena = optimize_partition_parallel(
                        &q,
                        space,
                        Objective::Single,
                        &cs,
                        ParallelPolicy::serial(),
                    );
                    assert_eq!(
                        reference.plans[0].cost().time.to_bits(),
                        arena.plans[0].cost().time.to_bits(),
                        "seed {seed} {space:?} partition {id}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        for seed in 0..3 {
            let q = query(8, seed + 40);
            for space in [PlanSpace::Linear, PlanSpace::Bushy] {
                let cs = ConstraintSet::unconstrained(Grouping::new(8, space));
                let serial = optimize_partition_parallel(
                    &q,
                    space,
                    Objective::Single,
                    &cs,
                    ParallelPolicy::serial(),
                );
                for t in [2usize, 4] {
                    let par = optimize_partition_parallel(
                        &q,
                        space,
                        Objective::Single,
                        &cs,
                        ParallelPolicy::with_threads(t),
                    );
                    assert_eq!(
                        serial.plans[0].cost().time.to_bits(),
                        par.plans[0].cost().time.to_bits(),
                        "seed {seed} {space:?} threads {t}"
                    );
                    assert_eq!(serial.plans[0], par.plans[0], "tree must match");
                    assert_eq!(serial.stats.splits_tried, par.stats.splits_tried);
                    assert_eq!(serial.stats.total_entries, par.stats.total_entries);
                    assert!(par.stats.threads_used >= 2, "fan-out should engage");
                }
            }
        }
    }

    #[test]
    fn multi_objective_frontier_matches_dense() {
        let q = query(6, 60);
        let cs = ConstraintSet::unconstrained(Grouping::new(6, PlanSpace::Bushy));
        let obj = Objective::Multi { alpha: 1.0 };
        let reference = optimize_partition_reference(&q, PlanSpace::Bushy, obj, &cs);
        for t in [1usize, 3] {
            let arena = optimize_partition_parallel(
                &q,
                PlanSpace::Bushy,
                obj,
                &cs,
                ParallelPolicy::with_threads(t),
            );
            assert_eq!(reference.plans.len(), arena.plans.len(), "threads {t}");
            for (d, a) in reference.plans.iter().zip(arena.plans.iter()) {
                assert_eq!(d.cost().time.to_bits(), a.cost().time.to_bits());
                assert_eq!(d.cost().buffer.to_bits(), a.cost().buffer.to_bits());
            }
        }
    }

    #[test]
    fn single_table_and_pair_queries() {
        for n in [1usize, 2] {
            let q = query(n, 70 + n as u64);
            let cs = ConstraintSet::unconstrained(Grouping::new(n, PlanSpace::Linear));
            let out = optimize_partition_parallel(
                &q,
                PlanSpace::Linear,
                Objective::Single,
                &cs,
                ParallelPolicy::with_threads(4),
            );
            assert_eq!(out.plans.len(), 1);
            assert_eq!(out.plans[0].num_joins(), n - 1);
            assert_eq!(out.stats.threads_used.max(1), out.stats.threads_used);
        }
    }

    #[test]
    fn serial_default_kernel_is_the_arena_kernel() {
        // `optimize_serial` routes through the arena kernel; its stats must
        // report the serial thread count.
        let q = query(5, 80);
        let out = optimize_serial(&q, PlanSpace::Linear, Objective::Single);
        assert_eq!(out.stats.threads_used, 1);
    }

    #[test]
    fn parallel_policy_accessors() {
        assert_eq!(ParallelPolicy::default(), ParallelPolicy::serial());
        assert!(!ParallelPolicy::serial().is_parallel());
        assert_eq!(ParallelPolicy::with_threads(0).threads(), 1);
        let p = ParallelPolicy::with_threads(4);
        assert!(p.is_parallel());
        assert_eq!(p.threads(), 4);
    }
}
