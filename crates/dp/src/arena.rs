//! The memo (the `P` array of Algorithm 2) and the streaming DP kernel.
//!
//! [`ArenaMemo`] is the one memo of the crate, and the one place that
//! knows a table set: for each admissible set it holds **one record** —
//! the set's operand statistics ([`SetStats`]: cardinality, tuple width,
//! sort cost) and the span of its surviving plan entries in one contiguous
//! entry arena — addressed by the dense mixed-radix index of
//! [`AdmissibleSets`]. O(1) lookup, no hashing, and sized to the
//! partition, so memory shrinks with the constraint count exactly as
//! Theorem 4 predicts, statistics included. A record is written exactly
//! once, together with the set's entries, when the set's candidates have
//! been generated and pruned — built in place at the arena's tail by the
//! kernel, or copied in by [`ArenaMemo::push_slot`]; the enumeration
//! reaches an operand's record by one index step from the parent's
//! ([`AdmissibleSets::index_without`], [`mpq_partition::SplitPart`]) and
//! reads statistics and plans from cache-line-friendly contiguous memory.
//! Scans live in the same arena, found by table
//! ([`ArenaMemo::push_single`]): the paper notes that singleton sets need
//! not be part of the admissible-set enumeration because scans are always
//! constructed (Section 4.2), and a table a constraint bars as a set has
//! no dense index.
//!
//! [`optimize_partition`] is the kernel built on it. It produces results
//! **bit-identical** to the textbook reference loop
//! ([`crate::worker::optimize_partition_reference`]):
//!
//! * Candidates for a set come from the same split enumeration and the
//!   same operand-plan pairs as the reference kernel's (`for_each_split`,
//!   `for_each_pair` in [`crate::worker`]), so they are generated in
//!   exactly its order.
//! * Under single-objective pruning a candidate's fate is decided by its
//!   time and its order class, and its cost vector is the same f64
//!   operations in the same order whenever it is evaluated (stored with
//!   one NaN for every NaN time, as `worker::stored_time` has it). So
//!   single-objective runs evaluate times only and reduce the candidates
//!   as they stream by on that one number ([`ClassMinima`]), one
//!   operand-plan pair at a time: a pair's nested loop and hash join share
//!   the outer order, and only the cheaper of the two is offered. A
//!   candidate that takes its class's lead reads its buffer from the
//!   split's constants ([`mpq_cost::SplitCosts::buffer`]); only the
//!   cheapest candidate of each interesting-order class (an order is
//!   relabelled `None` once no later join can use it, so a set has few) is
//!   built into a [`PlanEntry`], and the winners are written straight into
//!   the arena's tail ([`ClassMinima::insert_winners`]) — which provably
//!   yields the same slot, in the same entry order, as costing and
//!   inserting every candidate sequentially.
//! * The left-deep single-objective arm hoists what does not change to
//!   where it does not change, and each hoist keeps the bits:
//!   - *One predicate bitset per set.* The predicates with both ends in the
//!     set ([`PredicateIndex::inside`]) give the set's selectivity — the
//!     same multiplications in the same order as
//!     [`PredicateIndex::internal_selectivity`], which builds the same
//!     bitset — and every split `(S ∖ u, {u})` its sort-merge predicate:
//!     the lowest of `incident[u] & inside(S)`
//!     ([`PredicateIndex::last_join_attributes`]), since a predicate
//!     joining `u` to another table with both ends in `S` has its other end
//!     in `S ∖ u`. That is the predicate
//!     [`PredicateIndex::sort_merge_attributes`] picks, for two
//!     `SetUnions` lookups per split.
//!   - *Operator terms once per split.* What an operator adds to a
//!     candidate's time depends on the split and on whether the operand
//!     plans are sorted on its attributes alone; the inner operand is one
//!     scan. So nested loop and hash join are read from
//!     [`SplitCosts::time`] once per split, sort-merge once for an outer
//!     plan sorted on its outer attribute and once for one that is not,
//!     and its output is labelled once. An outer plan then costs `l + r`
//!     once and one add per operator: `(l + r) + app`, the operations of
//!     [`Candidate::new`](crate::Candidate::new).
//!   - *Winners written directly.* The winners hold one class each, so
//!     the pruning function's scan decides nothing it needs to: an ordered
//!     winner is kept (only its own order rejects it, and no other winner
//!     has it), and the unordered winner is kept unless another winner's
//!     time is `<=` its own, in which case the pruning function would
//!     reject it or, were it inserted first, remove it.
//!
//!   The reference loop, the bushy single-objective path and the Pareto
//!   path keep [`PredicateIndex::sort_merge_attributes`]: they are the
//!   oracle and the other arms.
//! * Multi-objective runs (`join_candidates` into a [`ParetoSink`]) ask
//!   each candidate they generate for its vector and offer it to a slot of
//!   their own, since the candidates borrow their operands from the arena:
//!   a [`KeyedSlot`], which keeps three dense columns beside its entries
//!   (time, buffer, order code). Its rejection scan reads only the
//!   columns, four entries a step with one branch, and its compaction
//!   moves the entries and the columns in step, so the scan reads 17 bytes
//!   an entry instead of a 56-byte [`PlanEntry`]. It applies the pruning
//!   function's Pareto rule to the same f64 values, so it keeps the
//!   entries, in the order, that [`PruningPolicy::try_insert`] keeps; an
//!   entry is built only for a candidate that is kept. A left plan's
//!   candidates — every right plan, times every operator — form a group,
//!   and a group whose every output-order class has a floor the slot
//!   already rejects is not generated, only counted. A candidate costs
//!   `(l + r) + app`, and IEEE addition, `max` and multiplication by α ≥ 1
//!   are monotone, so an entry that α-dominates the class's floor
//!   `(l + min r) + min app` α-dominates each of its candidates — none of
//!   which is NaN when the left plan, the right plans and the operator
//!   terms are all finite, the only case checked. The slot's power to
//!   reject never shrinks (an entry leaves only for one that exactly
//!   dominates it and covers its order), so each candidate passed over
//!   would have been rejected in its turn: the slot, the entry order and
//!   `plans_generated` are those of generating them all.
//! * A set's statistics and live orders come from the estimator's
//!   per-query prefix tables and predicate bitsets
//!   ([`CardinalityEstimator::set_stats_inside`],
//!   [`PredicateIndex::interesting_orders`]).
//! * Sets are visited in ascending dense index, which puts every
//!   admissible subset of a set before the set.

use crate::stats::WorkerStats;
use crate::worker::{
    buffer_operands, finish, for_each_pair, for_each_split, join_candidates, join_time, seed_scans,
    stored_time, Candidate, CandidateSink, Operand, PartitionOutcome, Split, SplitEnv,
    SplitScratch,
};
use mpq_cost::operators::JoinApplication;
use mpq_cost::{
    CardinalityEstimator, CostVector, InsidePredicates, JoinOp, Objective, Order, PredicateIndex,
    SetStats, SplitCosts, JOIN_OPS,
};
use mpq_model::{Query, TableSet};
use mpq_partition::{AdmissibleSets, ConstraintSet, PlanSpace};
use mpq_plan::{KeyedSlot, PlanEntry, PruningPolicy};
use std::time::Instant;

/// What is left of the intra-worker thread knob: the paper's model is one
/// sequential dynamic program per node, no recorded run showed threads
/// inside a worker winning, and the arm is gone. The type and its one
/// value stay because `serve_socket_worker`'s callers name them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelPolicy;

impl ParallelPolicy {
    /// Single-threaded: the only policy.
    pub fn serial() -> Self {
        ParallelPolicy
    }
}

/// What the memo holds for one table set.
#[derive(Clone, Copy, Debug)]
struct SetRecord {
    stats: SetStats,
    /// The set's entries are `arena[start..start + len]`.
    start: u32,
    len: u32,
}

/// The record of a set nothing has been written for.
const UNWRITTEN: SetRecord = SetRecord {
    stats: SetStats {
        cardinality: 0.0,
        tuple_bytes: 0.0,
        sort_cost: 0.0,
    },
    start: 0,
    len: 0,
};

/// The memo: one record per admissible set, addressed by the dense
/// admissible-set index, over one contiguous entry array; scans found by
/// table.
pub struct ArenaMemo {
    adm: AdmissibleSets,
    arena: Vec<PlanEntry>,
    records: Vec<SetRecord>,
    /// Per table, the record of its scans. An admissible singleton's
    /// record is also at its dense index, so an operand that happens to be
    /// one table is reached like any other.
    singles: Vec<SetRecord>,
    stored_sets: u64,
}

impl ArenaMemo {
    /// Bytes of a filled memo: one record per admissible set and per
    /// table, plus the entries.
    pub fn footprint_bytes(admissible_sets: usize, tables: usize, entries: u64) -> u64 {
        (admissible_sets + tables) as u64 * std::mem::size_of::<SetRecord>() as u64
            + entries * std::mem::size_of::<PlanEntry>() as u64
    }

    /// Creates an empty arena memo laid out for the partition's admissible
    /// sets. The arena starts with room for one entry per admissible set
    /// and per table, what a fill that stores every set needs at least, so
    /// it is not grown by doubling from empty.
    pub fn new(adm: AdmissibleSets) -> Self {
        let n = adm.num_tables();
        let total = adm.len();
        ArenaMemo {
            adm,
            arena: Vec::with_capacity(total + n),
            records: vec![UNWRITTEN; total],
            singles: vec![UNWRITTEN; n],
            stored_sets: 0,
        }
    }

    /// The admissible-set index this memo is laid out by.
    pub fn admissible(&self) -> &AdmissibleSets {
        &self.adm
    }

    fn operand<'a>(&'a self, set: TableSet, record: &'a SetRecord) -> Operand<'a> {
        Operand {
            set,
            stats: &record.stats,
            entries: &self.arena[record.start as usize..(record.start + record.len) as usize],
        }
    }

    /// The operand `set`, whose dense index the caller carried along.
    #[inline]
    pub(crate) fn operand_at(&self, set: TableSet, idx: usize) -> Operand<'_> {
        self.operand(set, &self.records[idx])
    }

    /// The operand made of single table `t`.
    #[inline]
    pub(crate) fn single_operand(&self, t: usize) -> Operand<'_> {
        self.operand(TableSet::singleton(t), &self.singles[t])
    }

    /// The operand `set`, looked up from its bits. Singleton sets resolve
    /// to the scans; inadmissible or not-yet-written sets have no entries.
    #[inline]
    pub(crate) fn operand_of(&self, set: TableSet) -> Operand<'_> {
        let record = if set.len() == 1 {
            &self.singles[set.min_table().expect("non-empty")]
        } else {
            self.adm
                .index_of(set)
                .map_or(&UNWRITTEN, |idx| &self.records[idx])
        };
        self.operand(set, record)
    }

    /// Plan entries stored for `set`. Singleton sets resolve to the scan
    /// entries; inadmissible or not-yet-written sets resolve to an empty
    /// slice.
    pub fn entries(&self, set: TableSet) -> &[PlanEntry] {
        self.operand_of(set).entries
    }

    /// The operand statistics recorded with `set`'s entries, or `None`
    /// while nothing is stored for it.
    pub fn stats(&self, set: TableSet) -> Option<SetStats> {
        let operand = self.operand_of(set);
        (!operand.entries.is_empty()).then_some(*operand.stats)
    }

    /// Records the entries `build` appends to the arena (given the arena
    /// and the index it starts the slot at) as one slot, with `stats`.
    fn append_with(
        &mut self,
        stats: SetStats,
        build: impl FnOnce(&mut Vec<PlanEntry>, usize),
    ) -> SetRecord {
        let start = self.arena.len();
        build(&mut self.arena, start);
        let len = self
            .arena
            .len()
            .checked_sub(start)
            .expect("a slot is built behind the written ones");
        self.stored_sets += u64::from(len > 0);
        SetRecord {
            stats,
            start: u32::try_from(start).expect("arena entry count fits u32"),
            len: u32::try_from(len).expect("slot length fits u32"),
        }
    }

    /// Writes the scans of table `t` with the table's statistics
    /// (seeding). Like every slot, written once: a second write of a
    /// seeded table is refused (`false`) and changes nothing.
    pub fn push_single(&mut self, t: usize, stats: SetStats, entries: &[PlanEntry]) -> bool {
        if self.singles[t].len > 0 {
            return false;
        }
        let record = self.append_with(stats, |arena, _| arena.extend_from_slice(entries));
        self.singles[t] = record;
        if let Some(idx) = self.adm.index_of(TableSet::singleton(t)) {
            self.records[idx] = record;
        }
        true
    }

    /// Builds the slot of the set at dense index `idx` in place, with the
    /// set's statistics: `build` gets the arena and the index `start` of
    /// its tail, and the slot is `arena[start..]` once it returns. `build`
    /// must leave `arena[..start]`, the written slots, alone. Slots are
    /// write-once, because parents refer to entries by position: the build
    /// of a non-empty slot is refused (`false`) before `build` runs, and
    /// changes nothing.
    pub(crate) fn build_slot(
        &mut self,
        idx: usize,
        stats: SetStats,
        build: impl FnOnce(&mut Vec<PlanEntry>, usize),
    ) -> bool {
        if self.records[idx].len > 0 {
            return false;
        }
        self.records[idx] = self.append_with(stats, build);
        true
    }

    /// Writes the finished slot of the set at dense index `idx`, with the
    /// set's statistics (the in-place build of a copy of `entries`):
    /// a second write of a non-empty slot is refused (`false`) and changes
    /// nothing.
    pub fn push_slot(&mut self, idx: usize, stats: SetStats, entries: &[PlanEntry]) -> bool {
        self.build_slot(idx, stats, |arena, _| arena.extend_from_slice(entries))
    }

    /// [`ArenaMemo::push_slot`] addressed by table set; `false` also for a
    /// set that is inadmissible in this partition (it has no slot).
    pub fn push_slot_of(&mut self, set: TableSet, stats: SetStats, entries: &[PlanEntry]) -> bool {
        match self.adm.index_of(set) {
            Some(idx) => self.push_slot(idx, stats, entries),
            None => false,
        }
    }

    /// Number of table sets (including single tables) with at least one
    /// stored entry — the paper's "Memory (relations)" metric.
    pub fn stored_sets(&self) -> u64 {
        self.stored_sets
    }

    /// Total number of stored entries.
    pub fn total_entries(&self) -> u64 {
        // Every arena entry belongs to exactly one slot (slots are written
        // once, already pruned), so the arena length is the entry total.
        self.arena.len() as u64
    }
}

/// Streaming single-objective reduction of one set's candidates: the
/// running cheapest candidate per interesting-order class, direct-mapped
/// by the order's code — offered one operand-plan pair at a time
/// ([`ClassMinima::offer_pair`]; a left-deep split's pairs with the
/// split's operator terms read once, `offer_left_deep`), compared on
/// time; the rest of a cost vector is evaluated for the winners only.
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
/// over randomized candidate streams. (A NaN time — `0 · ∞` statistics,
/// which the wire decoder and service admission refuse but a direct
/// caller can still pass — is outside the argument: `<` never lets one
/// displace a minimum, and none displaces it, so a class keeps at most the
/// NaN that opened it, where sequential insertion keeps them all. The
/// suite pins that behaviour too, against an eager form of this reducer.)
#[doc(hidden)]
#[derive(Debug)]
pub struct ClassMinima {
    /// By order code.
    best: [ClassBest; ORDER_CODES],
    /// Codes of the occupied classes. Classes are few (the set's
    /// interesting orders, plus unordered).
    occupied: Vec<u8>,
    offered: u64,
}

/// The cheapest candidate of one order class so far: the time it won on
/// and what its entry is built from.
#[derive(Clone, Copy, Debug)]
struct ClassBest {
    /// Its position in the set's candidate stream; `VACANT` while the
    /// class has seen none (a sentinel and not an `Option`: the candidate
    /// loop's one branch per candidate read 5 % slower on Linear 15 with
    /// the `Option`).
    generation: u64,
    /// The left operand of the split it was generated for.
    left: TableSet,
    time: f64,
    /// The operands of its buffer's two `max`es — the operand plans'
    /// buffers and the operator's ([`SplitCosts::buffer`]) — reduced only
    /// if it is still the cheapest when the stream ends: a class's running
    /// minimum changes hands about four times per winner (Linear 15), and
    /// copying three numbers is cheaper than two `max`es.
    buffers: [f64; 3],
    op: JoinOp,
    left_idx: u32,
    right_idx: u32,
}

/// The split costs, left operand and operand plans of one operand-plan
/// pair, as [`ClassMinima::offer_pair`] takes them.
type Pair<'a> = (
    &'a SplitCosts,
    TableSet,
    (u32, &'a PlanEntry),
    (u32, &'a PlanEntry),
);

/// One class per table, plus unordered.
const ORDER_CODES: usize = TableSet::MAX_TABLES + 1;
const VACANT: u64 = u64::MAX;

impl Default for ClassMinima {
    fn default() -> Self {
        let vacant = ClassBest {
            generation: VACANT,
            left: TableSet::EMPTY,
            time: 0.0,
            buffers: [0.0; 3],
            op: JoinOp::NestedLoop,
            left_idx: 0,
            right_idx: 0,
        };
        ClassMinima {
            best: [vacant; ORDER_CODES],
            occupied: Vec::new(),
            offered: 0,
        }
    }
}

impl ClassMinima {
    /// Offers the candidates of one operand-plan pair of a split — its
    /// outer plan `outer` (entry `outer.0` of the left operand `left`'s
    /// slot) joined with `inner` by each operator in `JOIN_OPS` order, on
    /// the split costed by `costs`, for a result whose interesting orders
    /// are `live` — exactly as offering each of them in turn would. Returns
    /// how many candidates that is (2, or 3 where sort-merge applies).
    ///
    /// Nested loop and hash join both output the outer order, so they
    /// compete in one class and only the cheaper of the two is offered
    /// ([`ClassMinima::offer_outer_order`]).
    #[inline]
    pub fn offer_pair(
        &mut self,
        costs: &SplitCosts,
        left: TableSet,
        outer: (u32, &PlanEntry),
        inner: (u32, &PlanEntry),
        live: TableSet,
    ) -> u64 {
        let g = self.offered;
        // Each candidate's time and (labelled) order, as `Candidate::new`
        // has them.
        let (le, re) = (outer.1, inner.1);
        let candidate =
            |op| join_time(costs, op, le, re).map(|(time, order)| (time, order.if_live(live)));
        let [nested_loop, hash, sort_merge] = JOIN_OPS;
        let always = "nested-loop and hash joins always apply";
        let (nested_loop_time, outer_order) = candidate(nested_loop).expect(always);
        let (hash_time, _) = candidate(hash).expect(always);
        let pair = (costs, left, outer, inner);
        self.offer_outer_order(pair, g, outer_order, nested_loop_time, hash_time);
        let generated = match candidate(sort_merge) {
            Some((time, order)) => {
                self.offer(pair, g + 2, sort_merge, time, order);
                3
            }
            None => 2,
        };
        self.offered += generated;
        generated
    }

    /// Offers every operand-plan pair of `split` ([`ClassMinima::offer_pair`])
    /// and returns how many candidates they make.
    #[inline]
    pub(crate) fn offer_split(
        &mut self,
        predicates: &PredicateIndex,
        split: &Split<'_>,
        live: TableSet,
    ) -> u64 {
        let mut generated = 0;
        for_each_pair(predicates, split, |costs, outer, inner| {
            generated += self.offer_pair(costs, split.left.set, outer, inner, live);
        });
        generated
    }

    /// Offers every operand-plan pair of the left-deep `split`, whose
    /// sort-merge join sorts on `attributes`
    /// ([`PredicateIndex::last_join_attributes`]), exactly as
    /// [`ClassMinima::offer_split`] would, and returns how many candidates
    /// they make. The inner operand is a table's one scan, so what an
    /// operator adds to a candidate's time depends on the split and on
    /// whether the outer plan is sorted on the operator's outer attribute
    /// alone, and is read from [`SplitCosts::time`] once per split: nested
    /// loop and hash join once, sort-merge once for an outer plan so sorted
    /// and once for one that is not, its output labelled once. An outer
    /// plan then costs `l + r` once, plus each operator's term — the
    /// `(l + r) + app` of [`Candidate::new`]. A winner's buffer operands
    /// are read from the split's costs when it takes its class's lead, as
    /// [`ClassMinima::offer_pair`] reads them.
    #[inline]
    pub(crate) fn offer_left_deep(
        &mut self,
        predicates: &PredicateIndex,
        attributes: Option<(u8, u8)>,
        split: &Split<'_>,
        live: TableSet,
    ) -> u64 {
        let Split { left, right } = split;
        let costs = SplitCosts::with_attributes(attributes, left.stats, right.stats);
        let [nested_loop, hash, sort_merge] = JOIN_OPS;
        let always = "a split's terms are read only for operators that apply";
        let unsorted = Order::None;
        let app = |op, outer, inner| costs.time(op, outer, inner).expect(always).0;
        let nested_loop_app = app(nested_loop, unsorted, unsorted);
        let hash_app = app(hash, unsorted, unsorted);
        let [inner] = right.entries else {
            return self.offer_split_cold(predicates, split, live);
        };
        let inner = (0, inner);
        let sort_merge_apps = costs.sort_merge_orders().map(|(want_left, _)| {
            let apps = [
                app(sort_merge, unsorted, inner.1.order),
                app(sort_merge, want_left, inner.1.order),
            ];
            (want_left, want_left.if_live(live), apps)
        });
        let operators = costs.operators();
        for outer in (0..).zip(left.entries) {
            let outer_order = outer.1.order.if_live(live);
            let g = self.offered;
            let pair = (&costs, left.set, outer, inner);
            let operands = outer.1.cost.time + inner.1.cost.time;
            self.offer_outer_order(
                pair,
                g,
                outer_order,
                operands + nested_loop_app,
                operands + hash_app,
            );
            if let Some((want_left, order, apps)) = sort_merge_apps {
                let app = apps[usize::from(outer.1.order == want_left)];
                self.offer(pair, g + 2, sort_merge, operands + app, order);
            }
            self.offered += operators;
        }
        left.entries.len() as u64 * operators
    }

    /// [`ClassMinima::offer_split`], for a left-deep split whose inner
    /// operand is not one plan — which `fill`, seeding one scan per table,
    /// never makes. Out of line: inlined into the left-deep arm, the pair
    /// loop slowed the bushy one.
    #[cold]
    #[inline(never)]
    fn offer_split_cold(
        &mut self,
        predicates: &PredicateIndex,
        split: &Split<'_>,
        live: TableSet,
    ) -> u64 {
        self.offer_split(predicates, split, live)
    }

    /// Offers the nested loop and the hash join of `pair`, numbers `g` and
    /// `g + 1` of the stream, which share the outer plan's (labelled) order
    /// `outer_order`: only the cheaper of the two, a strictly cheaper hash
    /// join with its own generation number, nested loop otherwise (the
    /// earlier candidate wins a tie). A NaN nested-loop time is the
    /// exception, and both are offered in turn: the NaN can open a class
    /// that the hash join then cannot displace.
    #[inline(always)]
    fn offer_outer_order(
        &mut self,
        pair: Pair<'_>,
        g: u64,
        outer_order: Order,
        nested_loop_time: f64,
        hash_time: f64,
    ) {
        let [nested_loop, hash, _] = JOIN_OPS;
        if nested_loop_time.is_nan() {
            self.offer(pair, g, nested_loop, nested_loop_time, outer_order);
            self.offer(pair, g + 1, hash, hash_time, outer_order);
        } else if hash_time < nested_loop_time {
            self.offer(pair, g + 1, hash, hash_time, outer_order);
        } else {
            self.offer(pair, g, nested_loop, nested_loop_time, outer_order);
        }
    }

    /// Offers the `op` candidate of `pair` ([`ClassMinima::offer_pair`]'s
    /// arguments), number `generation` of the stream, of `time` and
    /// (labelled) `order`: it opens its class, or takes it with a strictly
    /// lower time.
    #[inline(always)]
    fn offer(
        &mut self,
        (costs, left, (left_idx, le), (right_idx, re)): Pair<'_>,
        generation: u64,
        op: JoinOp,
        time: f64,
        order: Order,
    ) {
        let code = order.to_code();
        let class = &mut self.best[code as usize];
        let vacant = class.generation == VACANT;
        if vacant {
            self.occupied.push(code);
        }
        if vacant || time < class.time {
            *class = ClassBest {
                generation,
                left,
                time,
                buffers: buffer_operands(costs, op, le, re),
                op,
                left_idx,
                right_idx,
            };
        }
    }

    /// Costs the winners in full (times as stored), builds their entries
    /// for result set `set` and writes the slot `entries[start..]` — empty
    /// until now — in generation order, exactly as inserting them through
    /// the single-objective pruning function in that order would; resets
    /// for the next set.
    ///
    /// The winners hold one order class each. An ordered winner is kept:
    /// only an entry of its own order could reject it, and no other winner
    /// has that order. The unordered winner is rejected by — or, inserted
    /// first, removed by — any winner whose time is at most its own
    /// (every order covers `None`), and removes no other winner (`None`
    /// covers no order but itself): it is kept unless some other winner's
    /// time is `<=` its own, which a NaN on either side never is.
    pub fn insert_winners(&mut self, set: TableSet, entries: &mut Vec<PlanEntry>, start: usize) {
        debug_assert_eq!(entries.len(), start, "the slot is empty");
        let best = &mut self.best;
        let unordered = Order::None.to_code();
        let unordered_time = best[unordered as usize].time;
        let unordered_kept = !self
            .occupied
            .iter()
            .any(|&code| code != unordered && best[code as usize].time <= unordered_time);
        self.occupied
            .sort_unstable_by_key(|&code| best[code as usize].generation);
        for code in self.occupied.drain(..) {
            let winner = best[code as usize];
            best[code as usize].generation = VACANT;
            if code == unordered && !unordered_kept {
                continue;
            }
            let [l, r, app] = winner.buffers;
            entries.push(PlanEntry::join(
                winner.op,
                winner.left,
                winner.left_idx,
                set.difference(winner.left),
                winner.right_idx,
                CostVector::new(stored_time(winner.time), l.max(r).max(app)),
                Order::from_code(code),
            ));
        }
        self.offered = 0;
    }
}

/// The Pareto kernel's sink for one split: each candidate it takes is
/// offered to the slot under construction ([`KeyedSlot::offer`]), and a
/// left plan `l`'s group of candidates — every right plan, times every
/// operator — is declined when the slot already rejects
/// ([`KeyedSlot::rejects`]) the floor of each of the group's output-order
/// classes: `(l + min r) + min app`, the minima taken component-wise over
/// the right plans and over the class's operators
/// ([`mpq_cost::SplitCosts::floor`]). The module docs say why
/// the slot is then the one generating the group would leave. A group is
/// checked only where the left plan, every right plan and every operator
/// term are finite, so that no candidate is NaN, and where the right
/// operand holds two or more plans: with one (always, in a left-deep
/// space) the check costs as much as the two or three candidates it could
/// spare.
#[doc(hidden)]
pub struct ParetoSink<'s> {
    slot: &'s mut KeyedSlot,
    /// The split's left and right operand, for the entries built.
    operands: (TableSet, TableSet),
    live: TableSet,
    /// The component-wise minimum of the right plans' costs, where groups
    /// are checked.
    right_floor: Option<CostVector>,
}

impl<'s> ParetoSink<'s> {
    /// The sink of the split `operands` whose right operand holds the plans
    /// `rights`, for a result whose interesting orders are `live`, into
    /// `slot`.
    pub fn new(
        slot: &'s mut KeyedSlot,
        operands: (TableSet, TableSet),
        rights: &[PlanEntry],
        live: TableSet,
    ) -> Self {
        let right_floor = if rights.len() < 2 {
            None
        } else {
            let unbounded = CostVector::new(f64::INFINITY, f64::INFINITY);
            rights.iter().try_fold(unbounded, |floor, r| {
                finite(&r.cost).then(|| {
                    CostVector::new(floor.time.min(r.cost.time), floor.buffer.min(r.cost.buffer))
                })
            })
        };
        ParetoSink {
            slot,
            operands,
            live,
            right_floor,
        }
    }
}

fn finite(cost: &CostVector) -> bool {
    cost.time.is_finite() && cost.buffer.is_finite()
}

impl CandidateSink for ParetoSink<'_> {
    #[inline]
    fn wants_group(&self, costs: &SplitCosts, outer: &PlanEntry) -> bool {
        let Some(right) = self.right_floor else {
            return true;
        };
        if self.slot.is_empty() || !finite(&outer.cost) {
            return true;
        }
        let Some(floor) = costs.floor(outer.order) else {
            return true;
        };
        let operands = outer.cost.add(&right);
        let rejected = |app: JoinApplication| {
            let order = app.output_order.if_live(self.live);
            self.slot.rejects(&operands.add(&app.cost), order)
        };
        !(rejected(floor.outer_order) && floor.sort_merge.is_none_or(rejected))
    }

    #[inline(always)]
    fn take(&mut self, c: Candidate<'_>) {
        let cost = c.cost();
        let (left, right) = self.operands;
        self.slot
            .offer(cost, c.order, || c.entry_costing(cost, left, right));
    }
}

/// Optimizes the partition described by `constraints` with the streaming
/// kernel. Bit-identical to the reference loop (see the module docs for
/// why).
pub fn optimize_partition(
    query: &Query,
    space: PlanSpace,
    objective: Objective,
    constraints: &ConstraintSet,
) -> PartitionOutcome {
    #[expect(
        clippy::disallowed_methods,
        reason = "measurement, not scheduling evidence: optimize_micros is a reported metric; level scheduling is structural (cardinality), never timed"
    )]
    let start = Instant::now();
    let n = query.num_tables();
    assert!(n >= 1, "query must join at least one table");
    let pruning = PruningPolicy::new(objective, n);
    let (memo, stats) = fill(query, space, &pruning, constraints);
    finish(&memo, &pruning, stats, start)
}

/// The kernel proper: the memo of the partition, filled, and the work it
/// took.
pub(crate) fn fill(
    query: &Query,
    space: PlanSpace,
    pruning: &PruningPolicy,
    constraints: &ConstraintSet,
) -> (ArenaMemo, WorkerStats) {
    let est = CardinalityEstimator::new(query);
    let mut memo = ArenaMemo::new(AdmissibleSets::new(constraints));
    let mut stats = WorkerStats::default();
    seed_scans(&mut memo, &est, pruning);

    let predicates = est.predicates();
    let mut scratch = SplitScratch::default();
    let mut inside = InsidePredicates::default();
    let mut minima = ClassMinima::default();
    let mut slot = KeyedSlot::new(pruning);
    for (idx, set) in memo.admissible().iter().enumerate() {
        if set.len() < 2 {
            continue;
        }
        let env = SplitEnv {
            space,
            constraints,
            adm: memo.admissible(),
        };
        predicates.inside(set, &mut inside);
        let set_stats = est.set_stats_inside(set, &inside);
        let live = predicates.interesting_orders(set);
        match (pruning.objective(), space) {
            (Objective::Single, PlanSpace::Linear) => {
                for_each_split(&env, set, idx, &memo, &mut scratch, |split| {
                    stats.splits_tried += 1;
                    let u = split.right.set.bits().trailing_zeros() as usize;
                    let attributes = predicates.last_join_attributes(&inside, u);
                    stats.plans_generated +=
                        minima.offer_left_deep(predicates, attributes, &split, live);
                });
                // The winners go straight into the arena's tail.
                memo.build_slot(idx, set_stats, |arena, start| {
                    minima.insert_winners(set, arena, start)
                });
            }
            (Objective::Single, PlanSpace::Bushy) => {
                for_each_split(&env, set, idx, &memo, &mut scratch, |split| {
                    stats.splits_tried += 1;
                    stats.plans_generated += minima.offer_split(predicates, &split, live);
                });
                memo.build_slot(idx, set_stats, |arena, start| {
                    minima.insert_winners(set, arena, start)
                });
            }
            // Pareto pruning has no single-number reduction: every
            // candidate generated meets the keyed slot built so far, which
            // is a slot of its own because the candidates borrow their
            // operands from the arena; it is copied in, its times as
            // stored, when the set is done.
            (Objective::Multi { .. }, _) => {
                for_each_split(&env, set, idx, &memo, &mut scratch, |split| {
                    stats.splits_tried += 1;
                    let operands = (split.left.set, split.right.set);
                    let sink = ParetoSink::new(&mut slot, operands, split.right.entries, live);
                    stats.plans_generated += join_candidates(predicates, &split, live, sink);
                });
                memo.build_slot(idx, set_stats, |arena, _| {
                    arena.extend(slot.entries().iter().map(|&entry| PlanEntry {
                        cost: CostVector::new(stored_time(entry.cost.time), entry.cost.buffer),
                        ..entry
                    }))
                });
                slot.clear();
            }
        }
    }
    (memo, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{optimize_partition_reference, optimize_serial, Candidate, Operand};
    use mpq_cost::ScanOp;
    use mpq_model::{WorkloadConfig, WorkloadGenerator};
    use mpq_partition::{partition_constraints, Grouping};
    use mpq_plan::PlanNode;

    fn query(n: usize, seed: u64) -> Query {
        WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).next_query()
    }

    /// The costs of a split of two empty operands and no predicate between
    /// them: nested loop and hash join are free (and tie), sort-merge does
    /// not apply, so an operand-plan pair offers one candidate that costs
    /// what its operand plans do.
    fn free_split() -> SplitCosts {
        let mut q = query(2, 1);
        q.predicates.clear();
        let empty = UNWRITTEN.stats;
        let (left, right) = (TableSet::singleton(0), TableSet::singleton(1));
        let est = CardinalityEstimator::new(&q);
        SplitCosts::from_stats(est.predicates(), left, &empty, right, &empty)
    }

    /// An operand plan of the given time and order.
    fn plan(time: f64, order: Order) -> PlanEntry {
        PlanEntry {
            order,
            ..entry(time)
        }
    }

    /// A free inner plan.
    const FREE: PlanEntry = PlanEntry {
        cost: CostVector::ZERO,
        order: Order::None,
        node: PlanNode::Scan {
            table: 1,
            op: ScanOp::Full,
        },
    };

    /// Offers `left` (entry `left_idx` of the slot of the left operand
    /// `left_set`) joined with a free inner plan, every order live.
    fn offer(
        minima: &mut ClassMinima,
        costs: &SplitCosts,
        left_set: TableSet,
        left: &PlanEntry,
        left_idx: u32,
    ) -> u64 {
        let every_order = TableSet::full(TableSet::MAX_TABLES);
        minima.offer_pair(costs, left_set, (left_idx, left), (0, &FREE), every_order)
    }

    /// The `op` join of `left` (entry `left_idx` of its slot) with the free
    /// inner plan: on [`free_split`], a candidate of `left`'s time and
    /// order.
    fn candidate<'a>(
        costs: &'a SplitCosts,
        op: JoinOp,
        left: &'a PlanEntry,
        left_idx: u32,
    ) -> Candidate<'a> {
        let every_order = TableSet::full(TableSet::MAX_TABLES);
        Candidate::new(costs, op, (left_idx, left), (0, &FREE), every_order)
            .expect("nested-loop and hash joins always apply")
    }

    /// Inserts the reducer's winners for the set of tables 0 and 1 into a
    /// slot of its own.
    fn winners(minima: &mut ClassMinima) -> Vec<PlanEntry> {
        let mut slot = Vec::new();
        minima.insert_winners(TableSet::full(2), &mut slot, 0);
        slot
    }

    /// Streams `(time, order)` candidates through the reducer and returns
    /// the resulting slot as `(time, order)` pairs.
    fn reduce(minima: &mut ClassMinima, cands: &[(f64, Order)]) -> Vec<(f64, Order)> {
        let costs = free_split();
        for &(time, order) in cands {
            let left = plan(time, order);
            assert_eq!(offer(minima, &costs, TableSet::singleton(0), &left, 0), 2);
        }
        let slot = winners(minima);
        slot.iter().map(|e| (e.cost.time, e.order)).collect()
    }

    #[test]
    fn winners_are_per_order_minima_in_generation_order() {
        let slot = reduce(
            &mut ClassMinima::default(),
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
        let mut minima = ClassMinima::default();
        let (costs, tied) = (free_split(), plan(2.0, Order::None));
        for (left, left_idx) in [(1, 7), (0, 9)] {
            offer(
                &mut minima,
                &costs,
                TableSet::singleton(left),
                &tied,
                left_idx,
            );
        }
        let slot = winners(&mut minima);
        // The survivor is the first candidate — the nested loop of the
        // first pair, which ties its hash join — built for its own split.
        let first = candidate(&costs, JoinOp::NestedLoop, &tied, 7);
        assert_eq!(
            slot,
            [first.entry(TableSet::singleton(1), TableSet::singleton(0))]
        );
        assert!(matches!(slot[0].node, PlanNode::Join { left_idx: 7, .. }));
    }

    /// Of one pair's nested loop and hash join, the hash join is offered
    /// only when strictly cheaper, and then with its own generation: it
    /// ranks behind a class the pair's nested loop would have opened.
    #[test]
    fn a_pair_offers_the_strictly_cheaper_of_nested_loop_and_hash() {
        let q = query(2, 1);
        let est = CardinalityEstimator::new(&q);
        let split = |lc: f64, rc: f64| {
            // Sorts so dear that sort-merge never prunes the others.
            let [l, r] = [lc, rc].map(|cardinality| SetStats {
                cardinality,
                tuple_bytes: 1.0,
                sort_cost: 1e9,
            });
            let (left, right) = (TableSet::singleton(0), TableSet::singleton(1));
            SplitCosts::from_stats(est.predicates(), left, &l, right, &r)
        };
        let left = plan(0.0, Order::None);
        // Nested loop lc·rc against hash 2·rc + lc: 100 > 30, 9 = 9, 1 < 3.
        for (lc, rc, op) in [
            (10.0, 10.0, JoinOp::Hash),
            (3.0, 3.0, JoinOp::NestedLoop),
            (1.0, 1.0, JoinOp::NestedLoop),
        ] {
            let mut minima = ClassMinima::default();
            let costs = split(lc, rc);
            // Sort-merge applies too: three candidates, two classes.
            assert_eq!(
                offer(&mut minima, &costs, TableSet::singleton(0), &left, 0),
                3
            );
            let slot = winners(&mut minima);
            let unordered = slot.iter().find(|e| e.order == Order::None).unwrap();
            assert!(
                matches!(unordered.node, PlanNode::Join { op: o, .. } if o == op),
                "{lc} × {rc}: {unordered:?}"
            );
            let expected = candidate(&costs, op, &left, 0);
            assert_eq!(unordered.cost, expected.cost(), "{lc} × {rc}");
        }
    }

    /// A NaN nested-loop time is offered with its pair's hash join, in
    /// turn, as in the stream: the NaN opens a vacant class, which the hash
    /// join then cannot displace; behind an open class it is passed over,
    /// and the hash join competes. Operand cardinalities −∞ × 0 cost the
    /// nested loop at NaN and the hash join at −∞.
    #[test]
    fn a_nan_nested_loop_is_offered_with_its_hash_join() {
        let mut q = query(2, 1);
        q.predicates.clear();
        let est = CardinalityEstimator::new(&q);
        let [l, r] = [f64::NEG_INFINITY, 0.0].map(|cardinality| SetStats {
            cardinality,
            tuple_bytes: 0.0,
            sort_cost: 0.0,
        });
        let (left, right) = (TableSet::singleton(0), TableSet::singleton(1));
        let nan_pair = SplitCosts::from_stats(est.predicates(), left, &l, right, &r);
        let unsorted = plan(1.0, Order::None);

        let mut minima = ClassMinima::default();
        offer(&mut minima, &nan_pair, left, &unsorted, 0);
        let slot = winners(&mut minima);
        assert!(slot.len() == 1 && slot[0].cost.time.is_nan(), "{slot:?}");
        assert!(matches!(
            slot[0].node,
            PlanNode::Join {
                op: JoinOp::NestedLoop,
                ..
            }
        ));

        offer(&mut minima, &free_split(), left, &plan(5.0, Order::None), 0);
        offer(&mut minima, &nan_pair, left, &unsorted, 1);
        let slot = winners(&mut minima);
        assert_eq!(slot.len(), 1);
        assert_eq!(slot[0].cost.time, f64::NEG_INFINITY);
        assert!(matches!(
            slot[0].node,
            PlanNode::Join {
                op: JoinOp::Hash,
                left_idx: 1,
                ..
            }
        ));
    }

    /// The winner's buffer is `(left ∨ right) ∨ app` of the candidate that
    /// won on time, not of a later loser of its class.
    #[test]
    fn a_winner_keeps_its_own_buffer() {
        let mut minima = ClassMinima::default();
        let costs = free_split();
        let plans = [(1.0, 8.0), (3.0, 64.0), (1.0, 2.0)].map(|(time, buffer)| PlanEntry {
            cost: CostVector::new(time, buffer),
            ..plan(time, Order::None)
        });
        for (idx, left) in plans.iter().enumerate() {
            offer(
                &mut minima,
                &costs,
                TableSet::singleton(0),
                left,
                idx as u32,
            );
        }
        let slot = winners(&mut minima);
        let first = candidate(&costs, JoinOp::NestedLoop, &plans[0], 0);
        assert_eq!(
            slot,
            [first.entry(TableSet::singleton(0), TableSet::singleton(1))]
        );
        assert_eq!(slot[0].cost, CostVector::new(1.0, 8.0));
    }

    /// The winners written directly, as `(time, order)`, against inserting
    /// the same winners in generation order through the single-objective
    /// pruning function, bit for bit.
    fn reduce_as_pruning_would(cands: &[(f64, Order)]) -> Vec<(f64, Order)> {
        let slot = reduce(&mut ClassMinima::default(), cands);
        let pruning = PruningPolicy::new(Objective::Single, 4);
        let mut inserted = Vec::new();
        for &(time, order) in &slot {
            pruning.try_insert(&mut inserted, plan(time, order));
        }
        let bits = |slot: &[(f64, Order)]| -> Vec<(u64, Order)> {
            slot.iter()
                .map(|&(time, order)| (time.to_bits(), order))
                .collect()
        };
        let pruned: Vec<(f64, Order)> = inserted.iter().map(|e| (e.cost.time, e.order)).collect();
        assert_eq!(bits(&slot), bits(&pruned), "{cands:?}");
        slot
    }

    /// An ordered winner is always kept; the unordered one only while no
    /// other winner is at most as dear — whichever was generated first.
    #[test]
    fn the_unordered_winner_yields_to_an_ordered_one_at_most_as_dear() {
        let (none, sorted) = (Order::None, Order::OnAttribute(1));
        for unordered in [2.0, 3.0] {
            for cands in [
                [(unordered, none), (2.0, sorted)],
                [(2.0, sorted), (unordered, none)],
            ] {
                assert_eq!(
                    reduce_as_pruning_would(&cands),
                    [(2.0, sorted)],
                    "{cands:?}"
                );
            }
        }
        // Cheaper than every ordered winner: kept, in generation order.
        let cands = [(3.0, Order::OnAttribute(2)), (1.0, none), (2.0, sorted)];
        assert_eq!(reduce_as_pruning_would(&cands), cands);
        // Two ordered winners never touch each other.
        let cands = [(5.0, Order::OnAttribute(2)), (1.0, sorted)];
        assert_eq!(reduce_as_pruning_would(&cands), cands);
    }

    /// A NaN time compares false both ways: a NaN unordered winner is kept
    /// beside an ordered one, and a NaN ordered winner keeps the unordered
    /// one, in both generation orders; each stored as the one NaN.
    #[test]
    fn a_nan_winner_neither_yields_nor_displaces() {
        let (none, sorted, nan) = (Order::None, Order::OnAttribute(1), f64::NAN);
        for cands in [
            [(nan, none), (2.0, sorted)],
            [(2.0, sorted), (nan, none)],
            [(2.0, none), (nan, sorted)],
            [(nan, sorted), (2.0, none)],
            [(nan, sorted), (nan, none)],
        ] {
            let slot = reduce_as_pruning_would(&cands);
            assert_eq!(slot.len(), 2, "{cands:?}");
            for ((time, order), (expected_time, expected_order)) in slot.into_iter().zip(cands) {
                assert_eq!(order, expected_order);
                let stored = if expected_time.is_nan() {
                    f64::NAN
                } else {
                    expected_time
                };
                assert_eq!(time.to_bits(), stored.to_bits(), "{cands:?}");
            }
        }
    }

    /// The left-deep loop, with each split's operator terms read once,
    /// leaves the slot and the count of the general pair loop, bit for bit:
    /// made-up operands (times, buffers and orders from small grids, so that
    /// candidates tie and sort-merge finds its outer plans sorted and not)
    /// on every left-deep split of a six-table clique's sets, and inner
    /// operands of one scan and of two plans.
    #[test]
    fn the_left_deep_loop_offers_what_the_pair_loop_offers() {
        let q = WorkloadGenerator::new(
            WorkloadConfig::with_graph(6, mpq_model::JoinGraph::Clique),
            5,
        )
        .next_query();
        let est = CardinalityEstimator::new(&q);
        let predicates = est.predicates();
        let mut inside = InsidePredicates::default();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut pick = |grid: &[f64]| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            grid[(state % grid.len() as u64) as usize]
        };
        let (mut left_deep, mut pairs) = (ClassMinima::default(), ClassMinima::default());
        let mut compared = 0;
        for bits in 1..1u64 << 6 {
            let set = TableSet(bits);
            predicates.inside(set, &mut inside);
            for u in set.iter().filter(|_| set.len() >= 2) {
                let plans = |count: usize, pick: &mut dyn FnMut(&[f64]) -> f64| -> Vec<PlanEntry> {
                    (0..count)
                        .map(|_| PlanEntry {
                            cost: CostVector::new(pick(&[0.0, 1.0, 2.0]), pick(&[0.0, 1.0])),
                            order: match pick(&[0.0, 1.0, 2.0, 3.0]) as u8 {
                                0 => Order::None,
                                t => Order::OnAttribute(set.min_table().unwrap() as u8 + t - 1),
                            },
                            ..entry(0.0)
                        })
                        .collect()
                };
                let lefts = plans(1 + pick(&[0.0, 1.0, 2.0]) as usize, &mut pick);
                let rights = plans(1 + pick(&[0.0, 0.0, 1.0]) as usize, &mut pick);
                let [left_stats, right_stats] = [0, 1].map(|_| SetStats {
                    cardinality: pick(&[2.0, 3.0, 4.0]),
                    tuple_bytes: pick(&[1.0, 2.0]),
                    sort_cost: pick(&[0.0, 1.0, 2.0]),
                });
                let split = Split {
                    left: Operand {
                        set: set.remove(u),
                        stats: &left_stats,
                        entries: &lefts,
                    },
                    right: Operand {
                        set: TableSet::singleton(u),
                        stats: &right_stats,
                        entries: &rights,
                    },
                };
                let live = predicates.interesting_orders(set);
                let attributes = predicates.last_join_attributes(&inside, u);
                let generated = left_deep.offer_left_deep(predicates, attributes, &split, live);
                assert_eq!(generated, pairs.offer_split(predicates, &split, live));
                let [a, b] = [&mut left_deep, &mut pairs].map(|minima| {
                    let mut slot = Vec::new();
                    minima.insert_winners(set, &mut slot, 0);
                    slot.iter()
                        .map(|e| {
                            (
                                [e.cost.time, e.cost.buffer].map(f64::to_bits),
                                e.order,
                                e.node,
                            )
                        })
                        .collect::<Vec<_>>()
                });
                assert_eq!(a, b, "{set} without {u}");
                compared += 1;
            }
        }
        assert_eq!(compared, 6 * (1 << 5) - 6);
    }

    #[test]
    fn inserting_winners_resets_the_reducer() {
        let mut minima = ClassMinima::default();
        assert_eq!(reduce(&mut minima, &[(1.0, Order::None)]).len(), 1);
        // A cheaper class minimum of the previous set must not leak.
        assert_eq!(
            reduce(&mut minima, &[(9.0, Order::None)]),
            vec![(9.0, Order::None)]
        );
        assert!(reduce(&mut minima, &[]).is_empty());
    }

    #[test]
    fn a_class_opens_with_its_first_candidate_whatever_it_costs() {
        // Nothing is cheaper than the first candidate of a class, even an
        // infinitely expensive one: it must reach the pruning function.
        let inf = f64::INFINITY;
        assert_eq!(
            reduce(
                &mut ClassMinima::default(),
                &[(inf, Order::None), (inf, Order::None)]
            ),
            vec![(inf, Order::None)]
        );
        assert_eq!(
            reduce(
                &mut ClassMinima::default(),
                &[
                    (inf, Order::OnAttribute(63)),
                    (-inf, Order::OnAttribute(63))
                ]
            ),
            vec![(-inf, Order::OnAttribute(63))]
        );
    }

    fn entry(time: f64) -> PlanEntry {
        PlanEntry::scan(0, ScanOp::Full, CostVector::new(time, 0.0))
    }

    fn stats(cardinality: f64) -> SetStats {
        SetStats {
            cardinality,
            tuple_bytes: 8.0,
            sort_cost: 0.0,
        }
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
        assert!(memo.push_slot(idx, stats(7.0), &[entry(5.0), entry(6.0)]));
        // Written by index, read back by set.
        assert_eq!(memo.entries(set), [entry(5.0), entry(6.0)]);
        assert_eq!(memo.stats(set), Some(stats(7.0)));
        assert_eq!((memo.stored_sets(), memo.total_entries()), (1, 2));
        // Parents refer to entries by position: a rewrite is refused, by
        // index and by set, and changes nothing.
        assert!(!memo.push_slot(idx, stats(1.0), &[entry(1.0)]));
        assert!(!memo.push_slot_of(set, stats(1.0), &[entry(1.0)]));
        assert_eq!(memo.entries(set), [entry(5.0), entry(6.0)]);
        assert_eq!(memo.stats(set), Some(stats(7.0)));
        assert_eq!((memo.stored_sets(), memo.total_entries()), (1, 2));
    }

    /// The kernel's in-place path holds the same contract: a second build
    /// of a written slot index is refused before it runs, and leaves the
    /// arena, the slot and the counters as they were.
    #[test]
    fn build_slot_is_write_once() {
        let mut memo = memo(6, 1, 4);
        let set = TableSet::from_tables([0, 1, 4]);
        let idx = memo.admissible().index_of(set).unwrap();
        assert!(memo.push_single(2, stats(3.0), &[entry(4.0)]));
        let built = memo.build_slot(idx, stats(7.0), |arena, start| {
            assert_eq!(start, 1, "the slot starts behind the scans");
            arena.extend([entry(5.0), entry(6.0)]);
        });
        assert!(built);
        assert_eq!(memo.entries(set), [entry(5.0), entry(6.0)]);
        assert_eq!(memo.stats(set), Some(stats(7.0)));
        let counts =
            |memo: &ArenaMemo| (memo.arena.len(), memo.stored_sets(), memo.total_entries());
        assert_eq!(counts(&memo), (3, 2, 3));
        let rebuilt = memo.build_slot(idx, stats(1.0), |arena, _| {
            arena.push(entry(1.0));
            panic!("a refused build must not run");
        });
        assert!(!rebuilt);
        assert!(!memo.push_slot(idx, stats(1.0), &[entry(1.0)]));
        assert_eq!(memo.entries(set), [entry(5.0), entry(6.0)]);
        assert_eq!(memo.stats(set), Some(stats(7.0)));
        assert_eq!(counts(&memo), (3, 2, 3));
    }

    #[test]
    fn inadmissible_set_has_no_slot() {
        let mut memo = memo(4, 0, 2); // Q0 ≺ Q1
        let set = TableSet::from_tables([1, 2]);
        assert!(!memo.push_slot_of(set, stats(1.0), &[entry(3.0)]));
        assert!(memo.entries(set).is_empty());
        assert_eq!(memo.stats(set), None);
        assert_eq!((memo.stored_sets(), memo.total_entries()), (0, 0));
    }

    #[test]
    fn unwritten_admissible_set_is_empty() {
        let mut memo = memo(4, 0, 2);
        let (written, unwritten) = (TableSet::from_tables([0, 1]), TableSet::from_tables([0, 3]));
        assert!(memo.push_slot_of(written, stats(1.0), &[entry(7.0)]));
        assert!(memo.admissible().is_admissible(unwritten));
        assert!(memo.entries(unwritten).is_empty());
        assert_eq!(memo.stats(unwritten), None);
    }

    #[test]
    fn singles_are_separate_from_the_admissible_index() {
        let mut memo = memo(4, 0, 2);
        assert!(memo.push_single(2, stats(20.0), &[entry(1.0)]));
        assert_eq!(memo.entries(TableSet::singleton(2)).len(), 1);
        // An admissible singleton is also an operand like any other set:
        // the same record sits at its dense index.
        let idx = memo.admissible().index_of(TableSet::singleton(2)).unwrap();
        let operand = memo.operand_at(TableSet::singleton(2), idx);
        assert_eq!(
            (*operand.stats, operand.entries),
            (stats(20.0), &[entry(1.0)][..])
        );
        // Table 1 is inadmissible as a set under Q0 ≺ Q1, but its scan is
        // still reachable via the singles path.
        assert!(!memo.admissible().is_admissible(TableSet::singleton(1)));
        assert!(memo.push_single(1, stats(10.0), &[entry(2.0)]));
        assert_eq!(memo.entries(TableSet::singleton(1)).len(), 1);
        assert_eq!(memo.stats(TableSet::singleton(1)), Some(stats(10.0)));
        // Scans are written once too, and counted once.
        assert!(!memo.push_single(1, stats(11.0), &[entry(3.0)]));
        assert_eq!(memo.entries(TableSet::singleton(1)), [entry(2.0)]);
        assert_eq!((memo.stored_sets(), memo.total_entries()), (2, 2));
    }

    /// The record written with every stored set is the estimator's own
    /// one-shot answer for that set, bit for bit — whichever traversal
    /// filled the memo.
    #[test]
    fn memo_records_equal_the_estimators_one_shot_answers() {
        for (n, space, id, m) in [
            (7, PlanSpace::Linear, 5, 8),
            (8, PlanSpace::Linear, 0, 1),
            (7, PlanSpace::Bushy, 1, 4),
        ] {
            let q = query(n, 90 + n as u64);
            let est = CardinalityEstimator::new(&q);
            let cs = partition_constraints(n, space, id, m);
            let adm = AdmissibleSets::new(&cs);
            let mut memo = ArenaMemo::new(adm.clone());
            let policy = PruningPolicy::new(Objective::Single, n);
            seed_scans(&mut memo, &est, &policy);
            let mut stats = WorkerStats::default();
            let mut slot = Vec::new();
            for (idx, set) in adm.iter().enumerate().filter(|(_, set)| set.len() >= 2) {
                crate::worker::compute_entries_for_set(
                    &cs,
                    set,
                    &memo,
                    est.predicates(),
                    &policy,
                    &mut slot,
                    &mut stats,
                );
                memo.push_slot(idx, est.set_stats(set), &slot);
            }
            let singles = (0..n).map(TableSet::singleton);
            let mut stored = 0;
            for set in adm.iter().filter(|set| set.len() >= 2).chain(singles) {
                let Some(record) = memo.stats(set) else {
                    continue;
                };
                stored += 1;
                let card = est.cardinality(set);
                assert_eq!(record.cardinality.to_bits(), card.to_bits(), "{set}");
                assert_eq!(
                    record.tuple_bytes.to_bits(),
                    est.tuple_bytes(set).to_bits(),
                    "{set}"
                );
                assert_eq!(
                    record.sort_cost.to_bits(),
                    (card * card.max(2.0).log2()).to_bits(),
                    "{set}"
                );
            }
            assert_eq!(stored, memo.stored_sets());
            assert!(memo.stats(TableSet::full(n)).is_some());
        }
    }

    #[test]
    fn arena_matches_dense_reference_serial() {
        for seed in 0..4 {
            let q = query(7, seed);
            for space in [PlanSpace::Linear, PlanSpace::Bushy] {
                let cs = ConstraintSet::unconstrained(Grouping::new(7, space));
                let reference = optimize_partition_reference(&q, space, Objective::Single, &cs);
                let arena = optimize_partition(&q, space, Objective::Single, &cs);
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
                    let arena = optimize_partition(&q, space, Objective::Single, &cs);
                    assert_eq!(
                        reference.plans[0].cost().time.to_bits(),
                        arena.plans[0].cost().time.to_bits(),
                        "seed {seed} {space:?} partition {id}"
                    );
                }
            }
        }
    }

    /// A memo slot as bit patterns: its statistics and, per entry, both costs,
    /// the order and the child references.
    #[allow(clippy::type_complexity)]
    fn slot_bits(
        memo: &ArenaMemo,
        set: TableSet,
    ) -> (Option<[u64; 3]>, Vec<([u64; 2], Order, PlanNode)>) {
        let stats = memo
            .stats(set)
            .map(|s| [s.cardinality, s.tuple_bytes, s.sort_cost].map(f64::to_bits));
        let entries = memo
            .entries(set)
            .iter()
            .map(|e| {
                (
                    [e.cost.time, e.cost.buffer].map(f64::to_bits),
                    e.order,
                    e.node,
                )
            })
            .collect();
        (stats, entries)
    }

    /// A table of no rows beside one of infinitely many makes NaN times
    /// (`0 · ∞`), whose bits depend on the code that adds them up. Both
    /// kernels store each as the one NaN of `stored_time`, in both spaces
    /// and for both objectives; under Pareto pruning, where both insert
    /// every candidate, their memos agree bit for bit. (Under
    /// single-objective pruning the reference keeps every NaN and the
    /// reducer the one that opened its class: see [`ClassMinima`].)
    #[test]
    fn nan_times_are_stored_as_one_nan_by_both_kernels() {
        let n = 4;
        let mut q = query(n, 90);
        q.catalog.stats_mut(1).cardinality = 0.0;
        q.catalog.stats_mut(3).cardinality = f64::INFINITY;
        let mut nans = [0; 2];
        for space in [PlanSpace::Linear, PlanSpace::Bushy] {
            for objective in [Objective::Single, Objective::Multi { alpha: 2.0 }] {
                let pruning = PruningPolicy::new(objective, n);
                let cs = ConstraintSet::unconstrained(Grouping::new(n, space));
                let (memo, _) = fill(&q, space, &pruning, &cs);
                let (reference, _) = crate::worker::reference_fill(&q, space, &pruning, &cs);
                for set in memo.admissible().iter() {
                    let ctx = format!("{space:?} {objective:?} {set}");
                    if objective != Objective::Single {
                        assert_eq!(slot_bits(&memo, set), slot_bits(&reference, set), "{ctx}");
                    }
                    for (count, memo) in nans.iter_mut().zip([&memo, &reference]) {
                        for e in memo.entries(set).iter().filter(|e| e.cost.time.is_nan()) {
                            assert_eq!(e.cost.time.to_bits(), f64::NAN.to_bits(), "{ctx}");
                            *count += 1;
                        }
                    }
                }
            }
        }
        assert!(
            nans.iter().all(|&count| count >= 20),
            "NaN times stored: {nans:?}"
        );
    }

    /// Both kernels' whole memos, slot by slot and bit by bit — statistics,
    /// entry order, both costs, child references — and their counters:
    /// Linear 11–12 at every partition of m ∈ {1, 2, 4, 8, 16} and Bushy 9
    /// at m ∈ {1, 2, 4}, all four graph shapes, single-objective and Pareto
    /// at α ∈ {1, 2, 10}. Minutes in a debug build, seconds in release,
    /// where CI runs it.
    #[test]
    #[ignore = "deep grid: run with --release -- --include-ignored"]
    fn arena_equals_reference_deep() {
        let grid = [
            (PlanSpace::Linear, 11..=12, 4),
            (PlanSpace::Bushy, 9..=9, 2),
        ];
        let mut slots = 0u64;
        for (space, sizes, max_l) in grid {
            for n in sizes {
                for (g, graph) in mpq_model::JoinGraph::ALL.into_iter().enumerate() {
                    let q = WorkloadGenerator::new(
                        WorkloadConfig::with_graph(n, graph),
                        0xDEE9 + 31 * n as u64 + g as u64,
                    )
                    .next_query();
                    for objective in [
                        Objective::Single,
                        Objective::Multi { alpha: 1.0 },
                        Objective::Multi { alpha: 2.0 },
                        Objective::PAPER_MULTI,
                    ] {
                        let pruning = PruningPolicy::new(objective, n);
                        for m in (0..=max_l).map(|l| 1u64 << l) {
                            for id in 0..m {
                                let ctx = format!("{space:?} {n} {graph:?} {objective:?} {id}/{m}");
                                let cs = partition_constraints(n, space, id, m);
                                let (memo, stats) = fill(&q, space, &pruning, &cs);
                                let (reference, reference_stats) =
                                    crate::worker::reference_fill(&q, space, &pruning, &cs);
                                assert_eq!(stats, reference_stats, "{ctx}");
                                let singles = (0..n).map(TableSet::singleton);
                                for set in memo.admissible().iter().chain(singles) {
                                    assert_eq!(
                                        slot_bits(&memo, set),
                                        slot_bits(&reference, set),
                                        "{ctx}: {set}"
                                    );
                                    slots += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(slots > 500_000, "{slots} slots compared");
    }

    #[test]
    fn multi_objective_frontier_matches_dense() {
        let q = query(6, 60);
        let cs = ConstraintSet::unconstrained(Grouping::new(6, PlanSpace::Bushy));
        let obj = Objective::Multi { alpha: 1.0 };
        let reference = optimize_partition_reference(&q, PlanSpace::Bushy, obj, &cs);
        let arena = optimize_partition(&q, PlanSpace::Bushy, obj, &cs);
        assert_eq!(reference.plans.len(), arena.plans.len());
        for (d, a) in reference.plans.iter().zip(arena.plans.iter()) {
            assert_eq!(d.cost().time.to_bits(), a.cost().time.to_bits());
            assert_eq!(d.cost().buffer.to_bits(), a.cost().buffer.to_bits());
        }
    }

    #[test]
    fn single_table_and_pair_queries() {
        for n in [1usize, 2] {
            let q = query(n, 70 + n as u64);
            let cs = ConstraintSet::unconstrained(Grouping::new(n, PlanSpace::Linear));
            let out = optimize_partition(&q, PlanSpace::Linear, Objective::Single, &cs);
            assert_eq!(out.plans.len(), 1);
            assert_eq!(out.plans[0].num_joins(), n - 1);
        }
    }

    #[test]
    fn serial_default_kernel_is_the_arena_kernel() {
        // `optimize_serial` is the arena kernel on the unconstrained
        // partition: same plans, same work counters.
        let q = query(5, 80);
        let out = optimize_serial(&q, PlanSpace::Linear, Objective::Single);
        let cs = ConstraintSet::unconstrained(Grouping::new(5, PlanSpace::Linear));
        let arena = optimize_partition(&q, PlanSpace::Linear, Objective::Single, &cs);
        assert_eq!(out.plans, arena.plans);
        assert_eq!(out.stats.splits_tried, arena.stats.splits_tried);
        assert_eq!(out.stats.plans_generated, arena.stats.plans_generated);
        assert_eq!(out.stats.stored_sets, arena.stats.stored_sets);
    }
}
