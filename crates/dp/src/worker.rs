//! The worker algorithm (Algorithm 2) and the split enumeration
//! (Algorithm 5).
//!
//! `optimize_partition*` run the complete per-partition dynamic program:
//! decode constraints → enumerate admissible join results → seed scans →
//! bottom-up DP over admissible sets → reconstruct the partition-optimal
//! plan(s). One loop fills the one memo ([`ArenaMemo`]): `fill_slots`
//! visits the admissible sets subsets-first, and a step opens each set
//! (its statistics), takes each split and writes the set's slot. The
//! steps are the streaming kernel of [`crate::arena`] (the default,
//! [`optimize_partition`]), the reference (`Scalar`, under
//! [`optimize_partition_reference`], which the differential suites hold
//! the kernel to, bit for bit, and under the filtered fill) and
//! parametric DP's. Each step reads a set's statistics its own way, so
//! the kernel and its oracle share the set visit alone.
//!
//! Split enumeration (`for_each_split`) differs by plan space, as in
//! the paper:
//!
//! * **Linear**: iterate the candidate inner (last joined) table `u` over
//!   the members of the set and check the precedence index in O(1) —
//!   complexity stays linear in the number of *possible* splits, which the
//!   paper accepts because that number is itself only linear in the set
//!   size.
//! * **Bushy**: build only the *admissible* operand pairs as a Cartesian
//!   product of per-group admissible split parts — never generating
//!   inadmissible splits, which is where the 21/27 time factor of
//!   Theorem 7 comes from.
//!
//! `for_each_split_filtered` is the other walk: every *possible* split,
//! checked for admissibility afterwards — parametric enumeration's, SMA's
//! replicated memo's and [`optimize_partition_bushy_filtered`]'s for the
//! `ablation_splits` benchmark that measures what the product saves.
//! Both walks hand over a split's operands as the memo holds them —
//! statistics and plans (`Operand`); `for_each_split` reaches them by
//! carrying dense indices along with the enumeration.
//!
//! Every traversal in the crate turns a split into plans through the one
//! candidate loop, `join_candidates`. Single-objective pruning decides a
//! candidate's fate on its time and its order class, and a candidate's
//! cost vector is the same f64 operations in the same order whenever it is
//! evaluated: the loop hands its sink a [`Candidate`] with the time
//! evaluated and the rest of the vector on request — the streaming kernel
//! asks for the winners', every other traversal (reference loop, Pareto
//! path, parametric, SMA) for each one's. A sink may decline a
//! left plan's whole group of candidates ([`CandidateSink`]): the Pareto
//! path does when its slot already rejects the group's floors.

use crate::arena::{optimize_partition, ArenaMemo};
use crate::reconstruct::reconstruct_plan;
use crate::stats::WorkerStats;
use mpq_cost::{
    CardinalityEstimator, CostVector, JoinOp, Objective, Order, PredicateIndex, ScanOp, SetStats,
    SplitCosts, JOIN_OPS,
};
use mpq_model::{Query, TableSet};
use mpq_partition::{
    partition_constraints, AdmissibleSets, ConstraintSet, Grouping, PlanSpace, SplitPart,
    MAX_GROUPS,
};
use mpq_plan::{Plan, PlanEntry, PruningPolicy};

/// Result of optimizing one plan-space partition.
#[derive(Clone, Debug)]
pub struct PartitionOutcome {
    /// The partition-optimal complete plan(s): exactly one for
    /// single-objective optimization, the partition's Pareto frontier for
    /// multi-objective optimization.
    pub plans: Vec<Plan>,
    /// Counters describing the work performed.
    pub stats: WorkerStats,
}

/// Convenience wrapper: decodes `part_id` of `partitions` (Algorithm 3)
/// and optimizes that partition.
pub fn optimize_partition_id(
    query: &Query,
    space: PlanSpace,
    objective: Objective,
    part_id: u64,
    partitions: u64,
) -> PartitionOutcome {
    let constraints = partition_constraints(query.num_tables(), space, part_id, partitions);
    optimize_partition(query, space, objective, &constraints)
}

/// The classical serial optimizer: one partition, no constraints
/// (equivalent to Selinger-style DP over the full space).
pub fn optimize_serial(query: &Query, space: PlanSpace, objective: Objective) -> PartitionOutcome {
    let grouping = Grouping::new(query.num_tables(), space);
    let constraints = ConstraintSet::unconstrained(grouping);
    optimize_partition(query, space, objective, &constraints)
}

/// Algorithm 2 as written — the textbook kernel the differential suites
/// hold the streaming one to, bit for bit: the one loop with the
/// reference step on the product walk, every candidate of every split
/// through the scalar pruning function in generation order.
pub fn optimize_partition_reference(
    query: &Query,
    space: PlanSpace,
    objective: Objective,
    constraints: &ConstraintSet,
) -> PartitionOutcome {
    let n = query.num_tables();
    assert!(n >= 1, "query must join at least one table");
    let policy = PruningPolicy::new(objective, n);
    let reference = &mut Scalar(&policy, Vec::new());
    let (memo, stats) = fill(query, space, constraints, Walk::Product, reference);
    finish(&memo, stats)
}

/// Ablation variant of the bushy split enumeration: the memo of
/// [`filtered_fill`], which examines *all* `2^|set| - 2` splits of a set
/// and filters the inadmissible ones afterwards. Complexity is linear in
/// the number of possible rather than admissible splits — the approach
/// the paper deliberately avoids for bushy spaces (Section 4.2) — and
/// `splits_tried` counts every examined split. `constraints` is a bushy
/// partition's.
pub fn optimize_partition_bushy_filtered(
    query: &Query,
    objective: Objective,
    constraints: &ConstraintSet,
) -> PartitionOutcome {
    let policy = PruningPolicy::new(objective, query.num_tables());
    let (memo, stats) = filtered_fill(query, &policy, constraints);
    finish(&memo, stats)
}

/// The memo of the one loop with the reference step over the
/// filter-after-enumerate walk, every split it examines counted as tried,
/// and the work it took. The plan space is the constraint set's.
///
/// Each slot depends only on the slots of its subsets, so this is also
/// the replicated memo of the fine-grained SMA baseline, whose master
/// assigns individual join results to workers (Section 6.1): SMA has no
/// constraint structure and passes the unconstrained set.
pub fn filtered_fill(
    query: &Query,
    policy: &PruningPolicy,
    constraints: &ConstraintSet,
) -> (ArenaMemo, WorkerStats) {
    let (space, reference) = (
        constraints.grouping().space(),
        &mut Scalar(policy, Vec::new()),
    );
    fill(query, space, constraints, Walk::Filtered, reference)
}

/// The split walk of the loop: `for_each_split`, each split handed over
/// counted as tried, or `for_each_split_filtered`, each one examined.
pub(crate) enum Walk {
    Product,
    Filtered,
}

/// What the one loop ([`fill_slots`]) does at a set: `open` returns the
/// set's statistics; `split` adds a split's candidates, for the set's
/// interesting orders `live`, and returns how many it generated; `close`
/// writes the slot at the tail of `arena` from index `start` on
/// ([`ArenaMemo::build_slot`]) and readies the step for the next set.
pub(crate) trait Step {
    fn open(&mut self, est: &CardinalityEstimator, set: TableSet) -> SetStats;
    fn split(&mut self, est: &CardinalityEstimator, split: &Split<'_>, live: TableSet) -> u64;
    fn close(&mut self, set: TableSet, arena: &mut Vec<PlanEntry>, start: usize);
}

/// The memo of the partition `constraints` of `query`, its scans seeded
/// and its sets filled by `step` over `walk`, and the work it took.
pub(crate) fn fill(
    query: &Query,
    space: PlanSpace,
    constraints: &ConstraintSet,
    walk: Walk,
    step: &mut impl Step,
) -> (ArenaMemo, WorkerStats) {
    let est = CardinalityEstimator::new(query);
    let mut memo = ArenaMemo::new(AdmissibleSets::new(constraints));
    seed_scans(&mut memo, &est);
    let stats = fill_slots(&mut memo, &est, constraints, space, walk, step);
    (memo, stats)
}

/// The crate's one loop over a memo's admissible sets, Algorithm 2's
/// body: visits the sets of `memo`, whose scans are seeded, in ascending
/// dense index (subsets first), skips the singletons, and hands `step`
/// each set and each split `walk` yields. Returns the work counters but
/// memory, which [`finish`] reads off the memo.
pub(crate) fn fill_slots(
    memo: &mut ArenaMemo,
    est: &CardinalityEstimator,
    constraints: &ConstraintSet,
    space: PlanSpace,
    walk: Walk,
    step: &mut impl Step,
) -> WorkerStats {
    let mut stats = WorkerStats::default();
    let mut scratch = SplitScratch::default();
    for (idx, set) in memo.admissible().iter().enumerate() {
        if set.len() < 2 {
            continue;
        }
        let set_stats = step.open(est, set);
        let live = est.predicates().interesting_orders(set);
        match walk {
            Walk::Product => {
                for_each_split(space, constraints, set, idx, memo, &mut scratch, |split| {
                    stats.splits_tried += 1;
                    stats.plans_generated += step.split(est, &split, live);
                })
            }
            Walk::Filtered => {
                stats.splits_tried +=
                    for_each_split_filtered(space, constraints, set, memo, |split| {
                        stats.plans_generated += step.split(est, &split, live);
                    });
            }
        }
        memo.build_slot(idx, set_stats, |arena, start| step.close(set, arena, start));
    }
    stats
}

/// The reference step, of the reference and filtered fills: a set's
/// statistics by the estimator's one-shot answer
/// ([`CardinalityEstimator::set_stats`]), every candidate an entry through
/// the pruning policy's scalar function, in generation order, into the
/// slot under construction, which is moved in when the set is done.
pub(crate) struct Scalar<'p>(pub &'p PruningPolicy, pub Vec<PlanEntry>);

impl Step for Scalar<'_> {
    fn open(&mut self, est: &CardinalityEstimator, set: TableSet) -> SetStats {
        est.set_stats(set)
    }

    fn split(&mut self, est: &CardinalityEstimator, split: &Split<'_>, live: TableSet) -> u64 {
        let (Scalar(policy, slot), left, right) = (self, split.left.set, split.right.set);
        join_candidates(est.predicates(), split, live, |c: Candidate<'_>| {
            policy.try_insert(slot, c.entry(left, right));
        })
    }

    fn close(&mut self, _: TableSet, arena: &mut Vec<PlanEntry>, _: usize) {
        arena.append(&mut self.1);
    }
}

/// Seeds the best plans for single tables (Algorithm 2, lines 9-11), each
/// with its table's statistics: one full scan, which nothing prunes.
pub(crate) fn seed_scans(memo: &mut ArenaMemo, est: &CardinalityEstimator) {
    for t in 0..memo.admissible().num_tables() {
        let scan = PlanEntry::scan(t as u8, ScanOp::Full, ScanOp::Full.cost(est, t));
        memo.push_single(t, est.set_stats(TableSet::singleton(t)), &[scan]);
    }
}

/// Reconstructs the complete plan of every entry memoized for the full
/// table set, unpruned. (For a single-table query the full set *is* the
/// singleton, so the "plans" are the scans themselves.)
pub fn complete_plans(memo: &ArenaMemo) -> Vec<Plan> {
    let full = TableSet::full(memo.admissible().num_tables());
    memo.entries(full)
        .iter()
        .map(|e| reconstruct_plan(memo, full, e))
        .collect()
}

/// Reconstructs the complete plans and fills in the memory counters.
/// The full set's slot is one order class (no order is interesting once
/// every table is joined), already pruned, so `FinalPrune` would change
/// nothing here: it runs where partitions meet. The DP reads no clock:
/// `optimize_micros` stays 0 for the caller that times the run to stamp.
pub(crate) fn finish(memo: &ArenaMemo, mut stats: WorkerStats) -> PartitionOutcome {
    let plans = complete_plans(memo);
    stats.stored_sets = memo.stored_sets();
    stats.total_entries = memo.total_entries();
    PartitionOutcome { plans, stats }
}

/// One operand of a split as the memo holds it: the table set, its
/// statistics and the plans memoized for it.
#[derive(Clone, Copy)]
pub(crate) struct Operand<'a> {
    pub set: TableSet,
    pub stats: &'a SetStats,
    pub entries: &'a [PlanEntry],
}

/// The operands of one split: two disjoint table sets.
#[derive(Clone, Copy)]
pub(crate) struct Split<'a> {
    pub left: Operand<'a>,
    pub right: Operand<'a>,
}

/// One plan the candidate loop generated for a split. What every pruning
/// function reads first is evaluated when it is generated — the plan's
/// `time`, the order class it competes in, the operator and the operand
/// entries it joins; the rest of its cost is evaluated from the borrowed
/// operand plans and split costs, should a sink ask ([`Candidate::cost`]).
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub struct Candidate<'a> {
    pub time: f64,
    pub order: Order,
    pub(crate) op: JoinOp,
    pub left_idx: u32,
    pub right_idx: u32,
    pub(crate) left: &'a PlanEntry,
    pub(crate) right: &'a PlanEntry,
    costs: &'a SplitCosts,
}

impl<'a> Candidate<'a> {
    /// The plan joining `left` (entry `left_idx` of its operand's slot) and
    /// `right` with `op` on the split costed by `costs`, for a result whose
    /// interesting orders are `live`; `None` where the operator does not
    /// apply. Its time is that of `(left.cost + right.cost) + app.cost`.
    #[inline]
    pub fn new(
        costs: &'a SplitCosts,
        op: JoinOp,
        (left_idx, left): (u32, &'a PlanEntry),
        (right_idx, right): (u32, &'a PlanEntry),
        live: TableSet,
    ) -> Option<Self> {
        let (time, output_order) = join_time(costs, op, left, right)?;
        Some(Candidate {
            time,
            order: output_order.if_live(live),
            op,
            left_idx,
            right_idx,
            left,
            right,
            costs,
        })
    }
}

/// The time `(left.cost.time + right.cost.time) + app.time` of joining
/// `left` with `right` by `op` on the split costed by `costs`, and the
/// operator's output order; `None` where `op` does not apply. The one
/// definition of a candidate's time: [`Candidate::new`] and the kernel's
/// pair reducer ([`crate::arena::ClassMinima::offer_pair`]) both read it
/// here; the left-deep arm adds the same terms, each read once per split
/// from [`SplitCosts::time`].
#[inline(always)]
pub(crate) fn join_time(
    costs: &SplitCosts,
    op: JoinOp,
    left: &PlanEntry,
    right: &PlanEntry,
) -> Option<(f64, Order)> {
    let (app, output_order) = costs.time(op, left.order, right.order)?;
    Some(((left.cost.time + right.cost.time) + app, output_order))
}

/// A time as the memo stores it: a NaN as [`f64::NAN`]. Rust leaves open
/// which NaN a sum of two NaNs yields — x86 yields its first operand's —
/// and each site a sum is inlined into may order its operands its own way,
/// so the same candidate's time can be NaN of either sign depending on
/// the code that added it up. The memo stores one NaN, so the kernel, its
/// Pareto loop and the reference store the same bits; the loops compare
/// times as they come (a NaN compares false whatever its bits).
#[inline(always)]
pub(crate) fn stored_time(time: f64) -> f64 {
    if time.is_nan() {
        f64::NAN
    } else {
        time
    }
}

/// The operands of the two buffer `max`es of joining `left` with `right`
/// by `op` — the candidate's `cost().buffer` is `l.max(r).max(app)` — for
/// a sink that reduces them later ([`crate::arena::ClassMinima`]); the
/// operator's is read from the split's constants
/// ([`SplitCosts::buffer`]), its time not evaluated again.
#[inline(always)]
pub(crate) fn buffer_operands(
    costs: &SplitCosts,
    op: JoinOp,
    left: &PlanEntry,
    right: &PlanEntry,
) -> [f64; 3] {
    [
        left.cost.buffer,
        right.cost.buffer,
        costs
            .buffer(op, left.order, right.order)
            .expect("a candidate exists only where its operator applies"),
    ]
}

impl Candidate<'_> {
    #[inline]
    fn app(&self) -> CostVector {
        self.costs
            .apply(self.op, self.left.order, self.right.order)
            .expect("a candidate exists only where its operator applies")
            .cost
    }

    /// Its cost vector, `(left.cost + right.cost) + app.cost`: its time
    /// is `time`, but for the bits of a NaN ([`stored_time`]), since the
    /// sum is added up again here.
    #[inline]
    pub fn cost(&self) -> CostVector {
        self.left.cost.add(&self.right.cost).add(&self.app())
    }

    /// The memo entry of this candidate of the split `(left, right)`,
    /// costed now, its time as stored ([`stored_time`]).
    #[inline]
    pub fn entry(&self, left: TableSet, right: TableSet) -> PlanEntry {
        let cost = CostVector::new(stored_time(self.time), self.cost().buffer);
        self.entry_costing(cost, left, right)
    }

    /// [`Candidate::entry`] with the cost the caller already asked for,
    /// taken as it is: the Pareto loop stores its slot's times when the set
    /// is done, outside the candidate loop.
    #[inline]
    pub(crate) fn entry_costing(
        &self,
        cost: CostVector,
        left: TableSet,
        right: TableSet,
    ) -> PlanEntry {
        PlanEntry::join(
            self.op,
            left,
            self.left_idx,
            right,
            self.right_idx,
            cost,
            self.order,
        )
    }
}

/// The operand-plan pairs of a split, in the candidate loop's nesting
/// order (left plan outer), each handed to `f` with the split's costs.
///
/// Everything that depends on the split alone is costed once, from the
/// operands' memoized statistics ([`SplitCosts::from_stats`]).
#[inline]
pub(crate) fn for_each_pair<'a>(
    predicates: &PredicateIndex,
    split: &Split<'a>,
    mut f: impl FnMut(&SplitCosts, (u32, &'a PlanEntry), (u32, &'a PlanEntry)),
) {
    let Split { left, right } = split;
    if left.entries.is_empty() || right.entries.is_empty() {
        return;
    }
    let costs = SplitCosts::from_stats(predicates, left.set, left.stats, right.set, right.stats);
    for outer in (0..).zip(left.entries) {
        for inner in (0..).zip(right.entries) {
            f(&costs, outer, inner);
        }
    }
}

/// Where the candidate loop ([`join_plans`]) sends a split's candidates.
/// A closure takes every one; the Pareto kernel's sink
/// ([`crate::arena::ParetoSink`]) also declines whole groups.
#[doc(hidden)]
pub trait CandidateSink {
    /// Whether to generate the group of left plan `outer` on the split
    /// costed by `costs`: every right plan joined with it by every
    /// operator. A declined group still counts as generated.
    #[inline(always)]
    fn wants_group(&self, costs: &SplitCosts, outer: &PlanEntry) -> bool {
        let _ = (costs, outer);
        true
    }

    /// Takes the next candidate.
    fn take(&mut self, candidate: Candidate<'_>);
}

impl<F: FnMut(Candidate<'_>)> CandidateSink for F {
    #[inline(always)]
    fn take(&mut self, candidate: Candidate<'_>) {
        self(candidate)
    }
}

/// The one candidate loop of the crate (the `Join` core shared by all
/// split enumerations): combines each surviving plan pair of the split's
/// operands with each applicable join operator and hands the candidates to
/// `sink` in that nesting order ([`join_plans`]). Returns how many it
/// generated. The single-objective streaming kernel offers the same pairs
/// to its reducer instead ([`crate::arena::ClassMinima::offer_pair`]).
///
/// A candidate's total is `(le.cost + re.cost) + app.cost` — the same
/// floating-point operations in the same order however the caller prunes,
/// which is what keeps all kernels bit-identical. The loop evaluates the
/// time of that sum; the buffer waits for a sink that reads it.
///
/// `live` is the result set's interesting orders
/// ([`mpq_cost::PredicateIndex::interesting_orders`]), computed by the
/// caller once per result set: a candidate whose physical output order no
/// later join can use is labelled [`mpq_cost::Order::None`] here, before
/// any pruning sees it, so it competes with the unordered plans instead of
/// holding a memo class of its own.
#[inline]
pub(crate) fn join_candidates(
    predicates: &PredicateIndex,
    split: &Split<'_>,
    live: TableSet,
    sink: impl CandidateSink,
) -> u64 {
    let Split { left, right } = split;
    if left.entries.is_empty() || right.entries.is_empty() {
        return 0;
    }
    let costs = SplitCosts::from_stats(predicates, left.set, left.stats, right.set, right.stats);
    join_plans(&costs, left.entries, right.entries, live, sink)
}

/// The candidates of the split costed by `costs` whose operands hold the
/// plans `lefts` and `rights`, into `sink`: one group per left plan, in
/// slot order, unless the sink declines it; in a group, each right plan in
/// slot order, joined by each applicable operator in `JOIN_OPS` order.
/// Returns how many candidates that is, declined groups included.
#[doc(hidden)]
#[inline]
pub fn join_plans(
    costs: &SplitCosts,
    lefts: &[PlanEntry],
    rights: &[PlanEntry],
    live: TableSet,
    mut sink: impl CandidateSink,
) -> u64 {
    let mut generated = 0;
    for outer in (0..).zip(lefts) {
        if !sink.wants_group(costs, outer.1) {
            generated += rights.len() as u64 * costs.operators();
            continue;
        }
        for inner in (0..).zip(rights) {
            let mut emit = |op| {
                if let Some(candidate) = Candidate::new(costs, op, outer, inner, live) {
                    generated += 1;
                    sink.take(candidate);
                }
            };
            // The operators in `JOIN_OPS` order, one call site each: with
            // the operator a constant the costing is straight-line code,
            // which a time-only sink makes worth having (as
            // `for op in JOIN_OPS`, Linear 15 read 30 % slower).
            let [first, second, third] = JOIN_OPS;
            emit(first);
            emit(second);
            emit(third);
        }
    }
    generated
}

/// Buffers of the bushy split enumeration, reused across sets (no
/// allocation in the hot loop).
#[derive(Default)]
pub(crate) struct SplitScratch {
    parts: Vec<SplitPart>,
    group_bounds: Vec<(usize, usize)>,
}

/// `TrySplits` (Algorithm 5): hands `f` every constraint-respecting split
/// of `set`, whose dense index is `idx`, operands read from `memo`. One
/// call of `f` is one tried split.
///
/// * Linear (lines 3-12): every member of `set` as the inner (last joined)
///   operand, skipping tables that a constraint requires to precede
///   another member. The outer operand's index is one step from `idx`.
/// * Bushy (lines 13-39): every admissible left operand with its
///   complement, skipping splits an operand of which has no plan. Both
///   operands' indices are summed up beside the left operand's bits.
pub(crate) fn for_each_split<'m>(
    space: PlanSpace,
    constraints: &ConstraintSet,
    set: TableSet,
    idx: usize,
    memo: &'m ArenaMemo,
    scratch: &mut SplitScratch,
    mut f: impl FnMut(Split<'m>),
) {
    match space {
        PlanSpace::Linear => {
            for u in set.iter() {
                // Algorithm 5 line 7: ∄ v ∈ U with (u ≺ v) ∈ C — O(1) via index.
                if !constraints.may_join_last(u, set) {
                    continue;
                }
                let rest_idx = memo.admissible().index_without(set, idx, u);
                f(Split {
                    left: memo.operand_at(set.remove(u), rest_idx),
                    right: memo.single_operand(u),
                });
            }
        }
        PlanSpace::Bushy => {
            bushy_split_setup(set, constraints, memo.admissible(), scratch);
            for_each_bushy_left(&scratch.parts, &scratch.group_bounds, |part| {
                if part.left == 0 || part.left == set.bits() {
                    return;
                }
                let left = TableSet(part.left);
                debug_assert!(left.is_subset_of(set));
                let split = Split {
                    left: memo.operand_at(left, part.left_index),
                    right: memo.operand_at(set.difference(left), part.right_index),
                };
                if !split.left.entries.is_empty() && !split.right.entries.is_empty() {
                    f(split);
                }
            });
        }
    }
}

/// The filter-after-enumerate split walk: examines every *possible* split
/// of `set` — each member as the inner table (linear), each proper subset
/// with its complement (bushy) — and hands `f` the constraint-respecting
/// ones, operands looked up in `memo` by their bits. Returns the number of
/// splits examined, admissible or not.
///
/// The order differs from [`for_each_split`]'s bushy product order, and
/// α-approximate pruning depends on insertion order: a traversal stays
/// with one walk.
pub(crate) fn for_each_split_filtered<'m>(
    space: PlanSpace,
    constraints: &ConstraintSet,
    set: TableSet,
    memo: &'m ArenaMemo,
    mut f: impl FnMut(Split<'m>),
) -> u64 {
    let mut examined = 0;
    let mut split = |left, right| {
        f(Split {
            left: memo.operand_of(left),
            right: memo.operand_of(right),
        })
    };
    match space {
        PlanSpace::Linear => {
            for u in set.iter() {
                examined += 1;
                if constraints.may_join_last(u, set) {
                    split(set.remove(u), TableSet::singleton(u));
                }
            }
        }
        PlanSpace::Bushy => {
            let has_slot = |s: TableSet| s.len() == 1 || memo.admissible().is_admissible(s);
            for left in set.proper_subsets() {
                examined += 1;
                let right = set.difference(left);
                if has_slot(left) && has_slot(right) {
                    split(left, right);
                }
            }
        }
    }
    examined
}

/// Gathers the per-group admissible split parts of `set` (Algorithm 5,
/// lines 15-24) into `scratch.parts`, with `group_bounds` delimiting each
/// group's patterns. Groups disjoint from `set` contribute only the empty pattern
/// and are dropped from the product.
fn bushy_split_setup(
    set: TableSet,
    constraints: &ConstraintSet,
    adm: &AdmissibleSets,
    scratch: &mut SplitScratch,
) {
    let SplitScratch {
        parts,
        group_bounds,
    } = scratch;
    parts.clear();
    group_bounds.clear();
    for g in 0..adm.num_groups() {
        let start = parts.len();
        adm.admissible_split_parts(constraints, g, set, parts);
        let end = parts.len();
        if end - start > 1 || (end - start == 1 && parts[start].left != 0) {
            group_bounds.push((start, end));
        } else {
            parts.truncate(start);
        }
    }
}

/// Walks every admissible left operand of the Cartesian product described
/// by `parts`/`group_bounds` (Algorithm 5, lines 25-32) without
/// materializing the product: a fixed-size odometer over the group digits,
/// last group varying fastest — the exact order the old materialized
/// enumeration produced. `f` receives the product as one [`SplitPart`]:
/// the left operand's bits and both operands' dense indices, each
/// accumulated over a prefix of the groups so a step costs O(changed
/// digits). The walk includes the empty and full pattern; callers skip
/// those.
fn for_each_bushy_left<F: FnMut(SplitPart)>(
    parts: &[SplitPart],
    group_bounds: &[(usize, usize)],
    mut f: F,
) {
    const NOTHING: SplitPart = SplitPart {
        left: 0,
        left_index: 0,
        right_index: 0,
    };
    let k = group_bounds.len();
    if k == 0 {
        f(NOTHING);
        return;
    }
    assert!(k <= MAX_GROUPS, "more than {MAX_GROUPS} split groups");
    let mut pos = [0usize; MAX_GROUPS];
    let mut acc = [NOTHING; MAX_GROUPS + 1];
    let extend = |acc: SplitPart, part: SplitPart| SplitPart {
        left: acc.left | part.left,
        left_index: acc.left_index + part.left_index,
        right_index: acc.right_index + part.right_index,
    };
    for d in 0..k {
        acc[d + 1] = extend(acc[d], parts[group_bounds[d].0]);
    }
    loop {
        f(acc[k]);
        // Increment the odometer: last digit first, carrying left.
        let mut d = k;
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            let (s, e) = group_bounds[d];
            pos[d] += 1;
            if s + pos[d] < e {
                break;
            }
            pos[d] = 0;
        }
        for i in d..k {
            acc[i + 1] = extend(acc[i], parts[group_bounds[i].0 + pos[i]]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_model::{JoinGraph, WorkloadConfig, WorkloadGenerator};
    use std::collections::HashMap;
    use std::ops::RangeInclusive;

    fn query(n: usize, seed: u64) -> Query {
        WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).next_query()
    }

    #[test]
    fn serial_linear_produces_left_deep_plan() {
        let q = query(6, 1);
        let out = optimize_serial(&q, PlanSpace::Linear, Objective::Single);
        assert_eq!(out.plans.len(), 1);
        let p = &out.plans[0];
        assert!(p.is_left_deep());
        assert_eq!(p.tables(), q.all_tables());
        assert_eq!(p.num_joins(), 5);
        p.validate().expect("structurally valid plan");
        assert!(crate::explain(&q, p).expect("fits its query").is_monotone());
    }

    #[test]
    fn serial_bushy_covers_all_tables() {
        let q = query(6, 2);
        let out = optimize_serial(&q, PlanSpace::Bushy, Objective::Single);
        assert_eq!(out.plans.len(), 1);
        let p = &out.plans[0];
        assert_eq!(p.tables(), q.all_tables());
        p.validate().expect("structurally valid plan");
        assert!(crate::explain(&q, p).expect("fits its query").is_monotone());
    }

    #[test]
    fn bushy_never_worse_than_linear() {
        for seed in 0..5 {
            let q = query(7, seed);
            let lin = optimize_serial(&q, PlanSpace::Linear, Objective::Single);
            let bushy = optimize_serial(&q, PlanSpace::Bushy, Objective::Single);
            assert!(
                bushy.plans[0].cost().time <= lin.plans[0].cost().time,
                "seed {seed}: bushy must contain the linear space"
            );
        }
    }

    #[test]
    fn partition_optima_cover_global_optimum_linear() {
        for seed in 0..5 {
            let q = query(6, seed);
            let serial = optimize_serial(&q, PlanSpace::Linear, Objective::Single);
            let m = 8u64;
            let best = (0..m)
                .map(|id| {
                    optimize_partition_id(&q, PlanSpace::Linear, Objective::Single, id, m).plans[0]
                        .cost()
                        .time
                })
                .fold(f64::INFINITY, f64::min);
            assert_eq!(
                best.to_bits(),
                serial.plans[0].cost().time.to_bits(),
                "seed {seed}: best-of-partitions {best} != serial {}",
                serial.plans[0].cost().time
            );
        }
    }

    #[test]
    fn partition_optima_cover_global_optimum_bushy() {
        for seed in 0..3 {
            let q = query(6, seed + 100);
            let serial = optimize_serial(&q, PlanSpace::Bushy, Objective::Single);
            let m = 4u64;
            let best = (0..m)
                .map(|id| {
                    optimize_partition_id(&q, PlanSpace::Bushy, Objective::Single, id, m).plans[0]
                        .cost()
                        .time
                })
                .fold(f64::INFINITY, f64::min);
            assert_eq!(
                best.to_bits(),
                serial.plans[0].cost().time.to_bits(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn constrained_partition_respects_join_order() {
        let q = query(4, 9);
        // Partition 0 of 4: Q0 ≺ Q1 and Q2 ≺ Q3.
        let out = optimize_partition_id(&q, PlanSpace::Linear, Objective::Single, 0, 4);
        let order = out.plans[0].join_order().expect("left-deep");
        let pos = |t: u8| order.iter().position(|&x| x == t).expect("table present");
        assert!(pos(0) < pos(1), "Q0 must precede Q1 in {order:?}");
        assert!(pos(2) < pos(3), "Q2 must precede Q3 in {order:?}");
    }

    #[test]
    fn partition_work_shrinks_with_constraints() {
        let q = query(8, 3);
        let serial = optimize_serial(&q, PlanSpace::Linear, Objective::Single);
        let part = optimize_partition_id(&q, PlanSpace::Linear, Objective::Single, 0, 16);
        assert!(part.stats.stored_sets < serial.stats.stored_sets);
        assert!(part.stats.splits_tried < serial.stats.splits_tried);
    }

    #[test]
    fn multi_objective_returns_frontier() {
        let q = query(6, 4);
        let out = optimize_serial(&q, PlanSpace::Linear, Objective::Multi { alpha: 1.0 });
        assert!(!out.plans.is_empty());
        // No plan on the returned frontier strictly dominates another.
        for a in &out.plans {
            for b in &out.plans {
                if !std::ptr::eq(a, b) {
                    assert!(!a.cost().strictly_dominates(&b.cost()));
                }
            }
        }
    }

    #[test]
    fn multi_objective_alpha_shrinks_frontier() {
        let q = query(7, 5);
        let exact = optimize_serial(&q, PlanSpace::Linear, Objective::Multi { alpha: 1.0 });
        let coarse = optimize_serial(&q, PlanSpace::Linear, Objective::Multi { alpha: 10.0 });
        assert!(coarse.plans.len() <= exact.plans.len());
        assert!(coarse.stats.total_entries <= exact.stats.total_entries);
    }

    #[test]
    fn single_table_query() {
        let q = query(1, 6);
        let out = optimize_serial(&q, PlanSpace::Linear, Objective::Single);
        assert_eq!(out.plans.len(), 1);
        assert_eq!(out.plans[0].num_joins(), 0);
    }

    #[test]
    fn two_table_query_both_spaces() {
        let q = query(2, 7);
        for space in [PlanSpace::Linear, PlanSpace::Bushy] {
            let out = optimize_serial(&q, space, Objective::Single);
            assert_eq!(out.plans[0].num_joins(), 1);
        }
    }

    #[test]
    fn filtered_bushy_matches_product_bushy() {
        for seed in 0..3 {
            let q = query(6, seed + 70);
            let constraints = partition_constraints(q.num_tables(), PlanSpace::Bushy, 1, 2);
            let product = optimize_partition(&q, PlanSpace::Bushy, Objective::Single, &constraints);
            let filtered = optimize_partition_bushy_filtered(&q, Objective::Single, &constraints);
            assert_eq!(
                product.plans[0].cost().time.to_bits(),
                filtered.plans[0].cost().time.to_bits(),
                "seed {seed}"
            );
            // The product enumeration tries at most as many splits.
            assert!(product.stats.splits_tried <= filtered.stats.splits_tried);
        }
    }

    #[test]
    fn filtered_bushy_counts_every_possible_split() {
        // The cost Section 4.2 avoids: each admissible set U pays for all
        // 2^|U| - 2 ordered splits, admissible or not.
        let q = query(7, 73);
        let constraints = partition_constraints(7, PlanSpace::Bushy, 2, 4);
        let possible: u64 = AdmissibleSets::new(&constraints)
            .iter()
            .filter(|u| u.len() >= 2)
            .map(|u| (1u64 << u.len()) - 2)
            .sum();
        let filtered = optimize_partition_bushy_filtered(&q, Objective::Single, &constraints);
        assert_eq!(filtered.stats.splits_tried, possible);
        let product = optimize_partition(&q, PlanSpace::Bushy, Objective::Single, &constraints);
        assert!(product.stats.splits_tried < possible);
        assert_eq!(
            product.plans[0].cost().time.to_bits(),
            filtered.plans[0].cost().time.to_bits()
        );
    }

    /// On a left-deep partition both walks try each member as the inner
    /// table in the same order, so the filter-after-enumerate fill leaves
    /// every set's slot as the reference loop does, for both objectives.
    /// Constrained pairs are where an inadmissible split would slip
    /// through: its operands are single tables, both of which have plans.
    /// The candidates generated are the same; the splits tried, every
    /// member of every set.
    #[test]
    fn filtered_slots_equal_the_reference_slots_on_linear_partitions() {
        let n = 7;
        let q = query(n, 75);
        for objective in [Objective::Single, Objective::Multi { alpha: 2.0 }] {
            let policy = PruningPolicy::new(objective, n);
            for id in 0..8 {
                let cs = partition_constraints(n, PlanSpace::Linear, id, 8);
                let step = &mut Scalar(&policy, Vec::new());
                let (reference, work) = fill(&q, PlanSpace::Linear, &cs, Walk::Product, step);
                let (filtered, filtered_work) = filtered_fill(&q, &policy, &cs);
                assert_eq!(filtered_work.plans_generated, work.plans_generated);
                let members = reference.admissible().iter().filter(|s| s.len() >= 2);
                let members: usize = members.map(|s| s.len()).sum();
                assert_eq!(filtered_work.splits_tried, members as u64);
                for set in reference.admissible().iter() {
                    assert_eq!(
                        filtered.entries(set),
                        reference.entries(set),
                        "{objective:?} {id}: {set}"
                    );
                }
            }
        }
    }

    /// `FinalPrune` runs where partitions meet, not in a partition: the
    /// full set's slot is one order class, already pruned, so pruning a
    /// partition's complete plans again changes none of them. Every
    /// partition of Linear 7 (m <= 8) and Bushy 7 (m <= 4), Single and
    /// alpha 1, 2 and 10.
    #[test]
    fn final_prune_leaves_a_partitions_complete_plans_unchanged() {
        let q = query(7, 76);
        let objectives = [1.0, 2.0, 10.0].map(|alpha| Objective::Multi { alpha });
        let mut checked = 0;
        for (space, max_m) in [(PlanSpace::Linear, 8), (PlanSpace::Bushy, 4)] {
            for objective in [Objective::Single].into_iter().chain(objectives) {
                let policy = PruningPolicy::new(objective, 7);
                let mut m = 1;
                while m <= max_m {
                    for id in 0..m {
                        let out = optimize_partition_id(&q, space, objective, id, m);
                        let mut pruned = out.plans.clone();
                        policy.final_prune(&mut pruned);
                        assert_eq!(pruned, out.plans, "{space:?} {objective:?} {id}/{m}");
                        checked += 1;
                    }
                    m *= 2;
                }
            }
        }
        assert_eq!(checked, 4 * (1 + 2 + 4 + 8) + 4 * (1 + 2 + 4));
    }

    /// The operand indices the split enumeration carries are the operands'
    /// `index_of`, on every split it yields: every set, partitioning and
    /// partition of Linear 7-8 and Bushy 6-9.
    #[test]
    fn carried_operand_indices_equal_index_of() {
        let mut scratch = SplitScratch::default();
        let (mut linear, mut bushy) = (0u32, 0u32);
        for (space, sizes) in [(PlanSpace::Linear, 7..=8), (PlanSpace::Bushy, 6..=9)] {
            for n in sizes {
                for l in 0..=space.max_constraints(n) {
                    let m = 1u64 << l;
                    for id in 0..m {
                        let constraints = partition_constraints(n, space, id, m);
                        let adm = AdmissibleSets::new(&constraints);
                        for (idx, set) in adm.iter().enumerate() {
                            match space {
                                PlanSpace::Linear => {
                                    for u in
                                        set.iter().filter(|&u| constraints.may_join_last(u, set))
                                    {
                                        assert_eq!(
                                            Some(adm.index_without(set, idx, u)),
                                            adm.index_of(set.remove(u)),
                                            "{set} without {u}, partition {id}/{m}"
                                        );
                                        linear += 1;
                                    }
                                }
                                PlanSpace::Bushy => {
                                    bushy_split_setup(set, &constraints, &adm, &mut scratch);
                                    for_each_bushy_left(
                                        &scratch.parts,
                                        &scratch.group_bounds,
                                        |part| {
                                            let left = TableSet(part.left);
                                            assert_eq!(adm.index_of(left), Some(part.left_index));
                                            assert_eq!(
                                                adm.index_of(set.difference(left)),
                                                Some(part.right_index),
                                                "{set} left {left}, partition {id}/{m}"
                                            );
                                            bushy += 1;
                                        },
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(linear > 10_000 && bushy > 100_000, "{linear} / {bushy}");
    }

    /// Counts each admissible set's join trees beside the reference step,
    /// which fills the memo so that the product walk, passing over a split
    /// an operand of which has no plan, hands over every split: a table is
    /// one tree, and a set holds left × right trees per split.
    struct Trees<'p> {
        reference: Scalar<'p>,
        counts: HashMap<TableSet, u128>,
        open: u128,
    }

    impl Step for Trees<'_> {
        fn open(&mut self, est: &CardinalityEstimator, set: TableSet) -> SetStats {
            self.open = 0;
            self.reference.open(est, set)
        }

        fn split(&mut self, est: &CardinalityEstimator, split: &Split<'_>, live: TableSet) -> u64 {
            let trees = |s: TableSet| if s.len() == 1 { 1 } else { self.counts[&s] };
            self.open += trees(split.left.set) * trees(split.right.set);
            self.reference.split(est, split, live)
        }

        fn close(&mut self, set: TableSet, arena: &mut Vec<PlanEntry>, start: usize) {
            self.counts.insert(set, self.open);
            self.reference.close(set, arena, start)
        }
    }

    /// The join trees of each of the `2^l` partitions of `n` tables, as
    /// the one loop counts them on the product walk; the filter-after-
    /// enumerate walk must count the same.
    fn partition_trees(space: PlanSpace, n: usize, l: usize) -> Vec<u128> {
        let q = query(n, 77);
        let policy = PruningPolicy::new(Objective::Single, n);
        let m = 1u64 << l;
        (0..m)
            .map(|id| {
                let cs = partition_constraints(n, space, id, m);
                let [product, filtered] = [Walk::Product, Walk::Filtered].map(|walk| {
                    let mut trees = Trees {
                        reference: Scalar(&policy, Vec::new()),
                        counts: HashMap::new(),
                        open: 0,
                    };
                    fill(&q, space, &cs, walk, &mut trees);
                    trees.counts[&TableSet::full(n)]
                });
                assert_eq!(product, filtered, "{space:?} {n}: partition {id}/{m}");
                product
            })
            .collect()
    }

    fn factorial(n: usize) -> u128 {
        (1..=n as u128).product()
    }

    /// The plan space each partition holds, at every constraint count `l`:
    /// - left-deep, one join order per tree: `n!/2^l` in each partition,
    ///   `n!` over all of them — `may_join_last` keeps a constrained pair's
    ///   first join to one orientation, so the partitions are disjoint;
    /// - bushy, of the `(2n−2)!/(n−1)!` ordered trees: `(2/3)^l` of them in
    ///   each partition — a constraint on a triple admits two of its three
    ///   topologies, so bushy partitions overlap.
    ///
    /// No cost is read, so a partition that loses plans but keeps the
    /// optimum fails here.
    fn assert_tree_counts(linear: RangeInclusive<usize>, bushy: RangeInclusive<usize>) {
        for n in linear {
            let all = factorial(n);
            for l in 0..=PlanSpace::Linear.max_constraints(n) {
                let counts = partition_trees(PlanSpace::Linear, n, l);
                assert_eq!(all % (1 << l), 0);
                let each = all >> l;
                assert!(
                    counts.iter().all(|&c| c == each),
                    "Linear {n}, l = {l}: {counts:?}"
                );
                assert_eq!(counts.iter().sum::<u128>(), all, "Linear {n}, l = {l}");
            }
        }
        for n in bushy {
            let all = factorial(2 * n - 2) / factorial(n - 1);
            for l in 0..=PlanSpace::Bushy.max_constraints(n) {
                let counts = partition_trees(PlanSpace::Bushy, n, l);
                let share = all << l;
                assert_eq!(share % 3u128.pow(l as u32), 0);
                let each = share / 3u128.pow(l as u32);
                assert!(
                    counts.iter().all(|&c| c == each),
                    "Bushy {n}, l = {l}: {counts:?}"
                );
            }
        }
    }

    /// Linear 2–10 and Bushy 2–7, every `l`.
    #[test]
    fn every_partition_holds_its_share_of_the_join_trees() {
        assert_tree_counts(2..=10, 2..=7);
    }

    /// Linear 12 and Bushy 9, every `l`: seconds in release, where CI runs
    /// it.
    #[test]
    #[ignore = "deep grid: run with --release -- --include-ignored"]
    fn every_partition_holds_its_share_of_the_join_trees_deep() {
        assert_tree_counts(12..=12, 9..=9);
    }

    #[test]
    fn chain_and_star_have_same_set_counts() {
        // Figure 3's premise: DP work depends on the query size, not the
        // join graph shape (cross products are allowed).
        let mut g1 = WorkloadGenerator::new(WorkloadConfig::with_graph(6, JoinGraph::Chain), 11);
        let mut g2 = WorkloadGenerator::new(WorkloadConfig::with_graph(6, JoinGraph::Star), 11);
        let a = optimize_serial(&g1.next_query(), PlanSpace::Linear, Objective::Single);
        let b = optimize_serial(&g2.next_query(), PlanSpace::Linear, Objective::Single);
        assert_eq!(a.stats.splits_tried, b.stats.splits_tried);
        assert_eq!(a.stats.stored_sets, b.stats.stored_sets);
    }
}
