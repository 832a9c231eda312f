//! Top-down (Volcano-style) plan enumeration over a plan-space partition.
//!
//! The paper observes that its partitioning method "can parallelize query
//! optimization algorithms that do not implement the classical dynamic
//! programming scheme", naming the Volcano algorithm, while cautioning
//! that the benefit is a-priori unclear because top-down enumeration's
//! run time is not proportional to the number of intermediate results
//! (Section 4.2, end). This module demonstrates the point: a memoized
//! top-down enumerator that expands only *admissible* table sets, driven
//! by the same constraints, producing exactly the same optimal plans as
//! the bottom-up worker.
//!
//! Unlike the bottom-up DP, sets unreachable from the root are never
//! expanded; on constrained partitions this can visit fewer sets than the
//! admissible-set count (which the `partition_work_not_above_bottom_up`
//! test demonstrates).

use crate::memo::{HashMemo, MemoStore, SlotMemo};
use crate::stats::WorkerStats;
use crate::worker::{combine_operands, finish, PartitionOutcome, Split};
use mpq_cost::{CardinalityEstimator, Objective, ScanOp};
use mpq_model::{Query, TableSet};
use mpq_partition::{AdmissibleSets, ConstraintSet, PlanSpace};
use mpq_plan::{PlanEntry, PruningPolicy};
use std::collections::HashSet;
use std::time::Instant;

/// Optimizes one partition by memoized top-down enumeration. Produces the
/// same plans as [`crate::optimize_partition`].
pub fn optimize_partition_topdown(
    query: &Query,
    space: PlanSpace,
    objective: Objective,
    constraints: &ConstraintSet,
) -> PartitionOutcome {
    let start = Instant::now();
    let n = query.num_tables();
    let adm = AdmissibleSets::new(constraints);
    let mut est = CardinalityEstimator::new(query);
    let policy = PruningPolicy::new(objective, n);
    let mut memo = HashMemo::new(n);
    let mut stats = WorkerStats::default();
    for t in 0..n {
        let cost = ScanOp::Full.cost(&mut est, t);
        policy.try_insert(
            memo.single_slot_mut(t),
            PlanEntry::scan(t as u8, ScanOp::Full, cost),
        );
    }
    let mut expanded: HashSet<u64> = HashSet::new();
    let full = TableSet::full(n);
    expand(
        query,
        space,
        &policy,
        constraints,
        &adm,
        full,
        &mut memo,
        &mut est,
        &mut expanded,
        &mut stats,
    );
    finish(query, &memo, &mut est, &policy, stats, start)
}

/// Invokes `f` for every admissible split of `set`, in the enumeration
/// order of the bottom-up worker. Iterator-style so callers can walk the
/// splits twice (recursion pass, combine pass) without materializing them.
fn for_each_split<F: FnMut(TableSet, TableSet)>(
    space: PlanSpace,
    set: TableSet,
    constraints: &ConstraintSet,
    adm: &AdmissibleSets,
    mut f: F,
) {
    match space {
        PlanSpace::Linear => {
            for u in set.iter() {
                if constraints.may_join_last(u, set) {
                    f(set.remove(u), TableSet::singleton(u));
                }
            }
        }
        PlanSpace::Bushy => {
            for l in set.proper_subsets() {
                let r = set.difference(l);
                if (l.len() == 1 || adm.is_admissible(l)) && (r.len() == 1 || adm.is_admissible(r))
                {
                    f(l, r);
                }
            }
        }
    }
}

/// Recursively materializes the optimal entries for `set`, expanding each
/// admissible set at most once.
#[allow(clippy::too_many_arguments, clippy::only_used_in_recursion)]
fn expand(
    query: &Query,
    space: PlanSpace,
    policy: &PruningPolicy,
    constraints: &ConstraintSet,
    adm: &AdmissibleSets,
    set: TableSet,
    memo: &mut HashMemo,
    est: &mut CardinalityEstimator<'_>,
    expanded: &mut HashSet<u64>,
    stats: &mut WorkerStats,
) {
    if set.len() < 2 || !expanded.insert(set.bits()) {
        return;
    }
    // Recursion pass: children must be final before we combine. The split
    // walk is repeated below instead of materialized — split enumeration
    // is cheap next to plan generation, and this keeps the expansion
    // allocation-free.
    for_each_split(space, set, constraints, adm, |l, r| {
        expand(
            query,
            space,
            policy,
            constraints,
            adm,
            l,
            memo,
            est,
            expanded,
            stats,
        );
        expand(
            query,
            space,
            policy,
            constraints,
            adm,
            r,
            memo,
            est,
            expanded,
            stats,
        );
    });
    // Combine pass: the slot is taken out of the memo, so the child entry
    // slices can be read straight from the memo without cloning.
    let mut slot = memo.take_slot(set);
    for_each_split(space, set, constraints, adm, |l, r| {
        stats.splits_tried += 1;
        combine_operands(Split::of(&*memo, l, r), est, policy, &mut slot, stats);
    });
    memo.put_slot(set, slot);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::optimize_partition;
    use mpq_model::{WorkloadConfig, WorkloadGenerator};
    use mpq_partition::{partition_constraints, Grouping};

    fn query(n: usize, seed: u64) -> Query {
        WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).next_query()
    }

    fn unconstrained(n: usize, space: PlanSpace) -> ConstraintSet {
        ConstraintSet::unconstrained(Grouping::new(n, space))
    }

    #[test]
    fn topdown_matches_bottom_up_serial() {
        for seed in 0..4 {
            let q = query(7, seed);
            for space in [PlanSpace::Linear, PlanSpace::Bushy] {
                let cs = unconstrained(7, space);
                let bu = optimize_partition(&q, space, Objective::Single, &cs);
                let td = optimize_partition_topdown(&q, space, Objective::Single, &cs);
                assert_eq!(
                    bu.plans[0].cost().time,
                    td.plans[0].cost().time,
                    "seed {seed} {space:?}"
                );
            }
        }
    }

    #[test]
    fn topdown_matches_bottom_up_partitioned() {
        for seed in 0..3 {
            let q = query(8, seed + 10);
            for id in [0u64, 3, 7] {
                let cs = partition_constraints(8, PlanSpace::Linear, id, 8);
                let bu = optimize_partition(&q, PlanSpace::Linear, Objective::Single, &cs);
                let td = optimize_partition_topdown(&q, PlanSpace::Linear, Objective::Single, &cs);
                assert_eq!(
                    bu.plans[0].cost().time,
                    td.plans[0].cost().time,
                    "partition {id}"
                );
            }
        }
    }

    #[test]
    fn topdown_multi_objective_frontier_matches() {
        let q = query(6, 30);
        let cs = unconstrained(6, PlanSpace::Bushy);
        let bu = optimize_partition(&q, PlanSpace::Bushy, Objective::Multi { alpha: 1.0 }, &cs);
        let td =
            optimize_partition_topdown(&q, PlanSpace::Bushy, Objective::Multi { alpha: 1.0 }, &cs);
        assert_eq!(bu.plans.len(), td.plans.len());
        for p in &bu.plans {
            assert!(td
                .plans
                .iter()
                .any(|t| (t.cost().time - p.cost().time).abs() <= 1e-9 * p.cost().time));
        }
    }

    #[test]
    fn topdown_stores_no_more_sets_than_admissible() {
        let q = query(8, 40);
        let cs = partition_constraints(8, PlanSpace::Linear, 2, 16);
        let adm = AdmissibleSets::new(&cs);
        let td = optimize_partition_topdown(&q, PlanSpace::Linear, Objective::Single, &cs);
        // Stored sets include the n singletons; everything else must be an
        // admissible, root-reachable set.
        assert!(td.stats.stored_sets <= adm.len() as u64 + 8);
    }

    #[test]
    fn topdown_single_table() {
        let q = query(1, 50);
        let cs = unconstrained(1, PlanSpace::Linear);
        let td = optimize_partition_topdown(&q, PlanSpace::Linear, Objective::Single, &cs);
        assert_eq!(td.plans.len(), 1);
        assert_eq!(td.plans[0].num_joins(), 0);
    }
}
