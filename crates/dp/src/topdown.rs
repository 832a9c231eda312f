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
//! admissible-set count (`topdown_stores_no_more_sets_than_admissible`
//! checks the bound).

use crate::arena::ArenaMemo;
use crate::stats::WorkerStats;
use crate::worker::{
    combine_operands, finish, for_each_split_filtered, seed_scans, PartitionOutcome, Split,
    SplitEnv,
};
use mpq_cost::{CardinalityEstimator, Objective};
use mpq_model::{Query, TableSet};
use mpq_partition::{AdmissibleSets, ConstraintSet, PlanSpace};
use mpq_plan::PruningPolicy;
use std::time::Instant;

/// Optimizes one partition by memoized top-down enumeration. Produces the
/// same plans as [`crate::optimize_partition`].
pub fn optimize_partition_topdown(
    query: &Query,
    space: PlanSpace,
    objective: Objective,
    constraints: &ConstraintSet,
) -> PartitionOutcome {
    #[expect(
        clippy::disallowed_methods,
        reason = "measurement, not scheduling evidence: optimize_micros is a reported metric, no decision reads it"
    )]
    let start = Instant::now();
    let n = query.num_tables();
    let adm = AdmissibleSets::new(constraints);
    let mut run = TopDown {
        env: SplitEnv {
            space,
            constraints,
            adm: &adm,
        },
        policy: PruningPolicy::new(objective, n),
        memo: ArenaMemo::new(adm.clone()),
        est: CardinalityEstimator::new(query),
        expanded: vec![false; adm.len()],
        stats: WorkerStats::default(),
    };
    seed_scans(&mut run.memo, &run.est, &run.policy);
    run.expand(TableSet::full(n));
    finish(&run.memo, &run.policy, run.stats, start)
}

/// State of one top-down run.
struct TopDown<'a> {
    env: SplitEnv<'a>,
    policy: PruningPolicy,
    memo: ArenaMemo,
    est: CardinalityEstimator,
    /// Which admissible sets have been expanded, by dense index.
    expanded: Vec<bool>,
    stats: WorkerStats,
}

impl TopDown<'_> {
    /// Recursively materializes the optimal entries for `set`, expanding
    /// each admissible set at most once.
    fn expand(&mut self, set: TableSet) {
        if set.len() < 2 {
            return;
        }
        let Some(idx) = self.env.adm.index_of(set) else {
            return;
        };
        if std::mem::replace(&mut self.expanded[idx], true) {
            return;
        }
        let env = self.env;
        // Recursion pass: children must be final before we combine. The
        // split walk is repeated below instead of materialized — split
        // enumeration is cheap next to plan generation, and this keeps the
        // expansion allocation-free.
        for_each_split_filtered(&env, set, |l, r| {
            self.expand(l);
            self.expand(r);
        });
        // Combine pass: the slot is built outside the memo, so the child
        // entry slices can be read straight from the memo without cloning.
        let predicates = self.est.predicates();
        let live = predicates.interesting_orders(set);
        let mut slot = Vec::new();
        for_each_split_filtered(&env, set, |l, r| {
            self.stats.splits_tried += 1;
            let split = Split::of(&self.memo, l, r);
            combine_operands(
                &split,
                live,
                predicates,
                &self.policy,
                &mut slot,
                &mut self.stats,
            );
        });
        self.memo.push_slot(idx, self.est.set_stats(set), &slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::optimize_partition;
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
                .any(|t| t.cost().time.to_bits() == p.cost().time.to_bits()));
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
