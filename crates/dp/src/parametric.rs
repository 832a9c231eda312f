//! Parametric query optimization (PQO) over plan-space partitions.
//!
//! The paper emphasizes that its partitioning method "is generic and can
//! be applied to" parametric query optimization (Ioannidis et al., VLDBJ
//! 1997; Ganguly, VLDB 1998), where plan costs depend on a parameter
//! unknown at optimization time (e.g. an unbound predicate's
//! selectivity) and the optimizer must return a plan *set* covering the
//! parameter range. As in the paper, only the pruning function changes;
//! the enumeration and the partitioning are untouched.
//!
//! This module implements the scenario-endpoint formulation: the
//! parameter θ ∈ [0, 1] interpolates between two catalog scenarios
//! (`low` = θ 0, `high` = θ 1). Each plan is costed under *both*
//! scenarios simultaneously; pruning keeps the exact Pareto frontier over
//! the two scenario costs. Because operator cost formulas are monotone in
//! the inputs, a plan dominated at both endpoints can never win anywhere
//! in between under the interpolated cost, so the returned set contains
//! an optimal plan for every θ endpoint and a near-optimal one across the
//! range; [`pick_for`] selects from the set at run time once θ is known.

use crate::arena::ArenaMemo;
use crate::stats::WorkerStats;
use crate::worker::{
    complete_plans, for_each_split_filtered, join_candidates, Candidate, Split, SplitEnv,
};
use mpq_cost::{CardinalityEstimator, CostVector, Objective, ScanOp, SplitCosts};
use mpq_model::{Query, TableSet};
use mpq_partition::{AdmissibleSets, ConstraintSet, Grouping, PlanSpace};
use mpq_plan::{Plan, PlanEntry, PlanNode, PruningPolicy};
use std::time::Instant;

/// A query with an unbound parameter, given as its two endpoint
/// scenarios. Both scenarios must join the same tables; typically they
/// differ only in predicate selectivities and/or cardinalities.
#[derive(Clone, Debug)]
pub struct ParametricQuery {
    /// Scenario at θ = 0.
    pub low: Query,
    /// Scenario at θ = 1.
    pub high: Query,
}

impl ParametricQuery {
    /// Creates a parametric query.
    ///
    /// # Panics
    /// Panics if the scenarios disagree on the table count.
    pub fn new(low: Query, high: Query) -> Self {
        assert_eq!(
            low.num_tables(),
            high.num_tables(),
            "scenarios must join the same tables"
        );
        ParametricQuery { low, high }
    }

    /// Number of tables joined.
    pub fn num_tables(&self) -> usize {
        self.low.num_tables()
    }
}

/// Result of a parametric optimization: plans covering the parameter
/// range, each annotated with its two endpoint costs.
#[derive(Clone, Debug)]
pub struct ParametricOutcome {
    /// The plan set: Pareto-optimal over `(cost_low, cost_high)`. Plans
    /// are reconstructed against the `low` scenario's statistics.
    pub plans: Vec<(Plan, CostVector)>,
    /// Work counters.
    pub stats: WorkerStats,
}

/// Interpolated cost of an endpoint-cost pair at parameter `theta`.
pub fn interpolate(costs: &CostVector, theta: f64) -> f64 {
    costs.time * (1.0 - theta) + costs.buffer * theta
}

/// Picks the plan with minimal interpolated cost once `theta` is known.
pub fn pick_for(outcome: &ParametricOutcome, theta: f64) -> &Plan {
    assert!((0.0..=1.0).contains(&theta), "theta must be in [0, 1]");
    outcome
        .plans
        .iter()
        .min_by(|a, b| {
            interpolate(&a.1, theta)
                .partial_cmp(&interpolate(&b.1, theta))
                .expect("finite costs")
        })
        .map(|(p, _)| p)
        .expect("non-empty plan set")
}

/// Runs the parametric DP over one plan-space partition. With an
/// unconstrained set this is the serial parametric optimizer; combined
/// with `partition_constraints` it parallelizes exactly like the
/// single-objective algorithm (one partition per worker, master merges
/// frontiers).
pub fn optimize_parametric_partition(
    pq: &ParametricQuery,
    space: PlanSpace,
    constraints: &ConstraintSet,
) -> ParametricOutcome {
    #[expect(
        clippy::disallowed_methods,
        reason = "measurement, not scheduling evidence: optimize_micros is a reported metric, no decision reads it"
    )]
    let start = Instant::now();
    let n = pq.num_tables();
    let mut memo = ArenaMemo::new(AdmissibleSets::new(constraints));
    // Exact bi-scenario Pareto pruning: reuse the multi-objective policy
    // with α = 1 over the (low, high) cost pair stored in a CostVector.
    let policy = PruningPolicy::new(Objective::Multi { alpha: 1.0 }, n);
    // The memo records the `low` scenario's statistics (the one plans are
    // reconstructed against); the `high` scenario's are estimated per split.
    let lo = CardinalityEstimator::new(&pq.low);
    let mut hi = CardinalityEstimator::new(&pq.high);
    let mut stats = WorkerStats::default();

    for t in 0..n {
        let cl = ScanOp::Full.cost(&lo, t);
        let ch = ScanOp::Full.cost(&hi, t);
        let entry = PlanEntry {
            cost: CostVector::new(cl.time, ch.time),
            order: ScanOp::Full.output_order(),
            node: PlanNode::Scan {
                table: t as u8,
                op: ScanOp::Full,
            },
        };
        memo.push_single(t, lo.set_stats(TableSet::singleton(t)), &[entry]);
    }

    let mut slot = Vec::new();
    for idx in 0..memo.admissible().len() {
        let set = memo.admissible().set_at(idx);
        if set.len() < 2 {
            continue;
        }
        // Left-deep splits with the constraint check; bushy splits via
        // filtered enumeration (simplicity over the product construction
        // here — correctness is identical).
        let env = SplitEnv {
            space,
            constraints,
            adm: memo.admissible(),
        };
        // Orders agree across scenarios (same predicates), so one live
        // set serves both.
        let live = lo.predicates().interesting_orders(set);
        for_each_split_filtered(&env, set, |l, r| {
            stats.splits_tried += 1;
            let split = Split::of(&memo, l, r);
            let costs_hi = SplitCosts::new(&mut hi, l, r);
            // The one candidate loop costs the `low` scenario; the `high`
            // time of the same operator on the same operand plans rides in
            // the buffer component.
            let mut inapplicable = 0;
            let generated = join_candidates(lo.predicates(), &split, live, |c: Candidate<'_>| {
                let Some((high, _)) = costs_hi.time(c.op, c.left.order, c.right.order) else {
                    inapplicable += 1;
                    return;
                };
                let cost = CostVector::new(c.time, c.left.cost.buffer + c.right.cost.buffer + high);
                policy.try_insert(&mut slot, c.entry_costing(cost, l, r));
            });
            stats.plans_generated += generated - inapplicable;
        });
        memo.push_slot(idx, lo.set_stats(set), &slot);
        slot.clear();
    }

    // Each complete plan carries its (low, high) cost pair at the root.
    let mut plans: Vec<(Plan, CostVector)> = complete_plans(&memo)
        .into_iter()
        .map(|p| {
            let cost = p.cost();
            (p, cost)
        })
        .collect();
    // Final prune on completed plans: exact bi-scenario frontier.
    prune_frontier(&mut plans);
    stats.stored_sets = memo.stored_sets();
    stats.total_entries = memo.total_entries();
    stats.optimize_micros = start.elapsed().as_micros() as u64;
    ParametricOutcome { plans, stats }
}

/// Serial parametric optimization over the full plan space.
pub fn optimize_parametric(pq: &ParametricQuery, space: PlanSpace) -> ParametricOutcome {
    let constraints = ConstraintSet::unconstrained(Grouping::new(pq.num_tables(), space));
    optimize_parametric_partition(pq, space, &constraints)
}

/// Merges partition outcomes at the master (the parametric `FinalPrune`).
pub fn merge_parametric(outcomes: Vec<ParametricOutcome>) -> ParametricOutcome {
    let mut plans = Vec::new();
    let mut stats = WorkerStats::default();
    for o in outcomes {
        plans.extend(o.plans);
        stats = stats.max(&o.stats);
    }
    prune_frontier(&mut plans);
    ParametricOutcome { plans, stats }
}

fn prune_frontier(plans: &mut Vec<(Plan, CostVector)>) {
    let costs: Vec<CostVector> = plans.iter().map(|(_, c)| *c).collect();
    let mut keep = vec![true; plans.len()];
    for i in 0..costs.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..costs.len() {
            if i == j || !keep[j] {
                continue;
            }
            if costs[i].dominates(&costs[j]) && (costs[i].strictly_dominates(&costs[j]) || i < j) {
                keep[j] = false;
            }
        }
    }
    let mut idx = 0;
    plans.retain(|_| {
        let k = keep[idx];
        idx += 1;
        k
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::optimize_serial;
    use mpq_model::{WorkloadConfig, WorkloadGenerator};
    use mpq_partition::partition_constraints;

    /// Builds low/high scenarios: same tables, selectivities scaled.
    fn parametric_query(n: usize, seed: u64) -> ParametricQuery {
        let low = WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).next_query();
        let mut high = low.clone();
        for p in &mut high.predicates {
            p.selectivity = (p.selectivity * 50.0).min(0.5);
        }
        ParametricQuery::new(low, high)
    }

    #[test]
    fn endpoint_plans_are_scenario_optimal() {
        for seed in 0..3 {
            let pq = parametric_query(6, seed);
            let out = optimize_parametric(&pq, PlanSpace::Linear);
            let best_low = out
                .plans
                .iter()
                .map(|(_, c)| c.time)
                .fold(f64::INFINITY, f64::min);
            let best_high = out
                .plans
                .iter()
                .map(|(_, c)| c.buffer)
                .fold(f64::INFINITY, f64::min);
            let opt_low = optimize_serial(&pq.low, PlanSpace::Linear, Objective::Single).plans[0]
                .cost()
                .time;
            let opt_high = optimize_serial(&pq.high, PlanSpace::Linear, Objective::Single).plans[0]
                .cost()
                .time;
            assert_eq!(best_low.to_bits(), opt_low.to_bits(), "seed {seed} low");
            assert_eq!(best_high.to_bits(), opt_high.to_bits(), "seed {seed} high");
        }
    }

    #[test]
    fn frontier_has_no_dominated_plan() {
        let pq = parametric_query(6, 10);
        let out = optimize_parametric(&pq, PlanSpace::Linear);
        for (i, (_, a)) in out.plans.iter().enumerate() {
            for (j, (_, b)) in out.plans.iter().enumerate() {
                if i != j {
                    assert!(!a.strictly_dominates(b));
                }
            }
        }
    }

    #[test]
    fn partitioned_parametric_covers_serial() {
        let pq = parametric_query(6, 20);
        let serial = optimize_parametric(&pq, PlanSpace::Linear);
        let m = 4u64;
        let merged = merge_parametric(
            (0..m)
                .map(|id| {
                    let cs = partition_constraints(6, PlanSpace::Linear, id, m);
                    optimize_parametric_partition(&pq, PlanSpace::Linear, &cs)
                })
                .collect(),
        );
        // The merged frontier must cover the serial frontier.
        for (_, sc) in &serial.plans {
            assert!(
                merged.plans.iter().any(|(_, mc)| mc.dominates(sc)),
                "serial frontier point ({}, {}) uncovered",
                sc.time,
                sc.buffer
            );
        }
    }

    #[test]
    fn pick_for_selects_endpoint_optima() {
        let pq = parametric_query(5, 30);
        let out = optimize_parametric(&pq, PlanSpace::Linear);
        let at0 = pick_for(&out, 0.0);
        let at1 = pick_for(&out, 1.0);
        let opt_low = optimize_serial(&pq.low, PlanSpace::Linear, Objective::Single).plans[0]
            .cost()
            .time;
        let opt_high = optimize_serial(&pq.high, PlanSpace::Linear, Objective::Single).plans[0]
            .cost()
            .time;
        // Find the chosen plans' endpoint costs in the outcome.
        let cost_of = |p: &Plan| {
            out.plans
                .iter()
                .find(|(q, _)| q == p)
                .map(|(_, c)| *c)
                .expect("picked plan is in the set")
        };
        assert_eq!(cost_of(at0).time.to_bits(), opt_low.to_bits());
        assert_eq!(cost_of(at1).buffer.to_bits(), opt_high.to_bits());
    }

    #[test]
    fn interpolation_midpoint() {
        let c = CostVector::new(10.0, 30.0);
        assert_eq!(interpolate(&c, 0.0), 10.0);
        assert_eq!(interpolate(&c, 1.0), 30.0);
        assert_eq!(interpolate(&c, 0.5), 20.0);
    }

    #[test]
    fn bushy_parametric_works() {
        let pq = parametric_query(5, 40);
        let out = optimize_parametric(&pq, PlanSpace::Bushy);
        assert!(!out.plans.is_empty());
        let opt_low = optimize_serial(&pq.low, PlanSpace::Bushy, Objective::Single).plans[0]
            .cost()
            .time;
        let best_low = out
            .plans
            .iter()
            .map(|(_, c)| c.time)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(best_low.to_bits(), opt_low.to_bits());
    }

    #[test]
    #[should_panic]
    fn mismatched_scenarios_rejected() {
        let a = WorkloadGenerator::new(WorkloadConfig::paper_default(4), 1).next_query();
        let b = WorkloadGenerator::new(WorkloadConfig::paper_default(5), 1).next_query();
        let _ = ParametricQuery::new(a, b);
    }

    #[test]
    #[should_panic]
    fn pick_for_rejects_out_of_range_theta() {
        let pq = parametric_query(4, 50);
        let out = optimize_parametric(&pq, PlanSpace::Linear);
        let _ = pick_for(&out, 1.5);
    }
}
