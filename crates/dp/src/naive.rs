//! Exhaustive reference optimizers for correctness validation.
//!
//! These deliberately share no code with the production dynamic program:
//! [`exhaustive_linear_best_time`] walks every left-deep join order and
//! operator assignment by brute force, and [`exhaustive_frontier`]
//! enumerates every plan per table set with only exact-domination
//! deduplication (which provably preserves both the minimum time and the
//! exact Pareto frontier). Only usable for small queries; tests use n ≤ 6.

use mpq_cost::{CardinalityEstimator, CostVector, Order, ScanOp, JOIN_OPS};
use mpq_model::{Query, TableSet};
use mpq_partition::PlanSpace;
use std::collections::HashMap;

/// Minimum execution time over all left-deep plans, by exhaustive DFS over
/// permutations and operator choices (no pruning, no memoization).
///
/// # Panics
/// Panics for queries with more than 8 tables (the search is factorial).
pub fn exhaustive_linear_best_time(query: &Query) -> f64 {
    let n = query.num_tables();
    assert!(n <= 8, "exhaustive search is factorial; use small queries");
    let mut est = CardinalityEstimator::new(query);
    if n == 1 {
        return ScanOp::Full.cost(&est, 0).time;
    }
    let mut best = f64::INFINITY;
    // Start from each table's scan.
    for first in 0..n {
        let scan = ScanOp::Full.cost(&est, first);
        dfs_linear(
            &mut est,
            TableSet::singleton(first),
            scan,
            Order::None,
            n,
            &mut best,
        );
    }
    best
}

fn dfs_linear(
    est: &mut CardinalityEstimator,
    used: TableSet,
    cost: CostVector,
    order: Order,
    n: usize,
    best: &mut f64,
) {
    if used.len() == n {
        *best = best.min(cost.time);
        return;
    }
    if cost.time >= *best {
        // Costs are monotone, so this branch cannot improve. (This is a
        // bound, not plan pruning: no plan is declared dominated.)
        return;
    }
    for next in 0..n {
        if used.contains(next) {
            continue;
        }
        let inner = TableSet::singleton(next);
        let scan = ScanOp::Full.cost(est, next);
        for op in JOIN_OPS {
            let Some(app) = op.apply(est, used, inner, order, Order::None) else {
                continue;
            };
            let total = cost.add(&scan).add(&app.cost);
            dfs_linear(est, used.insert(next), total, app.output_order, n, best);
        }
    }
}

/// The exact Pareto frontier (over `(time, buffer)`) of all complete plans
/// in the given plan space, by exhaustive enumeration per table set with
/// exact-domination deduplication. For single-objective validation take
/// the minimum `time` over the returned vectors.
///
/// # Panics
/// Panics for queries with more than 10 tables.
pub fn exhaustive_frontier(query: &Query, space: PlanSpace) -> Vec<CostVector> {
    let n = query.num_tables();
    assert!(
        n <= 10,
        "exhaustive enumeration is exponential; use small queries"
    );
    let mut est = CardinalityEstimator::new(query);
    let mut memo: HashMap<u64, Vec<(CostVector, Order)>> = HashMap::new();
    let full = TableSet::full(n);
    let plans = all_plans(query, &mut est, full, space, &mut memo);
    // Completed plans: orders no longer matter; exact frontier over costs.
    let mut frontier: Vec<CostVector> = Vec::new();
    for (c, _) in plans {
        if frontier.iter().any(|f| f.dominates(&c)) {
            continue;
        }
        frontier.retain(|f| !c.dominates(f));
        frontier.push(c);
    }
    frontier
}

#[allow(clippy::only_used_in_recursion)]
fn all_plans(
    query: &Query,
    est: &mut CardinalityEstimator,
    set: TableSet,
    space: PlanSpace,
    memo: &mut HashMap<u64, Vec<(CostVector, Order)>>,
) -> Vec<(CostVector, Order)> {
    if let Some(v) = memo.get(&set.bits()) {
        return v.clone();
    }
    let mut results: Vec<(CostVector, Order)> = Vec::new();
    if set.len() == 1 {
        let t = set.min_table().expect("non-empty");
        results.push((ScanOp::Full.cost(est, t), Order::None));
    } else {
        for left in set.proper_subsets() {
            let right = set.difference(left);
            if space == PlanSpace::Linear && right.len() != 1 {
                continue;
            }
            let lps = all_plans(query, est, left, space, memo);
            let rps = all_plans(query, est, right, space, memo);
            for &(lc, lo) in &lps {
                for &(rc, ro) in &rps {
                    for op in JOIN_OPS {
                        let Some(app) = op.apply(est, left, right, lo, ro) else {
                            continue;
                        };
                        let cost = lc.add(&rc).add(&app.cost);
                        push_dedup(&mut results, cost, app.output_order);
                    }
                }
            }
        }
    }
    memo.insert(set.bits(), results.clone());
    results
}

/// Keeps `(cost, order)` unless an existing pair exactly dominates it in
/// both metrics *and* provides at least its order; removes pairs the new
/// one supersedes. Exact domination never discards a potentially optimal
/// continuation, so the final frontier is exact.
fn push_dedup(results: &mut Vec<(CostVector, Order)>, cost: CostVector, order: Order) {
    let covered = |a: Order, b: Order| b == Order::None || a == b;
    if results
        .iter()
        .any(|&(c, o)| covered(o, order) && c.dominates(&cost))
    {
        return;
    }
    results.retain(|&(c, o)| !(covered(order, o) && cost.dominates(&c)));
    results.push((cost, order));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::optimize_serial;
    use mpq_cost::Objective;
    use mpq_model::{WorkloadConfig, WorkloadGenerator};

    fn query(n: usize, seed: u64) -> Query {
        WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).next_query()
    }

    #[test]
    fn dp_matches_exhaustive_linear() {
        for seed in 0..8 {
            let q = query(5, seed);
            let dp = optimize_serial(&q, PlanSpace::Linear, Objective::Single);
            let brute = exhaustive_linear_best_time(&q);
            let dp_time = dp.plans[0].cost().time;
            assert_eq!(
                dp_time.to_bits(),
                brute.to_bits(),
                "seed {seed}: dp {dp_time} vs brute {brute}"
            );
        }
    }

    #[test]
    fn dp_matches_exhaustive_frontier_min_bushy() {
        for seed in 0..5 {
            let q = query(5, seed + 20);
            let dp = optimize_serial(&q, PlanSpace::Bushy, Objective::Single);
            let frontier = exhaustive_frontier(&q, PlanSpace::Bushy);
            let brute = frontier
                .iter()
                .map(|c| c.time)
                .fold(f64::INFINITY, f64::min);
            let dp_time = dp.plans[0].cost().time;
            assert_eq!(
                dp_time.to_bits(),
                brute.to_bits(),
                "seed {seed}: dp {dp_time} vs brute {brute}"
            );
        }
    }

    #[test]
    fn dp_exact_pareto_matches_exhaustive_frontier() {
        for seed in 0..4 {
            let q = query(4, seed + 40);
            let dp = optimize_serial(&q, PlanSpace::Bushy, Objective::Multi { alpha: 1.0 });
            let mut dp_costs: Vec<CostVector> = dp.plans.iter().map(|p| p.cost()).collect();
            let mut brute = exhaustive_frontier(&q, PlanSpace::Bushy);
            let key = |c: &CostVector| (c.time.to_bits(), c.buffer.to_bits());
            dp_costs.sort_by_key(key);
            brute.sort_by_key(key);
            let bits = |costs: &[CostVector]| costs.iter().map(key).collect::<Vec<_>>();
            assert_eq!(bits(&dp_costs), bits(&brute), "seed {seed}");
        }
    }

    #[test]
    fn alpha_approximation_guarantee_holds() {
        // Every exhaustive-frontier vector must be α-dominated by some plan
        // returned under Objective::Multi { alpha }.
        for seed in 0..4 {
            let q = query(5, seed + 60);
            let alpha = 10.0;
            let approx = optimize_serial(&q, PlanSpace::Linear, Objective::Multi { alpha });
            let exact = {
                // Linear-space exact frontier.
                let mut est = CardinalityEstimator::new(&q);
                let mut memo = HashMap::new();
                let plans = all_plans(
                    &q,
                    &mut est,
                    TableSet::full(q.num_tables()),
                    PlanSpace::Linear,
                    &mut memo,
                );
                let mut frontier: Vec<CostVector> = Vec::new();
                for (c, _) in plans {
                    if frontier.iter().any(|f| f.dominates(&c)) {
                        continue;
                    }
                    frontier.retain(|f| !c.dominates(f));
                    frontier.push(c);
                }
                frontier
            };
            for target in &exact {
                assert!(
                    approx
                        .plans
                        .iter()
                        .any(|p| p.cost().alpha_dominates(target, alpha)),
                    "seed {seed}: frontier point ({}, {}) not α-covered",
                    target.time,
                    target.buffer
                );
            }
        }
    }
}
