//! Parametric query optimization: when predicate selectivities are not
//! known until run time, optimize once for the whole parameter range and
//! pick the right plan the moment the parameter binds — in parallel, with
//! the same plan-space partitioning as ordinary optimization.
//!
//! ```sh
//! cargo run --release --example parametric
//! ```

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use pqopt::dp::{
    interpolate, merge_parametric, optimize_parametric_partition, pick_for, ParametricQuery,
};
use pqopt::partition::partition_constraints;
use pqopt::prelude::*;

fn main() {
    // Two endpoint scenarios of the same 10-table query: at θ = 0 the
    // predicates are highly selective, at θ = 1 they are 100× weaker
    // (e.g. an unbound filter parameter).
    let low = WorkloadGenerator::new(WorkloadConfig::paper_default(10), 11).next_query();
    let mut high = low.clone();
    for p in &mut high.predicates {
        p.selectivity = (p.selectivity * 100.0).min(0.5);
    }
    let pq = ParametricQuery::new(low, high);

    // Parallel parametric optimization: one partition per "worker", the
    // master merges the per-partition frontiers (the parametric analogue
    // of Algorithm 1's FinalPrune).
    let m = 16u64;
    let outcome = merge_parametric(
        (0..m)
            .map(|id| {
                let cs = partition_constraints(10, PlanSpace::Linear, id, m);
                optimize_parametric_partition(&pq, PlanSpace::Linear, &cs)
            })
            .collect(),
    );

    println!(
        "parametric plan set: {} plans cover the whole parameter range\n",
        outcome.plans.len()
    );
    println!("{:>8} {:>14} {:>14}", "plan", "cost @ θ=0", "cost @ θ=1");
    for (i, c) in outcome.plans.iter().map(|p| p.cost()).enumerate() {
        println!("{:>8} {:>14.4e} {:>14.4e}", i, c.time, c.buffer);
    }

    // At run time the parameter binds; plan selection is a linear scan
    // over the (small) plan set — no re-optimization.
    println!("\nrun-time selection:");
    for theta in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let plan = pick_for(&outcome, theta);
        let cost = interpolate(&plan.cost(), theta);
        let order = plan.join_order().expect("left-deep");
        println!("  θ = {theta:<5} -> join order {order:?} (interpolated cost {cost:.4e})");
    }
}
