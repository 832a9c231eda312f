//! End-to-end: optimize a query in parallel, then *execute* the chosen
//! plan on synthetic data and compare it against the plan a randomized
//! optimizer picks — connecting plan cost estimates to real work.
//!
//! ```sh
//! cargo run --release --example execute_plan
//! ```

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_macros)]

use pqopt::exec::operators::WorkCounter;
use pqopt::heuristics::{order_to_plan, IiConfig};
use pqopt::prelude::*;

fn main() {
    let mut generator = WorkloadGenerator::new(WorkloadConfig::paper_default(8), 21);
    let query = generator.next_query();

    // Optimize on 8 simulated shared-nothing workers.
    let optimizer = MpqOptimizer::new(MpqConfig::default());
    let outcome = optimizer.optimize(&query, PlanSpace::Bushy, Objective::Single, 8);
    let optimal = &outcome.plans[0];
    println!(
        "optimal plan (estimated cost {:.3e}):\n{optimal}",
        optimal.cost().time
    );

    // A randomized competitor: iterated improvement over join orders.
    let (order, ii_cost) = IterativeImprovement::new(IiConfig {
        restarts: 3,
        seed: 1,
    })
    .optimize(&query);
    let ii_plan = order_to_plan(&query, &order);
    println!(
        "iterated-improvement plan: estimated cost {:.3e} ({:.2}x the optimum)",
        ii_cost,
        ii_cost / optimal.cost().time
    );

    // Materialize synthetic tables consistent with the catalog statistics
    // (capped so the demo runs instantly) and execute both plans.
    let db = Database::generate(
        &query,
        &DataConfig {
            max_rows_per_table: 500,
            seed: 3,
        },
    );
    let (result_opt, stats_opt) = execute(&query, optimal, &db).expect("optimal plan runs");
    let (result_ii, stats_ii) = execute(&query, &ii_plan, &db).expect("II plan runs");

    println!("\nexecution on synthetic data (tables capped at 500 rows):");
    let report = |name: &str, rows: usize, w: &WorkCounter| {
        println!(
            "  {name:<22} result rows: {rows:>6}   comparisons: {:>10}   rows materialized: {:>8}",
            w.comparisons, w.rows_out
        );
    };
    report("optimal plan", result_opt.len(), &stats_opt.work);
    report("iterated improvement", result_ii.len(), &stats_ii.work);

    // Both plans answer the same query: identical result multisets.
    assert_eq!(result_opt.canonical_rows(), result_ii.canonical_rows());
    println!("\nverified: both plans produce the identical result multiset");
}
