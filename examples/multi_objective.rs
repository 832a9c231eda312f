//! Multi-objective query optimization: approximate the Pareto frontier
//! over (execution time, buffer space) in parallel, and study the effect
//! of the approximation factor α.
//!
//! ```sh
//! cargo run --release --example multi_objective
//! ```

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_macros)]

use pqopt::prelude::*;

fn main() {
    let mut generator = WorkloadGenerator::new(WorkloadConfig::paper_default(12), 7);
    let query = generator.next_query();
    let optimizer = MpqOptimizer::new(MpqConfig::default());

    // Exact Pareto frontier (α = 1) over 16 workers. Each worker returns
    // the frontier of its plan-space partition; the master merges them.
    let exact = optimizer.optimize(
        &query,
        PlanSpace::Linear,
        Objective::Multi { alpha: 1.0 },
        16,
    );
    println!("exact Pareto frontier: {} plans", exact.plans.len());
    let mut frontier: Vec<_> = exact.plans.iter().map(|p| p.cost()).collect();
    frontier.sort_by(|a, b| a.time.partial_cmp(&b.time).unwrap());
    for c in &frontier {
        println!("  time {:>12.4e}   buffer {:>12.4e}", c.time, c.buffer);
    }

    // α > 1 trades frontier resolution for optimization speed: every
    // possible plan is still α-dominated by some returned plan (the
    // formal guarantee of the pruning function, Trummer & Koch SIGMOD'14).
    println!("\nalpha sweep (16 workers):");
    println!(
        "{:>8} {:>8} {:>12} {:>14}",
        "alpha", "plans", "time (ms)", "worker memory"
    );
    for alpha in [1.0, 1.5, 2.0, 5.0, 10.0] {
        let out = optimizer.optimize(&query, PlanSpace::Linear, Objective::Multi { alpha }, 16);
        println!(
            "{:>8} {:>8} {:>12.2} {:>14}",
            alpha,
            out.plans.len(),
            out.metrics.total_micros as f64 / 1e3,
            out.metrics.max_worker_stored_sets
        );
        // Verify the guarantee against the exact frontier.
        for target in &exact.plans {
            assert!(
                out.plans
                    .iter()
                    .any(|p| p.cost().alpha_dominates(&target.cost(), alpha)),
                "α-guarantee violated"
            );
        }
    }
    println!("\nverified: every exact frontier point is α-covered at every α");
}
