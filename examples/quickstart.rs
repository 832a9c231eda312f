//! Quickstart: optimize one join query on a simulated shared-nothing
//! cluster and inspect the result.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use pqopt::prelude::*;

fn main() {
    // A 10-table star-join query with Steinbrunn-style random statistics —
    // the workload family the paper benchmarks with.
    let mut generator = WorkloadGenerator::new(WorkloadConfig::paper_default(10), 42);
    let query = generator.next_query();
    println!(
        "query: {} tables, {} predicates, {:?} join graph",
        query.num_tables(),
        query.predicates.len(),
        query.graph
    );

    // Optimize over 8 simulated shared-nothing workers. Each worker
    // receives the query plus a plan-space partition ID, searches only its
    // partition, and returns its best plan; the master keeps the cheapest.
    let optimizer = MpqOptimizer::new(MpqConfig::default());
    let outcome = optimizer.optimize(&query, PlanSpace::Linear, Objective::Single, 8);

    let best = &outcome.plans[0];
    println!("\noptimal left-deep plan (cost {:.3e}):", best.cost().time);
    println!(
        "{}",
        explain(&query, best).expect("an optimizer plan fits its query")
    );
    println!("join order: {:?}", best.join_order().expect("left-deep"));

    let m = &outcome.metrics;
    println!("partitions used:        {}", m.partitions);
    println!(
        "total time:             {:.2} ms",
        m.total_micros as f64 / 1e3
    );
    println!(
        "max worker time:        {:.2} ms",
        m.max_worker_micros as f64 / 1e3
    );
    println!("network traffic:        {} bytes", m.network.total_bytes());
    println!("communication rounds:   {}", m.network.rounds);
    println!(
        "max worker memory:      {} relations",
        m.max_worker_stored_sets
    );

    // Sanity: the parallel result equals the classical serial optimum.
    let serial = optimize_serial(&query, PlanSpace::Linear, Objective::Single);
    assert_eq!(serial.plans[0].cost().time, best.cost().time);
    println!("\nverified: parallel optimum == serial optimum");
}
