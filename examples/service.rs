//! The persistent optimizer service: one resident cluster, many
//! concurrent queries.
//!
//! Run with `cargo run --release --example service`.
//!
//! The pre-service architecture spawned (and joined) a simulated cluster
//! per query, so thread setup — not optimization — dominated at high
//! query rates. This example streams a batch of queries through one
//! long-lived [`OptimizerService`] with several submissions in flight,
//! polls handles as the sessions complete in whatever order the cluster
//! produces them, and compares the wall-clock against spawn-per-query
//! mode on the identical workload.

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)]

use pqopt::prelude::*;
use std::time::Instant;

const WORKERS: usize = 4;
const QUERIES: u64 = 16;

fn workload() -> Vec<Query> {
    (0..QUERIES)
        .map(|seed| {
            let tables = 6 + (seed as usize % 3);
            WorkloadGenerator::new(WorkloadConfig::paper_default(tables), seed).next_query()
        })
        .collect()
}

fn main() {
    let queries = workload();

    // Resident mode: spawn once, submit everything, poll to completion.
    let t0 = Instant::now();
    let mut service = OptimizerService::spawn(ServiceConfig::new(WORKERS)).expect("spawn");
    let mut handles: Vec<(usize, ServiceHandle)> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let h = service
                .submit(q, PlanSpace::Linear, Objective::Single)
                .expect("submit");
            (i, h)
        })
        .collect();
    println!(
        "submitted {} queries to one {}-worker resident cluster",
        handles.len(),
        WORKERS
    );
    // Sessions finish in cluster order, not submission order; poll and
    // report as they land.
    while !handles.is_empty() {
        handles.retain_mut(|(i, handle)| match service.poll(handle) {
            None => true,
            Some(result) => {
                let plans = result.expect("session completes");
                println!(
                    "  query {i:>2} done: cost {:.3e}, {} plan(s)",
                    plans[0].cost().time,
                    plans.len()
                );
                false
            }
        });
        // Sleep rather than busy-spin between passes: a spinning poll
        // loop would steal a core from the workers and skew the
        // wall-clock comparison below.
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    let resident = t0.elapsed();
    service.shutdown();

    // Spawn-per-query mode: the same workload, a fresh cluster each time.
    let t0 = Instant::now();
    for q in &queries {
        let mut one_shot = OptimizerService::spawn(ServiceConfig::new(WORKERS)).expect("spawn");
        one_shot
            .optimize(q, PlanSpace::Linear, Objective::Single)
            .expect("optimize");
        one_shot.shutdown();
    }
    let per_query = t0.elapsed();

    println!(
        "resident: {:.1} ms   spawn-per-query: {:.1} ms   speedup: {:.2}x",
        resident.as_secs_f64() * 1e3,
        per_query.as_secs_f64() * 1e3,
        per_query.as_secs_f64() / resident.as_secs_f64().max(1e-9)
    );
}
