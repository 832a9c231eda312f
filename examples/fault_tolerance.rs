//! Fault tolerance demo: the paper's Spark re-execution argument, live.
//!
//! Runs one query on a simulated cluster under a deterministic fault plan
//! that crashes workers and delays stragglers, and prices the alternative:
//!
//! * **MPQ** recovers — every lost partition range is re-issued to a
//!   surviving worker as one `O(b_q)` task, and the final plan cost is
//!   bit-identical to the fault-free run;
//! * **SMA** would have to rebuild a lost replica by re-sending `Init`
//!   plus every `Delta` broadcast: its fault-free run's
//!   `replica_recovery_bytes`, printed beside MPQ's re-issued tasks.
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use pqopt::cluster::{FaultPlan, Wire};
use pqopt::mpq::RetryPolicy;
use pqopt::prelude::*;
use pqopt::sma::SmaOptimizer;
use std::time::Duration;

fn main() {
    let tables = 12;
    let workers = 8;
    let query = WorkloadGenerator::new(WorkloadConfig::paper_default(tables), 42).next_query();

    // A hostile but survivable cluster: roughly half the workers crash,
    // some replies are dropped, some straggle 30 ms. Same seed → same
    // fault schedule, run after run.
    let faults = FaultPlan {
        seed: 7,
        crash_prob: 0.5,
        crash_after_reply_prob: 0.2,
        drop_prob: 0.15,
        straggle_prob: 0.2,
        straggle_us: 30_000,
        min_survivors: 1,
    };
    let schedule = faults.schedule(workers);
    println!(
        "{tables}-table query on {workers} workers; fault schedule (seed {}) will crash workers {:?}",
        faults.seed,
        schedule.crashing_workers()
    );

    // Reference: the fault-free optimum.
    let fault_free = MpqOptimizer::new(MpqConfig::default()).optimize(
        &query,
        PlanSpace::Linear,
        Objective::Single,
        workers as u64,
    );
    let reference = fault_free.plans[0].cost().time;

    // MPQ under fire, with retries and speculative re-execution.
    let mpq = MpqOptimizer::new(MpqConfig {
        faults,
        retry: RetryPolicy::with_timeout(64, Duration::from_millis(15)),
        ..MpqConfig::default()
    });
    match mpq.try_optimize(&query, PlanSpace::Linear, Objective::Single, workers as u64) {
        Ok(out) => {
            let m = &out.metrics;
            println!("\nMPQ survived:");
            println!(
                "  optimal cost     {:>14.2}  (fault-free: {:.2})",
                out.plans[0].cost().time,
                reference
            );
            println!("  crashes injected {:>14}", m.network.crashes);
            println!("  replies dropped  {:>14}", m.network.drops);
            println!("  stragglers       {:>14}", m.network.straggles);
            println!("  master timeouts  {:>14}", m.network.timeouts);
            println!("  task re-issues   {:>14}", m.retries);
            println!("  duplicate work   {:>14}", m.duplicate_replies);
            println!(
                "  recovery bytes   {:>14}  (re-issued tasks, O(b_q) each)",
                m.retry_task_bytes
            );
            assert_eq!(
                out.plans[0].cost().time,
                reference,
                "faults must not change the optimum"
            );
        }
        Err(e) => println!("\nMPQ failed (retry budget too small for this plan): {e}"),
    }

    // SMA holds a replicated memo: a lost worker is one replica to
    // rebuild, which costs every byte a replica has received.
    let sma = SmaOptimizer.optimize(&query, PlanSpace::Linear, Objective::Single, workers);
    println!(
        "\nSMA replica rebuild would re-send {} bytes (Init + every Delta) — versus one \
         O(b_q) task re-issue ({} bytes) for MPQ",
        sma.metrics.replica_recovery_bytes,
        query.to_bytes().len()
    );
}
