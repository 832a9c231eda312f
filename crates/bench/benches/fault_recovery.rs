//! Fault-recovery bill: what does surviving a worker loss cost MPQ, and
//! what *would* it cost SMA?
//!
//! Question: the byte-level asymmetry behind the paper's deployment
//! argument — MPQ suits shared-nothing frameworks because a lost worker
//! costs one re-issued `O(b_q)` task, while SMA would have to re-broadcast
//! the replicated memo. `benchmark/` injects no faults. One worker of four
//! crashes on its first task; `recovery_bytes_mpq_*` is the measured
//! `retry_task_bytes`, `recovery_bytes_sma_*` the `replica_recovery_bytes`
//! SMA's straight-line run bills for the same query. Every id is exact: the
//! suspicion timeout is long enough that only the dead worker's range is
//! ever re-issued. (How long detection takes is that timeout, a setting,
//! not a measurement.)

use mpq_algo::{MpqConfig, MpqOptimizer, RetryPolicy};
use mpq_bench::{print_table, BenchReport};
use mpq_cluster::{FaultAction, FaultPlan};
use mpq_cost::Objective;
use mpq_model::{WorkloadConfig, WorkloadGenerator};
use mpq_partition::PlanSpace;
use mpq_sma::SmaOptimizer;
use std::time::Duration;

const WORKERS: usize = 4;

/// A plan that crashes exactly one worker on its first task,
/// deterministically (seed found once by schedule search).
fn one_crash_plan() -> FaultPlan {
    FaultPlan {
        crash_prob: 0.4,
        min_survivors: 1,
        ..FaultPlan::NONE
    }
    .with_seed_where(WORKERS, 1024, |s| {
        s.crashing_workers().len() == 1
            && (0..WORKERS).any(|w| s.action(w, 0) == FaultAction::CrashBeforeReply)
    })
    .expect("some seed crashes exactly one worker at message 0")
}

fn main() {
    let q = WorkloadGenerator::new(WorkloadConfig::paper_default(10), 5).next_query();
    let (space, objective) = (PlanSpace::Linear, Objective::Single);
    let healthy = MpqOptimizer::default().optimize(&q, space, objective, WORKERS as u64);
    let recovered = MpqOptimizer::new(MpqConfig {
        faults: one_crash_plan(),
        retry: RetryPolicy::with_timeout(16, Duration::from_millis(100)),
        ..MpqConfig::default()
    })
    .try_optimize(&q, space, objective, WORKERS as u64)
    .expect("recovery succeeds");
    assert_eq!(
        recovered.plans[0].cost().time.to_bits(),
        healthy.plans[0].cost().time.to_bits(),
        "recovery must return the fault-free optimum"
    );
    let sma = SmaOptimizer
        .try_optimize(&q, space, objective, WORKERS)
        .expect("fault-free SMA run");
    let (mpq, sma) = (recovered.metrics, sma.metrics);
    assert!(
        mpq.retries == 1 && mpq.retry_task_bytes < sma.replica_recovery_bytes,
        "one lost worker is one re-issued task, cheaper than a replica ({mpq:?})"
    );

    let mut report = BenchReport::new("fault_recovery");
    report
        .exact(
            "recovery_retries_mpq_linear10_w4",
            "count",
            mpq.retries as f64,
        )
        .exact(
            "recovery_bytes_mpq_linear10_w4",
            "bytes",
            mpq.retry_task_bytes as f64,
        )
        .exact(
            "recovery_bytes_sma_linear10_w4",
            "bytes",
            sma.replica_recovery_bytes as f64,
        );
    print_table(
        "bytes to recover one lost worker of 4 (Linear 10)",
        &[
            "MPQ retries",
            "MPQ re-issued task(B)",
            "SMA replica rebuild(B)",
        ],
        &[vec![
            mpq.retries.to_string(),
            mpq.retry_task_bytes.to_string(),
            sma.replica_recovery_bytes.to_string(),
        ]],
    );
    report.write();
}
