//! Straggler-adaptive work redistribution: does stealing beat static
//! assignment when one worker is slow?
//!
//! Question: the only ids that can show the opt-in `MpqConfig::steal`
//! switch winning (every `benchmark/` workload leaves it off, and no
//! worker there is slow). The paper's MPQ assigns each worker a fixed
//! slice of the partition space up front, so one slow node bounds the
//! whole session. This bench slows **one worker 10x** (it sleeps 9x its
//! measured compute time per partition) on an oversubscribed assignment
//! and measures **session completion time at the master** — submit to
//! wait on a resident [`MpqService`], excluding cluster spawn/teardown
//! (teardown joins the straggler's in-flight task, which is exactly the
//! wait stealing exists to avoid) — with stealing off (static assignment,
//! the paper's algorithm) and on (the straggler's unstarted remainder is
//! split across the idle fast workers and its head is speculatively
//! backed up). The straggler's sleep, not this host's core count, sets
//! both numbers, so the comparison holds on two cores.
//!
//! Records both as `straggler_{static,steal}_*` and **asserts the
//! acceptance bar**: with stealing on, median completion time beats
//! static assignment. These two ids fix the steal rule's constants (lag
//! ratio 2, at most 16 steals per session, a report after every
//! partition; `crates/mpq/src/service.rs`). Exactness under stealing is
//! proven separately by `tests/straggler.rs` (byte-identical cost bits
//! and frontiers).
//!
//! Knobs to play with (see EXPERIMENTS.md): `SLOW_FACTOR`, `PARTITIONS`
//! (range granularity — more partitions mean a finer-grained steal) and
//! `WORKERS`.

use mpq_algo::{MpqConfig, MpqService};
use mpq_bench::{median, print_table, BenchReport};
use mpq_cost::Objective;
use mpq_model::{WorkloadConfig, WorkloadGenerator};
use mpq_partition::PlanSpace;
use std::hint::black_box;
use std::time::Instant;

const TABLES: usize = 11;
const WORKERS: usize = 4;
const PARTITIONS: u64 = 32;
const SLOW_FACTOR: u32 = 10;
const SAMPLES: u64 = 7;

/// One session on a fresh resident cluster: the timed region is
/// submit → wait; spawn and shutdown (which drains the straggler's
/// leftover task) stay outside. Milliseconds.
fn run_once(steal: bool, seed: u64) -> f64 {
    let config = MpqConfig {
        steal,
        slow_worker: Some((0, SLOW_FACTOR)),
        ..MpqConfig::default()
    };
    let mut svc = MpqService::spawn(WORKERS, config).expect("service spawns");
    let q = WorkloadGenerator::new(WorkloadConfig::paper_default(TABLES), seed).next_query();
    let per_worker = PARTITIONS / WORKERS as u64;
    let assignment: Vec<(u64, u64)> = (0..WORKERS as u64)
        .map(|w| (w * per_worker, per_worker))
        .collect();
    let t0 = Instant::now();
    let out = svc
        .submit_assigned(
            black_box(&q),
            PlanSpace::Linear,
            Objective::Single,
            PARTITIONS,
            assignment,
        )
        .and_then(|handle| svc.wait(handle))
        .expect("session completes");
    let elapsed = t0.elapsed().as_secs_f64() * 1e3;
    let _ = black_box(out);
    svc.shutdown();
    elapsed
}

fn main() {
    let setup = format!("linear{TABLES}_w{WORKERS}_p{PARTITIONS}_slow{SLOW_FACTOR}x");
    let mut report = BenchReport::new("straggler");
    report.config("samples", SAMPLES);
    let mut medians = Vec::new();
    for (label, steal) in [("static", false), ("steal", true)] {
        let mut ms: Vec<f64> = (0..SAMPLES).map(|seed| run_once(steal, seed)).collect();
        report.timing(&format!("straggler_{label}_{setup}"), "ms", &ms);
        medians.push(median(&mut ms));
    }
    let (static_ms, steal_ms) = (medians[0], medians[1]);
    print_table(
        &format!(
            "straggler redistribution ({TABLES}-table queries, {PARTITIONS} partitions over \
             {WORKERS} workers, worker 0 slowed {SLOW_FACTOR}x): median completion"
        ),
        &["static (ms)", "steal (ms)", "speedup"],
        &[vec![
            format!("{static_ms:.1}"),
            format!("{steal_ms:.1}"),
            format!("{:.2}x", static_ms / steal_ms),
        ]],
    );
    report.write();
    assert!(
        steal_ms < static_ms,
        "acceptance bar: with one worker slowed {SLOW_FACTOR}x, stealing must beat static \
         assignment, got static {static_ms:.1} ms vs steal {steal_ms:.1} ms"
    );
}
