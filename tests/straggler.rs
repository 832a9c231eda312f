//! Straggler-redistribution differential suite: stealing may only change
//! *when* work completes, never *what* is computed.
//!
//! The steal scheduler (ISSUE 5 tentpole) splits a lagging range's
//! unstarted remainder and re-issues it to idle workers, relying on the
//! range-echo duplicate suppression for exactness. This suite makes that
//! claim executable, and strictly: for seeded queries over oversubscribed
//! assignments with one worker slowed, steal-on results must be
//! **bit-identical in cost bits and Pareto frontier cost sets** to
//! steal-off results — not merely within tolerance — because partition
//! computations are deterministic and FinalPrune is a pure min/frontier
//! over the candidate pool regardless of how ranges were regrouped.
//!
//! A second family composes stealing with the fault machinery (dropped
//! replies, a crashing straggler) and with concurrent sessions on one
//! resident cluster: costs must still match the fault-free serial
//! reference exactly.

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use pqopt::cost::Objective;
use pqopt::dp::optimize_serial;
use pqopt::model::{Query, WorkloadConfig, WorkloadGenerator};
use pqopt::mpq::MpqOutcome;
use pqopt::partition::PlanSpace;
use pqopt::prelude::{FaultPlan, MpqConfig, MpqService, Plan, QueryId, RetryPolicy};
use std::time::{Duration, Instant};

const WORKERS: usize = 4;
const PARTITIONS: u64 = 16;
const SLOW_FACTOR: u32 = 6;

fn query(n: usize, seed: u64) -> Query {
    WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).next_query()
}

/// Exactness is bit equality: steals and load re-cut the ranges, and a
/// tolerance would let a cut-dependent rounding difference through.
fn bit_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// The frontier as a sorted, deduplicated set of exact cost bit patterns:
/// the object the steal scheduler must preserve bit-for-bit. (Equal-cost
/// plan *trees* may differ — tie-breaks are arrival-order noise even
/// without stealing — so the oracle compares cost bits, not trees.)
fn cost_bits(plans: &[Plan]) -> Vec<(u64, u64)> {
    let mut bits: Vec<(u64, u64)> = plans
        .iter()
        .map(|p| (p.cost().time.to_bits(), p.cost().buffer.to_bits()))
        .collect();
    bits.sort_unstable();
    bits.dedup();
    bits
}

/// One oversubscribed session (`PARTITIONS` over `WORKERS` workers, equal
/// contiguous ranges) on a fresh resident cluster with worker 0 slowed.
fn run(q: &Query, objective: Objective, steal: bool, faults: FaultPlan) -> MpqOutcome {
    run_partitioned(q, objective, steal, faults, PARTITIONS)
}

fn run_partitioned(
    q: &Query,
    objective: Objective,
    steal: bool,
    faults: FaultPlan,
    partitions: u64,
) -> MpqOutcome {
    let mut svc = spawn(steal, faults);
    let out = session(&mut svc, q, objective, partitions);
    svc.shutdown();
    out
}

/// A resident cluster of `WORKERS` workers with worker 0 slowed, retrying
/// whenever `faults` can inject anything.
fn spawn(steal: bool, faults: FaultPlan) -> MpqService {
    let retry = if faults.is_none() {
        RetryPolicy::DISABLED
    } else {
        RetryPolicy {
            max_retries: 256,
            timeout: Some(Duration::from_millis(20)),
            max_strikes: 256,
        }
    };
    let config = MpqConfig {
        steal,
        slow_worker: Some((0, SLOW_FACTOR)),
        faults,
        retry,
    };
    MpqService::spawn(WORKERS, config).expect("service spawns")
}

/// One session over `partitions` in equal contiguous ranges, range *i* on
/// worker *i*.
fn session(svc: &mut MpqService, q: &Query, objective: Objective, partitions: u64) -> MpqOutcome {
    let per_worker = partitions / WORKERS as u64;
    let assignment: Vec<(u64, u64)> = (0..WORKERS as u64)
        .map(|w| (w * per_worker, per_worker))
        .collect();
    svc.submit_assigned(q, PlanSpace::Linear, objective, partitions, assignment)
        .and_then(|handle| svc.wait(handle))
        .expect("session completes")
}

/// The core oracle: steal-on output is bit-identical to steal-off output
/// in cost bits, for single-objective runs under a slowed worker — while
/// the steal machinery demonstrably fires.
#[test]
fn steal_on_is_bit_identical_to_steal_off() {
    let mut total_steals = 0;
    for seed in 0..12u64 {
        let n = 8 + (seed % 2) as usize;
        let q = query(n, seed * 131 + 7);
        let off = run(&q, Objective::Single, false, FaultPlan::NONE);
        let on = run(&q, Objective::Single, true, FaultPlan::NONE);
        assert_eq!(
            cost_bits(&off.plans),
            cost_bits(&on.plans),
            "seed {seed}: steal-on cost bits diverged from steal-off"
        );
        // The serial reference agrees too (bitwise: same partitioned DP).
        let serial = optimize_serial(&q, PlanSpace::Linear, Objective::Single);
        assert_eq!(
            on.plans[0].cost().time.to_bits(),
            serial.plans[0].cost().time.to_bits(),
            "seed {seed}: steal-on diverged from the serial reference"
        );
        assert_eq!(off.metrics.steals, 0, "steal-off must never steal");
        assert_eq!(off.metrics.progress_reports, 0);
        total_steals += on.metrics.steals;
    }
    assert!(
        total_steals >= 1,
        "the slowed worker must trigger at least one steal across the sweep"
    );
}

/// Multi-objective: the exact Pareto frontier (α = 1) survives stealing
/// bit-for-bit as a cost set — while the steal machinery demonstrably
/// fires.
#[test]
fn steal_preserves_pareto_frontiers_bitwise() {
    let objective = Objective::Multi { alpha: 1.0 };
    let mut total_steals = 0;
    for seed in 0..6u64 {
        // 8 partitions: the largest power of two a 7-table linear query
        // supports with headroom, still 2 partitions per worker: while the
        // slowed worker computes its first, its second is stealable.
        let q = query(7, seed * 977 + 3);
        let off = run_partitioned(&q, objective, false, FaultPlan::NONE, 8);
        let on = run_partitioned(&q, objective, true, FaultPlan::NONE, 8);
        assert_eq!(
            cost_bits(&off.plans),
            cost_bits(&on.plans),
            "seed {seed}: steal-on frontier diverged from steal-off"
        );
        assert!(!on.plans.is_empty());
        total_steals += on.metrics.steals;
    }
    assert!(
        total_steals >= 1,
        "the slowed worker must trigger at least one steal across the sweep"
    );
}

/// Stealing composes with loss recovery: dropped replies under an active
/// steal policy still converge to the fault-free serial cost.
#[test]
fn steal_composes_with_dropped_replies() {
    for seed in 0..4u64 {
        let q = query(8, seed + 40);
        let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans[0]
            .cost()
            .time;
        let faults = FaultPlan {
            seed: seed + 1,
            drop_prob: 0.2,
            ..FaultPlan::NONE
        };
        let out = run(&q, Objective::Single, true, faults);
        assert!(
            bit_eq(out.plans[0].cost().time, reference),
            "seed {seed}: {} vs serial {reference}",
            out.plans[0].cost().time
        );
    }
}

/// The straggler itself crashes: the retry machinery must finish whatever
/// the thieves did not cover (the kept head), with stealing active.
#[test]
fn steal_survives_a_crashing_straggler() {
    use pqopt::cluster::FaultAction;
    // Worker 0 crashes on its first task — the very range the steal pass
    // will be carving up.
    let faults = FaultPlan {
        crash_prob: 0.9,
        min_survivors: 1,
        ..FaultPlan::NONE
    }
    .with_seed_where(WORKERS, 4096, |s| {
        s.action(0, 0) == FaultAction::CrashBeforeReply && s.crashing_workers() == vec![0]
    })
    .expect("some seed crashes exactly worker 0 at message 0");
    let q = query(8, 77);
    let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans[0]
        .cost()
        .time;
    let mut svc = spawn(true, faults);
    let out = session(&mut svc, &q, Objective::Single, PARTITIONS);
    assert!(
        bit_eq(out.plans[0].cost().time, reference),
        "{} vs serial {reference}",
        out.plans[0].cost().time
    );
    // The thieves and the head's backup can finish the session before
    // worker 0's thread is scheduled to take (and crash on) its task, so
    // the crash may land after the session's snapshot: wait for it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while svc.metrics().snapshot().crashes == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(svc.metrics().snapshot().crashes >= 1, "the crash must fire");
    svc.shutdown();
}

/// Concurrent steal-on sessions on one resident cluster with a slowed
/// worker: every session stays exact, redeemed in reverse order so
/// routing (not luck) matches results to queries.
#[test]
fn concurrent_sessions_steal_independently_and_stay_exact() {
    let config = MpqConfig {
        steal: true,
        slow_worker: Some((0, SLOW_FACTOR)),
        ..MpqConfig::default()
    };
    let mut svc = MpqService::spawn(WORKERS, config).expect("service spawns");
    let per_worker = PARTITIONS / WORKERS as u64;
    let assignment: Vec<(u64, u64)> = (0..WORKERS as u64)
        .map(|w| (w * per_worker, per_worker))
        .collect();
    let queries: Vec<Query> = (0..6).map(|s| query(8, 500 + s)).collect();
    let handles: Vec<_> = queries
        .iter()
        .map(|q| {
            svc.submit_assigned(
                q,
                PlanSpace::Linear,
                Objective::Single,
                PARTITIONS,
                assignment.clone(),
            )
            .expect("submit")
        })
        .collect();
    for (q, handle) in queries.iter().zip(handles).rev() {
        let out = svc.wait(handle).expect("session completes");
        let serial = optimize_serial(q, PlanSpace::Linear, Objective::Single);
        assert_eq!(
            out.plans[0].cost().time.to_bits(),
            serial.plans[0].cost().time.to_bits(),
            "steal-on resident session diverged from serial"
        );
    }
    svc.shutdown();
}

/// Regression (ISSUE 5 satellite): the no-timeout retry configuration
/// must never reach a suspicion-pass panic — evidence-based recovery
/// still works through `poll`, end to end from the public crate surface.
#[test]
fn no_timeout_retry_config_never_panics() {
    let faults = FaultPlan::crash_on_first_task(2, 1);
    let config = MpqConfig {
        faults,
        retry: RetryPolicy {
            max_retries: 8,
            timeout: None,
            max_strikes: 64,
        },
        ..MpqConfig::default()
    };
    let mut svc = MpqService::spawn(2, config).expect("service spawns");
    let q = query(6, 90);
    let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans[0]
        .cost()
        .time;
    let handle = svc
        .submit(&q, PlanSpace::Linear, Objective::Single)
        .expect("submit");
    let mut out = None;
    for _ in 0..20_000 {
        if let Some(r) = svc.poll(&handle) {
            out = Some(r.expect("evidence-based recovery succeeds"));
            break;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    let out = out.expect("the session completes without a timer");
    assert!(bit_eq(out.plans[0].cost().time, reference));
    // The handle is spent: a second redemption is a typed error.
    assert_eq!(
        svc.wait(handle).expect_err("double redemption"),
        pqopt::mpq::MpqError::UnknownHandle { id: QueryId(0) }
    );
    svc.shutdown();
}
