//! Chaos suite: property tests that fault-tolerant MPQ is exactly as
//! correct as fault-free MPQ, for *any* seeded fault plan.
//!
//! The central invariant (the paper's Spark re-execution argument made
//! executable): as long as a [`FaultPlan`] leaves at least one worker
//! alive, the retrying master returns a plan with **exactly** the
//! fault-free optimal cost — crashes, drops and stragglers cost retries
//! and duplicated work, never correctness. A second family of properties
//! checks the accounting: every reply is either a completed range or a
//! counted duplicate, retries never exceed observed timeouts, and every
//! injected fault appears in the metrics.
//!
//! Case count defaults to a small fixed number and honors the
//! `PROPTEST_CASES` environment variable (CI runs more cases in release
//! mode). The vendored proptest is deterministic per run, and fault
//! schedules are deterministic per seed — a failure message contains the
//! generated `FaultPlan`, which reproduces the schedule exactly.

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_macros)]

use pqopt::cluster::{FaultAction, FaultPlan, Wire};
use pqopt::cost::{CostVector, Objective};
use pqopt::dp::optimize_serial;
use pqopt::model::{Query, WorkloadConfig, WorkloadGenerator};
use pqopt::mpq::{MpqError, MpqService, RetryPolicy};
use pqopt::partition::PlanSpace;
use pqopt::prelude::{MpqConfig, MpqOptimizer, OptimizerService, ServiceConfig};
use pqopt::sma::SmaOptimizer;
use proptest::prelude::*;
use std::time::Duration;

fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Exactness is bit equality: every engine sums the same operator costs
/// in the same order, under any cut, retry or steal — a tolerance would
/// let a cut-dependent rounding difference through.
fn bit_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn query(n: usize, seed: u64) -> Query {
    WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).next_query()
}

/// Any fault plan that guarantees at least one surviving worker.
fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        0.0..=1.0f64,
        0.0..=1.0f64,
        0.0..=0.35f64,
        0.0..=0.35f64,
        0u64..40_000,
    )
        .prop_map(
            |(seed, crash_prob, crash_after_reply_prob, drop_prob, straggle_prob, straggle_us)| {
                FaultPlan {
                    seed,
                    crash_prob,
                    crash_after_reply_prob,
                    drop_prob,
                    straggle_prob,
                    straggle_us,
                    min_survivors: 1,
                }
            },
        )
}

/// A recovery policy generous enough that only a fault-*injection* bug —
/// never exhaustion — can fail a run under `arb_fault_plan`.
fn chaos_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 512,
        timeout: Some(Duration::from_millis(20)),
        max_strikes: 512,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(10)))]

    /// The chaos invariant: any fault plan with ≥ 1 survivor yields
    /// exactly the fault-free optimal cost, and the recovery ledger
    /// balances.
    #[test]
    fn faulty_mpq_returns_fault_free_optimal_cost(
        plan in arb_fault_plan(),
        qseed in any::<u64>(),
        n in 4usize..=7,
        workers in 2u64..=8,
    ) {
        let q = query(n, qseed);
        let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans[0]
            .cost()
            .time;
        let opt = MpqOptimizer::new(MpqConfig {
            faults: plan,
            retry: chaos_retry(),
            ..MpqConfig::default()
        });
        let out = opt
            .try_optimize(&q, PlanSpace::Linear, Objective::Single, workers)
            .map_err(|e| TestCaseError::fail(format!("run failed under {plan:?}: {e}")))?;
        let m = &out.metrics;

        // Exactness: faults never change the chosen plan's cost.
        prop_assert_eq!(out.plans.len(), 1);
        let got = out.plans[0].cost().time;
        prop_assert!(
            bit_eq(got, reference),
            "plan {:?}: faulty cost {} vs fault-free {}", plan, got, reference
        );

        // Ledger: every reply completed a range or was counted as a
        // duplicate — no reply vanishes silently.
        prop_assert_eq!(
            m.replies_received,
            m.workers_used as u64 + m.duplicate_replies,
            "reply ledger must balance: {:?}", m.network
        );
        // Every retry was provoked by an observed timeout.
        prop_assert!(
            m.retries <= m.network.timeouts,
            "retries {} must not exceed timeouts {}", m.retries, m.network.timeouts
        );
        // Fault accounting: the aggregate equals the per-kind counters,
        // and a fault-free plan must inject nothing.
        prop_assert_eq!(
            m.network.faults_injected(),
            m.network.crashes + m.network.drops + m.network.straggles
        );
        if plan.is_none() {
            prop_assert_eq!(m.network.faults_injected(), 0);
        }
        // Survivor guarantee: at most workers-1 crashes.
        prop_assert!(m.network.crashes < m.workers_used as u64);
        // Recovery cost is task re-issues only: O(retries · b_q).
        prop_assert_eq!(m.retry_task_bytes > 0, m.retries > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(6)))]

    /// Multi-objective mode: the merged Pareto frontier under faults is
    /// exactly the fault-free frontier.
    #[test]
    fn faulty_mpq_preserves_pareto_frontier(
        plan in arb_fault_plan(),
        qseed in any::<u64>(),
        n in 4usize..=6,
        workers in 2u64..=4,
    ) {
        let q = query(n, qseed);
        let objective = Objective::Multi { alpha: 1.0 };
        let reference: Vec<CostVector> = optimize_serial(&q, PlanSpace::Linear, objective)
            .plans
            .iter()
            .map(|p| p.cost())
            .collect();
        let opt = MpqOptimizer::new(MpqConfig {
            faults: plan,
            retry: chaos_retry(),
            ..MpqConfig::default()
        });
        let out = opt
            .try_optimize(&q, PlanSpace::Linear, objective, workers)
            .map_err(|e| TestCaseError::fail(format!("run failed under {plan:?}: {e}")))?;
        let frontier: Vec<CostVector> = out.plans.iter().map(|p| p.cost()).collect();
        let covered = |xs: &[CostVector], ys: &[CostVector]| {
            xs.iter().all(|x| {
                ys.iter()
                    .any(|y| bit_eq(x.time, y.time) && bit_eq(x.buffer, y.buffer))
            })
        };
        prop_assert!(
            covered(&reference, &frontier) && covered(&frontier, &reference),
            "plan {:?}: frontier {:?} vs fault-free {:?}", plan, frontier, reference
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(32)))]

    /// FaultPlan determinism: the same seed resolves to the same schedule,
    /// point-wise over every (worker, message) pair.
    #[test]
    fn fault_schedules_are_deterministic_per_seed(
        plan in arb_fault_plan(),
        workers in 1usize..=16,
    ) {
        let a = plan.schedule(workers);
        let b = plan.schedule(workers);
        prop_assert_eq!(&a, &b);
        for w in 0..workers {
            for m in 0..8u64 {
                prop_assert_eq!(a.action(w, m), b.action(w, m));
            }
        }
        // min_survivors is honored for any probability mix.
        prop_assert!(a.crashing_workers().len() < workers.max(1));
    }
}

/// Regression (ISSUE: master-side panic paths): a crashed worker with
/// retries disabled yields a typed error, never a panic.
#[test]
fn crashed_worker_with_retries_disabled_is_a_typed_error() {
    let q = query(6, 99);
    let opt = MpqOptimizer::new(MpqConfig {
        faults: FaultPlan::crash_on_first_task(4, 1),
        retry: RetryPolicy {
            max_retries: 0,
            timeout: Some(Duration::from_millis(15)),
            max_strikes: 16,
        },
        ..MpqConfig::default()
    });
    let err = opt
        .try_optimize(&q, PlanSpace::Linear, Objective::Single, 4)
        .expect_err("crashed worker without retries must be an error");
    assert!(
        matches!(err, MpqError::WorkerLost { .. }),
        "expected WorkerLost, got {err}"
    );
}

/// Regression: when *every* worker dies (min_survivors 0), the master
/// reports a typed error instead of panicking or hanging — with or
/// without a timeout configured.
#[test]
fn all_workers_lost_is_a_typed_error() {
    let q = query(5, 7);
    // Find a seed where every worker of a 2-node cluster crashes on its
    // first message, so even the blocking-recv path terminates.
    let faults = FaultPlan {
        crash_prob: 1.0,
        min_survivors: 0,
        ..FaultPlan::NONE
    }
    .with_seed_where(2, 512, |s| {
        (0..2).all(|w| s.action(w, 0) == FaultAction::CrashBeforeReply)
    })
    .expect("some seed crashes both workers immediately");
    for retry in [
        RetryPolicy::DISABLED, // blocking recv: channel disconnect path
        RetryPolicy::with_timeout(8, Duration::from_millis(10)),
    ] {
        let opt = MpqOptimizer::new(MpqConfig {
            faults,
            retry,
            ..MpqConfig::default()
        });
        let err = opt
            .try_optimize(&q, PlanSpace::Linear, Objective::Single, 2)
            .expect_err("a fully-dead cluster must be an error");
        assert!(
            matches!(
                err,
                MpqError::Cluster(_)
                    | MpqError::WorkerLost { .. }
                    | MpqError::RetriesExhausted { .. }
            ),
            "unexpected error {err}"
        );
    }
}

/// The paper's deployment contrast, end to end: under a crash plan,
/// fault-tolerant MPQ recovers and stays optimal by re-issuing one task,
/// while replacing a lost SMA replica would re-ship `Init` plus every
/// `Delta` — the straight-line run's `replica_recovery_bytes`, as the
/// `fault_recovery` bench compares them.
#[test]
fn mpq_survives_where_sma_fails() {
    let faults = FaultPlan::crash_on_first_task(4, 1);
    let q = query(7, 123);
    let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans[0]
        .cost()
        .time;

    let mpq = MpqOptimizer::new(MpqConfig {
        faults,
        retry: RetryPolicy::with_timeout(64, Duration::from_millis(20)),
        ..MpqConfig::default()
    });
    let out = mpq
        .try_optimize(&q, PlanSpace::Linear, Objective::Single, 4)
        .expect("MPQ recovers from worker loss");
    assert!(bit_eq(out.plans[0].cost().time, reference));
    assert!(out.metrics.retries >= 1);

    let sma = SmaOptimizer
        .try_optimize(&q, PlanSpace::Linear, Objective::Single, 4)
        .expect("fault-free SMA run");
    let bill = sma.metrics.replica_recovery_bytes;
    assert!(
        bill >= q.to_bytes().len() as u64,
        "SMA recovery re-ships at least the Init payload"
    );
    assert!(
        out.metrics.retry_task_bytes < bill,
        "re-issuing MPQ's lost task ({} B) costs less than one replica ({bill} B)",
        out.metrics.retry_task_bytes
    );
}

/// The resident-service chaos contract (tentpole acceptance): one
/// long-lived cluster, 24 queries concurrently in flight, faults injected
/// throughout — crashes (workers stay dead across *sessions*), dropped
/// replies and stragglers — and every session must still return exactly
/// the fault-free serial-DP cost. Results are redeemed in reverse
/// submission order so demultiplexing is load-bearing, not cosmetic.
#[test]
fn resident_service_under_faults_matches_serial_for_concurrent_sessions() {
    const QUERIES: u64 = 24;
    let faults = FaultPlan {
        seed: 9,
        crash_prob: 0.3,
        crash_after_reply_prob: 0.5,
        drop_prob: 0.15,
        straggle_prob: 0.1,
        straggle_us: 30_000,
        min_survivors: 1,
    };
    let mut service = MpqService::spawn(
        4,
        MpqConfig {
            faults,
            retry: chaos_retry(),
            ..MpqConfig::default()
        },
    )
    .expect("service spawns");
    let mut submitted = Vec::new();
    for seed in 0..QUERIES {
        let q = query(4 + (seed as usize % 4), seed * 31 + 5);
        let handle = service
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .expect("submit routes around dead workers");
        submitted.push((q, handle));
    }
    assert_eq!(service.in_flight(), QUERIES as usize);
    for (q, handle) in submitted.into_iter().rev() {
        let out = service
            .wait(handle)
            .expect("every session recovers with >= 1 survivor");
        let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans[0]
            .cost()
            .time;
        assert!(
            bit_eq(out.plans[0].cost().time, reference),
            "faulty resident service diverged: {} vs {}",
            out.plans[0].cost().time,
            reference
        );
        // Per-session reply ledger balances under concurrency too.
        assert_eq!(
            out.metrics.replies_received,
            out.metrics.workers_used as u64 + out.metrics.duplicate_replies
        );
    }
    let s = service.metrics().snapshot();
    assert!(
        s.faults_injected() >= 1,
        "the fault plan must actually fire: {s:?}"
    );
    assert!(
        s.crashes < 4,
        "min_survivors must hold across the whole stream"
    );
    service.shutdown();
}

/// The service's result cache under faults: one cached service whose
/// first run rides out a seeded worker crash. With the cache at the
/// facade, the crash takes no cached state with it; warm repeats are the
/// cold answer bit for bit and send nothing — no task, no round.
fn cached_faulty_service(
    faults: FaultPlan,
    retry: RetryPolicy,
    workers: usize,
) -> OptimizerService {
    let mut config = ServiceConfig::with_cache(workers, 1 << 20);
    config.mpq = MpqConfig {
        faults,
        retry,
        ..MpqConfig::default()
    };
    OptimizerService::spawn(config).expect("service spawns")
}

/// Cached sessions under faults (ISSUE 4 satellite): a worker crash on a
/// resident cluster behind a warm result cache must still yield exactly
/// the fault-free cost. The cache is the facade's, so the crashed worker
/// takes nothing with it: every warm repeat is served without a message,
/// and every submission is one hit or one miss (nothing coalesces here).
#[test]
fn worker_crash_with_warm_shard_caches_stays_exact() {
    let faults = FaultPlan::crash_on_first_task(4, 3);
    let retry = RetryPolicy::with_timeout(64, Duration::from_millis(20));
    let mut svc = cached_faulty_service(faults, retry, 4);
    let q = query(7, 321);
    let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans[0]
        .cost()
        .time;
    let cold = svc
        .optimize(&q, PlanSpace::Linear, Objective::Single)
        .expect("recovery succeeds");
    assert!(bit_eq(cold[0].cost().time, reference));
    let sent = svc.network_snapshot().expect("a cluster backend");
    assert!(sent.crashes >= 1, "the crash must fire");
    for run in 1..3 {
        let warm = svc
            .optimize(&q, PlanSpace::Linear, Objective::Single)
            .expect("a hit cannot fail");
        assert_eq!(warm, cold, "run {run}: the hit is the cold answer");
        let now = svc.network_snapshot().expect("a cluster backend");
        assert_eq!(
            (now.master_to_worker_bytes, now.rounds),
            (sent.master_to_worker_bytes, sent.rounds),
            "run {run}: a hit sends nothing"
        );
    }
    let stats = svc.cache_stats();
    assert_eq!((stats.hits, stats.misses), (2, 1));
    assert_eq!(svc.coalesce_stats().saved_optimizations, 0);
    svc.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(6)))]

    /// The chaos invariant with caching on: any fault plan with ≥ 1
    /// survivor, each query submitted twice to one resident cached
    /// service (cold then warm), returns exactly the fault-free optimal
    /// cost both times; the warm run is a hit that sends nothing.
    #[test]
    fn faulty_cached_service_stays_exact_cold_and_warm(
        plan in arb_fault_plan(),
        qseed in any::<u64>(),
        n in 4usize..=7,
        workers in 2usize..=6,
    ) {
        let q = query(n, qseed);
        let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans[0]
            .cost()
            .time;
        let mut svc = cached_faulty_service(plan, chaos_retry(), workers);
        let cold = svc
            .optimize(&q, PlanSpace::Linear, Objective::Single)
            .map_err(|e| TestCaseError::fail(format!("cold run failed under {plan:?}: {e}")))?;
        prop_assert!(
            bit_eq(cold[0].cost().time, reference),
            "plan {:?}: cost {} vs fault-free {}", plan, cold[0].cost().time, reference
        );
        let sent = svc.network_snapshot().expect("a cluster backend");
        let warm = svc
            .optimize(&q, PlanSpace::Linear, Objective::Single)
            .map_err(|e| TestCaseError::fail(format!("warm run failed under {plan:?}: {e}")))?;
        prop_assert_eq!(&warm, &cold, "plan {:?}: the hit is the cold answer", plan);
        let now = svc.network_snapshot().expect("a cluster backend");
        prop_assert_eq!(
            (now.master_to_worker_bytes, now.rounds),
            (sent.master_to_worker_bytes, sent.rounds),
            "plan {:?}: a hit sends nothing", plan
        );
        let stats = svc.cache_stats();
        prop_assert_eq!((stats.hits, stats.misses), (1, 1), "plan {:?}", plan);
        svc.shutdown();
    }
}

/// Metrics account for targeted drops: a schedule that provably drops a
/// first-task reply must surface in `drops`, trigger re-execution, and
/// still produce the optimal plan.
#[test]
fn dropped_reply_is_counted_and_recovered() {
    let workers = 3usize;
    let faults = FaultPlan {
        drop_prob: 0.4,
        ..FaultPlan::NONE
    }
    .with_seed_where(workers, 512, |s| {
        // Some first-task reply is dropped, and not every message of
        // every worker is dropped (so retries can land).
        (0..workers).any(|w| s.action(w, 0) == FaultAction::DropReply)
            && (0..workers).any(|w| (0..4).any(|m| s.action(w, m) == FaultAction::Deliver))
    })
    .expect("some seed drops a first reply");
    let q = query(6, 5);
    let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans[0]
        .cost()
        .time;
    let opt = MpqOptimizer::new(MpqConfig {
        faults,
        retry: chaos_retry(),
        ..MpqConfig::default()
    });
    let out = opt
        .try_optimize(&q, PlanSpace::Linear, Objective::Single, workers as u64)
        .expect("drops are recoverable");
    assert!(bit_eq(out.plans[0].cost().time, reference));
    assert!(
        out.metrics.network.drops >= 1,
        "the injected drop must be counted"
    );
    assert!(
        out.metrics.retries >= 1,
        "a dropped reply forces a re-issue"
    );
}

/// Coalesced sessions under chaos (ISSUE 9 satellite): a coalescing
/// facade service over a faulty resident cluster — crashes that persist
/// across sessions, dropped replies, stragglers — must still hand every
/// member of every coalition exactly the fault-free serial-DP cost.
/// Twelve submissions over three distinct queries are all in flight at
/// once (three flights of four members each) and are redeemed in reverse
/// submission order, so followers redeem before their leaders; the
/// coalesce counters must prove the full coalitions, and the aggregate
/// fault ledger must show the plan actually fired while honoring the
/// survivor floor.
#[test]
fn coalesced_sessions_under_faults_match_serial() {
    const DISTINCT: u64 = 3;
    const MEMBERS: u64 = 4;
    let faults = FaultPlan {
        seed: 11,
        crash_prob: 0.3,
        crash_after_reply_prob: 0.5,
        drop_prob: 0.15,
        straggle_prob: 0.1,
        straggle_us: 30_000,
        min_survivors: 1,
    };
    let mut config = ServiceConfig::with_coalescing(4);
    config.mpq.faults = faults;
    config.mpq.retry = chaos_retry();
    let mut svc = OptimizerService::spawn(config).expect("service spawns");
    let distinct: Vec<Query> = (0..DISTINCT)
        .map(|i| query(4 + i as usize, i * 31 + 5))
        .collect();
    let mut submitted = Vec::new();
    for _ in 0..MEMBERS {
        for (qi, q) in distinct.iter().enumerate() {
            let handle = svc
                .submit(q, PlanSpace::Linear, Objective::Single)
                .expect("submit routes around dead workers");
            submitted.push((qi, handle));
        }
    }
    assert_eq!(
        svc.open_flights(),
        DISTINCT as usize,
        "identical submissions coalesce even under faults"
    );
    for (qi, handle) in submitted.into_iter().rev() {
        let plans = svc
            .wait(handle)
            .expect("every member recovers with >= 1 survivor");
        let reference = optimize_serial(&distinct[qi], PlanSpace::Linear, Objective::Single).plans
            [0]
        .cost()
        .time;
        assert!(
            bit_eq(plans[0].cost().time, reference),
            "coalesced member of query {qi} diverged: {} vs {}",
            plans[0].cost().time,
            reference
        );
    }
    let stats = svc.coalesce_stats();
    assert_eq!(
        (stats.coalesced_sessions, stats.saved_optimizations),
        (DISTINCT * MEMBERS, DISTINCT * (MEMBERS - 1)),
        "the counters must prove {DISTINCT} coalitions of {MEMBERS} under faults"
    );
    let s = svc
        .network_snapshot()
        .expect("cluster backends expose metrics");
    assert!(
        s.faults_injected() >= 1,
        "the fault plan must actually fire: {s:?}"
    );
    assert!(s.crashes < 4, "min_survivors must hold across the stream");
    assert_eq!(svc.open_flights(), 0, "no flight survives full redemption");
    svc.shutdown();
}

/// Failure side of the coalesced lifecycle: when the MPQ session
/// behind a flight fails (MPQ without retries loses a crashed worker's
/// range), every member of the coalition receives the same **typed**
/// error — the failure is cloned to the whole coalition, never delivered
/// to one member and lost for the rest.
#[test]
fn coalesced_backend_failure_reaches_every_member() {
    // Four idle workers: the 6-table session fans out over all of them,
    // so the crash always hits one of its ranges.
    let mut config = ServiceConfig::with_coalescing(4);
    config.mpq.faults = FaultPlan::crash_on_first_task(4, 1);
    config.mpq.retry = RetryPolicy {
        max_retries: 0,
        timeout: Some(Duration::from_millis(15)),
        max_strikes: 16,
    };
    let mut svc = OptimizerService::spawn(config).expect("service spawns");
    let q = query(6, 77);
    let handles: Vec<_> = (0..3)
        .map(|_| {
            svc.submit(&q, PlanSpace::Linear, Objective::Single)
                .expect("submit succeeds before the crash is observed")
        })
        .collect();
    let errors: Vec<MpqError> = handles
        .into_iter()
        .map(|h| {
            svc.wait(h)
                .expect_err("a lost range without retries fails every member")
        })
        .collect();
    for e in &errors {
        assert!(
            matches!(e, MpqError::WorkerLost { .. }),
            "expected a typed WorkerLost for each member, got {e}"
        );
    }
    assert_eq!(
        errors[1], errors[0],
        "every member receives the same failure"
    );
    assert_eq!(errors[2], errors[0]);
    assert_eq!(svc.open_flights(), 0, "failed flights are freed too");
    svc.shutdown();
}
