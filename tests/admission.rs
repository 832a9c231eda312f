//! Property suite for service admission control.
//!
//! Arbitrary interleavings of `submit` / `submit_wait` / `poll` / `wait`
//! / handle drops against a bounded service must uphold four invariants:
//!
//! 1. the cluster never exceeds `max_in_flight` sessions, at any point
//!    of any interleaving;
//! 2. every admitted session either completes with a result or fails
//!    with a **typed** error — none is silently lost;
//! 3. every `Overloaded` refusal is observed while the service really is
//!    at its limit, and carries the exact occupancy;
//! 4. after an `Overloaded` refusal, a retry (here: `submit_wait`)
//!    admits the session and it completes — a refusal costs nothing.
//!
//! Case count honors the `PROPTEST_CASES` environment variable, like the
//! chaos and cache-oracle suites.

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use pqopt::cost::Objective;
use pqopt::model::{Query, WorkloadConfig, WorkloadGenerator};
use pqopt::partition::PlanSpace;
use pqopt::prelude::{MpqError, OptimizerService, ServiceConfig, ServiceHandle};
use proptest::prelude::*;
use std::collections::VecDeque;

fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One step of an admission interleaving.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Non-parking submit; at the limit this must refuse typed.
    Submit,
    /// Parking submit; never refuses.
    SubmitWait,
    /// Poll the oldest in-flight handle (requeue it if not ready).
    Poll,
    /// Block on the oldest in-flight handle.
    Wait,
    /// Drop the oldest in-flight handle unredeemed.
    Drop,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u64..8).prop_map(|kind| match kind {
        0 | 1 => Op::Submit,
        2 | 3 => Op::SubmitWait,
        4 => Op::Poll,
        5 | 6 => Op::Wait,
        _ => Op::Drop,
    })
}

/// A small pool of distinct queries the interleaving cycles through.
fn query_pool(seed: u64) -> Vec<Query> {
    (0..3)
        .map(|i| {
            WorkloadGenerator::new(WorkloadConfig::paper_default(4 + i as usize % 2), seed + i)
                .next_query()
        })
        .collect()
}

/// Drives one interleaving against a bounded service, checking the
/// budget invariant after every step and accounting for every admitted
/// session. Returns (admitted, completed, refused).
fn drive(
    svc: &mut OptimizerService,
    queries: &[Query],
    ops: &[Op],
    limit: usize,
) -> Result<(usize, usize, usize), TestCaseError> {
    let space = PlanSpace::Linear;
    let objective = Objective::Single;
    let mut pending: VecDeque<ServiceHandle> = VecDeque::new();
    let mut admitted = 0usize;
    let mut completed = 0usize;
    let mut refused = 0usize;
    for (step, op) in ops.iter().enumerate() {
        let q = &queries[step % queries.len()];
        match op {
            Op::Submit => match svc.submit(q, space, objective) {
                Ok(handle) => {
                    admitted += 1;
                    pending.push_back(handle);
                }
                Err(MpqError::Overloaded {
                    in_flight,
                    limit: l,
                }) => {
                    refused += 1;
                    // Invariant 3: refusals happen at the limit, with the
                    // exact occupancy in the error.
                    prop_assert_eq!(l, limit, "step {}: refusal names the limit", step);
                    prop_assert!(
                        in_flight >= limit,
                        "step {step}: refused below the limit ({in_flight}/{limit})"
                    );
                    // Invariant 4: the refusal cost nothing — a parking
                    // retry admits the same query.
                    let handle = svc
                        .submit_wait(q, space, objective)
                        .expect("retry after Overloaded admits");
                    admitted += 1;
                    pending.push_back(handle);
                }
                Err(e) => prop_assert!(false, "step {step}: untyped refusal {e}"),
            },
            Op::SubmitWait => {
                let handle = svc
                    .submit_wait(q, space, objective)
                    .expect("submit_wait never refuses");
                admitted += 1;
                pending.push_back(handle);
            }
            Op::Poll => {
                if let Some(handle) = pending.pop_front() {
                    match svc.poll(&handle) {
                        Some(result) => {
                            // Invariant 2: typed success, never a lost
                            // session (no faults are configured here).
                            result.expect("polled session completes");
                            completed += 1;
                        }
                        None => pending.push_back(handle),
                    }
                }
            }
            Op::Wait => {
                if let Some(handle) = pending.pop_front() {
                    svc.wait(handle).expect("awaited session completes");
                    completed += 1;
                }
            }
            Op::Drop => {
                if let Some(handle) = pending.pop_front() {
                    drop(handle);
                }
            }
        }
        // Invariant 1: the budget holds after every step.
        prop_assert!(
            svc.in_flight() <= limit,
            "step {step}: {} sessions in flight exceeds the limit {limit}",
            svc.in_flight()
        );
    }
    // Invariant 2, drain: every still-pending admitted session completes.
    while let Some(handle) = pending.pop_front() {
        svc.wait(handle).expect("drained session completes");
        completed += 1;
    }
    prop_assert!(svc.in_flight() <= limit);
    Ok((admitted, completed, refused))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    /// The four admission invariants hold for every interleaving.
    #[test]
    fn interleavings_never_exceed_the_budget(
        seed in any::<u64>(),
        limit in 1usize..4,
        ops in proptest::collection::vec(arb_op(), 1..24),
    ) {
        let mut svc = OptimizerService::spawn(ServiceConfig::with_admission(3, limit))
            .expect("bounded service spawns");
        let queries = query_pool(seed);
        let (admitted, completed, _refused) = drive(&mut svc, &queries, &ops, limit)?;
        // Dropped sessions detach rather than complete; everything else
        // must be accounted for.
        prop_assert!(completed <= admitted);
        svc.shutdown();
    }

    /// With coalescing stacked on top of admission, followers join
    /// without consuming budget — the invariants still hold.
    #[test]
    fn coalescing_respects_the_admission_budget(
        seed in any::<u64>(),
        limit in 1usize..3,
        ops in proptest::collection::vec(arb_op(), 1..16),
    ) {
        let mut config = ServiceConfig::with_admission(3, limit);
        config.coalesce = true;
        let mut svc = OptimizerService::spawn(config).expect("spawn");
        // One hot query: most submissions coalesce onto in-flight leaders.
        let queries = vec![query_pool(seed).swap_remove(0)];
        let (admitted, completed, _refused) = drive(&mut svc, &queries, &ops, limit)?;
        prop_assert!(completed <= admitted);
        svc.shutdown();
    }
}
