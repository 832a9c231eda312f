//! Differential coalescing-oracle suite: in-flight coalescing must be
//! **provably transparent** and **provably shared**.
//!
//! For 50 seeded Zipf query streams, three resident services —
//! coalescing, plain, and cache-only — answer the identical
//! burst-submitted stream with equal cost bit patterns and equal Pareto
//! frontiers, and the members of one coalition redeem **byte-identical**
//! plan lists, trees included (across services only costs are compared,
//! exactly like the cache oracle: MPQ's tie-breaks between equal-cost
//! trees follow reply arrival order). Redemption order is shuffled per
//! stream, so followers redeem before leaders as often as after.
//!
//! On top of the stream oracle: the service counters must prove that `K`
//! identical in-flight sessions perform exactly **one** optimization (`K`
//! coalesced sessions, `K - 1` saved), interleaved submit/poll/wait
//! orders stay exact, and the drop lifecycle never orphans a flight — a
//! dropped leader promotes the oldest follower, dropped followers leave
//! the leader untouched, and a fully dropped coalition is reaped through
//! the regular abandoned-handle machinery.

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_macros)]

use pqopt::cost::Objective;
use pqopt::dp::optimize_serial;
use pqopt::model::{JoinGraph, Query, WorkloadConfig, WorkloadGenerator};
use pqopt::partition::PlanSpace;
use pqopt::prelude::{OptimizerService, Plan, ServiceConfig, ServiceHandle};

const STREAMS: u64 = 50;
const CACHE_BUDGET: usize = 8 << 20;
/// Distinct hot queries a Zipf stream repeats.
const HOT_SET: usize = 4;
/// Zipf skew of the hot-set rank distribution.
const ZIPF_S: f64 = 1.1;
/// Queries per burst-submitted stream.
const BURST: usize = 6;

/// Deterministic splitmix-style generator for stream shapes and shuffles
/// (the test harness must not depend on ambient randomness).
fn next_rand(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let x = *state;
    (x ^ (x >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD) >> 11
}

/// CDF of the Zipf(s) rank distribution over the hot set.
fn zipf_cdf() -> [f64; HOT_SET] {
    let mut weights = [0.0f64; HOT_SET];
    for (rank, w) in weights.iter_mut().enumerate() {
        *w = 1.0 / ((rank + 1) as f64).powf(ZIPF_S);
    }
    let total: f64 = weights.iter().sum();
    let mut cdf = [0.0f64; HOT_SET];
    let mut acc = 0.0;
    for (rank, w) in weights.iter().enumerate() {
        acc += w / total;
        cdf[rank] = acc;
    }
    cdf
}

/// Stream seed → a Zipf-repetitive query burst: with probability
/// `repetition` a position repeats a hot query (Zipf-ranked), otherwise
/// it draws a fresh cold query. 2–6 tables, cycling the join graphs.
fn zipf_stream(stream: u64, repetition: f64) -> Vec<Query> {
    let n = 2 + (stream % 5) as usize;
    let graph = JoinGraph::ALL[(stream % 4) as usize];
    let config = || WorkloadConfig::with_graph(n, graph);
    let hot: Vec<Query> = (0..HOT_SET)
        .map(|i| WorkloadGenerator::new(config(), 1_000 + i as u64).next_query())
        .collect();
    let mut cold = WorkloadGenerator::new(config(), 900_000 + stream);
    let cdf = zipf_cdf();
    let mut state = stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) + 1;
    (0..BURST)
        .map(|_| {
            let u = (next_rand(&mut state) % 1_000_000) as f64 / 1e6;
            if u < repetition {
                let v = (next_rand(&mut state) % 1_000_000) as f64 / 1e6;
                let rank = cdf.iter().position(|&c| v <= c).unwrap_or(HOT_SET - 1);
                hot[rank].clone()
            } else {
                cold.next_query()
            }
        })
        .collect()
}

/// Deterministic Fisher–Yates permutation of `0..n`.
fn shuffled_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed.wrapping_mul(0xD134_2543_DE82_EF95) + 7;
    for i in (1..n).rev() {
        let j = (next_rand(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Canonical byte form of a plan list: every plan wire-serialized, the
/// list sorted (multi-plan frontiers assemble in arrival order, which is
/// scheduling noise — the *set* of plans is the result).
fn canonical_bytes(plans: &[Plan]) -> Vec<Vec<u8>> {
    use pqopt::cluster::Wire;
    let mut bytes: Vec<Vec<u8>> = plans.iter().map(|p| p.to_bytes().to_vec()).collect();
    bytes.sort();
    bytes
}

/// The sorted cost bit patterns of a plan list — the "byte-identical
/// costs and Pareto frontiers" contract of every answer.
fn canonical_cost_bits(plans: &[Plan]) -> Vec<(u64, u64)> {
    let mut bits: Vec<(u64, u64)> = plans
        .iter()
        .map(|p| (p.cost().time.to_bits(), p.cost().buffer.to_bits()))
        .collect();
    bits.sort_unstable();
    bits
}

/// Equal cost bits and Pareto frontiers: the contract between any two
/// optimizations. Plan trees are not compared (MPQ's tree choice between
/// equal-cost plans depends on reply arrival order).
fn assert_same_costs(a: &[Plan], b: &[Plan], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: plan counts differ");
    assert_eq!(
        canonical_cost_bits(a),
        canonical_cost_bits(b),
        "{ctx}: cost bit patterns differ"
    );
}

/// Burst-submits the whole stream (all handles in flight at once), then
/// redeems in the given order, returning results in stream order.
fn run_burst(
    svc: &mut OptimizerService,
    queries: &[Query],
    space: PlanSpace,
    objective: Objective,
    order: &[usize],
) -> Vec<Vec<Plan>> {
    let mut handles: Vec<Option<ServiceHandle>> = queries
        .iter()
        .map(|q| Some(svc.submit(q, space, objective).expect("submit")))
        .collect();
    let mut results: Vec<Option<Vec<Plan>>> = queries.iter().map(|_| None).collect();
    for &i in order {
        let handle = handles[i].take().expect("handle redeemed once");
        results[i] = Some(svc.wait(handle).expect("member redeems"));
    }
    results
        .into_iter()
        .map(|r| r.expect("every position resolved"))
        .collect()
}

/// Runs every Zipf stream through coalescing, plain, and cache-only
/// resident services, with shuffled redemption: every answer costs what
/// the plain run's does, and the members of each coalition — the
/// burst's identical queries, all in flight at once — redeem
/// byte-identical lists.
fn oracle(space: PlanSpace, objective: Objective, max_tables: usize) {
    let mut plain = OptimizerService::spawn(ServiceConfig::new(3)).expect("plain spawns");
    let mut coalescing =
        OptimizerService::spawn(ServiceConfig::with_coalescing(3)).expect("coalescing spawns");
    let mut cache_only = OptimizerService::spawn(ServiceConfig::with_cache(3, CACHE_BUDGET))
        .expect("cache-only spawns");
    for stream in 0..STREAMS {
        let queries = zipf_stream(stream, 0.8);
        if queries[0].num_tables() > max_tables {
            continue;
        }
        let order = shuffled_order(queries.len(), stream);
        let identity: Vec<usize> = (0..queries.len()).collect();
        let reference = run_burst(&mut plain, &queries, space, objective, &identity);
        let coalesced = run_burst(&mut coalescing, &queries, space, objective, &order);
        let cached = run_burst(&mut cache_only, &queries, space, objective, &identity);
        for (i, re) in reference.iter().enumerate() {
            let ctx = format!("stream {stream} query {i}");
            assert_same_costs(&coalesced[i], re, &format!("{ctx} (coalesce-on)"));
            assert_same_costs(&cached[i], re, &format!("{ctx} (cache-only)"));
            // The first member of this query's coalition.
            let leader = queries.iter().position(|q| q == &queries[i]).unwrap_or(i);
            assert_eq!(
                canonical_bytes(&coalesced[i]),
                canonical_bytes(&coalesced[leader]),
                "{ctx}: coalition members redeem different plans"
            );
        }
        assert_eq!(
            coalescing.open_flights(),
            0,
            "stream {stream}: no flight survives full redemption"
        );
    }
    let stats = coalescing.coalesce_stats();
    assert!(
        stats.saved_optimizations > 0,
        "80% Zipf bursts must actually coalesce ({stats:?})"
    );
    assert_eq!(
        plain.coalesce_stats(),
        Default::default(),
        "the plain service must never coalesce"
    );
    plain.shutdown();
    coalescing.shutdown();
    cache_only.shutdown();
}

/// Single-objective oracle.
#[test]
fn coalesce_on_off_cacheonly_agree_single_objective() {
    oracle(PlanSpace::Linear, Objective::Single, usize::MAX);
}

/// Bushy spaces go through different split enumeration; the oracle must
/// hold there too (small queries keep it cheap).
#[test]
fn coalesce_on_off_cacheonly_agree_bushy() {
    oracle(PlanSpace::Bushy, Objective::Single, 4);
}

/// Multi-objective: the full Pareto frontier — not just the best cost —
/// agrees bitwise across the three modes.
#[test]
fn coalesce_on_off_cacheonly_agree_on_pareto_frontiers() {
    oracle(PlanSpace::Linear, Objective::Multi { alpha: 1.0 }, 4);
}

/// The counter proof: `K` identical in-flight sessions perform exactly
/// one optimization. The session count never exceeds
/// one, and the counters record the full coalition — `K` coalesced
/// sessions, `K - 1` optimizations saved — under shuffled redemption.
#[test]
fn k_identical_sessions_cost_exactly_one_optimization() {
    const K: usize = 6;
    let mut svc = OptimizerService::spawn(ServiceConfig::with_coalescing(3)).expect("spawn");
    let q = WorkloadGenerator::new(WorkloadConfig::paper_default(6), 41).next_query();
    let mut handles: Vec<Option<ServiceHandle>> = (0..K)
        .map(|_| {
            Some(
                svc.submit(&q, PlanSpace::Linear, Objective::Single)
                    .expect("submit"),
            )
        })
        .collect();
    assert!(svc.in_flight() <= 1, "the coalition holds one session");
    assert_eq!(svc.open_flights(), 1);
    let mut results = Vec::new();
    for &i in &shuffled_order(K, 17) {
        let handle = handles[i].take().expect("handle");
        results.push(svc.wait(handle).expect("member redeems"));
    }
    for r in &results[1..] {
        assert_eq!(
            canonical_bytes(r),
            canonical_bytes(&results[0]),
            "every member redeems the same bits"
        );
    }
    let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans;
    assert_same_costs(&results[0], &reference, "vs serial reference");
    let stats = svc.coalesce_stats();
    assert_eq!(
        (stats.coalesced_sessions, stats.saved_optimizations),
        (K as u64, K as u64 - 1),
        "counters must prove the {K}-coalition"
    );
    assert_eq!(svc.open_flights(), 0);
    svc.shutdown();
}

/// Interleaved submit/poll/wait orders — polls interspersed between the
/// coalition's submissions, some members delivered by poll and the rest
/// by wait — stay exact.
#[test]
fn interleaved_submit_poll_wait_orders_stay_exact() {
    let mut svc = OptimizerService::spawn(ServiceConfig::with_coalescing(3)).expect("spawn");
    let q = WorkloadGenerator::new(WorkloadConfig::paper_default(5), 42).next_query();
    let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans;
    let mut handles: Vec<Option<ServiceHandle>> = Vec::new();
    let mut results: Vec<Option<Vec<Plan>>> = Vec::new();
    // Script: S S P0 P1 S P2 W1 P0 W0 W2 — a member polled to
    // delivery is spent; `wait` then covers the rest.
    let submit = |svc: &mut OptimizerService| {
        svc.submit(&q, PlanSpace::Linear, Objective::Single)
            .expect("submit")
    };
    for _ in 0..2 {
        handles.push(Some(submit(&mut svc)));
        results.push(None);
    }
    for step in [0usize, 1] {
        if let Some(h) = &handles[step] {
            if let Some(r) = svc.poll(h) {
                results[step] = Some(r.expect("poll delivers cleanly"));
                handles[step] = None;
            }
        }
    }
    handles.push(Some(submit(&mut svc)));
    results.push(None);
    for step in [2usize, 1, 0, 0, 2] {
        // A member already delivered through poll has no handle left;
        // repeated steps are no-ops, exactly like a caller that lost
        // the race to its own earlier redemption.
        if let Some(h) = handles[step].take() {
            results[step] = Some(svc.wait(h).expect("wait delivers"));
        }
    }
    for (i, r) in results.iter().enumerate() {
        let r = r.as_ref().expect("every member delivered");
        assert_same_costs(r, &reference, &format!("member {i}"));
    }
    assert_eq!(svc.open_flights(), 0);
    svc.shutdown();
}

/// Drop lifecycle, leader side: a leader dropped mid-flight promotes the
/// oldest follower, which redeems the exact result.
#[test]
fn dropped_leader_promotes_the_oldest_follower() {
    let mut svc = OptimizerService::spawn(ServiceConfig::with_coalescing(3)).expect("spawn");
    let q = WorkloadGenerator::new(WorkloadConfig::paper_default(6), 43).next_query();
    let leader = svc
        .submit(&q, PlanSpace::Linear, Objective::Single)
        .expect("leader");
    let follower = svc
        .submit(&q, PlanSpace::Linear, Objective::Single)
        .expect("follower");
    drop(leader);
    let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans;
    let plans = svc.wait(follower).expect("promoted follower redeems");
    assert_same_costs(&plans, &reference, "promoted follower");
    assert_eq!(svc.open_flights(), 0);
    svc.shutdown();
}

/// Drop lifecycle, follower side: dropped followers leave the leader
/// untouched — it redeems the exact result and the flight closes.
#[test]
fn dropped_followers_leave_the_leader_unaffected() {
    let mut svc = OptimizerService::spawn(ServiceConfig::with_coalescing(3)).expect("spawn");
    let q = WorkloadGenerator::new(WorkloadConfig::paper_default(6), 44).next_query();
    let leader = svc
        .submit(&q, PlanSpace::Linear, Objective::Single)
        .expect("leader");
    let followers: Vec<ServiceHandle> = (0..2)
        .map(|_| {
            svc.submit(&q, PlanSpace::Linear, Objective::Single)
                .expect("follower")
        })
        .collect();
    drop(followers);
    let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans;
    let plans = svc.wait(leader).expect("leader unaffected");
    assert_same_costs(&plans, &reference, "leader after follower drops");
    assert_eq!(svc.open_flights(), 0);
    svc.shutdown();
}

/// Drop lifecycle, whole coalition: dropping every member reaps the
/// flight and the session behind it — the service keeps serving
/// with nothing orphaned.
#[test]
fn dropped_coalition_is_reaped_not_orphaned() {
    let mut svc = OptimizerService::spawn(ServiceConfig::with_coalescing(3)).expect("spawn");
    let q = WorkloadGenerator::new(WorkloadConfig::paper_default(6), 45).next_query();
    let coalition: Vec<ServiceHandle> = (0..3)
        .map(|_| {
            svc.submit(&q, PlanSpace::Linear, Objective::Single)
                .expect("submit")
        })
        .collect();
    assert_eq!(svc.open_flights(), 1);
    drop(coalition);
    // The next call detaches the members and releases the shared
    // session ticket; a fresh query is unimpeded.
    let other = WorkloadGenerator::new(WorkloadConfig::paper_default(5), 46).next_query();
    let live = svc
        .submit(&other, PlanSpace::Linear, Objective::Single)
        .expect("service serves on");
    assert_eq!(svc.open_flights(), 1, "only the live flight remains");
    let reference = optimize_serial(&other, PlanSpace::Linear, Objective::Single).plans;
    let plans = svc.wait(live).expect("live session completes");
    assert_same_costs(&plans, &reference, "after coalition drop");
    assert_eq!(svc.open_flights(), 0);
    assert_eq!(
        svc.in_flight(),
        0,
        "the reaped session is freed, not orphaned"
    );
    svc.shutdown();
}
