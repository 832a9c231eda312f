//! Randomized differential suite: every optimizer in the workspace must
//! agree on every seeded random query.
//!
//! For ~50 seeded queries (2–8 tables, all four join-graph shapes) the
//! suite cross-checks, against the serial bottom-up DP reference:
//!
//! * MPQ at several worker counts (the paper's Theorem: partitioning
//!   never loses the optimum),
//! * the memoized top-down (Volcano-style) enumerator,
//! * the exhaustive brute-force reference (small queries),
//! * the SMA replicated-memo baseline,
//!
//! on optimal cost for single-objective runs and on the full Pareto
//! frontier for multi-objective runs — `f64::to_bits` equal, not merely
//! close — and holds the resident service to the same standard under a
//! closed-loop window, where load-aware placement varies the cut. Every
//! plan any backend returns must also cost what `explain` recomputes for
//! its tree from the query.
//! Differential agreement across five
//! independently-written engines is the correctness bedrock the chaos
//! suite (`tests/chaos.rs`) builds on: it pins the fault-free answer that
//! fault-tolerant runs must reproduce.

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use pqopt::cost::{CostVector, Objective};
use pqopt::dp::{
    exhaustive_frontier, exhaustive_linear_best_time, explain, optimize_partition_id,
    optimize_partition_topdown, optimize_serial,
};
use pqopt::model::{JoinGraph, Query, WorkloadConfig, WorkloadGenerator};
use pqopt::partition::{effective_workers, partition_constraints, PlanSpace};
use pqopt::plan::{Plan, PruningPolicy};
use pqopt::prelude::{
    Backend, MpqConfig, MpqOptimizer, Optimizer, OptimizerService, ServiceConfig, ServiceHandle,
};
use pqopt::sma::SmaOptimizer;

const SEEDS: u64 = 50;

/// A deterministic permutation of `0..len` (stride walk with a stride
/// coprime to `len`): the "shuffled completion order" the resident-service
/// tests wait in, so result routing is exercised rather than FIFO luck.
fn shuffled(len: usize) -> Vec<usize> {
    let stride = (0..)
        .map(|k| 37 + k * 2)
        .find(|s| gcd(*s, len) == 1)
        .unwrap();
    (0..len).map(|i| (11 + i * stride) % len).collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Every engine sums the same operator costs in the same order, so they
/// agree to the bit — a tolerance here would hide a kernel that prunes
/// differently.
fn bit_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Seed → (query, n): 2–8 tables, cycling through the four graph shapes.
fn seeded_query(seed: u64) -> (Query, usize) {
    let n = 2 + (seed % 7) as usize;
    let graph = JoinGraph::ALL[(seed % 4) as usize];
    let q =
        WorkloadGenerator::new(WorkloadConfig::with_graph(n, graph), seed * 7919 + 13).next_query();
    (q, n)
}

/// The serial DP's optimal time for `q` — the reference every other
/// engine is held to.
fn reference_time(q: &Query, space: PlanSpace) -> f64 {
    optimize_serial(q, space, Objective::Single).plans[0]
        .cost()
        .time
}

#[test]
fn all_engines_agree_on_linear_optimal_cost() {
    let mpq = MpqOptimizer::new(MpqConfig::default());
    let sma = SmaOptimizer;
    for seed in 0..SEEDS {
        let (q, n) = seeded_query(seed);
        let space = PlanSpace::Linear;
        let reference = reference_time(&q, space);

        // Top-down enumeration over the unconstrained space.
        let topdown = optimize_partition_topdown(
            &q,
            space,
            Objective::Single,
            &partition_constraints(n, space, 0, 1),
        );
        assert!(
            bit_eq(topdown.plans[0].cost().time, reference),
            "seed {seed} (n={n}): topdown {} vs serial {reference}",
            topdown.plans[0].cost().time
        );

        // MPQ at several worker counts (caps at the query's partition
        // limit internally).
        for workers in [1u64, 2, 4, 8] {
            let out = mpq.optimize(&q, space, Objective::Single, workers);
            assert_eq!(out.plans.len(), 1, "seed {seed} workers {workers}");
            assert!(
                bit_eq(out.plans[0].cost().time, reference),
                "seed {seed} (n={n}) workers {workers}: MPQ {} vs serial {reference}",
                out.plans[0].cost().time
            );
        }

        // SMA agrees with the reference (and hence with MPQ).
        let out = sma.optimize(&q, space, Objective::Single, 1 + (seed as usize % 4));
        assert!(
            bit_eq(out.plans[0].cost().time, reference),
            "seed {seed} (n={n}): SMA {} vs serial {reference}",
            out.plans[0].cost().time
        );

        // Brute force (factorial) where feasible.
        if n <= 6 {
            let brute = exhaustive_linear_best_time(&q);
            assert!(
                bit_eq(brute, reference),
                "seed {seed} (n={n}): exhaustive {brute} vs serial {reference}"
            );
        }
    }
}

#[test]
fn all_engines_agree_on_bushy_optimal_cost() {
    let mpq = MpqOptimizer::new(MpqConfig::default());
    let sma = SmaOptimizer;
    for seed in 0..SEEDS {
        let (q, n) = seeded_query(seed);
        if n > 6 {
            continue; // keep the bushy sweep cheap
        }
        let space = PlanSpace::Bushy;
        let reference = reference_time(&q, space);

        let topdown = optimize_partition_topdown(
            &q,
            space,
            Objective::Single,
            &partition_constraints(n, space, 0, 1),
        );
        assert!(
            bit_eq(topdown.plans[0].cost().time, reference),
            "seed {seed} (n={n}): bushy topdown"
        );

        for workers in [1u64, 2, 4] {
            let out = mpq.optimize(&q, space, Objective::Single, workers);
            assert!(
                bit_eq(out.plans[0].cost().time, reference),
                "seed {seed} (n={n}) workers {workers}: bushy MPQ"
            );
        }

        let out = sma.optimize(&q, space, Objective::Single, 2);
        assert!(
            bit_eq(out.plans[0].cost().time, reference),
            "seed {seed} (n={n}): bushy SMA"
        );

        // The exhaustive bushy frontier's best time is the optimum.
        if n <= 5 {
            let brute = exhaustive_frontier(&q, space)
                .iter()
                .map(|c| c.time)
                .fold(f64::INFINITY, f64::min);
            assert!(
                bit_eq(brute, reference),
                "seed {seed} (n={n}): bushy exhaustive {brute} vs {reference}"
            );
        }
    }
}

/// Set-wise frontier equality, bit for bit.
fn same_frontier(a: &[CostVector], b: &[CostVector]) -> bool {
    let covered = |xs: &[CostVector], ys: &[CostVector]| {
        xs.iter().all(|x| {
            ys.iter()
                .any(|y| bit_eq(x.time, y.time) && bit_eq(x.buffer, y.buffer))
        })
    };
    covered(a, b) && covered(b, a)
}

#[test]
fn all_engines_agree_on_pareto_frontier() {
    let mpq = MpqOptimizer::new(MpqConfig::default());
    let sma = SmaOptimizer;
    let objective = Objective::Multi { alpha: 1.0 }; // exact frontier
    for seed in 0..SEEDS {
        let (q, n) = seeded_query(seed);
        if n > 5 {
            continue; // exhaustive frontier is exponential
        }
        let space = PlanSpace::Linear;
        let serial: Vec<CostVector> = optimize_serial(&q, space, objective)
            .plans
            .iter()
            .map(|p| p.cost())
            .collect();
        let brute = exhaustive_frontier(&q, space);
        assert!(
            same_frontier(&serial, &brute),
            "seed {seed} (n={n}): serial frontier {serial:?} vs exhaustive {brute:?}"
        );

        for workers in [2u64, 4] {
            let out = mpq.optimize(&q, space, objective, workers);
            let frontier: Vec<CostVector> = out.plans.iter().map(|p| p.cost()).collect();
            assert!(
                same_frontier(&frontier, &brute),
                "seed {seed} (n={n}) workers {workers}: MPQ frontier"
            );
        }

        let out = sma.optimize(&q, space, objective, 3);
        let frontier: Vec<CostVector> = out.plans.iter().map(|p| p.cost()).collect();
        assert!(
            same_frontier(&frontier, &brute),
            "seed {seed} (n={n}): SMA frontier"
        );
    }
}

/// Every seeded query, streamed through one resident [`OptimizerService`]
/// with all submissions concurrently in flight and results collected in a
/// shuffled order: each must match the serial-DP optimal cost exactly.
/// One cluster, fifty interleaved sessions — the tentpole architecture's
/// correctness contract.
#[test]
fn resident_service_matches_serial_under_concurrency() {
    let mut service =
        OptimizerService::spawn(ServiceConfig::new(Backend::Mpq, 4)).expect("service spawns");
    let space = PlanSpace::Linear;
    let mut submitted: Vec<(u64, Query, ServiceHandle)> = Vec::new();
    for seed in 0..SEEDS {
        let (q, _) = seeded_query(seed);
        let handle = service
            .submit(&q, space, Objective::Single)
            .expect("submit");
        submitted.push((seed, q, handle));
    }
    // Redeem handles in a deterministic shuffled order: results must be
    // routed by session id, not by arrival luck.
    let order = shuffled(submitted.len());
    let mut taken: Vec<Option<(u64, Query, ServiceHandle)>> =
        submitted.into_iter().map(Some).collect();
    for idx in order {
        let (seed, q, handle) = taken[idx].take().expect("each handle redeemed once");
        let plans = service.wait(handle).expect("session completes");
        let reference = reference_time(&q, space);
        assert_eq!(plans.len(), 1, "seed {seed}");
        assert!(
            bit_eq(plans[0].cost().time, reference),
            "seed {seed}: resident service {} vs serial {reference}",
            plans[0].cost().time
        );
    }
    service.shutdown();
}

/// Multi-objective requests through the resident service, concurrently
/// submitted and redeemed shuffled: every Pareto frontier must equal the
/// serial frontier set-wise.
#[test]
fn resident_service_preserves_pareto_frontiers_under_concurrency() {
    let mut service =
        OptimizerService::spawn(ServiceConfig::new(Backend::Mpq, 4)).expect("service spawns");
    let objective = Objective::Multi { alpha: 1.0 }; // exact frontier
    let space = PlanSpace::Linear;
    let mut submitted: Vec<(u64, Vec<CostVector>, ServiceHandle)> = Vec::new();
    for seed in 0..SEEDS {
        let (q, n) = seeded_query(seed);
        if n > 5 {
            continue; // keep the exhaustive reference cheap
        }
        let serial: Vec<CostVector> = optimize_serial(&q, space, objective)
            .plans
            .iter()
            .map(|p| p.cost())
            .collect();
        let handle = service.submit(&q, space, objective).expect("submit");
        submitted.push((seed, serial, handle));
    }
    let order = shuffled(submitted.len());
    let mut taken: Vec<Option<(u64, Vec<CostVector>, ServiceHandle)>> =
        submitted.into_iter().map(Some).collect();
    for idx in order {
        let (seed, serial, handle) = taken[idx].take().expect("each handle redeemed once");
        let plans = service.wait(handle).expect("session completes");
        let frontier: Vec<CostVector> = plans.iter().map(|p| p.cost()).collect();
        assert!(
            same_frontier(&frontier, &serial),
            "seed {seed}: resident frontier {frontier:?} vs serial {serial:?}"
        );
    }
    service.shutdown();
}

/// A set of plans as its sorted cost bits: replies merge in arrival
/// order, so only the set is the answer. Single-objective answers are
/// compared on time alone — a tie on time may pick another buffer.
fn answer_bits(objective: Objective, plans: &[Plan]) -> Vec<(u64, u64)> {
    let mut bits: Vec<(u64, u64)> = plans
        .iter()
        .map(|p| match objective {
            Objective::Single => (p.cost().time.to_bits(), 0),
            Objective::Multi { .. } => (p.cost().time.to_bits(), p.cost().buffer.to_bits()),
        })
        .collect();
    bits.sort_unstable();
    bits
}

/// A closed-loop stream, eight submissions in flight on three workers, so
/// load-aware placement cuts single-objective queries every way it can:
/// over the idle workers, or whole on the least-loaded one. Whatever the
/// cut, a single-objective answer is the serial optimum to the bit, and a
/// multi-objective (α = 2) frontier is that of the all-worker
/// `effective_workers` cut, computed by direct calls.
#[test]
fn windowed_stream_is_exact_under_load_aware_placement() {
    const WORKERS: usize = 3;
    const WINDOW: usize = 8;
    let space = PlanSpace::Linear;
    let reference = |q: &Query, objective: Objective| {
        let plans = match objective {
            Objective::Single => optimize_serial(q, space, objective).plans,
            Objective::Multi { .. } => {
                let m = effective_workers(space, q.num_tables(), WORKERS as u64);
                let mut plans: Vec<Plan> = (0..m)
                    .flat_map(|p| optimize_partition_id(q, space, objective, p, m).plans)
                    .collect();
                PruningPolicy::new(objective, q.num_tables()).final_prune(&mut plans);
                plans
            }
        };
        answer_bits(objective, &plans)
    };
    let mut service =
        OptimizerService::spawn(ServiceConfig::new(Backend::Mpq, WORKERS)).expect("service spawns");
    let mut in_flight = std::collections::VecDeque::new();
    let redeem =
        |service: &mut OptimizerService,
         (seed, objective, want, handle): (u64, Objective, _, ServiceHandle)| {
            let plans = service.wait(handle).expect("session completes");
            assert_eq!(
                answer_bits(objective, &plans),
                want,
                "seed {seed} {objective:?}"
            );
        };
    for seed in 0..2 * SEEDS {
        let n = 4 + (seed % 6) as usize;
        let graph = JoinGraph::ALL[(seed % 4) as usize];
        let q = WorkloadGenerator::new(WorkloadConfig::with_graph(n, graph), seed * 7919 + 29)
            .next_query();
        // Every third query asks for an α = 2 frontier.
        let objective = if seed % 3 == 2 {
            Objective::Multi { alpha: 2.0 }
        } else {
            Objective::Single
        };
        if in_flight.len() == WINDOW {
            if let Some(oldest) = in_flight.pop_front() {
                redeem(&mut service, oldest);
            }
        }
        let want = reference(&q, objective);
        let handle = service.submit(&q, space, objective).expect("submit");
        in_flight.push_back((seed, objective, want, handle));
    }
    while let Some(oldest) = in_flight.pop_front() {
        redeem(&mut service, oldest);
    }
    service.shutdown();
}

/// One invariant across every backend: each plan the serial and top-down
/// DPs, MPQ and SMA return costs, to the bit, what [`explain`] computes
/// for its tree from the query — both spaces, single-objective and
/// α ∈ {2, 10}. MPQ's master prices every reply plan that way (none
/// carries a cost on the wire); the others keep the cost their memo
/// computed, which the recomputation must reproduce.
#[test]
fn every_backend_returns_plans_that_explain_to_their_cost() {
    let mpq = MpqOptimizer::new(MpqConfig::default());
    let objectives = [
        Objective::Single,
        Objective::Multi { alpha: 2.0 },
        Objective::Multi { alpha: 10.0 },
    ];
    for seed in 0..SEEDS {
        let (q, n) = seeded_query(seed);
        for space in [PlanSpace::Linear, PlanSpace::Bushy] {
            if space == PlanSpace::Bushy && n > 6 {
                continue; // keep the bushy sweep cheap
            }
            for objective in objectives {
                let workers = 1 + seed % 4;
                let answers = [
                    ("serial", optimize_serial(&q, space, objective).plans),
                    (
                        "topdown",
                        optimize_partition_topdown(
                            &q,
                            space,
                            objective,
                            &partition_constraints(n, space, 0, 1),
                        )
                        .plans,
                    ),
                    ("MPQ", mpq.optimize(&q, space, objective, workers).plans),
                    (
                        "SMA",
                        SmaOptimizer
                            .optimize(&q, space, objective, workers as usize)
                            .plans,
                    ),
                ];
                for (backend, plans) in answers {
                    assert!(!plans.is_empty(), "seed {seed} {backend}");
                    for p in plans {
                        let ctx = format!("seed {seed} (n={n}) {space:?} {objective:?} {backend}");
                        let root = explain(&q, &p).expect(&ctx).root().cost;
                        assert!(bit_eq(p.cost().time, root.time), "{ctx}: {p}");
                        assert!(bit_eq(p.cost().buffer, root.buffer), "{ctx}: {p}");
                    }
                }
            }
        }
    }
}

/// The unified [`Optimizer`] trait: all three backends, resident, answer
/// every seeded query with the serial-DP cost.
#[test]
fn all_backends_agree_through_the_unified_service_trait() {
    let space = PlanSpace::Linear;
    for backend in Backend::ALL {
        let mut service =
            OptimizerService::spawn(ServiceConfig::new(backend, 3)).expect("service spawns");
        for seed in (0..SEEDS).step_by(5) {
            let (q, n) = seeded_query(seed);
            let reference = reference_time(&q, space);
            let plans = service
                .optimize(&q, space, Objective::Single)
                .expect("optimize");
            assert!(
                bit_eq(plans[0].cost().time, reference),
                "seed {seed} (n={n}) backend {}: {} vs {reference}",
                service.name(),
                plans[0].cost().time
            );
        }
        service.shutdown();
    }
}
