//! End-to-end integration tests spanning all crates: the parallel
//! optimizers must agree with the serial reference (and with each other)
//! on every plan space, objective and degree of parallelism, while
//! honoring the shared-nothing discipline.

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_macros)]

use pqopt::prelude::*;

fn queries(n: usize, count: usize, seed: u64) -> Vec<Query> {
    WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).batch(count)
}

/// Every parallel answer here is the serial DP's optimum, bit for bit.
fn assert_bits(a: f64, b: f64, what: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
}

/// A frontier's cost vectors as sorted bit pairs.
fn frontier_bits(plans: &[Plan]) -> Vec<(u64, u64)> {
    let mut bits: Vec<(u64, u64)> = plans
        .iter()
        .map(|p| (p.cost().time.to_bits(), p.cost().buffer.to_bits()))
        .collect();
    bits.sort_unstable();
    bits
}

#[test]
fn mpq_equals_serial_across_worker_counts_linear() {
    let opt = MpqOptimizer::new(MpqConfig::default());
    for q in queries(10, 3, 1) {
        let serial = optimize_serial(&q, PlanSpace::Linear, Objective::Single);
        for workers in [1u64, 2, 4, 8, 16, 32] {
            let out = opt.optimize(&q, PlanSpace::Linear, Objective::Single, workers);
            assert_bits(
                out.plans[0].cost().time,
                serial.plans[0].cost().time,
                &format!("{workers} workers"),
            );
            assert!(out.plans[0].is_left_deep());
            out.plans[0].validate().expect("valid plan tree");
            assert!(pqopt::dp::explain(&q, &out.plans[0])
                .expect("fits its query")
                .is_monotone());
        }
    }
}

#[test]
fn mpq_equals_serial_across_worker_counts_bushy() {
    let opt = MpqOptimizer::new(MpqConfig::default());
    for q in queries(9, 2, 2) {
        let serial = optimize_serial(&q, PlanSpace::Bushy, Objective::Single);
        for workers in [1u64, 2, 4, 8] {
            let out = opt.optimize(&q, PlanSpace::Bushy, Objective::Single, workers);
            assert_bits(
                out.plans[0].cost().time,
                serial.plans[0].cost().time,
                &format!("{workers} workers"),
            );
        }
    }
}

#[test]
fn sma_and_mpq_agree() {
    let mpq = MpqOptimizer::new(MpqConfig::default());
    let sma = SmaOptimizer;
    for q in queries(8, 2, 3) {
        for space in [PlanSpace::Linear, PlanSpace::Bushy] {
            let a = mpq.optimize(&q, space, Objective::Single, 4);
            let b = sma.optimize(&q, space, Objective::Single, 4);
            assert_bits(
                a.plans[0].cost().time,
                b.plans[0].cost().time,
                &format!("{space:?}"),
            );
        }
    }
}

#[test]
fn multi_objective_parallel_covers_serial_frontier() {
    let opt = MpqOptimizer::new(MpqConfig::default());
    for q in queries(8, 2, 4) {
        let serial = optimize_serial(&q, PlanSpace::Linear, Objective::Multi { alpha: 1.0 });
        for workers in [2u64, 8, 16] {
            let par = opt.optimize(
                &q,
                PlanSpace::Linear,
                Objective::Multi { alpha: 1.0 },
                workers,
            );
            // Exact mode: frontiers must match point for point.
            assert_eq!(
                frontier_bits(&par.plans),
                frontier_bits(&serial.plans),
                "{workers} workers"
            );
        }
    }
}

#[test]
fn multi_objective_alpha_guarantee_in_parallel() {
    let opt = MpqOptimizer::new(MpqConfig::default());
    let alpha = 10.0;
    for q in queries(8, 2, 5) {
        let exact = optimize_serial(&q, PlanSpace::Linear, Objective::Multi { alpha: 1.0 });
        let approx = opt.optimize(&q, PlanSpace::Linear, Objective::Multi { alpha }, 8);
        for target in &exact.plans {
            assert!(
                approx
                    .plans
                    .iter()
                    .any(|p| p.cost().alpha_dominates(&target.cost(), alpha)),
                "α-guarantee violated in parallel mode"
            );
        }
    }
}

#[test]
fn every_partition_plan_respects_its_constraints() {
    use pqopt::partition::partition_constraints;
    let q = &queries(8, 1, 6)[0];
    let m = 16u64;
    for id in 0..m {
        let out = pqopt::dp::optimize_partition_id(q, PlanSpace::Linear, Objective::Single, id, m);
        let order = out.plans[0].join_order().expect("left-deep");
        let pos = |t: u8| order.iter().position(|&x| x == t).unwrap();
        for c in partition_constraints(8, PlanSpace::Linear, id, m).iter() {
            if let pqopt::partition::Constraint::Precedence { before, after } = c {
                assert!(
                    pos(before) < pos(after),
                    "partition {id}: {before} must precede {after} in {order:?}"
                );
            }
        }
    }
}

#[test]
fn bushy_partition_plans_respect_bushy_constraints() {
    // x ⪯ y | z: on the path from z's leaf to the root, x must appear no
    // later than y — equivalently no subtree join result contains y and z
    // without x.
    let q = &queries(9, 1, 7)[0];
    let m = 8u64;
    for id in 0..m {
        let out = pqopt::dp::optimize_partition_id(q, PlanSpace::Bushy, Objective::Single, id, m);
        let plan = &out.plans[0];
        for c in pqopt::partition::partition_constraints(9, PlanSpace::Bushy, id, m).iter() {
            if let pqopt::partition::Constraint::BushyPrecedence { x, y, z } = c {
                assert_no_violating_subtree(plan, x as usize, y as usize, z as usize);
            }
        }
    }
}

fn assert_no_violating_subtree(plan: &Plan, x: usize, y: usize, z: usize) {
    for t in plan.subtrees().expect("one plan tree") {
        assert!(
            !(t.contains(y) && t.contains(z) && !t.contains(x)),
            "subtree {t} violates {x} ⪯ {y} | {z}"
        );
    }
}

/// Uneven explicit layouts — ranges sized to heterogeneous workers, and
/// many partitions per worker — still cover the space exactly.
#[test]
fn weighted_and_oversubscribed_match_serial() {
    let q = &queries(10, 1, 8)[0];
    let serial = optimize_serial(q, PlanSpace::Linear, Objective::Single);
    let mut svc = MpqService::spawn(4, MpqConfig::default()).unwrap();
    for (what, partitions, layout) in [
        ("weighted", 4, vec![(0, 2), (2, 1), (3, 1)]),
        ("oversubscribed", 32, vec![(0, 11), (11, 11), (22, 10)]),
    ] {
        let out = svc
            .submit_assigned(q, PlanSpace::Linear, Objective::Single, partitions, layout)
            .and_then(|h| svc.wait(h))
            .unwrap();
        assert_bits(out.plans[0].cost().time, serial.plans[0].cost().time, what);
    }
    svc.shutdown();
}

#[test]
fn odd_table_counts_are_supported() {
    // The paper assumes n divisible by 2 (linear) / 3 (bushy); the
    // generalized grouping must still cover the space for leftover tables.
    let opt = MpqOptimizer::new(MpqConfig::default());
    for n in [5usize, 7, 9, 11] {
        let q = &queries(n, 1, 9 + n as u64)[0];
        for space in [PlanSpace::Linear, PlanSpace::Bushy] {
            let serial = optimize_serial(q, space, Objective::Single);
            let max_w = pqopt::partition::effective_workers(space, n, 64);
            let out = opt.optimize(q, space, Objective::Single, max_w);
            assert_bits(
                out.plans[0].cost().time,
                serial.plans[0].cost().time,
                &format!("n={n} {space:?} m={max_w}"),
            );
        }
    }
}

#[test]
fn repeated_runs_are_deterministic_in_result() {
    let opt = MpqOptimizer::new(MpqConfig::default());
    let q = &queries(9, 1, 11)[0];
    let a = opt.optimize(q, PlanSpace::Linear, Objective::Single, 8);
    let b = opt.optimize(q, PlanSpace::Linear, Objective::Single, 8);
    assert_eq!(
        a.plans[0], b.plans[0],
        "same query + same workers => same plan"
    );
}

/// Runs the `pqopt` binary and returns its stdout; fails unless it exits 0.
fn pqopt(args: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_pqopt"))
        .args(args)
        .output()
        .expect("run pqopt");
    assert!(out.status.success(), "pqopt {args:?} failed");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// `pqopt scaling` prints exact counters, so two runs agree byte for
/// byte: a header and one row per worker count, and no wall-clock column.
#[test]
fn cli_scaling_prints_only_exact_counters() {
    let args = ["scaling", "--tables", "8", "--max-workers", "4"];
    let first = pqopt(&args);
    assert_eq!(first, pqopt(&args), "a counter moved between runs");
    assert_eq!(first.lines().count(), 1 + 3, "rows for 1, 2 and 4 workers");
    assert!(first.contains("max splits") && !first.contains("speedup"));
}

/// `pqopt optimize` prints each plan through `explain`: the plan trees —
/// everything before the timing lines — are the text captured when every
/// node still carried its estimates on the wire, byte for byte. One
/// linear single-objective query and one bushy frontier with α = 2.
#[test]
fn cli_optimize_prints_the_same_plan_trees() {
    let cases = [
        (
            &[
                "optimize",
                "--tables",
                "6",
                "--seed",
                "7",
                "--graph",
                "chain",
                "--workers",
                "4",
            ][..],
            include_str!("golden/optimize_linear.txt"),
        ),
        (
            &[
                "optimize",
                "--tables",
                "5",
                "--seed",
                "3",
                "--space",
                "bushy",
                "--multi",
                "2",
                "--workers",
                "2",
            ][..],
            include_str!("golden/optimize_bushy.txt"),
        ),
    ];
    for (args, golden) in cases {
        let out = pqopt(args);
        let trees = &out[..out.find("total time:").expect("a timing line")];
        assert_eq!(trees, golden, "pqopt {args:?}");
    }
}

/// `pqopt compare` exits 0 only when MPQ and SMA agree bit for bit, and
/// its table holds no clock: both optimizers' bytes, messages and rounds
/// are the text captured from the threaded SMA protocol, byte for byte.
#[test]
fn cli_compare_agrees_bit_for_bit() {
    let out = pqopt(&["compare", "--tables", "7", "--workers", "4"]);
    assert!(out.contains("both found the same optimal plan cost"));
    assert_eq!(out, include_str!("golden/compare.txt"));
}
