//! SMA's byte bill, pinned.
//!
//! The figures read SMA's network bytes, messages, rounds, replica-recovery
//! bill and replica size (`net_bytes_sma_*`, `recovery_bytes_sma_*`), and
//! its answer must stay the serial optimum bit for bit. This table freezes
//! all of them for n ∈ {1, 4, 7}, both plan spaces, both objectives and
//! m ∈ {1, 3, 8} workers. At n = 4 and m = 3 a level has fewer chunks than
//! participants (4 sets in chunks of 2), and at n = 1 there is no level.
//!
//! To print the table after an *intentional* change to the bill:
//! `cargo test -p mpq_sma --test replica_bill -- --ignored --nocapture`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mpq_cost::Objective;
use mpq_model::{Query, WorkloadConfig, WorkloadGenerator};
use mpq_partition::PlanSpace;
use mpq_sma::{SmaOptimizer, SmaOutcome};

const TABLES: [usize; 3] = [1, 4, 7];
const SPACES: [PlanSpace; 2] = [PlanSpace::Linear, PlanSpace::Bushy];
const OBJECTIVES: [Objective; 2] = [Objective::Single, Objective::PAPER_MULTI];
const WORKERS: [usize; 3] = [1, 3, 8];

/// One run's bill: `[master_to_worker_bytes, worker_to_master_bytes,
/// messages, rounds, replica_recovery_bytes, stored_sets, total_entries]`.
type Bill = [u64; 7];

fn query(n: usize) -> Query {
    WorkloadGenerator::new(WorkloadConfig::paper_default(n), 36).next_query()
}

fn run(n: usize, space: PlanSpace, objective: Objective, workers: usize) -> SmaOutcome {
    SmaOptimizer
        .try_optimize(&query(n), space, objective, workers)
        .expect("a fault-free run succeeds")
}

fn bill(out: &SmaOutcome) -> Bill {
    let m = &out.metrics;
    [
        m.network.master_to_worker_bytes,
        m.network.worker_to_master_bytes,
        m.network.messages,
        m.rounds,
        m.replica_recovery_bytes,
        m.replica_stats.stored_sets,
        m.replica_stats.total_entries,
    ]
}

/// The answer's `(time, buffer)` cost bits, in answer order.
fn frontier(out: &SmaOutcome) -> Vec<(u64, u64)> {
    out.plans
        .iter()
        .map(|p| (p.cost().time.to_bits(), p.cost().buffer.to_bits()))
        .collect()
}

/// Every case in table order: n, then space, then objective, then workers.
fn cases() -> impl Iterator<Item = (usize, PlanSpace, Objective, usize)> {
    TABLES.into_iter().flat_map(|n| {
        SPACES.into_iter().flat_map(move |space| {
            OBJECTIVES.into_iter().flat_map(move |objective| {
                WORKERS.into_iter().map(move |m| (n, space, objective, m))
            })
        })
    })
}

#[rustfmt::skip]
const BILLS: &[Bill] = &[
    [45, 55, 3, 2, 28, 1, 1], // n 1 Linear Single m 1
    [117, 55, 5, 2, 28, 1, 1], // n 1 Linear Single m 3
    [297, 55, 10, 2, 28, 1, 1], // n 1 Linear Single m 8
    [53, 55, 3, 2, 36, 1, 1], // n 1 Linear Multi { alpha: 10.0 } m 1
    [141, 55, 5, 2, 36, 1, 1], // n 1 Linear Multi { alpha: 10.0 } m 3
    [361, 55, 10, 2, 36, 1, 1], // n 1 Linear Multi { alpha: 10.0 } m 8
    [45, 55, 3, 2, 28, 1, 1], // n 1 Bushy Single m 1
    [117, 55, 5, 2, 28, 1, 1], // n 1 Bushy Single m 3
    [297, 55, 10, 2, 28, 1, 1], // n 1 Bushy Single m 8
    [53, 55, 3, 2, 36, 1, 1], // n 1 Bushy Multi { alpha: 10.0 } m 1
    [141, 55, 5, 2, 36, 1, 1], // n 1 Bushy Multi { alpha: 10.0 } m 3
    [361, 55, 10, 2, 36, 1, 1], // n 1 Bushy Multi { alpha: 10.0 } m 8
    [1152, 987, 12, 5, 984, 15, 21], // n 4 Linear Single m 1
    [3223, 1050, 26, 5, 984, 15, 21], // n 4 Linear Single m 3
    [8368, 1155, 56, 5, 984, 15, 21], // n 4 Linear Single m 8
    [1891, 1734, 12, 5, 1723, 15, 38], // n 4 Linear Multi { alpha: 10.0 } m 1
    [5440, 1797, 26, 5, 1723, 15, 38], // n 4 Linear Multi { alpha: 10.0 } m 3
    [14280, 1902, 56, 5, 1723, 15, 38], // n 4 Linear Multi { alpha: 10.0 } m 8
    [1152, 987, 12, 5, 984, 15, 21], // n 4 Bushy Single m 1
    [3223, 1050, 26, 5, 984, 15, 21], // n 4 Bushy Single m 3
    [8368, 1155, 56, 5, 984, 15, 21], // n 4 Bushy Single m 8
    [1848, 1691, 12, 5, 1680, 15, 37], // n 4 Bushy Multi { alpha: 10.0 } m 1
    [5311, 1754, 26, 5, 1680, 15, 37], // n 4 Bushy Multi { alpha: 10.0 } m 3
    [13936, 1859, 56, 5, 1680, 15, 37], // n 4 Bushy Multi { alpha: 10.0 } m 8
    [10583, 9459, 21, 8, 9480, 127, 189], // n 7 Linear Single m 1
    [29785, 9669, 55, 8, 9480, 127, 189], // n 7 Linear Single m 3
    [77725, 10089, 130, 8, 9480, 127, 189], // n 7 Linear Single m 8
    [26114, 25038, 21, 8, 25011, 127, 550], // n 7 Linear Multi { alpha: 10.0 } m 1
    [76378, 25248, 55, 8, 25011, 127, 550], // n 7 Linear Multi { alpha: 10.0 } m 3
    [201973, 25668, 130, 8, 25011, 127, 550], // n 7 Linear Multi { alpha: 10.0 } m 8
    [10583, 9459, 21, 8, 9480, 127, 189], // n 7 Bushy Single m 1
    [29785, 9669, 55, 8, 9480, 127, 189], // n 7 Bushy Single m 3
    [77725, 10089, 130, 8, 9480, 127, 189], // n 7 Bushy Single m 8
    [31661, 30599, 21, 8, 30558, 127, 679], // n 7 Bushy Multi { alpha: 10.0 } m 1
    [93019, 30809, 55, 8, 30558, 127, 679], // n 7 Bushy Multi { alpha: 10.0 } m 3
    [246349, 31229, 130, 8, 30558, 127, 679], // n 7 Bushy Multi { alpha: 10.0 } m 8
];

#[rustfmt::skip]
const FRONTIERS: &[&[(u64, u64)]] = &[
    // n 1 Linear Single
    &[(0x40f6fbe000000000, 0x3f5324d3204cbfda)],
    // n 1 Linear Multi { alpha: 10.0 }
    &[(0x40f6fbe000000000, 0x3f5324d3204cbfda)],
    // n 1 Bushy Single
    &[(0x40f6fbe000000000, 0x3f5324d3204cbfda)],
    // n 1 Bushy Multi { alpha: 10.0 }
    &[(0x40f6fbe000000000, 0x3f5324d3204cbfda)],
    // n 4 Linear Single
    &[(0x412c42ae2f489c4e, 0x4158c08b80000000)],
    // n 4 Linear Multi { alpha: 10.0 }
    &[(0x43e65c4714b5befd, 0x405b800000000000), (0x421895c4ce7d8a61, 0x4061400000000000), (0x4130d5e63e7eb1db, 0x4158c08b80000000)],
    // n 4 Bushy Single
    &[(0x412c42ae2f489c4e, 0x4158c08b80000000)],
    // n 4 Bushy Multi { alpha: 10.0 }
    &[(0x421895c4ce7d8a61, 0x4069e00000000000), (0x41f07e4e3614c181, 0x4151239d80000000), (0x41314c8b4c1808f5, 0x4158c08b80000000)],
    // n 7 Linear Single
    &[(0x413472f07de97e8a, 0x416ccac340000000)],
    // n 7 Linear Multi { alpha: 10.0 }
    &[(0x41e4cf1ba39c029c, 0x4163c07480000000), (0x41badfea0fecab55, 0x416bf463e0000000), (0x42021e3ab13d3edf, 0x4066e00000000000), (0x41353d7a692aa39e, 0x416ccac340000000), (0x41e972bf12f6b0ef, 0x4158c08b80000000)],
    // n 7 Bushy Single
    &[(0x4130aa38fbd2fd14, 0x41723db9a61eca57)],
    // n 7 Bushy Multi { alpha: 10.0 }
    &[(0x41fcfa9776f120d4, 0x41452a3d91042f66), (0x42017bf0ddb236b0, 0x4083380000000000), (0x41d8dea92c7581e8, 0x4158c08b80000000), (0x4130bf2940cdb4ee, 0x41723db9a61eca57), (0x420464a436e1a012, 0x4066e00000000000), (0x4133449efb15189d, 0x415acdae0161743f)],
];

#[test]
fn the_replica_bill_is_pinned() {
    assert_eq!(BILLS.len(), cases().count());
    assert_eq!(FRONTIERS.len() * WORKERS.len(), BILLS.len());
    for (i, (n, space, objective, m)) in cases().enumerate() {
        let out = run(n, space, objective, m);
        assert_eq!(
            bill(&out),
            BILLS[i],
            "n = {n}, {space:?}, {objective:?}, m = {m}"
        );
        assert_eq!(
            frontier(&out),
            FRONTIERS[i / WORKERS.len()],
            "n = {n}, {space:?}, {objective:?}, m = {m}"
        );
    }
}

/// Prints `BILLS` and `FRONTIERS` for pasting after an intentional change.
#[test]
#[ignore = "regeneration helper, not a check"]
fn regenerate_the_table() {
    let mut frontiers = Vec::new();
    println!("const BILLS: &[Bill] = &[");
    for (n, space, objective, m) in cases() {
        let out = run(n, space, objective, m);
        println!(
            "    {:?}, // n {n} {space:?} {objective:?} m {m}",
            bill(&out)
        );
        if m == WORKERS[0] {
            frontiers.push((n, space, objective, frontier(&out)));
        }
    }
    println!("];");
    println!("const FRONTIERS: &[&[(u64, u64)]] = &[");
    for (n, space, objective, bits) in frontiers {
        println!("    // n {n} {space:?} {objective:?}");
        let pairs: Vec<String> = bits
            .iter()
            .map(|(t, b)| format!("(0x{t:016x}, 0x{b:016x})"))
            .collect();
        println!("    &[{}],", pairs.join(", "));
    }
    println!("];");
}
