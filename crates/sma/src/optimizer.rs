//! The SMA run: the replicated-memo protocol as one straight line.
//!
//! Every replica is identical after each `Delta` broadcast, and each slot
//! depends only on its subsets' slots, so the run fills **one** memo, the
//! DP's filter-after-enumerate fill ([`mpq_dp::filtered_fill`]), and
//! reads each worker's `Assign` answers from it. It encodes every message the protocol would send with the
//! [`message`](crate::message) types and charges each to a
//! [`NetworkMetrics`] as the in-process cluster does — the payload plus
//! its [`SessionEnvelope`] header — so the bill is byte for byte the one a
//! threaded run over `m` workers measures. The bill is deterministic:
//! integers are fixed-width and a `Delta` is a concatenation of slots, so
//! no arrival order changes a length.
//!
//! SMA is the fault-tolerance *counter-example* the paper's deployment
//! argument leans on. Where an MPQ task is stateless (re-issue one range,
//! `O(b_q)` bytes), an SMA worker holds a **replicated memo** built up
//! over `n - 1` coordination rounds: replacing a lost worker means
//! re-sending the `Init` message plus every `Delta` broadcast so far.
//! [`SmaMetrics::replica_recovery_bytes`] is that bill at the end of a
//! run, which grows exponentially in the query size.

use crate::message::{SlotUpdate, SmaMasterMsg, SmaReply};
use mpq_cluster::{NetworkMetrics, NetworkSnapshot, SessionEnvelope, Wire};
use mpq_cost::Objective;
use mpq_dp::{complete_plans, filtered_fill, WorkerStats};
use mpq_model::{Query, TableSet};
use mpq_partition::{ConstraintSet, Grouping, PlanSpace};
use mpq_plan::{Plan, PruningPolicy};
use std::fmt;

/// Typed refusal of one SMA run. A run that starts always finishes: it
/// has no network to fail.
#[derive(Clone, Debug, PartialEq)]
pub enum SmaError {
    /// The request is malformed: zero workers, or a query or objective
    /// that no worker could decode from an `Init`.
    BadRequest {
        /// What was wrong with the request.
        reason: &'static str,
    },
    /// The query has too many tables for a replica, which addresses its
    /// `2^n` table sets by a dense `u32` index.
    TooManyTables {
        /// The query's table count.
        tables: usize,
    },
}

impl fmt::Display for SmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmaError::BadRequest { reason } => write!(f, "malformed request: {reason}"),
            SmaError::TooManyTables { tables } => write!(
                f,
                "a {tables}-table query does not fit a replica (at most {} tables)",
                u32::BITS - 1
            ),
        }
    }
}

impl std::error::Error for SmaError {}

/// Measurements of one SMA run.
#[derive(Clone, Debug, Default)]
pub struct SmaMetrics {
    /// Network counters — note the contrast with MPQ: these grow with the
    /// memo size, i.e. exponentially in the query size.
    pub network: NetworkSnapshot,
    /// Memory counters of the (fully replicated) memo on worker 0.
    pub replica_stats: WorkerStats,
    /// Number of coordination rounds: `Init`, one per join-result
    /// cardinality, and the final plan request.
    pub rounds: u64,
    /// Bytes that rebuilding one replica would have cost at the end of the
    /// run (`Init` + all `Delta` broadcasts, without envelopes): SMA's
    /// per-worker recovery bill, the counterpart of MPQ's
    /// `retry_task_bytes`-per-retry.
    pub replica_recovery_bytes: u64,
}

/// Result of one SMA optimization.
#[must_use = "the outcome carries the plans and the byte bill"]
#[derive(Clone, Debug)]
pub struct SmaOutcome {
    /// The optimal plan (single-objective) or Pareto frontier.
    pub plans: Vec<Plan>,
    /// Run measurements.
    pub metrics: SmaMetrics,
}

/// The SMA optimizer: level-synchronized parallel DP with a replicated
/// memo, run on one thread and billed as if over `workers` nodes.
#[derive(Clone, Copy, Debug, Default)]
pub struct SmaOptimizer;

impl SmaOptimizer {
    /// Optimizes `query` over `workers` worker nodes.
    ///
    /// # Panics
    /// Panics if the request is refused; use
    /// [`SmaOptimizer::try_optimize`] for a typed error.
    #[expect(
        clippy::expect_used,
        reason = "documented panicking convenience wrapper; try_optimize is the typed-error form"
    )]
    pub fn optimize(
        &self,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
        workers: usize,
    ) -> SmaOutcome {
        self.try_optimize(query, space, objective, workers)
            .expect("SMA optimization failed")
    }

    /// Fallible form of [`SmaOptimizer::optimize`]: the rounds of the
    /// replicated-memo protocol, in order.
    ///
    /// 1. `Init` to all `workers`.
    /// 2. For each cardinality `k = 2..=n`, the level's table sets in
    ///    contiguous chunks, one `Assign` and one `LevelDone` per chunk,
    ///    then one `Delta` of the whole level to every worker.
    /// 3. `Finish` to worker 0, answered by `Final`.
    pub fn try_optimize(
        &self,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
        workers: usize,
    ) -> Result<SmaOutcome, SmaError> {
        let n = query.num_tables();
        refuse(query, objective, workers)?;
        let net = NetworkMetrics::with_workers(workers);
        let charge = |payload: &[u8]| (payload.len() + SessionEnvelope::HEADER_BYTES) as u64;

        net.record_round();
        let init = SmaMasterMsg::Init {
            query: query.clone(),
            space,
            objective,
        }
        .to_bytes();
        let mut recovery = init.len() as u64;
        for _ in 0..workers {
            net.record_to_worker(charge(&init));
        }
        // SMA has no constraint structure: the replica is laid out over,
        // and its splits are enumerated under, the unconstrained set. Each
        // slot depends only on its subsets' slots, so the replica after
        // the last `Delta` is the DP's filtered fill: the levels below only
        // encode its slots, as the workers that computed them would.
        let constraints = ConstraintSet::unconstrained(Grouping::new(n, space));
        let (memo, _) = filtered_fill(query, &PruningPolicy::new(objective, n), &constraints);

        for k in 2..=n {
            net.record_round();
            let sets: Vec<TableSet> = TableSet::subsets_of_size(n, k).collect();
            let chunk = sets.len().div_ceil(workers.min(sets.len()));
            let mut level = Vec::with_capacity(sets.len());
            for (w, batch) in sets.chunks(chunk).enumerate() {
                let assign = SmaMasterMsg::Assign {
                    sets: batch.to_vec(),
                };
                net.record_to_worker(charge(&assign.to_bytes()));
                let slots: Vec<SlotUpdate> = batch
                    .iter()
                    .map(|&set| SlotUpdate {
                        set,
                        entries: memo.entries(set).to_vec(),
                    })
                    .collect();
                let done = SmaReply::LevelDone {
                    slots: slots.clone(),
                    micros: 0,
                };
                net.record_reply(w, charge(&done.to_bytes()));
                level.extend(slots);
            }
            // Each set is computed by exactly one worker, and every replica
            // merges the `Delta` of the whole level.
            let delta = SmaMasterMsg::Delta { slots: level }.to_bytes();
            recovery += delta.len() as u64;
            for _ in 0..workers {
                net.record_to_worker(charge(&delta));
            }
        }

        net.record_round();
        net.record_to_worker(charge(&SmaMasterMsg::Finish.to_bytes()));
        // The full set's slot is one order class, already pruned.
        let plans = complete_plans(&memo);
        let replica_stats = WorkerStats {
            stored_sets: memo.stored_sets(),
            total_entries: memo.total_entries(),
            ..WorkerStats::default()
        };
        let last = SmaReply::Final {
            plans: plans.clone(),
            stats: replica_stats,
        };
        net.record_reply(0, charge(&last.to_bytes()));

        let network = net.snapshot();
        let metrics = SmaMetrics {
            network,
            replica_stats,
            rounds: network.rounds,
            replica_recovery_bytes: recovery,
        };
        Ok(SmaOutcome { plans, metrics })
    }
}

/// The requests a run cannot serve: the service admission's checks and a
/// worker's `Init` decoding, made before anything is billed.
fn refuse(query: &Query, objective: Objective, workers: usize) -> Result<(), SmaError> {
    let n = query.num_tables();
    let bad = |reason| Err(SmaError::BadRequest { reason });
    if workers == 0 {
        return bad("at least one worker required");
    }
    if n >= u32::BITS as usize {
        return Err(SmaError::TooManyTables { tables: n });
    }
    if n == 0 {
        return bad("a query needs at least one table");
    }
    if !objective.is_valid() {
        return bad("the approximation factor must be a finite number >= 1");
    }
    if query.stray_endpoint().is_some() || query.invalid_statistic().is_some() {
        return bad(
            "table statistics must be finite and non-negative, selectivities in (0, 1], \
             and predicates on the query's own tables",
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_macros)]
    use super::*;
    use mpq_dp::optimize_serial;
    use mpq_model::{WorkloadConfig, WorkloadGenerator};

    fn query(n: usize, seed: u64) -> Query {
        WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).next_query()
    }

    /// SMA's answer is the serial DP's optimum, bit for bit.
    fn assert_bits(a: f64, b: f64, what: &str) {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
    }

    /// Regression: `pqopt compare --workers 0` once panicked.
    #[test]
    fn zero_workers_is_a_bad_request() {
        let refused =
            SmaOptimizer.try_optimize(&query(4, 0), PlanSpace::Linear, Objective::Single, 0);
        assert!(matches!(refused, Err(SmaError::BadRequest { .. })));
    }

    /// The inputs a worker refused to decode from an `Init` — no tables, a
    /// predicate on a table the query does not have, an approximation
    /// factor below 1 — and a query too large for a replica's dense index
    /// are typed refusals, never a panic or a plan.
    #[test]
    fn malformed_requests_are_typed_refusals() {
        let mut empty = query(3, 60);
        empty.catalog = Default::default();
        empty.predicates.clear();
        let mut stray = query(3, 60);
        stray.predicates[0].right = 40;
        let run =
            |q: &Query, objective| SmaOptimizer.try_optimize(q, PlanSpace::Linear, objective, 2);
        for refused in [
            run(&empty, Objective::Single),
            run(&stray, Objective::Single),
            run(&query(3, 60), Objective::Multi { alpha: 0.5 }),
        ] {
            assert!(
                matches!(refused, Err(SmaError::BadRequest { .. })),
                "{refused:?}"
            );
        }
        let wide = query(32, 60);
        assert_eq!(
            run(&wide, Objective::Single).err(),
            Some(SmaError::TooManyTables { tables: 32 })
        );
    }

    #[test]
    fn sma_matches_serial_linear() {
        for seed in 0..3 {
            let q = query(7, seed);
            let serial = optimize_serial(&q, PlanSpace::Linear, Objective::Single);
            for workers in [1usize, 2, 4] {
                let out = SmaOptimizer.optimize(&q, PlanSpace::Linear, Objective::Single, workers);
                assert_eq!(out.plans.len(), 1);
                let a = out.plans[0].cost().time;
                let b = serial.plans[0].cost().time;
                assert_bits(a, b, &format!("seed {seed} workers {workers}"));
            }
        }
    }

    #[test]
    fn sma_matches_serial_bushy() {
        let q = query(6, 11);
        let serial = optimize_serial(&q, PlanSpace::Bushy, Objective::Single);
        let out = SmaOptimizer.optimize(&q, PlanSpace::Bushy, Objective::Single, 3);
        let a = out.plans[0].cost().time;
        let b = serial.plans[0].cost().time;
        assert_bits(a, b, "bushy");
    }

    #[test]
    fn sma_multi_objective_matches_serial_frontier() {
        let q = query(6, 12);
        let serial = optimize_serial(&q, PlanSpace::Linear, Objective::Multi { alpha: 1.0 });
        let out = SmaOptimizer.optimize(&q, PlanSpace::Linear, Objective::Multi { alpha: 1.0 }, 4);
        let bits = |plans: &[Plan]| {
            let mut bits: Vec<(u64, u64)> = plans
                .iter()
                .map(|p| (p.cost().time.to_bits(), p.cost().buffer.to_bits()))
                .collect();
            bits.sort_unstable();
            bits
        };
        assert_eq!(bits(&out.plans), bits(&serial.plans));
    }

    #[test]
    fn sma_has_one_round_per_level() {
        let q = query(6, 13);
        let out = SmaOptimizer.optimize(&q, PlanSpace::Linear, Objective::Single, 4);
        // init + (n-1) levels + finish = n + 1 rounds.
        assert_eq!(out.metrics.rounds, 7);
    }

    #[test]
    fn sma_network_grows_with_workers() {
        let q = query(8, 14);
        let b1 = SmaOptimizer.optimize(&q, PlanSpace::Linear, Objective::Single, 1);
        let b4 = SmaOptimizer.optimize(&q, PlanSpace::Linear, Objective::Single, 4);
        assert!(
            b4.metrics.network.total_bytes() > b1.metrics.network.total_bytes(),
            "broadcasts to more replicas must cost more bytes"
        );
    }

    #[test]
    fn sma_replica_memory_does_not_shrink_with_workers() {
        // The replicated memo is the scalability problem: every worker
        // stores the full table-set space regardless of parallelism.
        let q = query(8, 15);
        let m1 = SmaOptimizer.optimize(&q, PlanSpace::Linear, Objective::Single, 1);
        let m4 = SmaOptimizer.optimize(&q, PlanSpace::Linear, Objective::Single, 4);
        assert_eq!(
            m1.metrics.replica_stats.stored_sets,
            m4.metrics.replica_stats.stored_sets
        );
    }

    #[test]
    fn sma_single_table_query() {
        let q = query(1, 16);
        let out = SmaOptimizer.optimize(&q, PlanSpace::Linear, Objective::Single, 2);
        assert_eq!(out.plans.len(), 1);
        assert_eq!(out.plans[0].num_joins(), 0);
    }

    #[test]
    fn sma_fault_free_try_optimize_succeeds() {
        let q = query(6, 17);
        let out = SmaOptimizer
            .try_optimize(&q, PlanSpace::Linear, Objective::Single, 3)
            .expect("fault-free run succeeds");
        // The recovery bill covers Init plus every Delta: it must exceed
        // what MPQ would pay to re-issue a task (the query bytes).
        assert!(out.metrics.replica_recovery_bytes > q.to_bytes().len() as u64);
    }

    #[test]
    fn sma_recovery_bill_grows_with_query_size_unlike_mpq_tasks() {
        // The paper's contrast, as an executable assertion: SMA's replica
        // recovery bill grows like the memo (exponentially), MPQ's task
        // re-issue cost like the query (linearly).
        let bill = |n: usize| {
            let q = query(n, 19);
            let out = SmaOptimizer
                .try_optimize(&q, PlanSpace::Linear, Objective::Single, 2)
                .unwrap();
            (
                out.metrics.replica_recovery_bytes as f64,
                q.to_bytes().len() as f64,
            )
        };
        let (bill6, task6) = bill(6);
        let (bill9, task9) = bill(9);
        // Task (query) bytes grow ~linearly; the replica bill much faster.
        assert!(task9 / task6 < 2.5, "query bytes stay linear");
        assert!(
            bill9 / bill6 > 4.0,
            "replica recovery bill must grow super-linearly: {bill6} -> {bill9}"
        );
    }
}
