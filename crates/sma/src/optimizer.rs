//! The SMA configuration, error and metrics types, plus the single-query
//! [`SmaOptimizer`] facade over the resident
//! [`SmaService`] session machine.
//!
//! SMA is the fault-tolerance *counter-example* the paper's deployment
//! argument leans on. Where an MPQ task is stateless (re-issue one range,
//! `O(b_q)` bytes), an SMA worker holds a **replicated memo** built up
//! over `n - 1` coordination rounds: replacing a lost worker means
//! re-sending the `Init` message plus every `Delta` broadcast so far —
//! bytes that grow exponentially in the query size. This module therefore
//! does not attempt recovery at all; it detects worker loss and **fails
//! fast** with a typed [`SmaError`] carrying the measured
//! `memo_rebroadcast_bytes` a recovery would have cost.

use crate::service::SmaService;
use mpq_cluster::{ClusterError, DecodeError, FaultPlan, LifecycleError, NetworkSnapshot};
use mpq_cost::Objective;
use mpq_dp::WorkerStats;
use mpq_model::Query;
use mpq_partition::PlanSpace;
use mpq_plan::Plan;
use std::fmt;
use std::time::Duration;

/// Configuration of the SMA baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct SmaConfig {
    /// Deterministic fault injection (default: no faults): each worker of
    /// [`SmaService::spawn`] runs behind its
    /// [`Faulty`](mpq_cluster::Faulty) slice of the plan.
    pub faults: FaultPlan,
    /// How long the master waits for a reply before probing for dead
    /// workers. `None` blocks indefinitely — fine fault-free, but set a
    /// timeout whenever faults are possible.
    pub recv_timeout: Option<Duration>,
}

/// Typed failure of one SMA optimization run.
///
/// Every variant carries `memo_rebroadcast_bytes`: the bytes (`Init` plus
/// all `Delta` broadcasts so far) that restoring one replica would cost at
/// the point of failure — the executable form of the paper's claim that
/// SMA recovery requires re-shipping the replicated memo, unlike MPQ's
/// `O(b_q)` task re-issue.
#[derive(Clone, Debug, PartialEq)]
pub enum SmaError {
    /// A worker died mid-protocol; its replica (and its assigned slots)
    /// are unrecoverable without a full memo re-broadcast.
    WorkerLost {
        /// The dead worker.
        worker: usize,
        /// Coordination round (1-based; round 1 is `Init`) during which
        /// the loss was detected.
        round: u64,
        /// Measured bytes to rebuild one replica at this point.
        memo_rebroadcast_bytes: u64,
    },
    /// No reply arrived and no worker is provably dead (e.g. a dropped
    /// reply): the level-synchronized protocol cannot make progress.
    Stalled {
        /// Coordination round of the stall.
        round: u64,
        /// Measured bytes to rebuild one replica at this point.
        memo_rebroadcast_bytes: u64,
    },
    /// A worker reply failed to decode (protocol bug or corruption).
    Decode {
        /// The replying worker.
        worker: usize,
        /// The codec failure.
        source: DecodeError,
    },
    /// A worker's reply did not fit the session's protocol state (e.g. it
    /// reported the master's own message as malformed, or replied out of
    /// phase) — a protocol bug, surfaced typed rather than merged into
    /// the replicas.
    Protocol {
        /// The offending worker.
        worker: usize,
    },
    /// The cluster substrate failed outside the SMA protocol proper
    /// (e.g. the resident cluster could not be spawned).
    Cluster(ClusterError),
    /// The handle does not name a live or parked session of this service:
    /// its result was already taken (poll-then-wait), or it belongs to a
    /// different service. Caller misuse, surfaced typed.
    UnknownHandle {
        /// The session id the handle carried.
        id: mpq_cluster::QueryId,
    },
    /// A spawn or submission request was malformed (e.g. zero workers) —
    /// caller misuse, surfaced typed.
    BadRequest {
        /// What was wrong with the request.
        reason: &'static str,
    },
    /// The service's in-flight budget
    /// ([`SessionService::set_max_in_flight`](mpq_cluster::SessionService::set_max_in_flight))
    /// is spent: `in_flight` sessions are already admitted against a
    /// limit of `limit`. Backpressure, not failure — retry after redeeming a
    /// handle, or park with `submit_wait`.
    Overloaded {
        /// Sessions in flight when the submission was refused.
        in_flight: usize,
        /// The configured admission limit.
        limit: usize,
    },
}

impl SmaError {
    /// The measured replica-recovery cost at the failure point, if the
    /// variant carries one.
    pub fn memo_rebroadcast_bytes(&self) -> Option<u64> {
        match self {
            SmaError::WorkerLost {
                memo_rebroadcast_bytes,
                ..
            }
            | SmaError::Stalled {
                memo_rebroadcast_bytes,
                ..
            } => Some(*memo_rebroadcast_bytes),
            SmaError::Decode { .. }
            | SmaError::Protocol { .. }
            | SmaError::Cluster(_)
            | SmaError::UnknownHandle { .. }
            | SmaError::BadRequest { .. }
            | SmaError::Overloaded { .. } => None,
        }
    }
}

impl fmt::Display for SmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmaError::WorkerLost {
                worker,
                round,
                memo_rebroadcast_bytes,
            } => write!(
                f,
                "worker {worker} lost in round {round}; replica recovery would re-broadcast \
                 {memo_rebroadcast_bytes} bytes"
            ),
            SmaError::Stalled {
                round,
                memo_rebroadcast_bytes,
            } => write!(
                f,
                "protocol stalled in round {round} (lost reply); replica recovery would \
                 re-broadcast {memo_rebroadcast_bytes} bytes"
            ),
            SmaError::Decode { worker, source } => {
                write!(f, "reply from worker {worker} failed to decode: {source}")
            }
            SmaError::Protocol { worker } => {
                write!(f, "worker {worker} broke the session protocol")
            }
            SmaError::Cluster(e) => write!(f, "cluster failure: {e}"),
            SmaError::UnknownHandle { id } => write!(
                f,
                "handle {id} does not name a live or parked session of this service \
                 (already redeemed, or from a different service)"
            ),
            SmaError::BadRequest { reason } => write!(f, "malformed request: {reason}"),
            SmaError::Overloaded { in_flight, limit } => write!(
                f,
                "service overloaded: {in_flight} session(s) in flight at the admission \
                 limit of {limit}"
            ),
        }
    }
}

impl std::error::Error for SmaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SmaError::Decode { source, .. } => Some(source),
            SmaError::Cluster(e) => Some(e),
            _ => None,
        }
    }
}

/// The shared session lifecycle's failures, surfaced as this protocol's
/// own variants.
impl From<LifecycleError> for SmaError {
    fn from(e: LifecycleError) -> Self {
        match e {
            LifecycleError::UnknownHandle { id } => SmaError::UnknownHandle { id },
            LifecycleError::Overloaded { in_flight, limit } => {
                SmaError::Overloaded { in_flight, limit }
            }
            LifecycleError::BadRequest { reason } => SmaError::BadRequest { reason },
        }
    }
}

/// Measurements of one SMA run.
#[derive(Clone, Debug, Default)]
pub struct SmaMetrics {
    /// End-to-end optimization time at the master, microseconds.
    pub total_micros: u64,
    /// Maximum cumulative pure compute time over workers, microseconds.
    pub max_worker_micros: u64,
    /// Network counters — note the contrast with MPQ: these grow with the
    /// memo size, i.e. exponentially in the query size.
    pub network: NetworkSnapshot,
    /// Per-worker cumulative compute time, microseconds.
    pub worker_compute_micros: Vec<u64>,
    /// Memory counters of the (fully replicated) memo on worker 0.
    pub replica_stats: WorkerStats,
    /// Number of coordination rounds (one per join-result cardinality).
    pub rounds: u64,
    /// Bytes that rebuilding one replica would have cost at the end of the
    /// run (`Init` + all `Delta` broadcasts): SMA's per-worker recovery
    /// bill, the bench-friendly counterpart of MPQ's
    /// `retry_task_bytes`-per-retry.
    pub replica_recovery_bytes: u64,
}

/// Result of one SMA optimization.
#[must_use = "the outcome carries the plans and the per-worker counters"]
#[derive(Clone, Debug)]
pub struct SmaOutcome {
    /// The optimal plan (single-objective) or Pareto frontier.
    pub plans: Vec<Plan>,
    /// Run measurements.
    pub metrics: SmaMetrics,
}

/// The single-query SMA optimizer: level-synchronized parallel DP with a
/// replicated memo, expressed as submit-one-query-and-wait over a fresh
/// resident [`SmaService`] — the same session machine that serves
/// concurrent streams.
#[derive(Clone, Copy, Debug, Default)]
pub struct SmaOptimizer {
    config: SmaConfig,
}

impl SmaOptimizer {
    /// Creates an optimizer with the given configuration.
    pub fn new(config: SmaConfig) -> Self {
        SmaOptimizer { config }
    }

    /// Optimizes `query` over `workers` worker nodes.
    ///
    /// # Panics
    /// Panics if the run fails (possible only with fault injection or a
    /// protocol bug); use [`SmaOptimizer::try_optimize`] for a typed
    /// error.
    // Audited panic site (crates/xtask/allow/panics.allow): documented
    // panicking convenience wrapper over the typed-error form.
    #[allow(clippy::expect_used)]
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

    /// Fallible form of [`SmaOptimizer::optimize`]. SMA deliberately does
    /// **not** recover from worker loss: a lost replica would require
    /// re-broadcasting `Init` plus every `Delta` so far (the memo), so the
    /// protocol fails fast with that measured cost in the error. Zero
    /// workers is a typed [`SmaError::BadRequest`], not a panic.
    pub fn try_optimize(
        &self,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
        workers: usize,
    ) -> Result<SmaOutcome, SmaError> {
        let mut service = SmaService::spawn(workers, self.config)?;
        let result = service
            .submit(query, space, objective)
            .and_then(|handle| service.wait(handle));
        service.shutdown();
        result
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use mpq_cluster::Wire;
    use mpq_dp::optimize_serial;
    use mpq_model::{WorkloadConfig, WorkloadGenerator};

    fn query(n: usize, seed: u64) -> Query {
        WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).next_query()
    }

    /// SMA's answer is the serial DP's optimum, bit for bit.
    fn assert_bits(a: f64, b: f64, what: &str) {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
    }

    /// Regression (ISSUE 23 satellite): an `assert!` one line above the
    /// typed refusal `SmaService::spawn` already gives made `pqopt compare
    /// --workers 0` panic.
    #[test]
    fn zero_workers_is_a_bad_request() {
        let opt = SmaOptimizer::new(SmaConfig::default());
        let refused = opt.try_optimize(&query(4, 0), PlanSpace::Linear, Objective::Single, 0);
        assert!(matches!(refused, Err(SmaError::BadRequest { .. })));
    }

    #[test]
    fn sma_matches_serial_linear() {
        let opt = SmaOptimizer::new(SmaConfig::default());
        for seed in 0..3 {
            let q = query(7, seed);
            let serial = optimize_serial(&q, PlanSpace::Linear, Objective::Single);
            for workers in [1usize, 2, 4] {
                let out = opt.optimize(&q, PlanSpace::Linear, Objective::Single, workers);
                assert_eq!(out.plans.len(), 1);
                let a = out.plans[0].cost().time;
                let b = serial.plans[0].cost().time;
                assert_bits(a, b, &format!("seed {seed} workers {workers}"));
            }
        }
    }

    #[test]
    fn sma_matches_serial_bushy() {
        let opt = SmaOptimizer::new(SmaConfig::default());
        let q = query(6, 11);
        let serial = optimize_serial(&q, PlanSpace::Bushy, Objective::Single);
        let out = opt.optimize(&q, PlanSpace::Bushy, Objective::Single, 3);
        let a = out.plans[0].cost().time;
        let b = serial.plans[0].cost().time;
        assert_bits(a, b, "bushy");
    }

    #[test]
    fn sma_multi_objective_matches_serial_frontier() {
        let opt = SmaOptimizer::new(SmaConfig::default());
        let q = query(6, 12);
        let serial = optimize_serial(&q, PlanSpace::Linear, Objective::Multi { alpha: 1.0 });
        let out = opt.optimize(&q, PlanSpace::Linear, Objective::Multi { alpha: 1.0 }, 4);
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
        let opt = SmaOptimizer::new(SmaConfig::default());
        let q = query(6, 13);
        let out = opt.optimize(&q, PlanSpace::Linear, Objective::Single, 4);
        // init + (n-1) levels + finish = n + 1 rounds.
        assert_eq!(out.metrics.rounds, 7);
    }

    #[test]
    fn sma_network_grows_with_workers() {
        let opt = SmaOptimizer::new(SmaConfig::default());
        let q = query(8, 14);
        let b1 = opt.optimize(&q, PlanSpace::Linear, Objective::Single, 1);
        let b4 = opt.optimize(&q, PlanSpace::Linear, Objective::Single, 4);
        assert!(
            b4.metrics.network.total_bytes() > b1.metrics.network.total_bytes(),
            "broadcasts to more replicas must cost more bytes"
        );
    }

    #[test]
    fn sma_replica_memory_does_not_shrink_with_workers() {
        // The replicated memo is the scalability problem: every worker
        // stores the full table-set space regardless of parallelism.
        let opt = SmaOptimizer::new(SmaConfig::default());
        let q = query(8, 15);
        let m1 = opt.optimize(&q, PlanSpace::Linear, Objective::Single, 1);
        let m4 = opt.optimize(&q, PlanSpace::Linear, Objective::Single, 4);
        assert_eq!(
            m1.metrics.replica_stats.stored_sets,
            m4.metrics.replica_stats.stored_sets
        );
    }

    #[test]
    fn sma_single_table_query() {
        let opt = SmaOptimizer::new(SmaConfig::default());
        let q = query(1, 16);
        let out = opt.optimize(&q, PlanSpace::Linear, Objective::Single, 2);
        assert_eq!(out.plans.len(), 1);
        assert_eq!(out.plans[0].num_joins(), 0);
    }

    #[test]
    fn sma_fault_free_try_optimize_succeeds() {
        let opt = SmaOptimizer::new(SmaConfig::default());
        let q = query(6, 17);
        let out = opt
            .try_optimize(&q, PlanSpace::Linear, Objective::Single, 3)
            .expect("fault-free run succeeds");
        // The recovery bill covers Init plus every Delta: it must exceed
        // what MPQ would pay to re-issue a task (the query bytes).
        assert!(out.metrics.replica_recovery_bytes > q.to_bytes().len() as u64);
    }

    #[test]
    fn sma_worker_loss_fails_fast_with_recovery_bill() {
        use mpq_cluster::FaultAction;
        // A plan that provably crashes some worker within the first three
        // messages it receives — always reached: every SMA worker gets
        // Init plus one message per level.
        let faults = FaultPlan {
            crash_prob: 1.0,
            min_survivors: 2,
            ..FaultPlan::NONE
        }
        .with_seed_where(3, 64, |s| {
            (0..3).any(|w| (0..3).any(|m| s.action(w, m) == FaultAction::CrashBeforeReply))
        })
        .expect("some seed crashes a worker early");
        let opt = SmaOptimizer::new(SmaConfig {
            faults,
            recv_timeout: Some(Duration::from_millis(20)),
        });
        let q = query(7, 18);
        let err = opt
            .try_optimize(&q, PlanSpace::Linear, Objective::Single, 3)
            .expect_err("a lost replica must fail the run");
        match err {
            SmaError::WorkerLost {
                round,
                memo_rebroadcast_bytes,
                ..
            } => {
                assert!(round >= 1);
                // Recovery would re-ship at least the Init payload.
                assert!(memo_rebroadcast_bytes >= q.to_bytes().len() as u64);
            }
            other => panic!("expected WorkerLost, got {other}"),
        }
    }

    #[test]
    fn sma_recovery_bill_grows_with_query_size_unlike_mpq_tasks() {
        // The paper's contrast, as an executable assertion: SMA's replica
        // recovery bill grows like the memo (exponentially), MPQ's task
        // re-issue cost like the query (linearly).
        let opt = SmaOptimizer::new(SmaConfig::default());
        let bill = |n: usize| {
            let q = query(n, 19);
            let out = opt
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
