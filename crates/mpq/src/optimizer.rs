//! The MPQ master configuration, error and metrics types, plus the
//! single-query [`MpqOptimizer`] facade over the resident
//! [`MpqService`] scheduler.
//!
//! The fault-tolerance layer reproduces the paper's deployment argument:
//! because an MPQ task is **stateless and one-round** (a query plus a
//! partition range), the master can recover from any worker loss,
//! straggler or dropped reply by simply re-issuing the lost partition
//! range to a surviving worker — the same re-execution model that makes
//! MPQ a natural fit for Spark-style shared-nothing frameworks. Retries
//! and speculative re-execution are governed by a [`RetryPolicy`]; faults
//! are injected deterministically via the cluster's
//! [`FaultPlan`].

use crate::service::MpqService;
use mpq_cluster::{ClusterError, DecodeError, FaultPlan, LifecycleError, NetworkSnapshot, QueryId};
use mpq_cost::Objective;
use mpq_dp::{PriceError, WorkerStats};
use mpq_model::Query;
use mpq_partition::{effective_workers, PlanSpace};
use mpq_plan::Plan;
use std::fmt;
use std::time::Duration;

/// When and how the master re-executes lost or straggling partition
/// ranges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of task re-issues across the whole run. `0`
    /// disables recovery: a lost worker then surfaces as an
    /// [`MpqError::WorkerLost`] instead of a re-execution.
    pub max_retries: u32,
    /// How long a `recv` waits before the master re-examines the cluster
    /// (straggler suspicion threshold). `None` blocks indefinitely —
    /// correct for fault-free runs, but a crashed worker can then only be
    /// detected once *every* worker is gone, so set a timeout whenever
    /// faults are possible.
    pub timeout: Option<Duration>,
    /// Consecutive fruitless timeouts tolerated once retries are
    /// unavailable (exhausted or disabled) before the run fails.
    pub max_strikes: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::DISABLED
    }
}

impl RetryPolicy {
    /// No recovery, blocking receives: the fault-free configuration.
    pub const DISABLED: RetryPolicy = RetryPolicy {
        max_retries: 0,
        timeout: None,
        max_strikes: 8,
    };

    /// A recovery-enabled policy: up to `max_retries` re-issues, with the
    /// given straggler-suspicion timeout.
    pub fn with_timeout(max_retries: u32, timeout: Duration) -> Self {
        RetryPolicy {
            max_retries,
            timeout: Some(timeout),
            max_strikes: 64,
        }
    }
}

/// Typed failure of one MPQ optimization run.
#[derive(Clone, Debug, PartialEq)]
pub enum MpqError {
    /// The cluster substrate failed (all workers lost, undeliverable
    /// message, timeout bubbled up).
    Cluster(ClusterError),
    /// A worker reply failed to decode — a protocol bug or corruption,
    /// never retried.
    Decode {
        /// The replying worker.
        worker: usize,
        /// The codec failure.
        source: DecodeError,
    },
    /// A worker replied for a partition range the master never issued, or
    /// with a plan that does not join exactly the query's tables.
    Protocol {
        /// The offending worker.
        worker: usize,
    },
    /// A worker replied with a plan the master cannot price against the
    /// session's query: a malformed tree, a scan of a table the query does
    /// not have, a join operator that does not apply to its operands, or
    /// a bushy plan in a left-deep session. Never retried.
    Unpriceable {
        /// The replying worker.
        worker: usize,
        /// Why the plan does not price.
        reason: PriceError,
    },
    /// A worker died while holding an outstanding range and retries are
    /// disabled.
    WorkerLost {
        /// The dead worker.
        worker: usize,
    },
    /// Outstanding ranges remain but the retry budget and strike budget
    /// are both spent.
    RetriesExhausted {
        /// Number of partition ranges still missing.
        outstanding: usize,
    },
    /// The handle does not name a live or parked session of this service:
    /// its result was already taken (poll-then-wait), or it belongs to a
    /// different service. Caller misuse, surfaced typed — a resident
    /// master never aborts on it.
    UnknownHandle {
        /// The session id the handle carried.
        id: QueryId,
    },
    /// A submission was malformed (empty assignment, more ranges than
    /// workers, a range outside the partition space, ranges that do not
    /// tile it in order) — caller misuse, surfaced typed.
    BadRequest {
        /// What was wrong with the request.
        reason: &'static str,
    },
    /// The service's in-flight budget
    /// ([`MpqService::set_max_in_flight`])
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

impl fmt::Display for MpqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpqError::Cluster(e) => write!(f, "cluster failure: {e}"),
            MpqError::Decode { worker, source } => {
                write!(f, "reply from worker {worker} failed to decode: {source}")
            }
            MpqError::Protocol { worker } => write!(
                f,
                "worker {worker} replied for an unissued partition range \
                 or with a plan over other tables"
            ),
            MpqError::Unpriceable { worker, reason } => {
                write!(
                    f,
                    "worker {worker} replied with a plan that does not price: {reason}"
                )
            }
            MpqError::WorkerLost { worker } => write!(
                f,
                "worker {worker} died with an outstanding range and retries are disabled"
            ),
            MpqError::RetriesExhausted { outstanding } => write!(
                f,
                "retry budget exhausted with {outstanding} partition range(s) outstanding"
            ),
            MpqError::UnknownHandle { id } => write!(
                f,
                "handle {id} does not name a live or parked session of this service \
                 (already redeemed, or from a different service)"
            ),
            MpqError::BadRequest { reason } => write!(f, "malformed submission: {reason}"),
            MpqError::Overloaded { in_flight, limit } => write!(
                f,
                "service overloaded: {in_flight} session(s) in flight at the admission \
                 limit of {limit}"
            ),
        }
    }
}

impl std::error::Error for MpqError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MpqError::Cluster(e) => Some(e),
            MpqError::Decode { source, .. } => Some(source),
            MpqError::Unpriceable { reason, .. } => Some(reason),
            _ => None,
        }
    }
}

impl From<ClusterError> for MpqError {
    fn from(e: ClusterError) -> Self {
        MpqError::Cluster(e)
    }
}

/// The session table's failures, surfaced as the service's own
/// variants.
impl From<LifecycleError> for MpqError {
    fn from(e: LifecycleError) -> Self {
        match e {
            LifecycleError::UnknownHandle { id } => MpqError::UnknownHandle { id },
            LifecycleError::Overloaded { in_flight, limit } => {
                MpqError::Overloaded { in_flight, limit }
            }
            LifecycleError::BadRequest { reason } => MpqError::BadRequest { reason },
        }
    }
}

/// Configuration of the MPQ optimizer.
#[derive(Clone, Copy, Debug, Default)]
pub struct MpqConfig {
    /// Deterministic fault injection (default: no faults): each worker of
    /// [`MpqService::spawn`] runs behind its
    /// [`Faulty`](mpq_cluster::Faulty) slice of the plan.
    pub faults: FaultPlan,
    /// Recovery policy (default: disabled, blocking receives).
    pub retry: RetryPolicy,
    /// Straggler-adaptive work redistribution (default: off — no progress
    /// traffic, no steals, no oversubscription). Workers then piggyback
    /// per-partition [`Progress`](mpq_cluster::Progress) reports on the
    /// reply stream, and the scheduler splits a lagging range's unstarted
    /// tail over idle workers; see [`MpqService`] for the fixed rule.
    pub steal: bool,
    /// Test/bench knob: artificially slow one worker's compute by the
    /// given factor — worker `id` sleeps `(factor - 1)x` its measured
    /// optimization time after every partition, modeling a degraded node
    /// (thermal throttling, a noisy neighbor). `None` (the default) means
    /// homogeneous workers.
    pub slow_worker: Option<(usize, u32)>,
}

/// Measurements of one optimization run, matching the series the paper
/// plots.
#[derive(Clone, Debug, Default)]
pub struct MpqMetrics {
    /// End-to-end optimization time at the master, in microseconds
    /// ("Time" in Figures 1-5): task distribution + parallel optimization
    /// + plan collection + final pruning.
    pub total_micros: u64,
    /// Maximum pure optimization time over all workers, in microseconds
    /// ("W-Time" in Figures 2 and 5).
    pub max_worker_micros: u64,
    /// Maximum number of relations (table sets with stored plans) over all
    /// workers ("Memory (relations)").
    pub max_worker_stored_sets: u64,
    /// Network counters ("Network (bytes)"), including fault and recovery
    /// counters.
    pub network: NetworkSnapshot,
    /// Per-worker counters, indexed by worker id. Under retries a worker
    /// may execute several ranges; its stats accumulate.
    pub worker_stats: Vec<WorkerStats>,
    /// Number of plan-space partitions actually used (a power of two,
    /// capped by the query size).
    pub partitions: u64,
    /// Ranges of the session's final assignment: one per range the
    /// layout placed, plus one per sub-range a steal carved off. A range
    /// re-issued to another worker still counts once, so every completing
    /// reply books exactly one of these.
    pub workers_used: usize,
    /// Task re-issues performed by the master (worker loss, drop or
    /// straggler suspicion).
    pub retries: u64,
    /// Replies discarded because their range had already been completed
    /// by another worker — the duplicated work of speculative execution.
    pub duplicate_replies: u64,
    /// Total replies the master received (completed + duplicates).
    pub replies_received: u64,
    /// Bytes of re-issued task messages: MPQ's entire recovery cost is
    /// `O(retries · b_q)`, versus a full memo re-broadcast for SMA.
    pub retry_task_bytes: u64,
    /// Steal events for this session: a straggling range's unstarted
    /// remainder was split and re-issued to idle workers (0 unless
    /// [`MpqConfig::steal`] is on).
    pub steals: u64,
    /// Partitions re-issued by those steal events.
    pub stolen_partitions: u64,
    /// Worker progress reports this session's master received.
    pub progress_reports: u64,
}

/// Result of one MPQ optimization.
#[must_use = "the outcome carries the plans and the per-worker counters"]
#[derive(Clone, Debug)]
pub struct MpqOutcome {
    /// The globally optimal plan (single-objective) or the merged Pareto
    /// frontier (multi-objective).
    pub plans: Vec<Plan>,
    /// Run measurements.
    pub metrics: MpqMetrics,
}

/// The single-query MPQ optimizer (Algorithm 1): spawns a resident
/// [`MpqService`] for the call, submits the query, waits, shuts down.
///
/// This is deliberately a thin wrapper — submit-one-query-and-wait over
/// the same session scheduler that serves concurrent streams — so the
/// spawn-per-query and resident-cluster modes share one master-side code
/// path. Keep the service alive across queries (see [`MpqService`]) to
/// amortize the cluster spawn, which dominates at high query rates.
#[derive(Clone, Copy, Debug, Default)]
pub struct MpqOptimizer {
    config: MpqConfig,
}

impl MpqOptimizer {
    /// Creates an optimizer with the given configuration.
    pub fn new(config: MpqConfig) -> Self {
        MpqOptimizer { config }
    }

    /// Optimizes `query` using up to `workers` homogeneous worker nodes
    /// (Algorithm 1). The partition count is
    /// [`effective_workers`]`(space, n, workers)` — the largest power of
    /// two supported by both the worker count and the query size — with
    /// exactly one partition per used worker.
    ///
    /// # Panics
    /// Panics if the run fails (possible only with fault injection or a
    /// protocol bug); use [`MpqOptimizer::try_optimize`] for a typed
    /// error.
    #[expect(
        clippy::expect_used,
        reason = "documented panicking convenience wrapper; try_optimize is the typed-error form"
    )]
    pub fn optimize(
        &self,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
        workers: u64,
    ) -> MpqOutcome {
        self.try_optimize(query, space, objective, workers)
            .expect("MPQ optimization failed")
    }

    /// Fallible form of [`MpqOptimizer::optimize`]: worker loss with
    /// retries disabled, exhausted retry budgets and protocol errors
    /// surface as a typed [`MpqError`] instead of a panic.
    pub fn try_optimize(
        &self,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
        workers: u64,
    ) -> Result<MpqOutcome, MpqError> {
        let partitions = effective_workers(space, query.num_tables(), workers);
        let assignment: Vec<(u64, u64)> = (0..partitions).map(|p| (p, 1)).collect();
        // Submit-one-query-and-wait over a fresh resident service: the
        // spawn-per-query mode, sharing the session scheduler with
        // `MpqService`.
        let mut service = MpqService::spawn(assignment.len(), self.config)?;
        let result = service
            .submit_assigned(query, space, objective, partitions, assignment)
            .and_then(|handle| service.wait(handle));
        service.shutdown();
        result
    }
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

    /// MPQ's answer is the serial DP's optimum, bit for bit.
    fn assert_bits(a: f64, b: f64, what: &str) {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
    }

    #[test]
    fn mpq_matches_serial_linear() {
        let opt = MpqOptimizer::new(MpqConfig::default());
        for seed in 0..4 {
            let q = query(8, seed);
            let serial = optimize_serial(&q, PlanSpace::Linear, Objective::Single);
            for workers in [1u64, 2, 4, 8, 16] {
                let out = opt.optimize(&q, PlanSpace::Linear, Objective::Single, workers);
                assert_eq!(out.plans.len(), 1);
                let a = out.plans[0].cost().time;
                let b = serial.plans[0].cost().time;
                assert_bits(a, b, &format!("seed {seed} workers {workers}"));
            }
        }
    }

    #[test]
    fn mpq_matches_serial_bushy() {
        let opt = MpqOptimizer::new(MpqConfig::default());
        for seed in 0..3 {
            let q = query(6, seed + 10);
            let serial = optimize_serial(&q, PlanSpace::Bushy, Objective::Single);
            for workers in [1u64, 2, 4] {
                let out = opt.optimize(&q, PlanSpace::Bushy, Objective::Single, workers);
                let a = out.plans[0].cost().time;
                let b = serial.plans[0].cost().time;
                assert_bits(a, b, &format!("seed {seed} workers {workers}"));
            }
        }
    }

    #[test]
    fn worker_count_rounds_down() {
        let opt = MpqOptimizer::new(MpqConfig::default());
        let q = query(8, 1);
        // 10 requested -> 8 used (largest power of two <= min(10, 16)).
        let out = opt.optimize(&q, PlanSpace::Linear, Objective::Single, 10);
        assert_eq!(out.metrics.partitions, 8);
        assert_eq!(out.metrics.workers_used, 8);
    }

    #[test]
    fn network_linear_in_workers() {
        // Theorem 1, exactly: m tasks of 8 + |task| bytes and m replies of
        // 85 + b_p(n) bytes, b_p(n) = 2n — linear in m and in n.
        use mpq_cluster::Wire;
        let opt = MpqOptimizer::new(MpqConfig::default());
        let q = query(10, 2);
        for m in [4u64, 16] {
            let task = crate::MasterMessage {
                query: q.clone(),
                space: PlanSpace::Linear,
                objective: Objective::Single,
                first_partition: 0,
                partition_count: 1,
                total_partitions: m,
                progress_every: 0,
            }
            .to_bytes()
            .len() as u64;
            let bytes = opt
                .optimize(&q, PlanSpace::Linear, Objective::Single, m)
                .metrics
                .network
                .total_bytes();
            assert_eq!(bytes, m * (8 + task) + m * (85 + 2 * 10), "{m} workers");
        }
    }

    #[test]
    fn exactly_one_round_and_2m_messages() {
        let opt = MpqOptimizer::new(MpqConfig::default());
        let q = query(8, 3);
        let out = opt.optimize(&q, PlanSpace::Linear, Objective::Single, 8);
        assert_eq!(out.metrics.network.rounds, 1);
        assert_eq!(out.metrics.network.messages, 16); // m tasks + m replies
        assert_eq!(out.metrics.replies_received, 8);
        assert_eq!(out.metrics.retries, 0);
        assert_eq!(out.metrics.duplicate_replies, 0);
        assert_eq!(out.metrics.network.faults_injected(), 0);
    }

    #[test]
    fn memory_decreases_with_workers() {
        let opt = MpqOptimizer::new(MpqConfig::default());
        let q = query(12, 4);
        let m1 = opt
            .optimize(&q, PlanSpace::Linear, Objective::Single, 1)
            .metrics
            .max_worker_stored_sets;
        let m16 = opt
            .optimize(&q, PlanSpace::Linear, Objective::Single, 16)
            .metrics
            .max_worker_stored_sets;
        assert!(
            m16 < m1,
            "per-worker memory must shrink with parallelism: {m1} -> {m16}"
        );
        // Theorem 2: each doubling removes 1/4 of the sets; 16 workers
        // (4 constraints) leave (3/4)^4 ≈ 31.6% plus the n singletons.
        let predicted = m1 as f64 * (3.0f64 / 4.0).powi(4);
        let tolerance = 0.1 * m1 as f64;
        assert!(
            (m16 as f64 - predicted).abs() < tolerance,
            "expected ≈{predicted}, got {m16}"
        );
    }

    #[test]
    fn multi_objective_merges_frontiers() {
        let opt = MpqOptimizer::new(MpqConfig::default());
        let q = query(8, 5);
        let serial = optimize_serial(&q, PlanSpace::Linear, Objective::Multi { alpha: 1.0 });
        let out = opt.optimize(&q, PlanSpace::Linear, Objective::Multi { alpha: 1.0 }, 8);
        // Exact mode: the merged frontier is the serial one, bit for bit.
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

    /// One session over an explicit layout on a fresh three-worker
    /// service.
    fn run_assigned(q: &Query, partitions: u64, assignment: Vec<(u64, u64)>) -> MpqOutcome {
        let mut svc = MpqService::spawn(3, MpqConfig::default()).unwrap();
        let out = svc
            .submit_assigned(
                q,
                PlanSpace::Linear,
                Objective::Single,
                partitions,
                assignment,
            )
            .and_then(|h| svc.wait(h))
            .unwrap();
        svc.shutdown();
        out
    }

    /// Heterogeneous workers (footnote 1 of the paper) are an uneven
    /// layout: one worker takes twice the partitions of the others.
    #[test]
    fn weighted_assignment_covers_space() {
        let q = query(8, 6);
        let serial = optimize_serial(&q, PlanSpace::Linear, Objective::Single);
        let out = run_assigned(&q, 16, vec![(0, 8), (8, 4), (12, 4)]);
        let a = out.plans[0].cost().time;
        let b = serial.plans[0].cost().time;
        assert_bits(a, b, "weighted");
        assert_eq!(out.metrics.workers_used, 3);
    }

    #[test]
    fn oversubscription_covers_space() {
        let q = query(8, 7);
        let serial = optimize_serial(&q, PlanSpace::Linear, Objective::Single);
        let out = run_assigned(&q, 16, vec![(0, 6), (6, 5), (11, 5)]);
        let a = out.plans[0].cost().time;
        let b = serial.plans[0].cost().time;
        assert_bits(a, b, "oversubscribed");
        assert_eq!(out.metrics.partitions, 16);
        assert_eq!(out.metrics.workers_used, 3);
    }

    #[test]
    fn crashed_workers_are_recovered_by_retries() {
        let q = query(8, 9);
        let serial = optimize_serial(&q, PlanSpace::Linear, Objective::Single);
        // Crash every worker except one; retries re-execute the lost
        // ranges on the survivors.
        let opt = MpqOptimizer::new(MpqConfig {
            faults: FaultPlan::crash_on_first_task(4, 1),
            retry: RetryPolicy::with_timeout(64, Duration::from_millis(25)),
            ..MpqConfig::default()
        });
        let out = opt
            .try_optimize(&q, PlanSpace::Linear, Objective::Single, 4)
            .expect("retries must recover the crashed ranges");
        let a = out.plans[0].cost().time;
        let b = serial.plans[0].cost().time;
        assert_bits(a, b, "after crashes");
        assert!(out.metrics.retries >= 1);
        assert!(out.metrics.network.crashes >= 1);
        assert!(out.metrics.retry_task_bytes > 0);
    }

    #[test]
    fn crashed_worker_without_retries_is_a_typed_error() {
        let q = query(8, 10);
        let opt = MpqOptimizer::new(MpqConfig {
            faults: FaultPlan::crash_on_first_task(4, 1),
            retry: RetryPolicy {
                max_retries: 0,
                timeout: Some(Duration::from_millis(20)),
                max_strikes: 8,
            },
            ..MpqConfig::default()
        });
        let err = opt
            .try_optimize(&q, PlanSpace::Linear, Objective::Single, 4)
            .expect_err("a crashed worker without retries must fail");
        assert!(
            matches!(err, MpqError::WorkerLost { .. }),
            "expected WorkerLost, got {err}"
        );
    }

    #[test]
    fn dropped_replies_are_reexecuted() {
        let q = query(7, 12);
        let serial = optimize_serial(&q, PlanSpace::Linear, Objective::Single);
        // Drop ~half the replies; retries re-issue until all ranges land.
        let opt = MpqOptimizer::new(MpqConfig {
            faults: FaultPlan {
                seed: 3,
                drop_prob: 0.5,
                ..FaultPlan::NONE
            },
            retry: RetryPolicy::with_timeout(128, Duration::from_millis(25)),
            ..MpqConfig::default()
        });
        let out = opt
            .try_optimize(&q, PlanSpace::Linear, Objective::Single, 8)
            .expect("drops must be recovered");
        let a = out.plans[0].cost().time;
        let b = serial.plans[0].cost().time;
        assert_bits(a, b, "after drops");
        // Ledger: every received reply either completed a range or was a
        // duplicate.
        assert_eq!(
            out.metrics.replies_received,
            out.metrics.workers_used as u64 + out.metrics.duplicate_replies
        );
    }

    #[test]
    fn stragglers_trigger_speculation_and_duplicates_are_discarded() {
        let q = query(7, 13);
        let serial = optimize_serial(&q, PlanSpace::Linear, Objective::Single);
        let opt = MpqOptimizer::new(MpqConfig {
            faults: FaultPlan {
                seed: 8,
                straggle_prob: 1.0,
                straggle_us: 60_000, // well past the 10ms suspicion timeout
                ..FaultPlan::NONE
            },
            retry: RetryPolicy::with_timeout(64, Duration::from_millis(10)),
            ..MpqConfig::default()
        });
        let out = opt
            .try_optimize(&q, PlanSpace::Linear, Objective::Single, 4)
            .expect("stragglers must not fail the run");
        let a = out.plans[0].cost().time;
        let b = serial.plans[0].cost().time;
        assert_bits(a, b, "after straggles");
        assert!(out.metrics.network.straggles >= 1);
        assert_eq!(
            out.metrics.replies_received,
            out.metrics.workers_used as u64 + out.metrics.duplicate_replies
        );
    }
}
