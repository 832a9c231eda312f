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
use mpq_dp::WorkerStats;
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

/// When and how the master **redistributes** a straggler's unstarted work.
///
/// Where the [`RetryPolicy`] reacts to *lost* work (dead workers, dropped
/// replies), the steal policy reacts to *slow* work: workers piggyback
/// per-range [`Progress`](mpq_cluster::Progress) reports on the reply
/// stream, the scheduler compares the **relative** progress of a
/// session's ranges, and when one range provably lags it splits the
/// range's unstarted remainder into sub-ranges and re-issues them to idle
/// workers. The range-echo duplicate suppression of the retry machinery
/// guarantees exactness: the straggler's eventual full-range reply and
/// the thieves' sub-range replies reconcile to the same cost bits and
/// Pareto frontier as a steal-free run.
///
/// Stealing only ever fires on ranges holding **several** partitions
/// (oversubscribed or weighted assignments); the default one-partition-
/// per-worker assignment has no splittable remainder.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StealPolicy {
    /// Master switch. `false` (the default) also suppresses progress
    /// reporting, so the wire traffic is bit-for-bit the steal-off
    /// behavior.
    pub enabled: bool,
    /// Progress-report cadence, in completed partitions (only meaningful
    /// when enabled; clamped to at least 1 on the wire).
    pub progress_every: u64,
    /// Relative-lag trigger: a range is a straggler when
    /// `own_fraction * lag_ratio < best_fraction` over the session's
    /// ranges (completed ranges count as fraction 1). Must be > 1.
    pub lag_ratio: f64,
    /// Minimum unstarted partitions in the straggler's range before a
    /// split is worthwhile.
    pub min_steal: u64,
    /// Maximum steal events per session (a separate budget from
    /// [`RetryPolicy::max_retries`]).
    pub max_steals: u32,
    /// Partition oversubscription applied by
    /// [`MpqService::submit`](crate::MpqService::submit) when stealing is
    /// enabled: each worker's
    /// range holds up to this many partitions (capped by the query's
    /// partition limit), so there is a splittable tail to steal. `1`
    /// reproduces the one-partition-per-worker layout, which has nothing
    /// to redistribute. Explicit `submit_assigned` layouts are never
    /// altered.
    pub oversubscribe: u64,
}

impl Default for StealPolicy {
    fn default() -> Self {
        StealPolicy::DISABLED
    }
}

impl StealPolicy {
    /// No redistribution, no progress traffic: the default.
    pub const DISABLED: StealPolicy = StealPolicy {
        enabled: false,
        progress_every: 1,
        lag_ratio: 2.0,
        min_steal: 2,
        max_steals: 16,
        oversubscribe: 4,
    };

    /// A balanced enabled policy: report after every partition, steal
    /// when a range lags the session's best by 2x with at least 2
    /// unstarted partitions, at most 16 steals per session.
    pub fn balanced() -> StealPolicy {
        StealPolicy {
            enabled: true,
            ..StealPolicy::DISABLED
        }
    }

    /// The report cadence actually put on the wire (0 when disabled).
    pub(crate) fn wire_cadence(&self) -> u64 {
        if self.enabled {
            self.progress_every.max(1)
        } else {
            0
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
    /// A worker replied for a partition range the master never issued.
    Protocol {
        /// The offending worker.
        worker: usize,
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
    /// workers) — caller misuse, surfaced typed.
    BadRequest {
        /// What was wrong with the request.
        reason: &'static str,
    },
    /// The service's in-flight budget ([`MpqConfig::max_in_flight`]) is
    /// spent: `in_flight` sessions are already admitted against a limit
    /// of `limit`. Backpressure, not failure — retry after redeeming a
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
            MpqError::Protocol { worker } => {
                write!(f, "worker {worker} replied for an unissued partition range")
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
            _ => None,
        }
    }
}

impl From<ClusterError> for MpqError {
    fn from(e: ClusterError) -> Self {
        MpqError::Cluster(e)
    }
}

/// The shared session lifecycle's failures, surfaced as this protocol's
/// own variants.
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
    /// Straggler-adaptive work redistribution (default: disabled — no
    /// progress traffic, no steals).
    pub steal: StealPolicy,
    /// Test/bench knob: artificially slow one worker's compute by the
    /// given factor — worker `id` sleeps `(factor - 1)x` its measured
    /// optimization time after every partition, modeling a degraded node
    /// (thermal throttling, a noisy neighbor). `None` (the default) means
    /// homogeneous workers.
    pub slow_worker: Option<(usize, u32)>,
    /// Byte budget of each worker's **shard-local cross-query memo
    /// cache** (see `mpq_plan::cache`). Workers keep finished partition
    /// results keyed by the canonical query signature and serve them to
    /// later sessions with identical statistics, predicates and cost
    /// model — no extra network traffic, since each worker caches only
    /// what it computed itself. `0` (the default) disables caching, which
    /// is bit-for-bit the pre-cache behavior.
    pub cache_bytes: usize,
    /// Admission limit: how many sessions may be in flight (submitted but
    /// not yet finished) at once. Submissions beyond the limit are
    /// refused with a typed [`MpqError::Overloaded`] instead of being
    /// queued silently. `0` (the default) means unlimited — bit-for-bit
    /// the pre-admission behavior.
    pub max_in_flight: usize,
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
    /// Number of worker nodes that received a task.
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
    /// Partition subproblems this session's workers served from their
    /// shard-local cross-query caches (0 unless `MpqConfig::cache_bytes`
    /// is set).
    pub cache_hits: u64,
    /// Partition subproblems this session's workers computed (and, with
    /// caching enabled, inserted for later sessions).
    pub cache_misses: u64,
    /// Steal events for this session: a straggling range's unstarted
    /// remainder was split and re-issued to idle workers (0 unless
    /// [`MpqConfig::steal`] is enabled).
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
    // Audited panic site (crates/xtask/allow/panics.allow): documented
    // panicking convenience wrapper over the typed-error form.
    #[allow(clippy::expect_used)]
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
        self.one_shot(query, space, objective, partitions, assignment)
    }

    /// Optimizes with heterogeneous workers (footnote 1 of the paper): the
    /// number of partitions treated by a worker is proportional to its
    /// weight. `weights.len()` is the number of workers; weights must be
    /// positive.
    ///
    /// # Panics
    /// Panics if the run fails; use
    /// [`MpqOptimizer::try_optimize_weighted`] for a typed error.
    // Audited panic site (crates/xtask/allow/panics.allow): documented
    // panicking convenience wrapper over the typed-error form.
    #[allow(clippy::expect_used)]
    pub fn optimize_weighted(
        &self,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
        weights: &[f64],
    ) -> MpqOutcome {
        self.try_optimize_weighted(query, space, objective, weights)
            .expect("MPQ optimization failed")
    }

    /// Fallible form of [`MpqOptimizer::optimize_weighted`]: caller
    /// misuse (no workers, non-positive weights) is a typed
    /// [`MpqError::BadRequest`], not a panic.
    pub fn try_optimize_weighted(
        &self,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
        weights: &[f64],
    ) -> Result<MpqOutcome, MpqError> {
        if weights.is_empty() {
            return Err(MpqError::BadRequest {
                reason: "at least one worker required",
            });
        }
        if !weights.iter().all(|&w| w > 0.0 && w.is_finite()) {
            return Err(MpqError::BadRequest {
                reason: "worker weights must be positive and finite",
            });
        }
        let partitions = effective_workers(space, query.num_tables(), weights.len() as u64);
        let assignment = proportional_assignment(weights, partitions);
        self.one_shot(query, space, objective, partitions, assignment)
    }

    /// Oversubscribed mode: uses `partitions` plan-space partitions
    /// (a power of two supported by the query) spread over `workers`
    /// worker nodes, several consecutive partitions per worker. Useful
    /// when the partition granularity should exceed the node count — and
    /// under faults, because smaller ranges mean cheaper re-execution.
    ///
    /// # Panics
    /// Panics if the run fails; use
    /// [`MpqOptimizer::try_optimize_oversubscribed`] for a typed error.
    // Audited panic site (crates/xtask/allow/panics.allow): documented
    // panicking convenience wrapper over the typed-error form.
    #[allow(clippy::expect_used)]
    pub fn optimize_oversubscribed(
        &self,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
        workers: usize,
        partitions: u64,
    ) -> MpqOutcome {
        self.try_optimize_oversubscribed(query, space, objective, workers, partitions)
            .expect("MPQ optimization failed")
    }

    /// Fallible form of [`MpqOptimizer::optimize_oversubscribed`]: caller
    /// misuse (no workers, an unsupported partition count) is a typed
    /// [`MpqError::BadRequest`], not a panic.
    pub fn try_optimize_oversubscribed(
        &self,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
        workers: usize,
        partitions: u64,
    ) -> Result<MpqOutcome, MpqError> {
        if workers == 0 {
            return Err(MpqError::BadRequest {
                reason: "at least one worker required",
            });
        }
        let max = space.max_partitions(query.num_tables());
        if !partitions.is_power_of_two() || partitions > max {
            return Err(MpqError::BadRequest {
                reason: "partitions must be a power of two within the query's partition limit",
            });
        }
        let workers = workers.min(partitions as usize);
        let weights = vec![1.0; workers];
        let assignment = proportional_assignment(&weights, partitions);
        self.one_shot(query, space, objective, partitions, assignment)
    }

    /// Submit-one-query-and-wait over a fresh resident service: the
    /// spawn-per-query mode, sharing the session scheduler with
    /// [`MpqService`].
    fn one_shot(
        &self,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
        partitions: u64,
        assignment: Vec<(u64, u64)>,
    ) -> Result<MpqOutcome, MpqError> {
        let mut service = MpqService::spawn(assignment.len(), self.config)?;
        let result = service
            .submit_assigned(query, space, objective, partitions, assignment)
            .and_then(|handle| service.wait(handle));
        service.shutdown();
        result
    }
}

/// Splits `partitions` into contiguous per-worker ranges with sizes
/// proportional to `weights` (largest-remainder rounding; every worker with
/// positive weight gets at least zero, workers with zero share are
/// dropped).
fn proportional_assignment(weights: &[f64], partitions: u64) -> Vec<(u64, u64)> {
    let total_w: f64 = weights.iter().sum();
    let mut counts: Vec<u64> = weights
        .iter()
        .map(|w| ((w / total_w) * partitions as f64).floor() as u64)
        .collect();
    let mut assigned: u64 = counts.iter().sum();
    // Largest remainders get the leftover partitions.
    let mut rema: Vec<(usize, f64)> = weights
        .iter()
        .enumerate()
        .map(|(i, w)| (i, (w / total_w) * partitions as f64 - counts[i] as f64))
        .collect();
    rema.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut k = 0;
    while assigned < partitions {
        counts[rema[k % rema.len()].0] += 1;
        assigned += 1;
        k += 1;
    }
    // Contiguous ranges, dropping zero-count workers.
    let mut out = Vec::new();
    let mut first = 0u64;
    for &c in &counts {
        if c > 0 {
            out.push((first, c));
            first += c;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
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
        // Theorem 1: bytes on the wire are O(m (b_q + b_p)).
        let opt = MpqOptimizer::new(MpqConfig::default());
        let q = query(10, 2);
        let b4 = opt
            .optimize(&q, PlanSpace::Linear, Objective::Single, 4)
            .metrics
            .network
            .total_bytes();
        let b16 = opt
            .optimize(&q, PlanSpace::Linear, Objective::Single, 16)
            .metrics
            .network
            .total_bytes();
        let ratio = b16 as f64 / b4 as f64;
        assert!(
            ratio > 3.0 && ratio < 5.0,
            "4x workers must mean ~4x bytes, got {ratio}"
        );
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

    #[test]
    fn weighted_assignment_covers_space() {
        let opt = MpqOptimizer::new(MpqConfig::default());
        let q = query(8, 6);
        let serial = optimize_serial(&q, PlanSpace::Linear, Objective::Single);
        // Three workers, one twice as fast: 16 partitions split ~8/4/4.
        let out = opt.optimize_weighted(&q, PlanSpace::Linear, Objective::Single, &[2.0, 1.0, 1.0]);
        let a = out.plans[0].cost().time;
        let b = serial.plans[0].cost().time;
        assert_bits(a, b, "weighted");
        assert!(out.metrics.workers_used <= 3);
    }

    #[test]
    fn oversubscription_covers_space() {
        let opt = MpqOptimizer::new(MpqConfig::default());
        let q = query(8, 7);
        let serial = optimize_serial(&q, PlanSpace::Linear, Objective::Single);
        let out = opt.optimize_oversubscribed(&q, PlanSpace::Linear, Objective::Single, 3, 16);
        let a = out.plans[0].cost().time;
        let b = serial.plans[0].cost().time;
        assert_bits(a, b, "oversubscribed");
        assert_eq!(out.metrics.partitions, 16);
        assert_eq!(out.metrics.workers_used, 3);
    }

    #[test]
    fn proportional_assignment_properties() {
        let a = proportional_assignment(&[1.0, 1.0, 1.0, 1.0], 8);
        assert_eq!(a, vec![(0, 2), (2, 2), (4, 2), (6, 2)]);
        let a = proportional_assignment(&[3.0, 1.0], 8);
        assert_eq!(a.iter().map(|&(_, c)| c).sum::<u64>(), 8);
        assert_eq!(a[0].1, 6);
        // Contiguity and full coverage.
        let mut next = 0;
        for &(first, count) in &a {
            assert_eq!(first, next);
            next = first + count;
        }
        assert_eq!(next, 8);
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
