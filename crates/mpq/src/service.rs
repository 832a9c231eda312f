//! The resident MPQ optimizer service: one long-lived cluster
//! multiplexing many concurrent optimization sessions.
//!
//! Where [`MpqOptimizer`](crate::MpqOptimizer) answers a single query,
//! [`MpqService`] keeps the shared-nothing cluster standing and streams
//! queries through it. It is the whole master: `submit` / `poll` /
//! `wait` over one [`SessionTable`] (handles, admission, parking, reaping
//! — the table the facade's flight table shares), which task
//! messages a submission sends, how a reply or progress report advances
//! its session, and the scheduler passes that interleave straggler
//! suspicion and task re-issue across **all** in-flight sessions. Every
//! wire message carries its session's
//! [`QueryId`], so replies are routed to the owning session no matter how
//! submissions and completions interleave.
//!
//! Fault tolerance is per session: each session owns its retry budget and
//! strike counter under the service-wide [`RetryPolicy`], and because an
//! MPQ task is stateless, a worker crash poisons only the partition
//! ranges it held — every other session keeps streaming. A worker found
//! dead at submission time is routed around the same way a lost range is.
//!
//! The bookkeeping is one record per thing: a session keeps one record
//! per partition range (what it covers, whether it is done, its latest
//! assignee, and that worker's send count when the task went out), and
//! the service one record per worker (tasks sent, replies seen, replies
//! proved lost, last reply). A range's reply is provably lost once its
//! assignee's reply count reaches the range's mark: per-worker FIFO. Every
//! task — first dispatch, re-issue, stolen chunk, head backup — goes out
//! through `Session::issue`, which books it on both records. With no
//! retry timeout, routing a message and the suspicion pass read no clock.
//!
//! Beyond loss recovery, the scheduler performs **straggler-adaptive work
//! redistribution** (opt-in via [`MpqConfig::steal`]): workers piggyback
//! fixed-size [`Progress`](mpq_cluster::Progress) reports on the reply
//! stream, and when one range's relative progress provably lags the rest
//! of its session, the master splits the range's *unstarted* remainder
//! into sub-ranges and re-issues them to idle workers. The rule is fixed:
//! up to 4 partitions per range at submission, a report after every
//! partition, a steal when a range lags the session's best by 2× and has
//! a non-empty unstarted tail, at most 16 steals per session (the
//! `STEAL_*` and `MAX_STEALS` constants). The same
//! range-echo duplicate suppression that makes speculative re-execution
//! exact makes stealing exact: the straggler's eventual full-range reply
//! reconciles against the split record, and overlapping plan
//! contributions cannot change cost bits or Pareto frontiers (FinalPrune
//! is a pure min/frontier over the candidate pool).
//!
//! The single-query [`MpqOptimizer`](crate::MpqOptimizer) entry points
//! are thin wrappers over this service (spawn, submit one query, wait,
//! shut down), so there is exactly one master-side code path.

// A server facade must never abort on caller error: every unwrap/expect
// on this master-side path is either removed or individually justified.

use crate::message::{MasterMessage, WorkerMsg, WorkerReply};
use crate::optimizer::{MpqConfig, MpqError, MpqMetrics, MpqOutcome, RetryPolicy};
use bytes::Bytes;
pub use mpq_cluster::QueryHandle;
use mpq_cluster::{
    Cluster, ClusterError, Control, Faulty, LatencyModel, LifecycleError, NetworkMetrics, QueryId,
    SessionTable, Transport, Wire, WireListener, WorkerCtx, WorkerLogic,
};
use mpq_cost::Objective;
use mpq_dp::{optimize_partition_id, ParallelPolicy, PriceError, PricedPlan, Pricer, WorkerStats};
use mpq_model::Query;
use mpq_partition::{effective_workers, is_partition_range, PlanSpace};
use mpq_plan::{Plan, PruningPolicy};
use std::time::Instant;

/// How long a no-timer `wait` parks between clock-free evidence passes:
/// long enough to cost nothing, short enough that a worker dying while
/// the master is parked is noticed promptly.
const EVIDENCE_HEARTBEAT: std::time::Duration = std::time::Duration::from_millis(25);

/// With stealing on, `submit` gives each range up to this many partitions,
/// so it has a tail to steal; `submit_oversubscribes_when_stealing` and
/// the CI `--steal` smoke step's progress line rest on it.
const STEAL_OVERSUBSCRIBE: u64 = 4;

/// With stealing on, a worker reports after every this-many completed
/// partitions; `steal_preserves_pareto_frontiers_bitwise` (two partitions
/// per range) steals only because the first one is reported.
const STEAL_PROGRESS_EVERY: u64 = 1;

/// A range is a straggler when its completed fraction times this is below
/// the session's best; `straggler_steal_linear11_w4_p32_slow10x` beats
/// `straggler_static_linear11_w4_p32_slow10x` with it.
const STEAL_LAG_RATIO: f64 = 2.0;

/// Steal events per session, a budget apart from the retries; the same
/// `straggler_*` ids and the `mpq-steal-2w1s` model-check row hold with it.
const MAX_STEALS: u32 = 16;

/// Worker-side logic: decode the task, optimize the assigned partition
/// range, reply once per task.
///
/// MPQ tasks are stateless by design (the paper's deployment argument),
/// so the worker holds no state between messages: each message is a
/// complete unit of work, and the session-tagged reply is routed by the
/// runtime. Repeated queries are the service facade's business — its
/// result cache answers them before any task is sent.
pub(crate) struct MpqWorker {
    /// Compute slowdown factor (1 = full speed); see
    /// [`MpqConfig::slow_worker`](crate::MpqConfig).
    slow_factor: u32,
}

impl MpqWorker {
    pub(crate) fn new(slow_factor: u32) -> MpqWorker {
        MpqWorker {
            slow_factor: slow_factor.max(1),
        }
    }
}

/// One boxed MPQ worker node's logic, for callers that host worker nodes
/// behind their own [`Transport`] rather than a [`Cluster`] or socket —
/// the schedule-space model checker dispatches messages to these inline.
/// Equivalent to what [`MpqService::spawn`] installs on each thread, with
/// full compute speed. The argument is ignored: workers hold no cache.
/// It stays only because the frozen `benchmark/` passes it.
pub fn worker_logic(_cache_bytes: usize) -> Box<dyn WorkerLogic> {
    Box::new(MpqWorker::new(1))
}

impl WorkerLogic for MpqWorker {
    fn on_message(&mut self, _query: QueryId, payload: Bytes, ctx: &mut WorkerCtx) -> Control {
        let msg = match MasterMessage::from_bytes(&payload) {
            // A range the partition decoder would assert on — or a count
            // that would never end — must not reach it: the panic takes the
            // worker thread, and every later task sent there, with it.
            Ok(m)
                if is_partition_range(
                    m.query.num_tables(),
                    m.space,
                    m.first_partition,
                    m.partition_count,
                    m.total_partitions,
                ) =>
            {
                m
            }
            // A malformed task means a protocol bug; reply with an
            // impossible range echo so the master fails that session with
            // a typed error instead of hanging. The worker itself stays
            // up — on a resident cluster it is still serving every other
            // session.
            _ => {
                ctx.send_to_master(
                    WorkerMsg::Reply(WorkerReply {
                        first_partition: u64::MAX,
                        partition_count: 0,
                        plans: Vec::new(),
                        stats: WorkerStats::default(),
                        cache_hits: 0,
                        cache_misses: 0,
                    })
                    .to_bytes(),
                );
                return Control::Continue;
            }
        };
        let policy = PruningPolicy::new(msg.objective, msg.query.num_tables());
        let mut plans: Vec<Plan> = Vec::new();
        let mut stats = WorkerStats::default();
        for (done, part_id) in (msg.first_partition..msg.first_partition + msg.partition_count)
            .enumerate()
            .map(|(i, p)| (i as u64, p))
        {
            // W-Time: the partition's optimization time, read once. The DP
            // reads no clock, so the worker stamps it.
            #[expect(
                clippy::disallowed_methods,
                reason = "measurement: W-Time (optimize_micros, which no decision reads), \
                          also the slowdown injector's base"
            )]
            let (mut out, elapsed) = {
                let t0 = Instant::now();
                let out = optimize_partition_id(
                    &msg.query,
                    msg.space,
                    msg.objective,
                    part_id,
                    msg.total_partitions,
                );
                (out, t0.elapsed())
            };
            out.stats.optimize_micros = elapsed.as_micros() as u64;
            #[expect(
                clippy::disallowed_methods,
                reason = "fault injection: simulates a straggling worker by stretching its \
                          real compute time"
            )]
            if self.slow_factor > 1 {
                // Degraded-node model: pay (factor - 1) extra copies of
                // the measured compute time per partition.
                std::thread::sleep(elapsed * (self.slow_factor - 1));
            }
            plans.extend(out.plans);
            stats.accumulate(&out.stats);
            // Progress piggyback: after every `progress_every` completed
            // partitions, but never for the final one (the reply itself
            // signals completion).
            let completed = done + 1;
            if msg.progress_every > 0
                && completed < msg.partition_count
                && completed % msg.progress_every == 0
            {
                ctx.send_to_master(
                    WorkerMsg::Progress(mpq_cluster::Progress {
                        first_partition: msg.first_partition,
                        completed,
                        partition_count: msg.partition_count,
                    })
                    .to_bytes(),
                );
            }
        }
        // Worker-local prune across its partitions: completed plans, so
        // orders no longer matter.
        policy.final_prune(&mut plans);
        ctx.send_to_master(
            WorkerMsg::Reply(WorkerReply {
                first_partition: msg.first_partition,
                partition_count: msg.partition_count,
                plans,
                stats,
                cache_hits: 0,
                cache_misses: 0,
            })
            .to_bytes(),
        );
        Control::Continue
    }
}

/// One steal's paper trail: the range exactly as the superseded task was
/// issued (`first`/`count` are what its assignee will echo), and the
/// ranges now covering it — the shrunk kept piece plus the stolen
/// sub-ranges. The straggler's eventual full-range reply is reconciled
/// against this record instead of failing as a protocol error.
struct SplitRecord {
    first: u64,
    count: u64,
    members: Vec<usize>,
}

/// One partition range of a session: what its task covers, who holds it,
/// and how far that holder's reply stream must get before its reply is
/// provably lost. Only [`Session::issue`] books `worker`, `reissued` and
/// `mark`.
#[derive(Default)]
struct RangeRecord {
    first: u64,
    count: u64,
    done: bool,
    /// Latest worker the range was issued to, and whether it was ever
    /// re-issued (i.e. an earlier assignee might still deliver it).
    worker: usize,
    reissued: bool,
    /// The latest assignee's send count when the task went out: by
    /// per-worker FIFO, once that worker's reply count reaches this mark,
    /// an outstanding range's reply is provably lost, not queued. 0 until
    /// the range is first issued.
    mark: u64,
    /// Partitions reported completed by its assignee (progress
    /// piggyback; stays 0 with stealing disabled).
    progress: u64,
}

impl RangeRecord {
    /// Completed fraction: 1 once done (or empty), else the reported
    /// progress over the count.
    fn fraction(&self) -> f64 {
        if self.done || self.count == 0 {
            1.0
        } else {
            self.progress as f64 / self.count as f64
        }
    }

    /// The strictly unstarted tail: the partition after the last reported
    /// one is presumed in flight at the assignee.
    fn unstarted(&self) -> u64 {
        self.count.saturating_sub(self.progress + 1)
    }
}

/// The master's evidence about one worker, shared by every session: its
/// FIFO stream position and, under a retry timeout, when it last spoke.
#[derive(Clone)]
struct WorkerRecord {
    /// Tasks sent to the worker.
    sent: u64,
    /// Replies seen from it (progress reports excluded).
    seen: u64,
    /// Replies the recovery pass proved lost: the queue-ledger repair
    /// that keeps one dropped reply from shrinking the thief pool forever.
    lost: u64,
    /// When the worker last sent anything: the reply-silent evidence of
    /// [`MpqService::session_timeout`]. Stamped only under
    /// `RetryPolicy::timeout = Some(t)`, where a worker silent for `t`
    /// lets its outstanding ranges be re-issued. Like
    /// [`Session::last_progress`], it decides when, never what.
    last_reply: Instant,
}

impl WorkerRecord {
    /// Tasks sent whose reply the master has neither seen nor proved
    /// lost: the depth of the worker's queue as far as the ledger knows.
    fn outstanding(&self) -> u64 {
        self.sent.saturating_sub(self.seen + self.lost)
    }
}

/// Master-side state of one in-flight optimization session.
pub struct Session {
    id: QueryId,
    /// The task message of every range but for the range's bounds: the
    /// query with its statistics, the plan space, the objective, the
    /// partition count and the progress cadence. [`Session::task`] writes
    /// a range's bounds into it and encodes it, so a send encodes the
    /// session's one copy of the query and never clones it.
    task: MasterMessage,
    ranges: Vec<RangeRecord>,
    /// Ranges split by steals, kept for reply reconciliation.
    splits: Vec<SplitRecord>,
    /// The counters this session reports, kept where they are reported:
    /// `finish` fills in the rest.
    metrics: MpqMetrics,
    /// The pool FinalPrune ranks: every plan a reply carried, priced
    /// against this session's query.
    plans: Vec<PricedPlan>,
    /// Prices this session's reply plans; built at its first reply, and
    /// boxed: sessions are moved about by value, and the estimator is
    /// several times the size of the rest of the record.
    pricer: Option<Box<Pricer>>,
    strikes: u32,
    start: Instant,
    /// When this session last saw one of its own replies: the per-session
    /// suspicion timer. Under `RetryPolicy::timeout = Some(t)`,
    /// [`MpqService::check_suspicions`] re-examines a session once this is
    /// `t` old. The clock then decides when a range is re-issued, which
    /// cannot change an answer: a task is stateless, and FinalPrune is a
    /// pure min/frontier. With no timeout it is never stamped again.
    last_progress: Instant,
}

impl Session {
    /// The encoded task message for range `r` — the single encoding site,
    /// so every field travels with every task.
    fn task(&mut self, r: usize) -> Bytes {
        let range = &self.ranges[r];
        self.task.first_partition = range.first;
        self.task.partition_count = range.count;
        self.task.to_bytes()
    }

    fn outstanding(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.ranges.len()).filter(|&i| !self.ranges[i].done)
    }

    /// The one send site: sends range `r`'s task to the first of
    /// `targets` that accepts it and books it there. The task is encoded
    /// per attempt and its only handle moves into `send`, so the receiver
    /// frees the buffer. Returns the task's byte length, or the last
    /// refusal ([`ClusterError::AllWorkersLost`] with no target at all).
    fn issue(
        &mut self,
        r: usize,
        targets: impl IntoIterator<Item = usize>,
        net: &dyn Transport,
        workers: &mut [WorkerRecord],
    ) -> Result<u64, ClusterError> {
        let mut refusal = ClusterError::AllWorkersLost;
        for target in targets {
            let task = self.task(r);
            let len = task.len() as u64;
            match net.send(target, self.id, task, true) {
                Ok(()) => {
                    let worker = &mut workers[target];
                    worker.sent += 1;
                    let range = &mut self.ranges[r];
                    // A range booked before has an earlier assignee that
                    // may still deliver it.
                    range.reissued |= range.mark > 0;
                    range.worker = target;
                    range.mark = worker.sent;
                    return Ok(len);
                }
                Err(err) => refusal = err,
            }
        }
        Err(refusal)
    }

    /// Prices a reply's plans against this session's query and plan
    /// space, with the session's one estimator: the costs FinalPrune
    /// ranks are the master's own, never a worker's.
    fn price(&mut self, plans: Vec<Plan>) -> Result<Vec<PricedPlan>, PriceError> {
        let (query, space) = (&self.task.query, self.task.space);
        let pricer = self
            .pricer
            .get_or_insert_with(|| Box::new(Pricer::new(query)));
        plans.into_iter().map(|p| pricer.price(space, p)).collect()
    }
}

/// A long-lived MPQ optimizer service over one resident cluster: the one
/// master of every session it serves. It owns the message plane, the
/// [`SessionTable`] of in-flight sessions and parked results, and the
/// per-worker evidence every session's suspicion and steal passes read.
/// See the module docs.
pub struct MpqService {
    net: Box<dyn Transport>,
    table: SessionTable<Session, Result<MpqOutcome, MpqError>>,
    retry: RetryPolicy,
    steal: bool,
    /// One record per worker, indexed by worker id.
    workers: Vec<WorkerRecord>,
}

impl MpqService {
    /// Spawns the resident cluster: `workers` worker threads, each behind
    /// its [`Faulty`] slice of `config`'s fault plan, under `config`'s
    /// retry policy, shared by every subsequently submitted query.
    pub fn spawn(workers: usize, config: MpqConfig) -> Result<MpqService, MpqError> {
        if workers == 0 {
            return Err(MpqError::BadRequest {
                reason: "at least one worker required",
            });
        }
        let faults = config.faults.schedule(workers);
        let cluster = Cluster::spawn(workers, LatencyModel::ZERO, |w| {
            let slow_factor = match config.slow_worker {
                Some((slow, factor)) if slow == w => factor,
                _ => 1,
            };
            Faulty::new(MpqWorker::new(slow_factor), faults.worker(w))
        })
        .map_err(MpqError::Cluster)?;
        MpqService::with_transport(Box::new(cluster), config)
    }

    /// Builds the service over an already-connected message plane — the
    /// entry point for real socket transports
    /// ([`SocketTransport`](mpq_cluster::SocketTransport)), whose worker
    /// processes run [`serve_socket_worker`]. `config`'s fault plan and
    /// slow-worker injector are ignored (they act on workers this side
    /// does not spawn; wrap a socket worker in [`Faulty`] instead), while
    /// its retry policy and steal switch govern recovery exactly as on
    /// the in-process plane.
    pub fn with_transport(
        transport: Box<dyn Transport>,
        config: MpqConfig,
    ) -> Result<MpqService, MpqError> {
        let workers = transport.num_workers();
        if workers == 0 {
            return Err(MpqError::BadRequest {
                reason: "at least one worker required",
            });
        }
        Ok(MpqService {
            net: transport,
            table: SessionTable::new(0),
            retry: config.retry,
            steal: config.steal,
            workers: vec![
                WorkerRecord {
                    sent: 0,
                    seen: 0,
                    lost: 0,
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "the reply-silent timer's start; see WorkerRecord::last_reply"
                    )]
                    last_reply: Instant::now(),
                };
                workers
            ],
        })
    }

    /// Submits `query` for optimization and returns immediately with a
    /// handle. Task messages go out before this returns; collection
    /// happens in `poll` / `wait`. Past the admission limit
    /// ([`MpqService::set_max_in_flight`]) the submission is refused
    /// with [`MpqError::Overloaded`].
    ///
    /// The layout follows the load: a single-objective query gets one
    /// partition per worker that is idle at submission (capped by the
    /// query's partition limit), or, with none idle, runs whole on the
    /// live worker with the fewest outstanding tasks — every partition
    /// beyond one raises the total work, and only an idle worker turns
    /// that into a shorter wait. A multi-objective query gets one
    /// partition per resident worker, whatever the load: its α-approximate
    /// frontier depends on the cut. On an idle cluster both are one
    /// partition per worker, range *i* on worker *i*.
    ///
    /// With stealing on, each range instead holds up to 4 partitions — a
    /// one-partition range has no splittable tail, so without
    /// oversubscription the steal scheduler would be a structural no-op
    /// on this entry point.
    pub fn submit(
        &mut self,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
    ) -> Result<QueryHandle, MpqError> {
        self.submit_with(query, space, objective, None, false)
    }

    /// Submits `query` with an explicit `(first_partition, count)` range
    /// per worker, range *i* on worker *i*: any contiguous layout,
    /// uneven ones included (heterogeneous workers, oversubscription).
    /// It is used as given, stealing on or off. The ranges must tile
    /// `0..partitions` in order — no gap, no overlap — or the submission
    /// is refused [`MpqError::BadRequest`] before any message is sent.
    pub fn submit_assigned(
        &mut self,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
        partitions: u64,
        assignment: Vec<(u64, u64)>,
    ) -> Result<QueryHandle, MpqError> {
        let layout = Some((partitions, assignment));
        self.submit_with(query, space, objective, layout, false)
    }

    /// Blocking submit: exactly [`MpqService::submit`], except that at
    /// the admission limit it parks on the evidence loop — driving the
    /// in-flight sessions until capacity frees — instead of refusing.
    pub fn submit_wait(
        &mut self,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
    ) -> Result<QueryHandle, MpqError> {
        self.submit_with(query, space, objective, None, true)
    }

    /// The admission limit: submissions past `limit` live sessions are
    /// refused with [`MpqError::Overloaded`] (or park, with
    /// [`MpqService::submit_wait`]), instead of being queued silently.
    /// `0` means unlimited — the default.
    pub fn set_max_in_flight(&mut self, limit: usize) {
        self.table.set_max_in_flight(limit);
    }

    /// The resident message plane.
    pub fn transport(&self) -> &dyn Transport {
        self.net.as_ref()
    }

    /// The resident cluster's network counters (cumulative across every
    /// session the service has served).
    pub fn metrics(&self) -> &NetworkMetrics {
        self.net.metrics()
    }

    /// Sessions submitted but not yet finished.
    pub fn in_flight(&self) -> usize {
        self.table.live.len()
    }

    /// Finished results parked for handles that have not redeemed them
    /// (bounded; shrinks when abandoned handles are reaped).
    pub fn parked_results(&self) -> usize {
        self.table.parked_results()
    }

    /// Non-blocking check: drains replies that have already arrived, runs
    /// the suspicion pass, and returns the result once the handle's
    /// session has finished. After `Some`, the handle is spent.
    pub fn poll(&mut self, handle: &QueryHandle) -> Option<Result<MpqOutcome, MpqError>> {
        if let Err(foreign) = self.table.owns(handle) {
            return Some(Err(foreign.into()));
        }
        self.reap_abandoned();
        loop {
            if let Some(result) = self.table.redeem(handle.id()) {
                return Some(result);
            }
            match self.net.try_recv() {
                Ok((worker, id, payload)) => self.route(worker, id, payload),
                // Nothing waiting right now: run the suspicion pass; if no
                // session was due, hand control back.
                Err(ClusterError::Timeout { .. }) if self.check_suspicions() => {}
                Err(ClusterError::Timeout { .. }) => return None,
                Err(err) => {
                    self.fail_all(err);
                    return self.table.redeem(handle.id());
                }
            }
        }
    }

    /// Blocks until the handle's session finishes, driving every
    /// in-flight session's collection and recovery in the meantime. A
    /// spent or foreign handle is a typed [`MpqError::UnknownHandle`],
    /// never a panic.
    pub fn wait(&mut self, handle: QueryHandle) -> Result<MpqOutcome, MpqError> {
        self.table.owns(&handle)?;
        self.reap_abandoned();
        loop {
            if let Some(result) = self.table.redeem(handle.id()) {
                return result;
            }
            if !self.table.live.contains_key(&handle.id().0) {
                return Err(MpqError::UnknownHandle { id: handle.id() });
            }
            self.drive_once();
        }
    }

    /// Frees the state of sessions whose handle was dropped unredeemed.
    /// Nothing is sent: an MPQ task is stateless, and a reaped session's
    /// late replies are discarded by the router's unknown-session path.
    /// Called on every scheduler entry; public so long-idle callers can
    /// reap eagerly.
    pub fn reap_abandoned(&mut self) {
        self.table.reap(|_, _| {});
    }

    /// Shuts the resident cluster down, joining every worker thread.
    /// In-flight sessions are abandoned (their handles become useless), so
    /// drain the service before calling this.
    pub fn shutdown(mut self) {
        self.net.shutdown();
    }

    /// The one submission path. A refused submission (bad request, or past
    /// the admission limit) has sent nothing and leaves zero state behind.
    /// With `park`, the admission limit blocks instead of refusing: the
    /// blocking scheduler step runs until capacity frees.
    fn submit_with(
        &mut self,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
        layout: Option<(u64, Vec<(u64, u64)>)>,
        park: bool,
    ) -> Result<QueryHandle, MpqError> {
        loop {
            self.reap_abandoned();
            match self.table.admit(query, objective) {
                Ok(()) => break,
                // Overloaded implies at least one session in flight (the
                // limit is >= 1), and every in-flight session finishes or
                // fails under the same steps that drive `wait` — so
                // capacity frees eventually.
                Err(LifecycleError::Overloaded { .. }) if park => self.drive_once(),
                Err(refusal) => return Err(refusal.into()),
            }
        }
        let id = self.table.mint();
        let session = self.open(id, query, space, objective, layout)?;
        self.table.live.insert(id.0, session);
        Ok(self.table.handle(id))
    }

    /// Dispatches a freshly admitted session's task messages and returns
    /// its state. `layout` is an explicit `(total partitions, (first,
    /// count) per range)`, range *i* on worker *i*; `None` places the
    /// session by load ([`MpqService::submit`]). On `Err` nothing stays
    /// behind: tasks are stateless, so a partial dispatch pins nothing on
    /// any worker.
    fn open(
        &mut self,
        id: QueryId,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
        layout: Option<(u64, Vec<(u64, u64)>)>,
    ) -> Result<Session, MpqError> {
        let net = self.net.as_ref();
        let (partitions, assignment, placement) = match layout {
            Some((partitions, assignment)) => {
                let identity = (0..assignment.len()).collect();
                (partitions, assignment, identity)
            }
            None => self.placed_layout(query, space, objective),
        };
        if assignment.is_empty() {
            return Err(MpqError::BadRequest {
                reason: "a session needs at least one partition range",
            });
        }
        if assignment.len() > net.num_workers() {
            return Err(MpqError::BadRequest {
                reason: "more partition ranges than resident workers",
            });
        }
        // What a worker would refuse (`MpqWorker::on_message`), the master
        // does not send.
        let n = query.num_tables();
        if !assignment
            .iter()
            .all(|&(first, count)| is_partition_range(n, space, first, count, partitions))
        {
            return Err(MpqError::BadRequest {
                reason: "a partition range outside the query's partition space",
            });
        }
        // The merged optimum is the best of the ranges run: a gap would
        // answer with a partial optimum, an overlap would run twice.
        let end = assignment.iter().try_fold(0, |next, &(first, count)| {
            (first == next).then_some(first + count)
        });
        if end != Some(partitions) {
            return Err(MpqError::BadRequest {
                reason: "partition ranges that do not tile the partition space in order",
            });
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "per-session wall-clock metric (MpqMetrics::total_micros, which no \
                      decision reads) and the suspicion timer's start (see \
                      Session::last_progress)"
        )]
        let start = Instant::now();
        let mut session = Session {
            id,
            task: MasterMessage {
                query: query.clone(),
                space,
                objective,
                first_partition: 0,
                partition_count: 0,
                total_partitions: partitions,
                // The wire keeps the cadence field; 0 is the steal-off wire.
                progress_every: if self.steal { STEAL_PROGRESS_EVERY } else { 0 },
            },
            ranges: assignment
                .iter()
                .map(|&(first, count)| RangeRecord {
                    first,
                    count,
                    ..RangeRecord::default()
                })
                .collect(),
            splits: Vec::new(),
            metrics: MpqMetrics {
                worker_stats: vec![WorkerStats::default(); net.num_workers()],
                partitions,
                ..MpqMetrics::default()
            },
            plans: Vec::new(),
            pricer: None,
            strikes: 0,
            start,
            last_progress: start,
        };
        // Dispatch: one task message per range, to the worker the layout
        // placed it on. On a resident cluster a worker may already be dead
        // from an earlier session's faults; with recovery enabled such
        // ranges are routed to a live worker at once (not a retry — the
        // range was never issued, so the budget is untouched).
        net.metrics().record_round();
        for (r, preferred) in placement.into_iter().enumerate() {
            match session.issue(r, [preferred], net, &mut self.workers) {
                Ok(_) => {}
                Err(err @ ClusterError::WorkerLost { .. }) if self.retry.max_retries > 0 => {
                    let others = live_workers(net).into_iter().filter(|&w| w != preferred);
                    session
                        .issue(r, others, net, &mut self.workers)
                        .map_err(|_| MpqError::Cluster(err))?;
                }
                Err(err) => return Err(MpqError::Cluster(err)),
            }
        }
        Ok(session)
    }

    /// One pass of the blocking scheduler. With a retry timeout it is one
    /// receive bounded by the timeout, then the suspicion pass. Without
    /// one, a worker that crashed before replying would deadlock a
    /// blocking receive though its death is already provable, so evidence
    /// comes first: drain what is already queued — a reply sitting in the
    /// channel beats any suspicion about its sender (a worker may
    /// legitimately crash *after* its completing reply) — and only on an
    /// empty queue run the suspicion pass; if it fires nothing, park for
    /// one [`EVIDENCE_HEARTBEAT`], a coarse bound rather than an unbounded
    /// block, so a worker dying while the master is parked is noticed by
    /// the next pass.
    fn drive_once(&mut self) {
        match self.retry.timeout {
            Some(t) => {
                let received = self.net.recv_timeout(t);
                self.settle(received);
                self.check_suspicions();
            }
            None => match self.net.try_recv() {
                Err(ClusterError::Timeout { .. }) => {
                    if !self.check_suspicions() {
                        let received = self.net.recv_timeout(EVIDENCE_HEARTBEAT);
                        self.settle(received);
                    }
                }
                received => self.settle(received),
            },
        }
    }

    /// Acts on one receive: a reply is routed, an expired wait is
    /// nothing, anything else means the substrate is gone.
    fn settle(&mut self, received: Result<(usize, QueryId, Bytes), ClusterError>) {
        match received {
            Ok((worker, id, payload)) => self.route(worker, id, payload),
            Err(ClusterError::Timeout { .. }) => {}
            Err(err) => self.fail_all(err),
        }
    }

    /// Routes one session-tagged worker message to its owning session and
    /// advances that session's state machine. Messages for sessions no
    /// longer live land here too, and are counted as late.
    fn route(&mut self, worker: usize, qid: QueryId, payload: Bytes) {
        let net = self.net.as_ref();
        // The worker is alive and talking, whatever it sent.
        let now = self.timer_stamp();
        if let Some(now) = now {
            self.workers[worker].last_reply = now;
        }
        enum Advance {
            Pending,
            Finished,
            Failed(MpqError),
        }
        // Peek the one-byte WorkerMsg tag instead of decoding: messages
        // for already-finished sessions (late duplicates, late progress)
        // must not pay a full plan-vector deserialization just to pick a
        // counter.
        let is_progress = payload.first() == Some(&WorkerMsg::TAG_PROGRESS);
        if !is_progress {
            // Loss-detection evidence, advanced for every *reply* no
            // matter which session owns it: the worker's FIFO stream
            // position. Progress reports are excluded — a range's own
            // progress must never read as a FIFO overtake of its reply.
            self.workers[worker].seen += 1;
        }
        let advance = {
            let Some(session) = self.table.live.get_mut(&qid.0) else {
                // A message for a session that already finished, landing
                // late. A reply is a speculative duplicate; a progress
                // report is just a progress report — neither may distort
                // the other's counter.
                if is_progress {
                    net.metrics().record_progress_report();
                } else {
                    net.metrics().record_duplicate();
                }
                return;
            };
            match WorkerMsg::from_bytes(&payload) {
                Err(source) => {
                    session.metrics.replies_received += 1;
                    Advance::Failed(MpqError::Decode { worker, source })
                }
                Ok(WorkerMsg::Progress(p)) => {
                    // Deliberately NOT refreshing session.last_progress:
                    // that clock gates the timer-based recovery pass, and
                    // a chatty straggler must not starve re-execution of a
                    // *different* crashed or reply-lost range of the same
                    // session. The straggler itself stays protected from
                    // spurious speculation through its worker record's
                    // `last_reply` (its reports prove the worker is alive,
                    // so the reply-silent evidence cannot fire on it).
                    session.metrics.progress_reports += 1;
                    net.metrics().record_progress_report();
                    // Attribute to whichever range currently starts at the
                    // echoed first partition: a steal shrinks the range in
                    // place, so the straggler's reports for the original
                    // range keep landing on its kept piece (clamped).
                    if let Some(range) = session
                        .ranges
                        .iter_mut()
                        .find(|r| r.first == p.first_partition)
                    {
                        range.progress = range.progress.max(p.completed.min(range.count));
                    }
                    Advance::Pending
                }
                Ok(WorkerMsg::Reply(reply)) => {
                    if let Some(now) = now {
                        session.last_progress = now;
                    }
                    session.metrics.replies_received += 1;
                    let WorkerReply {
                        first_partition: first,
                        partition_count: count,
                        plans,
                        stats,
                        ..
                    } = reply;
                    // The decoder checked each plan's shape; pricing checks
                    // that it fits the session's query and plan space, and
                    // gives it the only cost FinalPrune will see. A plan
                    // that does not join exactly the session's tables is no
                    // answer to it.
                    let full = session.task.query.all_tables();
                    let priced = match session.price(plans) {
                        Err(reason) => Err(MpqError::Unpriceable { worker, reason }),
                        Ok(plans) if plans.iter().any(|p| p.plan().tables() != full) => {
                            Err(MpqError::Protocol { worker })
                        }
                        Ok(plans) => Ok(plans),
                    };
                    // The ranges this reply completes: the live range
                    // issued as exactly this echo, or, if a steal
                    // superseded it, every member of the split record filed
                    // under it. Neither is a protocol bug.
                    let own = session
                        .ranges
                        .iter()
                        .position(|r| r.first == first && r.count == count);
                    let members = match &own {
                        Some(own) => Some(std::slice::from_ref(own)),
                        None => session
                            .splits
                            .iter()
                            .find(|s| s.first == first && s.count == count)
                            .map(|s| s.members.as_slice()),
                    };
                    match (priced, members) {
                        (Err(err), _) => Advance::Failed(err),
                        (Ok(_), None) => Advance::Failed(MpqError::Protocol { worker }),
                        (Ok(_), Some(members))
                            if members.iter().all(|&m| session.ranges[m].done) =>
                        {
                            // A speculative duplicate: another worker (a
                            // re-issue or the thieves) already delivered
                            // every range it covers. Count the wasted work,
                            // discard the (identical) plans.
                            session.metrics.duplicate_replies += 1;
                            net.metrics().record_duplicate();
                            Advance::Pending
                        }
                        (Ok(plans), Some(members)) => {
                            // A straggler that outran some thief covers
                            // every member at once. Overlap with members
                            // already delivered cannot change cost bits or
                            // frontiers: FinalPrune is a pure min/frontier
                            // over the pool.
                            for &m in members {
                                session.ranges[m].done = true;
                            }
                            session.strikes = 0;
                            session.metrics.worker_stats[worker].accumulate(&stats);
                            session.plans.extend(plans);
                            if session.outstanding().next().is_none() {
                                Advance::Finished
                            } else {
                                Advance::Pending
                            }
                        }
                    }
                }
            }
        };
        match advance {
            Advance::Pending => {}
            Advance::Finished => self.finish(qid),
            Advance::Failed(err) => self.fail(qid, err),
        }
        // New progress or a freed worker may unlock a steal; the pass is
        // gated to a cheap no-op when stealing is off. A progress report
        // only changes its own session's picture, so only that session is
        // re-evaluated; a reply may have freed a worker for anyone.
        self.check_steals(is_progress.then_some(qid));
    }

    /// Per-session straggler suspicion: run the recovery pass for every
    /// session that has gone a full retry timeout without one of its own
    /// replies — re-issue its most suspect range (dead assignee first),
    /// or fail it once its budgets are spent. The clock is per session,
    /// so a busy reply stream from other sessions can never starve a
    /// stuck session's recovery. With no timeout configured the pass
    /// degrades gracefully to **hard evidence only**: a dead assignee or
    /// a FIFO overtake proves a range will never complete on its own, no
    /// clock needed — timer-based (reply-silent) suspicion is simply
    /// skipped. Returns whether any session fired.
    fn check_suspicions(&mut self) -> bool {
        let net = self.net.as_ref();
        let workers = &self.workers;
        let due: Vec<u64> = match self.retry.timeout {
            #[expect(
                clippy::disallowed_methods,
                reason = "the suspicion timer decides when a session is re-examined, never \
                          an answer; see Session::last_progress"
            )]
            Some(t) => self
                .table
                .live
                .iter()
                .filter(|(_, s)| s.last_progress.elapsed() >= t)
                .map(|(&id, _)| id)
                .collect(),
            // Allocation-free scan: this filter runs on every empty
            // `try_recv` of the default no-timer configuration, so it
            // must not materialize per-session Vecs.
            None => self
                .table
                .live
                .iter()
                .filter(|(_, s)| {
                    s.outstanding().any(|i| {
                        let r = &s.ranges[i];
                        !net.is_worker_alive(r.worker) || workers[r.worker].seen >= r.mark
                    })
                })
                .map(|(&id, _)| id)
                .collect(),
        };
        for &raw in &due {
            let stamp = self.timer_stamp();
            if let (Some(now), Some(session)) = (stamp, self.table.live.get_mut(&raw)) {
                session.last_progress = now;
            }
            // One suspicion event per session, mirrored in the metrics so
            // the retries <= timeouts ledger stays balanced.
            self.net.metrics().record_timeout();
            self.session_timeout(QueryId(raw));
        }
        !due.is_empty()
    }

    /// The suspicion timers' clock: a stamp under `RetryPolicy::timeout =
    /// Some(_)`, and no clock read at all without a timer, where nothing
    /// reads the stamps.
    #[expect(
        clippy::disallowed_methods,
        reason = "the suspicion timers' stamps; see Session::last_progress and \
                  WorkerRecord::last_reply"
    )]
    fn timer_stamp(&self) -> Option<Instant> {
        self.retry.timeout.map(|_| Instant::now())
    }

    /// The layout of a submission that brings none: an even split over
    /// the workers it is placed on, range *i* on the *i*-th of them.
    ///
    /// Every partition beyond the first costs total work — per-partition
    /// work falls by ¾ per doubling, so the sum rises by 3/2 — and only a
    /// worker with nothing else to do turns that price into a shorter
    /// wait. So a single-objective query is split over the **idle**
    /// workers only (the steal pass's thief pool), and with none idle it
    /// runs whole on the live worker with the fewest outstanding tasks,
    /// the lowest id on a tie; its answer is the serial optimum under any
    /// cut. A multi-objective query keeps the all-worker cut: an
    /// α-approximate frontier depends on the cut, and an answer must not
    /// depend on load. With every worker idle both rules give the
    /// identity placement, so a one-query-at-a-time caller sends exactly
    /// the task bytes it always did.
    fn placed_layout(
        &self,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
    ) -> (u64, Vec<(u64, u64)>, Vec<usize>) {
        let net = self.net.as_ref();
        let mut workers = match objective {
            Objective::Multi { .. } => (0..net.num_workers()).collect(),
            Objective::Single => {
                let idle = self.idle_workers();
                if idle.is_empty() {
                    // With no live worker at all, worker 0 is as good as
                    // any: its dispatch fails typed, as every one would.
                    let least_loaded = live_workers(net)
                        .into_iter()
                        .min_by_key(|&w| (self.workers[w].outstanding(), w))
                        .unwrap_or(0);
                    vec![least_loaded]
                } else {
                    idle
                }
            }
        };
        let (partitions, assignment) = self.even_layout(workers.len() as u64, query, space);
        workers.truncate(assignment.len());
        (partitions, assignment, workers)
    }

    /// The partition space spread evenly over `workers` ranges (fewer if
    /// the query has fewer partitions), one contiguous range each.
    fn even_layout(&self, workers: u64, query: &Query, space: PlanSpace) -> (u64, Vec<(u64, u64)>) {
        let oversubscribe = if self.steal { STEAL_OVERSUBSCRIBE } else { 1 };
        let partitions = effective_workers(
            space,
            query.num_tables(),
            workers.saturating_mul(oversubscribe),
        );
        let ranges = workers.min(partitions);
        // Contiguous equal split: range i gets `base` partitions plus one
        // of the `extra` leftovers.
        let base = partitions / ranges;
        let extra = partitions % ranges;
        let mut first = 0u64;
        let assignment: Vec<(u64, u64)> = (0..ranges)
            .map(|i| {
                let count = base + u64::from(i < extra);
                let range = (first, count);
                first += count;
                range
            })
            .collect();
        (partitions, assignment)
    }

    #[expect(
        clippy::disallowed_macros,
        reason = "debug builds only: a session leaves the live table when its last \
                  range completes, so a due session always has one outstanding"
    )]
    fn session_timeout(&mut self, qid: QueryId) {
        let net = self.net.as_ref();
        let Some(session) = self.table.live.get_mut(&qid.0) else {
            return;
        };
        debug_assert!(
            session.outstanding().next().is_some(),
            "finished sessions are removed"
        );
        // Evidence that an outstanding range will never complete on its
        // own. On a resident cluster, "no reply for a while" is NOT such
        // evidence — the range may simply be queued behind other
        // sessions' tasks — so speculation fires only on one of:
        //  * a dead assignee (liveness probe);
        //  * a FIFO overtake: the assignee has already replied to a task
        //    issued *after* this range's, so per-worker FIFO proves this
        //    range's reply was lost on the wire, not queued;
        //  * a reply-silent assignee: nothing from that worker for a full
        //    suspicion window (a straggler, or a loss with no later
        //    traffic to prove it by overtake). Skipped entirely when no
        //    timeout is configured — suspicion then rests on the two
        //    clock-free kinds of evidence above.
        let ranges = &session.ranges;
        let dead = session
            .outstanding()
            .find(|&i| !net.is_worker_alive(ranges[i].worker));
        let overtaken = session
            .outstanding()
            .find(|&i| self.workers[ranges[i].worker].seen >= ranges[i].mark);
        #[expect(
            clippy::disallowed_methods,
            reason = "the reply-silent timer decides when a range is re-issued, never an \
                      answer; see WorkerRecord::last_reply"
        )]
        let silent = self.retry.timeout.and_then(|t| {
            session
                .outstanding()
                .find(|&i| self.workers[ranges[i].worker].last_reply.elapsed() >= t)
        });
        let suspect = dead.or(overtaken).or(silent);
        if session.metrics.retries == u64::from(self.retry.max_retries) {
            // A dead assignee whose range was never re-issued is hopeless
            // — no earlier speculative assignee exists to deliver it — so
            // fail at once. A re-issued range's *earlier* assignee may
            // still be straggling toward a reply, so spend the strike
            // budget waiting before giving up.
            if let Some(i) = dead {
                if !ranges[i].reissued {
                    let worker = ranges[i].worker;
                    self.fail(qid, MpqError::WorkerLost { worker });
                    return;
                }
            }
            if suspect.is_none() {
                // No evidence of loss: the cluster is just busy.
                return;
            }
            session.strikes += 1;
            if session.strikes >= self.retry.max_strikes {
                let err = match dead {
                    Some(i) => MpqError::WorkerLost {
                        worker: session.ranges[i].worker,
                    },
                    None => MpqError::RetriesExhausted {
                        outstanding: session.outstanding().count(),
                    },
                };
                self.fail(qid, err);
            }
            return;
        }
        // Speculative re-execution: re-issue the most suspect range (dead
        // assignee, then FIFO-overtaken, then reply-silent) to a
        // surviving worker, idle workers first. With no evidence at all,
        // the session is merely queued — leave it alone.
        let Some(victim) = suspect else {
            return;
        };
        let old_assignee = ranges[victim].worker;
        let mut candidates = live_workers(net);
        candidates.sort_by_key(|&w| (session.outstanding().any(|i| ranges[i].worker == w), w));
        let Ok(len) = session.issue(victim, candidates, net, &mut self.workers) else {
            self.fail(qid, MpqError::Cluster(ClusterError::AllWorkersLost));
            return;
        };
        net.metrics().record_retry(session.ranges[victim].worker);
        session.metrics.retry_task_bytes += len;
        session.metrics.retries += 1;
        if net.is_worker_alive(old_assignee) {
            // The evidence says the old assignee's reply for this range
            // was lost (or is hopelessly late): repair its queue ledger,
            // or one dropped reply would under-count the worker as busy
            // forever and silently shrink the steal pass's thief pool.
            // Should the reply straggle in after all, the ledger
            // over-credits the worker by one — it may then be picked as
            // a thief one in-flight task early, a wasted-but-exact steal
            // at worst.
            self.workers[old_assignee].lost += 1;
        }
    }

    /// Straggler-adaptive redistribution pass. For every session: compare
    /// the **relative** progress of its ranges (complete ranges count as
    /// fraction 1), and when one range provably lags the session's best
    /// by [`STEAL_LAG_RATIO`] with a non-empty unstarted tail, split the
    /// tail into contiguous sub-ranges and re-issue them to
    /// **idle** live workers — never onto workers holding outstanding
    /// work, so stealing cannot slow productive ranges. Exactness is
    /// inherited from the range-echo duplicate suppression: the
    /// straggler's eventual full-range reply reconciles against the
    /// session's [`SplitRecord`]s.
    /// `only` restricts the pass to one session (used for progress
    /// reports, which cannot change any other session's steal picture).
    fn check_steals(&mut self, only: Option<QueryId>) {
        if !self.steal {
            return;
        }
        let ids: Vec<u64> = match only {
            Some(qid) => vec![qid.0],
            None => self.table.live.keys().copied().collect(),
        };
        // Computed once per pass and refreshed only when a steal actually
        // dispatched tasks — the only thing that changes the answer
        // mid-pass.
        let mut idle = self.idle_workers();
        for raw in ids {
            if idle.is_empty() {
                return;
            }
            if self.steal_for_session(QueryId(raw), &idle) {
                idle = self.idle_workers();
            }
        }
    }

    /// Live workers with a fully drained task queue — the thief pool, and
    /// the workers a single-objective submission is spread over.
    /// Idleness is queue depth, not range bookkeeping: a straggler that
    /// was just stolen from holds no outstanding *range* but still has an
    /// undrained task in its inbox, and must stay off the thief list
    /// across all sessions. A worker record credits replies the recovery
    /// pass proved lost, so one dropped reply cannot poison a worker's
    /// ledger for the service's lifetime.
    fn idle_workers(&self) -> Vec<usize> {
        live_workers(self.net.as_ref())
            .into_iter()
            .filter(|&w| self.workers[w].outstanding() == 0)
            .collect()
    }

    /// One session's steal decision; returns whether a steal dispatched
    /// tasks. See [`MpqService::check_steals`].
    fn steal_for_session(&mut self, qid: QueryId, idle: &[usize]) -> bool {
        let net = self.net.as_ref();
        let Some(session) = self.table.live.get_mut(&qid.0) else {
            return false;
        };
        if session.metrics.steals == u64::from(MAX_STEALS) {
            return false;
        }
        let best = session
            .ranges
            .iter()
            .map(RangeRecord::fraction)
            .fold(0.0f64, f64::max);
        if best <= 0.0 {
            // No range has made observable progress yet: no relative
            // signal to act on.
            return false;
        }
        // Victim: among provably lagging ranges with a splittable
        // unstarted tail, the one with the most work left. An empty tail
        // is never a victim: there would be nothing to split, and the
        // chunk math below divides by it.
        let ranges = &session.ranges;
        let victim = session
            .outstanding()
            .filter(|&i| ranges[i].unstarted() > 0 && ranges[i].fraction() * STEAL_LAG_RATIO < best)
            .max_by_key(|&i| ranges[i].unstarted());
        let Some(victim) = victim else {
            return false;
        };
        let RangeRecord { first, count, .. } = ranges[victim];
        let unstarted = ranges[victim].unstarted();
        // Chunk the unstarted tail [first + count - unstarted, first + count)
        // across the idle workers, taking chunks from the END so that
        // anything that fails to send stays contiguous with the kept
        // piece.
        let pieces = (idle.len() as u64).min(unstarted);
        let base = unstarted / pieces;
        let extra = unstarted % pieces;
        let mut stolen_from = first + count;
        let mut members = vec![victim];
        let mut targets = idle.iter().copied();
        for p in 0..pieces {
            // Later chunks (from the tail) get the remainder partitions.
            let chunk = base + u64::from(p < extra);
            let chunk_first = stolen_from - chunk;
            session.ranges.push(RangeRecord {
                first: chunk_first,
                count: chunk,
                ..RangeRecord::default()
            });
            let idx = session.ranges.len() - 1;
            if session
                .issue(idx, targets.by_ref(), net, &mut self.workers)
                .is_err()
            {
                // No idle worker accepted the chunk (all died since the
                // liveness check): stop here — the un-stolen head stays
                // with the straggler.
                session.ranges.pop();
                break;
            }
            members.push(idx);
            stolen_from = chunk_first;
        }
        if stolen_from == first + count {
            return false; // nothing was actually stolen
        }
        // Shrink the straggler's range to the un-stolen head and file the
        // split record under the range exactly as its task was issued, so
        // the eventual full-range reply reconciles instead of erroring.
        let keep = stolen_from - first;
        let kept = &mut session.ranges[victim];
        kept.count = keep;
        kept.progress = kept.progress.min(keep);
        let thieves: Vec<usize> = members[1..]
            .iter()
            .map(|&m| session.ranges[m].worker)
            .collect();
        session.splits.push(SplitRecord {
            first,
            count,
            members,
        });
        session.metrics.steals += 1;
        session.metrics.stolen_partitions += count - keep;
        net.metrics().record_steal();
        // The straggler cannot be preempted mid-task, so its kept head
        // would otherwise be delivered only by its eventual full-range
        // reply — leaving the session gated on the slow node after all.
        // Decouple completely: re-issue the head speculatively, to a
        // remaining idle worker if one is left, else queued behind a
        // thief (a thief's chunk plus the head still beats a straggler
        // computing the head alone). Whichever reply lands first wins;
        // the other is duplicate-suppressed. With no live worker to back
        // the head up, the straggler's own reply remains its carrier —
        // slow, but still exact.
        let _ = session.issue(victim, targets.chain(thieves), net, &mut self.workers);
        true
    }

    /// Completes a session: FinalPrune over the O(m) collected plans,
    /// every one priced by this master, metrics assembly, result parked
    /// for the handle.
    fn finish(&mut self, qid: QueryId) {
        let Some(session) = self.table.live.remove(&qid.0) else {
            // Internal invariant (route only finishes live sessions), but
            // a resident master must not abort if it is ever violated.
            return;
        };
        let mut plans: Vec<Plan> = session
            .plans
            .into_iter()
            .map(PricedPlan::into_plan)
            .collect();
        let task = &session.task;
        let policy = PruningPolicy::new(task.objective, task.query.num_tables());
        policy.final_prune(&mut plans);
        let mut metrics = session.metrics;
        let stats = &metrics.worker_stats;
        metrics.max_worker_micros = stats.iter().map(|s| s.optimize_micros).max().unwrap_or(0);
        metrics.max_worker_stored_sets = stats.iter().map(|s| s.stored_sets).max().unwrap_or(0);
        #[expect(
            clippy::disallowed_methods,
            reason = "per-session wall-clock metric: MpqMetrics::total_micros, which no \
                      decision reads"
        )]
        let total = session.start.elapsed();
        metrics.total_micros = total.as_micros() as u64;
        metrics.network = self.net.metrics().snapshot();
        metrics.workers_used = session.ranges.len();
        self.table.park(qid, Ok(MpqOutcome { plans, metrics }));
    }

    /// Fails a live session: frees its state and parks the typed error
    /// for its handle. Nothing is sent, since an MPQ task is stateless.
    fn fail(&mut self, qid: QueryId, err: MpqError) {
        self.table.live.remove(&qid.0);
        self.table.park(qid, Err(err));
    }

    /// The substrate itself is gone: every in-flight session fails typed.
    fn fail_all(&mut self, err: ClusterError) {
        for (raw, _) in std::mem::take(&mut self.table.live) {
            let lost = MpqError::Cluster(err.clone());
            self.table.park(QueryId(raw), Err(lost));
        }
    }
}

fn live_workers(cluster: &dyn Transport) -> Vec<usize> {
    (0..cluster.num_workers())
        .filter(|&w| cluster.is_worker_alive(w))
        .collect()
}

/// Runs one MPQ worker **process**: accepts a single master connection on
/// `listener` and serves the MPQ worker protocol over it until the master
/// disconnects or orders shutdown. The logic is the same `MpqWorker`
/// the in-process cluster drives (with an own-rate clock, i.e. no
/// slow-worker injection — real deployments get real stragglers), so a
/// socket master observes byte-identical protocol behavior. Both trailing
/// arguments are ignored and stay only because the frozen `benchmark/`
/// passes them: workers hold no cache, and the policy has one value
/// ([`ParallelPolicy::serial`]) — a worker runs one sequential dynamic
/// program.
pub fn serve_socket_worker(
    listener: &WireListener,
    _cache_bytes: usize,
    _policy: ParallelPolicy,
) -> std::io::Result<()> {
    mpq_cluster::serve_worker(listener, MpqWorker::new(1))
}

#[cfg(test)]
mod tests {
    #![allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::disallowed_macros,
        clippy::disallowed_methods
    )]

    use super::*;
    use mpq_dp::{optimize_partition_id, optimize_serial, ExplainError};
    use mpq_model::{WorkloadConfig, WorkloadGenerator};
    use mpq_plan::PlanOp;
    use std::time::Duration;

    fn query(n: usize, seed: u64) -> Query {
        WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).next_query()
    }

    /// One single-objective session over `partitions` split evenly into
    /// `workers` contiguous ranges, on a fresh service of that many
    /// workers.
    fn run_even(config: MpqConfig, q: &Query, workers: u64, partitions: u64) -> MpqOutcome {
        let mut svc = MpqService::spawn(workers as usize, config).unwrap();
        let per = partitions / workers;
        let assignment = (0..workers).map(|w| (w * per, per)).collect();
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

    /// Every layout must return the serial optimum to the bit: the cut
    /// varies with load, and a tolerance would let a cut-dependent
    /// rounding difference through.
    fn bit_eq(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits()
    }

    /// The workers that computed any of a session's partitions.
    fn ran_on(out: &MpqOutcome) -> Vec<usize> {
        (0..out.metrics.worker_stats.len())
            .filter(|&w| out.metrics.worker_stats[w].plans_generated > 0)
            .collect()
    }

    /// A frontier as its sorted cost bits: replies merge in arrival
    /// order, so only the set is the answer.
    fn cost_bits(plans: &[Plan]) -> Vec<(u64, u64)> {
        let mut bits: Vec<(u64, u64)> = plans
            .iter()
            .map(|p| (p.cost().time.to_bits(), p.cost().buffer.to_bits()))
            .collect();
        bits.sort_unstable();
        bits
    }

    fn serial_time(q: &Query) -> f64 {
        optimize_serial(q, PlanSpace::Linear, Objective::Single).plans[0]
            .cost()
            .time
    }

    #[test]
    fn many_concurrent_sessions_on_one_cluster() {
        let mut svc = MpqService::spawn(4, MpqConfig::default()).unwrap();
        let queries: Vec<Query> = (0..12).map(|s| query(5 + (s as usize % 3), s)).collect();
        let handles: Vec<QueryHandle> = queries
            .iter()
            .map(|q| {
                svc.submit(q, PlanSpace::Linear, Objective::Single)
                    .expect("submit")
            })
            .collect();
        assert_eq!(svc.in_flight(), 12);
        // Wait in reverse submission order: routing, not luck, must match
        // each result to its query.
        for (q, handle) in queries.iter().zip(handles).rev() {
            let out = svc.wait(handle).expect("session completes");
            let reference = optimize_serial(q, PlanSpace::Linear, Objective::Single).plans[0]
                .cost()
                .time;
            assert!(bit_eq(out.plans[0].cost().time, reference));
        }
        assert_eq!(svc.in_flight(), 0);
        svc.shutdown();
    }

    #[test]
    fn poll_is_nonblocking_and_delivers_once() {
        let mut svc = MpqService::spawn(2, MpqConfig::default()).unwrap();
        let q = query(6, 1);
        let handle = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .unwrap();
        let mut out = None;
        for _ in 0..10_000 {
            if let Some(r) = svc.poll(&handle) {
                out = Some(r.expect("session completes"));
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        let out = out.expect("poll eventually completes");
        let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans[0]
            .cost()
            .time;
        assert!(bit_eq(out.plans[0].cost().time, reference));
        // The result was delivered; the handle is spent.
        assert!(svc.poll(&handle).is_none());
        assert_eq!((svc.in_flight(), svc.parked_results()), (0, 0));
        svc.shutdown();
    }

    #[test]
    fn sessions_have_independent_metrics() {
        let mut svc = MpqService::spawn(4, MpqConfig::default()).unwrap();
        let q = query(6, 2);
        let a = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .unwrap();
        let b = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .unwrap();
        let out_a = svc.wait(a).unwrap();
        let out_b = svc.wait(b).unwrap();
        // The first session fans out over the idle cluster; the second
        // finds every worker busy and runs whole on the least-loaded one
        // (all tie at one task, so worker 0).
        assert_eq!(out_a.metrics.workers_used, 4);
        assert_eq!(out_b.metrics.workers_used, 1);
        assert_eq!(out_b.metrics.partitions, 1);
        assert_eq!(ran_on(&out_b), vec![0]);
        // Per-session ledgers balance independently even though the
        // cluster-wide byte counters are shared.
        for out in [&out_a, &out_b] {
            assert_eq!(
                out.metrics.replies_received,
                out.metrics.workers_used as u64 + out.metrics.duplicate_replies
            );
            assert_eq!(out.metrics.retries, 0);
        }
        svc.shutdown();
    }

    /// On an idle cluster the placement is the identity: a
    /// one-query-at-a-time stream of either objective sends the bytes
    /// and messages the explicit even layout sends, to the same workers,
    /// and gets the same plans.
    #[test]
    fn idle_service_sends_the_even_layout_bytes() {
        let queries: Vec<(Query, Objective)> = (0..6)
            .map(|s| {
                let objective = if s % 2 == 0 {
                    Objective::Single
                } else {
                    Objective::Multi { alpha: 2.0 }
                };
                (query(4 + s as usize, 60 + s), objective)
            })
            .collect();
        let run = |placed: bool| {
            let mut svc = MpqService::spawn(4, MpqConfig::default()).unwrap();
            let mut answers = Vec::new();
            for (q, objective) in &queries {
                let handle = if placed {
                    svc.submit(q, PlanSpace::Linear, *objective)
                } else {
                    let m = effective_workers(PlanSpace::Linear, q.num_tables(), 4);
                    let even = (0..m).map(|p| (p, 1)).collect();
                    svc.submit_assigned(q, PlanSpace::Linear, *objective, m, even)
                };
                let out = svc.wait(handle.unwrap()).unwrap();
                answers.push((ran_on(&out), cost_bits(&out.plans)));
            }
            let net = svc.metrics().snapshot();
            let per_worker = svc.metrics().worker_counters();
            svc.shutdown();
            let bytes = (net.master_to_worker_bytes, net.worker_to_master_bytes);
            (answers, bytes, net.messages, per_worker)
        };
        assert_eq!(run(true), run(false));
    }

    /// With no worker idle, a single-objective query runs as one range on
    /// the live worker with the fewest outstanding tasks — one task, one
    /// reply — and its answer is still the serial optimum to the bit.
    #[test]
    fn busy_cluster_runs_a_query_whole_on_the_least_loaded_worker() {
        let mut svc = MpqService::spawn(2, MpqConfig::default()).unwrap();
        let (a, b, q) = (query(7, 61), query(6, 62), query(8, 63));
        // The idle cluster fans `a` out over both workers; `b` adds a
        // second task on worker 0. Nothing is idle, worker 1 is the less
        // loaded.
        let fanned = svc
            .submit(&a, PlanSpace::Linear, Objective::Single)
            .unwrap();
        let pinned = svc
            .submit_assigned(&b, PlanSpace::Linear, Objective::Single, 1, vec![(0, 1)])
            .unwrap();
        let out = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .and_then(|h| svc.wait(h))
            .unwrap();
        assert_eq!(out.metrics.partitions, 1);
        assert_eq!(out.metrics.replies_received, 1);
        assert_eq!(ran_on(&out), vec![1]);
        assert!(bit_eq(out.plans[0].cost().time, serial_time(&q)));
        assert_eq!(ran_on(&svc.wait(fanned).unwrap()), vec![0, 1]);
        assert_eq!(ran_on(&svc.wait(pinned).unwrap()), vec![0]);
        svc.shutdown();
    }

    /// On three workers an 8-table query's idle-cluster cut is two
    /// partitions, so the third worker stays idle — and a second session
    /// submitted meanwhile goes there, whole.
    #[test]
    fn a_second_session_goes_to_the_idle_third_worker() {
        let mut svc = MpqService::spawn(3, MpqConfig::default()).unwrap();
        let (a, b) = (query(8, 64), query(7, 65));
        let first = svc
            .submit(&a, PlanSpace::Linear, Objective::Single)
            .unwrap();
        let second = svc
            .submit(&b, PlanSpace::Linear, Objective::Single)
            .unwrap();
        let out_b = svc.wait(second).unwrap();
        let out_a = svc.wait(first).unwrap();
        assert_eq!(ran_on(&out_a), vec![0, 1]);
        assert_eq!(ran_on(&out_b), vec![2]);
        assert_eq!(out_b.metrics.partitions, 1);
        assert!(bit_eq(out_a.plans[0].cost().time, serial_time(&a)));
        assert!(bit_eq(out_b.plans[0].cost().time, serial_time(&b)));
        svc.shutdown();
    }

    /// A dead worker holds no outstanding task, so it would win every
    /// least-loaded contest — it must never be entered in one. Retries
    /// are off: a task sent to the corpse would fail its session.
    #[test]
    fn a_dead_worker_is_never_placed() {
        use mpq_cluster::{FaultAction, FaultPlan};
        let faults = FaultPlan {
            crash_prob: 1.0,
            crash_after_reply_prob: 1.0,
            min_survivors: 1,
            ..FaultPlan::NONE
        }
        .with_seed_where(2, 4096, |s| {
            s.action(1, 0) == FaultAction::CrashAfterReply && s.crashing_workers() == vec![1]
        })
        .expect("some seed crashes exactly worker 1 right after its first reply");
        let config = MpqConfig {
            faults,
            retry: RetryPolicy::DISABLED,
            ..MpqConfig::default()
        };
        let mut svc = MpqService::spawn(2, config).unwrap();
        let first = svc
            .submit(&query(6, 66), PlanSpace::Linear, Objective::Single)
            .and_then(|h| svc.wait(h))
            .unwrap();
        assert_eq!(ran_on(&first), vec![0, 1]);
        for _ in 0..500 {
            if !svc.transport().is_worker_alive(1) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(!svc.transport().is_worker_alive(1), "the crash fired");
        // Worker 0 is the only idle worker, then the only live one.
        let queries = [query(7, 67), query(8, 68)];
        let handles: Vec<QueryHandle> = queries
            .iter()
            .map(|q| {
                svc.submit(q, PlanSpace::Linear, Objective::Single)
                    .expect("placed on the live worker")
            })
            .collect();
        for (q, handle) in queries.iter().zip(handles) {
            let out = svc.wait(handle).expect("the live worker answers");
            assert_eq!(ran_on(&out), vec![0]);
            assert!(bit_eq(out.plans[0].cost().time, serial_time(q)));
        }
        svc.shutdown();
    }

    /// A multi-objective query ignores load: on a busy cluster it still
    /// gets the all-worker `effective_workers` cut, and its α = 2
    /// frontier is that cut's, bit for bit, as direct calls compute it.
    #[test]
    fn multi_objective_keeps_the_all_worker_cut_under_load() {
        let mut svc = MpqService::spawn(4, MpqConfig::default()).unwrap();
        let objective = Objective::Multi { alpha: 2.0 };
        let q = query(8, 70);
        let busy = svc
            .submit(&query(8, 69), PlanSpace::Linear, Objective::Single)
            .unwrap();
        let out = svc
            .submit(&q, PlanSpace::Linear, objective)
            .and_then(|h| svc.wait(h))
            .unwrap();
        let m = effective_workers(PlanSpace::Linear, q.num_tables(), 4);
        assert_eq!(out.metrics.partitions, m);
        assert_eq!(ran_on(&out), (0..m as usize).collect::<Vec<_>>());
        let mut reference: Vec<Plan> = (0..m)
            .flat_map(|p| optimize_partition_id(&q, PlanSpace::Linear, objective, p, m).plans)
            .collect();
        PruningPolicy::new(objective, q.num_tables()).final_prune(&mut reference);
        assert_eq!(cost_bits(&out.plans), cost_bits(&reference));
        assert_eq!(svc.wait(busy).unwrap().plans.len(), 1);
        svc.shutdown();
    }

    #[test]
    fn stuck_session_recovers_while_other_sessions_keep_the_stream_busy() {
        use mpq_cluster::{FaultAction, FaultPlan};
        use std::time::Duration;
        // Worker 1's very first reply (half of session A) is dropped; a
        // continuous stream of filler sessions then keeps replies flowing.
        // Suspicion is per session with FIFO loss-detection, so A's lost
        // range must be re-issued and completed *while* the stream is
        // busy — a global "time since any reply" clock would never fire,
        // starving A for as long as the stream lasts.
        let faults = FaultPlan {
            drop_prob: 0.02,
            ..FaultPlan::NONE
        }
        .with_seed_where(2, 4096, |s| s.action(1, 0) == FaultAction::DropReply)
        .expect("some seed drops worker 1's first reply");
        let config = MpqConfig {
            faults,
            retry: RetryPolicy::with_timeout(256, Duration::from_millis(10)),
            ..MpqConfig::default()
        };
        let mut svc = MpqService::spawn(2, config).unwrap();
        let q = query(8, 42);
        let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans[0]
            .cost()
            .time;
        let stuck = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .unwrap();
        // Feed fillers one at a time, pacing each by ~2 ms of wall clock
        // while polling A, so the reply stream stays busy for far longer
        // than A's suspicion window.
        const FILLER_CAP: u64 = 200;
        let mut fillers: Vec<QueryHandle> = Vec::new();
        let mut stuck_result = None;
        let mut fillers_at_recovery = None;
        'stream: for seed in 0..FILLER_CAP {
            let fq = query(6, 1000 + seed);
            fillers.push(
                svc.submit(&fq, PlanSpace::Linear, Objective::Single)
                    .unwrap(),
            );
            for _ in 0..10 {
                if let Some(result) = svc.poll(&stuck) {
                    stuck_result = Some(result);
                    fillers_at_recovery = Some(seed + 1);
                    break 'stream;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        let fillers_at_recovery = fillers_at_recovery
            .expect("the stuck session must recover during the busy stream, not after it drains");
        assert!(
            fillers_at_recovery < FILLER_CAP / 2,
            "recovery should come within the first half of the stream, \
             got {fillers_at_recovery}"
        );
        let out = stuck_result
            .unwrap()
            .expect("the dropped range is re-issued");
        assert!(bit_eq(out.plans[0].cost().time, reference));
        assert!(out.metrics.retries >= 1, "recovery must have fired");
        for handle in fillers {
            let out = svc.wait(handle).expect("fillers complete");
            assert_eq!(out.plans.len(), 1);
        }
        svc.shutdown();
    }

    /// Regression (ISSUE 4 satellite): dropping an unredeemed handle must
    /// free the session's master-side state instead of leaking it until
    /// service teardown.
    #[test]
    fn dropped_handles_release_session_state() {
        let mut svc = MpqService::spawn(2, MpqConfig::default()).unwrap();
        let q = query(6, 23);
        let abandoned = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .expect("submit");
        assert_eq!(svc.in_flight(), 1);
        drop(abandoned);
        // The next scheduler entry reaps the abandoned session; a second
        // query must stream through unaffected.
        let handle = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .expect("submit");
        assert_eq!(svc.in_flight(), 1, "the dropped session is gone");
        let out = svc.wait(handle).expect("live session completes");
        assert_eq!(out.plans.len(), 1);
        assert_eq!(svc.in_flight(), 0);
        // A completed-but-unredeemed result is reaped from the parked map
        // too once its handle drops: finish `parked`'s session by waiting
        // on a later driver session, then drop the handle unredeemed.
        let parked = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .expect("submit");
        while svc.parked_results() == 0 {
            // Waiting on driver sessions pumps the shared reply stream, so
            // `parked`'s session completes and its result is parked.
            let driver = svc
                .submit(&q, PlanSpace::Linear, Objective::Single)
                .expect("submit");
            let _ = svc.wait(driver).expect("driver completes");
        }
        drop(parked);
        svc.reap_abandoned();
        assert_eq!(svc.parked_results(), 0, "the parked result is freed");
        svc.shutdown();
    }

    #[test]
    fn resident_service_survives_worker_crashes_across_sessions() {
        use mpq_cluster::FaultPlan;
        use std::time::Duration;
        // One worker crashes on its very first task; every later session
        // must route around the corpse without fresh faults.
        let faults = FaultPlan::crash_on_first_task(4, 3);
        let config = MpqConfig {
            faults,
            retry: RetryPolicy::with_timeout(64, Duration::from_millis(20)),
            ..MpqConfig::default()
        };
        let mut svc = MpqService::spawn(4, config).unwrap();
        for seed in 0..6 {
            let q = query(6, seed);
            let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans[0]
                .cost()
                .time;
            let handle = svc
                .submit(&q, PlanSpace::Linear, Objective::Single)
                .expect("dead workers are routed around at submit");
            let out = svc.wait(handle).expect("recovery succeeds");
            assert!(bit_eq(out.plans[0].cost().time, reference), "seed {seed}");
        }
        assert!(svc.metrics().snapshot().crashes >= 1);
        svc.shutdown();
    }

    /// Regression (ISSUE 5 satellite): redeeming a handle twice —
    /// poll-then-wait — must yield a typed error, never a panic.
    #[test]
    fn poll_then_wait_is_a_typed_error() {
        let mut svc = MpqService::spawn(2, MpqConfig::default()).unwrap();
        let q = query(5, 30);
        let handle = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .unwrap();
        let mut polled = false;
        for _ in 0..10_000 {
            if svc.poll(&handle).is_some() {
                polled = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        assert!(polled, "the session completes");
        let id = handle.id();
        let err = svc.wait(handle).expect_err("the result was already taken");
        assert_eq!(err, MpqError::UnknownHandle { id });
        svc.shutdown();
    }

    #[test]
    fn admission_refuses_at_the_limit_and_parks_on_request() {
        let mut svc = MpqService::spawn(1, MpqConfig::default()).unwrap();
        svc.set_max_in_flight(2);
        let q = query(5, 32);
        let submit = |svc: &mut MpqService| svc.submit(&q, PlanSpace::Linear, Objective::Single);
        let a = submit(&mut svc).unwrap();
        let b = submit(&mut svc).unwrap();
        // Bytes towards the workers, not the message count: the replies of
        // `a` and `b` may still be on their way back.
        let sent = svc.metrics().snapshot().master_to_worker_bytes;
        let refusal = MpqError::Overloaded {
            in_flight: 2,
            limit: 2,
        };
        assert_eq!(submit(&mut svc).err(), Some(refusal));
        // The refusal left zero state: nothing sent, nothing live.
        assert_eq!(svc.metrics().snapshot().master_to_worker_bytes, sent);
        assert_eq!(svc.in_flight(), 2);
        // Parking drives the in-flight sessions until one finishes.
        let c = svc
            .submit_wait(&q, PlanSpace::Linear, Objective::Single)
            .unwrap();
        assert!(svc.in_flight() <= 2);
        assert_eq!(svc.parked_results(), 1);
        let reference = serial_time(&q);
        for handle in [a, b, c] {
            let out = svc.wait(handle).expect("every session completes");
            assert!(bit_eq(out.plans[0].cost().time, reference));
        }
        svc.shutdown();
    }

    /// A message plane that takes every task and answers every receive
    /// with the loss of all its workers.
    struct LostTransport(NetworkMetrics);

    impl Transport for LostTransport {
        fn num_workers(&self) -> usize {
            2
        }
        fn metrics(&self) -> &NetworkMetrics {
            &self.0
        }
        fn is_worker_alive(&self, _: usize) -> bool {
            true
        }
        fn send(&self, _: usize, _: QueryId, _: Bytes, _: bool) -> Result<(), ClusterError> {
            Ok(())
        }
        fn recv(&self) -> Result<(usize, QueryId, Bytes), ClusterError> {
            Err(ClusterError::AllWorkersLost)
        }
        fn recv_timeout(&self, _: Duration) -> Result<(usize, QueryId, Bytes), ClusterError> {
            self.recv()
        }
        fn try_recv(&self) -> Result<(usize, QueryId, Bytes), ClusterError> {
            self.recv()
        }
        fn recv_for(&self, _: QueryId) -> Result<(usize, Bytes), ClusterError> {
            Err(ClusterError::AllWorkersLost)
        }
        fn recv_for_timeout(
            &self,
            q: QueryId,
            _: Duration,
        ) -> Result<(usize, Bytes), ClusterError> {
            self.recv_for(q)
        }
        fn shutdown(&mut self) {}
    }

    /// A receive that reports the plane gone fails every live session
    /// typed, whichever scheduler step issued it: `wait` without a timer
    /// (`try_recv`), `wait` with one (`recv_timeout`) and `poll`.
    #[test]
    fn transport_loss_fails_every_live_session_typed() {
        let lost = Some(MpqError::Cluster(ClusterError::AllWorkersLost));
        let retries = [
            RetryPolicy::DISABLED,
            RetryPolicy::with_timeout(4, Duration::from_millis(5)),
        ];
        for retry in retries {
            let config = MpqConfig {
                retry,
                ..MpqConfig::default()
            };
            let transport = Box::new(LostTransport(NetworkMetrics::with_workers(2)));
            let mut svc = MpqService::with_transport(transport, config).unwrap();
            let q = query(5, 33);
            let submit =
                |svc: &mut MpqService| svc.submit(&q, PlanSpace::Linear, Objective::Single);
            let (a, b) = (submit(&mut svc).unwrap(), submit(&mut svc).unwrap());
            assert_eq!(svc.wait(a).err(), lost);
            assert_eq!(svc.in_flight(), 0, "the other session failed with it");
            assert_eq!(svc.poll(&b).map(Result::err), Some(lost.clone()));
            let c = submit(&mut svc).unwrap();
            assert_eq!(svc.poll(&c).map(Result::err), Some(lost.clone()));
            assert_eq!((svc.in_flight(), svc.parked_results()), (0, 0));
            svc.shutdown();
        }
    }

    /// Regression (ISSUE 5 satellite): malformed submissions are typed
    /// errors, not asserts.
    #[test]
    fn malformed_submissions_are_typed_errors() {
        let mut svc = MpqService::spawn(2, MpqConfig::default()).unwrap();
        let q = query(5, 31);
        let err = svc
            .submit_assigned(&q, PlanSpace::Linear, Objective::Single, 4, Vec::new())
            .expect_err("empty assignment");
        assert!(matches!(err, MpqError::BadRequest { .. }));
        let err = svc
            .submit_assigned(
                &q,
                PlanSpace::Linear,
                Objective::Single,
                4,
                vec![(0, 1), (1, 1), (2, 1)],
            )
            .expect_err("more ranges than workers");
        assert!(matches!(err, MpqError::BadRequest { .. }));
        assert!(matches!(
            MpqService::spawn(0, MpqConfig::default()),
            Err(MpqError::BadRequest { .. })
        ));
        // ISSUE 24 satellite: so is a layout no worker would accept — a
        // partition count that is no power of two or beyond the query's
        // pairs, a range past the end, an empty or a wrapping one.
        for (partitions, range) in [
            (3, (0, 1)),
            (8, (0, 1)),
            (4, (7, 1)),
            (4, (3, 2)),
            (2, (0, 0)),
            (2, (1, u64::MAX)),
        ] {
            let err = svc
                .submit_assigned(
                    &q,
                    PlanSpace::Linear,
                    Objective::Single,
                    partitions,
                    vec![range],
                )
                .expect_err("a range outside the partition space");
            assert!(matches!(err, MpqError::BadRequest { .. }), "{range:?}");
        }
        // So is a layout of valid ranges that does not tile the partitions
        // in order — a gap, an overlap, ranges out of order — and nothing
        // is sent for it.
        let sent = svc.metrics().snapshot().messages;
        for layout in [vec![(0, 1)], vec![(0, 2), (1, 3)], vec![(2, 2), (0, 2)]] {
            let err = svc
                .submit_assigned(&q, PlanSpace::Linear, Objective::Single, 4, layout.clone())
                .expect_err("ranges that do not tile the partitions");
            assert!(matches!(err, MpqError::BadRequest { .. }), "{layout:?}");
        }
        assert_eq!(svc.metrics().snapshot().messages, sent);
        // The service is none the worse for it.
        let handle = svc
            .submit_assigned(&q, PlanSpace::Linear, Objective::Single, 4, vec![(0, 4)])
            .unwrap();
        assert_eq!(svc.wait(handle).unwrap().plans.len(), 1);
        svc.shutdown();
    }

    /// Regression (ISSUE 5 satellite): a `RetryPolicy` with `timeout:
    /// None` must not panic in the suspicion pass — it degrades to
    /// death/overtake evidence and still recovers a crashed worker's
    /// range through `poll`.
    #[test]
    fn no_timeout_retry_policy_recovers_on_evidence() {
        use mpq_cluster::FaultPlan;
        let config = MpqConfig {
            faults: FaultPlan::crash_on_first_task(2, 1),
            retry: RetryPolicy {
                max_retries: 8,
                timeout: None,
                max_strikes: 64,
            },
            ..MpqConfig::default()
        };
        let mut svc = MpqService::spawn(2, config).unwrap();
        let q = query(6, 32);
        let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans[0]
            .cost()
            .time;
        let handle = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .unwrap();
        let mut out = None;
        for _ in 0..20_000 {
            if let Some(r) = svc.poll(&handle) {
                out = Some(r.expect("evidence-based recovery succeeds"));
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        let out = out.expect("the session completes without a timer");
        assert!(bit_eq(out.plans[0].cost().time, reference));
        assert!(out.metrics.retries >= 1, "the crash forced a re-issue");
        assert!(svc.metrics().snapshot().crashes >= 1);
        svc.shutdown();
    }

    /// Tentpole: a 10x-slowed worker's unstarted remainder is stolen by
    /// idle workers, the session stays exact, and the steal shows up in
    /// the session and cluster ledgers.
    #[test]
    fn straggling_range_is_split_and_stolen() {
        let config = MpqConfig {
            steal: true,
            slow_worker: Some((0, 10)),
            ..MpqConfig::default()
        };
        let q = query(9, 33);
        let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans[0]
            .cost()
            .time;
        // Oversubscribed: 4 workers x 4 partitions each — the slow worker
        // holds a splittable 16-partition-space range.
        let out = run_even(config, &q, 4, 16);
        assert!(bit_eq(out.plans[0].cost().time, reference));
        assert!(
            out.metrics.steals >= 1,
            "the slowed worker must be stolen from: {:?}",
            out.metrics
        );
        assert!(out.metrics.stolen_partitions >= 1);
        assert!(out.metrics.progress_reports >= 1);
        assert_eq!(out.metrics.network.steals, out.metrics.steals);
    }

    /// An in-process cluster that counts, per worker, the sends it
    /// accepted: the plane's own view of what the master booked.
    struct CountingTransport {
        inner: Cluster,
        accepted: std::sync::Arc<Vec<std::sync::atomic::AtomicU64>>,
    }

    impl Transport for CountingTransport {
        fn num_workers(&self) -> usize {
            self.inner.num_workers()
        }
        fn metrics(&self) -> &NetworkMetrics {
            self.inner.metrics()
        }
        fn is_worker_alive(&self, id: usize) -> bool {
            self.inner.is_worker_alive(id)
        }
        fn send(&self, id: usize, q: QueryId, payload: Bytes, a: bool) -> Result<(), ClusterError> {
            let sent = self.inner.send(id, q, payload, a);
            if sent.is_ok() {
                self.accepted[id].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            sent
        }
        fn recv(&self) -> Result<(usize, QueryId, Bytes), ClusterError> {
            self.inner.recv()
        }
        fn recv_timeout(&self, t: Duration) -> Result<(usize, QueryId, Bytes), ClusterError> {
            self.inner.recv_timeout(t)
        }
        fn try_recv(&self) -> Result<(usize, QueryId, Bytes), ClusterError> {
            self.inner.try_recv()
        }
        fn recv_for(&self, q: QueryId) -> Result<(usize, Bytes), ClusterError> {
            self.inner.recv_for(q)
        }
        fn recv_for_timeout(
            &self,
            q: QueryId,
            t: Duration,
        ) -> Result<(usize, Bytes), ClusterError> {
            self.inner.recv_for_timeout(q, t)
        }
        fn shutdown(&mut self) {
            Transport::shutdown(&mut self.inner);
        }
    }

    /// Every worker record's send count is exactly the number of sends
    /// the plane accepted for that worker, through steals (chunks and
    /// head backup) and through re-issues after a crash; and without a
    /// retry timer no worker record's reply stamp moves.
    #[test]
    fn worker_records_book_exactly_the_accepted_sends() {
        use mpq_cluster::FaultPlan;
        let stealing = MpqConfig {
            steal: true,
            slow_worker: Some((0, 10)),
            ..MpqConfig::default()
        };
        let retrying = MpqConfig {
            faults: FaultPlan::crash_on_first_task(2, 1),
            retry: RetryPolicy::with_timeout(8, Duration::from_millis(5)),
            ..MpqConfig::default()
        };
        for (config, workers, q) in [(stealing, 4, query(9, 33)), (retrying, 2, query(6, 32))] {
            let faults = config.faults.schedule(workers);
            let inner = Cluster::spawn(workers, LatencyModel::ZERO, |w| {
                let slow = match config.slow_worker {
                    Some((slow, factor)) if slow == w => factor,
                    _ => 1,
                };
                Faulty::new(MpqWorker::new(slow), faults.worker(w))
            })
            .unwrap();
            let accepted = std::sync::Arc::new((0..workers).map(|_| 0.into()).collect());
            let plane = CountingTransport {
                inner,
                accepted: std::sync::Arc::clone(&accepted),
            };
            let mut svc = MpqService::with_transport(Box::new(plane), config).unwrap();
            let stamps: Vec<Instant> = svc.workers.iter().map(|w| w.last_reply).collect();
            let out = svc
                .submit(&q, PlanSpace::Linear, Objective::Single)
                .and_then(|h| svc.wait(h))
                .unwrap();
            assert!(bit_eq(out.plans[0].cost().time, serial_time(&q)));
            let booked: Vec<u64> = svc.workers.iter().map(|w| w.sent).collect();
            let counted: Vec<u64> = accepted
                .iter()
                .map(|c| c.load(std::sync::atomic::Ordering::Relaxed))
                .collect();
            assert_eq!(booked, counted, "{:?}", out.metrics);
            match config.retry.timeout {
                None => {
                    assert!(out.metrics.steals >= 1, "{:?}", out.metrics);
                    let now: Vec<Instant> = svc.workers.iter().map(|w| w.last_reply).collect();
                    assert_eq!(now, stamps, "no timer, no stamp");
                }
                Some(_) => assert!(out.metrics.retries >= 1, "{:?}", out.metrics),
            }
            svc.shutdown();
        }
    }

    /// Regression (review): `wait` with `timeout: None` must not deadlock
    /// on a pre-reply crash — the blocking receive yields to the
    /// clock-free evidence pass first.
    #[test]
    fn no_timeout_wait_recovers_on_evidence() {
        use mpq_cluster::FaultPlan;
        let config = MpqConfig {
            faults: FaultPlan::crash_on_first_task(2, 1),
            retry: RetryPolicy {
                max_retries: 8,
                timeout: None,
                max_strikes: 64,
            },
            ..MpqConfig::default()
        };
        let mut svc = MpqService::spawn(2, config).unwrap();
        let q = query(6, 35);
        let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans[0]
            .cost()
            .time;
        // The crashed worker sends nothing; only the evidence pass run
        // before the blocking recv can re-issue its range.
        let out = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .and_then(|h| svc.wait(h))
            .expect("evidence-based recovery unblocks the wait");
        assert!(bit_eq(out.plans[0].cost().time, reference));
        assert!(out.metrics.retries >= 1);
        svc.shutdown();
    }

    /// Regression (review): with no timer configured, `wait` must drain
    /// queued replies before consulting death evidence — a worker that
    /// crashes *after* its completing reply must not fail (or re-issue)
    /// the session its queued reply completes exactly.
    #[test]
    fn queued_reply_beats_dead_sender_evidence_without_timer() {
        use mpq_cluster::{FaultAction, FaultPlan};
        let faults = FaultPlan {
            crash_prob: 1.0,
            crash_after_reply_prob: 1.0,
            min_survivors: 1,
            ..FaultPlan::NONE
        }
        .with_seed_where(2, 4096, |s| {
            // min_survivors always spares the lowest-id candidate, so
            // worker 1 is the one that can crash here.
            s.action(1, 0) == FaultAction::CrashAfterReply && s.crashing_workers() == vec![1]
        })
        .expect("some seed crashes exactly worker 1 right after its first reply");
        let config = MpqConfig {
            faults,
            // The default policy: no retries, no timer — the reply on the
            // wire is the only way this session can complete.
            retry: RetryPolicy::DISABLED,
            ..MpqConfig::default()
        };
        let mut svc = MpqService::spawn(2, config).unwrap();
        let q = query(6, 39);
        let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans[0]
            .cost()
            .time;
        let handle = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .unwrap();
        // Let worker 1 reply and die before the master looks at anything,
        // so its completing reply is queued behind a provably dead sender.
        for _ in 0..500 {
            if !svc.transport().is_worker_alive(1) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(
            !svc.transport().is_worker_alive(1),
            "the crash must have fired"
        );
        let out = svc
            .wait(handle)
            .expect("the queued reply completes the session despite the dead sender");
        assert!(bit_eq(out.plans[0].cost().time, reference));
        assert_eq!(out.metrics.retries, 0, "nothing needed re-execution");
        svc.shutdown();
    }

    /// With stealing on, a one-partition range is never a victim, however
    /// far it lags: its unstarted tail is empty, and splitting it would
    /// divide by zero in the chunk math.
    #[test]
    fn one_partition_ranges_are_never_stolen_from() {
        let config = MpqConfig {
            steal: true,
            slow_worker: Some((0, 4)),
            ..MpqConfig::default()
        };
        let mut svc = MpqService::spawn(4, config).unwrap();
        let q = query(6, 36);
        // Explicit one-partition ranges: every tail is empty, so nothing
        // is stealable no matter how lopsided progress looks — selecting
        // such a victim would divide by zero in the chunk math.
        let assignment: Vec<(u64, u64)> = (0..4).map(|p| (p, 1)).collect();
        let out = svc
            .submit_assigned(&q, PlanSpace::Linear, Objective::Single, 4, assignment)
            .and_then(|h| svc.wait(h))
            .expect("session completes without a steal");
        assert_eq!(out.metrics.steals, 0);
        svc.shutdown();
    }

    /// Regression (review): session ids collide across services (every
    /// service counts from 0), so a foreign same-backend handle must be
    /// rejected — never redeem another session's result.
    #[test]
    fn foreign_same_backend_handle_is_rejected() {
        let mut a = MpqService::spawn(2, MpqConfig::default()).unwrap();
        let mut b = MpqService::spawn(2, MpqConfig::default()).unwrap();
        let qa = query(5, 37);
        let qb = query(6, 38);
        let from_a = a.submit(&qa, PlanSpace::Linear, Objective::Single).unwrap();
        let from_b = b.submit(&qb, PlanSpace::Linear, Objective::Single).unwrap();
        assert_eq!(from_a.id(), from_b.id(), "raw ids do collide");
        assert!(matches!(
            b.poll(&from_a),
            Some(Err(MpqError::UnknownHandle { .. }))
        ));
        assert!(matches!(
            b.wait(from_a),
            Err(MpqError::UnknownHandle { .. })
        ));
        // B's rightful handle still redeems B's own result.
        let out = b.wait(from_b).expect("b's own session completes");
        let reference = optimize_serial(&qb, PlanSpace::Linear, Objective::Single).plans[0]
            .cost()
            .time;
        assert!(bit_eq(out.plans[0].cost().time, reference));
        a.shutdown();
        b.shutdown();
    }

    /// Regression (review): a dropped reply must not poison a worker's
    /// queue ledger for the service's lifetime — the recovery pass
    /// credits the proven-lost reply, so the worker returns to the thief
    /// pool and later sessions can still steal onto it.
    #[test]
    fn dropped_reply_does_not_poison_the_thief_pool() {
        use mpq_cluster::{FaultAction, FaultPlan};
        use std::time::Duration;
        // Two workers: worker 0 is slow (the perpetual steal victim), so
        // worker 1 is the only possible thief — and worker 1's entire
        // first task (progress and reply) is eaten by the network.
        let faults = FaultPlan {
            drop_prob: 0.15,
            ..FaultPlan::NONE
        }
        .with_seed_where(2, 8192, |s| {
            (0..8).all(|m| s.action(0, m) == FaultAction::Deliver)
                && s.action(1, 0) == FaultAction::DropReply
                && (1..8).all(|m| s.action(1, m) == FaultAction::Deliver)
        })
        .expect("some seed drops exactly worker 1's first task output");
        // Factor 20 (not 3): the victim must still be visibly mid-range
        // when worker 1 goes idle, or the steal pass has nothing to split
        // and the session races to completion without the steal this test
        // exists to observe — at small factors that race flakes under
        // parallel test load.
        let config = MpqConfig {
            faults,
            steal: true,
            slow_worker: Some((0, 20)),
            retry: RetryPolicy::with_timeout(64, Duration::from_millis(15)),
        };
        let mut svc = MpqService::spawn(2, config).unwrap();
        // Session 1: explicit one-partition ranges, so the steal pass has
        // nothing to split and only the retry machinery can recover the
        // dropped reply — repairing worker 1's ledger in the process.
        let q = query(7, 45);
        let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans[0]
            .cost()
            .time;
        let first = svc
            .submit_assigned(
                &q,
                PlanSpace::Linear,
                Objective::Single,
                2,
                vec![(0, 1), (1, 1)],
            )
            .and_then(|h| svc.wait(h))
            .expect("drop is recovered");
        assert!(bit_eq(first.plans[0].cost().time, reference));
        assert!(first.metrics.retries >= 1, "the drop forced a re-issue");
        // Session 2: worker 1 must be steal-eligible again despite its
        // permanently unanswered first task.
        let second = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .and_then(|h| svc.wait(h))
            .expect("second session completes");
        assert!(bit_eq(second.plans[0].cost().time, reference));
        assert!(
            second.metrics.steals >= 1,
            "the repaired ledger must readmit the only thief: {:?}",
            second.metrics
        );
        svc.shutdown();
    }

    /// With stealing enabled, the plain `submit` entry point
    /// oversubscribes the partition space so ranges have splittable
    /// tails — otherwise `serve --steal` would be a structural no-op —
    /// and a slowed worker demonstrably produces progress traffic while
    /// results stay exact.
    #[test]
    fn submit_oversubscribes_when_stealing() {
        let config = MpqConfig {
            steal: true,
            slow_worker: Some((0, 6)),
            ..MpqConfig::default()
        };
        let mut svc = MpqService::spawn(4, config).unwrap();
        let q = query(8, 44);
        let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans[0]
            .cost()
            .time;
        let out = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .and_then(|h| svc.wait(h))
            .expect("session completes");
        assert!(bit_eq(out.plans[0].cost().time, reference));
        assert!(
            out.metrics.partitions > 4,
            "steal-enabled submit must oversubscribe: {} partitions",
            out.metrics.partitions
        );
        assert!(
            out.metrics.progress_reports >= 1,
            "multi-partition ranges must report progress: {:?}",
            out.metrics
        );
        // Steal-off submit keeps the paper's one-partition-per-worker
        // layout bit-for-bit.
        let mut off = MpqService::spawn(4, MpqConfig::default()).unwrap();
        let base = off
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .and_then(|h| off.wait(h))
            .expect("session completes");
        assert_eq!(base.metrics.partitions, 4);
        assert_eq!(
            base.plans[0].cost().time.to_bits(),
            out.plans[0].cost().time.to_bits(),
            "oversubscription never changes the optimum"
        );
        off.shutdown();
        svc.shutdown();
    }

    /// Regression (ISSUE 13 satellite): a task whose query has no tables
    /// (a hostile or corrupt frame — the service's own admission refuses
    /// such a query before encoding it) fails to decode, so the worker
    /// answers through the malformed-task path instead of reaching the
    /// DP kernel's size assert, and stays up for the next task.
    #[test]
    fn worker_survives_a_zero_table_task() {
        let cluster = Cluster::spawn(1, LatencyModel::ZERO, |_| MpqWorker::new(1)).unwrap();
        let task = |query: Query| MasterMessage {
            query,
            space: PlanSpace::Linear,
            objective: Objective::Single,
            first_partition: 0,
            partition_count: 1,
            total_partitions: 1,
            progress_every: 0,
        };
        let mut empty = query(3, 50);
        empty.catalog = Default::default();
        empty.predicates.clear();
        // Regression (ISSUE 18 satellite): so does a task whose query
        // carries a predicate on a table it does not have — it must not
        // reach the per-table predicate index.
        let mut stray = query(3, 50);
        stray.predicates[0].right = 40;
        for (id, q, malformed) in [(0, empty, true), (1, stray, true), (2, query(3, 50), false)] {
            cluster
                .send(0, QueryId(id), task(q).to_bytes(), true)
                .expect("the worker is still up");
            let (_, qid, payload) = cluster.recv().expect("the worker answers");
            assert_eq!(qid, QueryId(id));
            let WorkerMsg::Reply(reply) = WorkerMsg::from_bytes(&payload).unwrap() else {
                panic!("expected a reply");
            };
            // The impossible range echo marks a malformed task.
            assert_eq!(reply.first_partition == u64::MAX, malformed);
            assert_eq!(reply.plans.is_empty(), malformed);
        }
        cluster.shutdown();
    }

    /// Regression (ISSUE 22 satellite): a task asking for an approximation
    /// factor that is not a finite number ≥ 1 (the service's own admission
    /// refuses it before encoding) fails to decode, so the worker answers
    /// through the malformed-task path instead of reaching the pruning
    /// policy's assertion — which used to kill the worker thread, and with
    /// it every later task sent there. A valid α on the same worker still
    /// gets its frontier.
    #[test]
    fn worker_survives_a_hostile_alpha() {
        let cluster = Cluster::spawn(1, LatencyModel::ZERO, |_| MpqWorker::new(1)).unwrap();
        let alphas = [0.5, f64::NAN, -1.0, f64::INFINITY, 2.0];
        for (id, alpha) in alphas.into_iter().enumerate() {
            let task = MasterMessage {
                query: query(4, 51),
                space: PlanSpace::Linear,
                objective: Objective::Multi { alpha },
                first_partition: 0,
                partition_count: 1,
                total_partitions: 1,
                progress_every: 0,
            };
            cluster
                .send(0, QueryId(id as u64), task.to_bytes(), true)
                .expect("the worker is still up");
            let (_, qid, payload) = cluster.recv().expect("the worker answers");
            assert_eq!(qid, QueryId(id as u64));
            let WorkerMsg::Reply(reply) = WorkerMsg::from_bytes(&payload).unwrap() else {
                panic!("expected a reply");
            };
            let malformed = alpha != 2.0;
            assert_eq!(
                reply.first_partition == u64::MAX,
                malformed,
                "alpha {alpha}"
            );
            assert_eq!(reply.plans.is_empty(), malformed, "alpha {alpha}");
        }
        cluster.shutdown();
    }

    /// Regression (ISSUE 24 satellite): a decoded task whose partition
    /// range the partition decoder asserts on — a total that is no power
    /// of two, an ID past the total, more constraints than the query has
    /// pairs — used to kill the worker thread, and with it every later
    /// task sent there; a count of `u64::MAX` would have kept it busy for
    /// good. Each is answered through the malformed-task path (the
    /// service's own admission refuses such a layout before encoding it),
    /// and a valid task on the same worker still gets its plan.
    #[test]
    fn worker_survives_a_hostile_partition_range() {
        let cluster = Cluster::spawn(1, LatencyModel::ZERO, |_| MpqWorker::new(1)).unwrap();
        let ranges = [
            (0, 1, 3),
            (7, 1, 4),
            (0, 1, 1 << 40),
            (0, u64::MAX, 1),
            (1, u64::MAX, 2),
            (0, 0, 1),
            (0, 1, 1),
        ];
        for (id, (first_partition, partition_count, total_partitions)) in
            ranges.into_iter().enumerate()
        {
            let task = MasterMessage {
                query: query(3, 53),
                space: PlanSpace::Linear,
                objective: Objective::Single,
                first_partition,
                partition_count,
                total_partitions,
                progress_every: 0,
            };
            cluster
                .send(0, QueryId(id as u64), task.to_bytes(), true)
                .expect("the worker is still up");
            let (_, qid, payload) = cluster.recv().expect("the worker answers");
            assert_eq!(qid, QueryId(id as u64));
            let WorkerMsg::Reply(reply) = WorkerMsg::from_bytes(&payload).unwrap() else {
                panic!("expected a reply");
            };
            let malformed = id + 1 < ranges.len();
            assert_eq!(reply.first_partition == u64::MAX, malformed, "task {id}");
            assert_eq!(reply.plans.is_empty(), malformed, "task {id}");
        }
        cluster.shutdown();
    }

    /// Regression (ISSUE 23 satellite): `from_bytes` never checked that a
    /// frame was consumed, so a task with garbage appended ran as if it
    /// were valid. It now fails to decode: the worker answers through the
    /// malformed-task path and serves the next, clean task.
    #[test]
    fn worker_survives_a_task_with_trailing_bytes() {
        let cluster = Cluster::spawn(1, LatencyModel::ZERO, |_| MpqWorker::new(1)).unwrap();
        let task = MasterMessage {
            query: query(3, 52),
            space: PlanSpace::Linear,
            objective: Objective::Single,
            first_partition: 0,
            partition_count: 1,
            total_partitions: 1,
            progress_every: 0,
        }
        .to_bytes();
        let mut padded = task.to_vec();
        padded.extend_from_slice(&[0xA5; 3]);
        for (id, bytes, malformed) in [(0, Bytes::from(padded), true), (1, task, false)] {
            cluster
                .send(0, QueryId(id), bytes, true)
                .expect("the worker is still up");
            let (_, qid, payload) = cluster.recv().expect("the worker answers");
            assert_eq!(qid, QueryId(id));
            let WorkerMsg::Reply(reply) = WorkerMsg::from_bytes(&payload).unwrap() else {
                panic!("expected a reply");
            };
            assert_eq!(reply.first_partition == u64::MAX, malformed);
            assert_eq!(reply.plans.is_empty(), malformed);
        }
        cluster.shutdown();
    }

    /// A worker that answers each task, range echoed, with the optimum of
    /// a query of `tables` tables: a reply that decodes, but whose plans
    /// do not join the session's tables.
    struct ForeignPlanWorker {
        tables: usize,
    }

    impl WorkerLogic for ForeignPlanWorker {
        fn on_message(&mut self, _: QueryId, payload: Bytes, ctx: &mut WorkerCtx) -> Control {
            let task = MasterMessage::from_bytes(&payload).unwrap();
            let plans = optimize_serial(&query(self.tables, 72), task.space, task.objective).plans;
            let reply = WorkerReply {
                first_partition: task.first_partition,
                partition_count: task.partition_count,
                plans,
                stats: WorkerStats::default(),
                cache_hits: 0,
                cache_misses: 0,
            };
            ctx.send_to_master(WorkerMsg::Reply(reply).to_bytes());
            Control::Continue
        }
    }

    /// A plan that misses one of the session's tables, or joins one it
    /// does not have, is no optimum of the session's query: the master
    /// fails the session with a typed error instead of returning it.
    #[test]
    fn a_reply_whose_plans_join_other_tables_fails_the_session() {
        for tables in [4, 6] {
            let cluster =
                Cluster::spawn(1, LatencyModel::ZERO, |_| ForeignPlanWorker { tables }).unwrap();
            let mut svc =
                MpqService::with_transport(Box::new(cluster), MpqConfig::default()).unwrap();
            let out = svc
                .submit(&query(5, 71), PlanSpace::Linear, Objective::Single)
                .and_then(|h| svc.wait(h));
            // Plans of 4 tables price against the 5-table query but miss
            // one of its tables; a 6-table plan scans table 5, which the
            // query does not have, so it does not price.
            let expected = match tables {
                4 => MpqError::Protocol { worker: 0 },
                _ => MpqError::Unpriceable {
                    worker: 0,
                    reason: PriceError::Explain(ExplainError::UnknownTable {
                        table: 5,
                        tables: 5,
                    }),
                },
            };
            assert_eq!(out.err(), Some(expected), "{tables}-table plans");
            svc.shutdown();
        }
    }

    /// A worker that answers its first task with the plan `lie` (any cost:
    /// none crosses the wire) and every later task as [`MpqWorker`] does.
    struct LyingWorker {
        lie: Option<Plan>,
        honest: MpqWorker,
    }

    impl LyingWorker {
        fn new(lie: Vec<PlanOp>) -> LyingWorker {
            LyingWorker {
                lie: Some(Plan {
                    cost: mpq_cost::CostVector::ZERO,
                    ops: lie,
                }),
                honest: MpqWorker::new(1),
            }
        }
    }

    impl WorkerLogic for LyingWorker {
        fn on_message(&mut self, qid: QueryId, payload: Bytes, ctx: &mut WorkerCtx) -> Control {
            let Some(lie) = self.lie.take() else {
                return self.honest.on_message(qid, payload, ctx);
            };
            let task = MasterMessage::from_bytes(&payload).unwrap();
            let reply = WorkerReply {
                first_partition: task.first_partition,
                partition_count: task.partition_count,
                plans: vec![lie],
                stats: WorkerStats::default(),
                cache_hits: 0,
                cache_misses: 0,
            };
            ctx.send_to_master(WorkerMsg::Reply(reply).to_bytes());
            Control::Continue
        }
    }

    fn scan(table: u8) -> PlanOp {
        PlanOp::Scan {
            table,
            op: mpq_cost::ScanOp::Full,
        }
    }

    fn join(op: mpq_cost::JoinOp) -> PlanOp {
        PlanOp::Join { op }
    }

    /// Reply plans the master cannot price fail their session with
    /// [`MpqError::Unpriceable`], naming the worker and the reason — a
    /// sort-merge join of a cross product, a bushy plan in a left-deep
    /// session, a scan of a table past the query's (which the decoder
    /// admits, as it is below 64) — and the service answers its next
    /// session exactly.
    #[test]
    fn reply_plans_that_do_not_price_fail_the_session_typed() {
        use mpq_cost::JoinOp::{Hash, SortMerge};
        // A 3-table chain joins 0-1 and 1-2 only: 0 and 2 meet in a cross
        // product.
        let chain = WorkloadGenerator::new(
            WorkloadConfig::with_graph(3, mpq_model::JoinGraph::Chain),
            7,
        )
        .next_query();
        let cases = [
            (
                chain,
                vec![scan(0), scan(2), join(SortMerge), scan(1), join(Hash)],
                PriceError::Explain(ExplainError::Inapplicable {
                    at: 2,
                    op: SortMerge,
                }),
            ),
            (
                query(4, 81),
                vec![
                    scan(0),
                    scan(1),
                    join(Hash),
                    scan(2),
                    scan(3),
                    join(Hash),
                    join(Hash),
                ],
                PriceError::NotLeftDeep,
            ),
            (
                query(3, 82),
                vec![scan(0), scan(1), join(Hash), scan(40), join(Hash)],
                PriceError::Explain(ExplainError::UnknownTable {
                    table: 40,
                    tables: 3,
                }),
            ),
        ];
        for (q, lie, reason) in cases {
            let cluster =
                Cluster::spawn(1, LatencyModel::ZERO, |_| LyingWorker::new(lie.clone())).unwrap();
            let mut svc =
                MpqService::with_transport(Box::new(cluster), MpqConfig::default()).unwrap();
            let out = svc
                .submit(&q, PlanSpace::Linear, Objective::Single)
                .and_then(|h| svc.wait(h));
            assert_eq!(
                out.err(),
                Some(MpqError::Unpriceable { worker: 0, reason }),
                "{lie:?}"
            );
            let next = svc
                .submit(&q, PlanSpace::Linear, Objective::Single)
                .and_then(|h| svc.wait(h))
                .unwrap();
            assert!(bit_eq(next.plans[0].cost().time, serial_time(&q)));
            svc.shutdown();
        }
    }

    /// A worker whose partition does not hold the optimum answers with a
    /// valid, suboptimal tree and claims it costs nothing: the claim does
    /// not cross the wire, the master prices the tree at its true cost,
    /// and the answer is the serial optimum's, to the bit.
    #[test]
    fn a_suboptimal_tree_is_priced_at_its_true_cost() {
        for seed in [91, 92, 93] {
            let q = query(6, seed);
            let optimum =
                optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans[0].clone();
            // The partition of two without the optimum.
            let liar = (0..2u64)
                .find(|&p| {
                    let best =
                        &optimize_partition_id(&q, PlanSpace::Linear, Objective::Single, p, 2)
                            .plans[0];
                    !bit_eq(best.cost().time, optimum.cost().time)
                })
                .expect("one partition of two lacks the optimum") as usize;
            let lie = vec![
                scan(0),
                scan(1),
                join(mpq_cost::JoinOp::NestedLoop),
                scan(2),
                join(mpq_cost::JoinOp::NestedLoop),
                scan(3),
                join(mpq_cost::JoinOp::NestedLoop),
                scan(4),
                join(mpq_cost::JoinOp::NestedLoop),
                scan(5),
                join(mpq_cost::JoinOp::NestedLoop),
            ];
            let true_cost = mpq_dp::explain(&q, &Plan::unpriced(lie.clone()))
                .unwrap()
                .root()
                .cost;
            assert!(true_cost.time > optimum.cost().time, "seed {seed}");
            let cluster = Cluster::spawn(2, LatencyModel::ZERO, |w| {
                if w == liar {
                    LyingWorker::new(lie.clone())
                } else {
                    LyingWorker {
                        lie: None,
                        honest: MpqWorker::new(1),
                    }
                }
            })
            .unwrap();
            let mut svc =
                MpqService::with_transport(Box::new(cluster), MpqConfig::default()).unwrap();
            let out = svc
                .submit_assigned(
                    &q,
                    PlanSpace::Linear,
                    Objective::Single,
                    2,
                    vec![(0, 1), (1, 1)],
                )
                .and_then(|h| svc.wait(h))
                .unwrap();
            assert_eq!(out.metrics.replies_received, 2, "seed {seed}");
            assert_eq!(out.plans.len(), 1);
            assert_eq!(
                out.plans[0].cost().time.to_bits(),
                optimum.cost().time.to_bits(),
                "seed {seed}"
            );
            svc.shutdown();
        }
    }

    /// Steal-off sessions put no progress traffic on the wire and never
    /// steal, even with a slowed worker.
    #[test]
    fn steal_disabled_is_quiet() {
        let config = MpqConfig {
            slow_worker: Some((0, 4)),
            ..MpqConfig::default()
        };
        let out = run_even(config, &query(8, 34), 2, 8);
        assert_eq!(out.metrics.steals, 0);
        assert_eq!(out.metrics.progress_reports, 0);
        assert_eq!(out.metrics.network.progress_reports, 0);
        assert_eq!(out.metrics.network.steals, 0);
    }

    /// The send-site half of the protocol: a worker sends every declared
    /// `WorkerMsg` variant. A two-partition task with `progress_every: 1`
    /// draws one progress report, then the reply; a variant declared in
    /// `WIRE_TYPES` but never sent fails the count.
    #[test]
    fn worker_sends_every_declared_worker_msg_tag() {
        struct Capture(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
        impl std::io::Write for Capture {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let q = query(6, 5);
        assert!(is_partition_range(6, PlanSpace::Linear, 0, 2, 2));
        let task = MasterMessage {
            query: q,
            space: PlanSpace::Linear,
            objective: Objective::Single,
            first_partition: 0,
            partition_count: 2,
            total_partitions: 2,
            progress_every: 1,
        };
        let bytes = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let metrics = std::sync::Arc::new(mpq_cluster::NetworkMetrics::with_workers(1));
        let mut ctx = WorkerCtx::for_stream(0, metrics, Box::new(Capture(bytes.clone())));
        let mut worker = worker_logic(0);
        worker.on_message(QueryId(7), task.to_bytes(), &mut ctx);

        let mut frames = mpq_cluster::FrameBuffer::new();
        frames.push(&bytes.lock().unwrap());
        let mut tags = Vec::new();
        while let Some(env) = frames.next_frame().unwrap() {
            tags.push(env.payload[0]);
        }
        assert_eq!(tags, [WorkerMsg::TAG_PROGRESS, WorkerMsg::TAG_REPLY]);
        let declared = crate::message::WIRE_TYPES
            .iter()
            .find(|ty| ty.name == "WorkerMsg")
            .unwrap()
            .decl
            .matches("=>")
            .count();
        assert_eq!(tags.len(), declared);
    }
}
