//! The resident SMA service: interleaved level-synchronized sessions over
//! one long-lived cluster.
//!
//! SMA is the replicated-memo baseline, and keeping it resident makes the
//! paper's contrast sharper, not weaker: each in-flight query needs a
//! **full memo replica on every worker** (`O(2^n)` state per session per
//! node), built up over `n - 1` broadcast rounds — where a resident MPQ
//! worker holds no session state at all. The worker therefore keys its
//! replicas by [`QueryId`] and frees them on `Finish` (or on the
//! master's `Abort` when a session fails or its handle is dropped, so a
//! resident worker's memory tracks the in-flight set, not the history);
//! the master drives each session's level-synchronized state machine
//! independently, so the rounds of concurrent sessions interleave freely
//! on the wire.
//!
//! The session lifecycle — handles, admission, `submit` / `poll` /
//! `wait`, parking, reaping — is [`mpq_cluster::session`]'s, shared with
//! the MPQ master; this module is the SMA [`Protocol`].
//!
//! Fault handling keeps the fail-fast doctrine per session: the protocol
//! never recovers a lost replica, it reports the measured
//! re-broadcast bill in a typed [`SmaError`]. A dead worker dooms every
//! in-flight session (each one had a replica on it).

// A server facade must never abort on caller error: every unwrap/expect
// on this master-side path is either removed or individually justified.

use crate::message::{SlotUpdate, SmaMasterMsg, SmaReply};
use crate::optimizer::{SmaConfig, SmaError, SmaMetrics, SmaOutcome};
use bytes::Bytes;
pub use mpq_cluster::QueryHandle;
use mpq_cluster::{
    BlockingStep, Cluster, ClusterError, Control, Faulty, LatencyModel, Protocol, QueryId,
    SessionService, Table, Transport, Wire, WireListener, WorkerCtx, WorkerLogic,
};
use mpq_cost::{CardinalityEstimator, Objective};
use mpq_dp::{complete_plans, compute_entries_for_set, seed_scans, ArenaMemo, WorkerStats};
use mpq_model::{Query, TableSet};
use mpq_partition::{AdmissibleSets, ConstraintSet, Grouping, PlanSpace};
use mpq_plan::{Plan, PruningPolicy};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Consecutive fruitless receive timeouts tolerated (with every worker
/// still alive) before a session is declared stalled.
const MAX_STRIKES: u32 = 64;

/// One session's replica on one worker.
struct ReplicaState {
    query: Query,
    space: PlanSpace,
    objective: Objective,
    /// SMA has no constraint structure: the replica is laid out over, and
    /// its splits are enumerated under, the unconstrained set.
    constraints: ConstraintSet,
    memo: ArenaMemo,
    /// The query's estimator, built once at `Init` for every level.
    est: CardinalityEstimator,
}

/// SMA worker logic: one replicated memo **per in-flight session**, keyed
/// by the session id; assigned slots are computed against the owning
/// session's replica, broadcast deltas are merged into it, and `Finish`
/// (or the master's `Abort`) frees it. Nothing outlives a session:
/// repeated queries are answered by the service facade's result cache
/// before any message is sent.
#[derive(Default)]
pub(crate) struct SmaWorker {
    replicas: HashMap<u64, ReplicaState>,
}

/// One boxed SMA worker node's logic, for callers that host worker nodes
/// behind their own [`Transport`] rather than a [`Cluster`] or socket —
/// the schedule-space model checker dispatches messages to these inline.
/// Equivalent to what [`SmaService::spawn`] installs on each thread.
pub fn worker_logic() -> Box<dyn WorkerLogic> {
    Box::new(SmaWorker::default())
}

impl WorkerLogic for SmaWorker {
    fn on_message(&mut self, query: QueryId, payload: Bytes, ctx: &mut WorkerCtx) -> Control {
        let msg = match SmaMasterMsg::from_bytes(&payload) {
            Ok(m) => m,
            Err(_) => {
                // Protocol bug: report it so the master fails the session
                // typed — an empty level result would silently merge a
                // hole into every replica. The worker stays up for its
                // other sessions.
                ctx.send_to_master(SmaReply::Malformed.to_bytes());
                return Control::Continue;
            }
        };
        match msg {
            SmaMasterMsg::Init {
                query: q,
                space,
                objective,
            } => {
                let n = q.num_tables();
                // The replica has a span for each of the 2^n table sets,
                // addressed by a dense u32 index.
                if n >= u32::BITS as usize {
                    ctx.send_to_master(SmaReply::Malformed.to_bytes());
                    return Control::Continue;
                }
                let constraints = ConstraintSet::unconstrained(Grouping::new(n, space));
                let mut memo = ArenaMemo::new(AdmissibleSets::new(&constraints));
                let policy = PruningPolicy::new(objective, n);
                let est = CardinalityEstimator::new(&q);
                seed_scans(&mut memo, &est, &policy);
                self.replicas.insert(
                    query.0,
                    ReplicaState {
                        query: q,
                        space,
                        objective,
                        constraints,
                        memo,
                        est,
                    },
                );
                Control::Continue
            }
            SmaMasterMsg::Assign { sets } => {
                // The master always sends Init first and per-worker
                // delivery is FIFO, so a missing replica is a protocol
                // bug: report it typed instead of killing a resident
                // worker that still serves every other session.
                let Some(state) = self.replicas.get_mut(&query.0) else {
                    ctx.send_to_master(SmaReply::Malformed.to_bytes());
                    return Control::Continue;
                };
                if !sets.iter().all(|&set| is_join_result(set, &state.query)) {
                    ctx.send_to_master(SmaReply::Malformed.to_bytes());
                    return Control::Continue;
                }
                let t0 = Instant::now();
                let policy = PruningPolicy::new(state.objective, state.query.num_tables());
                let mut stats = WorkerStats::default();
                let slots: Vec<SlotUpdate> = sets
                    .iter()
                    .map(|&set| SlotUpdate {
                        set,
                        entries: compute_entries_for_set(
                            state.space,
                            &state.constraints,
                            set,
                            &state.memo,
                            state.est.predicates(),
                            &policy,
                            &mut stats,
                        ),
                    })
                    .collect();
                let micros = t0.elapsed().as_micros() as u64;
                ctx.send_to_master(SmaReply::LevelDone { slots, micros }.to_bytes());
                Control::Continue
            }
            SmaMasterMsg::Delta { slots } => {
                let Some(state) = self.replicas.get_mut(&query.0) else {
                    ctx.send_to_master(SmaReply::Malformed.to_bytes());
                    return Control::Continue;
                };
                // Every replica must hold every slot exactly once (parents
                // refer to entries by position): a set outside the query or
                // a rewrite of a filled slot is a protocol bug. The set's
                // statistics are not on the wire; each replica records its
                // own estimate with the slot.
                let merged = slots.iter().all(|s| {
                    is_join_result(s.set, &state.query)
                        && state
                            .memo
                            .push_slot_of(s.set, state.est.set_stats(s.set), &s.entries)
                });
                if !merged {
                    ctx.send_to_master(SmaReply::Malformed.to_bytes());
                }
                Control::Continue
            }
            SmaMasterMsg::Abort => {
                // The master gave up on the session; free its replica.
                // Tolerates an unknown id (the session may have failed
                // before this worker's Init arrived).
                self.replicas.remove(&query.0);
                Control::Continue
            }
            SmaMasterMsg::Finish => {
                // The session is over once the final plan ships: drop the
                // replica so a resident worker's memory does not grow with
                // the *history* of sessions, only with the in-flight set.
                let Some(state) = self.replicas.remove(&query.0) else {
                    ctx.send_to_master(SmaReply::Malformed.to_bytes());
                    return Control::Continue;
                };
                let policy = PruningPolicy::new(state.objective, state.query.num_tables());
                let mut plans = complete_plans(&state.memo);
                policy.final_prune(&mut plans);
                let stats = WorkerStats {
                    stored_sets: state.memo.stored_sets(),
                    total_entries: state.memo.total_entries(),
                    ..WorkerStats::default()
                };
                ctx.send_to_master(SmaReply::Final { plans, stats }.to_bytes());
                Control::Continue
            }
        }
    }
}

/// Whether a wire-decoded `set` names a join result of `query` — at least
/// two tables, all of them the query's. `TableSet::decode` accepts any
/// `u64`, and the replica's dense index would alias a stray high bit onto
/// a real slot (or run off the scan table), so this is checked before a
/// decoded set touches the memo.
fn is_join_result(set: TableSet, query: &Query) -> bool {
    set.len() >= 2 && set.is_subset_of(TableSet::full(query.num_tables()))
}

/// Where one session stands in the level-synchronized protocol.
enum Phase {
    /// Waiting for `awaiting` `LevelDone` replies of cardinality `k`.
    Level {
        k: usize,
        awaiting: usize,
        level_slots: Vec<SlotUpdate>,
    },
    /// `Finish` sent to worker 0; waiting for the `Final` reply.
    Finishing,
}

/// Master-side state of one in-flight SMA session.
pub struct Session {
    n: usize,
    phase: Phase,
    round: u64,
    recovery_bytes: u64,
    compute: Vec<u64>,
    strikes: u32,
    start: Instant,
    /// When this session last saw one of its own replies; the scheduler's
    /// per-session stall-suspicion clock.
    last_progress: Instant,
}

impl Session {
    fn lost(&self, e: ClusterError) -> SmaError {
        match e {
            ClusterError::WorkerLost { worker } => SmaError::WorkerLost {
                worker,
                round: self.round,
                memo_rebroadcast_bytes: self.recovery_bytes,
            },
            ClusterError::AllWorkersLost | ClusterError::SpawnFailed { .. } => {
                SmaError::WorkerLost {
                    worker: 0,
                    round: self.round,
                    memo_rebroadcast_bytes: self.recovery_bytes,
                }
            }
            ClusterError::Timeout { .. } => SmaError::Stalled {
                round: self.round,
                memo_rebroadcast_bytes: self.recovery_bytes,
            },
        }
    }
}

/// A long-lived SMA baseline service over one resident cluster: a
/// [`SessionService`] speaking the [`SmaProtocol`] (`poll`, `wait`,
/// `in_flight`, `metrics`, … are the shared lifecycle's, reached through
/// `Deref`). See the module docs.
pub struct SmaService(SessionService<SmaProtocol>);

impl std::ops::Deref for SmaService {
    type Target = SessionService<SmaProtocol>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl std::ops::DerefMut for SmaService {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

/// The SMA master's [`Protocol`]; its only service-wide state is the
/// stall-detection timeout.
pub struct SmaProtocol {
    recv_timeout: Option<Duration>,
}

impl SmaService {
    /// Spawns the resident cluster: `workers` worker threads, each behind
    /// its [`Faulty`] slice of `config`'s fault plan, shared by every
    /// subsequently submitted query.
    pub fn spawn(workers: usize, config: SmaConfig) -> Result<SmaService, SmaError> {
        if workers == 0 {
            return Err(SmaError::BadRequest {
                reason: "at least one worker required",
            });
        }
        let faults = config.faults.schedule(workers);
        let cluster = Cluster::spawn(workers, LatencyModel::ZERO, |w| {
            Faulty::new(SmaWorker::default(), faults.worker(w))
        })
        .map_err(SmaError::Cluster)?;
        SmaService::with_transport(Box::new(cluster), config)
    }

    /// Builds the service over an already-connected message plane — the
    /// entry point for real socket transports
    /// ([`SocketTransport`](mpq_cluster::SocketTransport)), whose worker
    /// processes run [`serve_socket_worker`]. `config`'s fault plan is
    /// ignored (it acts on workers this side does not spawn; wrap a socket
    /// worker in [`Faulty`] instead); its receive timeout governs stall
    /// detection exactly as on the in-process plane.
    pub fn with_transport(
        transport: Box<dyn Transport>,
        config: SmaConfig,
    ) -> Result<SmaService, SmaError> {
        let protocol = SmaProtocol {
            recv_timeout: config.recv_timeout,
        };
        let service = SessionService::new(protocol, transport, config.max_in_flight)?;
        Ok(SmaService(service))
    }

    /// Submits `query`: ships `Init` to every replica and dispatches the
    /// first level, then returns with a handle. Subsequent levels are
    /// driven by `poll` / `wait`. Past [`SmaConfig::max_in_flight`] the
    /// submission is refused with [`SmaError::Overloaded`] before the
    /// `Init` broadcast, so it pins no replicas anywhere.
    pub fn submit(
        &mut self,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
    ) -> Result<QueryHandle, SmaError> {
        self.0.submit(query, (space, objective), false)
    }

    /// Blocking submit: exactly [`SmaService::submit`], except that at
    /// the admission limit it parks on the blocking receive loop —
    /// driving the in-flight sessions' rounds until capacity frees —
    /// instead of refusing.
    pub fn submit_wait(
        &mut self,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
    ) -> Result<QueryHandle, SmaError> {
        self.0.submit(query, (space, objective), true)
    }

    /// Shuts the resident cluster down, joining every worker thread.
    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

impl Protocol for SmaProtocol {
    type Request = (PlanSpace, Objective);
    type Session = Session;
    type Outcome = SmaOutcome;
    type Error = SmaError;

    fn objective(&(_, objective): &(PlanSpace, Objective)) -> Objective {
        objective
    }

    fn open(
        &mut self,
        net: &dyn Transport,
        id: QueryId,
        query: &Query,
        (space, objective): (PlanSpace, Objective),
    ) -> Result<Session, SmaError> {
        let n = query.num_tables();
        let mut session = Session {
            n,
            phase: Phase::Finishing, // placeholder; set below
            round: 0,
            recovery_bytes: 0,
            compute: vec![0; net.num_workers()],
            strikes: 0,
            start: Instant::now(),
            last_progress: Instant::now(),
        };
        // Initialization round: ship the query and statistics everywhere.
        session.round += 1;
        net.metrics().record_round();
        let init = SmaMasterMsg::Init {
            query: query.clone(),
            space,
            objective,
        }
        .to_bytes();
        session.recovery_bytes += init.len() as u64;
        let dispatched = net
            .broadcast(id, &init, true)
            .map_err(|e| session.lost(e))
            .and_then(|()| start_round(net, &mut session, id, 2));
        if let Err(e) = dispatched {
            // Workers reached before the failure already hold a replica
            // for a session that will never run; free them.
            abort_session(net, id);
            return Err(e);
        }
        Ok(session)
    }

    /// Routes one session-tagged reply and advances that session's
    /// level-synchronized state machine.
    fn route(
        &mut self,
        net: &dyn Transport,
        table: &mut Table<Self>,
        worker: usize,
        qid: QueryId,
        payload: Bytes,
    ) {
        enum Advance {
            Pending,
            Finished(Vec<Plan>, WorkerStats),
            Failed(SmaError),
        }
        let advance = {
            let Some(session) = table.live.get_mut(&qid.0) else {
                // A reply for a session that already failed; SMA issues no
                // speculative work, so there is nothing to account.
                return;
            };
            session.strikes = 0;
            session.last_progress = Instant::now();
            match SmaReply::from_bytes(&payload) {
                Err(source) => Advance::Failed(SmaError::Decode { worker, source }),
                Ok(SmaReply::Malformed) => Advance::Failed(SmaError::Protocol { worker }),
                Ok(SmaReply::LevelDone { slots, micros }) => match &mut session.phase {
                    // Out-of-phase reply: a protocol bug, failed typed
                    // rather than panicking a resident master.
                    Phase::Finishing => Advance::Failed(SmaError::Protocol { worker }),
                    Phase::Level {
                        k,
                        awaiting,
                        level_slots,
                    } => {
                        session.compute[worker] += micros;
                        level_slots.extend(slots);
                        *awaiting -= 1;
                        if *awaiting > 0 {
                            Advance::Pending
                        } else {
                            // Level complete: broadcast the merged slots
                            // so every replica stays consistent — the
                            // exponential-traffic step, and the reason a
                            // replacement replica costs the full running
                            // bill — then dispatch the next level.
                            let k = *k;
                            let slots = std::mem::take(level_slots);
                            let delta = SmaMasterMsg::Delta { slots }.to_bytes();
                            session.recovery_bytes += delta.len() as u64;
                            match net
                                .broadcast(qid, &delta, false)
                                .map_err(|e| session.lost(e))
                                .and_then(|()| start_round(net, session, qid, k + 1))
                            {
                                Ok(()) => Advance::Pending,
                                Err(e) => Advance::Failed(e),
                            }
                        }
                    }
                },
                Ok(SmaReply::Final { plans, stats }) => {
                    if matches!(session.phase, Phase::Finishing) {
                        Advance::Finished(plans, stats)
                    } else {
                        Advance::Failed(SmaError::Protocol { worker })
                    }
                }
            }
        };
        match advance {
            Advance::Pending => {}
            Advance::Finished(plans, stats) => self.finish(net, table, qid, plans, stats),
            Advance::Failed(err) => self.fail(net, table, qid, err),
        }
    }

    /// Per-session stall suspicion: every session that has gone a full
    /// receive timeout without one of its own replies is examined — a
    /// provably dead worker dooms it at once (its replica lived there:
    /// the paper's recovery argument), otherwise it accumulates strikes
    /// toward a stall. The clock is per session, so a busy reply stream
    /// from other sessions cannot mask a stuck one. Returns whether any
    /// session fired.
    fn check_suspicions(&mut self, net: &dyn Transport, table: &mut Table<Self>) -> bool {
        let Some(t) = self.recv_timeout else {
            return false;
        };
        let dead = net.dead_workers().first().copied();
        let due: Vec<u64> = table
            .live
            .iter()
            .filter(|(_, s)| s.last_progress.elapsed() >= t)
            .map(|(&id, _)| id)
            .collect();
        for &raw in &due {
            let Some(session) = table.live.get_mut(&raw) else {
                continue;
            };
            session.last_progress = Instant::now();
            // One suspicion event per session, mirrored in the metrics.
            net.metrics().record_timeout();
            if let Some(worker) = dead {
                let err = SmaError::WorkerLost {
                    worker,
                    round: session.round,
                    memo_rebroadcast_bytes: session.recovery_bytes,
                };
                self.fail(net, table, QueryId(raw), err);
                continue;
            }
            session.strikes += 1;
            if session.strikes >= MAX_STRIKES {
                let err = SmaError::Stalled {
                    round: session.round,
                    memo_rebroadcast_bytes: session.recovery_bytes,
                };
                self.fail(net, table, QueryId(raw), err);
            }
        }
        !due.is_empty()
    }

    /// One receive (with the configured stall timeout, if any), then the
    /// suspicion pass.
    fn blocking_step(&self) -> BlockingStep {
        BlockingStep::Receive(self.recv_timeout)
    }

    /// Frees the `O(2^n)` memo replicas the session pinned on every
    /// worker: a failed or abandoned session must not leak them on a
    /// resident cluster.
    fn release(&mut self, net: &dyn Transport, id: QueryId) {
        abort_session(net, id);
    }

    fn transport_lost(&self, session: &Session, err: ClusterError) -> SmaError {
        session.lost(err)
    }
}

impl SmaProtocol {
    fn finish(
        &mut self,
        net: &dyn Transport,
        table: &mut Table<Self>,
        qid: QueryId,
        plans: Vec<Plan>,
        replica_stats: WorkerStats,
    ) {
        let Some(session) = table.live.remove(&qid.0) else {
            // Internal invariant (route only finishes live sessions), but
            // a resident master must not abort if it is ever violated.
            return;
        };
        let network = net.metrics().snapshot();
        // Worker 0 freed its replica when it handled `Finish`; tell the
        // *other* workers to free theirs too — a resident worker's memory
        // must track the in-flight set, not the history of sessions.
        let abort = SmaMasterMsg::Abort.to_bytes();
        for w in 1..net.num_workers() {
            let _ = net.send(w, qid, abort.clone(), false);
        }
        let metrics = SmaMetrics {
            total_micros: session.start.elapsed().as_micros() as u64,
            max_worker_micros: session.compute.iter().copied().max().unwrap_or(0),
            network,
            worker_compute_micros: session.compute,
            replica_stats,
            rounds: session.round,
            replica_recovery_bytes: session.recovery_bytes,
        };
        table.park(qid, Ok(SmaOutcome { plans, metrics }));
    }
}

/// Runs one SMA worker **process**: accepts a single master connection on
/// `listener` and serves the SMA replica protocol over it until the
/// master disconnects or orders shutdown. The logic is the same
/// `SmaWorker` the in-process cluster drives, so a socket master
/// observes byte-identical protocol behavior.
pub fn serve_socket_worker(listener: &WireListener) -> std::io::Result<()> {
    mpq_cluster::serve_worker(listener, SmaWorker::default())
}

/// Best-effort `Abort` to every worker so a finished-by-failure session's
/// replicas are freed; sends to dead workers are ignored (their memory is
/// gone with them).
fn abort_session(cluster: &dyn Transport, id: QueryId) {
    let abort = SmaMasterMsg::Abort.to_bytes();
    for w in 0..cluster.num_workers() {
        let _ = cluster.send(w, id, abort.clone(), false);
    }
}

/// Dispatches round `k` of a session: `Assign` messages for the level's
/// table sets (contiguous chunks, fine-grained task lists), or `Finish`
/// once every level is done.
fn start_round(
    cluster: &dyn Transport,
    session: &mut Session,
    id: QueryId,
    k: usize,
) -> Result<(), SmaError> {
    session.round += 1;
    cluster.metrics().record_round();
    if k > session.n {
        // Final round: any replica can produce the plan; ask worker 0.
        cluster
            .send(0, id, SmaMasterMsg::Finish.to_bytes(), false)
            .map_err(|e| session.lost(e))?;
        session.phase = Phase::Finishing;
        return Ok(());
    }
    let sets: Vec<TableSet> = TableSet::subsets_of_size(session.n, k).collect();
    let participants = cluster.num_workers().min(sets.len());
    let chunk = sets.len().div_ceil(participants);
    let mut sent = 0usize;
    for (w, batch) in sets.chunks(chunk).enumerate() {
        let msg = SmaMasterMsg::Assign {
            sets: batch.to_vec(),
        };
        cluster
            .send(w, id, msg.to_bytes(), true)
            .map_err(|e| session.lost(e))?;
        sent += 1;
    }
    session.phase = Phase::Level {
        k,
        awaiting: sent,
        level_slots: Vec::new(),
    };
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use mpq_dp::optimize_serial;
    use mpq_model::{WorkloadConfig, WorkloadGenerator};
    use mpq_plan::PlanEntry;

    fn query(n: usize, seed: u64) -> Query {
        WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).next_query()
    }

    #[test]
    fn interleaved_sessions_keep_replicas_apart() {
        // Several queries of different sizes in flight at once: their
        // levels interleave on the wire, and every result must match the
        // serial reference for its own query.
        let mut svc = SmaService::spawn(3, SmaConfig::default()).unwrap();
        let queries: Vec<Query> = (0..6)
            .map(|s| query(4 + (s as usize % 3), s + 20))
            .collect();
        let handles: Vec<QueryHandle> = queries
            .iter()
            .map(|q| {
                svc.submit(q, PlanSpace::Linear, Objective::Single)
                    .expect("submit")
            })
            .collect();
        assert_eq!(svc.in_flight(), 6);
        for (q, handle) in queries.iter().zip(handles).rev() {
            let out = svc.wait(handle).expect("session completes");
            let reference = optimize_serial(q, PlanSpace::Linear, Objective::Single).plans[0]
                .cost()
                .time;
            assert_eq!(out.plans[0].cost().time.to_bits(), reference.to_bits());
        }
        svc.shutdown();
    }

    /// Regression (ISSUE 4 satellite): dropping an unredeemed handle must
    /// free the session's master-side state and its worker replicas
    /// instead of pinning `O(2^n)` memory until service teardown.
    #[test]
    fn dropped_handles_release_sessions_and_replicas() {
        let mut svc = SmaService::spawn(2, SmaConfig::default()).unwrap();
        let q = query(6, 40);
        let abandoned = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .expect("submit");
        assert_eq!(svc.in_flight(), 1);
        drop(abandoned);
        // The next scheduler entry reaps it (and sends the workers
        // `Abort`); a follow-up session streams through unaffected.
        let handle = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .expect("submit");
        assert_eq!(svc.in_flight(), 1, "the dropped session is gone");
        let out = svc.wait(handle).expect("live session completes");
        assert_eq!(out.plans.len(), 1);
        assert_eq!(svc.in_flight(), 0);
        svc.shutdown();
    }

    #[test]
    fn replicas_are_freed_after_finish() {
        // The recovery bill of a later session must not include an
        // earlier session's memo: sessions are accounted independently.
        let mut svc = SmaService::spawn(2, SmaConfig::default()).unwrap();
        let q = query(6, 30);
        let a = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .unwrap();
        let bill_a = svc.wait(a).unwrap().metrics.replica_recovery_bytes;
        let b = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .unwrap();
        let bill_b = svc.wait(b).unwrap().metrics.replica_recovery_bytes;
        assert_eq!(bill_a, bill_b, "per-session bills are independent");
        svc.shutdown();
    }

    /// Regression (ISSUE 13 satellite): an `Init` whose query has no
    /// tables (a hostile or corrupt frame — the service's own admission
    /// refuses such a query before encoding it) fails to decode, so the
    /// worker reports `Malformed` instead of building a zero-table memo,
    /// and stays up for the next session.
    #[test]
    fn worker_survives_a_zero_table_init() {
        let cluster = Cluster::spawn(1, LatencyModel::ZERO, |_| SmaWorker::default()).unwrap();
        let init_for = |query: Query, objective: Objective| SmaMasterMsg::Init {
            query,
            space: PlanSpace::Linear,
            objective,
        };
        let init = |query: Query| init_for(query, Objective::Single);
        let mut empty = query(3, 60);
        empty.catalog = Default::default();
        empty.predicates.clear();
        // Regression (ISSUE 18 satellite): so does an `Init` whose query
        // carries a predicate on a table it does not have — it must not
        // reach the per-table predicate index.
        let mut stray = query(3, 60);
        stray.predicates[0].right = 40;
        // Regression (ISSUE 22 satellite): and an `Init` asking for an
        // approximation factor below 1 — it must not reach the pruning
        // policy's assertion.
        let greedy = init_for(query(3, 60), Objective::Multi { alpha: 0.5 });
        for hostile in [init(empty), init(stray), greedy] {
            cluster
                .send(0, QueryId(0), hostile.to_bytes(), true)
                .unwrap();
            let (_, _, payload) = cluster.recv().expect("the worker answers");
            assert_eq!(SmaReply::from_bytes(&payload), Ok(SmaReply::Malformed));
        }
        // Still serving: a well-formed session runs to its final plan.
        let q = query(3, 60);
        let id = QueryId(1);
        cluster.send(0, id, init(q).to_bytes(), true).unwrap();
        cluster
            .send(0, id, SmaMasterMsg::Finish.to_bytes(), false)
            .unwrap();
        let (_, qid, payload) = cluster.recv().expect("the worker answers");
        assert_eq!(qid, id);
        assert!(matches!(
            SmaReply::from_bytes(&payload),
            Ok(SmaReply::Final { .. })
        ));
        cluster.shutdown();
    }

    /// Regression (ISSUE 23 satellite): `from_bytes` never checked that a
    /// frame was consumed, so an `Init` with garbage appended started a
    /// session. It now fails to decode: the worker reports `Malformed`
    /// and serves the next, clean session.
    #[test]
    fn worker_survives_a_frame_with_trailing_bytes() {
        let cluster = Cluster::spawn(1, LatencyModel::ZERO, |_| SmaWorker::default()).unwrap();
        let init = SmaMasterMsg::Init {
            query: query(3, 62),
            space: PlanSpace::Linear,
            objective: Objective::Single,
        }
        .to_bytes();
        let mut padded = init.to_vec();
        padded.push(0);
        cluster
            .send(0, QueryId(0), padded.into(), true)
            .expect("the worker is up");
        let (_, _, payload) = cluster.recv().expect("the worker answers");
        assert_eq!(SmaReply::from_bytes(&payload), Ok(SmaReply::Malformed));
        let id = QueryId(1);
        cluster.send(0, id, init, true).unwrap();
        cluster
            .send(0, id, SmaMasterMsg::Finish.to_bytes(), false)
            .unwrap();
        let (_, qid, payload) = cluster.recv().expect("the worker answers");
        assert_eq!(qid, id);
        assert!(matches!(
            SmaReply::from_bytes(&payload),
            Ok(SmaReply::Final { .. })
        ));
        cluster.shutdown();
    }

    /// Regression (ISSUE 17 satellite): `TableSet::decode` accepts any
    /// `u64`, so a hostile or corrupt `Assign`/`Delta` can name a table the
    /// session's query does not have (this used to index past the scan
    /// table and kill the worker thread), a singleton, or a slot the
    /// replica already holds. Each is answered `Malformed`, and the worker
    /// stays up for the next session.
    #[test]
    fn worker_survives_sets_outside_the_query() {
        let cluster = Cluster::spawn(1, LatencyModel::ZERO, |_| SmaWorker::default()).unwrap();
        let send = |id: u64, msg: SmaMasterMsg| {
            cluster.send(0, QueryId(id), msg.to_bytes(), true).unwrap();
        };
        let reply = |id: u64| {
            let (_, qid, payload) = cluster.recv().expect("the worker answers");
            assert_eq!(qid, QueryId(id));
            SmaReply::from_bytes(&payload).unwrap()
        };
        let init = || SmaMasterMsg::Init {
            query: query(3, 61),
            space: PlanSpace::Bushy,
            objective: Objective::Single,
        };
        let stray = TableSet::from_tables([0, 10]);
        let pair = TableSet::from_tables([0, 1]);
        let update = |set| SlotUpdate {
            set,
            entries: vec![PlanEntry::scan(
                0,
                mpq_cost::ScanOp::Full,
                mpq_cost::CostVector::new(1.0, 0.0),
            )],
        };
        let hostile = [
            SmaMasterMsg::Assign { sets: vec![stray] },
            SmaMasterMsg::Assign {
                sets: vec![pair, TableSet::singleton(1)],
            },
            SmaMasterMsg::Delta {
                slots: vec![update(stray)],
            },
            SmaMasterMsg::Delta {
                slots: vec![update(pair), update(pair)],
            },
        ];
        for (id, frame) in hostile.into_iter().enumerate() {
            send(id as u64, init());
            send(id as u64, frame);
            assert_eq!(reply(id as u64), SmaReply::Malformed, "frame {id}");
        }
        // Still serving: a well-formed session runs level by level to its
        // final plan.
        let id = 9;
        send(id, init());
        for k in 2..=3 {
            send(
                id,
                SmaMasterMsg::Assign {
                    sets: TableSet::subsets_of_size(3, k).collect(),
                },
            );
            let SmaReply::LevelDone { slots, .. } = reply(id) else {
                panic!("level {k} completes");
            };
            send(id, SmaMasterMsg::Delta { slots });
        }
        send(id, SmaMasterMsg::Finish);
        let SmaReply::Final { plans, .. } = reply(id) else {
            panic!("the session finishes");
        };
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].tables(), TableSet::full(3));
        cluster.shutdown();
    }

    /// Regression (ISSUE 5 satellite): redeeming a handle twice —
    /// poll-then-wait — must yield a typed error, never a panic.
    #[test]
    fn poll_then_wait_is_a_typed_error() {
        let mut svc = SmaService::spawn(2, SmaConfig::default()).unwrap();
        let q = query(5, 50);
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
        assert_eq!(err, SmaError::UnknownHandle { id });
        svc.shutdown();
    }
}
