//! The threaded node runtime: the in-process message plane.
//!
//! A [`Cluster`] is threads, channels and `Inbox::pump` (the receive loop
//! it shares with the socket transport), and nothing else: one OS thread
//! per worker node, one channel into each worker, one channel back to the
//! master. It is **long-lived**: it serves an unbounded stream of
//! optimization sessions, each identified by a [`QueryId`]. Workers hold
//! fully private state (their [`WorkerLogic`] value moves into the thread)
//! and interact with the master exclusively through serialized,
//! byte-counted messages, every one framed in a [`SessionEnvelope`]
//! tagging its owning session. The master-side protocol runs on the
//! caller's thread through the [`Transport`] methods `send` / `recv` /
//! `recv_for`: `recv` surfaces the session tag, and `recv_for`
//! demultiplexes — replies owned by other sessions are buffered and
//! delivered when their owner asks.
//!
//! The plane simulates no latency and injects no faults. A seeded
//! [`FaultPlan`](crate::FaultPlan) is applied by wrapping each worker's
//! logic in a [`Faulty`](crate::Faulty) decorator, which runs unchanged
//! here and behind [`serve_worker`](crate::serve_worker) on a socket. The
//! master observes faults only the way a real master would — through send
//! failures, receive timeouts and [`Transport::is_worker_alive`].

use crate::codec::{QueryId, SessionEnvelope};
use crate::fault::FaultAction;
use crate::latency::LatencyModel;
use crate::metrics::NetworkMetrics;
use crate::transport::Transport;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::mpsc::TryRecvError;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Mints a process-wide unique service-instance identity. Session
/// services stamp it into the handles they mint, so a handle presented
/// to the wrong service instance is detected even when the raw session
/// ids collide (every service numbers its sessions from 0).
pub fn mint_service_instance() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// Drop-queue shared between a session service and its query handles:
/// a handle pushes its session id here when dropped unredeemed, and the
/// service drains the queue on its next scheduler entry to free the
/// abandoned session's state. Ids of already-redeemed handles are pushed
/// too — services treat unknown ids as no-ops, so that is harmless.
#[derive(Clone, Debug, Default)]
pub struct AbandonedList(Arc<Mutex<Vec<u64>>>);

impl AbandonedList {
    /// An empty list.
    pub fn new() -> AbandonedList {
        AbandonedList::default()
    }

    /// Queues one abandoned session id. Called from `Drop` impls: a
    /// poisoned lock means the service side is gone, so there is nothing
    /// left to free and the push is silently skipped.
    pub fn push(&self, id: u64) {
        if let Ok(mut list) = self.0.lock() {
            list.push(id);
        }
    }

    /// Takes every queued id in **canonical order** (ascending session
    /// id, duplicates preserved), leaving the list empty. Push order
    /// depends on when each handle happened to be dropped — an accident
    /// of caller timing — so services reap in this order instead, making
    /// the drop lifecycle replayable under the schedule-space model
    /// checker.
    pub fn drain_ordered(&self) -> Vec<u64> {
        let mut ids = match self.0.lock() {
            Ok(mut list) => std::mem::take(&mut *list),
            Err(_) => Vec::new(),
        };
        ids.sort_unstable();
        ids
    }
}

/// What a worker wants to happen after handling a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Control {
    /// Keep the worker alive and wait for the next message.
    Continue,
    /// Terminate the worker thread.
    Shutdown,
}

/// Typed master-side cluster failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClusterError {
    /// The OS refused to spawn a worker thread, or no worker was asked
    /// for; the cluster never came up.
    SpawnFailed {
        /// The worker whose thread could not be created (0 for a cluster
        /// of no workers: its first worker is the one that is missing).
        worker: usize,
    },
    /// A message could not be delivered because the worker's thread has
    /// terminated (crashed or shut down).
    WorkerLost {
        /// The dead worker's id.
        worker: usize,
    },
    /// Every worker has terminated and no replies remain.
    AllWorkersLost,
    /// No reply arrived within the timeout.
    Timeout {
        /// How long the master waited.
        waited: Duration,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::SpawnFailed { worker } => {
                write!(f, "could not spawn the thread for worker {worker}")
            }
            ClusterError::WorkerLost { worker } => {
                write!(f, "worker {worker} is no longer alive")
            }
            ClusterError::AllWorkersLost => write!(f, "every worker has terminated"),
            ClusterError::Timeout { waited } => {
                write!(f, "no worker reply within {waited:?}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Where a worker's replies go: the in-process channel of a [`Cluster`],
/// or a real byte stream back to a remote master (see
/// [`crate::transport`]).
enum ReplySink {
    /// In-process channel of a [`Cluster`].
    Channel(Sender<(usize, SessionEnvelope)>),
    /// A length-prefixed frame stream over a real socket.
    Stream(Box<dyn std::io::Write + Send>),
}

/// Worker-side handle for replying to the master.
pub struct WorkerCtx {
    worker_id: usize,
    sink: ReplySink,
    metrics: Arc<NetworkMetrics>,
    /// The fault a [`Faulty`](crate::Faulty) wrapper armed for the message
    /// being handled; only [`FaultAction::DropReply`] and
    /// [`FaultAction::Straggle`] act on its replies.
    pub(crate) reply_fault: FaultAction,
    current_query: QueryId,
}

impl WorkerCtx {
    /// A context whose replies go down a real byte stream instead of an
    /// in-process channel — the worker side of [`crate::transport`].
    /// Faults apply here exactly as in a [`Cluster`]: wrap the logic in a
    /// [`Faulty`](crate::Faulty) and its drops and stragglers act on the
    /// stream, while a crash ends [`serve_worker`](crate::serve_worker)
    /// and closes the connection.
    ///
    /// Public so alternative transports outside this crate — notably the
    /// schedule-space model checker, which runs worker logic inline and
    /// captures its frames in memory — can drive a [`WorkerLogic`]
    /// through the same context the socket transport uses.
    pub fn for_stream(
        worker_id: usize,
        metrics: Arc<NetworkMetrics>,
        writer: Box<dyn std::io::Write + Send>,
    ) -> WorkerCtx {
        WorkerCtx {
            worker_id,
            sink: ReplySink::Stream(writer),
            metrics,
            reply_fault: FaultAction::Deliver,
            current_query: QueryId(0),
        }
    }

    /// Re-tags the context with the session of the message about to be
    /// handled, so replies are framed correctly. Public for the same
    /// reason as [`WorkerCtx::for_stream`]: an external transport that
    /// dispatches messages to worker logic itself must tag the context
    /// before each [`WorkerLogic::on_message`] call.
    pub fn set_current_query(&mut self, query: QueryId) {
        self.current_query = query;
    }

    /// This worker's node id (0-based).
    pub fn worker_id(&self) -> usize {
        self.worker_id
    }

    /// The session of the message currently being handled; replies are
    /// framed with it.
    pub fn query(&self) -> QueryId {
        self.current_query
    }

    /// The cluster-wide shared counters. Worker logic uses this to record
    /// events that are worker-side by nature — e.g. injected faults —
    /// into the same ledger the master reads.
    pub fn metrics(&self) -> &NetworkMetrics {
        &self.metrics
    }

    /// Sends a serialized reply to the master, framed with the current
    /// message's [`QueryId`]. The framed size is counted.
    ///
    /// Under fault injection the reply may be silently dropped (the
    /// network ate it) or delayed worker-side (straggler); both are
    /// tallied here, where a reply actually exists — a drop/straggle fault
    /// armed on a message that produces no reply is a no-op and is
    /// deliberately not counted.
    pub fn send_to_master(&mut self, payload: Bytes) {
        match self.reply_fault {
            FaultAction::DropReply => {
                self.metrics.record_drop(self.worker_id);
                return; // lost in the network
            }
            FaultAction::Straggle(d) => {
                self.metrics.record_straggle(self.worker_id);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "fault injection: a reply armed with FaultAction::Straggle by the \
                              Faulty decorator is held back this long"
                )]
                std::thread::sleep(d);
            }
            _ => {}
        }
        match &mut self.sink {
            ReplySink::Channel(to_master) => {
                // Framed length: payload plus the 8-byte session-id header
                // (see [`SessionEnvelope`] for the canonical layout). The
                // header is carried pre-parsed through the in-process
                // channel — the way a real transport parses it once at the
                // socket — so the hot path pays no serialization copy,
                // while the byte counters see the full on-the-wire size.
                let framed_len = payload.len() + SessionEnvelope::HEADER_BYTES;
                self.metrics.record_reply(self.worker_id, framed_len as u64);
                // The channel being closed means the master is gone
                // (cluster drop mid-protocol); the reply is moot then.
                let _ = to_master.send((
                    self.worker_id,
                    SessionEnvelope {
                        query: self.current_query,
                        payload,
                    },
                ));
            }
            ReplySink::Stream(writer) => {
                // Real socket: write the length-prefixed frame and count
                // the bytes that actually hit the wire. A write failure
                // means the master is gone; like the closed-channel case
                // above, the reply is moot then.
                let frame = crate::transport::frame_with_prefix(self.current_query, &payload);
                use std::io::Write;
                if writer
                    .write_all(&frame)
                    .and_then(|()| writer.flush())
                    .is_ok()
                {
                    self.metrics
                        .record_reply(self.worker_id, frame.len() as u64);
                }
            }
        }
    }
}

/// Per-node protocol logic, supplied by the algorithm crates.
///
/// The logic is **session-aware**: each message carries the [`QueryId`] of
/// the optimization session it belongs to, and one worker may hold private
/// state for many in-flight sessions at once (keyed by the id), serving an
/// unbounded stream of concurrent queries over its lifetime.
pub trait WorkerLogic: Send + 'static {
    /// Handles one message from the master, owned by session `query`.
    fn on_message(&mut self, query: QueryId, payload: Bytes, ctx: &mut WorkerCtx) -> Control;
}

/// Blanket implementation so simple protocols can be closures.
impl<F> WorkerLogic for F
where
    F: FnMut(QueryId, Bytes, &mut WorkerCtx) -> Control + Send + 'static,
{
    fn on_message(&mut self, query: QueryId, payload: Bytes, ctx: &mut WorkerCtx) -> Control {
        self(query, payload, ctx)
    }
}

/// Master-side parking lot for replies received on behalf of sessions
/// other than the one a session-routed receive asked for. A `Mutex`
/// (never contended — the master protocol is single-threaded) keeps the
/// receive methods on `&self`; a `BTreeMap` keeps untargeted draining
/// deterministic (lowest session id first). Shared by [`Cluster`], the
/// socket transport, and (via its public surface) external transports
/// such as the schedule-space model checker, so all demultiplex
/// identically.
#[derive(Default)]
pub struct ReplyPark(Mutex<BTreeMap<u64, VecDeque<(usize, Bytes)>>>);

impl ReplyPark {
    /// An empty park.
    pub fn new() -> ReplyPark {
        ReplyPark::default()
    }

    /// Parks one reply for session `query` until its owner asks.
    pub fn park(&self, query: QueryId, worker: usize, payload: Bytes) {
        // Recover from poisoning: the map holds plain owned data, so a
        // panicked holder cannot have left it logically inconsistent.
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .entry(query.0)
            .or_default()
            .push_back((worker, payload));
    }

    /// The oldest parked reply owned by `query`, if any.
    pub fn take(&self, query: QueryId) -> Option<(usize, Bytes)> {
        let mut parked = self
            .0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let queue = parked.get_mut(&query.0)?;
        let reply = queue.pop_front();
        if queue.is_empty() {
            parked.remove(&query.0);
        }
        reply
    }

    /// Visits every parked reply in deterministic order (ascending
    /// session id, FIFO within a session) without consuming anything.
    /// External transports — the schedule-space model checker — fold the
    /// park into a state fingerprint with this.
    pub fn for_each(&self, mut f: impl FnMut(QueryId, usize, &Bytes)) {
        let parked = self
            .0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        for (&qid, queue) in parked.iter() {
            for (worker, payload) in queue {
                f(QueryId(qid), *worker, payload);
            }
        }
    }

    /// The oldest parked reply of the lowest-numbered session, if any.
    pub fn take_any(&self) -> Option<(usize, QueryId, Bytes)> {
        let mut parked = self
            .0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let (&qid, queue) = parked.iter_mut().next()?;
        let (worker, payload) = queue.pop_front()?;
        if queue.is_empty() {
            parked.remove(&qid);
        }
        Some((worker, QueryId(qid), payload))
    }
}

/// How long a receive may wait for the channel.
#[derive(Clone, Copy)]
pub(crate) enum Wait {
    /// Until a reply arrives or every sender is gone.
    Forever,
    /// At most this long in total (zero still polls the channel once).
    AtMost(Duration),
    /// Not at all: only what is already queued.
    Poll,
}

/// The master side of a message plane's reply path, held by both
/// [`Cluster`] and the socket transport: the channel the workers (or the
/// socket reader threads) feed, plus the [`ReplyPark`] that demultiplexes
/// it by session. Every `recv*` method of either plane is one
/// [`Inbox::pump`] call.
pub(crate) struct Inbox {
    rx: Receiver<(usize, SessionEnvelope)>,
    parked: ReplyPark,
}

impl Inbox {
    pub(crate) fn new(rx: Receiver<(usize, SessionEnvelope)>) -> Inbox {
        Inbox {
            rx,
            parked: ReplyPark::new(),
        }
    }

    /// The one receive loop. Parked replies are served first (the oldest
    /// owned by `want`, or with no `want` the oldest of the lowest
    /// session). Otherwise replies are taken off the channel until one is
    /// owned by `want` — any reply is, when `want` is `None` — and the
    /// others are parked for their owners. The channel closing is
    /// [`ClusterError::AllWorkersLost`]; an empty poll or a spent
    /// [`Wait::AtMost`] is [`ClusterError::Timeout`].
    pub(crate) fn pump(
        &self,
        wait: Wait,
        want: Option<QueryId>,
    ) -> Result<(usize, QueryId, Bytes), ClusterError> {
        let parked = match want {
            Some(query) => self.parked.take(query).map(|(w, p)| (w, query, p)),
            None => self.parked.take_any(),
        };
        if let Some(reply) = parked {
            return Ok(reply);
        }
        let (timeout, deadline) = match wait {
            #[expect(
                clippy::disallowed_methods,
                reason = "receive deadline: expiry returns a typed timeout error so the caller \
                          re-examines evidence; it never changes a result"
            )]
            Wait::AtMost(timeout) => (timeout, Some(Instant::now() + timeout)),
            Wait::Forever | Wait::Poll => (Duration::ZERO, None),
        };
        let mut remaining = timeout;
        loop {
            let received = match wait {
                Wait::Forever => self.rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                Wait::AtMost(_) => self.rx.recv_timeout(remaining),
                Wait::Poll => self.rx.try_recv().map_err(|e| match e {
                    TryRecvError::Empty => RecvTimeoutError::Timeout,
                    TryRecvError::Disconnected => RecvTimeoutError::Disconnected,
                }),
            };
            let (worker, env) = match received {
                Ok(delivery) => delivery,
                Err(RecvTimeoutError::Timeout) => {
                    return Err(ClusterError::Timeout { waited: timeout })
                }
                Err(RecvTimeoutError::Disconnected) => return Err(ClusterError::AllWorkersLost),
            };
            if want.is_none_or(|query| query == env.query) {
                return Ok((worker, env.query, env.payload));
            }
            self.parked.park(env.query, worker, env.payload);
            #[expect(
                clippy::disallowed_methods,
                reason = "receive deadline arithmetic (the audited timeout above)"
            )]
            if let Some(deadline) = deadline {
                remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(ClusterError::Timeout { waited: timeout });
                }
            }
        }
    }
}

enum ToWorker {
    Message(SessionEnvelope),
    Shutdown,
}

/// An in-process shared-nothing cluster: `m` worker threads plus the
/// master-side API on the calling thread. One cluster is long-lived and
/// serves many concurrent sessions; see the module docs.
pub struct Cluster {
    to_workers: Vec<Sender<ToWorker>>,
    inbox: Inbox,
    handles: Vec<JoinHandle<()>>,
    metrics: Arc<NetworkMetrics>,
}

impl Cluster {
    /// Spawns `num_workers` worker threads. `factory(i)` builds the logic
    /// value for worker `i`; it is moved into that worker's thread, so
    /// workers cannot share state. Wrap the logic in a
    /// [`Faulty`](crate::Faulty) to inject faults. The [`LatencyModel`]
    /// argument is ignored: this plane simulates no latency. It stays
    /// until ROADMAP 15(d).
    ///
    /// Fails with [`ClusterError::SpawnFailed`] if the OS refuses a
    /// thread; workers spawned up to that point are shut down and joined.
    pub fn spawn<L, F>(
        num_workers: usize,
        _latency: LatencyModel,
        mut factory: F,
    ) -> Result<Cluster, ClusterError>
    where
        L: WorkerLogic,
        F: FnMut(usize) -> L,
    {
        if num_workers == 0 {
            return Err(ClusterError::SpawnFailed { worker: 0 });
        }
        let (master_tx, from_workers) = unbounded::<(usize, SessionEnvelope)>();
        // Built up in place: an early return drops the partial cluster, and
        // `Drop` is the teardown — no orphan threads.
        let mut cluster = Cluster {
            to_workers: Vec::with_capacity(num_workers),
            inbox: Inbox::new(from_workers),
            handles: Vec::with_capacity(num_workers),
            metrics: Arc::new(NetworkMetrics::with_workers(num_workers)),
        };
        for id in 0..num_workers {
            let (tx, rx) = unbounded::<ToWorker>();
            cluster.to_workers.push(tx);
            let logic = factory(id);
            let ctx = WorkerCtx {
                worker_id: id,
                sink: ReplySink::Channel(master_tx.clone()),
                metrics: Arc::clone(&cluster.metrics),
                reply_fault: FaultAction::Deliver,
                current_query: QueryId(0),
            };
            let handle = std::thread::Builder::new()
                .name(format!("mpq-worker-{id}"))
                .spawn(move || worker_loop(rx, logic, ctx))
                .map_err(|_| ClusterError::SpawnFailed { worker: id })?;
            cluster.handles.push(handle);
        }
        Ok(cluster)
    }

    /// Shuts every worker down and joins the threads.
    pub fn shutdown(mut self) {
        Transport::shutdown(&mut self);
    }
}

/// The in-process plane behind the [`Transport`] every session scheduler
/// is written against: each method is a channel operation or one
/// `Inbox::pump` call.
impl Transport for Cluster {
    fn num_workers(&self) -> usize {
        self.to_workers.len()
    }

    fn metrics(&self) -> &NetworkMetrics {
        &self.metrics
    }

    /// The thread is still running: the in-process liveness probe.
    fn is_worker_alive(&self, id: usize) -> bool {
        !self.handles[id].is_finished()
    }

    fn send(
        &self,
        id: usize,
        query: QueryId,
        payload: Bytes,
        _is_assignment: bool,
    ) -> Result<(), ClusterError> {
        let framed_len = payload.len() + SessionEnvelope::HEADER_BYTES;
        self.to_workers[id]
            .send(ToWorker::Message(SessionEnvelope { query, payload }))
            .map_err(|_| ClusterError::WorkerLost { worker: id })?;
        self.metrics.record_to_worker(framed_len as u64);
        Ok(())
    }

    fn recv(&self) -> Result<(usize, QueryId, Bytes), ClusterError> {
        self.inbox.pump(Wait::Forever, None)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(usize, QueryId, Bytes), ClusterError> {
        self.inbox.pump(Wait::AtMost(timeout), None)
    }

    fn try_recv(&self) -> Result<(usize, QueryId, Bytes), ClusterError> {
        self.inbox.pump(Wait::Poll, None)
    }

    fn recv_for(&self, query: QueryId) -> Result<(usize, Bytes), ClusterError> {
        let (worker, _, payload) = self.inbox.pump(Wait::Forever, Some(query))?;
        Ok((worker, payload))
    }

    fn recv_for_timeout(
        &self,
        query: QueryId,
        timeout: Duration,
    ) -> Result<(usize, Bytes), ClusterError> {
        let (worker, _, payload) = self.inbox.pump(Wait::AtMost(timeout), Some(query))?;
        Ok((worker, payload))
    }

    /// Sends every worker a shutdown order and joins the threads. The
    /// handle list is drained, so a second call (e.g. `shutdown` followed
    /// by `Drop`) is a no-op.
    fn shutdown(&mut self) {
        for tx in &self.to_workers {
            let _ = tx.send(ToWorker::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The per-worker thread body: deliver messages to the logic until it
/// asks to stop or the master orders a shutdown. Ending the thread drops
/// the inbox receiver, so later master sends fail like sends to a dead
/// node.
fn worker_loop<L: WorkerLogic>(rx: Receiver<ToWorker>, mut logic: L, mut ctx: WorkerCtx) {
    while let Ok(ToWorker::Message(env)) = rx.recv() {
        ctx.current_query = env.query;
        if logic.on_message(env.query, env.payload, &mut ctx) == Control::Shutdown {
            break;
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        Transport::shutdown(self);
    }
}

#[cfg(test)]
mod tests {
    #![allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::disallowed_macros,
        clippy::disallowed_methods
    )]
    use super::*;
    use std::collections::HashMap;

    const Q0: QueryId = QueryId(0);

    /// Echo worker: replies with its payload (framed with the session id
    /// of the message it answers).
    fn echo() -> impl WorkerLogic {
        |_query: QueryId, payload: Bytes, ctx: &mut WorkerCtx| {
            ctx.send_to_master(payload);
            Control::Continue
        }
    }

    fn recv_all(cluster: &Cluster, n: usize) -> Vec<(usize, QueryId, Bytes)> {
        (0..n).map(|_| cluster.recv().unwrap()).collect()
    }

    /// As an empty `SocketTransport::connect` list: typed, not an assert.
    #[test]
    fn a_cluster_of_no_workers_is_a_typed_spawn_failure() {
        assert!(matches!(
            Cluster::spawn(0, LatencyModel::ZERO, |_| echo()),
            Err(ClusterError::SpawnFailed { worker: 0 })
        ));
    }

    #[test]
    fn roundtrip_through_one_worker() {
        let cluster = Cluster::spawn(1, LatencyModel::ZERO, |_| echo()).unwrap();
        cluster
            .send(0, QueryId(9), Bytes::from_static(b"hello"), true)
            .unwrap();
        let (id, query, reply) = cluster.recv().unwrap();
        assert_eq!(id, 0);
        assert_eq!(query, QueryId(9), "the reply echoes the session tag");
        assert_eq!(&reply[..], b"hello");
        cluster.shutdown();
    }

    #[test]
    fn bytes_are_counted_both_ways() {
        let cluster = Cluster::spawn(2, LatencyModel::ZERO, |_| echo()).unwrap();
        cluster
            .send(0, Q0, Bytes::from_static(b"abcd"), false)
            .unwrap();
        cluster
            .send(1, Q0, Bytes::from_static(b"xy"), false)
            .unwrap();
        let _ = recv_all(&cluster, 2);
        let s = cluster.metrics().snapshot();
        // Payload bytes plus the 8-byte session envelope per message.
        assert_eq!(s.master_to_worker_bytes, 6 + 16);
        assert_eq!(s.worker_to_master_bytes, 6 + 16);
        assert_eq!(s.messages, 4);
        cluster.shutdown();
    }

    #[test]
    fn workers_have_private_state() {
        // Each worker counts its own messages; counts must not mix.
        let cluster = Cluster::spawn(2, LatencyModel::ZERO, |_| {
            let mut count = 0u64;
            move |_query: QueryId, _payload: Bytes, ctx: &mut WorkerCtx| {
                count += 1;
                ctx.send_to_master(Bytes::copy_from_slice(&count.to_le_bytes()));
                Control::Continue
            }
        })
        .unwrap();
        cluster.send(0, Q0, Bytes::from_static(b""), false).unwrap();
        cluster.send(0, Q0, Bytes::from_static(b""), false).unwrap();
        cluster.send(1, Q0, Bytes::from_static(b""), false).unwrap();
        let replies = recv_all(&cluster, 3);
        let count_of = |id: usize| {
            replies
                .iter()
                .filter(|(i, _, _)| *i == id)
                .map(|(_, _, b)| u64::from_le_bytes(b[..8].try_into().unwrap()))
                .max()
                .unwrap()
        };
        assert_eq!(count_of(0), 2);
        assert_eq!(count_of(1), 1);
        cluster.shutdown();
    }

    #[test]
    fn workers_can_hold_per_session_state() {
        // One worker, two interleaved sessions: per-query counters must
        // not bleed across sessions.
        let cluster = Cluster::spawn(1, LatencyModel::ZERO, |_| {
            let mut counts: HashMap<u64, u64> = HashMap::new();
            move |query: QueryId, _payload: Bytes, ctx: &mut WorkerCtx| {
                let c = counts.entry(query.0).or_insert(0);
                *c += 1;
                ctx.send_to_master(Bytes::copy_from_slice(&c.to_le_bytes()));
                Control::Continue
            }
        })
        .unwrap();
        for q in [1u64, 2, 1, 1, 2] {
            cluster
                .send(0, QueryId(q), Bytes::from_static(b""), false)
                .unwrap();
        }
        let replies = recv_all(&cluster, 5);
        let counts: Vec<(u64, u64)> = replies
            .iter()
            .map(|(_, q, b)| (q.0, u64::from_le_bytes(b[..8].try_into().unwrap())))
            .collect();
        assert_eq!(counts, vec![(1, 1), (2, 1), (1, 2), (1, 3), (2, 2)]);
        cluster.shutdown();
    }

    #[test]
    fn recv_for_routes_replies_to_the_owning_session() {
        let cluster = Cluster::spawn(1, LatencyModel::ZERO, |_| echo()).unwrap();
        // Session 2's message goes out first, so its reply arrives first —
        // but session 1's recv_for must get session 1's reply, with the
        // other parked for its owner.
        cluster
            .send(0, QueryId(2), Bytes::from_static(b"two"), false)
            .unwrap();
        cluster
            .send(0, QueryId(1), Bytes::from_static(b"one"), false)
            .unwrap();
        let (_, reply) = cluster.recv_for(QueryId(1)).unwrap();
        assert_eq!(&reply[..], b"one");
        let (_, reply) = cluster.recv_for(QueryId(2)).unwrap();
        assert_eq!(&reply[..], b"two", "the parked reply is delivered");
        cluster.shutdown();
    }

    #[test]
    fn recv_for_timeout_parks_other_sessions_replies() {
        let cluster = Cluster::spawn(1, LatencyModel::ZERO, |_| echo()).unwrap();
        cluster
            .send(0, QueryId(5), Bytes::from_static(b"x"), false)
            .unwrap();
        // Session 9 never gets a reply: timeout, while session 5's reply
        // is parked, not lost.
        assert!(matches!(
            cluster.recv_for_timeout(QueryId(9), Duration::from_millis(30)),
            Err(ClusterError::Timeout { .. })
        ));
        let (_, reply) = cluster
            .recv_for_timeout(QueryId(5), Duration::from_millis(100))
            .unwrap();
        assert_eq!(&reply[..], b"x");
        cluster.shutdown();
    }

    #[test]
    fn parked_replies_surface_through_plain_recv() {
        let cluster = Cluster::spawn(1, LatencyModel::ZERO, |_| echo()).unwrap();
        cluster
            .send(0, QueryId(3), Bytes::from_static(b"parked"), false)
            .unwrap();
        // Park session 3's reply by asking for a session that stays
        // silent...
        assert!(cluster
            .recv_for_timeout(QueryId(4), Duration::from_millis(30))
            .is_err());
        // ...then an untargeted recv still sees it (nothing is lost).
        let (_, query, reply) = cluster.recv().unwrap();
        assert_eq!(query, QueryId(3));
        assert_eq!(&reply[..], b"parked");
        cluster.shutdown();
    }

    #[test]
    fn worker_can_request_shutdown() {
        let cluster = Cluster::spawn(1, LatencyModel::ZERO, |_| {
            |_query: QueryId, _payload: Bytes, ctx: &mut WorkerCtx| {
                ctx.send_to_master(Bytes::from_static(b"bye"));
                Control::Shutdown
            }
        })
        .unwrap();
        cluster.send(0, Q0, Bytes::from_static(b""), false).unwrap();
        let (_, _, reply) = cluster.recv().unwrap();
        assert_eq!(&reply[..], b"bye");
        cluster.shutdown();
    }

    #[test]
    fn drop_joins_threads() {
        let cluster = Cluster::spawn(3, LatencyModel::ZERO, |_| echo()).unwrap();
        drop(cluster); // must not hang or panic
    }

    #[test]
    fn recv_timeout_reports_timeout() {
        // Worker alive but silent (no message sent to it).
        let cluster = Cluster::spawn(1, LatencyModel::ZERO, |_| echo()).unwrap();
        let waited = Duration::from_millis(5);
        assert_eq!(
            cluster.recv_timeout(waited),
            Err(ClusterError::Timeout { waited })
        );
        assert!(cluster.is_worker_alive(0));
        cluster.shutdown();
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let cluster = Cluster::spawn(1, LatencyModel::ZERO, |_| echo()).unwrap();
        assert!(matches!(
            cluster.try_recv(),
            Err(ClusterError::Timeout { .. })
        ));
        cluster
            .send(0, Q0, Bytes::from_static(b"now"), false)
            .unwrap();
        // Wait for the echo to land, then try_recv sees it.
        let mut got = None;
        for _ in 0..200 {
            match cluster.try_recv() {
                Ok(r) => {
                    got = Some(r);
                    break;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        let (_, _, reply) = got.expect("echo arrives");
        assert_eq!(&reply[..], b"now");
        cluster.shutdown();
    }
}
