//! The controllable message plane: a [`Transport`] whose every
//! nondeterministic event is a recorded, replayable *choice*.
//!
//! Worker nodes are hosted inline — real [`WorkerLogic`] driven through
//! the same [`WorkerCtx`] the socket transport uses, with replies
//! captured in memory and re-framed through [`FrameBuffer`] — so the
//! exact production code paths run, just without threads or a clock.
//! Master sends enqueue into per-worker FIFO inboxes (the per-channel
//! FIFO the real planes guarantee); worker replies enqueue into
//! per-worker FIFO outboxes. At every receive the controller computes
//! the set of **enabled actions** and consults its schedule:
//!
//! * `Step(w)` — worker `w` handles the head of its inbox (replies land
//!   in its outbox, not yet visible to the master);
//! * `Deliver(w)` — the head of `w`'s outbox reaches the master (parked
//!   via the shared [`ReplyPark`] if a session-routed receive asked for
//!   a different session);
//! * `Timeout` — "nothing has arrived yet", budgeted per scenario so
//!   fault-free configurations explore pure delivery orders;
//! * `Drop(w)` / `Duplicate(w)` / `Crash(w)` — budgeted fault
//!   injections at the head of `w`'s reply queue / on node `w`.
//!
//! A schedule is the list of choice indices taken; replaying the list
//! reproduces the interleaving bit-for-bit.

use crate::{fnv1a, fnv1a_u64};
use bytes::Bytes;
use mpq_cluster::{
    ClusterError, FrameBuffer, NetworkMetrics, QueryId, ReplyPark, SessionEnvelope, Transport,
    WorkerCtx, WorkerLogic,
};
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Consecutive forced timeouts (no other action enabled, transport state
/// unchanged) tolerated before the run is declared stalled. Generous
/// enough for every strike budget a model scenario configures, so a
/// service grinding toward a *typed* failure is never cut short.
const FORCED_SPIN_CAP: u32 = 32;

/// Budgeted fault injections for one schedule exploration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultBudget {
    /// Replies the controller may lose.
    pub drops: u32,
    /// Replies the controller may duplicate.
    pub duplicates: u32,
    /// Workers the controller may kill.
    pub crashes: u32,
    /// `Timeout` choices the controller may take while productive
    /// actions are still enabled (forced timeouts — nothing else enabled
    /// — are always available on timeout-capable receives and are not
    /// budgeted).
    pub timeouts: u32,
}

/// One controller action, compactly describable for trace printing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActionDesc {
    /// Worker `w` handles its next queued message.
    Step(usize),
    /// The head of worker `w`'s reply queue reaches the master.
    Deliver(usize),
    /// The pending receive reports a timeout.
    Timeout,
    /// The head of worker `w`'s reply queue is lost.
    Drop(usize),
    /// The head of worker `w`'s reply queue is duplicated in flight.
    Duplicate(usize),
    /// Worker `w` dies; its queued tasks die with it, replies already on
    /// the wire survive.
    Crash(usize),
}

impl fmt::Display for ActionDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActionDesc::Step(w) => write!(f, "step(w{w})"),
            ActionDesc::Deliver(w) => write!(f, "deliver(w{w})"),
            ActionDesc::Timeout => write!(f, "timeout"),
            ActionDesc::Drop(w) => write!(f, "drop(w{w})"),
            ActionDesc::Duplicate(w) => write!(f, "duplicate(w{w})"),
            ActionDesc::Crash(w) => write!(f, "crash(w{w})"),
        }
    }
}

/// One recorded decision point.
#[derive(Clone, Copy, Debug)]
pub struct Decision {
    /// How many actions were enabled here (the branching factor).
    pub enabled: usize,
    /// The index chosen (scripted within the replay prefix, 0 beyond it).
    pub chosen: usize,
    /// The action that index denoted.
    pub action: ActionDesc,
    /// Global-state fingerprint *before* the action: transport state
    /// folded with the master-visible event history. Deterministic
    /// master + deterministic driver means equal signatures denote equal
    /// global states, which is what lets the explorer deduplicate.
    pub signature: u64,
}

/// What kind of receive is pending (folded into the state signature —
/// the same queues under a different receive mode are a different
/// decision context).
#[derive(Clone, Copy, PartialEq, Eq)]
enum RecvKind {
    Blocking,
    Timeout,
    Try,
}

struct WorkerNode {
    logic: Box<dyn WorkerLogic>,
    ctx: WorkerCtx,
    capture: Arc<Mutex<Vec<u8>>>,
    frames: FrameBuffer,
    inbox: VecDeque<(QueryId, Bytes)>,
    outbox: VecDeque<(QueryId, Bytes)>,
    alive: bool,
}

struct Inner {
    workers: Vec<WorkerNode>,
    park: ReplyPark,
    budget: FaultBudget,
    /// Replay prefix: scripted choice indices, consumed in order.
    script: Vec<usize>,
    cursor: usize,
    log: Vec<Decision>,
    /// Running FNV over master-visible events (deliveries, timeouts,
    /// send failures). Together with the transport state this pins down
    /// the global state — the master and the driver are deterministic
    /// functions of what they have observed.
    history: u64,
    /// Worker id of the immediately preceding `Step`, for the
    /// partial-order reduction over commuting worker steps.
    last_step: Option<usize>,
    /// Enable the partial-order reduction (off only for the soundness
    /// self-test that compares reduced and unreduced state coverage).
    por: bool,
    forced_spins: u32,
    last_forced_sig: u64,
    stalled: bool,
    internal_error: Option<String>,
    // Conservation ledger.
    replies_harvested: u64,
    dups_injected: u64,
    drops_injected: u64,
    delivered: u64,
}

/// In-memory writer capturing a worker's framed replies.
struct CaptureWriter(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for CaptureWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        lock(&self.0).extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Poison-tolerant lock: every guarded structure here holds plain owned
/// data, so a panicked holder cannot have left it logically torn.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The controllable transport. Construct with [`ModelTransport::new`],
/// hand the transport to a service (`MpqService::with_transport`,
/// `OptimizerService::with_transport`) and
/// keep the [`ModelHandle`] to read the recorded schedule afterwards.
pub struct ModelTransport {
    inner: Arc<Mutex<Inner>>,
    metrics: Arc<NetworkMetrics>,
}

/// The controller's view of a [`ModelTransport`] after (or during) a
/// run: the decision log, stall flag, and conservation ledger.
#[derive(Clone)]
pub struct ModelHandle {
    inner: Arc<Mutex<Inner>>,
    metrics: Arc<NetworkMetrics>,
}

impl ModelTransport {
    /// A transport hosting `logics` as its worker nodes, following
    /// `script` as its replay prefix and choosing action 0 beyond it.
    pub fn new(
        logics: Vec<Box<dyn WorkerLogic>>,
        budget: FaultBudget,
        script: Vec<usize>,
    ) -> (ModelTransport, ModelHandle) {
        let metrics = Arc::new(NetworkMetrics::with_workers(logics.len()));
        let workers = logics
            .into_iter()
            .enumerate()
            .map(|(id, logic)| {
                let capture: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
                let ctx = WorkerCtx::for_stream(
                    id,
                    Arc::clone(&metrics),
                    Box::new(CaptureWriter(Arc::clone(&capture))),
                );
                WorkerNode {
                    logic,
                    ctx,
                    capture,
                    frames: FrameBuffer::new(),
                    inbox: VecDeque::new(),
                    outbox: VecDeque::new(),
                    alive: true,
                }
            })
            .collect();
        let inner = Arc::new(Mutex::new(Inner {
            workers,
            park: ReplyPark::new(),
            budget,
            script,
            cursor: 0,
            log: Vec::new(),
            history: 0,
            last_step: None,
            por: true,
            forced_spins: 0,
            last_forced_sig: 0,
            stalled: false,
            internal_error: None,
            replies_harvested: 0,
            dups_injected: 0,
            drops_injected: 0,
            delivered: 0,
        }));
        let handle = ModelHandle {
            inner: Arc::clone(&inner),
            metrics: Arc::clone(&metrics),
        };
        (ModelTransport { inner, metrics }, handle)
    }

    /// Disables the partial-order reduction (soundness self-tests only).
    pub fn disable_por(&self) {
        lock(&self.inner).por = false;
    }
}

impl ModelHandle {
    /// The recorded decision log so far.
    pub fn decisions(&self) -> Vec<Decision> {
        lock(&self.inner).log.clone()
    }

    /// The choice indices actually taken — the replayable schedule.
    pub fn schedule(&self) -> Vec<usize> {
        lock(&self.inner).log.iter().map(|d| d.chosen).collect()
    }

    /// Whether the run stalled: the service blocked on a receive that no
    /// reachable event can ever satisfy (a deadlock/livelock — the
    /// transport breaks the hang with a typed error so the run can end,
    /// and this flag records the violation).
    pub fn stalled(&self) -> bool {
        lock(&self.inner).stalled
    }

    /// An internal model error (a captured frame that failed to decode),
    /// if any — always a checker bug, surfaced instead of panicking.
    pub fn internal_error(&self) -> Option<String> {
        lock(&self.inner).internal_error.clone()
    }

    /// The shared network counters.
    pub fn metrics(&self) -> &NetworkMetrics {
        &self.metrics
    }

    /// Verifies the reply-conservation ledger: every harvested or
    /// duplicated reply was delivered, dropped by the controller, or is
    /// still sitting in an outbox or the park. A mismatch means the
    /// transport lost or invented a message.
    pub fn check_conservation(&self) -> Result<(), String> {
        let inner = lock(&self.inner);
        let mut remaining = 0u64;
        for node in &inner.workers {
            remaining += node.outbox.len() as u64;
        }
        let mut parked = 0u64;
        inner.park.for_each(|_, _, _| parked += 1);
        let produced = inner.replies_harvested + inner.dups_injected;
        let accounted = inner.delivered + inner.drops_injected + remaining + parked;
        if produced == accounted {
            Ok(())
        } else {
            Err(format!(
                "reply conservation broken: produced {produced} (harvested \
                 {} + duplicated {}) but accounted {accounted} (delivered {} \
                 + dropped {} + queued {remaining} + parked {parked})",
                inner.replies_harvested, inner.dups_injected, inner.delivered, inner.drops_injected,
            ))
        }
    }
}

impl Inner {
    /// Fingerprint of the transport-local state (no history).
    ///
    /// Master→worker task payloads are hashed in full (they are
    /// bit-deterministic). Worker replies are hashed as `(qid, len)`
    /// only: they embed wall-clock timing fields, and by the determinism
    /// argument in the crate docs a reply's content is a function of the
    /// master-visible event sequence anyway — identity plus the
    /// fixed-width codec's length loses nothing, while hashing the
    /// timing bytes would make equal states fingerprint apart and bloat
    /// the sweep nondeterministically.
    fn transport_sig(&self) -> u64 {
        let mut h = 0u64;
        for node in &self.workers {
            h = fnv1a_u64(h, node.alive as u64);
            h = fnv1a_u64(h, node.inbox.len() as u64);
            for (qid, payload) in &node.inbox {
                h = fnv1a_u64(h, qid.0);
                h = fnv1a(h, payload);
            }
            h = fnv1a_u64(h, node.outbox.len() as u64);
            for (qid, payload) in &node.outbox {
                h = fnv1a_u64(h, qid.0);
                h = fnv1a_u64(h, payload.len() as u64);
            }
        }
        self.park.for_each(|qid, worker, payload| {
            h = fnv1a_u64(h, qid.0);
            h = fnv1a_u64(h, worker as u64);
            h = fnv1a_u64(h, payload.len() as u64);
        });
        h = fnv1a_u64(h, self.budget.drops as u64);
        h = fnv1a_u64(h, self.budget.duplicates as u64);
        h = fnv1a_u64(h, self.budget.crashes as u64);
        h = fnv1a_u64(h, self.budget.timeouts as u64);
        h
    }

    /// The enabled actions at this decision point, in canonical order:
    /// productive actions first (so the default 0-choice always makes
    /// progress and every run terminates), faults last.
    fn enabled(&self, kind: RecvKind) -> Vec<ActionDesc> {
        let mut out = Vec::new();
        let mut suppressed = Vec::new();
        for (w, node) in self.workers.iter().enumerate() {
            if node.alive && !node.inbox.is_empty() {
                // Partial-order reduction: consecutive steps of distinct
                // workers commute (each touches only its own node state,
                // and only the master — whose sends reset `last_step` —
                // refills inboxes), so of the two orders only the
                // ascending one is explored. Sound for state coverage:
                // the suppressed order reaches the identical state.
                if self.por {
                    if let Some(prev) = self.last_step {
                        if w < prev {
                            suppressed.push(ActionDesc::Step(w));
                            continue;
                        }
                    }
                }
                out.push(ActionDesc::Step(w));
            }
        }
        for (w, node) in self.workers.iter().enumerate() {
            if !node.outbox.is_empty() {
                out.push(ActionDesc::Deliver(w));
            }
        }
        if kind != RecvKind::Blocking && self.budget.timeouts > 0 {
            out.push(ActionDesc::Timeout);
        }
        if self.budget.drops > 0 {
            for (w, node) in self.workers.iter().enumerate() {
                if !node.outbox.is_empty() {
                    out.push(ActionDesc::Drop(w));
                }
            }
        }
        if self.budget.duplicates > 0 {
            for (w, node) in self.workers.iter().enumerate() {
                if !node.outbox.is_empty() {
                    out.push(ActionDesc::Duplicate(w));
                }
            }
        }
        if self.budget.crashes > 0 {
            for (w, node) in self.workers.iter().enumerate() {
                // A crash only branches the future when the worker holds
                // queued work or an undelivered reply; killing a fully
                // idle node is observable only through later sends, which
                // the crash-of-a-loaded-node schedules already cover.
                if node.alive && !(node.inbox.is_empty() && node.outbox.is_empty()) {
                    out.push(ActionDesc::Crash(w));
                }
            }
        }
        if out.is_empty() {
            // The reduction must never manufacture a stall: when the only
            // enabled actions are suppressed steps (their ascending-order
            // twin is explored elsewhere), this branch still has to be
            // able to proceed.
            return suppressed;
        }
        out
    }

    /// Runs worker `w`'s logic on the head of its inbox and harvests the
    /// frames it wrote into its outbox.
    fn step_worker(&mut self, w: usize) {
        let Some(node) = self.workers.get_mut(w) else {
            return;
        };
        let Some((qid, payload)) = node.inbox.pop_front() else {
            return;
        };
        node.ctx.set_current_query(qid);
        let control = node.logic.on_message(qid, payload, &mut node.ctx);
        let written = std::mem::take(&mut *lock(&node.capture));
        node.frames.push(&written);
        loop {
            match node.frames.next_frame() {
                Ok(Some(SessionEnvelope { query, payload })) => {
                    node.outbox.push_back((query, payload));
                    self.replies_harvested += 1;
                }
                Ok(None) => break,
                Err(e) => {
                    self.internal_error =
                        Some(format!("worker {w} wrote an undecodable frame: {e:?}"));
                    break;
                }
            }
        }
        if control == mpq_cluster::Control::Shutdown {
            node.alive = false;
        }
    }
}

/// The outcome of one pumped decision inside a receive call.
enum Pumped {
    Reply(usize, QueryId, Bytes),
    TimedOut,
    Stalled,
    Continue,
}

impl ModelTransport {
    /// The receive loop every `recv*` method shares: drain the park,
    /// then let the controller act until a reply reaches the master (or
    /// a timeout / stall does).
    fn pump(
        &self,
        kind: RecvKind,
        want: Option<QueryId>,
    ) -> Result<(usize, QueryId, Bytes), ClusterError> {
        loop {
            let mut inner = lock(&self.inner);
            // Parked replies already "arrived": consuming one is not a
            // scheduling choice, exactly as on the real planes.
            match want {
                Some(q) => {
                    if let Some((worker, payload)) = inner.park.take(q) {
                        inner.delivered += 1;
                        inner.history = fold_event(inner.history, 1, worker as u64, q.0, &payload);
                        return Ok((worker, q, payload));
                    }
                }
                None => {
                    if let Some((worker, qid, payload)) = inner.park.take_any() {
                        inner.delivered += 1;
                        inner.history =
                            fold_event(inner.history, 1, worker as u64, qid.0, &payload);
                        return Ok((worker, qid, payload));
                    }
                }
            }
            match Self::pump_once(&mut inner, kind, want) {
                Pumped::Reply(worker, qid, payload) => return Ok((worker, qid, payload)),
                Pumped::TimedOut => {
                    return Err(ClusterError::Timeout {
                        waited: Duration::ZERO,
                    })
                }
                Pumped::Stalled => return Err(ClusterError::AllWorkersLost),
                Pumped::Continue => {}
            }
        }
    }

    /// One decision: compute enabled actions, consult the schedule,
    /// apply.
    fn pump_once(inner: &mut Inner, kind: RecvKind, want: Option<QueryId>) -> Pumped {
        let enabled = inner.enabled(kind);
        if enabled.is_empty() {
            // Nothing can ever happen. A blocking receive would hang
            // forever; a timeout-capable one spins through the service's
            // own evidence passes — give those a bounded number of
            // no-change spins to reach a *typed* end before declaring
            // the schedule stalled.
            let sig = inner.transport_sig();
            if kind == RecvKind::Blocking {
                inner.stalled = true;
                return Pumped::Stalled;
            }
            if sig == inner.last_forced_sig {
                inner.forced_spins += 1;
                if inner.forced_spins > FORCED_SPIN_CAP {
                    inner.stalled = true;
                    return Pumped::Stalled;
                }
            } else {
                inner.last_forced_sig = sig;
                inner.forced_spins = 1;
            }
            inner.history = fold_event(inner.history, 2, 0, 0, &[]);
            return Pumped::TimedOut;
        }
        inner.forced_spins = 0;
        let sig = fnv1a_u64(
            fnv1a_u64(fnv1a_u64(inner.transport_sig(), inner.history), kind as u64),
            want.map(|q| q.0.wrapping_add(1)).unwrap_or(0),
        );
        let chosen = inner
            .script
            .get(inner.cursor)
            .copied()
            .unwrap_or(0)
            .min(enabled.len() - 1);
        inner.cursor += 1;
        let action = enabled[chosen];
        inner.log.push(Decision {
            enabled: enabled.len(),
            chosen,
            action,
            signature: sig,
        });
        match action {
            ActionDesc::Step(w) => {
                inner.step_worker(w);
                inner.last_step = Some(w);
                return Pumped::Continue;
            }
            ActionDesc::Deliver(w) => {
                inner.last_step = None;
                if let Some((qid, payload)) = inner.workers[w].outbox.pop_front() {
                    match want {
                        Some(q) if qid != q => {
                            // Someone else's session: park it for its
                            // owner, exactly as the real demux does.
                            inner.park.park(qid, w, payload);
                            return Pumped::Continue;
                        }
                        _ => {
                            inner.delivered += 1;
                            inner.history = fold_event(inner.history, 1, w as u64, qid.0, &payload);
                            return Pumped::Reply(w, qid, payload);
                        }
                    }
                }
            }
            ActionDesc::Timeout => {
                inner.last_step = None;
                inner.budget.timeouts -= 1;
                inner.history = fold_event(inner.history, 2, 0, 0, &[]);
                return Pumped::TimedOut;
            }
            ActionDesc::Drop(w) => {
                inner.last_step = None;
                if inner.workers[w].outbox.pop_front().is_some() {
                    inner.budget.drops -= 1;
                    inner.drops_injected += 1;
                    inner.workers[w].ctx.metrics().record_drop(w);
                }
            }
            ActionDesc::Duplicate(w) => {
                inner.last_step = None;
                if let Some(head) = inner.workers[w].outbox.front().cloned() {
                    inner.budget.duplicates -= 1;
                    inner.dups_injected += 1;
                    inner.workers[w].outbox.push_back(head);
                }
            }
            ActionDesc::Crash(w) => {
                inner.last_step = None;
                inner.budget.crashes -= 1;
                let node = &mut inner.workers[w];
                node.alive = false;
                // Queued tasks die with the node; replies already handed
                // to the network survive in the outbox.
                node.inbox.clear();
                node.ctx.metrics().record_crash(w);
            }
        }
        Pumped::Continue
    }
}

/// Folds one master-visible event into the history fingerprint. The
/// payload participates as its length only — see
/// [`Inner::transport_sig`] for why that is both sound and necessary.
fn fold_event(history: u64, tag: u64, worker: u64, qid: u64, payload: &[u8]) -> u64 {
    fnv1a_u64(
        fnv1a_u64(fnv1a_u64(fnv1a_u64(history, tag), worker), qid),
        payload.len() as u64,
    )
}

impl Transport for ModelTransport {
    fn num_workers(&self) -> usize {
        lock(&self.inner).workers.len()
    }

    fn metrics(&self) -> &NetworkMetrics {
        &self.metrics
    }

    fn is_worker_alive(&self, id: usize) -> bool {
        lock(&self.inner).workers.get(id).is_some_and(|n| n.alive)
    }

    fn send(
        &self,
        id: usize,
        query: QueryId,
        payload: Bytes,
        _is_assignment: bool,
    ) -> Result<(), ClusterError> {
        let mut inner = lock(&self.inner);
        let Some(node) = inner.workers.get_mut(id) else {
            return Err(ClusterError::WorkerLost { worker: id });
        };
        if !node.alive {
            // A send failure is master-visible: fold it so states that
            // differ only in an observed error stay distinguishable.
            inner.history = fold_event(inner.history, 3, id as u64, query.0, &[]);
            return Err(ClusterError::WorkerLost { worker: id });
        }
        self.metrics
            .record_to_worker((payload.len() + SessionEnvelope::HEADER_BYTES) as u64);
        node.inbox.push_back((query, payload));
        // New master traffic re-opens the step interleavings.
        inner.last_step = None;
        Ok(())
    }

    fn recv(&self) -> Result<(usize, QueryId, Bytes), ClusterError> {
        self.pump(RecvKind::Blocking, None)
    }

    fn recv_timeout(&self, _timeout: Duration) -> Result<(usize, QueryId, Bytes), ClusterError> {
        self.pump(RecvKind::Timeout, None)
    }

    fn try_recv(&self) -> Result<(usize, QueryId, Bytes), ClusterError> {
        self.pump(RecvKind::Try, None)
    }

    fn recv_for(&self, query: QueryId) -> Result<(usize, Bytes), ClusterError> {
        self.pump(RecvKind::Blocking, Some(query))
            .map(|(w, _, payload)| (w, payload))
    }

    fn recv_for_timeout(
        &self,
        query: QueryId,
        _timeout: Duration,
    ) -> Result<(usize, Bytes), ClusterError> {
        self.pump(RecvKind::Timeout, Some(query))
            .map(|(w, _, payload)| (w, payload))
    }

    fn shutdown(&mut self) {
        let mut inner = lock(&self.inner);
        for node in &mut inner.workers {
            node.alive = false;
            node.inbox.clear();
        }
    }
}
