//! The master-side **session lifecycle**, held exactly once.
//!
//! A resident optimizer service is a submit → [`QueryHandle`] → poll/wait
//! multiplexer over one [`Transport`]. Everything about it that does not
//! depend on *what the workers are asked to do* lives here: the one
//! handle type, the [`SessionTable`] (id minting, admission, live
//! sessions, the bounded result park, ordered reaping, exactly-once
//! redemption) and [`SessionService`], the one `submit` / `poll` / `wait`
//! loop under the MPQ master. Engines that finish at
//! submission and have no transport (the facade's single-node backends)
//! use the table directly.
//!
//! A [`Protocol`] supplies only what genuinely differs between masters;
//! the generic code never asks which protocol it is serving.
//!
//! Results are delivered **exactly once** per handle: `poll` on a spent
//! handle is `None`, `wait` on one is [`LifecycleError::UnknownHandle`].
//! In-flight means live sessions only — parked results never count
//! against the admission budget, so parking cannot deadlock admission.

use crate::codec::QueryId;
use crate::metrics::NetworkMetrics;
use crate::runtime::{mint_service_instance, AbandonedList, ClusterError};
use crate::transport::Transport;
use bytes::Bytes;
use mpq_cost::Objective;
use mpq_model::{Query, TableSet};
use std::collections::BTreeMap;
use std::time::Duration;

/// Most results a table parks for unredeemed handles before evicting the
/// oldest: a client that drops handles without redeeming them must not
/// grow resident-service memory without bound over an unbounded stream.
pub const MAX_PARKED_RESULTS: usize = 4096;

/// The failures the lifecycle itself produces. Every protocol's error
/// type absorbs them through `From`, so public failures stay per protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LifecycleError {
    /// The handle names no live or parked session of this table: its
    /// result was already taken, or another table minted it.
    UnknownHandle { id: QueryId },
    /// The in-flight budget is spent. Backpressure, not failure.
    Overloaded { in_flight: usize, limit: usize },
    /// The request can never be served.
    BadRequest { reason: &'static str },
}

/// Ticket for one submitted query; redeem it with `wait` (or check it
/// with `poll`) on the service that minted it.
///
/// Dropping a handle **abandons** its session: the id lands on the
/// minting table's abandoned list, and the next entry into that service
/// frees the session's state and any parked result (paying
/// [`Protocol::release`] if the session was still live). Dropping an
/// already-redeemed handle is a no-op.
#[must_use = "redeem the handle with `wait`/`poll`, or drop it explicitly to abandon the query"]
#[derive(Debug)]
pub struct QueryHandle {
    id: QueryId,
    /// Which table minted this handle: raw ids collide across tables
    /// (every table counts from 0), so a foreign handle must be rejected
    /// before any lookup.
    instance: u64,
    abandoned: AbandonedList,
}

impl QueryHandle {
    /// The session id this handle tracks.
    pub fn id(&self) -> QueryId {
        self.id
    }
}

impl Drop for QueryHandle {
    fn drop(&mut self) {
        // Redeemed sessions are already gone from the table's maps, so
        // reaping their id is a no-op.
        self.abandoned.push(self.id.0);
    }
}

/// Live sessions of type `S` and parked results of type `R` behind one
/// handle discipline. See the module docs.
pub struct SessionTable<S, R> {
    instance: u64,
    next_id: u64,
    /// Admission limit (0 = unlimited).
    max_in_flight: usize,
    /// The in-flight sessions, for their protocol to read and advance.
    /// Ordered, like the park, so scheduler passes visit sessions in
    /// submission order — deterministic across runs.
    pub live: BTreeMap<u64, S>,
    parked: BTreeMap<u64, R>,
    abandoned: AbandonedList,
}

impl<S, R> SessionTable<S, R> {
    /// An empty table admitting at most `max_in_flight` live sessions
    /// (0 = unlimited).
    pub fn new(max_in_flight: usize) -> Self {
        SessionTable {
            instance: mint_service_instance(),
            next_id: 0,
            max_in_flight,
            live: BTreeMap::new(),
            parked: BTreeMap::new(),
            abandoned: AbandonedList::new(),
        }
    }

    /// Finished results parked for handles that have not redeemed them.
    pub fn parked_results(&self) -> usize {
        self.parked.len()
    }

    /// The one admission point. A request no engine can optimize is
    /// refused before any message is sent or any DP runs — the DP kernels
    /// assert on these sizes and the pruning policy on the approximation
    /// factor, and a panicking resident worker is lost to every other
    /// session. So are statistics no catalog can have
    /// ([`Query::invalid_statistic`]): their NaN plan times would make the
    /// answer depend on the partition cut, which varies with load. Call
    /// after [`SessionTable::reap`], so
    /// dropped-but-unreaped handles never count against the caller.
    pub fn admit(&self, query: &Query, objective: Objective) -> Result<(), LifecycleError> {
        if query.num_tables() == 0 || query.num_tables() > TableSet::MAX_TABLES {
            return Err(LifecycleError::BadRequest {
                reason: "a query needs between 1 and 64 tables",
            });
        }
        if !objective.is_valid() {
            return Err(LifecycleError::BadRequest {
                reason: "the approximation factor must be a finite number >= 1",
            });
        }
        if query.invalid_statistic().is_some() {
            return Err(LifecycleError::BadRequest {
                reason: "table statistics must be finite and non-negative, selectivities in (0, 1]",
            });
        }
        if self.max_in_flight > 0 && self.live.len() >= self.max_in_flight {
            return Err(LifecycleError::Overloaded {
                in_flight: self.live.len(),
                limit: self.max_in_flight,
            });
        }
        Ok(())
    }

    /// Mints the next session id. Never reused, even when the submission
    /// it was minted for fails to dispatch.
    pub fn mint(&mut self) -> QueryId {
        let id = QueryId(self.next_id);
        self.next_id += 1;
        id
    }

    /// A handle for session `id`, tagged with this table's identity.
    pub fn handle(&self, id: QueryId) -> QueryHandle {
        QueryHandle {
            id,
            instance: self.instance,
            abandoned: self.abandoned.clone(),
        }
    }

    /// Rejects a handle another table minted — before any lookup, so a
    /// colliding raw id can never redeem another session's result.
    pub fn owns(&self, handle: &QueryHandle) -> Result<(), LifecycleError> {
        if handle.instance == self.instance {
            Ok(())
        } else {
            Err(LifecycleError::UnknownHandle { id: handle.id })
        }
    }

    /// Parks a result for its handle, evicting the oldest unredeemed
    /// result beyond [`MAX_PARKED_RESULTS`].
    pub fn park(&mut self, id: QueryId, result: R) {
        self.parked.insert(id.0, result);
        while self.parked.len() > MAX_PARKED_RESULTS {
            self.parked.pop_first();
        }
    }

    /// Takes `id`'s parked result — the exactly-once delivery point.
    pub fn redeem(&mut self, id: QueryId) -> Option<R> {
        self.parked.remove(&id.0)
    }

    /// Frees everything owned by handles dropped unredeemed: parked
    /// results, and live sessions, each handed to `released`.
    pub fn reap(&mut self, mut released: impl FnMut(QueryId, S)) {
        // Canonical (ascending-id) order: push order depends on when each
        // handle happened to be dropped, and the reaping order must be
        // replayable under the schedule-space model checker.
        for id in self.abandoned.drain_ordered() {
            if let Some(session) = self.live.remove(&id) {
                released(QueryId(id), session);
            }
            self.parked.remove(&id);
        }
    }
}

/// What protocol `P` parks per finished session.
pub type Settled<P> = Result<<P as Protocol>::Outcome, <P as Protocol>::Error>;

/// The table a [`SessionService`] keeps for protocol `P`.
pub type Table<P> = SessionTable<<P as Protocol>::Session, Settled<P>>;

/// Which receive the blocking scheduler step issues. Protocol data, not
/// taste: the model transport makes each receive kind a different choice
/// point, so each master's shape is preserved exactly.
#[derive(Clone, Copy, Debug)]
pub enum BlockingStep {
    /// One receive — bounded by the timeout, or unbounded — then the
    /// suspicion pass.
    Receive(Option<Duration>),
    /// Drain everything already queued before consulting evidence — a
    /// reply sitting in the channel beats any suspicion about its sender
    /// (a worker may legitimately crash *after* its completing reply).
    /// Only on an empty queue does the suspicion pass run; if it fires
    /// nothing, park for one heartbeat — a coarse bound, not an unbounded
    /// block, so a worker dying *while* the master is parked is noticed
    /// by the next pass.
    EvidenceFirst(Duration),
}

/// The protocol-specific half of a master: what [`SessionService`] cannot
/// know. Implemented by the MPQ master.
pub trait Protocol: Sized {
    /// What a submission carries besides the query.
    type Request;
    /// Master-side state of one in-flight session.
    type Session;
    /// What a finished session yields.
    type Outcome;
    /// The protocol's public failure type.
    type Error: From<LifecycleError>;

    /// The objective a submission asks for (admission checks it).
    fn objective(request: &Self::Request) -> Objective;

    /// Dispatches a freshly admitted session's first messages and returns
    /// its state. On `Err` nothing stays behind (the protocol frees
    /// whatever its partial dispatch pinned on workers).
    fn open(
        &mut self,
        net: &dyn Transport,
        id: QueryId,
        query: &Query,
        request: Self::Request,
    ) -> Result<Self::Session, Self::Error>;

    /// Routes one session-tagged worker message to its owning session and
    /// advances it: still pending, finished (remove it, park its outcome)
    /// or failed ([`Protocol::fail`]). Messages for sessions no longer
    /// live land here too — only the protocol knows whether a late
    /// message needs accounting.
    fn route(
        &mut self,
        net: &dyn Transport,
        table: &mut Table<Self>,
        worker: usize,
        id: QueryId,
        payload: Bytes,
    );

    /// Examines every live session for evidence that it will never
    /// complete on its own, recovering or failing it. Returns whether any
    /// session fired.
    fn check_suspicions(&mut self, net: &dyn Transport, table: &mut Table<Self>) -> bool;

    /// Which receive the blocking scheduler step issues.
    fn blocking_step(&self) -> BlockingStep;

    /// What freeing a session that will never finish (failed or
    /// abandoned) costs on the wire.
    fn release(&mut self, net: &dyn Transport, id: QueryId);

    /// The typed failure of `session` when the transport itself is gone.
    fn transport_lost(&self, session: &Self::Session, err: ClusterError) -> Self::Error;

    /// Fails a live session: frees its state, pays its release, parks the
    /// typed error for its handle.
    fn fail(
        &mut self,
        net: &dyn Transport,
        table: &mut Table<Self>,
        id: QueryId,
        err: Self::Error,
    ) {
        table.live.remove(&id.0);
        self.release(net, id);
        table.park(id, Err(err));
    }
}

/// A long-lived optimizer master: one resident transport multiplexing
/// many concurrent sessions of protocol `P`. See the module docs.
pub struct SessionService<P: Protocol> {
    protocol: P,
    net: Box<dyn Transport>,
    table: Table<P>,
}

impl<P: Protocol> SessionService<P> {
    /// A service speaking `protocol` over `net`, with no admission limit.
    pub fn new(protocol: P, net: Box<dyn Transport>) -> Result<Self, LifecycleError> {
        if net.num_workers() == 0 {
            return Err(LifecycleError::BadRequest {
                reason: "at least one worker required",
            });
        }
        Ok(SessionService {
            protocol,
            net,
            table: SessionTable::new(0),
        })
    }

    /// The admission limit: submissions past `limit` live sessions are
    /// refused with [`LifecycleError::Overloaded`] (or park, on request),
    /// instead of being queued silently. `0` means unlimited — the
    /// default, bit-for-bit the pre-admission behavior.
    pub fn set_max_in_flight(&mut self, limit: usize) {
        self.table.max_in_flight = limit;
    }

    /// The resident message plane.
    pub fn transport(&self) -> &dyn Transport {
        self.net.as_ref()
    }

    /// Number of resident worker nodes.
    pub fn num_workers(&self) -> usize {
        self.net.num_workers()
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

    /// Submits `query` and returns with a handle once the session's first
    /// messages are out. A refused submission (bad request, or past the
    /// admission limit) has sent nothing and leaves zero state behind.
    /// With `park`, the admission limit blocks instead of refusing: the
    /// blocking scheduler step runs until capacity frees.
    pub fn submit(
        &mut self,
        query: &Query,
        request: P::Request,
        park: bool,
    ) -> Result<QueryHandle, P::Error> {
        loop {
            self.reap_abandoned();
            match self.table.admit(query, P::objective(&request)) {
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
        let session = self.protocol.open(self.net.as_ref(), id, query, request)?;
        self.table.live.insert(id.0, session);
        Ok(self.table.handle(id))
    }

    /// Non-blocking check: drains replies that have already arrived, runs
    /// the suspicion pass, and returns the result once the handle's
    /// session has finished. After `Some`, the handle is spent.
    pub fn poll(&mut self, handle: &QueryHandle) -> Option<Settled<P>> {
        if let Err(foreign) = self.table.owns(handle) {
            return Some(Err(foreign.into()));
        }
        self.reap_abandoned();
        loop {
            if let Some(result) = self.table.redeem(handle.id) {
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
                    return self.table.redeem(handle.id);
                }
            }
        }
    }

    /// Blocks until the handle's session finishes, driving every
    /// in-flight session's collection and recovery in the meantime. A
    /// spent or foreign handle is a typed
    /// [`LifecycleError::UnknownHandle`], never a panic.
    pub fn wait(&mut self, handle: QueryHandle) -> Settled<P> {
        self.table.owns(&handle)?;
        self.reap_abandoned();
        loop {
            if let Some(result) = self.table.redeem(handle.id) {
                return result;
            }
            if !self.table.live.contains_key(&handle.id.0) {
                return Err(LifecycleError::UnknownHandle { id: handle.id }.into());
            }
            self.drive_once();
        }
    }

    /// Frees the state of sessions whose handle was dropped unredeemed,
    /// paying each live one's [`Protocol::release`]. Called on every
    /// scheduler entry; public so long-idle callers can reap eagerly.
    pub fn reap_abandoned(&mut self) {
        let (protocol, net) = (&mut self.protocol, self.net.as_ref());
        self.table.reap(|id, _| protocol.release(net, id));
    }

    /// Shuts the resident transport down, joining every worker thread.
    /// In-flight sessions are abandoned (their handles become useless),
    /// so drain the service before calling this.
    pub fn shutdown(mut self) {
        self.net.shutdown();
    }

    /// One pass of the blocking scheduler.
    fn drive_once(&mut self) {
        match self.protocol.blocking_step() {
            BlockingStep::Receive(timeout) => {
                let received = match timeout {
                    Some(t) => self.net.recv_timeout(t),
                    None => self.net.recv(),
                };
                self.settle(received);
                self.check_suspicions();
            }
            BlockingStep::EvidenceFirst(heartbeat) => match self.net.try_recv() {
                Err(ClusterError::Timeout { .. }) => {
                    if !self.check_suspicions() {
                        let received = self.net.recv_timeout(heartbeat);
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

    fn route(&mut self, worker: usize, id: QueryId, payload: Bytes) {
        self.protocol
            .route(self.net.as_ref(), &mut self.table, worker, id, payload);
    }

    fn check_suspicions(&mut self) -> bool {
        self.protocol
            .check_suspicions(self.net.as_ref(), &mut self.table)
    }

    /// The substrate itself is gone: every in-flight session fails typed.
    fn fail_all(&mut self, err: ClusterError) {
        let ids: Vec<u64> = self.table.live.keys().copied().collect();
        for raw in ids {
            if let Some(session) = self.table.live.get(&raw) {
                let typed = self.protocol.transport_lost(session, err.clone());
                self.protocol
                    .fail(self.net.as_ref(), &mut self.table, QueryId(raw), typed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::runtime::{Cluster, Control, WorkerCtx};
    use crate::LatencyModel;
    use mpq_model::{WorkloadConfig, WorkloadGenerator};

    /// A worker told to stop: it exits without replying.
    const STOP: u8 = 0xFF;

    /// The toy protocol: a session is one byte sent to one worker, which
    /// echoes it back; the echo is the outcome.
    struct Echo {
        released: Vec<QueryId>,
    }

    #[derive(Debug, PartialEq)]
    enum EchoError {
        Lifecycle(LifecycleError),
        Lost(ClusterError),
    }

    impl From<LifecycleError> for EchoError {
        fn from(e: LifecycleError) -> Self {
            EchoError::Lifecycle(e)
        }
    }

    impl Protocol for Echo {
        type Request = (usize, u8);
        type Session = ();
        type Outcome = u8;
        type Error = EchoError;

        fn objective(_: &(usize, u8)) -> Objective {
            Objective::Single
        }

        fn open(
            &mut self,
            net: &dyn Transport,
            id: QueryId,
            _query: &Query,
            (worker, byte): (usize, u8),
        ) -> Result<(), EchoError> {
            net.send(worker, id, Bytes::from(vec![byte]), true)
                .map_err(EchoError::Lost)
        }

        fn route(
            &mut self,
            _: &dyn Transport,
            table: &mut Table<Self>,
            _: usize,
            id: QueryId,
            payload: Bytes,
        ) {
            if table.live.remove(&id.0).is_some() {
                table.park(id, Ok(payload[0]));
            }
        }

        fn check_suspicions(&mut self, _: &dyn Transport, _: &mut Table<Self>) -> bool {
            false
        }

        fn blocking_step(&self) -> BlockingStep {
            BlockingStep::Receive(None)
        }

        fn release(&mut self, _: &dyn Transport, id: QueryId) {
            self.released.push(id);
        }

        fn transport_lost(&self, _: &(), err: ClusterError) -> EchoError {
            EchoError::Lost(err)
        }
    }

    fn service(workers: usize, max_in_flight: usize) -> SessionService<Echo> {
        let echo = |_: usize| {
            |_: QueryId, payload: Bytes, ctx: &mut WorkerCtx| {
                if payload[0] == STOP {
                    return Control::Shutdown;
                }
                ctx.send_to_master(payload);
                Control::Continue
            }
        };
        let cluster = Cluster::spawn(workers, LatencyModel::ZERO, echo).unwrap();
        let protocol = Echo {
            released: Vec::new(),
        };
        let mut svc = SessionService::new(protocol, Box::new(cluster)).unwrap();
        svc.set_max_in_flight(max_in_flight);
        svc
    }

    fn query(tables: usize) -> Query {
        WorkloadGenerator::new(WorkloadConfig::paper_default(tables), 7).next_query()
    }

    fn unknown(id: u64) -> EchoError {
        EchoError::Lifecycle(LifecycleError::UnknownHandle { id: QueryId(id) })
    }

    #[test]
    fn results_are_delivered_exactly_once() {
        let mut svc = service(1, 0);
        let q = query(3);
        let a = svc.submit(&q, (0, 11), false).unwrap();
        let b = svc.submit(&q, (0, 22), false).unwrap();
        assert_eq!(svc.in_flight(), 2);
        // Redeemed out of order: routing, not arrival order, matches each
        // result to its handle.
        assert_eq!(svc.wait(b), Ok(22));
        let polled = loop {
            if let Some(result) = svc.poll(&a) {
                break result;
            }
        };
        assert_eq!(polled, Ok(11));
        // Spent: polls as `None`, waits as a typed error.
        assert_eq!(svc.poll(&a), None);
        assert_eq!(svc.wait(a), Err(unknown(0)));
        assert_eq!((svc.in_flight(), svc.parked_results()), (0, 0));
        svc.shutdown();
    }

    #[test]
    fn foreign_handles_are_rejected_before_any_lookup() {
        let (mut ours, mut theirs) = (service(1, 0), service(1, 0));
        let q = query(3);
        let mine = ours.submit(&q, (0, 1), false).unwrap();
        let foreign = theirs.submit(&q, (0, 2), false).unwrap();
        assert_eq!(mine.id(), foreign.id(), "raw ids do collide");
        assert_eq!(ours.poll(&foreign), Some(Err(unknown(0))));
        assert_eq!(ours.wait(foreign), Err(unknown(0)));
        assert_eq!(ours.wait(mine), Ok(1), "never the other session's result");
        ours.shutdown();
        theirs.shutdown();
    }

    #[test]
    fn dropped_handles_are_reaped_and_released_once() {
        let mut svc = service(1, 0);
        let q = query(3);
        let abandoned = svc.submit(&q, (0, 1), false).unwrap();
        let kept = svc.submit(&q, (0, 2), false).unwrap();
        drop(abandoned);
        assert_eq!(svc.in_flight(), 2, "reaping waits for the next entry");
        assert_eq!(svc.wait(kept), Ok(2));
        assert_eq!(svc.in_flight(), 0);
        assert_eq!(svc.protocol.released, vec![QueryId(0)]);
        // A finished-but-unredeemed result is freed the same way, without
        // a release: its session is no longer live.
        let parked = svc.submit(&q, (0, 3), false).unwrap();
        let driver = svc.submit(&q, (0, 4), false).unwrap();
        assert_eq!(svc.wait(driver), Ok(4));
        assert_eq!(svc.parked_results(), 1);
        drop(parked);
        svc.reap_abandoned();
        assert_eq!(svc.parked_results(), 0);
        assert_eq!(svc.protocol.released, vec![QueryId(0)]);
        svc.shutdown();
    }

    #[test]
    fn admission_refuses_at_the_limit_and_parks_on_request() {
        let mut svc = service(1, 2);
        let q = query(3);
        let a = svc.submit(&q, (0, 1), false).unwrap();
        let b = svc.submit(&q, (0, 2), false).unwrap();
        // (Bytes towards the workers, not the message count: the echoes of
        // `a` and `b` may still be on their way back.)
        let sent = svc.metrics().snapshot().master_to_worker_bytes;
        let refusal = LifecycleError::Overloaded {
            in_flight: 2,
            limit: 2,
        };
        assert_eq!(
            svc.submit(&q, (0, 3), false).err(),
            Some(EchoError::Lifecycle(refusal))
        );
        // The refusal left zero state: nothing sent, nothing live.
        assert_eq!(svc.metrics().snapshot().master_to_worker_bytes, sent);
        assert_eq!(svc.in_flight(), 2);
        // Parking drives the in-flight sessions until one finishes.
        let c = svc.submit(&q, (0, 3), true).unwrap();
        assert!(svc.in_flight() <= 2);
        assert_eq!(svc.parked_results(), 1);
        for (handle, byte) in [(a, 1), (b, 2), (c, 3)] {
            assert_eq!(svc.wait(handle), Ok(byte));
        }
        svc.shutdown();
    }

    #[test]
    fn unoptimizable_queries_are_refused_before_anything_is_sent() {
        let mut svc = service(1, 0);
        let mut empty = query(3);
        empty.catalog = Default::default();
        empty.predicates.clear();
        let mut huge = query(3);
        for _ in 3..=TableSet::MAX_TABLES {
            huge.catalog
                .add_table(mpq_model::TableStats::with_cardinality(10.0));
        }
        assert_eq!(huge.num_tables(), TableSet::MAX_TABLES + 1);
        for q in [&empty, &huge] {
            for park in [false, true] {
                assert!(matches!(
                    svc.submit(q, (0, 1), park),
                    Err(EchoError::Lifecycle(LifecycleError::BadRequest { .. }))
                ));
            }
        }
        assert_eq!(svc.metrics().snapshot().messages, 0);
        assert_eq!(svc.in_flight(), 0);
        svc.shutdown();
    }

    #[test]
    fn the_park_evicts_its_oldest_result_at_the_cap() {
        let mut svc = service(1, 0);
        let q = query(3);
        let mut handles: Vec<QueryHandle> = (0..=MAX_PARKED_RESULTS)
            .map(|_| svc.submit(&q, (0, 9), false).unwrap())
            .collect();
        // One FIFO worker: when the last session finishes, all have.
        let last = handles.pop().unwrap();
        assert_eq!(svc.wait(last), Ok(9));
        assert_eq!(svc.parked_results(), MAX_PARKED_RESULTS - 1);
        let mut handles = handles.into_iter();
        assert_eq!(svc.wait(handles.next().unwrap()), Err(unknown(0)));
        assert_eq!(svc.wait(handles.next().unwrap()), Ok(9));
        drop(handles);
        svc.reap_abandoned();
        assert_eq!(svc.parked_results(), 0);
        svc.shutdown();
    }

    #[test]
    fn transport_loss_fails_every_live_session_typed() {
        let mut svc = service(2, 0);
        let q = query(3);
        let a = svc.submit(&q, (0, STOP), false).unwrap();
        let b = svc.submit(&q, (1, STOP), false).unwrap();
        let lost = Err(EchoError::Lost(ClusterError::AllWorkersLost));
        assert_eq!(svc.wait(a), lost);
        assert_eq!(svc.in_flight(), 0, "the other session failed with it");
        assert_eq!(svc.poll(&b), Some(lost));
        // Failing pays the release, like abandoning does.
        assert_eq!(svc.protocol.released, vec![QueryId(0), QueryId(1)]);
        svc.shutdown();
    }
}
