//! The master-side **session table**, held exactly once.
//!
//! Every resident optimizer service is a submit → [`QueryHandle`] →
//! poll/wait multiplexer. What that needs independently of how a query is
//! answered lives here: the one handle type and the [`SessionTable`] (id
//! minting, admission, live sessions, the bounded result park, ordered
//! reaping, exactly-once redemption). The MPQ master
//! (`mpq_algo::MpqService`) keeps its in-flight sessions in one; the
//! facade's flight table (`pqopt::service`) keeps the members of its
//! coalitions in another.
//!
//! Results are delivered **exactly once** per handle: a redeemed id is
//! gone from the park, so `poll` on a spent handle is `None` and `wait` on
//! one is [`LifecycleError::UnknownHandle`]. In-flight means live sessions
//! only — parked results never count against the admission budget, so
//! parking cannot deadlock admission.

use crate::codec::QueryId;
use crate::runtime::{mint_service_instance, AbandonedList};
use mpq_cost::Objective;
use mpq_model::{Query, TableSet};
use std::collections::BTreeMap;

/// Most results a table parks for unredeemed handles before evicting the
/// oldest: a client that drops handles without redeeming them must not
/// grow resident-service memory without bound over an unbounded stream.
pub const MAX_PARKED_RESULTS: usize = 4096;

/// The failures the session table itself produces. Each service's error
/// type absorbs them through `From`, so public failures stay per service.
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
/// frees the session's state and any parked result
/// ([`SessionTable::reap`]). Dropping an already-redeemed handle is a
/// no-op.
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
    /// The in-flight sessions, for their service to read and advance.
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

    /// Sets the admission limit: past `limit` live sessions, [`admit`]
    /// refuses with [`LifecycleError::Overloaded`]. `0` means unlimited.
    ///
    /// [`admit`]: SessionTable::admit
    pub fn set_max_in_flight(&mut self, limit: usize) {
        self.max_in_flight = limit;
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

#[cfg(test)]
mod tests {
    #![allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::disallowed_macros
    )]

    use super::*;

    /// Records one live session and its handle, as a service's submit does
    /// once admission has passed.
    fn open<S>(table: &mut SessionTable<S, u8>, session: S) -> QueryHandle {
        let id = table.mint();
        table.live.insert(id.0, session);
        table.handle(id)
    }

    /// Finishes a live session as a service does: out of `live`, its
    /// result into the park.
    fn finish<S>(table: &mut SessionTable<S, u8>, handle: &QueryHandle, result: u8) {
        table.live.remove(&handle.id().0);
        table.park(handle.id(), result);
    }

    #[test]
    fn results_are_delivered_exactly_once() {
        let mut table = SessionTable::<(), u8>::new(0);
        let a = open(&mut table, ());
        let b = open(&mut table, ());
        // Finished out of order: the id, not the finishing order, matches
        // each result to its handle.
        finish(&mut table, &b, 22);
        finish(&mut table, &a, 11);
        assert_eq!(table.redeem(a.id()), Some(11));
        assert_eq!(table.redeem(b.id()), Some(22));
        assert_eq!(table.redeem(a.id()), None, "a spent id redeems nothing");
        assert_eq!((table.live.len(), table.parked_results()), (0, 0));
    }

    #[test]
    fn foreign_handles_are_rejected_before_any_lookup() {
        let mut ours = SessionTable::<(), u8>::new(0);
        let mut theirs = SessionTable::<(), u8>::new(0);
        let mine = open(&mut ours, ());
        let foreign = open(&mut theirs, ());
        assert_eq!(mine.id(), foreign.id(), "raw ids do collide");
        let unknown = LifecycleError::UnknownHandle { id: foreign.id() };
        assert_eq!(ours.owns(&foreign), Err(unknown));
        assert_eq!(ours.owns(&mine), Ok(()));
    }

    #[test]
    fn dropped_handles_are_reaped_and_released_once() {
        let mut table = SessionTable::<&str, u8>::new(0);
        let live = open(&mut table, "live");
        let parked = open(&mut table, "parked");
        let redeemed = open(&mut table, "redeemed");
        finish(&mut table, &parked, 1);
        finish(&mut table, &redeemed, 2);
        assert_eq!(table.redeem(redeemed.id()), Some(2));
        drop((live, parked, redeemed));
        let held = (table.live.len(), table.parked_results());
        assert_eq!(held, (1, 1), "reaping waits for the next entry");
        let mut released = Vec::new();
        table.reap(|id, session| released.push((id, session)));
        // Only the live session is handed back; the parked result is
        // freed, and the redeemed id is a no-op.
        assert_eq!(released, vec![(QueryId(0), "live")]);
        assert_eq!((table.live.len(), table.parked_results()), (0, 0));
        table.reap(|id, _| panic!("{id} released twice"));
    }

    #[test]
    fn the_park_evicts_its_oldest_result_at_the_cap() {
        let mut table = SessionTable::<(), u8>::new(0);
        let handles: Vec<QueryHandle> = (0..=MAX_PARKED_RESULTS)
            .map(|_| {
                let handle = open(&mut table, ());
                finish(&mut table, &handle, 9);
                handle
            })
            .collect();
        assert_eq!(table.parked_results(), MAX_PARKED_RESULTS);
        assert_eq!(table.redeem(handles[0].id()), None, "the oldest is gone");
        assert_eq!(table.redeem(handles[1].id()), Some(9));
        assert_eq!(table.redeem(handles[1].id()), None, "exactly once");
        drop(handles);
        table.reap(|_, ()| {});
        assert_eq!(table.parked_results(), 0);
    }
}
