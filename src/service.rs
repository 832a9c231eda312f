//! The persistent optimizer service: one resident MPQ master multiplexing
//! many concurrent optimization requests.
//!
//! [`OptimizerService`] is the facade the rest of the system talks to: it
//! is spawned once, keeps a standing shared-nothing cluster behind an
//! [`MpqService`], and streams queries through `submit` →
//! [`ServiceHandle`] → `poll`/`wait`; [`OptimizerService::optimize`] is
//! the blocking "submit one query, wait" view of the same path. Every
//! call goes to the one engine: the serial DP is a library reference
//! ([`optimize_serial`](crate::dp::optimize_serial)), and the SMA baseline
//! is only ever measured, by
//! [`SmaOptimizer`](crate::sma::SmaOptimizer).
//!
//! The handle lifecycle itself — one handle type, admission, parking,
//! reaping, exactly-once redemption — is [`mpq_cluster::session`]'s:
//! [`MpqService`] keeps its live sessions in a [`SessionTable`], and the
//! facade's errors are its [`MpqError`]s.
//!
//! A **flight table** sits on top whenever in-flight coalescing or the
//! result cache is on; every handle is then a membership ticket of one
//! flight. Both key on one canonical identity, [`result_key`]: cost model
//! version, statistics epoch and bits, predicate signature, plan space
//! and objective.
//!
//! **In-flight coalescing** ([`ServiceConfig::coalesce`]): concurrent
//! identical submissions share one *leader* optimization. Followers get
//! their own [`ServiceHandle`] redeeming the leader's result
//! bit-identically (clones of the same plan list). The flight owns the
//! single session ticket, so dropping any member — leader included —
//! merely detaches it; the oldest surviving member is implicitly the new
//! leader, and only when the whole coalition is dropped is the flight
//! reaped through the regular abandoned-handle machinery.
//!
//! **The result cache** ([`ServiceConfig::cache_bytes`]) is the one
//! cross-query cache: a byte-budgeted LRU of finished results under the
//! same key, a [`PlanCache`]. `submit` probes it before the cluster, and
//! a hit is a flight resolved at birth with one member — it sends no
//! message, takes no admission budget, and redeems, polls and drops like
//! any other handle. A result is offered to the cache when its flight is
//! first redeemed, and only if it is `Ok`. While the budget has room
//! every offer is admitted; once it is full, a result is admitted on its
//! key's second offer, evicting the LRU entry, and a first offer is
//! declined and only remembered (see [`MemoCache`](mpq_plan::MemoCache)) —
//! so a query seen once never displaces results that repeat, and
//! [`CacheStats::declined`] counts the refusals. A hit is the answer the
//! cluster would give now: a single-objective answer is the serial
//! optimum under any cut, and a multi-objective frontier's cut is fixed
//! within one service by the table count, the plan space and the
//! resident worker count.

// A server facade must never abort on caller error: every unwrap/expect
// on this path is either removed or individually justified.

use crate::dp::{result_key, PlanCache};
use crate::mpq::{MpqConfig, MpqError, MpqService};
use crate::plan::Plan;
use mpq_cluster::{QueryHandle, SessionTable, SocketTransport, Transport};
use mpq_cost::Objective;
use mpq_model::Query;
use mpq_partition::PlanSpace;
use mpq_plan::{CacheKey, CacheStats, CacheWeight};
use std::collections::BTreeMap;
use std::convert::Infallible;

/// The engine a service runs: there is one, MPQ. This enum and
/// [`ServiceConfig::backend`] exist only because the frozen `benchmark/`
/// names them (ROADMAP 15(k)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// Parallel MPQ over a resident shared-nothing cluster (the paper's
    /// algorithm).
    #[default]
    Mpq,
}

/// Configuration of an [`OptimizerService`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceConfig {
    /// Always [`Backend::Mpq`]; kept only for the frozen `benchmark/`,
    /// which sets it (ROADMAP 15(k)).
    pub backend: Backend,
    /// Worker nodes of the resident cluster. Zero means "pick a default"
    /// (8).
    pub workers: usize,
    /// MPQ configuration (faults, retry policy, the steal switch).
    pub mpq: MpqConfig,
    /// Byte budget of the service's **cross-query result cache** — the one
    /// cache: an LRU that, once full, admits a result on its second offer;
    /// see the module docs. Each result is charged its plans' size plus
    /// its key's bytes (≈ 94 + 296 B for an 8-table single-objective
    /// query). `0` (the default) disables it — bit-for-bit the uncached
    /// behavior.
    pub cache_bytes: usize,
    /// **Admission limit**: most sessions the cluster keeps in flight at
    /// once. Submissions beyond it fail with [`MpqError::Overloaded`].
    /// `0` (the default) means unlimited — bit-for-bit the pre-admission
    /// behavior. Coalesced followers join an already-admitted flight and
    /// therefore never consume admission budget.
    pub max_in_flight: usize,
    /// **In-flight coalescing**: when enabled, concurrent submissions
    /// with the same canonical identity (see the module docs) share one
    /// optimization. Disabled by default — bit-for-bit the uncoalesced
    /// behavior.
    pub coalesce: bool,
}

impl ServiceConfig {
    /// A service over `workers` resident workers and default MPQ
    /// configuration.
    pub fn new(workers: usize) -> ServiceConfig {
        ServiceConfig {
            workers,
            ..ServiceConfig::default()
        }
    }

    /// Same service with a cross-query cache budget.
    pub fn with_cache(workers: usize, cache_bytes: usize) -> ServiceConfig {
        ServiceConfig {
            cache_bytes,
            ..ServiceConfig::new(workers)
        }
    }

    /// Same service with a bounded in-flight budget (`0` = unlimited).
    pub fn with_admission(workers: usize, max_in_flight: usize) -> ServiceConfig {
        ServiceConfig {
            max_in_flight,
            ..ServiceConfig::new(workers)
        }
    }

    /// Same service with in-flight coalescing of identical submissions.
    pub fn with_coalescing(workers: usize) -> ServiceConfig {
        ServiceConfig {
            coalesce: true,
            ..ServiceConfig::new(workers)
        }
    }
}

/// Ticket for one submitted request; redeem with
/// [`OptimizerService::wait`] or check with [`OptimizerService::poll`].
/// Coalesced or not, it is the one [`QueryHandle`]: dropping it
/// unredeemed abandons the request. Redeeming it twice, or presenting it
/// to another service, is a typed [`MpqError::UnknownHandle`], never a
/// panic.
#[must_use = "redeem the handle with `wait`/`poll`, or drop it explicitly to abandon the query"]
#[derive(Debug)]
pub struct ServiceHandle(QueryHandle);

/// A long-lived optimizer service; see the module docs.
pub struct OptimizerService {
    mpq: MpqService,
    /// Coalescing and the result cache; `None` when both are off.
    flights: Option<Flights>,
}

/// Counters of the service's in-flight coalescing (all zero while
/// disabled). A coalition of `K` identical in-flight submissions counts
/// `K` coalesced sessions and `K - 1` saved optimizations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Sessions that shared a flight with at least one other session —
    /// the leader counts as soon as its flight gains its first follower.
    pub coalesced_sessions: u64,
    /// Optimizations avoided: one per follower that joined an in-flight
    /// leader instead of submitting its own session.
    pub saved_optimizations: u64,
}

/// One flight: members sharing a single session ticket and, once
/// resolved, a single result handed to each member.
struct Flight {
    /// Canonical identity, held until resolution: a coalescing service
    /// indexes the unresolved flight under it in `open`, and the result
    /// enters the cache under it. A cache hit is born resolved, keyless.
    key: Option<CacheKey>,
    /// The one session ticket the members share; taken (and dropped) at
    /// resolution or when every member detaches. A hit never has one.
    ticket: Option<QueryHandle>,
    /// The outcome once resolved, handed to each member.
    result: Option<Result<Vec<Plan>, MpqError>>,
    /// Undelivered members, oldest first — `members[0]` is the leader.
    members: Vec<u64>,
    /// Whether this flight's leader was already counted into
    /// [`CoalesceStats::coalesced_sessions`] (set on the first join).
    counted: bool,
}

/// Flight table of a coalescing or caching service; see the module docs.
struct Flights {
    /// Member → flight, removed at delivery or detach. Members are this
    /// table's live sessions, so a membership ticket is the one
    /// [`QueryHandle`] type under the table's own instance tag, and
    /// members whose handle was dropped unredeemed surface through the
    /// table's ordered reaping. Dropping a member detaches it only: the
    /// flight keeps running for the rest of the coalition.
    members: SessionTable<u64, Infallible>,
    next_flight: u64,
    /// Whether unresolved identical flights take followers.
    coalesce: bool,
    /// Unresolved flights of a coalescing service, by canonical identity.
    open: BTreeMap<CacheKey, u64>,
    flights: BTreeMap<u64, Flight>,
    stats: CoalesceStats,
    /// Finished `Ok` results by canonical identity (disabled at budget 0).
    cache: PlanCache,
}

impl Flights {
    fn new(coalesce: bool, cache_bytes: usize) -> Flights {
        Flights {
            members: SessionTable::new(0),
            next_flight: 0,
            coalesce,
            open: BTreeMap::new(),
            flights: BTreeMap::new(),
            stats: CoalesceStats::default(),
            cache: PlanCache::new(cache_bytes),
        }
    }

    /// Submit through the table: join an unresolved identical flight,
    /// take a cached result, or lead a new flight through the cluster
    /// (honoring admission; `park` selects `submit_wait` semantics).
    fn submit(
        &mut self,
        mpq: &mut MpqService,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
        park: bool,
    ) -> Result<QueryHandle, MpqError> {
        self.detach_abandoned(mpq);
        let key = result_key(query, space, objective);
        // An open flight's key is never cached (a result enters the cache
        // only when its flight resolves, which closes it), so looking for
        // a flight to join first is probing the cache first — and a
        // follower counts as coalesced, not as a miss.
        let open = self.open.get(&key).copied();
        let fid = match open.and_then(|fid| Some((fid, self.flights.get_mut(&fid)?))) {
            // Join: no session is submitted, so no admission budget is
            // consumed and the follower can never be refused.
            Some((fid, flight)) => {
                if !flight.counted {
                    flight.counted = true;
                    // The leader is counted retroactively: it only became
                    // part of a coalition now.
                    self.stats.coalesced_sessions += 1;
                }
                self.stats.coalesced_sessions += 1;
                self.stats.saved_optimizations += 1;
                fid
            }
            None => match self.cache.get(&key) {
                // A hit is a flight resolved at birth: nothing is sent and
                // no admission budget is consumed.
                Some(plans) => {
                    mpq.metrics().record_cache_hit(plans.weight_bytes() as u64);
                    self.push(None, None, Some(Ok(plans)))
                }
                // Lead a new flight. A refusal (admission, bad request)
                // propagates typed and leaves no flight state behind.
                None => {
                    if self.cache.is_enabled() {
                        mpq.metrics().record_cache_miss();
                    }
                    let ticket = submit_session(mpq, query, space, objective, park)?;
                    if self.coalesce {
                        // Indexed under the id `push` is about to assign.
                        self.open.insert(key.clone(), self.next_flight);
                    }
                    self.push(Some(key), Some(ticket), None)
                }
            },
        };
        let member = self.members.mint();
        self.members.live.insert(member.0, fid);
        if let Some(flight) = self.flights.get_mut(&fid) {
            flight.members.push(member.0);
        }
        Ok(self.members.handle(member))
    }

    /// Files a new flight with no members yet and returns its id.
    fn push(
        &mut self,
        key: Option<CacheKey>,
        ticket: Option<QueryHandle>,
        result: Option<Result<Vec<Plan>, MpqError>>,
    ) -> u64 {
        let fid = self.next_flight;
        self.next_flight += 1;
        let flight = Flight {
            key,
            ticket,
            result,
            members: Vec::new(),
            counted: false,
        };
        self.flights.insert(fid, flight);
        fid
    }

    /// Detaches members whose handles were dropped unredeemed. A flight
    /// every member left is reaped: its session ticket, if it still holds
    /// one, is dropped (queueing the session for [`MpqService`]'s own
    /// reaping, which frees parked results) and the service is poked to
    /// reap immediately.
    fn detach_abandoned(&mut self, mpq: &mut MpqService) {
        let Flights {
            members,
            open,
            flights,
            ..
        } = self;
        let mut reaped = false;
        // Ascending-member order (the table's): leader-promotion under
        // multi-member detach must replay identically under the
        // schedule-space model checker.
        members.reap(|member, fid| {
            let Some(flight) = flights.get_mut(&fid) else {
                return;
            };
            flight.members.retain(|&m| m != member.0);
            if flight.members.is_empty() {
                if let Some(flight) = flights.remove(&fid) {
                    // Only an unresolved flight still holds its key (and,
                    // coalescing, its `open` entry) and its ticket.
                    if let Some(key) = &flight.key {
                        open.remove(key);
                    }
                    // Dropping the ticket pushes it onto the service's
                    // abandoned list.
                    if let Some(ticket) = flight.ticket {
                        drop(ticket);
                        reaped = true;
                    }
                }
            }
        });
        if reaped {
            mpq.reap_abandoned();
        }
    }

    /// Hands the member behind `handle` the flight's result — exactly
    /// once — first resolving the flight through the shared session
    /// ticket: blocking on it (`block`), or only if it already finished.
    /// `None`: still in progress, or — as on every other handle — the
    /// member was already delivered.
    fn redeem(
        &mut self,
        mpq: &mut MpqService,
        handle: &QueryHandle,
        block: bool,
    ) -> Option<Result<Vec<Plan>, MpqError>> {
        // A membership ticket from another service instance: reject before
        // any lookup (raw member ids may collide).
        if let Err(foreign) = self.members.owns(handle) {
            return Some(Err(foreign.into()));
        }
        self.detach_abandoned(mpq);
        let member = handle.id().0;
        let fid = *self.members.live.get(&member)?;
        let Flights {
            members,
            open,
            flights,
            cache,
            ..
        } = self;
        let Some(flight) = flights.get_mut(&fid) else {
            return Some(Err(MpqError::UnknownHandle { id: handle.id() }));
        };
        if flight.result.is_none() {
            // Any member's poll or wait drives the shared ticket.
            let ticket = flight.ticket.take()?;
            let result = if block {
                wait_session(mpq, ticket)
            } else {
                match poll_session(mpq, &ticket) {
                    // The spent ticket drops here, queueing a no-op reap
                    // entry on the service.
                    Some(result) => result,
                    // Still in progress: the ticket goes back unspent.
                    None => {
                        flight.ticket = Some(ticket);
                        return None;
                    }
                }
            };
            // Resolved flights close to new joiners; an `Ok` result
            // enters the cache, which answers later repeats.
            if let Some(key) = flight.key.take() {
                open.remove(&key);
                if let (true, Ok(plans)) = (cache.is_enabled(), &result) {
                    cache.insert(key, plans.clone());
                }
            }
            flight.result = Some(result);
        }
        flight.members.retain(|&m| m != member);
        members.live.remove(&member);
        if flight.members.is_empty() {
            // The last member takes the result itself.
            flights.remove(&fid).and_then(|flight| flight.result)
        } else {
            flight.result.clone()
        }
    }
}

/// One session submission. `park` selects [`MpqService::submit_wait`]:
/// block at the admission limit instead of refusing.
fn submit_session(
    mpq: &mut MpqService,
    query: &Query,
    space: PlanSpace,
    objective: Objective,
    park: bool,
) -> Result<QueryHandle, MpqError> {
    if park {
        mpq.submit_wait(query, space, objective)
    } else {
        mpq.submit(query, space, objective)
    }
}

/// Non-blocking redemption of one session handle (a plain request's, or
/// a coalesced flight's shared ticket).
fn poll_session(mpq: &mut MpqService, handle: &QueryHandle) -> Option<Result<Vec<Plan>, MpqError>> {
    mpq.poll(handle).map(|r| r.map(|o| o.plans))
}

/// Blocking redemption of one session handle.
fn wait_session(mpq: &mut MpqService, handle: QueryHandle) -> Result<Vec<Plan>, MpqError> {
    mpq.wait(handle).map(|o| o.plans)
}

impl OptimizerService {
    /// Brings the service up: spawns the resident worker threads that all
    /// subsequent queries share.
    pub fn spawn(config: ServiceConfig) -> Result<OptimizerService, MpqError> {
        let workers = if config.workers == 0 {
            8
        } else {
            config.workers
        };
        let mpq = MpqService::spawn(workers, config.mpq)?;
        Ok(OptimizerService::over(config, mpq))
    }

    /// Builds the service over already-running worker **processes**
    /// reached at `addrs`: [`SocketTransport::connect`] followed by
    /// [`OptimizerService::with_transport`].
    pub fn connect(
        config: ServiceConfig,
        addrs: &[mpq_cluster::WorkerAddr],
    ) -> Result<OptimizerService, MpqError> {
        let transport = SocketTransport::connect(addrs).map_err(MpqError::Cluster)?;
        OptimizerService::with_transport(config, Box::new(transport))
    }

    /// Builds the service over an already-connected message plane — any
    /// [`Transport`] implementation, with worker nodes hosted behind it.
    /// This is how the schedule-space model checker places the whole
    /// facade (admission, coalescing, the MPQ scheduler) under a
    /// controllable transport whose delivery order it enumerates.
    pub fn with_transport(
        config: ServiceConfig,
        transport: Box<dyn Transport>,
    ) -> Result<OptimizerService, MpqError> {
        let mpq = MpqService::with_transport(transport, config.mpq)?;
        Ok(OptimizerService::over(config, mpq))
    }

    fn over(config: ServiceConfig, mut mpq: MpqService) -> OptimizerService {
        mpq.set_max_in_flight(config.max_in_flight);
        let flights = config.coalesce || config.cache_bytes > 0;
        OptimizerService {
            mpq,
            flights: flights.then(|| Flights::new(config.coalesce, config.cache_bytes)),
        }
    }

    /// Submits one optimization request and returns immediately with a
    /// handle; the task messages go out before this returns. With
    /// coalescing enabled, a submission identical to an unresolved flight
    /// joins it instead of reaching the cluster; with the result cache
    /// enabled, one identical to a finished query is answered from the
    /// cache and sends nothing. A query that cannot be optimized (no
    /// tables, or more than 64) is a typed [`MpqError::BadRequest`]
    /// before anything is sent.
    pub fn submit(
        &mut self,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
    ) -> Result<ServiceHandle, MpqError> {
        self.submit_with(query, space, objective, false)
    }

    /// Like [`submit`](OptimizerService::submit), but instead of failing
    /// with [`MpqError::Overloaded`] at the admission limit it parks on
    /// the scheduler's blocking step — draining completions and suspicion
    /// checks — until capacity frees, then submits.
    pub fn submit_wait(
        &mut self,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
    ) -> Result<ServiceHandle, MpqError> {
        self.submit_with(query, space, objective, true)
    }

    fn submit_with(
        &mut self,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
        park: bool,
    ) -> Result<ServiceHandle, MpqError> {
        let mpq = &mut self.mpq;
        let handle = match &mut self.flights {
            Some(f) => f.submit(mpq, query, space, objective, park)?,
            None => submit_session(mpq, query, space, objective, park)?,
        };
        Ok(ServiceHandle(handle))
    }

    /// Non-blocking check; returns the plans once the request has
    /// finished. A result is delivered exactly once per handle; after
    /// `Some`, the handle is spent and polls as `None`. Polling any
    /// member of a coalesced flight drives the shared session ticket;
    /// once resolved, every member redeems a clone of the same result.
    pub fn poll(&mut self, handle: &ServiceHandle) -> Option<Result<Vec<Plan>, MpqError>> {
        // With a flight table every handle is a membership ticket; a
        // handle minted anywhere else fails the owner's instance-tag
        // check either way.
        match &mut self.flights {
            Some(f) => f.redeem(&mut self.mpq, &handle.0, false),
            None => poll_session(&mut self.mpq, &handle.0),
        }
    }

    /// Blocks until the request finishes (driving every other in-flight
    /// request of the same service meanwhile) and returns its optimal
    /// plan(s): one plan for single-objective runs, the Pareto frontier
    /// otherwise.
    pub fn wait(&mut self, handle: ServiceHandle) -> Result<Vec<Plan>, MpqError> {
        match &mut self.flights {
            // `None`: the member was already delivered (poll-then-wait,
            // double-wait). `handle` drops on return; its abandoned-list
            // entry is a no-op because the member is gone by then.
            Some(f) => f
                .redeem(&mut self.mpq, &handle.0, true)
                .unwrap_or(Err(MpqError::UnknownHandle { id: handle.0.id() })),
            None => wait_session(&mut self.mpq, handle.0),
        }
    }

    /// Optimizes one query to completion: `submit`, then `wait`.
    pub fn optimize(
        &mut self,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
    ) -> Result<Vec<Plan>, MpqError> {
        let handle = self.submit(query, space, objective)?;
        self.wait(handle)
    }

    /// Sessions the cluster currently has in flight (submitted but not
    /// yet finished); parked-but-unredeemed results never count.
    pub fn in_flight(&self) -> usize {
        self.mpq.in_flight()
    }

    /// Counters of the service's in-flight coalescing (all zero while
    /// disabled).
    pub fn coalesce_stats(&self) -> CoalesceStats {
        self.flights.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Flights currently tracked (cache hits and resolved-but-unredeemed
    /// flights included); zero while coalescing and the cache are both
    /// off. Test introspection.
    pub fn open_flights(&self) -> usize {
        self.flights.as_ref().map_or(0, |f| f.flights.len())
    }

    /// The cluster's network metrics snapshot (message/fault/steal
    /// counters, and the result cache's hit/miss counters). Always
    /// `Some`; the `Option` stays because the frozen `benchmark/` reads
    /// it as one (ROADMAP 15(k)).
    pub fn network_snapshot(&self) -> Option<mpq_cluster::NetworkSnapshot> {
        Some(self.mpq.metrics().snapshot())
    }

    /// Shuts the service down, joining the resident worker threads.
    pub fn shutdown(self) {
        self.mpq.shutdown();
    }

    /// Counters of the service's result cache, exact (entries and bytes
    /// included); all zero while it is disabled.
    pub fn cache_stats(&self) -> CacheStats {
        self.flights
            .as_ref()
            .map(|f| f.cache.stats())
            .unwrap_or_default()
    }
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
    use crate::dp::optimize_serial;
    use mpq_model::{WorkloadConfig, WorkloadGenerator};

    fn query(n: usize, seed: u64) -> Query {
        WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).next_query()
    }

    /// Exactness is bit equality: the cut varies with load, and a
    /// tolerance would let a cut-dependent rounding difference through.
    fn bit_eq(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits()
    }

    /// A plan list as its cost bits, in answer order.
    fn cost_bits(plans: &[Plan]) -> Vec<(u64, u64)> {
        plans
            .iter()
            .map(|p| (p.cost().time.to_bits(), p.cost().buffer.to_bits()))
            .collect()
    }

    /// The cluster's message and byte totals.
    fn wire_totals(svc: &OptimizerService) -> (u64, u64) {
        let net = svc.network_snapshot().expect("always a snapshot");
        (net.messages, net.total_bytes())
    }

    /// A repeated query redeems the first answer — single-objective plans
    /// and Pareto frontiers equal by `to_bits` — with exact counters, and
    /// the hit moves neither the message nor the byte total.
    #[test]
    fn cached_service_reports_hits_and_stays_transparent() {
        let q = query(6, 8);
        for objective in [Objective::Single, Objective::Multi { alpha: 2.0 }] {
            let config = ServiceConfig::with_cache(3, 1 << 20);
            let mut svc = OptimizerService::spawn(config).expect("spawn");
            let cold = svc.optimize(&q, PlanSpace::Linear, objective).unwrap();
            let sent = wire_totals(&svc);
            let warm = svc.optimize(&q, PlanSpace::Linear, objective).unwrap();
            let ctx = format!("{objective:?}");
            assert_eq!(cost_bits(&warm), cost_bits(&cold), "{ctx}");
            assert_eq!(warm, cold, "{ctx}: the hit is the first answer");
            assert_eq!(wire_totals(&svc), sent, "{ctx}: a hit sends nothing");
            let stats = svc.cache_stats();
            let counted = (stats.hits, stats.misses, stats.entries);
            assert_eq!(counted, (1, 1, 1), "{ctx}");
            // The hit saved the result; the entry is charged its key too.
            let key = result_key(&q, PlanSpace::Linear, objective);
            assert_eq!(stats.bytes_saved, cold.weight_bytes() as u64, "{ctx}");
            let charged = stats.bytes_saved + key.bytes().len() as u64;
            assert_eq!(stats.bytes, charged, "{ctx}");
            let net = svc.network_snapshot().expect("always a snapshot");
            let counted = (net.cache_hits, net.cache_misses, net.cache_bytes_saved);
            assert_eq!(counted, (1, 1, stats.bytes_saved), "{ctx}");
            svc.shutdown();
        }
    }

    #[test]
    fn uncached_service_reports_zero_stats() {
        let mut svc = OptimizerService::spawn(ServiceConfig::new(1)).expect("spawn");
        let q = query(5, 9);
        for _ in 0..2 {
            svc.optimize(&q, PlanSpace::Linear, Objective::Single)
                .expect("optimize");
        }
        let stats = svc.cache_stats();
        assert_eq!(stats.hits + stats.misses, 0);
        svc.shutdown();
    }

    /// Moved onto the facade's result cache: a warm repeat is a flight
    /// like any other — polling it answers at once with the first answer,
    /// and dropping its handle unredeemed leaves no flight behind.
    #[test]
    fn warm_shard_caches_serve_repeated_queries_identically() {
        let q = query(6, 26);
        let config = ServiceConfig::with_cache(2, 1 << 20);
        let mut svc = OptimizerService::spawn(config).expect("spawn");
        let cold = svc.optimize(&q, PlanSpace::Linear, Objective::Single);
        let hit = svc.submit(&q, PlanSpace::Linear, Objective::Single);
        let hit = hit.expect("a hit");
        assert_eq!(svc.poll(&hit), Some(cold));
        drop(svc.submit(&q, PlanSpace::Linear, Objective::Single));
        assert_eq!(svc.open_flights(), 1);
        // The next call reaps the dropped member, and its flight.
        svc.optimize(&query(5, 27), PlanSpace::Linear, Objective::Single)
            .expect("a fresh query");
        assert_eq!(svc.open_flights(), 0);
        assert_eq!(svc.in_flight(), 0);
        svc.shutdown();
    }

    /// Moved onto the facade's result cache, over real sockets: an MPQ
    /// service spanning socket workers answers a repeated query from the
    /// facade — the same bits, and not one frame on the wire.
    #[test]
    fn warm_shard_caches_answer_repeated_queries_identically() {
        use mpq_cluster::{WireListener, WorkerAddr};
        let mut addrs = Vec::new();
        let mut workers = Vec::new();
        for _ in 0..2 {
            let listener = WireListener::bind(&WorkerAddr::Tcp("127.0.0.1:0".into())).unwrap();
            addrs.push(listener.local_addr().unwrap());
            workers.push(std::thread::spawn(move || {
                crate::mpq::serve_socket_worker(&listener, 0, crate::dp::ParallelPolicy::serial())
            }));
        }
        let config = ServiceConfig::with_cache(2, 1 << 20);
        let mut svc = OptimizerService::connect(config, &addrs).expect("connect");
        let q = query(6, 41);
        let cold = svc
            .optimize(&q, PlanSpace::Linear, Objective::Single)
            .expect("cold");
        let sent = wire_totals(&svc);
        let warm = svc
            .optimize(&q, PlanSpace::Linear, Objective::Single)
            .expect("warm");
        assert_eq!(warm, cold, "hits are byte-identical");
        assert_eq!(wire_totals(&svc), sent, "a hit sends no frame");
        assert_eq!(svc.cache_stats().hits, 1);
        svc.shutdown();
        for worker in workers {
            worker.join().unwrap().expect("the worker ends cleanly");
        }
    }

    /// A full cache keeps what repeats: with room for two results, two
    /// hot queries interleaved with a scan of distinct ones keep hitting —
    /// every scan result is declined instead of evicting a hot one — and
    /// every answer is `to_bits`-equal to an uncached service's.
    #[test]
    fn full_cache_keeps_hot_results_through_a_scan() {
        let hot = [query(5, 60), query(5, 61)];
        // An entry is charged its result and its key.
        let key = result_key(&hot[0], PlanSpace::Linear, Objective::Single);
        let weight = optimize_serial(&hot[0], PlanSpace::Linear, Objective::Single)
            .plans
            .weight_bytes()
            + key.bytes().len();
        const ROUNDS: u64 = 8;
        let config = ServiceConfig::with_cache(2, 2 * weight + weight / 2);
        let mut svc = OptimizerService::spawn(config).expect("spawn");
        let mut uncached = OptimizerService::spawn(ServiceConfig::new(2)).unwrap();
        for round in 0..ROUNDS {
            let scan = query(5, 100 + round);
            for q in [&hot[0], &hot[1], &scan] {
                let got = svc.optimize(q, PlanSpace::Linear, Objective::Single);
                let want = uncached.optimize(q, PlanSpace::Linear, Objective::Single);
                assert_eq!(cost_bits(&got.unwrap()), cost_bits(&want.unwrap()));
            }
        }
        let stats = svc.cache_stats();
        // The hot pair misses once each, then hits every round after.
        assert_eq!(stats.hits, 2 * (ROUNDS - 1));
        assert_eq!(stats.misses, 2 + ROUNDS);
        assert_eq!((stats.declined, stats.evictions), (ROUNDS, 0));
        assert_eq!(stats.entries, 2);
        svc.shutdown();
        uncached.shutdown();
    }

    /// With the cache and coalescing both off there is no flight table,
    /// no key and no cache traffic.
    #[test]
    fn caching_disabled_reports_no_cache_traffic() {
        let q = query(6, 22);
        let mut svc = OptimizerService::spawn(ServiceConfig::new(2)).expect("spawn");
        for _ in 0..2 {
            svc.optimize(&q, PlanSpace::Linear, Objective::Single)
                .expect("run");
        }
        assert!(svc.flights.is_none());
        assert_eq!(svc.cache_stats(), CacheStats::default());
        let net = svc.network_snapshot().expect("always a snapshot");
        assert_eq!((net.cache_hits, net.cache_misses), (0, 0));
        svc.shutdown();
    }

    /// Cache × coalescing, each on and off: an in-flight duplicate joins
    /// its flight (coalescing) or goes to the cluster (not coalescing);
    /// a finished duplicate hits (cache) or goes to the cluster (no
    /// cache). Hits plus misses are the submissions that did not join.
    #[test]
    fn cache_and_coalescing_compose() {
        let q = query(6, 23);
        for (cache, coalesce) in [(false, false), (true, false), (false, true), (true, true)] {
            let mut config = ServiceConfig::new(2);
            config.cache_bytes = if cache { 1 << 20 } else { 0 };
            config.coalesce = coalesce;
            let ctx = format!("cache {cache} coalesce {coalesce}");
            let mut svc = OptimizerService::spawn(config).expect("spawn");
            let first = svc
                .submit(&q, PlanSpace::Linear, Objective::Single)
                .expect("first");
            let twin = svc
                .submit(&q, PlanSpace::Linear, Objective::Single)
                .expect("in-flight twin");
            let sessions = if coalesce { 1 } else { 2 };
            assert_eq!(svc.in_flight(), sessions, "{ctx}");
            let a = svc.wait(first).expect("first redeems");
            let b = svc.wait(twin).expect("twin redeems");
            assert_eq!(cost_bits(&a), cost_bits(&b), "{ctx}");
            let sent = wire_totals(&svc);
            let again = svc
                .submit(&q, PlanSpace::Linear, Objective::Single)
                .expect("finished twin");
            assert_eq!(svc.in_flight(), usize::from(!cache), "{ctx}");
            assert_eq!(svc.wait(again).expect("redeems"), a, "{ctx}");
            assert_eq!(
                wire_totals(&svc) == sent,
                cache,
                "{ctx}: only a hit sends nothing"
            );
            let stats = svc.cache_stats();
            let joined = svc.coalesce_stats().saved_optimizations;
            assert_eq!(joined, u64::from(coalesce), "{ctx}");
            if cache {
                assert_eq!(
                    (stats.hits, stats.misses + stats.hits + joined),
                    (1, 3),
                    "{ctx}"
                );
            } else {
                assert_eq!(stats, CacheStats::default(), "{ctx}");
            }
            svc.shutdown();
        }
    }

    /// Refusals and failures are never cached: an `Overloaded` or
    /// `BadRequest` submission leaves no entry, and neither does a
    /// session that failed — resubmitting it runs it again and is served
    /// the real answer, which is then cached.
    #[test]
    fn refused_and_failed_submissions_are_never_cached() {
        let q = query(6, 24);
        let mut config = ServiceConfig::with_cache(2, 1 << 20);
        config.max_in_flight = 1;
        // A worker dies on its first task; with retries off, the session
        // it held fails typed, and later sessions never go near it.
        config.mpq.faults = mpq_cluster::FaultPlan::crash_on_first_task(2, 1);
        let mut svc = OptimizerService::spawn(config).expect("spawn");
        let failed = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .expect("admitted");
        assert!(matches!(
            svc.submit(&query(5, 25), PlanSpace::Linear, Objective::Single),
            Err(MpqError::Overloaded { .. })
        ));
        let mut bad = query(5, 25);
        bad.predicates[0].selectivity = f64::NAN;
        assert!(matches!(
            svc.submit(&bad, PlanSpace::Linear, Objective::Single),
            Err(MpqError::BadRequest { .. })
        ));
        assert!(matches!(svc.wait(failed), Err(MpqError::WorkerLost { .. })));
        assert_eq!(svc.cache_stats().entries, 0, "nothing was cached");
        let plans = svc
            .optimize(&q, PlanSpace::Linear, Objective::Single)
            .expect("the failed query runs again, on the survivor");
        let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single);
        assert!(bit_eq(plans[0].cost().time, reference.plans[0].cost().time));
        let stats = svc.cache_stats();
        assert_eq!((stats.hits, stats.entries), (0, 1));
        svc.shutdown();
    }

    /// Regression: handle-lifecycle misuse on the
    /// facade is a typed error — a delivered handle polls as `None` and
    /// waits as `UnknownHandle`, and so does a handle another service
    /// minted.
    #[test]
    fn handle_misuse_is_typed() {
        let q = query(5, 11);
        let mut svc = OptimizerService::spawn(ServiceConfig::new(2)).expect("spawn");
        let handle = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .expect("submit");
        // Drain via poll first...
        let mut polled = false;
        for _ in 0..10_000 {
            match svc.poll(&handle) {
                Some(r) => {
                    r.expect("request completes");
                    polled = true;
                    break;
                }
                None => std::thread::sleep(std::time::Duration::from_micros(100)),
            }
        }
        assert!(polled);
        // ...then the spent handle is delivered exactly once and must
        // fail typed, not panic.
        assert!(svc.poll(&handle).is_none(), "results deliver exactly once");
        assert!(matches!(
            svc.wait(handle),
            Err(MpqError::UnknownHandle { .. })
        ));
        svc.shutdown();
        // A handle from a *different service instance*: raw ids collide
        // (both count from 0), so only the instance tag can tell them
        // apart — it must, rather than redeem a foreign result.
        let mut a = OptimizerService::spawn(ServiceConfig::new(1)).expect("spawn");
        let mut b = OptimizerService::spawn(ServiceConfig::new(1)).expect("spawn");
        let from_a = a
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .expect("submit");
        let from_b = b
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .expect("submit");
        assert!(matches!(
            b.poll(&from_a),
            Some(Err(MpqError::UnknownHandle { .. }))
        ));
        assert!(matches!(
            b.wait(from_a),
            Err(MpqError::UnknownHandle { .. })
        ));
        assert!(b.wait(from_b).is_ok(), "b's own handle still redeems");
        a.shutdown();
        b.shutdown();
    }

    /// Regression: a query that cannot be optimized
    /// is a typed `BadRequest` at the one admission point, coalesced or
    /// not — before this, it panicked (and permanently lost) resident
    /// worker 0. Nothing stays in flight, and the cluster keeps all its
    /// workers: with retries disabled, a follow-up query completes only
    /// if every worker still answers.
    #[test]
    fn unoptimizable_queries_are_typed_errors() {
        use mpq_model::{TableSet, TableStats};
        let mut empty = query(3, 13);
        empty.catalog = Default::default();
        empty.predicates.clear();
        let mut huge = query(3, 13);
        while huge.num_tables() <= TableSet::MAX_TABLES {
            huge.catalog.add_table(TableStats::with_cardinality(10.0));
        }
        // A predicate on a table the query does not have: a worker's
        // decoder refuses it, so admission must, before any byte is sent.
        let mut stray = query(5, 3);
        stray.predicates[0].right = 40;
        let good = query(5, 13);
        for coalesce in [false, true] {
            let mut config = ServiceConfig::new(3);
            config.coalesce = coalesce;
            let mut svc = OptimizerService::spawn(config).expect("spawn");
            for (bad, tables) in [(&empty, 0), (&huge, 65), (&stray, 5)] {
                assert_eq!(bad.num_tables(), tables);
                for submitted in [
                    svc.submit(bad, PlanSpace::Linear, Objective::Single),
                    svc.submit_wait(bad, PlanSpace::Linear, Objective::Single),
                ] {
                    assert!(
                        matches!(submitted, Err(MpqError::BadRequest { .. })),
                        "{tables} tables: {submitted:?}"
                    );
                }
            }
            // So is an approximation factor the
            // pruning policy would assert on.
            for alpha in [0.5, f64::NAN, f64::INFINITY] {
                let objective = Objective::Multi { alpha };
                for submitted in [
                    svc.submit(&good, PlanSpace::Linear, objective),
                    svc.submit_wait(&good, PlanSpace::Linear, objective),
                ] {
                    assert!(
                        matches!(submitted, Err(MpqError::BadRequest { .. })),
                        "alpha {alpha}: {submitted:?}"
                    );
                }
            }
            assert_eq!(svc.in_flight(), 0);
            assert_eq!(svc.open_flights(), 0);
            assert_eq!(wire_totals(&svc).0, 0, "refused before any message");
            svc.optimize(&good, PlanSpace::Linear, Objective::Single)
                .expect("no worker was lost to the bad requests");
            assert_eq!(svc.network_snapshot().expect("a snapshot").crashes, 0);
            svc.shutdown();
        }
    }

    /// Regression (ROADMAP 5b): statistics no catalog can have — NaN, ±∞
    /// or negative cardinality or tuple width; a selectivity that is NaN,
    /// ≤ 0 or > 1 — are a typed `BadRequest` at admission, coalesced or
    /// not, before any message is sent: their NaN plan times would let
    /// the answer depend on a load-chosen cut.
    #[test]
    fn impossible_statistics_are_refused() {
        let good = query(5, 14);
        let mut bad = Vec::new();
        for value in [f64::NAN, f64::INFINITY, -1.0] {
            for field in 0..2 {
                let mut q = good.clone();
                let stats = q.catalog.stats_mut(field + 1);
                match field {
                    0 => stats.cardinality = value,
                    _ => stats.tuple_bytes = value,
                }
                bad.push(q);
            }
        }
        for selectivity in [f64::NAN, 0.0, -0.5, 1.5] {
            let mut q = good.clone();
            q.predicates[0].selectivity = selectivity;
            bad.push(q);
        }
        for coalesce in [false, true] {
            let mut config = ServiceConfig::new(2);
            config.coalesce = coalesce;
            let mut svc = OptimizerService::spawn(config).expect("spawn");
            for q in &bad {
                for submitted in [
                    svc.submit(q, PlanSpace::Linear, Objective::Single),
                    svc.submit_wait(q, PlanSpace::Linear, Objective::Single),
                ] {
                    assert!(
                        matches!(submitted, Err(MpqError::BadRequest { .. })),
                        "{submitted:?}"
                    );
                }
            }
            assert_eq!(svc.in_flight(), 0);
            assert_eq!(wire_totals(&svc).0, 0, "refused before any message");
            let plans = svc
                .optimize(&good, PlanSpace::Linear, Objective::Single)
                .expect("a sound query is still served");
            let reference = optimize_serial(&good, PlanSpace::Linear, Objective::Single);
            assert!(bit_eq(plans[0].cost().time, reference.plans[0].cost().time));
            svc.shutdown();
        }
    }

    /// The steal switch (`config.mpq.steal`) reaches the MPQ service —
    /// `submit` oversubscribes the partition space, so every range of a
    /// 6-table query over 3 workers holds at least 2 of its 8 partitions
    /// and reports progress — and results stay exact.
    #[test]
    fn steal_override_keeps_service_exact() {
        let q = query(6, 12);
        let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans[0]
            .cost()
            .time;
        let mut config = ServiceConfig::new(3);
        config.mpq.steal = true;
        let mut svc = OptimizerService::spawn(config).expect("spawn");
        let plans = svc
            .optimize(&q, PlanSpace::Linear, Objective::Single)
            .expect("optimize");
        assert!(bit_eq(plans[0].cost().time, reference));
        let net = svc.network_snapshot().expect("always a snapshot");
        assert!(net.progress_reports >= 1, "{net:?}");
        svc.shutdown();
    }

    /// Admission: at the limit the service refuses typed, with the exact
    /// occupancy in the error; redeeming a handle frees budget and a
    /// retried submission is not lost.
    #[test]
    fn admission_refuses_at_the_limit_then_recovers() {
        let mut svc = OptimizerService::spawn(ServiceConfig::with_admission(3, 2)).expect("spawn");
        let q1 = query(5, 20);
        let q2 = query(6, 21);
        let q3 = query(5, 22);
        let a = svc
            .submit(&q1, PlanSpace::Linear, Objective::Single)
            .expect("first");
        let b = svc
            .submit(&q2, PlanSpace::Linear, Objective::Single)
            .expect("second");
        assert_eq!(svc.in_flight(), 2);
        match svc.submit(&q3, PlanSpace::Linear, Objective::Single) {
            Err(MpqError::Overloaded { in_flight, limit }) => {
                assert_eq!((in_flight, limit), (2, 2));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // The refusal left no state behind: redeeming one frees one slot.
        svc.wait(a).expect("first completes");
        let c = svc
            .submit(&q3, PlanSpace::Linear, Objective::Single)
            .expect("retry after Overloaded succeeds");
        let reference = optimize_serial(&q3, PlanSpace::Linear, Objective::Single).plans[0]
            .cost()
            .time;
        let plans = svc.wait(c).expect("retried session completes");
        assert!(bit_eq(plans[0].cost().time, reference));
        svc.wait(b).expect("second completes");
        svc.shutdown();
    }

    /// `submit_wait` parks at the limit instead of refusing, and never
    /// exceeds the budget.
    #[test]
    fn submit_wait_parks_until_capacity_frees() {
        let mut svc = OptimizerService::spawn(ServiceConfig::with_admission(3, 1)).expect("spawn");
        let q1 = query(5, 23);
        let q2 = query(6, 24);
        let a = svc
            .submit_wait(&q1, PlanSpace::Linear, Objective::Single)
            .expect("first");
        // The budget is spent; submit_wait must drive the first session to
        // completion before admitting the second.
        let b = svc
            .submit_wait(&q2, PlanSpace::Linear, Objective::Single)
            .expect("second parks, then admits");
        assert!(svc.in_flight() <= 1, "budget never exceeded");
        svc.wait(b).expect("second completes");
        svc.wait(a).expect("first parked result redeems");
        svc.shutdown();
    }

    /// Coalescing: K identical in-flight submissions cost one session,
    /// every member redeems the same bits, and the counters prove the
    /// coalition (`K` coalesced sessions, `K - 1` saved).
    #[test]
    fn coalesced_members_redeem_one_identical_result() {
        let mut svc = OptimizerService::spawn(ServiceConfig::with_coalescing(3)).expect("spawn");
        let q = query(6, 26);
        let handles: Vec<ServiceHandle> = (0..4)
            .map(|_| {
                svc.submit(&q, PlanSpace::Linear, Objective::Single)
                    .expect("submit")
            })
            .collect();
        assert!(svc.in_flight() <= 1, "one session for the whole coalition");
        assert_eq!(svc.open_flights(), 1);
        let mut results = Vec::new();
        for handle in handles {
            results.push(svc.wait(handle).expect("member redeems"));
        }
        for r in &results[1..] {
            assert_eq!(r, &results[0], "members get the same bits");
        }
        let stats = svc.coalesce_stats();
        assert_eq!(stats.coalesced_sessions, 4);
        assert_eq!(stats.saved_optimizations, 3);
        assert_eq!(
            svc.open_flights(),
            0,
            "flight state is freed after delivery"
        );
        svc.shutdown();
    }

    /// Distinct queries never coalesce; same query under a different
    /// objective or plan space does not either (the flight key scopes by
    /// both, exactly like the result cache).
    #[test]
    fn coalescing_respects_the_canonical_identity() {
        let mut svc = OptimizerService::spawn(ServiceConfig::with_coalescing(2)).expect("spawn");
        let q1 = query(5, 27);
        let q2 = query(5, 28);
        let a = svc
            .submit(&q1, PlanSpace::Linear, Objective::Single)
            .expect("a");
        let b = svc
            .submit(&q2, PlanSpace::Linear, Objective::Single)
            .expect("b");
        let c = svc
            .submit(&q1, PlanSpace::Bushy, Objective::Single)
            .expect("c");
        assert_eq!(
            svc.open_flights(),
            3,
            "three distinct identities, three flights"
        );
        assert_eq!(svc.coalesce_stats().saved_optimizations, 0);
        for handle in [a, b, c] {
            svc.wait(handle).expect("redeems");
        }
        svc.shutdown();
    }

    /// Dropping the leader mid-flight promotes the oldest follower: the
    /// flight keeps running and the follower redeems the exact result.
    #[test]
    fn dropped_leader_promotes_follower() {
        let mut svc = OptimizerService::spawn(ServiceConfig::with_coalescing(3)).expect("spawn");
        let q = query(6, 29);
        let leader = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .expect("leader");
        let follower = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .expect("follower");
        drop(leader);
        let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans[0]
            .cost()
            .time;
        let plans = svc.wait(follower).expect("promoted follower redeems");
        assert!(bit_eq(plans[0].cost().time, reference));
        assert_eq!(svc.open_flights(), 0);
        svc.shutdown();
    }

    /// Dropping every member reaps the flight: the shared session ticket
    /// is released and the session is freed, not orphaned.
    #[test]
    fn dropped_coalition_reaps_the_flight() {
        let mut svc = OptimizerService::spawn(ServiceConfig::with_coalescing(3)).expect("spawn");
        let q = query(6, 30);
        let handles: Vec<ServiceHandle> = (0..3)
            .map(|_| {
                svc.submit(&q, PlanSpace::Linear, Objective::Single)
                    .expect("submit")
            })
            .collect();
        assert_eq!(svc.open_flights(), 1);
        drop(handles);
        // The next service call detaches the members, drops the shared
        // ticket, and pokes the MPQ service's own reaping.
        let other = query(5, 31);
        let live = svc
            .submit(&other, PlanSpace::Linear, Objective::Single)
            .expect("service still serves after the coalition vanished");
        assert_eq!(svc.open_flights(), 1, "only the live flight remains");
        svc.wait(live).expect("live session completes");
        assert_eq!(svc.open_flights(), 0);
        assert_eq!(svc.in_flight(), 0, "no orphaned session");
        svc.shutdown();
    }

    /// Coalesced handle misuse is typed like every other handle: double
    /// redemption and foreign services yield `UnknownHandle`.
    #[test]
    fn coalesced_handle_misuse_is_typed() {
        let mut svc = OptimizerService::spawn(ServiceConfig::with_coalescing(1)).expect("spawn");
        let q = query(5, 32);
        let handle = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .expect("submit");
        let mut polled = false;
        for _ in 0..10_000 {
            match svc.poll(&handle) {
                Some(r) => {
                    r.expect("completes");
                    polled = true;
                    break;
                }
                None => std::thread::sleep(std::time::Duration::from_micros(100)),
            }
        }
        assert!(polled);
        // A spent handle polls as `None` whether or not it was coalesced
        // (`handle_misuse_is_typed` pins the plain case):
        // one handle type, one spent-handle answer.
        assert!(svc.poll(&handle).is_none());
        assert!(matches!(
            svc.wait(handle),
            Err(MpqError::UnknownHandle { .. })
        ));
        // A coalesced handle presented to a non-coalescing service, and to
        // a different coalescing instance.
        let mut coalescing =
            OptimizerService::spawn(ServiceConfig::with_coalescing(1)).expect("spawn");
        let mut plain = OptimizerService::spawn(ServiceConfig::new(1)).expect("spawn");
        let foreign = coalescing
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .expect("submit");
        assert!(matches!(
            plain.poll(&foreign),
            Some(Err(MpqError::UnknownHandle { .. }))
        ));
        let own = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .expect("submit");
        assert!(matches!(
            svc.poll(&foreign),
            Some(Err(MpqError::UnknownHandle { .. }))
        ));
        assert!(svc.wait(own).is_ok(), "own handle still redeems");
        assert!(matches!(
            plain.wait(foreign),
            Err(MpqError::UnknownHandle { .. })
        ));
        svc.shutdown();
        coalescing.shutdown();
        plain.shutdown();
    }

    #[test]
    fn concurrent_submissions_resolve_in_any_order() {
        let mut svc = OptimizerService::spawn(ServiceConfig::new(4)).unwrap();
        let queries: Vec<Query> = (0..8).map(|s| query(5 + (s as usize % 3), s)).collect();
        let handles: Vec<ServiceHandle> = queries
            .iter()
            .map(|q| svc.submit(q, PlanSpace::Linear, Objective::Single).unwrap())
            .collect();
        for (q, handle) in queries.iter().zip(handles).rev() {
            let plans = svc.wait(handle).expect("completes");
            let reference = optimize_serial(q, PlanSpace::Linear, Objective::Single).plans[0]
                .cost()
                .time;
            assert!(bit_eq(plans[0].cost().time, reference));
        }
        svc.shutdown();
    }
}
