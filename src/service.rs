//! The persistent optimizer service: one long-lived backend multiplexing
//! many concurrent optimization requests.
//!
//! [`OptimizerService`] is the facade the rest of the system talks to: it
//! is spawned once, holds its backend resident (for MPQ and SMA that
//! means a standing shared-nothing cluster), and streams queries through
//! `submit` → [`ServiceHandle`] → `poll`/`wait`. The [`Optimizer`] trait
//! is the unified blocking view of the same service — "submit one query,
//! wait" — implemented uniformly for every backend: the serial bottom-up
//! DP, the memoized top-down enumerator, parallel MPQ and the SMA
//! baseline. There is exactly one code path per backend; single-query
//! and streaming callers differ only in when they wait.
//!
//! The handle lifecycle itself — one handle type, admission, parking,
//! reaping, exactly-once redemption — is [`mpq_cluster::session`]'s for
//! every backend: the cluster backends are a
//! [`SessionService`](mpq_cluster::SessionService) each, and the
//! single-node backends, which complete every query at submission and
//! have no transport, park their results in a bare
//! [`SessionTable`]. Their in-flight count never exceeds zero, so
//! admission ([`ServiceConfig::max_in_flight`]) never refuses them.
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
//! single backend ticket, so dropping any member — leader included —
//! merely detaches it; the oldest surviving member is implicitly the new
//! leader, and only when the whole coalition is dropped is the flight
//! reaped through the regular abandoned-handle machinery.
//!
//! **The result cache** ([`ServiceConfig::cache_bytes`]) is the one
//! cross-query cache of every backend: a byte-budgeted LRU of finished
//! results under the same key, a [`PlanCache`]. `submit` probes it before
//! the engine, and a hit is a flight resolved at birth with one member —
//! it sends no message, takes no admission budget, and redeems, polls and
//! drops like any other handle. A result is offered to the cache when its
//! flight is first redeemed, and only if it is `Ok`. While the budget has
//! room every offer is admitted; once it is full, a result is admitted on
//! its key's second offer, evicting the LRU entry, and a first offer is
//! declined and only remembered (see [`MemoCache`](mpq_plan::MemoCache)) —
//! so a query seen once never displaces results that repeat, and
//! [`CacheStats::declined`] counts the refusals. A hit is the answer the
//! backend would give now: a single-objective answer is the serial
//! optimum under any cut, and a multi-objective frontier's cut is fixed
//! within one service by the table count, the plan space and the
//! resident worker count.

// A server facade must never abort on caller error: every unwrap/expect
// on this path is either removed or individually justified.

use crate::dp::{optimize_partition_topdown, optimize_serial, result_key, PlanCache};
use crate::mpq::{MpqConfig, MpqError, MpqService};
use crate::plan::Plan;
use crate::sma::{SmaConfig, SmaError, SmaService};
use mpq_cluster::{
    LifecycleError, NetworkMetrics, QueryHandle, SessionTable, SocketTransport, Transport,
};
use mpq_cost::Objective;
use mpq_model::Query;
use mpq_partition::{partition_constraints, PlanSpace};
use mpq_plan::{CacheKey, CacheStats, CacheWeight};
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::fmt;

/// Which optimizer engine a service runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// Serial bottom-up dynamic programming (the single-node reference).
    SerialDp,
    /// Memoized top-down (Volcano-style) enumeration, single node.
    TopDown,
    /// Parallel MPQ over a resident shared-nothing cluster (the paper's
    /// algorithm; the default).
    #[default]
    Mpq,
    /// The SMA replicated-memo baseline over a resident cluster.
    Sma,
}

impl Backend {
    /// Every backend, in reference-first order.
    pub const ALL: [Backend; 4] = [
        Backend::SerialDp,
        Backend::TopDown,
        Backend::Mpq,
        Backend::Sma,
    ];

    /// Stable name, as accepted by the CLI's `--backend` flag.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::SerialDp => "serial",
            Backend::TopDown => "topdown",
            Backend::Mpq => "mpq",
            Backend::Sma => "sma",
        }
    }
}

/// Configuration of an [`OptimizerService`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceConfig {
    /// The engine to keep resident.
    pub backend: Backend,
    /// Worker nodes of the resident cluster (ignored by the single-node
    /// backends). Zero means "pick a default" (8).
    pub workers: usize,
    /// MPQ backend configuration (faults, retry policy, the steal switch).
    pub mpq: MpqConfig,
    /// SMA backend configuration (faults, receive timeout).
    pub sma: SmaConfig,
    /// Byte budget of the service's **cross-query result cache** — the one
    /// cache, whatever the backend: an LRU that, once full, admits a
    /// result on its second offer; see the module docs. `0` (the default)
    /// disables it — bit-for-bit the uncached behavior.
    pub cache_bytes: usize,
    /// **Admission limit**: most sessions the cluster backends keep in
    /// flight at once. Submissions beyond it fail with
    /// [`ServiceError::Overloaded`]. `0` (the default) means unlimited —
    /// bit-for-bit the pre-admission behavior. Coalesced followers join
    /// an already-admitted flight and therefore never consume admission
    /// budget.
    pub max_in_flight: usize,
    /// **In-flight coalescing**: when enabled, concurrent submissions
    /// with the same canonical identity (see the module docs) share one
    /// backend optimization. Disabled by default — bit-for-bit the
    /// uncoalesced behavior.
    pub coalesce: bool,
}

impl ServiceConfig {
    /// A service over `backend` with `workers` resident workers and
    /// default engine configuration.
    pub fn new(backend: Backend, workers: usize) -> ServiceConfig {
        ServiceConfig {
            backend,
            workers,
            ..ServiceConfig::default()
        }
    }

    /// Same service with a cross-query cache budget.
    pub fn with_cache(backend: Backend, workers: usize, cache_bytes: usize) -> ServiceConfig {
        ServiceConfig {
            cache_bytes,
            ..ServiceConfig::new(backend, workers)
        }
    }

    /// Same service with a bounded in-flight budget (`0` = unlimited).
    pub fn with_admission(backend: Backend, workers: usize, max_in_flight: usize) -> ServiceConfig {
        ServiceConfig {
            max_in_flight,
            ..ServiceConfig::new(backend, workers)
        }
    }

    /// Same service with in-flight coalescing of identical submissions.
    pub fn with_coalescing(backend: Backend, workers: usize) -> ServiceConfig {
        ServiceConfig {
            coalesce: true,
            ..ServiceConfig::new(backend, workers)
        }
    }
}

/// Typed failure of one service request. Handle-lifecycle misuse —
/// redeeming a handle twice, or presenting a handle some other service
/// minted — is part of the contract: it maps to
/// [`ServiceError::UnknownHandle`], never to a panic.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// The MPQ backend failed.
    Mpq(MpqError),
    /// The SMA backend failed.
    Sma(SmaError),
    /// The handle does not name a live or parked request of this service:
    /// its result was already taken (poll-then-wait, double-wait), or it
    /// came from another service instance — whichever backend that one
    /// runs.
    UnknownHandle,
    /// The request can never be served: a query with no tables or more
    /// than a table set holds, or a transport offered to a single-node
    /// backend.
    BadRequest {
        /// What was wrong with the request.
        reason: &'static str,
    },
    /// The service's in-flight budget ([`ServiceConfig::max_in_flight`])
    /// is spent: `in_flight` sessions are live at the admission `limit`.
    /// Retry after redeeming or dropping a handle, or park on
    /// [`OptimizerService::submit_wait`] instead.
    Overloaded {
        /// Sessions in flight when the submission was refused.
        in_flight: usize,
        /// The configured admission limit.
        limit: usize,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Mpq(e) => write!(f, "MPQ backend: {e}"),
            ServiceError::Sma(e) => write!(f, "SMA backend: {e}"),
            ServiceError::UnknownHandle => write!(
                f,
                "handle does not name a live or parked request of this service \
                 (already redeemed, or from a different service)"
            ),
            ServiceError::BadRequest { reason } => write!(f, "malformed request: {reason}"),
            ServiceError::Overloaded { in_flight, limit } => write!(
                f,
                "service overloaded: {in_flight} session(s) in flight at the \
                 admission limit of {limit}"
            ),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Mpq(e) => Some(e),
            ServiceError::Sma(e) => Some(e),
            ServiceError::UnknownHandle
            | ServiceError::BadRequest { .. }
            | ServiceError::Overloaded { .. } => None,
        }
    }
}

impl From<LifecycleError> for ServiceError {
    fn from(e: LifecycleError) -> Self {
        match e {
            LifecycleError::UnknownHandle { .. } => ServiceError::UnknownHandle,
            LifecycleError::Overloaded { in_flight, limit } => {
                ServiceError::Overloaded { in_flight, limit }
            }
            LifecycleError::BadRequest { reason } => ServiceError::BadRequest { reason },
        }
    }
}

impl From<MpqError> for ServiceError {
    fn from(e: MpqError) -> Self {
        match e {
            // Handle misuse, malformed requests and admission refusals are
            // service-level contracts, not backend failures: surface them
            // uniformly across backends.
            MpqError::UnknownHandle { .. } => ServiceError::UnknownHandle,
            MpqError::BadRequest { reason } => ServiceError::BadRequest { reason },
            MpqError::Overloaded { in_flight, limit } => {
                ServiceError::Overloaded { in_flight, limit }
            }
            e => ServiceError::Mpq(e),
        }
    }
}

impl From<SmaError> for ServiceError {
    fn from(e: SmaError) -> Self {
        match e {
            SmaError::UnknownHandle { .. } => ServiceError::UnknownHandle,
            SmaError::BadRequest { reason } => ServiceError::BadRequest { reason },
            SmaError::Overloaded { in_flight, limit } => {
                ServiceError::Overloaded { in_flight, limit }
            }
            e => ServiceError::Sma(e),
        }
    }
}

/// Ticket for one submitted request; redeem with
/// [`OptimizerService::wait`] or check with [`OptimizerService::poll`].
/// Whatever the backend, and coalesced or not, it is the one
/// [`QueryHandle`]: dropping it unredeemed abandons the request.
#[must_use = "redeem the handle with `wait`/`poll`, or drop it explicitly to abandon the query"]
#[derive(Debug)]
pub struct ServiceHandle(QueryHandle);

/// A long-lived optimizer service; see the module docs.
pub struct OptimizerService {
    backend: Backend,
    engine: Engine,
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
    /// Backend optimizations avoided: one per follower that joined an
    /// in-flight leader instead of submitting its own session.
    pub saved_optimizations: u64,
}

/// One flight: members sharing a single backend ticket and, once
/// resolved, a single result handed to each member.
struct Flight {
    /// Canonical identity, held until resolution: a coalescing service
    /// indexes the unresolved flight under it in `open`, and the result
    /// enters the cache under it. A cache hit is born resolved, keyless.
    key: Option<CacheKey>,
    /// The one backend ticket the members share; taken (and dropped) at
    /// resolution or when every member detaches. A hit never has one.
    ticket: Option<QueryHandle>,
    /// The outcome once resolved, handed to each member.
    result: Option<Result<Vec<Plan>, ServiceError>>,
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
    /// take a cached result, or lead a new flight through the backend
    /// (honoring admission; `park` selects `submit_wait` semantics).
    fn submit(
        &mut self,
        engine: &mut Engine,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
        park: bool,
    ) -> Result<QueryHandle, ServiceError> {
        self.detach_abandoned(engine);
        let key = result_key(query, space, objective);
        // An open flight's key is never cached (a result enters the cache
        // only when its flight resolves, which closes it), so looking for
        // a flight to join first is probing the cache first — and a
        // follower counts as coalesced, not as a miss.
        let open = self.open.get(&key).copied();
        let fid = match open.and_then(|fid| Some((fid, self.flights.get_mut(&fid)?))) {
            // Join: no backend submission, so no admission budget is
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
                    if let Some(net) = engine.metrics() {
                        net.record_cache_hit(plans.weight_bytes() as u64);
                    }
                    self.push(None, None, Some(Ok(plans)))
                }
                // Lead a new flight. A refusal (admission, bad request)
                // propagates typed and leaves no flight state behind.
                None => {
                    if let (true, Some(net)) = (self.cache.is_enabled(), engine.metrics()) {
                        net.record_cache_miss();
                    }
                    let ticket = engine.submit(query, space, objective, park)?;
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
        result: Option<Result<Vec<Plan>, ServiceError>>,
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
    /// every member left is reaped: its backend ticket, if it still holds
    /// one, is dropped (queueing the session for the backend's own
    /// reaping, which frees parked results — and, for SMA, aborts the
    /// session so its replicas are freed) and the backend is poked to
    /// reap immediately.
    fn detach_abandoned(&mut self, engine: &mut Engine) {
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
                    // Dropping the ticket pushes it onto the backend's
                    // abandoned list.
                    if let Some(ticket) = flight.ticket {
                        drop(ticket);
                        reaped = true;
                    }
                }
            }
        });
        if reaped {
            engine.reap();
        }
    }

    /// Hands the member behind `handle` the flight's result — exactly
    /// once — first resolving the flight through the shared backend
    /// ticket: blocking on it (`block`), or only if it already finished.
    /// `None`: still in progress, or — as on every other handle — the
    /// member was already delivered.
    fn redeem(
        &mut self,
        engine: &mut Engine,
        handle: &QueryHandle,
        block: bool,
    ) -> Option<Result<Vec<Plan>, ServiceError>> {
        // A membership ticket from another service instance: reject before
        // any lookup (raw member ids may collide).
        if let Err(foreign) = self.members.owns(handle) {
            return Some(Err(foreign.into()));
        }
        self.detach_abandoned(engine);
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
            return Some(Err(ServiceError::UnknownHandle));
        };
        if flight.result.is_none() {
            // Any member's poll or wait drives the shared ticket.
            let ticket = flight.ticket.take()?;
            let result = if block {
                engine.wait(ticket)
            } else {
                match engine.poll(&ticket) {
                    // The spent ticket drops here, queueing a no-op reap
                    // entry on the backend.
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

/// The two single-node backends an [`Engine::Immediate`] can run. A
/// dedicated enum (rather than reusing [`Backend`]) makes the submit-time
/// dispatch exhaustive: there is no cluster-backend case to rule out.
#[derive(Clone, Copy)]
enum ImmediateBackend {
    SerialDp,
    TopDown,
}

enum Engine {
    /// The single-node backends answer at submission time; results are
    /// parked until their handle is redeemed, so the submit/poll/wait
    /// protocol is uniform across backends.
    Immediate {
        backend: ImmediateBackend,
        /// No session is ever live here (hence `Infallible`): the table
        /// is the handle discipline and the result park.
        results: SessionTable<Infallible, Vec<Plan>>,
    },
    Mpq(MpqService),
    Sma(SmaService),
}

impl Engine {
    /// A fresh single-node engine with an empty result park.
    fn immediate(backend: ImmediateBackend) -> Engine {
        Engine::Immediate {
            backend,
            results: SessionTable::new(0),
        }
    }

    /// The resident plane's counters; `None` on the single-node backends.
    fn metrics(&self) -> Option<&NetworkMetrics> {
        match self {
            Engine::Immediate { .. } => None,
            Engine::Mpq(svc) => Some(svc.metrics()),
            Engine::Sma(svc) => Some(svc.metrics()),
        }
    }

    /// One backend submission. `park` selects the cluster backends'
    /// `submit_wait` (block at the admission limit instead of refusing);
    /// the single-node backends solve the query on the spot either way
    /// and never refuse a well-formed one.
    fn submit(
        &mut self,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
        park: bool,
    ) -> Result<QueryHandle, ServiceError> {
        Ok(match self {
            Engine::Immediate { backend, results } => {
                results.reap(|_, never| match never {});
                results.admit(query, objective)?;
                let plans = match backend {
                    ImmediateBackend::SerialDp => optimize_serial(query, space, objective).plans,
                    ImmediateBackend::TopDown => {
                        let whole = partition_constraints(query.num_tables(), space, 0, 1);
                        optimize_partition_topdown(query, space, objective, &whole).plans
                    }
                };
                let id = results.mint();
                results.park(id, plans);
                results.handle(id)
            }
            Engine::Mpq(svc) if park => svc.submit_wait(query, space, objective)?,
            Engine::Mpq(svc) => svc.submit(query, space, objective)?,
            Engine::Sma(svc) if park => svc.submit_wait(query, space, objective)?,
            Engine::Sma(svc) => svc.submit(query, space, objective)?,
        })
    }

    /// Non-blocking redemption of one backend handle (a plain request's,
    /// or a coalesced flight's shared ticket).
    fn poll(&mut self, handle: &QueryHandle) -> Option<Result<Vec<Plan>, ServiceError>> {
        match self {
            Engine::Immediate { results, .. } => {
                if let Err(foreign) = results.owns(handle) {
                    return Some(Err(foreign.into()));
                }
                results.reap(|_, never| match never {});
                results.redeem(handle.id()).map(Ok)
            }
            Engine::Mpq(svc) => svc
                .poll(handle)
                .map(|r| r.map(|o| o.plans).map_err(Into::into)),
            Engine::Sma(svc) => svc
                .poll(handle)
                .map(|r| r.map(|o| o.plans).map_err(Into::into)),
        }
    }

    /// Blocking redemption of one backend handle.
    fn wait(&mut self, handle: QueryHandle) -> Result<Vec<Plan>, ServiceError> {
        match self {
            Engine::Immediate { results, .. } => {
                results.owns(&handle)?;
                results.reap(|_, never| match never {});
                // A missing id means the result was already delivered
                // through `poll`: typed, not a panic.
                results
                    .redeem(handle.id())
                    .ok_or(ServiceError::UnknownHandle)
            }
            Engine::Mpq(svc) => svc.wait(handle).map(|o| o.plans).map_err(Into::into),
            Engine::Sma(svc) => svc.wait(handle).map(|o| o.plans).map_err(Into::into),
        }
    }

    /// Frees what dropped handles left behind (session state and parked
    /// results; for SMA it also aborts sessions to free replicas).
    fn reap(&mut self) {
        match self {
            Engine::Immediate { results, .. } => results.reap(|_, never| match never {}),
            Engine::Mpq(svc) => svc.reap_abandoned(),
            Engine::Sma(svc) => svc.reap_abandoned(),
        }
    }
}

/// The single-node backends never leave the master process.
const NO_TRANSPORT: ServiceError = ServiceError::BadRequest {
    reason: "a transport requires a cluster backend (mpq or sma)",
};

impl OptimizerService {
    /// Brings the service up: for the cluster backends this spawns the
    /// resident worker threads that all subsequent queries share.
    pub fn spawn(config: ServiceConfig) -> Result<OptimizerService, ServiceError> {
        let workers = if config.workers == 0 {
            8
        } else {
            config.workers
        };
        let engine = match config.backend {
            Backend::SerialDp => Engine::immediate(ImmediateBackend::SerialDp),
            Backend::TopDown => Engine::immediate(ImmediateBackend::TopDown),
            Backend::Mpq => Engine::Mpq(MpqService::spawn(workers, config.mpq)?),
            Backend::Sma => Engine::Sma(SmaService::spawn(workers, config.sma)?),
        };
        Ok(OptimizerService::over(config, engine))
    }

    /// Builds the service over already-running worker **processes**
    /// reached at `addrs`: [`SocketTransport::connect`] followed by
    /// [`OptimizerService::with_transport`].
    pub fn connect(
        config: ServiceConfig,
        addrs: &[mpq_cluster::WorkerAddr],
    ) -> Result<OptimizerService, ServiceError> {
        let wrap: fn(mpq_cluster::ClusterError) -> ServiceError = match config.backend {
            // Refused before dialing anyone.
            Backend::SerialDp | Backend::TopDown => return Err(NO_TRANSPORT),
            Backend::Mpq => |e| ServiceError::Mpq(MpqError::Cluster(e)),
            Backend::Sma => |e| ServiceError::Sma(SmaError::Cluster(e)),
        };
        let transport = SocketTransport::connect(addrs).map_err(wrap)?;
        OptimizerService::with_transport(config, Box::new(transport))
    }

    /// Builds the service over an already-connected message plane — any
    /// [`Transport`] implementation, with worker nodes hosted behind it.
    /// This is how the schedule-space model checker places the whole
    /// facade (admission, coalescing, the MPQ or SMA scheduler) under a
    /// controllable transport whose delivery order it enumerates. Only
    /// the cluster backends make sense here — `serial-dp` and `top-down`
    /// never leave the master process, so asking for them is a typed
    /// [`ServiceError::BadRequest`], not a silent fallback.
    pub fn with_transport(
        config: ServiceConfig,
        transport: Box<dyn Transport>,
    ) -> Result<OptimizerService, ServiceError> {
        let engine = match config.backend {
            Backend::SerialDp | Backend::TopDown => return Err(NO_TRANSPORT),
            Backend::Mpq => Engine::Mpq(MpqService::with_transport(transport, config.mpq)?),
            Backend::Sma => Engine::Sma(SmaService::with_transport(transport, config.sma)?),
        };
        Ok(OptimizerService::over(config, engine))
    }

    fn over(config: ServiceConfig, mut engine: Engine) -> OptimizerService {
        // The one admission limit goes to the engine this service built;
        // the single-node engines never have a session in flight.
        match &mut engine {
            Engine::Immediate { .. } => {}
            Engine::Mpq(svc) => svc.set_max_in_flight(config.max_in_flight),
            Engine::Sma(svc) => svc.set_max_in_flight(config.max_in_flight),
        }
        let flights = config.coalesce || config.cache_bytes > 0;
        OptimizerService {
            backend: config.backend,
            engine,
            flights: flights.then(|| Flights::new(config.coalesce, config.cache_bytes)),
        }
    }

    /// The engine this service keeps resident.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Submits one optimization request and returns immediately with a
    /// handle; cluster backends dispatch their task messages before
    /// returning, single-node backends solve the query on the spot. With
    /// coalescing enabled, a submission identical to an unresolved flight
    /// joins it instead of reaching the backend; with the result cache
    /// enabled, one identical to a finished query is answered from the
    /// cache and sends nothing. A query no backend can optimize (no
    /// tables, or more than 64) is a typed [`ServiceError::BadRequest`]
    /// before anything is sent or computed.
    pub fn submit(
        &mut self,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
    ) -> Result<ServiceHandle, ServiceError> {
        self.submit_with(query, space, objective, false)
    }

    /// Like [`submit`](OptimizerService::submit), but instead of failing
    /// with [`ServiceError::Overloaded`] at the admission limit it parks
    /// on the backend's blocking scheduler step — draining completions
    /// and suspicion checks — until capacity frees, then submits. On the
    /// single-node backends (which never refuse) this is plain `submit`.
    pub fn submit_wait(
        &mut self,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
    ) -> Result<ServiceHandle, ServiceError> {
        self.submit_with(query, space, objective, true)
    }

    fn submit_with(
        &mut self,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
        park: bool,
    ) -> Result<ServiceHandle, ServiceError> {
        let engine = &mut self.engine;
        let handle = match &mut self.flights {
            Some(f) => f.submit(engine, query, space, objective, park)?,
            None => engine.submit(query, space, objective, park)?,
        };
        Ok(ServiceHandle(handle))
    }

    /// Non-blocking check; returns the plans once the request has
    /// finished. A result is delivered exactly once per handle; after
    /// `Some`, the handle is spent and polls as `None`. Polling any
    /// member of a coalesced flight drives the shared backend ticket;
    /// once resolved, every member redeems a clone of the same result.
    pub fn poll(&mut self, handle: &ServiceHandle) -> Option<Result<Vec<Plan>, ServiceError>> {
        // With a flight table every handle is a membership ticket; a
        // handle minted anywhere else fails the owner's instance-tag
        // check either way.
        match &mut self.flights {
            Some(f) => f.redeem(&mut self.engine, &handle.0, false),
            None => self.engine.poll(&handle.0),
        }
    }

    /// Blocks until the request finishes (driving every other in-flight
    /// request of the same service meanwhile) and returns its optimal
    /// plan(s): one plan for single-objective runs, the Pareto frontier
    /// otherwise.
    pub fn wait(&mut self, handle: ServiceHandle) -> Result<Vec<Plan>, ServiceError> {
        match &mut self.flights {
            // `None`: the member was already delivered (poll-then-wait,
            // double-wait). `handle` drops on return; its abandoned-list
            // entry is a no-op because the member is gone by then.
            Some(f) => f
                .redeem(&mut self.engine, &handle.0, true)
                .unwrap_or(Err(ServiceError::UnknownHandle)),
            None => self.engine.wait(handle.0),
        }
    }

    /// Sessions the backend currently has in flight (submitted but not
    /// yet finished). The single-node backends complete at submission, so
    /// they always report zero; parked-but-unredeemed results never count.
    pub fn in_flight(&self) -> usize {
        match &self.engine {
            Engine::Immediate { results, .. } => results.live.len(),
            Engine::Mpq(svc) => svc.in_flight(),
            Engine::Sma(svc) => svc.in_flight(),
        }
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

    /// The cluster backends' network metrics snapshot (message/fault/
    /// steal counters, and the result cache's hit/miss counters);
    /// `None` on the single-node backends, which have no network.
    pub fn network_snapshot(&self) -> Option<mpq_cluster::NetworkSnapshot> {
        self.engine.metrics().map(NetworkMetrics::snapshot)
    }

    /// Shuts the service down, joining any resident worker threads.
    pub fn shutdown(self) {
        match self.engine {
            Engine::Immediate { .. } => {}
            Engine::Mpq(svc) => svc.shutdown(),
            Engine::Sma(svc) => svc.shutdown(),
        }
    }

    /// Counters of the service's result cache, exact on every backend
    /// (entries and bytes included); all zero while it is disabled.
    pub fn cache_stats(&self) -> CacheStats {
        self.flights
            .as_ref()
            .map(|f| f.cache.stats())
            .unwrap_or_default()
    }
}

/// The unified blocking interface over every backend: submit one query,
/// wait for its plans.
pub trait Optimizer {
    /// Stable engine name (for reports and CLI output).
    fn name(&self) -> &'static str;

    /// Optimizes one query to completion, returning the optimal plan(s).
    fn optimize(
        &mut self,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
    ) -> Result<Vec<Plan>, ServiceError>;

    /// Counters of the engine's cross-query result cache. Engines without
    /// a cache report all-zero stats (the default).
    fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }
}

impl Optimizer for OptimizerService {
    fn name(&self) -> &'static str {
        self.backend.name()
    }

    fn optimize(
        &mut self,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
    ) -> Result<Vec<Plan>, ServiceError> {
        let handle = self.submit(query, space, objective)?;
        self.wait(handle)
    }

    fn cache_stats(&self) -> CacheStats {
        OptimizerService::cache_stats(self)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

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

    #[test]
    fn every_backend_answers_through_the_unified_trait() {
        let q = query(6, 3);
        let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans[0]
            .cost()
            .time;
        for backend in Backend::ALL {
            let mut svc = OptimizerService::spawn(ServiceConfig::new(backend, 4)).expect("spawn");
            assert_eq!(svc.name(), backend.name());
            let plans = svc
                .optimize(&q, PlanSpace::Linear, Objective::Single)
                .expect("optimize");
            assert!(
                bit_eq(plans[0].cost().time, reference),
                "backend {} disagrees with the serial reference",
                backend.name()
            );
            svc.shutdown();
        }
    }

    #[test]
    fn immediate_backends_honor_the_handle_protocol() {
        let q = query(5, 4);
        let mut svc = OptimizerService::spawn(ServiceConfig::new(Backend::SerialDp, 1)).unwrap();
        let handle = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .unwrap();
        let plans = svc.poll(&handle).expect("immediate").expect("no error");
        assert_eq!(plans.len(), 1);
        assert!(svc.poll(&handle).is_none(), "results deliver exactly once");
        svc.shutdown();
    }

    /// A plan list as its cost bits, in answer order.
    fn cost_bits(plans: &[Plan]) -> Vec<(u64, u64)> {
        plans
            .iter()
            .map(|p| (p.cost().time.to_bits(), p.cost().buffer.to_bits()))
            .collect()
    }

    /// The cluster backends' message and byte totals; `None` on the
    /// single-node backends.
    fn wire_totals(svc: &OptimizerService) -> Option<(u64, u64)> {
        svc.network_snapshot()
            .map(|net| (net.messages, net.total_bytes()))
    }

    /// On every backend a repeated query redeems the first answer —
    /// single-objective plans and Pareto frontiers equal by `to_bits` —
    /// with exact counters, and on the cluster backends the hit moves
    /// neither the message nor the byte total.
    #[test]
    fn cached_service_reports_hits_and_stays_transparent() {
        let q = query(6, 8);
        for backend in Backend::ALL {
            for objective in [Objective::Single, Objective::Multi { alpha: 2.0 }] {
                let config = ServiceConfig::with_cache(backend, 3, 1 << 20);
                let mut svc = OptimizerService::spawn(config).expect("spawn");
                let cold = svc.optimize(&q, PlanSpace::Linear, objective).unwrap();
                let sent = wire_totals(&svc);
                let warm = svc.optimize(&q, PlanSpace::Linear, objective).unwrap();
                let ctx = format!("backend {} {objective:?}", backend.name());
                assert_eq!(cost_bits(&warm), cost_bits(&cold), "{ctx}");
                assert_eq!(warm, cold, "{ctx}: the hit is the first answer");
                assert_eq!(wire_totals(&svc), sent, "{ctx}: a hit sends nothing");
                let stats = Optimizer::cache_stats(&svc);
                let counted = (stats.hits, stats.misses, stats.entries);
                assert_eq!(counted, (1, 1, 1), "{ctx}");
                assert!(stats.bytes > 0 && stats.bytes_saved == stats.bytes, "{ctx}");
                if let Some(net) = svc.network_snapshot() {
                    let counted = (net.cache_hits, net.cache_misses, net.cache_bytes_saved);
                    assert_eq!(counted, (1, 1, stats.bytes_saved), "{ctx}");
                }
                svc.shutdown();
            }
        }
    }

    #[test]
    fn uncached_service_reports_zero_stats() {
        let mut svc =
            OptimizerService::spawn(ServiceConfig::new(Backend::SerialDp, 1)).expect("spawn");
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
        for backend in Backend::ALL {
            let config = ServiceConfig::with_cache(backend, 2, 1 << 20);
            let mut svc = OptimizerService::spawn(config).expect("spawn");
            let cold = svc.optimize(&q, PlanSpace::Linear, Objective::Single);
            let hit = svc.submit(&q, PlanSpace::Linear, Objective::Single);
            let hit = hit.expect("a hit");
            assert_eq!(svc.poll(&hit), Some(cold), "backend {}", backend.name());
            drop(svc.submit(&q, PlanSpace::Linear, Objective::Single));
            assert_eq!(svc.open_flights(), 1, "backend {}", backend.name());
            // The next call reaps the dropped member, and its flight.
            svc.optimize(&query(5, 27), PlanSpace::Linear, Objective::Single)
                .expect("a fresh query");
            assert_eq!(svc.open_flights(), 0, "backend {}", backend.name());
            assert_eq!(svc.in_flight(), 0, "backend {}", backend.name());
            svc.shutdown();
        }
    }

    /// Moved onto the facade's result cache, over real sockets: an SMA
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
                crate::sma::serve_socket_worker(&listener)
            }));
        }
        let config = ServiceConfig::with_cache(Backend::Sma, 2, 1 << 20);
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
        let weight = optimize_serial(&hot[0], PlanSpace::Linear, Objective::Single)
            .plans
            .weight_bytes();
        const ROUNDS: u64 = 8;
        for backend in Backend::ALL {
            let ctx = format!("backend {}", backend.name());
            let config = ServiceConfig::with_cache(backend, 2, 2 * weight + weight / 2);
            let mut svc = OptimizerService::spawn(config).expect("spawn");
            let mut uncached = OptimizerService::spawn(ServiceConfig::new(backend, 2)).unwrap();
            for round in 0..ROUNDS {
                let scan = query(5, 100 + round);
                for q in [&hot[0], &hot[1], &scan] {
                    let got = svc.optimize(q, PlanSpace::Linear, Objective::Single);
                    let want = uncached.optimize(q, PlanSpace::Linear, Objective::Single);
                    assert_eq!(cost_bits(&got.unwrap()), cost_bits(&want.unwrap()), "{ctx}");
                }
            }
            let stats = svc.cache_stats();
            // The hot pair misses once each, then hits every round after.
            assert_eq!(stats.hits, 2 * (ROUNDS - 1), "{ctx}");
            assert_eq!(stats.misses, 2 + ROUNDS, "{ctx}");
            assert_eq!((stats.declined, stats.evictions), (ROUNDS, 0), "{ctx}");
            assert_eq!(stats.entries, 2, "{ctx}");
            svc.shutdown();
            uncached.shutdown();
        }
    }

    /// With the cache and coalescing both off there is no flight table,
    /// no key and no cache traffic on any backend.
    #[test]
    fn caching_disabled_reports_no_cache_traffic() {
        let q = query(6, 22);
        for backend in Backend::ALL {
            let mut svc = OptimizerService::spawn(ServiceConfig::new(backend, 2)).expect("spawn");
            for _ in 0..2 {
                svc.optimize(&q, PlanSpace::Linear, Objective::Single)
                    .expect("run");
            }
            assert!(svc.flights.is_none(), "backend {}", backend.name());
            assert_eq!(svc.cache_stats(), CacheStats::default());
            if let Some(net) = svc.network_snapshot() {
                assert_eq!((net.cache_hits, net.cache_misses), (0, 0));
            }
            svc.shutdown();
        }
    }

    /// Cache × coalescing, each on and off: an in-flight duplicate joins
    /// its flight (coalescing) or goes to the backend (not coalescing);
    /// a finished duplicate hits (cache) or goes to the backend (no
    /// cache). Hits plus misses are the submissions that did not join.
    #[test]
    fn cache_and_coalescing_compose() {
        let q = query(6, 23);
        for backend in [Backend::Mpq, Backend::Sma] {
            for (cache, coalesce) in [(false, false), (true, false), (false, true), (true, true)] {
                let mut config = ServiceConfig::new(backend, 2);
                config.cache_bytes = if cache { 1 << 20 } else { 0 };
                config.coalesce = coalesce;
                let ctx = format!(
                    "backend {} cache {cache} coalesce {coalesce}",
                    backend.name()
                );
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
    }

    /// Refusals and failures are never cached: an `Overloaded` or
    /// `BadRequest` submission leaves no entry, and neither does a
    /// session that failed — resubmitting it runs it again and is served
    /// the real answer, which is then cached.
    #[test]
    fn refused_and_failed_submissions_are_never_cached() {
        let q = query(6, 24);
        let mut config = ServiceConfig::with_cache(Backend::Mpq, 2, 1 << 20);
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
            Err(ServiceError::Overloaded { .. })
        ));
        let mut bad = query(5, 25);
        bad.predicates[0].selectivity = f64::NAN;
        assert!(matches!(
            svc.submit(&bad, PlanSpace::Linear, Objective::Single),
            Err(ServiceError::BadRequest { .. })
        ));
        assert!(matches!(
            svc.wait(failed),
            Err(ServiceError::Mpq(MpqError::WorkerLost { .. }))
        ));
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

    #[test]
    fn dropped_immediate_handles_release_parked_results() {
        let mut svc =
            OptimizerService::spawn(ServiceConfig::new(Backend::SerialDp, 1)).expect("spawn");
        let q = query(5, 10);
        let handle = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .expect("submit");
        drop(handle);
        // The next call reaps it; the result for a live handle is intact.
        let live = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .expect("submit");
        let plans = svc.wait(live).expect("live handle resolves");
        assert_eq!(plans.len(), 1);
        match &svc.engine {
            Engine::Immediate { results, .. } => assert_eq!(
                results.parked_results(),
                0,
                "abandoned and redeemed results are gone"
            ),
            _ => unreachable!(),
        }
        svc.shutdown();
    }

    /// Regression (ISSUE 5 satellite): handle-lifecycle misuse on the
    /// facade is a typed error on every backend — poll-then-wait yields
    /// `UnknownHandle`, and so does a handle another service minted,
    /// whichever backend that one runs.
    #[test]
    fn handle_misuse_is_typed_on_every_backend() {
        let q = query(5, 11);
        for backend in Backend::ALL {
            let mut svc = OptimizerService::spawn(ServiceConfig::new(backend, 2)).expect("spawn");
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
            assert!(polled, "backend {}", backend.name());
            // ...then the spent handle must fail typed, not panic.
            assert_eq!(
                svc.wait(handle),
                Err(ServiceError::UnknownHandle),
                "backend {}",
                backend.name()
            );
            svc.shutdown();
        }
        // A same-backend handle from a *different service instance*: raw
        // ids collide (both count from 0), so only the instance tag can
        // tell them apart — it must, rather than redeem a foreign result.
        let mut a =
            OptimizerService::spawn(ServiceConfig::new(Backend::SerialDp, 1)).expect("spawn");
        let mut b =
            OptimizerService::spawn(ServiceConfig::new(Backend::SerialDp, 1)).expect("spawn");
        let from_a = a
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .expect("submit");
        let from_b = b
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .expect("submit");
        assert_eq!(b.poll(&from_a), Some(Err(ServiceError::UnknownHandle)));
        assert_eq!(b.wait(from_a), Err(ServiceError::UnknownHandle));
        assert!(b.wait(from_b).is_ok(), "b's own handle still redeems");
        a.shutdown();
        b.shutdown();
        // A handle minted by one backend presented to another: with one
        // handle type it is simply foreign, rejected by the instance tag
        // before any lookup.
        let mut mpq = OptimizerService::spawn(ServiceConfig::new(Backend::Mpq, 2)).expect("spawn");
        let mut serial =
            OptimizerService::spawn(ServiceConfig::new(Backend::SerialDp, 1)).expect("spawn");
        let foreign = serial
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .expect("submit");
        assert_eq!(mpq.poll(&foreign), Some(Err(ServiceError::UnknownHandle)));
        assert_eq!(mpq.wait(foreign), Err(ServiceError::UnknownHandle));
        mpq.shutdown();
        serial.shutdown();
    }

    /// Regression (ISSUE 13 satellite): a query no engine can optimize is
    /// a typed `BadRequest` at the one admission point of every backend,
    /// coalesced or not — before this, `SerialDp` panicked the caller and
    /// `Mpq` panicked (and permanently lost) resident worker 0. Nothing
    /// stays in flight, and the cluster backends keep all their workers:
    /// with retries disabled, a follow-up query completes only if every
    /// worker still answers.
    #[test]
    fn unoptimizable_queries_are_typed_errors_on_every_backend() {
        use mpq_model::{TableSet, TableStats};
        let mut empty = query(3, 13);
        empty.catalog = Default::default();
        empty.predicates.clear();
        let mut huge = query(3, 13);
        while huge.num_tables() <= TableSet::MAX_TABLES {
            huge.catalog.add_table(TableStats::with_cardinality(10.0));
        }
        let good = query(5, 13);
        for backend in Backend::ALL {
            for coalesce in [false, true] {
                let mut config = ServiceConfig::new(backend, 3);
                config.coalesce = coalesce;
                let mut svc = OptimizerService::spawn(config).expect("spawn");
                for (bad, tables) in [(&empty, 0), (&huge, 65)] {
                    assert_eq!(bad.num_tables(), tables);
                    for submitted in [
                        svc.submit(bad, PlanSpace::Linear, Objective::Single),
                        svc.submit_wait(bad, PlanSpace::Linear, Objective::Single),
                    ] {
                        assert!(
                            matches!(submitted, Err(ServiceError::BadRequest { .. })),
                            "backend {} ({tables} tables): {submitted:?}",
                            backend.name()
                        );
                    }
                }
                // ISSUE 22 satellite: so is an approximation factor the
                // pruning policy would assert on.
                for alpha in [0.5, f64::NAN, f64::INFINITY] {
                    let objective = Objective::Multi { alpha };
                    for submitted in [
                        svc.submit(&good, PlanSpace::Linear, objective),
                        svc.submit_wait(&good, PlanSpace::Linear, objective),
                    ] {
                        assert!(
                            matches!(submitted, Err(ServiceError::BadRequest { .. })),
                            "backend {} (alpha {alpha}): {submitted:?}",
                            backend.name()
                        );
                    }
                }
                assert_eq!(svc.in_flight(), 0, "backend {}", backend.name());
                assert_eq!(svc.open_flights(), 0, "backend {}", backend.name());
                if let Some(net) = svc.network_snapshot() {
                    assert_eq!(net.messages, 0, "refused before any message");
                }
                svc.optimize(&good, PlanSpace::Linear, Objective::Single)
                    .expect("no worker was lost to the bad requests");
                if let Some(net) = svc.network_snapshot() {
                    assert_eq!(net.crashes, 0, "backend {}", backend.name());
                }
                svc.shutdown();
            }
        }
    }

    /// Regression (ROADMAP 5b): statistics no catalog can have — NaN, ±∞
    /// or negative cardinality, tuple width or join domain; a selectivity
    /// that is NaN, ≤ 0 or > 1 — are a typed `BadRequest` at admission on
    /// every backend, coalesced or not, before any message is sent: their
    /// NaN plan times would let the answer depend on a load-chosen cut.
    #[test]
    fn impossible_statistics_are_refused_on_every_backend() {
        let good = query(5, 14);
        let mut bad = Vec::new();
        for value in [f64::NAN, f64::INFINITY, -1.0] {
            for field in 0..3 {
                let mut q = good.clone();
                let stats = q.catalog.stats_mut(field + 1);
                match field {
                    0 => stats.cardinality = value,
                    1 => stats.tuple_bytes = value,
                    _ => stats.join_domain = value,
                }
                bad.push(q);
            }
        }
        for selectivity in [f64::NAN, 0.0, -0.5, 1.5] {
            let mut q = good.clone();
            q.predicates[0].selectivity = selectivity;
            bad.push(q);
        }
        for backend in Backend::ALL {
            for coalesce in [false, true] {
                let mut config = ServiceConfig::new(backend, 2);
                config.coalesce = coalesce;
                let mut svc = OptimizerService::spawn(config).expect("spawn");
                for q in &bad {
                    for submitted in [
                        svc.submit(q, PlanSpace::Linear, Objective::Single),
                        svc.submit_wait(q, PlanSpace::Linear, Objective::Single),
                    ] {
                        assert!(
                            matches!(submitted, Err(ServiceError::BadRequest { .. })),
                            "backend {}: {submitted:?}",
                            backend.name()
                        );
                    }
                }
                assert_eq!(svc.in_flight(), 0, "backend {}", backend.name());
                if let Some(net) = svc.network_snapshot() {
                    assert_eq!(net.messages, 0, "refused before any message");
                }
                let plans = svc
                    .optimize(&good, PlanSpace::Linear, Objective::Single)
                    .expect("a sound query is still served");
                let reference = optimize_serial(&good, PlanSpace::Linear, Objective::Single);
                assert!(bit_eq(plans[0].cost().time, reference.plans[0].cost().time));
                svc.shutdown();
            }
        }
    }

    /// The steal switch (`config.mpq.steal`) reaches the MPQ backend —
    /// `submit` oversubscribes the partition space, so every range of a
    /// 6-table query over 3 workers holds at least 2 of its 8 partitions
    /// and reports progress — and results stay exact.
    #[test]
    fn steal_override_keeps_service_exact() {
        let q = query(6, 12);
        let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans[0]
            .cost()
            .time;
        let mut config = ServiceConfig::new(Backend::Mpq, 3);
        config.mpq.steal = true;
        let mut svc = OptimizerService::spawn(config).expect("spawn");
        let plans = svc
            .optimize(&q, PlanSpace::Linear, Objective::Single)
            .expect("optimize");
        assert!(bit_eq(plans[0].cost().time, reference));
        let net = svc.network_snapshot().expect("a cluster backend");
        assert!(net.progress_reports >= 1, "{net:?}");
        svc.shutdown();
    }

    /// Admission: at the limit the service refuses typed, with the exact
    /// occupancy in the error; redeeming a handle frees budget and a
    /// retried submission is not lost.
    #[test]
    fn admission_refuses_at_the_limit_then_recovers() {
        for backend in [Backend::Mpq, Backend::Sma] {
            let mut svc = OptimizerService::spawn(ServiceConfig::with_admission(backend, 3, 2))
                .expect("spawn");
            let q1 = query(5, 20);
            let q2 = query(6, 21);
            let q3 = query(5, 22);
            let a = svc
                .submit(&q1, PlanSpace::Linear, Objective::Single)
                .expect("first");
            let b = svc
                .submit(&q2, PlanSpace::Linear, Objective::Single)
                .expect("second");
            assert_eq!(svc.in_flight(), 2, "backend {}", backend.name());
            match svc.submit(&q3, PlanSpace::Linear, Objective::Single) {
                Err(ServiceError::Overloaded { in_flight, limit }) => {
                    assert_eq!((in_flight, limit), (2, 2), "backend {}", backend.name());
                }
                other => panic!(
                    "backend {}: expected Overloaded, got {other:?}",
                    backend.name()
                ),
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
    }

    /// `submit_wait` parks at the limit instead of refusing, and never
    /// exceeds the budget.
    #[test]
    fn submit_wait_parks_until_capacity_frees() {
        let mut svc = OptimizerService::spawn(ServiceConfig::with_admission(Backend::Mpq, 3, 1))
            .expect("spawn");
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

    /// The single-node backends complete at submission, so no admission
    /// limit can ever refuse them.
    #[test]
    fn immediate_backends_never_refuse() {
        for backend in [Backend::SerialDp, Backend::TopDown] {
            let mut svc = OptimizerService::spawn(ServiceConfig::with_admission(backend, 1, 1))
                .expect("spawn");
            let q = query(5, 25);
            let handles: Vec<ServiceHandle> = (0..5)
                .map(|_| {
                    svc.submit(&q, PlanSpace::Linear, Objective::Single)
                        .expect("immediate backends always admit")
                })
                .collect();
            assert_eq!(svc.in_flight(), 0);
            for handle in handles {
                svc.wait(handle).expect("parked result redeems");
            }
            svc.shutdown();
        }
    }

    /// Coalescing: K identical in-flight submissions cost one backend
    /// optimization, every member redeems the same bits, and the counters
    /// prove the coalition (`K` coalesced sessions, `K - 1` saved).
    #[test]
    fn coalesced_members_redeem_one_identical_result() {
        for backend in Backend::ALL {
            let mut svc =
                OptimizerService::spawn(ServiceConfig::with_coalescing(backend, 3)).expect("spawn");
            let q = query(6, 26);
            let handles: Vec<ServiceHandle> = (0..4)
                .map(|_| {
                    svc.submit(&q, PlanSpace::Linear, Objective::Single)
                        .expect("submit")
                })
                .collect();
            assert!(
                svc.in_flight() <= 1,
                "backend {}: one backend session for the whole coalition",
                backend.name()
            );
            assert_eq!(svc.open_flights(), 1, "backend {}", backend.name());
            let mut results = Vec::new();
            for handle in handles {
                results.push(svc.wait(handle).expect("member redeems"));
            }
            for r in &results[1..] {
                assert_eq!(
                    r,
                    &results[0],
                    "backend {}: members get the same bits",
                    backend.name()
                );
            }
            let stats = svc.coalesce_stats();
            assert_eq!(stats.coalesced_sessions, 4, "backend {}", backend.name());
            assert_eq!(stats.saved_optimizations, 3, "backend {}", backend.name());
            assert_eq!(
                svc.open_flights(),
                0,
                "flight state is freed after delivery"
            );
            svc.shutdown();
        }
    }

    /// Distinct queries never coalesce; same query under a different
    /// objective or plan space does not either (the flight key scopes by
    /// both, exactly like the result cache).
    #[test]
    fn coalescing_respects_the_canonical_identity() {
        let mut svc = OptimizerService::spawn(ServiceConfig::with_coalescing(Backend::SerialDp, 1))
            .expect("spawn");
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
        let mut svc = OptimizerService::spawn(ServiceConfig::with_coalescing(Backend::Mpq, 3))
            .expect("spawn");
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

    /// Dropping every member reaps the flight: the shared backend ticket
    /// is released and the backend session is freed, not orphaned.
    #[test]
    fn dropped_coalition_reaps_the_flight() {
        for backend in [Backend::Mpq, Backend::Sma] {
            let mut svc =
                OptimizerService::spawn(ServiceConfig::with_coalescing(backend, 3)).expect("spawn");
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
            // ticket, and pokes the backend's own reaping.
            let other = query(5, 31);
            let live = svc
                .submit(&other, PlanSpace::Linear, Objective::Single)
                .expect("service still serves after the coalition vanished");
            assert_eq!(
                svc.open_flights(),
                1,
                "backend {}: only the live flight remains",
                backend.name()
            );
            svc.wait(live).expect("live session completes");
            assert_eq!(svc.open_flights(), 0, "backend {}", backend.name());
            assert_eq!(
                svc.in_flight(),
                0,
                "backend {}: no orphaned session",
                backend.name()
            );
            svc.shutdown();
        }
    }

    /// Coalesced handle misuse is typed like every other handle: double
    /// redemption and foreign services yield `UnknownHandle`.
    #[test]
    fn coalesced_handle_misuse_is_typed() {
        let mut svc = OptimizerService::spawn(ServiceConfig::with_coalescing(Backend::SerialDp, 1))
            .expect("spawn");
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
        // (`immediate_backends_honor_the_handle_protocol` pins the plain
        // case): one handle type, one spent-handle answer.
        assert!(svc.poll(&handle).is_none());
        assert_eq!(svc.wait(handle), Err(ServiceError::UnknownHandle));
        // A coalesced handle presented to a non-coalescing service, and to
        // a different coalescing instance.
        let mut coalescing =
            OptimizerService::spawn(ServiceConfig::with_coalescing(Backend::SerialDp, 1))
                .expect("spawn");
        let mut plain =
            OptimizerService::spawn(ServiceConfig::new(Backend::SerialDp, 1)).expect("spawn");
        let foreign = coalescing
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .expect("submit");
        assert_eq!(plain.poll(&foreign), Some(Err(ServiceError::UnknownHandle)));
        let own = svc
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .expect("submit");
        assert_eq!(svc.poll(&foreign), Some(Err(ServiceError::UnknownHandle)));
        assert!(svc.wait(own).is_ok(), "own handle still redeems");
        assert_eq!(plain.wait(foreign), Err(ServiceError::UnknownHandle));
        svc.shutdown();
        coalescing.shutdown();
        plain.shutdown();
    }

    #[test]
    fn concurrent_submissions_resolve_in_any_order() {
        let mut svc = OptimizerService::spawn(ServiceConfig::new(Backend::Mpq, 4)).unwrap();
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
