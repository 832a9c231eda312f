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
//! **In-flight coalescing** ([`ServiceConfig::coalesce`]) sits on top:
//! concurrent submissions whose canonical [`CacheKey`] identity matches —
//! cost model version, statistics epoch and bits, predicate signature,
//! plan space and objective, exactly as the cross-query memo cache
//! defines "identical" — share one *leader* optimization. Followers get
//! their own [`ServiceHandle`] redeeming the leader's result
//! bit-identically (clones of the same plan list). The flight owns the
//! single backend ticket, so dropping any member — leader included —
//! merely detaches it; the oldest surviving member is implicitly the new
//! leader, and only when the whole coalition is dropped is the flight
//! reaped through the regular abandoned-handle machinery.

// A server facade must never abort on caller error: every unwrap/expect
// on this path is either removed or individually justified.

use crate::dp::{optimize_partition_topdown_cached, optimize_serial_cached, push_scope, PlanCache};
use crate::mpq::{MpqConfig, MpqError, MpqService, StealPolicy};
use crate::plan::Plan;
use crate::sma::{SmaConfig, SmaError, SmaService};
use mpq_cluster::{LifecycleError, QueryHandle, SessionTable, SocketTransport, Transport};
use mpq_cost::Objective;
use mpq_model::Query;
use mpq_partition::PlanSpace;
use mpq_plan::{query_signature, CacheKey, CacheStats};
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
    /// MPQ backend configuration (faults, retry policy).
    pub mpq: MpqConfig,
    /// SMA backend configuration (faults, receive timeout).
    pub sma: SmaConfig,
    /// Byte budget of the **cross-query memo cache** (LRU). For the
    /// single-node backends this is one master-side cache; for the
    /// cluster backends it is the per-worker budget of each shard-local
    /// cache. `0` (the default) disables caching — bit-for-bit the
    /// pre-cache behavior. When non-zero, this overrides the engine
    /// configs' own `cache_bytes`.
    pub cache_bytes: usize,
    /// **Straggler-adaptive work redistribution** of the MPQ backend
    /// (ignored by the others; disabled by default). When enabled, this
    /// overrides the MPQ engine config's own `steal` policy, so one knob
    /// governs the service uniformly.
    pub steal: StealPolicy,
    /// **Admission limit**: most sessions the cluster backends keep in
    /// flight at once. Submissions beyond it fail with
    /// [`ServiceError::Overloaded`]. `0` (the default) means unlimited —
    /// bit-for-bit the pre-admission behavior. When non-zero, this
    /// overrides the engine configs' own `max_in_flight`. Coalesced
    /// followers join an already-admitted flight and therefore never
    /// consume admission budget.
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

    /// Same service with a straggler-adaptive steal policy (effective on
    /// the MPQ backend).
    pub fn with_steal(backend: Backend, workers: usize, steal: StealPolicy) -> ServiceConfig {
        ServiceConfig {
            steal,
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

    /// The engine configs with the service-level knobs applied: one
    /// `cache_bytes` / `steal` / `max_in_flight` setting governs every
    /// backend uniformly, each winning over the engine config's own
    /// value whenever it is set.
    fn engine_configs(&self) -> (MpqConfig, SmaConfig) {
        let (mut mpq, mut sma) = (self.mpq, self.sma);
        if self.cache_bytes > 0 {
            mpq.cache_bytes = self.cache_bytes;
            sma.cache_bytes = self.cache_bytes;
        }
        if self.steal.enabled {
            mpq.steal = self.steal;
        }
        if self.max_in_flight > 0 {
            mpq.max_in_flight = self.max_in_flight;
            sma.max_in_flight = self.max_in_flight;
        }
        (mpq, sma)
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
    /// In-flight coalescing state; `None` when disabled.
    coalescer: Option<Coalescer>,
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

/// One coalesced flight: a coalition of members sharing a single backend
/// ticket and, once resolved, a single result cloned to each member.
struct Flight {
    /// Canonical identity the coalition formed on; removed from the open
    /// index at resolution, so flights are joinable only while unresolved.
    key: CacheKey,
    /// The one backend ticket the coalition shares; taken (and dropped)
    /// at resolution or when the whole coalition detaches.
    ticket: Option<QueryHandle>,
    /// The leader's outcome once resolved, cloned to each member.
    result: Option<Result<Vec<Plan>, ServiceError>>,
    /// Undelivered members, oldest first — `members[0]` is the leader.
    members: Vec<u64>,
    /// Whether this flight's leader was already counted into
    /// [`CoalesceStats::coalesced_sessions`] (set on the first join).
    counted: bool,
}

/// Flight table of a coalescing service; see the module docs.
struct Coalescer {
    /// Member → flight, removed at delivery or detach. Members are this
    /// table's live sessions, so a membership ticket is the one
    /// [`QueryHandle`] type under the coalescer's own instance tag, and
    /// members whose handle was dropped unredeemed surface through the
    /// table's ordered reaping. Dropping a member detaches it only: the
    /// flight keeps running for the rest of the coalition.
    members: SessionTable<u64, Infallible>,
    next_flight: u64,
    /// Unresolved (= joinable) flights by canonical identity.
    open: BTreeMap<CacheKey, u64>,
    flights: BTreeMap<u64, Flight>,
    stats: CoalesceStats,
}

impl Coalescer {
    fn new() -> Coalescer {
        Coalescer {
            members: SessionTable::new(0),
            next_flight: 0,
            open: BTreeMap::new(),
            flights: BTreeMap::new(),
            stats: CoalesceStats::default(),
        }
    }

    /// Coalescing submit: join an unresolved identical flight, or lead a
    /// new one through the backend (honoring admission; `park` selects
    /// `submit_wait` semantics for the leader).
    fn submit(
        &mut self,
        engine: &mut Engine,
        query: &Query,
        space: PlanSpace,
        objective: Objective,
        park: bool,
    ) -> Result<QueryHandle, ServiceError> {
        self.detach_abandoned(engine);
        // The canonical identity submissions coalesce on: the cross-query
        // memo cache's query signature scoped by plan space and objective.
        let mut key = query_signature(query);
        push_scope(&mut key, space, objective);
        let key = key.finish();
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
            // Lead a new flight. A refusal (admission, bad request)
            // propagates typed and leaves no flight state behind.
            None => {
                let ticket = engine.submit(query, space, objective, park)?;
                let fid = self.next_flight;
                self.next_flight += 1;
                self.open.insert(key.clone(), fid);
                let flight = Flight {
                    key,
                    ticket: Some(ticket),
                    result: None,
                    members: Vec::new(),
                    counted: false,
                };
                self.flights.insert(fid, flight);
                fid
            }
        };
        let member = self.members.mint();
        self.members.live.insert(member.0, fid);
        if let Some(flight) = self.flights.get_mut(&fid) {
            flight.members.push(member.0);
        }
        Ok(self.members.handle(member))
    }

    /// Detaches members whose handles were dropped unredeemed. A flight
    /// whose whole coalition detached is reaped: its backend ticket is
    /// dropped (queueing the session for the backend's own reaping, which
    /// frees parked results — and, for SMA, aborts the session so its
    /// replicas are freed) and the backend is poked to reap immediately.
    fn detach_abandoned(&mut self, engine: &mut Engine) {
        let Coalescer {
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
                    open.remove(&flight.key);
                    // Dropping the backend ticket (if the flight was still
                    // unresolved) pushes it onto the backend's abandoned
                    // list.
                    drop(flight.ticket);
                    reaped = true;
                }
            }
        });
        if reaped {
            engine.reap();
        }
    }

    /// Hands the member behind `handle` its clone of the flight's result
    /// — exactly once — first resolving the flight through the shared
    /// backend ticket: blocking on it (`block`), or only if it already
    /// finished. `None`: still in progress, or — as on every other
    /// handle — the member was already delivered.
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
        let Some(flight) = self.flights.get_mut(&fid) else {
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
            // Resolved flights close to new joiners: the cache takes over.
            flight.result = Some(result);
            self.open.remove(&flight.key);
        }
        let result = flight.result.clone();
        flight.members.retain(|&m| m != member);
        self.members.live.remove(&member);
        if flight.members.is_empty() {
            // Every member has been served.
            self.flights.remove(&fid);
        }
        result
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
        /// The master-side cross-query memo cache (disabled at budget 0).
        cache: PlanCache,
    },
    Mpq(MpqService),
    Sma(SmaService),
}

impl Engine {
    /// A fresh single-node engine with an empty result park and cache.
    fn immediate(backend: ImmediateBackend, cache_bytes: usize) -> Engine {
        Engine::Immediate {
            backend,
            results: SessionTable::new(0),
            cache: PlanCache::new(cache_bytes),
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
            Engine::Immediate {
                backend,
                results,
                cache,
            } => {
                results.reap(|_, never| match never {});
                results.admit(query, objective)?;
                let plans = match backend {
                    ImmediateBackend::SerialDp => {
                        optimize_serial_cached(query, space, objective, cache)
                            .0
                            .plans
                    }
                    ImmediateBackend::TopDown => {
                        optimize_partition_topdown_cached(query, space, objective, 0, 1, cache)
                            .0
                            .plans
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
        let (mpq, sma) = config.engine_configs();
        let engine = match config.backend {
            Backend::SerialDp => Engine::immediate(ImmediateBackend::SerialDp, config.cache_bytes),
            Backend::TopDown => Engine::immediate(ImmediateBackend::TopDown, config.cache_bytes),
            Backend::Mpq => Engine::Mpq(MpqService::spawn(workers, mpq)?),
            Backend::Sma => Engine::Sma(SmaService::spawn(workers, sma)?),
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
        let (mpq, sma) = config.engine_configs();
        let engine = match config.backend {
            Backend::SerialDp | Backend::TopDown => return Err(NO_TRANSPORT),
            Backend::Mpq => Engine::Mpq(MpqService::with_transport(transport, mpq)?),
            Backend::Sma => Engine::Sma(SmaService::with_transport(transport, sma)?),
        };
        Ok(OptimizerService::over(config, engine))
    }

    fn over(config: ServiceConfig, engine: Engine) -> OptimizerService {
        OptimizerService {
            backend: config.backend,
            engine,
            coalescer: config.coalesce.then(Coalescer::new),
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
    /// joins it instead of reaching the backend. A query no backend can
    /// optimize (no tables, or more than 64) is a typed
    /// [`ServiceError::BadRequest`] before anything is sent or computed.
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
        let handle = match &mut self.coalescer {
            Some(c) => c.submit(engine, query, space, objective, park)?,
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
        // On a coalescing service every handle is a membership ticket; a
        // handle minted anywhere else fails the owner's instance-tag
        // check either way.
        match &mut self.coalescer {
            Some(c) => c.redeem(&mut self.engine, &handle.0, false),
            None => self.engine.poll(&handle.0),
        }
    }

    /// Blocks until the request finishes (driving every other in-flight
    /// request of the same service meanwhile) and returns its optimal
    /// plan(s): one plan for single-objective runs, the Pareto frontier
    /// otherwise.
    pub fn wait(&mut self, handle: ServiceHandle) -> Result<Vec<Plan>, ServiceError> {
        match &mut self.coalescer {
            // `None`: the member was already delivered (poll-then-wait,
            // double-wait). `handle` drops on return; its abandoned-list
            // entry is a no-op because the member is gone by then.
            Some(c) => c
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
        self.coalescer.as_ref().map(|c| c.stats).unwrap_or_default()
    }

    /// Coalesced flights currently tracked (resolved-but-unredeemed ones
    /// included); zero while coalescing is disabled. Test introspection.
    pub fn open_flights(&self) -> usize {
        self.coalescer
            .as_ref()
            .map(|c| c.flights.len())
            .unwrap_or(0)
    }

    /// The cluster backends' network metrics snapshot (message/fault/
    /// steal/cache counters); `None` on the single-node backends, which
    /// have no network.
    pub fn network_snapshot(&self) -> Option<mpq_cluster::NetworkSnapshot> {
        match &self.engine {
            Engine::Immediate { .. } => None,
            Engine::Mpq(svc) => Some(svc.metrics().snapshot()),
            Engine::Sma(svc) => Some(svc.metrics().snapshot()),
        }
    }

    /// Shuts the service down, joining any resident worker threads.
    pub fn shutdown(self) {
        match self.engine {
            Engine::Immediate { .. } => {}
            Engine::Mpq(svc) => svc.shutdown(),
            Engine::Sma(svc) => svc.shutdown(),
        }
    }

    /// Counters of the service's cross-query memo cache. For the
    /// single-node backends these are the exact LRU counters; for the
    /// cluster backends they aggregate the shard-local worker caches via
    /// the cluster metrics (hit/miss/bytes-saved only — entry and byte
    /// occupancy are worker-private and reported as zero).
    pub fn cache_stats(&self) -> CacheStats {
        match &self.engine {
            Engine::Immediate { cache, .. } => cache.stats(),
            Engine::Mpq(svc) => cluster_cache_stats(svc.metrics().snapshot()),
            Engine::Sma(svc) => cluster_cache_stats(svc.metrics().snapshot()),
        }
    }
}

/// Projects a cluster metrics snapshot onto the cache-counter view.
fn cluster_cache_stats(s: mpq_cluster::NetworkSnapshot) -> CacheStats {
    CacheStats {
        hits: s.cache_hits,
        misses: s.cache_misses,
        bytes_saved: s.cache_bytes_saved,
        ..CacheStats::default()
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

    /// Counters of the engine's cross-query memo cache. Engines without a
    /// cache report all-zero stats (the default).
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

    #[test]
    fn cached_service_reports_hits_and_stays_transparent() {
        for backend in Backend::ALL {
            let mut svc = OptimizerService::spawn(ServiceConfig::with_cache(backend, 3, 1 << 20))
                .expect("spawn");
            let q = query(6, 8);
            let cold = svc
                .optimize(&q, PlanSpace::Linear, Objective::Single)
                .expect("cold");
            let warm = svc
                .optimize(&q, PlanSpace::Linear, Objective::Single)
                .expect("warm");
            assert_eq!(
                warm,
                cold,
                "backend {}: hits are byte-identical",
                backend.name()
            );
            let stats = Optimizer::cache_stats(&svc);
            assert!(
                stats.hits > 0,
                "backend {}: repeat run must hit ({stats:?})",
                backend.name()
            );
            assert!(stats.bytes_saved > 0);
            svc.shutdown();
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

    /// The service-level steal override reaches the MPQ backend — with
    /// stealing enabled, `submit` oversubscribes the partition space so
    /// ranges have splittable tails — and results stay exact.
    #[test]
    fn steal_override_keeps_service_exact() {
        let q = query(6, 12);
        let reference = optimize_serial(&q, PlanSpace::Linear, Objective::Single).plans[0]
            .cost()
            .time;
        let mut svc = OptimizerService::spawn(ServiceConfig::with_steal(
            Backend::Mpq,
            3,
            crate::mpq::StealPolicy::balanced(),
        ))
        .expect("spawn");
        let plans = svc
            .optimize(&q, PlanSpace::Linear, Objective::Single)
            .expect("optimize");
        assert!(bit_eq(plans[0].cost().time, reference));
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
    /// both, exactly like the memo cache).
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
