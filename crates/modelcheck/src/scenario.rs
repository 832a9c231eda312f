//! Fixed small-scope configurations of the real services, each run
//! under the [`ModelTransport`] with per-schedule invariant checks.
//!
//! One run = build the service over a fresh model transport, drive a
//! deterministic master program (submit N sessions, wait for each),
//! then verify:
//!
//! * **exactness** — every fault-free completion returns the
//!   bit-identical serial-DP optimum (and fault runs either do the same
//!   or fail with a *typed* recovery error — never a wrong plan);
//! * **exactly-once delivery** — no session and no parked result
//!   outlives the program; coalesced flights drain;
//! * **admission** — the in-flight count never exceeds the budget and
//!   refusals are the typed `Overloaded`;
//! * **coalescer counters** — a coalition of `K` identical in-flight
//!   submissions counts exactly `K` coalesced sessions and `K - 1`
//!   saved optimizations;
//! * **result cache** — a finished query submitted again redeems the
//!   first answer's bits without a single send, and a dropped hit leaves
//!   no flight;
//! * **ledgers** — replies balance against completions + duplicates,
//!   retries never exceed observed timeouts, fault counters sum, and
//!   the transport's own reply-conservation ledger closes;
//! * **liveness** — no schedule stalls the service (blocks on a receive
//!   no reachable event can satisfy), and no schedule panics.
//!
//! Scenarios deliberately stay tiny (2–3 workers, 1–2 sessions, 4-table
//! queries): the point is *exhaustive* coverage of the interleavings at
//! a scope where exhaustive is tractable, complementing the randomized
//! chaos suites that sample large scopes.

use crate::transport::{Decision, FaultBudget, ModelTransport};
use mpq_algo::{MpqConfig, MpqError, MpqService, RetryPolicy};
use mpq_cluster::{Transport, WorkerLogic};
use mpq_cost::Objective;
use mpq_dp::optimize_serial;
use mpq_model::{Query, WorkloadConfig, WorkloadGenerator};
use mpq_partition::{effective_workers, PlanSpace};
use mpq_plan::Plan;
use pqopt::service::{OptimizerService, ServiceConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Which master program a scenario drives.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// [`MpqService`]: submit all sessions, wait in submission order.
    Mpq {
        /// Recovery policy (`Duration::ZERO` timeouts make suspicion
        /// passes clock-free and deterministic).
        retry: RetryPolicy,
        /// Straggler-adaptive redistribution.
        steal: bool,
        /// Submit through `submit_assigned` with the even all-worker
        /// layout (one partition per worker, range *i* on worker *i*)
        /// instead of letting `submit` place each session by load — so
        /// every session fans out, whatever the others hold.
        assigned: bool,
    },
    /// Coalescing [`OptimizerService`] over MPQ: one query submitted
    /// twice (leader + follower), then a distinct drain query that also
    /// forces abandoned-handle reaping.
    Coalesce {
        /// Drop the leader's handle unredeemed — the follower must
        /// still redeem the shared result (leader-drop promotion).
        drop_leader: bool,
        /// The MPQ service's recovery policy.
        retry: RetryPolicy,
    },
    /// [`OptimizerService`] with `max_in_flight = 1`: the second
    /// submission must be refused with the typed `Overloaded`, and a
    /// resubmission after capacity frees must be admitted.
    Admission,
    /// Caching [`OptimizerService`] over MPQ: one query run to
    /// completion, then submitted twice more — once redeemed, once
    /// dropped — then a distinct drain query that forces the reap.
    Cache,
}

/// One model-checking configuration.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Stable CLI/registry name.
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// Worker nodes hosted by the model transport.
    pub workers: usize,
    /// Sessions the master program submits.
    pub sessions: usize,
    /// Tables per generated query (kept tiny — the DP runs thousands of
    /// times per sweep).
    pub tables: usize,
    /// Workload generator seed.
    pub seed: u64,
    /// Fault injections the controller may choose.
    pub budget: FaultBudget,
    /// The master program.
    pub kind: Kind,
}

impl Scenario {
    /// Whether the controller can inject no fault at all — then *every*
    /// schedule must complete with the exact optimum.
    pub fn fault_free(&self) -> bool {
        self.budget == FaultBudget::default()
    }
}

/// One executed schedule: the decision log, the choices taken, and the
/// first invariant violation (if any).
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Every decision point the controller passed.
    pub decisions: Vec<Decision>,
    /// The choice indices taken — feed back as the script to replay.
    pub schedule: Vec<usize>,
    /// The violated invariant, in one line.
    pub violation: Option<String>,
}

/// A clock-free evidence-based recovery policy: `Duration::ZERO`
/// timeouts mean "a suspicion pass runs on every receive-timeout", so
/// recovery is a deterministic function of the delivery schedule.
const MODEL_RETRY: RetryPolicy = RetryPolicy {
    max_retries: 2,
    timeout: Some(Duration::ZERO),
    max_strikes: 2,
};

const NO_FAULTS: FaultBudget = FaultBudget {
    drops: 0,
    duplicates: 0,
    crashes: 0,
    timeouts: 0,
};

/// The registry swept by `pqopt_model check` (every entry is expected to
/// verify clean — the seeded-violation fixture is deliberately *not*
/// in here; see [`fixture_scenario`]).
pub fn default_suite() -> Vec<Scenario> {
    let mpq_ff = Kind::Mpq {
        retry: RetryPolicy::DISABLED,
        steal: false,
        assigned: false,
    };
    vec![
        Scenario {
            name: "mpq-ff-2w1s",
            about: "MPQ fault-free: 2 workers, 1 session, pure delivery orders",
            workers: 2,
            sessions: 1,
            tables: 4,
            seed: 11,
            budget: NO_FAULTS,
            kind: mpq_ff,
        },
        Scenario {
            name: "mpq-ff-2w2s",
            about: "MPQ fault-free: 2 workers, 2 interleaved sessions (demux + parking)",
            workers: 2,
            sessions: 2,
            tables: 4,
            seed: 12,
            budget: NO_FAULTS,
            kind: mpq_ff,
        },
        Scenario {
            name: "mpq-even-2w2s",
            about: "MPQ fault-free: 2 workers, 2 sessions both fanned out by an explicit layout",
            workers: 2,
            sessions: 2,
            tables: 4,
            seed: 12,
            budget: NO_FAULTS,
            kind: Kind::Mpq {
                retry: RetryPolicy::DISABLED,
                steal: false,
                assigned: true,
            },
        },
        Scenario {
            name: "mpq-ff-3w2s",
            about: "MPQ fault-free: 3 workers, 2 sessions",
            workers: 3,
            sessions: 2,
            tables: 5,
            seed: 13,
            budget: NO_FAULTS,
            kind: mpq_ff,
        },
        Scenario {
            name: "mpq-drop-2w2s",
            about: "MPQ under one lost reply + adversarial timeouts, evidence-based retry",
            workers: 2,
            sessions: 2,
            tables: 4,
            seed: 14,
            budget: FaultBudget {
                drops: 1,
                timeouts: 4,
                ..NO_FAULTS
            },
            kind: Kind::Mpq {
                retry: MODEL_RETRY,
                steal: false,
                assigned: false,
            },
        },
        Scenario {
            name: "mpq-dup-2w2s",
            about: "MPQ under one duplicated reply: the copy must land in the duplicate ledger",
            workers: 2,
            sessions: 2,
            tables: 4,
            seed: 15,
            budget: FaultBudget {
                duplicates: 1,
                timeouts: 2,
                ..NO_FAULTS
            },
            kind: Kind::Mpq {
                retry: MODEL_RETRY,
                steal: false,
                assigned: false,
            },
        },
        Scenario {
            name: "mpq-crash-2w1s",
            about: "MPQ under one worker crash at any point: recover or fail typed",
            workers: 2,
            sessions: 1,
            tables: 4,
            seed: 16,
            budget: FaultBudget {
                crashes: 1,
                timeouts: 4,
                ..NO_FAULTS
            },
            kind: Kind::Mpq {
                retry: MODEL_RETRY,
                steal: false,
                assigned: false,
            },
        },
        Scenario {
            name: "mpq-steal-2w1s",
            about: "MPQ with stealing: progress/reply races, split reconciliation, no double count",
            workers: 2,
            sessions: 1,
            tables: 4,
            seed: 17,
            budget: NO_FAULTS,
            kind: Kind::Mpq {
                retry: RetryPolicy::DISABLED,
                steal: true,
                assigned: false,
            },
        },
        Scenario {
            name: "facade-coalesce-2w",
            about: "coalescing facade: leader + follower share one flight, counters exact",
            workers: 2,
            sessions: 2,
            tables: 4,
            seed: 31,
            budget: NO_FAULTS,
            kind: Kind::Coalesce {
                drop_leader: false,
                retry: RetryPolicy::DISABLED,
            },
        },
        Scenario {
            name: "facade-leader-drop-2w",
            about: "coalescing facade: leader handle dropped, follower still redeems",
            workers: 2,
            sessions: 2,
            tables: 4,
            seed: 32,
            budget: NO_FAULTS,
            kind: Kind::Coalesce {
                drop_leader: true,
                retry: RetryPolicy::DISABLED,
            },
        },
        Scenario {
            name: "facade-coalesce-drop-2w",
            about: "coalesced flight under one lost reply: shared result stays exact or typed",
            workers: 2,
            sessions: 2,
            tables: 4,
            seed: 33,
            budget: FaultBudget {
                drops: 1,
                timeouts: 4,
                ..NO_FAULTS
            },
            kind: Kind::Coalesce {
                drop_leader: false,
                retry: MODEL_RETRY,
            },
        },
        Scenario {
            name: "facade-cache-2w",
            about: "caching facade: a finished query's repeat redeems its bits with zero sends",
            workers: 2,
            sessions: 2,
            tables: 4,
            seed: 35,
            budget: NO_FAULTS,
            kind: Kind::Cache,
        },
        Scenario {
            name: "facade-admission-2w",
            about: "admission at limit 1: typed refusal, then admitted on retry",
            workers: 2,
            sessions: 2,
            tables: 4,
            seed: 34,
            budget: NO_FAULTS,
            kind: Kind::Admission,
        },
    ]
}

/// The seeded invariant-violation fixture: a **genuine liveness hole**,
/// kept as a negative control that the checker detects real bugs. A
/// clock-free retry policy (`timeout: None`) relies purely on
/// dead-worker and FIFO-overtake evidence — but a reply lost from a
/// worker that sends no later traffic leaves *no* evidence, so the
/// master waits forever. The explorer must find the dropping schedule
/// and report a stall with a replayable trace.
pub fn fixture_scenario() -> Scenario {
    Scenario {
        name: "fixture-evidence-starved-drop",
        about: "seeded liveness hole: clock-free retry + tail drop leaves no recovery evidence",
        workers: 2,
        sessions: 1,
        tables: 4,
        seed: 41,
        budget: FaultBudget {
            drops: 1,
            ..NO_FAULTS
        },
        kind: Kind::Mpq {
            retry: RetryPolicy {
                max_retries: 2,
                timeout: None,
                max_strikes: 2,
            },
            steal: false,
            assigned: false,
        },
    }
}

/// Looks a scenario up by name (default suite plus the fixture).
pub fn find_scenario(name: &str) -> Option<Scenario> {
    let mut all = default_suite();
    all.push(fixture_scenario());
    all.into_iter().find(|s| s.name == name)
}

/// Executes one schedule of `scenario`: choices follow `script` while
/// it lasts, then default to 0 (the most-productive enabled action).
pub fn run_scenario(scenario: &Scenario, script: &[usize]) -> RunOutcome {
    run_scenario_por(scenario, script, true)
}

/// [`run_scenario`] with the partial-order reduction switchable — the
/// soundness self-test sweeps a scenario both ways and checks the
/// reduction changed coverage cost, never verdicts.
pub fn run_scenario_por(scenario: &Scenario, script: &[usize], por: bool) -> RunOutcome {
    let logics: Vec<Box<dyn WorkerLogic>> = (0..scenario.workers)
        .map(|_| mpq_algo::worker_logic(0))
        .collect();
    let (transport, handle) = ModelTransport::new(logics, scenario.budget, script.to_vec());
    if !por {
        transport.disable_por();
    }
    let drove = catch_unwind(AssertUnwindSafe(|| drive(scenario, Box::new(transport))));
    let mut violation = handle
        .internal_error()
        .map(|e| format!("model internal error: {e}"));
    if violation.is_none() && handle.stalled() {
        violation = Some(
            "stall: the service blocked on a receive no reachable event can satisfy".to_string(),
        );
    }
    if violation.is_none() {
        violation = match drove {
            Ok(Ok(())) => None,
            Ok(Err(v)) => Some(v),
            Err(payload) => Some(format!("panic: {}", panic_msg(payload.as_ref()))),
        };
    }
    if violation.is_none() {
        violation = handle.check_conservation().err();
    }
    RunOutcome {
        decisions: handle.decisions(),
        schedule: handle.schedule(),
        violation,
    }
}

fn panic_msg(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// The deterministic queries a scenario's master program submits.
fn queries(scenario: &Scenario, count: usize) -> Vec<Query> {
    let mut generator = WorkloadGenerator::new(
        WorkloadConfig::paper_default(scenario.tables),
        scenario.seed,
    );
    (0..count).map(|_| generator.next_query()).collect()
}

/// Exactness: the single returned plan must cost bit-identically to the
/// serial-DP optimum of the same query.
fn check_exact(query: &Query, plans: &[Plan]) -> Result<(), String> {
    let serial = optimize_serial(query, PlanSpace::Linear, Objective::Single);
    let Some(reference) = serial.plans.first() else {
        return Err("serial reference produced no plan".to_string());
    };
    if plans.len() != 1 {
        return Err(format!("expected exactly one plan, got {}", plans.len()));
    }
    let got = plans[0].cost().time;
    let want = reference.cost().time;
    if got.to_bits() != want.to_bits() {
        return Err(format!(
            "optimum mismatch: schedule produced cost {got} ({:016x}), \
             serial reference {want} ({:016x})",
            got.to_bits(),
            want.to_bits()
        ));
    }
    Ok(())
}

/// Whether an MPQ failure is an *allowed* typed recovery outcome under
/// fault injection (wrong answers, protocol corruption, and bookkeeping
/// failures never are).
fn mpq_recovery_error(e: &MpqError) -> bool {
    !matches!(
        e,
        MpqError::Decode { .. }
            | MpqError::Protocol { .. }
            | MpqError::UnknownHandle { .. }
            | MpqError::BadRequest { .. }
            | MpqError::Overloaded { .. }
    )
}

fn drive(scenario: &Scenario, transport: Box<dyn Transport>) -> Result<(), String> {
    match scenario.kind {
        Kind::Mpq {
            retry,
            steal,
            assigned,
        } => drive_mpq(scenario, transport, retry, steal, assigned),
        Kind::Coalesce { drop_leader, retry } => {
            drive_coalesce(scenario, transport, drop_leader, retry)
        }
        Kind::Admission => drive_admission(scenario, transport),
        Kind::Cache => drive_cache(scenario, transport),
    }
}

fn drive_mpq(
    scenario: &Scenario,
    transport: Box<dyn Transport>,
    retry: RetryPolicy,
    steal: bool,
    assigned: bool,
) -> Result<(), String> {
    let config = MpqConfig {
        retry,
        steal,
        ..MpqConfig::default()
    };
    let mut service = MpqService::with_transport(transport, config)
        .map_err(|e| format!("service construction failed: {e}"))?;
    let queries = queries(scenario, scenario.sessions);
    let fault_free = scenario.fault_free();
    let mut handles = Vec::new();
    for query in &queries {
        let (space, objective) = (PlanSpace::Linear, Objective::Single);
        let submitted = if assigned {
            let m = effective_workers(space, query.num_tables(), scenario.workers as u64);
            let even = (0..m).map(|p| (p, 1)).collect();
            service.submit_assigned(query, space, objective, m, even)
        } else {
            service.submit(query, space, objective)
        };
        handles.push(submitted.map_err(|e| format!("submit refused: {e}"))?);
    }
    let mut session_retries = 0u64;
    for (handle, query) in handles.into_iter().zip(&queries) {
        match service.wait(handle) {
            Ok(outcome) => {
                check_exact(query, &outcome.plans)?;
                let m = &outcome.metrics;
                // Reply ledger: every reply the session saw either
                // completed a range or was booked as a duplicate. A steal
                // grows the assignment per stolen chunk and the session
                // seals its metrics the moment every range is covered, so
                // a superseded straggler's full-range reply may still be
                // in flight then (the transport conservation ledger picks
                // it up) — under steals the ledger is an upper bound, the
                // deficit capped by the ranges a split created.
                let booked = m.workers_used as u64 + m.duplicate_replies;
                let in_ledger = if m.steals == 0 {
                    m.replies_received == booked
                } else {
                    m.replies_received <= booked
                        && booked - m.replies_received <= m.steals + m.stolen_partitions
                };
                if !in_ledger {
                    return Err(format!(
                        "reply ledger broken: {} received vs {} used + {} duplicates \
                         ({} steals)",
                        m.replies_received, m.workers_used, m.duplicate_replies, m.steals
                    ));
                }
                session_retries += m.retries;
            }
            Err(e) if fault_free => return Err(format!("fault-free schedule failed: {e}")),
            Err(e) if mpq_recovery_error(&e) => {}
            Err(e) => return Err(format!("non-recovery failure under faults: {e}")),
        }
    }
    let snapshot = service.metrics().snapshot();
    if session_retries > snapshot.timeouts {
        return Err(format!(
            "retries {} exceed observed timeouts {} — a reissue without evidence",
            session_retries, snapshot.timeouts
        ));
    }
    if snapshot.faults_injected() != snapshot.crashes + snapshot.drops + snapshot.straggles {
        return Err("fault ledger broken: aggregate != crashes + drops + straggles".to_string());
    }
    if fault_free && snapshot.faults_injected() != 0 {
        return Err(format!(
            "fault-free schedule injected {} faults",
            snapshot.faults_injected()
        ));
    }
    if service.in_flight() != 0 {
        return Err(format!(
            "{} sessions leaked past their wait",
            service.in_flight()
        ));
    }
    if service.parked_results() != 0 {
        return Err(format!(
            "{} results parked with no live handle — exactly-once delivery broken",
            service.parked_results()
        ));
    }
    Ok(())
}

/// Redeems one facade handle: exact on success, typed-recovery on
/// failure (when faults were possible).
fn redeem(
    service: &mut OptimizerService,
    handle: pqopt::service::ServiceHandle,
    query: &Query,
    fault_free: bool,
) -> Result<(), String> {
    match service.wait(handle) {
        Ok(plans) => check_exact(query, &plans),
        Err(e) if fault_free => Err(format!("fault-free schedule failed: {e}")),
        Err(e) if mpq_recovery_error(&e) => Ok(()),
        Err(e) => Err(format!("non-recovery failure under faults: {e}")),
    }
}

fn drive_coalesce(
    scenario: &Scenario,
    transport: Box<dyn Transport>,
    drop_leader: bool,
    retry: RetryPolicy,
) -> Result<(), String> {
    let mut config = ServiceConfig::new(scenario.workers);
    config.coalesce = true;
    config.mpq.retry = retry;
    let mut service = OptimizerService::with_transport(config, transport)
        .map_err(|e| format!("service construction failed: {e}"))?;
    let qs = queries(scenario, 2);
    let fault_free = scenario.fault_free();
    let leader = service
        .submit(&qs[0], PlanSpace::Linear, Objective::Single)
        .map_err(|e| format!("leader submit refused: {e}"))?;
    let follower = service
        .submit(&qs[0], PlanSpace::Linear, Objective::Single)
        .map_err(|e| format!("follower submit refused: {e}"))?;
    // Counter exactness: a coalition of 2 is exactly 2 coalesced
    // sessions and 1 saved optimization, on every schedule.
    let stats = service.coalesce_stats();
    if stats.coalesced_sessions != 2 || stats.saved_optimizations != 1 {
        return Err(format!(
            "coalescer counters wrong: {} coalesced / {} saved (want 2 / 1)",
            stats.coalesced_sessions, stats.saved_optimizations
        ));
    }
    // The coalition shares ONE backend session.
    if service.in_flight() != 1 {
        return Err(format!(
            "coalesced pair holds {} backend sessions, want 1",
            service.in_flight()
        ));
    }
    if drop_leader {
        drop(leader);
    } else {
        redeem(&mut service, leader, &qs[0], fault_free)?;
    }
    redeem(&mut service, follower, &qs[0], fault_free)?;
    // A distinct drain query: exercises demux after the coalition and
    // forces the abandoned-handle reap that releases a dropped leader's
    // membership.
    let drain = service
        .submit(&qs[1], PlanSpace::Linear, Objective::Single)
        .map_err(|e| format!("drain submit refused: {e}"))?;
    redeem(&mut service, drain, &qs[1], fault_free)?;
    if service.open_flights() != 0 {
        return Err(format!(
            "{} coalesced flights leaked after every member resolved",
            service.open_flights()
        ));
    }
    if service.in_flight() != 0 {
        return Err(format!(
            "{} sessions leaked past their wait",
            service.in_flight()
        ));
    }
    Ok(())
}

fn drive_admission(scenario: &Scenario, transport: Box<dyn Transport>) -> Result<(), String> {
    let mut config = ServiceConfig::new(scenario.workers);
    config.max_in_flight = 1;
    let mut service = OptimizerService::with_transport(config, transport)
        .map_err(|e| format!("service construction failed: {e}"))?;
    let qs = queries(scenario, 2);
    let first = service
        .submit(&qs[0], PlanSpace::Linear, Objective::Single)
        .map_err(|e| format!("first submit refused: {e}"))?;
    if service.in_flight() > 1 {
        return Err(format!(
            "admission budget exceeded: {} in flight at limit 1",
            service.in_flight()
        ));
    }
    // At the limit the second submission must be the *typed* refusal —
    // not queued, not a panic, not any other error.
    match service.submit(&qs[1], PlanSpace::Linear, Objective::Single) {
        Err(MpqError::Overloaded {
            in_flight: 1,
            limit: 1,
        }) => {}
        Ok(_) => return Err("submission beyond the admission limit was admitted".to_string()),
        Err(e) => return Err(format!("expected Overloaded at the limit, got: {e}")),
    }
    redeem(&mut service, first, &qs[0], true)?;
    // Capacity freed: the retry must be admitted and complete exactly.
    let second = service
        .submit(&qs[1], PlanSpace::Linear, Objective::Single)
        .map_err(|e| format!("resubmission after capacity freed was refused: {e}"))?;
    if service.in_flight() > 1 {
        return Err(format!(
            "admission budget exceeded: {} in flight at limit 1",
            service.in_flight()
        ));
    }
    redeem(&mut service, second, &qs[1], true)?;
    if service.in_flight() != 0 {
        return Err(format!(
            "{} sessions leaked past their wait",
            service.in_flight()
        ));
    }
    Ok(())
}

fn drive_cache(scenario: &Scenario, transport: Box<dyn Transport>) -> Result<(), String> {
    let config = ServiceConfig::with_cache(scenario.workers, 1 << 20);
    let mut service = OptimizerService::with_transport(config, transport)
        .map_err(|e| format!("service construction failed: {e}"))?;
    let qs = queries(scenario, 2);
    let run = |service: &mut OptimizerService, query: &Query| {
        service
            .submit(query, PlanSpace::Linear, Objective::Single)
            .and_then(|handle| service.wait(handle))
            .map_err(|e| format!("fault-free schedule failed: {e}"))
    };
    let answer = run(&mut service, &qs[0])?;
    check_exact(&qs[0], &answer)?;
    let wire = |s: &OptimizerService| s.network_snapshot().map(|n| (n.messages, n.total_bytes()));
    let sent = wire(&service);
    // The repeat is a hit: the first answer's bits, and no send at all.
    let again = run(&mut service, &qs[0])?;
    let bits =
        |plans: &[Plan]| -> Vec<u64> { plans.iter().map(|p| p.cost().time.to_bits()).collect() };
    if bits(&again) != bits(&answer) || wire(&service) != sent {
        return Err(format!(
            "a hit redeemed other bits or moved the wire ({sent:?} messages and bytes \
             before, {:?} after)",
            wire(&service)
        ));
    }
    // A dropped hit: its flight must go with the reap the drain forces.
    drop(service.submit(&qs[0], PlanSpace::Linear, Objective::Single));
    check_exact(&qs[1], &run(&mut service, &qs[1])?)?;
    let stats = service.cache_stats();
    if (
        stats.hits,
        stats.misses,
        service.open_flights(),
        service.in_flight(),
    ) != (2, 2, 0, 0)
    {
        return Err(format!(
            "{} hits / {} misses (want 2 / 2), {} flights and {} sessions leaked",
            stats.hits,
            stats.misses,
            service.open_flights(),
            service.in_flight()
        ));
    }
    Ok(())
}
