//! Exhaustive schedule-space model checking for the session/scheduler
//! state machines.
//!
//! The repo's correctness story otherwise rests on *randomized*
//! chaos/proptest suites. The MPQ session scheduler, the coalescer
//! flight lifecycle, and admission accounting are clock-free
//! event-driven state machines — exactly the shape that systematic
//! schedule exploration can check **exhaustively** at small scope
//! instead of probabilistically (the discipline behind loom/shuttle-style
//! checkers).
//!
//! The pieces:
//!
//! * [`ModelTransport`] — a [`Transport`](mpq_cluster::Transport)
//!   implementation that hosts the real worker logic ([`mpq_algo`])
//!   *inline*: every master send is enqueued, and at every
//!   receive a controller chooses which enabled action happens next —
//!   run a worker's next message, deliver a pending reply, report a
//!   timeout, or inject a budgeted fault (drop / duplicate / crash).
//!   Session demultiplexing reuses the cluster's own
//!   [`ReplyPark`](mpq_cluster::ReplyPark), so the model demuxes
//!   bit-identically to the in-process and socket planes.
//! * [`explore()`] — a DFS explorer over the controller's choice points
//!   with bounded depth, state-signature deduplication, and a
//!   partial-order reduction over commuting worker steps.
//! * [`scenario`] — small fixed configurations (2–3 workers, 1–2
//!   sessions) of the real services with per-schedule invariant checks:
//!   exactly-once result delivery, bit-identical fault-free optimum,
//!   admission budget, coalescer counter exactness and flight hygiene,
//!   balanced fault ledgers, steal-reconciliation no-double-count, and
//!   no stalls (a schedule on which the service can never again make
//!   progress).
//!
//! Every failing schedule prints as a replayable delivery script (a
//! comma-separated choice list) that re-runs the exact interleaving —
//! see [`scenario::run_scenario`] and the pinned traces in this crate's
//! regression tests.

#![forbid(unsafe_code)]

pub mod explore;
pub mod scenario;
pub mod transport;

pub use explore::{explore, explore_por, ExploreReport, Violation};
pub use scenario::{
    default_suite, find_scenario, fixture_scenario, run_scenario, run_scenario_por, Kind,
    RunOutcome, Scenario,
};
pub use transport::{ActionDesc, Decision, FaultBudget, ModelHandle, ModelTransport};

/// FNV-1a 64-bit — the dependency-free state fingerprint the whole
/// crate shares. Not cryptographic; collisions only risk *pruning* a
/// schedule the explorer would otherwise revisit, never a false alarm.
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = if seed == 0 {
        0xcbf2_9ce4_8422_2325
    } else {
        seed
    };
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds one `u64` into a running FNV state.
pub fn fnv1a_u64(seed: u64, value: u64) -> u64 {
    fnv1a(seed, &value.to_le_bytes())
}
