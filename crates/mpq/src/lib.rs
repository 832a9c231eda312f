//! **MPQ** — massively-parallel query optimization on shared-nothing
//! architectures: the algorithm of Trummer & Koch (VLDB 2016).
//!
//! The protocol is Algorithm 1 of the paper, executed over the simulated
//! shared-nothing cluster of `mpq-cluster`:
//!
//! 1. The master sends each worker **one** task message containing the
//!    query (with its statistics), the plan space, the objective, and the
//!    worker's partition-ID range — `O(m · b_q)` bytes in total.
//! 2. Each worker decodes its partition IDs into join-order constraints
//!    (Algorithm 3), runs the per-partition dynamic program of `mpq-dp`
//!    over the admissible join results, and replies with its
//!    partition-optimal plan(s) — `O(m · b_p)` bytes in total.
//! 3. The master compares the `O(m)` returned plans (`FinalPrune`) and
//!    reports the globally optimal plan, or the merged Pareto frontier for
//!    multi-objective optimization.
//!
//! There is exactly **one communication round** and no worker↔worker
//! traffic; the master's work is linear in `m` and the query size.
//!
//! Heterogeneous workers (footnote 1 of the paper) take one of two
//! routes: an explicit [`MpqService::submit_assigned`] layout whose
//! contiguous partition ranges are sized to the workers, or stealing
//! ([`MpqConfig::steal`]), which moves a slow worker's unstarted
//! partitions to idle ones while the session runs.
//!
//! The master is **fault tolerant**: because a task is stateless (query +
//! partition range) and the protocol has a single round, a crashed,
//! dropped or straggling worker costs exactly one re-issued task. Retries
//! and speculative re-execution are governed by a [`RetryPolicy`]; with
//! retries disabled, worker loss surfaces as a typed [`MpqError`] rather
//! than a panic.
//!
//! The master is also **resident**: [`MpqService`] keeps one long-lived
//! cluster up and multiplexes an unbounded stream of concurrent queries
//! over it (`submit` → [`QueryHandle`], `poll`/`wait`), so thread
//! spawn/teardown is paid once per service, not once per query. The
//! single-query [`MpqOptimizer`] entry points are wrappers over the same
//! scheduler.

#![forbid(unsafe_code)]

pub mod message;
pub mod optimizer;
pub mod service;

pub use message::{MasterMessage, WorkerMsg, WorkerReply};
pub use mpq_dp::ParallelPolicy;
pub use optimizer::{MpqConfig, MpqError, MpqMetrics, MpqOptimizer, MpqOutcome, RetryPolicy};
pub use service::{serve_socket_worker, worker_logic, MpqService, QueryHandle};
