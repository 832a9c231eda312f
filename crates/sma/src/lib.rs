//! **SMA** — the fine-grained baseline the paper compares against
//! (Section 6.1): a representative of prior parallel query optimizers
//! designed for shared-memory architectures (Han et al., VLDB 2008; Han &
//! Lee, SIGMOD 2009), transplanted onto a shared-nothing cluster.
//!
//! The master drives the classical DP level by level. For each join-result
//! cardinality `k` it partitions the `C(n, k)` table sets among the
//! workers (fine-grained task assignment), each worker computes optimal
//! plans for its sets against its **replicated memo**, sends the new
//! entries back, and the master re-broadcasts the merged level to every
//! worker so all replicas stay consistent. This reproduces the two
//! properties the paper attributes to SMA on shared-nothing hardware:
//!
//! * **many communication rounds** — one per join-result cardinality,
//!   `n - 1` per query, plus the final plan request; and
//! * **exponential network traffic** — the memo (size `O(2^n)`) crosses
//!   the network once per worker, `O(m · 2^n)` bytes in total, versus
//!   MPQ's `O(m · (b_q + b_p))`.
//!
//! SMA is only ever the baseline, so it is not served: [`SmaOptimizer`]
//! runs the protocol on one thread over one memo and bills every message
//! it would send (see [`optimizer`]). Its answer is the serial optimum,
//! bit for bit, and its bill is what `m` real workers would exchange.

#![forbid(unsafe_code)]

pub mod message;
pub mod optimizer;

pub use message::{SlotUpdate, SmaMasterMsg, SmaReply};
pub use optimizer::{SmaError, SmaMetrics, SmaOptimizer, SmaOutcome};
