//! Shared-nothing cluster substrate.
//!
//! The paper evaluates on a 100-node Spark/Yarn cluster; this crate
//! reproduces the *shared-nothing discipline* of that environment so that
//! the algorithmic properties under test — communication rounds, bytes on
//! the wire, per-worker state — are exercised by real code paths:
//!
//! * Worker nodes have **fully private state**: the only way data moves
//!   between the master and a worker is a serialized message.
//! * Every message is encoded through the binary [`codec`], its size is
//!   added to the [`NetworkMetrics`] byte counters, and it is decoded on
//!   the receiving side — nothing crosses by reference.
//! * Two message planes carry the messages: the in-process [`Cluster`]
//!   (worker threads and channels, no simulated latency) and the
//!   [`SocketTransport`] to worker processes, where the network supplies
//!   the latency the paper's Spark setup pays.
//!
//! The [`runtime::Cluster`] is protocol-agnostic: the MPQ algorithm
//! (`mpq-algo`) implements its own message types on top of
//! [`codec::Wire`], and the SMA baseline (`mpq-sma`) declares its
//! messages the same way to count their bytes.
//!
//! A cluster is **long-lived and multi-session**: every wire message is
//! framed in a [`codec::SessionEnvelope`] tagging the owning
//! [`codec::QueryId`], worker logic receives that id with each message
//! (so one worker can hold state for many in-flight queries), and the
//! master can either receive untargeted ([`Transport::recv`]) or route
//! replies to the owning session ([`Transport::recv_for`]), with replies
//! for other sessions parked rather than dropped.
//!
//! Beside the message plane sits the master-side **session table**
//! ([`session`]): one handle type and one admission/park/reap table,
//! shared by the MPQ master and the facade's single-node backends.
//!
//! **Deterministic faults** — worker crashes (before or after replying),
//! dropped replies and stragglers — come from a seed-driven [`FaultPlan`]
//! applied by the [`Faulty`] worker decorator (see [`fault`]), on either
//! plane. Masters observe faults through typed [`ClusterError`]s,
//! [`Transport::recv_timeout`] and liveness probes rather than panics,
//! mirroring how a Spark-style master observes executor loss.

#![forbid(unsafe_code)]

pub mod codec;
pub mod fault;
pub mod latency;
pub mod metrics;
pub mod runtime;
pub mod session;
pub mod transport;

pub use codec::{
    DecodeError, Decoder, EncodeError, Encoder, FixedSize, Progress, QueryId, SessionEnvelope,
    Wire, WireType,
};
pub use fault::{FaultAction, FaultPlan, FaultSchedule, Faulty, WorkerFaults};
pub use latency::LatencyModel;
pub use metrics::{NetworkMetrics, NetworkSnapshot, WorkerCounters};
pub use runtime::{
    mint_service_instance, AbandonedList, Cluster, ClusterError, Control, ReplyPark, WorkerCtx,
    WorkerLogic,
};
pub use session::{LifecycleError, QueryHandle, SessionTable, MAX_PARKED_RESULTS};
pub use transport::{
    frame_with_prefix, serve_worker, FrameBuffer, Hello, SocketTransport, Transport, WireListener,
    WireStream, WorkerAddr, LENGTH_PREFIX_BYTES,
};
