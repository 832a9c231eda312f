//! Simulated shared-nothing cluster substrate.
//!
//! The paper evaluates on a 100-node Spark/Yarn cluster; this crate
//! reproduces the *shared-nothing discipline* of that environment on one
//! machine so that the algorithmic properties under test — communication
//! rounds, bytes on the wire, per-worker state — are exercised by real code
//! paths:
//!
//! * Worker nodes are OS threads with **fully private state**: the only way
//!   data moves between the master and a worker is a serialized message.
//! * Every message is encoded through the binary [`codec`], its size is
//!   added to the [`NetworkMetrics`] byte counters, and it is decoded on
//!   the receiving side — nothing crosses by reference.
//! * A configurable [`LatencyModel`] charges task-assignment overhead and
//!   transfer latency per message, mimicking the "high network latency and
//!   task assignment overheads" of the paper's Spark setup.
//!
//! The [`runtime::Cluster`] is protocol-agnostic: the MPQ algorithm
//! (`mpq-algo`) and the SMA baseline (`mpq-sma`) implement their own
//! message types on top of [`codec::Wire`].
//!
//! A cluster is **long-lived and multi-session**: every wire message is
//! framed in a [`codec::SessionEnvelope`] tagging the owning
//! [`codec::QueryId`], worker logic receives that id with each message
//! (so one worker can hold state for many in-flight queries), and the
//! master can either receive untargeted ([`Cluster::recv`]) or route
//! replies to the owning session ([`Cluster::recv_for`]), with replies
//! for other sessions parked rather than dropped.
//!
//! On top of the message plane sits the master-side **session
//! lifecycle** ([`session`]): one handle type, one admission/park/reap
//! table and one `submit`/`poll`/`wait` loop, generic over the
//! [`Protocol`] a master speaks — shared by the MPQ and SMA services.
//!
//! The runtime can also inject **deterministic faults** — worker crashes
//! (before or after replying), dropped replies and stragglers — from a
//! seed-driven [`FaultPlan`] (see [`fault`]). Masters observe faults
//! through typed [`ClusterError`]s, [`Cluster::recv_timeout`] and
//! liveness probes rather than panics, mirroring how a Spark-style
//! master observes executor loss.

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
pub use fault::{FaultAction, FaultPlan, FaultSchedule, WorkerFaults};
pub use latency::LatencyModel;
pub use metrics::{NetworkMetrics, NetworkSnapshot, WorkerCounters};
pub use runtime::{
    mint_service_instance, AbandonedList, Cluster, ClusterError, Control, ReplyPark, WorkerCtx,
    WorkerLogic,
};
pub use session::{
    BlockingStep, LifecycleError, Protocol, QueryHandle, SessionService, SessionTable, Settled,
    Table, MAX_PARKED_RESULTS,
};
pub use transport::{
    frame_with_prefix, serve_worker, FrameBuffer, Hello, SocketTransport, Transport, WireListener,
    WireStream, WorkerAddr, LENGTH_PREFIX_BYTES,
};
