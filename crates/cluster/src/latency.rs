//! The latency model, reduced to its name.
//!
//! No message plane simulates latency: a real socket supplies its own, and
//! the in-process [`Cluster`](crate::Cluster) charges none. The type stays
//! only because [`Cluster::spawn`](crate::Cluster::spawn) still takes one.

/// The zero-delay latency model, the only one there is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyModel;

impl LatencyModel {
    /// No simulated delays.
    pub const ZERO: LatencyModel = LatencyModel;
}
