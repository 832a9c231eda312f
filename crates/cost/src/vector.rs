//! Cost vectors and (approximate) domination.
//!
//! Single-objective optimization compares plans on execution time alone;
//! multi-objective optimization (the paper's second experiment series)
//! compares Pareto-style on `(time, buffer)` and uses the α-approximate
//! pruning of Trummer & Koch (SIGMOD 2014): a plan may be pruned by a plan
//! whose cost is within factor α in every metric, which bounds the Pareto
//! set size while guaranteeing an α-approximate frontier.

use serde::{Deserialize, Serialize};

/// Which metrics participate in plan comparison.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Objective {
    /// Classical optimization: execution time only.
    Single,
    /// Multi-objective: time and buffer space, with α-approximate Pareto
    /// pruning (α ≥ 1; α = 1 is the exact frontier).
    Multi {
        /// Approximation factor α of the pruning function.
        alpha: f64,
    },
}

impl Objective {
    /// The paper's default multi-objective configuration (α = 10,
    /// Section 6.1).
    pub const PAPER_MULTI: Objective = Objective::Multi { alpha: 10.0 };

    /// Whether this objective is one an optimizer can run: the
    /// approximation factor of [`Objective::Multi`] must be a finite
    /// number ≥ 1. Anything that takes an objective from outside the
    /// program — the wire decoder, the services' admission point — checks
    /// this first, so the pruning policy's own assertion never sees the
    /// rest.
    pub fn is_valid(&self) -> bool {
        match *self {
            Objective::Single => true,
            Objective::Multi { alpha } => alpha.is_finite() && alpha >= 1.0,
        }
    }

    /// Number of active metrics.
    pub fn metrics(&self) -> usize {
        match self {
            Objective::Single => 1,
            Objective::Multi { .. } => 2,
        }
    }

    /// Whether `a` may prune `b` under this objective:
    /// * single-objective — `a.time <= b.time`;
    /// * multi-objective — `a` α-dominates `b` (`a <= α·b` component-wise).
    pub fn dominates(&self, a: &CostVector, b: &CostVector) -> bool {
        match self {
            Objective::Single => a.time <= b.time,
            Objective::Multi { alpha } => a.alpha_dominates(b, *alpha),
        }
    }
}

/// A two-metric cost vector: execution time (work units) and buffer space
/// (bytes). Under [`Objective::Single`] only `time` is compared; `buffer`
/// is still tracked so reports can show it.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostVector {
    /// Estimated execution time in abstract work units.
    pub time: f64,
    /// Peak buffer-space consumption in bytes.
    pub buffer: f64,
}

impl CostVector {
    /// Zero cost (neutral element of [`CostVector::add`]).
    pub const ZERO: CostVector = CostVector {
        time: 0.0,
        buffer: 0.0,
    };

    /// Creates a cost vector.
    #[inline]
    pub const fn new(time: f64, buffer: f64) -> Self {
        CostVector { time, buffer }
    }

    /// Combines the cost of an operator with the costs of its children:
    /// times add, buffer requirements take the maximum (an operator's
    /// working memory coexists with at most the larger child pipeline).
    /// Both combiners are monotone, which the DP's principle of optimality
    /// requires.
    #[inline]
    pub fn add(&self, other: &CostVector) -> CostVector {
        CostVector {
            time: self.time + other.time,
            buffer: self.buffer.max(other.buffer),
        }
    }

    /// Exact Pareto domination: `self` no worse in every metric.
    #[inline]
    pub fn dominates(&self, other: &CostVector) -> bool {
        self.time <= other.time && self.buffer <= other.buffer
    }

    /// α-approximate domination: `self <= α · other` component-wise.
    /// With α = 1 this is exact domination.
    #[inline]
    pub fn alpha_dominates(&self, other: &CostVector, alpha: f64) -> bool {
        self.time <= alpha * other.time && self.buffer <= alpha * other.buffer
    }

    /// Strictly better in at least one metric and no worse in the other.
    #[inline]
    pub fn strictly_dominates(&self, other: &CostVector) -> bool {
        self.dominates(other) && (self.time < other.time || self.buffer < other.buffer)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_macros)]
    use super::*;

    #[test]
    fn add_times_max_buffers() {
        let a = CostVector::new(10.0, 100.0);
        let b = CostVector::new(5.0, 300.0);
        let c = a.add(&b);
        assert_eq!(c.time, 15.0);
        assert_eq!(c.buffer, 300.0);
    }

    #[test]
    fn zero_is_neutral() {
        let a = CostVector::new(7.0, 9.0);
        assert_eq!(a.add(&CostVector::ZERO), a);
    }

    #[test]
    fn exact_domination() {
        let a = CostVector::new(1.0, 1.0);
        let b = CostVector::new(2.0, 2.0);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(a.dominates(&a));
        assert!(!a.strictly_dominates(&a));
        assert!(a.strictly_dominates(&b));
    }

    #[test]
    fn incomparable_vectors() {
        let a = CostVector::new(1.0, 10.0);
        let b = CostVector::new(10.0, 1.0);
        assert!(!a.dominates(&b));
        assert!(!b.dominates(&a));
    }

    #[test]
    fn alpha_relaxes_domination() {
        let a = CostVector::new(5.0, 5.0);
        let b = CostVector::new(1.0, 1.0);
        assert!(!a.dominates(&b));
        assert!(a.alpha_dominates(&b, 10.0));
        assert!(!a.alpha_dominates(&b, 2.0));
        // α = 1 is exact domination.
        assert_eq!(a.alpha_dominates(&b, 1.0), a.dominates(&b));
    }

    #[test]
    fn objective_single_ignores_buffer() {
        let obj = Objective::Single;
        let fast_fat = CostVector::new(1.0, 1e9);
        let slow_thin = CostVector::new(2.0, 1.0);
        assert!(obj.dominates(&fast_fat, &slow_thin));
        assert!(!obj.dominates(&slow_thin, &fast_fat));
        assert_eq!(obj.metrics(), 1);
    }

    #[test]
    fn only_a_finite_alpha_of_at_least_one_is_valid() {
        assert!(Objective::Single.is_valid());
        for alpha in [1.0, 2.0, 1e300] {
            assert!(Objective::Multi { alpha }.is_valid(), "{alpha}");
        }
        for alpha in [0.5, 0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!Objective::Multi { alpha }.is_valid(), "{alpha}");
        }
    }

    #[test]
    fn objective_multi_uses_alpha() {
        let obj = Objective::Multi { alpha: 2.0 };
        let a = CostVector::new(3.0, 3.0);
        let b = CostVector::new(2.0, 2.0);
        assert!(obj.dominates(&a, &b)); // 3 <= 2*2
        let strict = Objective::Multi { alpha: 1.0 };
        assert!(!strict.dominates(&a, &b));
        assert_eq!(obj.metrics(), 2);
    }
}
