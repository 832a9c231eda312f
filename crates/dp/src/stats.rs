//! Per-worker optimization statistics.
//!
//! These counters back the paper's measured series: "Memory (relations)" in
//! Figures 2 and 5 is [`WorkerStats::stored_sets`]; "W-Time" is
//! [`WorkerStats::optimize_micros`] maximized over the workers of a run.

use serde::{Deserialize, Serialize};

/// Counters collected while optimizing one plan-space partition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Number of table sets (relations) for which at least one plan is
    /// stored — the paper's main-memory metric.
    pub stored_sets: u64,
    /// Total memo entries stored across all sets (> `stored_sets` when
    /// interesting orders or Pareto frontiers keep alternatives).
    pub total_entries: u64,
    /// Number of operand splits tried (`TrySplits` invocations × splits).
    pub splits_tried: u64,
    /// Number of candidate plans generated (splits × applicable operators
    /// × operand-plan combinations).
    pub plans_generated: u64,
    /// Wall-clock optimization time in microseconds, without any
    /// communication: the MPQ worker stamps it per partition it runs. The
    /// DP reads no clock and leaves it 0.
    pub optimize_micros: u64,
}

impl WorkerStats {
    /// Element-wise maximum (used to aggregate "max over workers" series).
    pub fn max(&self, other: &WorkerStats) -> WorkerStats {
        WorkerStats {
            stored_sets: self.stored_sets.max(other.stored_sets),
            total_entries: self.total_entries.max(other.total_entries),
            splits_tried: self.splits_tried.max(other.splits_tried),
            plans_generated: self.plans_generated.max(other.plans_generated),
            optimize_micros: self.optimize_micros.max(other.optimize_micros),
        }
    }

    /// Accumulates one run's counters: a worker's over the partitions of
    /// its range, a session's over the ranges a worker ran (several under
    /// retries). Times and work add up; memory is the peak.
    pub fn accumulate(&mut self, other: &WorkerStats) {
        self.splits_tried += other.splits_tried;
        self.plans_generated += other.plans_generated;
        self.optimize_micros += other.optimize_micros;
        self.stored_sets = self.stored_sets.max(other.stored_sets);
        self.total_entries = self.total_entries.max(other.total_entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_is_elementwise() {
        let a = WorkerStats {
            stored_sets: 1,
            total_entries: 9,
            ..Default::default()
        };
        let b = WorkerStats {
            stored_sets: 5,
            total_entries: 2,
            ..Default::default()
        };
        let m = a.max(&b);
        assert_eq!(m.stored_sets, 5);
        assert_eq!(m.total_entries, 9);
    }

    #[test]
    fn accumulate_adds_work_and_keeps_peak_memory() {
        let mut a = WorkerStats {
            stored_sets: 5,
            splits_tried: 3,
            ..Default::default()
        };
        a.accumulate(&WorkerStats {
            stored_sets: 2,
            splits_tried: 7,
            ..Default::default()
        });
        assert_eq!(a.stored_sets, 5);
        assert_eq!(a.splits_tried, 10);
    }
}
