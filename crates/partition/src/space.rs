//! Plan spaces and partition-ID decoding (Algorithm 3).

use crate::constraints::{Constraint, ConstraintSet};
use crate::grouping::Grouping;
use serde::{Deserialize, Serialize};

/// The plan space searched by the optimizer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlanSpace {
    /// Left-deep plans: the inner operand of every join is a base table.
    /// Partitioning constrains table pairs.
    Linear,
    /// Arbitrary binary join trees. Partitioning constrains table triples.
    Bushy,
}

impl PlanSpace {
    /// Tables per constrained group: 2 for linear, 3 for bushy.
    pub fn group_size(&self) -> usize {
        match self {
            PlanSpace::Linear => 2,
            PlanSpace::Bushy => 3,
        }
    }

    /// Maximum number of constraints for an `n`-table query: the number of
    /// disjoint pairs (`⌊n/2⌋`) or triples (`⌊n/3⌋`).
    pub fn max_constraints(&self, num_tables: usize) -> usize {
        num_tables / self.group_size()
    }

    /// Maximum number of plan-space partitions — and therefore the maximal
    /// useful degree of parallelism — for an `n`-table query:
    /// `2^⌊n/2⌋` (linear) or `2^⌊n/3⌋` (bushy), per Section 5.
    pub fn max_partitions(&self, num_tables: usize) -> u64 {
        let l = self.max_constraints(num_tables).min(63);
        1u64 << l
    }

    /// Per-doubling reduction factor of admissible join results
    /// (Theorems 2 and 3): 3/4 for linear, 7/8 for bushy.
    pub fn set_reduction_factor(&self) -> f64 {
        match self {
            PlanSpace::Linear => 3.0 / 4.0,
            PlanSpace::Bushy => 7.0 / 8.0,
        }
    }

    /// Per-doubling reduction factor of optimization time
    /// (Theorems 6 and 7): 3/4 for linear, 21/27 for bushy.
    pub fn time_reduction_factor(&self) -> f64 {
        match self {
            PlanSpace::Linear => 3.0 / 4.0,
            PlanSpace::Bushy => 21.0 / 27.0,
        }
    }
}

/// The largest number of workers `<= requested` that the partitioning
/// scheme can use for an `n`-table query: a power of two bounded by
/// [`PlanSpace::max_partitions`]. The paper restricts worker counts to
/// powers of two and notes that the extension to general counts simply
/// uses the largest usable power-of-two subset of workers.
pub fn effective_workers(space: PlanSpace, num_tables: usize, requested: u64) -> u64 {
    let cap = space.max_partitions(num_tables).min(requested.max(1));
    // Largest power of two <= cap.
    1u64 << (63 - cap.leading_zeros() as u64)
}

/// Whether `[first, first + count)` is a non-empty range of partition IDs
/// of a `partitions`-way partitioning an `num_tables`-table query
/// supports: exactly the ranges every ID of which
/// [`partition_constraints`] decodes. Whoever takes a range from outside
/// the program — a worker decoding a task, the master handed a layout —
/// asks this first, because `partition_constraints` panics on the rest.
pub fn is_partition_range(
    num_tables: usize,
    space: PlanSpace,
    first: u64,
    count: u64,
    partitions: u64,
) -> bool {
    partitions.is_power_of_two()
        && partitions.trailing_zeros() as usize <= space.max_constraints(num_tables)
        && count >= 1
        && first
            .checked_add(count)
            .is_some_and(|end| end <= partitions)
}

/// Decodes a partition ID into the constraint set defining that plan-space
/// partition (Algorithm 3 / function `PartConstraints`).
///
/// `partitions` must be a power of two with
/// `log2(partitions) <= space.max_constraints(num_tables)`; `part_id` is
/// zero-based (`0 <= part_id < partitions`; the paper numbers partitions
/// from one, which only shifts the bit pattern labels). Bit `i` of
/// `part_id` selects the direction of the constraint on the `i`-th table
/// group:
///
/// * linear, bit 0: `Q_{2i} ≺ Q_{2i+1}`; bit 1: `Q_{2i+1} ≺ Q_{2i}`;
/// * bushy, bit 0: `Q_{3i} ⪯ Q_{3i+1} | Q_{3i+2}`; bit 1 swaps `x` and `y`.
///
/// # Panics
/// Panics if `partitions` is not a power of two, `part_id` is out of range,
/// or the query is too small for `log2(partitions)` constraints.
#[expect(
    clippy::disallowed_macros,
    reason = "a range from outside the program meets `is_partition_range`, the same three \
              conditions, first: the worker (`MpqWorker::on_message`) answers a task that \
              fails it with an error echo, the master refuses such a layout (`BadRequest`)"
)]
pub fn partition_constraints(
    num_tables: usize,
    space: PlanSpace,
    part_id: u64,
    partitions: u64,
) -> ConstraintSet {
    assert!(
        partitions.is_power_of_two(),
        "partition count {partitions} must be a power of two"
    );
    assert!(
        part_id < partitions,
        "partition id {part_id} out of range (m = {partitions})"
    );
    let l = partitions.trailing_zeros() as usize;
    assert!(
        l <= space.max_constraints(num_tables),
        "{partitions} partitions need {l} constraints but an {num_tables}-table query \
         supports at most {} in the {space:?} space",
        space.max_constraints(num_tables)
    );
    let grouping = Grouping::new(num_tables, space);
    let mut per_group = vec![None; grouping.num_groups()];
    for (i, slot) in per_group.iter_mut().enumerate().take(l) {
        let g = grouping.group(i);
        let prec_ord = (part_id >> i) & 1;
        let c = match space {
            PlanSpace::Linear => {
                let (a, b) = (g.tables[0], g.tables[1]);
                if prec_ord == 0 {
                    Constraint::Precedence {
                        before: a,
                        after: b,
                    }
                } else {
                    Constraint::Precedence {
                        before: b,
                        after: a,
                    }
                }
            }
            PlanSpace::Bushy => {
                let (a, b, z) = (g.tables[0], g.tables[1], g.tables[2]);
                if prec_ord == 0 {
                    Constraint::BushyPrecedence { x: a, y: b, z }
                } else {
                    Constraint::BushyPrecedence { x: b, y: a, z }
                }
            }
        };
        *slot = Some(c);
    }
    ConstraintSet::new(grouping, per_group)
}

#[cfg(test)]
mod tests {
    #![allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::disallowed_macros
    )]
    use super::*;

    #[test]
    fn group_sizes() {
        assert_eq!(PlanSpace::Linear.group_size(), 2);
        assert_eq!(PlanSpace::Bushy.group_size(), 3);
    }

    #[test]
    fn max_partitions_match_paper() {
        // Section 5: m <= 2^⌊n/2⌋ (linear), m <= 2^⌊n/3⌋ (bushy).
        assert_eq!(PlanSpace::Linear.max_partitions(8), 16);
        assert_eq!(PlanSpace::Linear.max_partitions(9), 16);
        assert_eq!(PlanSpace::Linear.max_partitions(24), 1 << 12);
        assert_eq!(PlanSpace::Bushy.max_partitions(9), 8);
        assert_eq!(PlanSpace::Bushy.max_partitions(15), 32);
        assert_eq!(PlanSpace::Bushy.max_partitions(18), 64);
    }

    #[test]
    fn a_partition_range_is_what_the_decoder_accepts() {
        let ok = |first, count, m| is_partition_range(3, PlanSpace::Linear, first, count, m);
        assert!(ok(0, 1, 1) && ok(0, 2, 2) && ok(1, 1, 2));
        // Not a power of two (zero included); more constraints than the
        // query has pairs; an ID past the end; nothing to do; a sum that
        // wraps.
        assert!(!ok(0, 1, 3) && !ok(0, 1, 0));
        assert!(!ok(0, 1, 4) && !ok(7, 1, 4) && !ok(0, 1, 1 << 40));
        assert!(!ok(2, 1, 2) && !ok(1, 2, 2));
        assert!(!ok(0, 0, 2));
        assert!(!ok(1, u64::MAX, 2) && !ok(0, u64::MAX, 2));
        // A query too small for any constraint still has its one partition.
        assert!(is_partition_range(1, PlanSpace::Bushy, 0, 1, 1));
        assert!(!is_partition_range(2, PlanSpace::Bushy, 0, 1, 2));
        assert!(is_partition_range(6, PlanSpace::Bushy, 1, 3, 4));
    }

    #[test]
    fn effective_workers_rounds_down_to_power_of_two() {
        assert_eq!(effective_workers(PlanSpace::Linear, 20, 100), 64);
        assert_eq!(effective_workers(PlanSpace::Linear, 20, 128), 128);
        assert_eq!(effective_workers(PlanSpace::Linear, 4, 128), 4);
        assert_eq!(effective_workers(PlanSpace::Bushy, 9, 128), 8);
        assert_eq!(effective_workers(PlanSpace::Linear, 20, 1), 1);
        assert_eq!(effective_workers(PlanSpace::Linear, 20, 0), 1);
    }

    #[test]
    fn decode_zero_partition_id_orders_forward() {
        let c = partition_constraints(4, PlanSpace::Linear, 0, 4);
        let cs: Vec<_> = c.iter().collect();
        assert_eq!(cs.len(), 2);
        assert_eq!(
            cs[0],
            Constraint::Precedence {
                before: 0,
                after: 1
            }
        );
        assert_eq!(
            cs[1],
            Constraint::Precedence {
                before: 2,
                after: 3
            }
        );
    }

    #[test]
    fn decode_example_one_from_paper() {
        // Example 1: partition ID 3 of 4 (the paper's 1-based ID 3 with bits
        // "10" corresponds to our 0-based ID 2): first bit 0 => R before S,
        // second bit 1 => U before T.
        let c = partition_constraints(4, PlanSpace::Linear, 2, 4);
        let cs: Vec<_> = c.iter().collect();
        assert_eq!(
            cs[0],
            Constraint::Precedence {
                before: 0,
                after: 1
            }
        );
        assert_eq!(
            cs[1],
            Constraint::Precedence {
                before: 3,
                after: 2
            }
        );
    }

    #[test]
    fn decode_bushy_swaps_x_y() {
        let c0 = partition_constraints(6, PlanSpace::Bushy, 0, 2);
        assert_eq!(
            c0.iter().next().unwrap(),
            Constraint::BushyPrecedence { x: 0, y: 1, z: 2 }
        );
        let c1 = partition_constraints(6, PlanSpace::Bushy, 1, 2);
        assert_eq!(
            c1.iter().next().unwrap(),
            Constraint::BushyPrecedence { x: 1, y: 0, z: 2 }
        );
    }

    #[test]
    fn single_partition_has_no_constraints() {
        let c = partition_constraints(10, PlanSpace::Linear, 0, 1);
        assert_eq!(c.iter().count(), 0);
    }

    #[test]
    fn complementary_ids_complement_each_bit() {
        let m = 8u64;
        for id in 0..m {
            let comp = m - 1 - id; // flips all three bits
            let a: Vec<_> = partition_constraints(6, PlanSpace::Linear, id, m)
                .iter()
                .collect();
            let b: Vec<_> = partition_constraints(6, PlanSpace::Linear, comp, m)
                .iter()
                .collect();
            for (ca, cb) in a.iter().zip(&b) {
                match (ca, cb) {
                    (
                        Constraint::Precedence {
                            before: b1,
                            after: a1,
                        },
                        Constraint::Precedence {
                            before: b2,
                            after: a2,
                        },
                    ) => {
                        assert_eq!(b1, a2);
                        assert_eq!(a1, b2);
                    }
                    _ => panic!("expected precedence constraints"),
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn rejects_non_power_of_two() {
        let _ = partition_constraints(8, PlanSpace::Linear, 0, 3);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_id() {
        let _ = partition_constraints(8, PlanSpace::Linear, 4, 4);
    }

    #[test]
    #[should_panic]
    fn rejects_too_many_constraints() {
        // 4 tables support at most 2 linear constraints => max 4 partitions.
        let _ = partition_constraints(4, PlanSpace::Linear, 0, 8);
    }

    #[test]
    fn reduction_factors() {
        assert_eq!(PlanSpace::Linear.set_reduction_factor(), 0.75);
        assert_eq!(PlanSpace::Bushy.set_reduction_factor(), 0.875);
        assert_eq!(PlanSpace::Linear.time_reduction_factor(), 0.75);
        assert!((PlanSpace::Bushy.time_reduction_factor() - 21.0 / 27.0).abs() < 1e-12);
    }
}
