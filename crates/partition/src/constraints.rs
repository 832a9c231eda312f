//! Join-order constraints.
//!
//! Two constraint forms exist (Section 4.2):
//!
//! * `x ≺ y` (linear spaces): table `x` must appear before table `y` in the
//!   join order of a left-deep plan. Equivalently, no intermediate join
//!   result may contain `y` without `x`.
//! * `x ⪯ y | z` (bushy spaces): following table `z` from its leaf to the
//!   plan root, `y` must not appear before `x`; equivalently, no
//!   intermediate join result may contain both `y` and `z` without `x`.
//!
//! A [`ConstraintSet`] carries at most one constraint per table group and
//! pre-computes the indexes the optimizer's hot loops need ("we assume that
//! constraints have been indexed such that all constraints concerning a
//! given set of tables can be retrieved efficiently", Section 4.2).

use crate::grouping::Grouping;
use mpq_model::TableSet;
use serde::{Deserialize, Serialize};

/// A single join-order constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Constraint {
    /// `before ≺ after`: join `before` earlier than `after` (left-deep).
    Precedence {
        /// Table that must be joined first.
        before: u8,
        /// Table that must not precede `before`.
        after: u8,
    },
    /// `x ⪯ y | z`: `x` appears no later than `y` when following `z`
    /// towards the plan root (bushy).
    BushyPrecedence {
        /// Table that must appear first.
        x: u8,
        /// Table that must not appear (together with `z`) before `x`.
        y: u8,
        /// The reference table.
        z: u8,
    },
}

impl Constraint {
    /// Whether a table set is admissible as an intermediate join result
    /// under this constraint alone.
    pub fn admits(&self, set: TableSet) -> bool {
        match *self {
            Constraint::Precedence { before, after } => {
                // Sets containing `after` without `before` are excluded
                // (singleton sets are handled separately by the memo:
                // scans are always built, Section 4.2).
                !set.contains(after as usize) || set.contains(before as usize)
            }
            Constraint::BushyPrecedence { x, y, z } => {
                !(set.contains(y as usize) && set.contains(z as usize) && !set.contains(x as usize))
            }
        }
    }
}

/// A set of constraints, at most one per table group of a [`Grouping`].
#[derive(Clone, Debug)]
pub struct ConstraintSet {
    grouping: Grouping,
    per_group: Vec<Option<Constraint>>,
    /// `must_precede[t]` = bitmask of tables `v` with a constraint
    /// `t ≺ v`. Lets `TrySplits[Linear]` test a candidate inner operand in
    /// one AND (Algorithm 5, line 7).
    must_precede: Vec<u64>,
}

impl ConstraintSet {
    /// Builds a constraint set. `per_group[i]`, when present, must mention
    /// only tables of group `i`.
    ///
    /// # Panics
    /// Panics if the vector length does not match the grouping or a
    /// constraint refers to tables outside its group.
    #[expect(
        clippy::disallowed_macros,
        reason = "its callers in the program, `partition_constraints` and \
                  `ConstraintSet::unconstrained`, build one entry per group from the \
                  group's own tables"
    )]
    pub fn new(grouping: Grouping, per_group: Vec<Option<Constraint>>) -> Self {
        assert_eq!(
            per_group.len(),
            grouping.num_groups(),
            "one (optional) constraint per group"
        );
        let mut must_precede = vec![0u64; grouping.num_tables()];
        for (i, c) in per_group.iter().enumerate() {
            let Some(c) = c else { continue };
            let gmask = grouping.group(i).mask();
            match *c {
                Constraint::Precedence { before, after } => {
                    let cmask = (1u64 << before) | (1u64 << after);
                    assert_eq!(cmask & !gmask, 0, "constraint tables outside group {i}");
                    must_precede[before as usize] |= 1u64 << after;
                }
                Constraint::BushyPrecedence { x, y, z } => {
                    let cmask = (1u64 << x) | (1u64 << y) | (1u64 << z);
                    assert_eq!(cmask & !gmask, 0, "constraint tables outside group {i}");
                }
            }
        }
        ConstraintSet {
            grouping,
            per_group,
            must_precede,
        }
    }

    /// An unconstrained set over the same grouping (partition count 1 —
    /// the serial optimizer).
    pub fn unconstrained(grouping: Grouping) -> Self {
        let n = grouping.num_groups();
        ConstraintSet::new(grouping, vec![None; n])
    }

    /// The grouping the constraints are defined over.
    pub fn grouping(&self) -> &Grouping {
        &self.grouping
    }

    /// The constraint on group `i`, if any.
    pub fn group_constraint(&self, i: usize) -> Option<Constraint> {
        self.per_group[i]
    }

    /// Iterates over the present constraints.
    pub fn iter(&self) -> impl Iterator<Item = Constraint> + '_ {
        self.per_group.iter().filter_map(|c| *c)
    }

    /// Number of constraints (`l` in the paper's analysis).
    pub fn len(&self) -> usize {
        self.per_group.iter().filter(|c| c.is_some()).count()
    }

    /// Whether no constraint is present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether table `u` may be the *last* table joined among `set`, i.e.
    /// no constraint requires `u` to precede another member of `set`
    /// (Algorithm 5 line 7; O(1) via the precedence index).
    #[inline]
    pub fn may_join_last(&self, u: usize, set: TableSet) -> bool {
        self.must_precede[u] & set.bits() == 0
    }

    /// Whether a (non-singleton) table set is admissible as an intermediate
    /// join result under all constraints.
    pub fn admits(&self, set: TableSet) -> bool {
        self.iter().all(|c| c.admits(set))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_macros)]
    use super::*;
    use crate::space::PlanSpace;

    fn linear_cs(n: usize, constraints: &[(u8, u8)]) -> ConstraintSet {
        let g = Grouping::new(n, PlanSpace::Linear);
        let mut per_group = vec![None; g.num_groups()];
        for &(before, after) in constraints {
            let grp = (before.min(after) / 2) as usize;
            per_group[grp] = Some(Constraint::Precedence { before, after });
        }
        ConstraintSet::new(g, per_group)
    }

    #[test]
    fn precedence_admits() {
        let c = Constraint::Precedence {
            before: 0,
            after: 1,
        };
        assert!(c.admits(TableSet::from_tables([0])));
        assert!(c.admits(TableSet::from_tables([0, 1])));
        assert!(c.admits(TableSet::from_tables([2, 3])));
        assert!(!c.admits(TableSet::from_tables([1])));
        assert!(!c.admits(TableSet::from_tables([1, 2])));
    }

    #[test]
    fn bushy_precedence_admits() {
        let c = Constraint::BushyPrecedence { x: 0, y: 1, z: 2 };
        // Excluded: y and z present, x absent.
        assert!(!c.admits(TableSet::from_tables([1, 2])));
        assert!(!c.admits(TableSet::from_tables([1, 2, 3])));
        // Admitted otherwise.
        assert!(c.admits(TableSet::from_tables([0, 1, 2])));
        assert!(c.admits(TableSet::from_tables([1])));
        assert!(c.admits(TableSet::from_tables([2])));
        assert!(c.admits(TableSet::from_tables([1, 3])));
    }

    #[test]
    fn example_two_from_paper() {
        // Q = {Q0..Q3}, C = {Q0 ≺ Q1, Q3 ≺ Q2} (paper's 1-based Q1≺Q2, Q4≺Q3).
        let cs = linear_cs(4, &[(0, 1), (3, 2)]);
        let admissible: Vec<u64> = (0u64..16)
            .filter(|&bits| cs.admits(TableSet(bits)))
            .collect();
        // Paper's Example 2 lists 9 sets (including the empty set).
        assert_eq!(admissible.len(), 9);
        assert!(admissible.contains(&0b0000)); // {}
        assert!(admissible.contains(&0b0001)); // {Q0}
        assert!(admissible.contains(&0b0011)); // {Q0,Q1}
        assert!(admissible.contains(&0b1000)); // {Q3}
        assert!(admissible.contains(&0b1001)); // {Q0,Q3}
        assert!(admissible.contains(&0b1011)); // {Q0,Q1,Q3}
        assert!(admissible.contains(&0b1100)); // {Q2,Q3}
        assert!(admissible.contains(&0b1101)); // {Q0,Q2,Q3}
        assert!(admissible.contains(&0b1111)); // {Q0,Q1,Q2,Q3}
    }

    #[test]
    fn may_join_last_uses_index() {
        let cs = linear_cs(4, &[(0, 1)]);
        let u_all = TableSet::full(4);
        // Table 0 must precede table 1, so it cannot be joined last while 1
        // is present.
        assert!(!cs.may_join_last(0, u_all));
        assert!(cs.may_join_last(1, u_all));
        assert!(cs.may_join_last(0, TableSet::from_tables([0, 2, 3])));
    }

    #[test]
    fn unconstrained_admits_everything() {
        let cs = ConstraintSet::unconstrained(Grouping::new(6, PlanSpace::Bushy));
        assert!(cs.is_empty());
        for bits in 0u64..64 {
            assert!(cs.admits(TableSet(bits)));
        }
        for t in 0..6 {
            assert!(cs.may_join_last(t, TableSet::full(6)));
        }
    }

    #[test]
    fn len_counts_constraints() {
        let cs = linear_cs(6, &[(0, 1), (5, 4)]);
        assert_eq!(cs.len(), 2);
        assert!(!cs.is_empty());
    }

    #[test]
    #[should_panic]
    fn rejects_cross_group_constraint() {
        let g = Grouping::new(4, PlanSpace::Linear);
        let per_group = vec![
            Some(Constraint::Precedence {
                before: 0,
                after: 3,
            }),
            None,
        ];
        let _ = ConstraintSet::new(g, per_group);
    }
}
