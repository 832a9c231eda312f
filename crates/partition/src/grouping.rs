//! Partitioning of the query tables into constraint groups.
//!
//! Constraints are defined on disjoint groups of consecutive tables: pairs
//! `{Q_{2i}, Q_{2i+1}}` for linear spaces and triples
//! `{Q_{3i}, Q_{3i+1}, Q_{3i+2}}` for bushy spaces (function `Subsets` in
//! Algorithm 4). The paper assumes `n` divisible by the group size; we
//! generalize: any leftover tables form a final, never-constrained group so
//! that the Cartesian-product construction still covers every subset of the
//! query.

use crate::space::PlanSpace;
use mpq_model::TableSet;

/// One group of consecutive tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Group {
    /// The member tables, in ascending order (1 to 3 tables).
    pub tables: Vec<u8>,
    /// Index of the first table (groups are consecutive ranges).
    pub base: u8,
}

impl Group {
    /// Bitmask of the member tables.
    pub fn mask(&self) -> u64 {
        self.tables.iter().fold(0u64, |m, &t| m | (1u64 << t))
    }

    /// Number of member tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the group is empty (never true for constructed groupings).
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// The member tables as a [`TableSet`].
    pub fn table_set(&self) -> TableSet {
        TableSet(self.mask())
    }
}

/// The partition of `{Q_0, .., Q_{n-1}}` into constraint groups for one
/// plan space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Grouping {
    groups: Vec<Group>,
    num_tables: usize,
    space: PlanSpace,
}

impl Grouping {
    /// Builds the grouping for an `n`-table query in the given space.
    ///
    /// # Panics
    /// Panics if `num_tables` is 0 or exceeds 64.
    #[expect(
        clippy::disallowed_macros,
        reason = "no query reaches it with another size: the wire decoder refuses one \
                  (`DecodeError::TableCount`), admission (`SessionTable::admit`) and the CLI \
                  refuse one, and `TableSet` holds 64 tables"
    )]
    pub fn new(num_tables: usize, space: PlanSpace) -> Self {
        assert!(
            (1..=64).contains(&num_tables),
            "unsupported query size {num_tables}"
        );
        let gs = space.group_size();
        let full = num_tables / gs;
        let mut groups = Vec::with_capacity(full + 1);
        for i in 0..full {
            let base = (i * gs) as u8;
            groups.push(Group {
                tables: (0..gs as u8).map(|o| base + o).collect(),
                base,
            });
        }
        let rem = num_tables % gs;
        if rem > 0 {
            let base = (full * gs) as u8;
            groups.push(Group {
                tables: (0..rem as u8).map(|o| base + o).collect(),
                base,
            });
        }
        Grouping {
            groups,
            num_tables,
            space,
        }
    }

    /// Number of groups (full groups plus at most one leftover group).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of groups that may carry a constraint (full-size groups).
    pub fn num_constrainable(&self) -> usize {
        self.space.max_constraints(self.num_tables)
    }

    /// The `i`-th group.
    pub fn group(&self, i: usize) -> &Group {
        &self.groups[i]
    }

    /// Iterates over the groups.
    pub fn iter(&self) -> impl Iterator<Item = &Group> {
        self.groups.iter()
    }

    /// Number of query tables.
    pub fn num_tables(&self) -> usize {
        self.num_tables
    }

    /// The plan space the grouping was built for.
    pub fn space(&self) -> PlanSpace {
        self.space
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_macros)]
    use super::*;

    #[test]
    fn linear_pairs_even() {
        let g = Grouping::new(6, PlanSpace::Linear);
        assert_eq!(g.num_groups(), 3);
        assert_eq!(g.num_constrainable(), 3);
        assert_eq!(g.group(0).tables, vec![0, 1]);
        assert_eq!(g.group(2).tables, vec![4, 5]);
    }

    #[test]
    fn linear_pairs_odd_leftover() {
        let g = Grouping::new(7, PlanSpace::Linear);
        assert_eq!(g.num_groups(), 4);
        assert_eq!(g.num_constrainable(), 3);
        assert_eq!(g.group(3).tables, vec![6]);
    }

    #[test]
    fn bushy_triples_with_leftover_pair() {
        let g = Grouping::new(8, PlanSpace::Bushy);
        assert_eq!(g.num_groups(), 3);
        assert_eq!(g.num_constrainable(), 2);
        assert_eq!(g.group(0).tables, vec![0, 1, 2]);
        assert_eq!(g.group(2).tables, vec![6, 7]);
    }

    #[test]
    fn groups_cover_all_tables_disjointly() {
        for n in 1..=16 {
            for space in [PlanSpace::Linear, PlanSpace::Bushy] {
                let g = Grouping::new(n, space);
                let mut covered = 0u64;
                for grp in g.iter() {
                    assert_eq!(covered & grp.mask(), 0, "overlapping groups");
                    covered |= grp.mask();
                }
                assert_eq!(covered, TableSet::full(n).bits(), "n={n} {space:?}");
            }
        }
    }

    #[test]
    fn group_mask_matches_members() {
        let g = Grouping::new(9, PlanSpace::Bushy);
        assert_eq!(g.group(1).mask(), 0b111000);
        assert_eq!(g.group(1).table_set(), TableSet::from_tables([3, 4, 5]));
        assert_eq!(g.group(1).len(), 3);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_tables() {
        let _ = Grouping::new(0, PlanSpace::Linear);
    }
}
