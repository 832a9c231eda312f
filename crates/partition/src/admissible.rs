//! Admissible join results and the dense memo index (Algorithm 4).
//!
//! An intermediate join result is admissible under a constraint set iff its
//! intersection with every table group is an admissible *local* subset of
//! that group:
//!
//! * unconstrained group: every local subset is admissible;
//! * linear pair `{a, b}` with `a ≺ b`: `{b}` is excluded (3 of 4 remain);
//! * bushy triple `{x, y, z}` with `x ⪯ y | z`: `{y, z}` is excluded
//!   (7 of 8 remain).
//!
//! The admissible sets therefore form a Cartesian product over groups,
//! which yields a **dense mixed-radix index**: number the admissible local
//! subsets of each group `0 .. r_g - 1` in an inclusion-compatible order
//! (by cardinality), and map a set to `Σ_g pos_g · stride_g`. The index is
//! a bijection between admissible sets and `0 .. Π r_g`, giving the
//! optimizer a flat-array memo with O(1), hash-free lookup — and because
//! the per-group numbering is inclusion-compatible, ascending index order
//! enumerates every admissible subset of a set before the set itself, which
//! is exactly the order the dynamic program needs.
//!
//! The index is also cheap to *carry*. Counting in the mixed radix yields
//! the sets in index order without a division ([`AdmissibleSets::iter`]);
//! taking one table out of a set changes the digit of that table's group
//! alone ([`AdmissibleSets::index_without`]); and an operand assembled from
//! per-group split parts has the sum of the parts' terms as its index
//! ([`SplitPart`]). The dynamic program's loops reach an operand's memo
//! record that way, never by recomputing an index from the set's bits.

use crate::constraints::{Constraint, ConstraintSet};
use mpq_model::TableSet;

/// Per-group indexing data.
#[derive(Clone, Debug)]
struct GroupIndex {
    /// First table of the group (groups are consecutive table ranges).
    base: u8,
    /// Number of tables in the group.
    size: u8,
    /// Number of admissible local subsets (`r_g`, the group's radix).
    radix: u8,
    /// Admissible local subsets as absolute bitmasks, ordered by
    /// cardinality (inclusion-compatible); the first `radix` are used.
    locals: [u64; 8],
    /// `pos[p]` = position of the local pattern `p` (relative to `base`) in
    /// `locals`, or `INVALID` if inadmissible. Indexed by the up-to-3-bit
    /// local pattern.
    pos: [u8; 8],
    /// Mixed-radix stride of this group.
    stride: usize,
}

impl GroupIndex {
    /// The local pattern of `bits` in this group, relative to `base`.
    #[inline]
    fn pattern(&self, bits: u64) -> usize {
        ((bits >> self.base) & ((1u64 << self.size) - 1)) as usize
    }
}

const INVALID: u8 = 0xFF;

/// How removing one table moves a set's dense index: the table's group
/// changes digit, every other group keeps its own.
#[derive(Clone, Debug)]
struct TableStep {
    /// First table and pattern mask of the table's group.
    base: u8,
    mask: u8,
    /// By the group's local pattern `p` (which holds the table):
    /// `(pos[p] − pos[p ∖ table]) · stride`, or `NO_STEP` when `p` lacks
    /// the table or either pattern is inadmissible.
    delta: [usize; 8],
}

const NO_STEP: usize = usize::MAX;

/// One admissible way of dividing `set ∩ group` between the operands of a
/// bushy split, with what each side adds to its operand's dense index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitPart {
    /// The left operand's share, as an absolute bitmask.
    pub left: u64,
    /// The group's term of the left operand's dense index.
    pub left_index: usize,
    /// The group's term of the right operand's dense index.
    pub right_index: usize,
}

/// Upper bound on the number of groups: all but a leftover group hold at
/// least two tables, so an n ≤ 64 query has at most 32.
pub const MAX_GROUPS: usize = 32;

/// The admissible join results of one plan-space partition, with the dense
/// mixed-radix index described in the module docs.
#[derive(Clone, Debug)]
pub struct AdmissibleSets {
    groups: Vec<GroupIndex>,
    steps: Vec<TableStep>,
    total: usize,
}

impl AdmissibleSets {
    /// Enumerates the admissible join results for `constraints`
    /// (function `AdmJoinResults` of Algorithm 4, in indexed form).
    #[expect(
        clippy::disallowed_macros,
        reason = "never fires: `Grouping::new` admits at most 64 tables, so at most 32 groups"
    )]
    pub fn new(constraints: &ConstraintSet) -> Self {
        let grouping = constraints.grouping();
        assert!(
            grouping.num_groups() <= MAX_GROUPS,
            "more than {MAX_GROUPS} table groups"
        );
        let mut groups = Vec::with_capacity(grouping.num_groups());
        let mut steps = Vec::with_capacity(grouping.num_tables());
        let mut stride = 1usize;
        for (i, g) in grouping.iter().enumerate() {
            let size = g.len() as u8;
            let base = g.base;
            let full: u8 = (1u8 << size) - 1;
            let excluded: Option<u8> = constraints.group_constraint(i).map(|c| match c {
                Constraint::Precedence { after, .. } => 1u8 << (after - base),
                Constraint::BushyPrecedence { y, z, .. } => {
                    (1u8 << (y - base)) | (1u8 << (z - base))
                }
            });
            // Admissible local patterns, ordered by cardinality so the
            // mixed-radix order is inclusion-compatible.
            let mut locals = [0u64; 8];
            let mut pos = [INVALID; 8];
            let mut radix = 0u8;
            for cardinality in 0..=size as u32 {
                for p in (0..=full).filter(|p| p.count_ones() == cardinality) {
                    if Some(p) != excluded {
                        pos[p as usize] = radix;
                        locals[radix as usize] = (p as u64) << base;
                        radix += 1;
                    }
                }
            }
            for t in 0..size {
                let mut delta = [NO_STEP; 8];
                for p in (0..=full).filter(|p| p >> t & 1 == 1) {
                    let (with, without) = (pos[p as usize], pos[(p & !(1 << t)) as usize]);
                    if with != INVALID && without != INVALID {
                        delta[p as usize] = (with - without) as usize * stride;
                    }
                }
                steps.push(TableStep {
                    base,
                    mask: full,
                    delta,
                });
            }
            groups.push(GroupIndex {
                base,
                size,
                radix,
                locals,
                pos,
                stride,
            });
            #[expect(
                clippy::expect_used,
                reason = "only a 64-table partition with no constraint has more sets than a \
                          usize counts, and its memo, one record per set, could never be \
                          allocated; admission (`SessionTable::admit`) takes 64 tables"
            )]
            let next = stride.checked_mul(radix as usize).expect("index overflow");
            stride = next;
        }
        AdmissibleSets {
            groups,
            steps,
            total: stride,
        }
    }

    /// Number of admissible sets, **including** the empty set and all
    /// admissible singletons (the full Cartesian product `Π r_g`).
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether there are no admissible sets (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of query tables.
    pub fn num_tables(&self) -> usize {
        self.steps.len()
    }

    /// Dense index of `set`, or `None` if the set is inadmissible.
    #[inline]
    pub fn index_of(&self, set: TableSet) -> Option<usize> {
        let bits = set.bits();
        let mut idx = 0usize;
        for g in &self.groups {
            let p = g.pos[g.pattern(bits)];
            if p == INVALID {
                return None;
            }
            idx += (p as usize) * g.stride;
        }
        Some(idx)
    }

    /// Dense index of `set ∖ {table}`, carried over from `set`'s own index
    /// `idx` in one step: only `table`'s group changes digit. `set` must
    /// hold `table`, and both `set` and `set ∖ {table}` must be admissible
    /// — what [`ConstraintSet::may_join_last`] guarantees of an admissible
    /// set in the linear split loop.
    #[inline]
    #[expect(
        clippy::disallowed_macros,
        reason = "a debug check: the DP's linear split loop (`for_each_split`) asks only for \
                  an admissible set and a table `ConstraintSet::may_join_last` lets go last"
    )]
    pub fn index_without(&self, set: TableSet, idx: usize, table: usize) -> usize {
        let step = &self.steps[table];
        let delta = step.delta[((set.bits() >> step.base) as u8 & step.mask) as usize];
        debug_assert_ne!(delta, NO_STEP, "{set} without table {table} has no index");
        idx - delta
    }

    /// The admissible set with dense index `idx` (inverse of
    /// [`AdmissibleSets::index_of`]).
    ///
    /// # Panics
    /// Panics if `idx >= self.len()`.
    #[inline]
    #[expect(
        clippy::disallowed_macros,
        reason = "every caller passes an index below `self.len()` (unit tests, \
                  `tests/props.rs`, the `kernels` bench); past the end the top digit \
                  would decode a wrong set"
    )]
    pub fn set_at(&self, mut idx: usize) -> TableSet {
        assert!(idx < self.total, "index {idx} out of range {}", self.total);
        let mut bits = 0u64;
        // Decode from the highest-stride group down.
        for g in self.groups.iter().rev() {
            let p = idx / g.stride;
            idx %= g.stride;
            bits |= g.locals[p];
        }
        TableSet(bits)
    }

    /// Whether `set` is admissible.
    #[inline]
    pub fn is_admissible(&self, set: TableSet) -> bool {
        self.index_of(set).is_some()
    }

    /// Iterates over all admissible sets in ascending dense-index order
    /// (every admissible subset of a set appears before the set): the
    /// `i`-th item is `set_at(i)`, produced by counting in the mixed radix
    /// — an odometer over the group digits, first group fastest — instead
    /// of dividing `i` down. The iterator copies the digits' local subsets
    /// and borrows nothing, so a memo laid out by this index can be written
    /// while its own copy is iterated.
    pub fn iter(&self) -> Sets {
        let mut sets = Sets {
            groups: self.groups.len(),
            radix: [0; MAX_GROUPS],
            locals: [[0; 8]; MAX_GROUPS],
            digits: [0; MAX_GROUPS],
            above: [0; MAX_GROUPS + 1],
            remaining: self.total,
        };
        for (d, g) in self.groups.iter().enumerate() {
            sets.radix[d] = g.radix;
            sets.locals[d] = g.locals;
        }
        sets
    }

    /// Admissible local "left operand" patterns of `set` restricted to
    /// group `grp`, for the bushy split enumeration (Algorithm 5,
    /// `TrySplits[Bushy]`): all subsets `s` of `set ∩ group` such that both
    /// `s` and its complement within `set ∩ group` avoid the excluded
    /// pattern of the group's constraint, appended to `out`. Both sides
    /// being admissible local patterns, each comes with its term of its
    /// operand's dense index: summed over the groups they are the
    /// operands' [`AdmissibleSets::index_of`].
    pub fn admissible_split_parts(
        &self,
        constraints: &ConstraintSet,
        grp: usize,
        set: TableSet,
        out: &mut Vec<SplitPart>,
    ) {
        let g = &self.groups[grp];
        let local = g.pattern(set.bits()) as u8;
        // Enumerate subsets s of `local` (including empty and full).
        let mut s = local;
        loop {
            let comp = local & !s;
            if local_part_ok(constraints, grp, g.base, s)
                && local_part_ok(constraints, grp, g.base, comp)
            {
                out.push(SplitPart {
                    left: (s as u64) << g.base,
                    left_index: g.pos[s as usize] as usize * g.stride,
                    right_index: g.pos[comp as usize] as usize * g.stride,
                });
            }
            if s == 0 {
                break;
            }
            s = (s - 1) & local;
        }
    }

    /// Number of groups (needed by split enumeration).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }
}

/// Iterator over the admissible sets in ascending dense-index order
/// ([`AdmissibleSets::iter`]).
#[derive(Clone, Debug)]
pub struct Sets {
    /// The number of groups, and per group its radix and local subsets.
    groups: usize,
    radix: [u8; MAX_GROUPS],
    locals: [[u64; 8]; MAX_GROUPS],
    /// The current set's digit per group.
    digits: [u8; MAX_GROUPS],
    /// `above[g]` = union of the current local subsets of groups `g..`; a
    /// step that stops at digit `d` leaves the groups above `d` alone and
    /// returns those below to the empty subset.
    above: [u64; MAX_GROUPS + 1],
    remaining: usize,
}

impl Iterator for Sets {
    type Item = TableSet;

    #[inline]
    fn next(&mut self) -> Option<TableSet> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let set = TableSet(self.above[0]);
        // Step to the successor: the lowest digit with room moves up, the
        // digits below it wrap to zero (the empty local subset).
        for d in 0..self.groups {
            self.digits[d] += 1;
            if self.digits[d] < self.radix[d] {
                let bits = self.above[d + 1] | self.locals[d][self.digits[d] as usize];
                self.above[..=d].fill(bits);
                break;
            }
            self.digits[d] = 0;
        }
        Some(set)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// Whether a local pattern is allowed as one side of a split: it must not
/// contain the constraint's excluded combination (`y` without `x` for
/// linear; `{y,z}` without `x` for bushy). The *operand* formed from these
/// patterns is then itself an admissible join result, so its optimal plans
/// are in the memo.
fn local_part_ok(constraints: &ConstraintSet, grp: usize, base: u8, pattern: u8) -> bool {
    match constraints.group_constraint(grp) {
        None => true,
        Some(Constraint::Precedence { before, after }) => {
            // Pattern containing `after` without `before` is not an
            // admissible join result (unless a singleton — but singleton
            // operands are scans, which are always available; we still
            // exclude them here because a left-deep split never routes
            // through this function).
            let b = (pattern >> (before - base)) & 1;
            let a = (pattern >> (after - base)) & 1;
            !(a == 1 && b == 0)
        }
        Some(Constraint::BushyPrecedence { x, y, z }) => {
            let xb = (pattern >> (x - base)) & 1;
            let yb = (pattern >> (y - base)) & 1;
            let zb = (pattern >> (z - base)) & 1;
            !(yb == 1 && zb == 1 && xb == 0)
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_macros)]
    use super::*;
    use crate::grouping::Grouping;
    use crate::space::{partition_constraints, PlanSpace};

    fn adm(n: usize, space: PlanSpace, part_id: u64, m: u64) -> AdmissibleSets {
        AdmissibleSets::new(&partition_constraints(n, space, part_id, m))
    }

    #[test]
    fn unconstrained_is_full_power_set() {
        for n in [2usize, 3, 4, 6, 7] {
            for space in [PlanSpace::Linear, PlanSpace::Bushy] {
                let a = adm(n, space, 0, 1);
                assert_eq!(a.len(), 1 << n, "n={n} {space:?}");
            }
        }
    }

    #[test]
    fn linear_count_matches_theorem_2() {
        // l constraints on an n-table query (n even): 3^l * 4^(n/2 - l).
        let n = 8;
        for l in 0..=4u32 {
            let m = 1u64 << l;
            let a = adm(n, PlanSpace::Linear, 0, m);
            let expected = 3usize.pow(l) * 4usize.pow(4 - l);
            assert_eq!(a.len(), expected, "l={l}");
        }
    }

    #[test]
    fn bushy_count_matches_theorem_3() {
        // l constraints on an n-table query (n divisible by 3):
        // 7^l * 8^(n/3 - l).
        let n = 9;
        for l in 0..=3u32 {
            let m = 1u64 << l;
            let a = adm(n, PlanSpace::Bushy, 0, m);
            let expected = 7usize.pow(l) * 8usize.pow(3 - l);
            assert_eq!(a.len(), expected, "l={l}");
        }
    }

    #[test]
    fn index_roundtrip() {
        let a = adm(7, PlanSpace::Linear, 5, 8);
        for i in 0..a.len() {
            let s = a.set_at(i);
            assert_eq!(a.index_of(s), Some(i));
        }
    }

    #[test]
    fn index_matches_brute_force_admissibility() {
        let cs = partition_constraints(6, PlanSpace::Bushy, 1, 2);
        let a = AdmissibleSets::new(&cs);
        let mut count = 0;
        for bits in 0u64..(1 << 6) {
            let s = TableSet(bits);
            let brute = cs.admits(s);
            assert_eq!(a.is_admissible(s), brute, "set {s}");
            if brute {
                count += 1;
            }
        }
        assert_eq!(a.len(), count);
    }

    #[test]
    fn ascending_index_visits_subsets_first() {
        let a = adm(8, PlanSpace::Linear, 3, 4);
        // For a sample of pairs (i, j) with set_i ⊂ set_j, verify i < j.
        let sets: Vec<TableSet> = a.iter().collect();
        for (i, si) in sets.iter().enumerate() {
            for (j, sj) in sets.iter().enumerate() {
                if si != sj && si.is_subset_of(*sj) {
                    assert!(i < j, "{si} (idx {i}) ⊂ {sj} (idx {j})");
                }
            }
        }
    }

    #[test]
    fn full_set_always_admissible_and_last_friendly() {
        for (n, space, m) in [(8, PlanSpace::Linear, 16), (9, PlanSpace::Bushy, 8)] {
            for id in 0..m {
                let a = adm(n, space, id, m);
                assert!(
                    a.is_admissible(TableSet::full(n)),
                    "n={n} {space:?} id={id}"
                );
            }
        }
    }

    #[test]
    fn empty_set_is_index_zero() {
        let a = adm(6, PlanSpace::Linear, 2, 4);
        assert_eq!(a.index_of(TableSet::empty()), Some(0));
        assert_eq!(a.set_at(0), TableSet::empty());
    }

    #[test]
    fn partitions_cover_power_set() {
        // Union of admissible sets over all partitions = full power set.
        let n = 6;
        for (space, m) in [(PlanSpace::Linear, 8u64), (PlanSpace::Bushy, 4u64)] {
            let parts: Vec<AdmissibleSets> = (0..m).map(|id| adm(n, space, id, m)).collect();
            for bits in 0u64..(1 << n) {
                let s = TableSet(bits);
                assert!(
                    parts.iter().any(|a| a.is_admissible(s)),
                    "{s} missing from all {space:?} partitions"
                );
            }
        }
    }

    #[test]
    fn inadmissible_sets_rejected() {
        // Constraint Q0 ≺ Q1 from partition 0 of 2.
        let a = adm(4, PlanSpace::Linear, 0, 2);
        assert!(!a.is_admissible(TableSet::from_tables([1])));
        assert!(!a.is_admissible(TableSet::from_tables([1, 2])));
        assert!(a.is_admissible(TableSet::from_tables([0, 1, 2])));
    }

    #[test]
    fn split_parts_unconstrained_group_full_power_set() {
        let cs = ConstraintSet::unconstrained(Grouping::new(6, PlanSpace::Bushy));
        let a = AdmissibleSets::new(&cs);
        let mut out = Vec::new();
        a.admissible_split_parts(&cs, 0, TableSet::from_tables([0, 1, 2]), &mut out);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn split_parts_constrained_triple_excludes_six_of_eight() {
        // Constraint Q0 ⪯ Q1 | Q2: with all three tables present, the parts
        // {1,2} (violates directly) and {0} (complement {1,2} violates) are
        // excluded — 6 of 8 remain, matching the 21/27 analysis in Thm 7.
        let cs = partition_constraints(3, PlanSpace::Bushy, 0, 2);
        let a = AdmissibleSets::new(&cs);
        let mut out = Vec::new();
        a.admissible_split_parts(&cs, 0, TableSet::full(3), &mut out);
        assert_eq!(out.len(), 6);
        assert!(out.iter().all(|part| part.left != 0b110)); // {1,2}
        assert!(out.iter().all(|part| part.left != 0b001)); // {0}
    }

    #[test]
    fn split_parts_partial_triple() {
        // Only tables {1, 2} of the constrained triple are in the set — but
        // then the set itself would be inadmissible; use {0, 2}: every
        // subset of {0,2} is fine.
        let cs = partition_constraints(3, PlanSpace::Bushy, 0, 2);
        let a = AdmissibleSets::new(&cs);
        let mut out = Vec::new();
        a.admissible_split_parts(&cs, 0, TableSet::from_tables([0, 2]), &mut out);
        assert_eq!(out.len(), 4);
    }

    /// Every (space, tables, partitioning, partition) of the toy sizes the
    /// carried-index equalities are checked on.
    fn toy_partitions() -> Vec<(ConstraintSet, AdmissibleSets)> {
        let mut all = Vec::new();
        for (space, sizes) in [(PlanSpace::Linear, 7..=8), (PlanSpace::Bushy, 6..=9)] {
            for n in sizes {
                for l in 0..=space.max_constraints(n) {
                    let m = 1u64 << l;
                    for id in 0..m {
                        let cs = partition_constraints(n, space, id, m);
                        let adm = AdmissibleSets::new(&cs);
                        all.push((cs, adm));
                    }
                }
            }
        }
        all
    }

    #[test]
    fn counting_in_the_mixed_radix_equals_dividing_the_index_down() {
        for (cs, a) in toy_partitions() {
            assert_eq!(a.iter().size_hint(), (a.len(), Some(a.len())));
            let mut count = 0;
            for (i, set) in a.iter().enumerate() {
                assert_eq!(set, a.set_at(i), "{cs:?} index {i}");
                count += 1;
            }
            assert_eq!(count, a.len());
        }
    }

    #[test]
    fn index_without_a_table_equals_the_index_of_the_smaller_set() {
        let mut steps = 0;
        for (cs, a) in toy_partitions() {
            for (idx, set) in a.iter().enumerate() {
                for u in set.iter() {
                    let rest = set.remove(u);
                    if let Some(want) = a.index_of(rest) {
                        assert_eq!(a.index_without(set, idx, u), want, "{cs:?} {set} - {u}");
                        steps += 1;
                    }
                }
            }
        }
        assert!(steps > 10_000, "{steps} steps checked");
    }

    #[test]
    fn split_part_terms_sum_to_the_operands_indices() {
        // Every combination of one part per group is a split the bushy
        // odometer can yield.
        for (cs, a) in toy_partitions() {
            if cs.grouping().space() != PlanSpace::Bushy {
                continue;
            }
            for set in a.iter() {
                let mut splits = vec![(0u64, 0usize, 0usize)];
                for g in 0..a.num_groups() {
                    let mut parts = Vec::new();
                    a.admissible_split_parts(&cs, g, set, &mut parts);
                    splits = splits
                        .iter()
                        .flat_map(|&(bits, li, ri)| {
                            parts.iter().map(move |p| {
                                (bits | p.left, li + p.left_index, ri + p.right_index)
                            })
                        })
                        .collect();
                }
                for (bits, left_index, right_index) in splits {
                    let left = TableSet(bits);
                    assert_eq!(a.index_of(left), Some(left_index), "{set} left {left}");
                    assert_eq!(
                        a.index_of(set.difference(left)),
                        Some(right_index),
                        "{set} left {left}"
                    );
                }
            }
        }
    }

    #[test]
    fn leftover_group_is_unconstrained() {
        // 7 tables, linear: three pairs plus leftover {6}.
        let a = adm(7, PlanSpace::Linear, 0, 8);
        assert_eq!(a.len(), 3 * 3 * 3 * 2);
        assert!(a.is_admissible(TableSet::singleton(6)));
    }
}
