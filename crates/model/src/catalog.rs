//! Table statistics and the catalog.
//!
//! Workers estimate plan costs from metadata only (Section 4.1 of the paper:
//! "workers need access to metadata (e.g., cardinality and value distribution
//! statistics) to estimate plan execution costs"). The catalog is the
//! container for that metadata. In the shared-nothing setting it is either
//! shipped with each query or pre-distributed to the workers; both modes are
//! supported by the cluster substrate, which serializes [`TableStats`].

use serde::{Deserialize, Serialize};

/// Identifier of a base table within one query: the consecutive numbering
/// `Q_0 .. Q_{n-1}` shared by master and workers.
pub type TableId = usize;

/// Per-table statistics, following the benchmark-generation method of
/// Steinbrunn et al. (VLDBJ 1997) used by the paper.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TableStats {
    /// Number of tuples in the table.
    pub cardinality: f64,
    /// Width of one tuple in bytes (used for buffer-space costing).
    pub tuple_bytes: f64,
    /// Domain size of the table's join attribute. Equality-predicate
    /// selectivity between two tables is `1 / max(domain_a, domain_b)`,
    /// the standard System-R estimate.
    pub join_domain: f64,
}

impl TableStats {
    /// Creates statistics with the given cardinality, a default tuple width
    /// of 100 bytes, and a join-attribute domain equal to the cardinality
    /// (i.e. a key column).
    pub fn with_cardinality(cardinality: f64) -> Self {
        TableStats {
            cardinality,
            tuple_bytes: 100.0,
            join_domain: cardinality,
        }
    }
}

/// The statistics catalog for one query: statistics for each of the `n`
/// tables, indexed by [`TableId`].
///
/// The catalog carries a **statistics epoch**: a counter bumped on every
/// statistics mutation ([`Catalog::set_stats`], [`Catalog::stats_mut`],
/// [`Catalog::add_table`], or an explicit [`Catalog::bump_epoch`]). The
/// service's cross-query result cache folds the epoch into its keys, so
/// entries computed against earlier statistics become structurally
/// unreachable the instant the statistics change — even if a later
/// mutation restores the exact old values. The epoch is optimizer-local
/// bookkeeping and is deliberately not part of the wire format: the cache
/// lives where the catalog does, and workers keep nothing between tasks.
#[derive(Clone, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct Catalog {
    tables: Vec<TableStats>,
    epoch: u64,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Creates a catalog from per-table statistics, at epoch zero.
    pub fn from_stats(tables: Vec<TableStats>) -> Self {
        Catalog { tables, epoch: 0 }
    }

    /// Adds a table and returns its id. Counts as a statistics mutation
    /// (the epoch is bumped).
    pub fn add_table(&mut self, stats: TableStats) -> TableId {
        self.tables.push(stats);
        self.epoch += 1;
        self.tables.len() - 1
    }

    /// The statistics epoch: how many mutations this catalog has seen.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Explicitly invalidates every cached result derived from this
    /// catalog (e.g. after an out-of-band cost-model recalibration).
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Replaces table `id`'s statistics, bumping the epoch.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn set_stats(&mut self, id: TableId, stats: TableStats) {
        self.tables[id] = stats;
        self.epoch += 1;
    }

    /// Mutable statistics access; the epoch is bumped up front, so any
    /// write through the returned reference is covered.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn stats_mut(&mut self, id: TableId) -> &mut TableStats {
        self.epoch += 1;
        &mut self.tables[id]
    }

    /// Number of tables in the catalog.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the catalog has no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Statistics for table `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn stats(&self, id: TableId) -> &TableStats {
        &self.tables[id]
    }

    /// Iterates over `(id, stats)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TableId, &TableStats)> {
        self.tables.iter().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        let a = c.add_table(TableStats::with_cardinality(1000.0));
        let b = c.add_table(TableStats {
            cardinality: 42.0,
            tuple_bytes: 8.0,
            join_domain: 10.0,
        });
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats(a).cardinality, 1000.0);
        assert_eq!(c.stats(a).join_domain, 1000.0);
        assert_eq!(c.stats(b).tuple_bytes, 8.0);
    }

    #[test]
    fn epoch_tracks_every_mutation() {
        let mut c = Catalog::from_stats(vec![TableStats::with_cardinality(10.0)]);
        assert_eq!(c.epoch(), 0);
        c.add_table(TableStats::with_cardinality(20.0));
        assert_eq!(c.epoch(), 1);
        c.set_stats(0, TableStats::with_cardinality(99.0));
        assert_eq!(c.epoch(), 2);
        c.stats_mut(1).cardinality = 7.0;
        assert_eq!(c.epoch(), 3);
        c.bump_epoch();
        assert_eq!(c.epoch(), 4);
        assert_eq!(c.stats(0).cardinality, 99.0);
        assert_eq!(c.stats(1).cardinality, 7.0);
    }

    #[test]
    fn iter_order_matches_ids() {
        let c = Catalog::from_stats(vec![
            TableStats::with_cardinality(1.0),
            TableStats::with_cardinality(2.0),
        ]);
        let ids: Vec<TableId> = c.iter().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![0, 1]);
    }
}
