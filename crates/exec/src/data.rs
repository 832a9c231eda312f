//! Synthetic data generation and the row format.
//!
//! Each base table has one join-attribute column with values drawn
//! uniformly from `[0, domain)`. The statistics carry no domain: it is
//! derived from the query's predicates ([`join_domains`]), so an equality
//! predicate's realized selectivity is its estimate in expectation. An
//! intermediate result over a table set `S` stores, per output row, the
//! join-attribute value of every member table — exactly what later join
//! predicates need.

use mpq_model::{Query, TableSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Controls how catalog statistics translate into physical rows.
#[derive(Clone, Copy, Debug)]
pub struct DataConfig {
    /// Hard cap on rows materialized per base table. Catalog cardinalities
    /// in the Steinbrunn workload go up to 100 000; execution tests
    /// typically cap far lower.
    pub max_rows_per_table: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Default for DataConfig {
    fn default() -> Self {
        DataConfig {
            max_rows_per_table: 2_000,
            seed: 0,
        }
    }
}

/// A materialized (intermediate) relation: for every member table of
/// `tables`, each row stores that table's join-attribute value. Columns
/// are ordered by ascending table id; rows are stored row-major in a flat
/// buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Relation {
    /// The base tables this relation covers.
    pub tables: TableSet,
    /// Flat row-major data; `width() == tables.len()`.
    data: Vec<u64>,
}

impl Relation {
    /// Creates an empty relation over `tables`.
    pub fn new(tables: TableSet) -> Self {
        Relation {
            tables,
            data: Vec::new(),
        }
    }

    /// Number of attribute columns (one per member table).
    pub fn width(&self) -> usize {
        self.tables.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        if self.tables.is_empty() {
            0
        } else {
            self.data.len() / self.width()
        }
    }

    /// Whether the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Column position of `table` within rows, or `None` if the table is
    /// not covered. Columns are ordered by ascending table id.
    pub fn column_of(&self, table: usize) -> Option<usize> {
        if !self.tables.contains(table) {
            return None;
        }
        Some(self.tables.iter().take_while(|&t| t < table).count())
    }

    /// Borrow of row `i`.
    pub fn row(&self, i: usize) -> &[u64] {
        let w = self.width();
        &self.data[i * w..(i + 1) * w]
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row width does not match.
    pub fn push_row(&mut self, row: &[u64]) {
        assert_eq!(row.len(), self.width(), "row width mismatch");
        self.data.extend_from_slice(row);
    }

    /// Appends the concatenation of a row of `self`-shaped data and a row
    /// of `other`-shaped data, producing rows of the combined shape.
    /// Exposed for operators: given disjoint inputs `a` (this shape) and
    /// `b`, the combined relation's column order is ascending table id, so
    /// a merge of the two sorted column lists is required.
    pub fn push_joined(&mut self, left: &Relation, lrow: &[u64], right: &Relation, rrow: &[u64]) {
        debug_assert_eq!(self.tables, left.tables.union(right.tables));
        let mut li = left.tables.iter().peekable();
        let mut ri = right.tables.iter().peekable();
        let (mut lc, mut rc) = (0usize, 0usize);
        for _ in 0..self.width() {
            let take_left = match (li.peek(), ri.peek()) {
                (Some(&a), Some(&b)) => a < b,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => unreachable!("width exceeds member tables"),
            };
            if take_left {
                li.next();
                self.data.push(lrow[lc]);
                lc += 1;
            } else {
                ri.next();
                self.data.push(rrow[rc]);
                rc += 1;
            }
        }
    }

    /// A canonical multiset fingerprint: the sorted rows. Used by tests to
    /// compare results across operators and join orders.
    pub fn canonical_rows(&self) -> Vec<Vec<u64>> {
        let mut rows: Vec<Vec<u64>> = (0..self.len()).map(|i| self.row(i).to_vec()).collect();
        rows.sort();
        rows
    }
}

/// Each table's join-attribute domain size, derived from the query: the
/// smallest `(1.0 / selectivity).round()` over the predicates at the
/// table, or its cardinality (a key column) if it has none.
///
/// A generated query's selectivity is `1 / max(d_a, d_b)` over integer
/// domains `d ≥ 2`, so the larger endpoint of each predicate derives its
/// own domain back, the smaller one derives no more than it, and
/// `1.0 / d(a).max(d(b))` is the predicate's selectivity bit for bit.
pub fn join_domains(query: &Query) -> Vec<f64> {
    let mut domains: Vec<Option<f64>> = vec![None; query.num_tables()];
    for p in &query.predicates {
        let domain = (1.0 / p.selectivity).round();
        for t in [p.left, p.right] {
            if let Some(d) = domains.get_mut(t) {
                *d = Some(d.map_or(domain, |d| d.min(domain)));
            }
        }
    }
    query
        .catalog
        .iter()
        .map(|(t, stats)| domains[t].unwrap_or(stats.cardinality))
        .collect()
}

/// A generated database: one single-column base relation per query table.
#[derive(Clone, Debug)]
pub struct Database {
    base: Vec<Relation>,
}

impl Database {
    /// Materializes synthetic tables for `query` according to its catalog
    /// statistics: `min(cardinality, cap)` rows per table, join attribute
    /// uniform over `[0, domain)` with the domain [`join_domains`] derives.
    /// Deterministic in the seed.
    pub fn generate(query: &Query, config: &DataConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut base = Vec::with_capacity(query.num_tables());
        let domains = join_domains(query);
        for (t, stats) in query.catalog.iter() {
            let rows = (stats.cardinality as usize).min(config.max_rows_per_table);
            let domain = (domains[t] as u64).max(1);
            let mut rel = Relation::new(TableSet::singleton(t));
            for _ in 0..rows {
                rel.push_row(&[rng.random_range(0..domain)]);
            }
            base.push(rel);
        }
        Database { base }
    }

    /// The materialized base relation of table `t`.
    pub fn table(&self, t: usize) -> &Relation {
        &self.base[t]
    }

    /// Number of base tables.
    pub fn num_tables(&self) -> usize {
        self.base.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_model::{WorkloadConfig, WorkloadGenerator};

    fn query(n: usize) -> Query {
        WorkloadGenerator::new(WorkloadConfig::paper_default(n), 5).next_query()
    }

    #[test]
    fn generation_respects_cap_and_domain() {
        let q = query(4);
        let db = Database::generate(
            &q,
            &DataConfig {
                max_rows_per_table: 100,
                seed: 1,
            },
        );
        let domains = join_domains(&q);
        for (t, stats) in q.catalog.iter() {
            let rel = db.table(t);
            assert!(rel.len() <= 100);
            assert_eq!(rel.len(), (stats.cardinality as usize).min(100));
            let domain = domains[t] as u64;
            for i in 0..rel.len() {
                assert!(rel.row(i)[0] < domain.max(1));
            }
        }
    }

    /// The derived domains give back every generated predicate's
    /// selectivity bit for bit: all four shapes, 2 to 15 tables, 50 seeds.
    #[test]
    fn derived_domains_reproduce_every_generated_selectivity() {
        use mpq_model::JoinGraph;
        for graph in JoinGraph::ALL {
            for n in 2..=15 {
                for seed in 0..50 {
                    let q = WorkloadGenerator::new(WorkloadConfig::with_graph(n, graph), seed)
                        .next_query();
                    let d = join_domains(&q);
                    for p in &q.predicates {
                        assert_eq!(
                            (1.0 / d[p.left].max(d[p.right])).to_bits(),
                            p.selectivity.to_bits(),
                            "{graph:?}, {n} tables, seed {seed}: {p:?}"
                        );
                    }
                }
            }
        }
    }

    /// A table no predicate touches is a key column: its domain is its
    /// cardinality.
    #[test]
    fn a_table_without_predicates_has_its_cardinality_as_domain() {
        let mut q = query(3);
        q.predicates.retain(|p| p.left != 2 && p.right != 2);
        assert_eq!(join_domains(&q)[2], q.catalog.stats(2).cardinality);
    }

    #[test]
    fn generation_is_deterministic() {
        let q = query(3);
        let cfg = DataConfig {
            max_rows_per_table: 50,
            seed: 9,
        };
        let a = Database::generate(&q, &cfg);
        let b = Database::generate(&q, &cfg);
        for t in 0..q.num_tables() {
            assert_eq!(a.table(t), b.table(t));
        }
    }

    #[test]
    fn column_order_is_ascending_table_id() {
        let r = Relation::new(TableSet::from_tables([5, 1, 3]));
        assert_eq!(r.column_of(1), Some(0));
        assert_eq!(r.column_of(3), Some(1));
        assert_eq!(r.column_of(5), Some(2));
        assert_eq!(r.column_of(2), None);
    }

    #[test]
    fn push_joined_interleaves_columns() {
        // left covers {0, 3}, right covers {1}; combined order 0,1,3.
        let left = {
            let mut r = Relation::new(TableSet::from_tables([0, 3]));
            r.push_row(&[10, 30]);
            r
        };
        let right = {
            let mut r = Relation::new(TableSet::from_tables([1]));
            r.push_row(&[20]);
            r
        };
        let mut out = Relation::new(TableSet::from_tables([0, 1, 3]));
        out.push_joined(&left, left.row(0), &right, right.row(0));
        assert_eq!(out.row(0), &[10, 20, 30]);
    }

    #[test]
    fn canonical_rows_sorts() {
        let mut r = Relation::new(TableSet::from_tables([0]));
        r.push_row(&[3]);
        r.push_row(&[1]);
        r.push_row(&[2]);
        assert_eq!(r.canonical_rows(), vec![vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn empty_relation() {
        let r = Relation::new(TableSet::from_tables([0, 1]));
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.width(), 2);
    }
}
