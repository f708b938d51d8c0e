//! [`LayoutModel`] — the metadata-only view of a data layout.
//!
//! This is the "state" the MTS machinery works with: evaluating the service
//! cost `c(s, q)` of a query on a layout requires only the layout's
//! partition metadata, never the data itself (§III-B of the paper, the
//! `eval_skipped` functionality).

use crate::partition::PartitionMetadata;
use oreo_query::Query;
use std::sync::Arc;

/// Monotonically increasing identifier for layouts created during a run.
pub type LayoutId = u64;

/// A costed, metadata-only description of one data layout.
#[derive(Clone, Debug)]
pub struct LayoutModel {
    id: LayoutId,
    /// Human-readable provenance, e.g. `"qdtree(window@1400)"`.
    name: String,
    partitions: Arc<[PartitionMetadata]>,
    total_rows: f64,
}

impl LayoutModel {
    /// A model named `name` over the given partition metadata.
    pub fn new(id: LayoutId, name: impl Into<String>, partitions: Vec<PartitionMetadata>) -> Self {
        let total_rows = partitions.iter().map(|p| p.rows).sum();
        Self {
            id,
            name: name.into(),
            partitions: partitions.into(),
            total_rows,
        }
    }

    /// The layout's stable identifier.
    pub fn id(&self) -> LayoutId {
        self.id
    }

    /// The same model under another identifier — how a candidate costed
    /// before it had an id enters the state space without being rebuilt.
    pub fn with_id(mut self, id: LayoutId) -> Self {
        self.id = id;
        self
    }

    /// The layout's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// The per-partition skipping metadata.
    pub fn partitions(&self) -> &[PartitionMetadata] {
        &self.partitions
    }

    /// Total rows across all partitions.
    pub fn total_rows(&self) -> f64 {
        self.total_rows
    }

    /// Partition ids that must be read for `query` (cannot be skipped).
    pub fn relevant_partitions(&self, query: &Query) -> Vec<usize> {
        self.partitions
            .iter()
            .enumerate()
            .filter(|(_, p)| p.may_match(&query.predicate))
            .map(|(i, _)| i)
            .collect()
    }

    /// Service cost `c(s, q) ∈ [0, 1]`: the fraction of rows living in
    /// partitions that cannot be skipped. This is the paper's query-cost
    /// proxy (§III-A).
    pub fn cost(&self, query: &Query) -> f64 {
        if self.total_rows <= 0.0 {
            return 0.0;
        }
        let accessed: f64 = self
            .partitions
            .iter()
            .filter(|p| p.may_match(&query.predicate))
            .map(|p| p.rows)
            .sum();
        accessed / self.total_rows
    }

    /// Fraction of rows skipped: `1 - cost`.
    pub fn skipped_fraction(&self, query: &Query) -> f64 {
        1.0 - self.cost(query)
    }

    /// Cost vector over a query sample — the representation Algorithm 5
    /// compares layouts with.
    pub fn cost_vector(&self, queries: &[Query]) -> Vec<f64> {
        queries.iter().map(|q| self.cost(q)).collect()
    }

    /// Mean cost over a workload sample.
    pub fn mean_cost(&self, queries: &[Query]) -> f64 {
        if queries.is_empty() {
            return 0.0;
        }
        self.cost_vector(queries).iter().sum::<f64>() / queries.len() as f64
    }
}

/// Normalized L1 distance between two cost vectors (Algorithm 5, line 6:
/// `‖c − cᵢ‖₁ / dim(c)`). Both vectors must have the same length.
pub fn cost_vector_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "cost vectors must align");
    if a.is_empty() {
        return 0.0;
    }
    let l1: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
    l1 / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::build_metadata;
    use crate::table::TableBuilder;
    use oreo_query::{ColumnType, QueryBuilder, Scalar, Schema};

    fn model() -> (LayoutModel, crate::table::Table) {
        let s = std::sync::Arc::new(Schema::from_pairs([("v", ColumnType::Int)]));
        let mut b = TableBuilder::new(std::sync::Arc::clone(&s));
        for i in 0..100i64 {
            b.push_row(&[Scalar::Int(i)]);
        }
        let t = b.finish();
        // 4 partitions of 25 rows by value range
        let assignment: Vec<u32> = (0..100).map(|i| (i / 25) as u32).collect();
        let meta = build_metadata(&t, &assignment, 4);
        (LayoutModel::new(1, "range(v)", meta), t)
    }

    #[test]
    fn cost_is_fraction_of_rows_in_relevant_partitions() {
        let (m, t) = model();
        let q = QueryBuilder::new(t.schema()).between("v", 0, 24).build();
        assert_eq!(m.relevant_partitions(&q), vec![0]);
        assert!((m.cost(&q) - 0.25).abs() < 1e-12);
        let q2 = QueryBuilder::new(t.schema()).between("v", 20, 30).build();
        assert_eq!(m.relevant_partitions(&q2), vec![0, 1]);
        assert!((m.cost(&q2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn full_scan_costs_one() {
        let (m, _) = model();
        assert_eq!(m.cost(&Query::full_scan()), 1.0);
        assert_eq!(m.skipped_fraction(&Query::full_scan()), 0.0);
    }

    #[test]
    fn cost_vector_and_mean() {
        let (m, t) = model();
        let qs = vec![
            QueryBuilder::new(t.schema()).between("v", 0, 24).build(),
            Query::full_scan(),
        ];
        let cv = m.cost_vector(&qs);
        assert_eq!(cv.len(), 2);
        assert!((m.mean_cost(&qs) - (0.25 + 1.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn distance_is_normalized_l1() {
        let a = [0.0, 1.0, 0.5];
        let b = [1.0, 1.0, 0.0];
        assert!((cost_vector_distance(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(cost_vector_distance(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn distance_requires_same_length() {
        cost_vector_distance(&[0.0], &[0.0, 1.0]);
    }
}
