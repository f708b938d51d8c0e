//! The layout abstraction: a deterministic record → partition routing
//! function, plus the generator interface the LAYOUT MANAGER drives.
//!
//! Mirrors the paper's two required functionalities (§III-B):
//!
//! * `generate_layout(D, Q, k)` → [`LayoutGenerator::generate`] builds a
//!   [`LayoutSpec`] from a dataset *sample* and a workload sample;
//! * `eval_skipped(s, Q)` → routing a sample through the spec yields
//!   an estimated metadata model ([`build_model`]), whose
//!   [`LayoutModel::cost`] is the skipping estimate.

use oreo_storage::{LayoutModel, Table};
use rand::rngs::StdRng;
use std::sync::Arc;

/// A data layout: a pure function assigning every record to one of `k`
/// partitions. Implementations must be deterministic — the same row must
/// always route to the same partition — so that a spec generated from a
/// sample can later materialize the full table identically.
pub trait LayoutSpec: Send + Sync {
    /// Number of partitions this layout produces.
    fn k(&self) -> usize;

    /// Partition id (`0..k`) for row `row` of `table`.
    fn route(&self, table: &Table, row: usize) -> u32;

    /// Human-readable description, e.g. `"zorder(qty,ship_date)"`.
    fn describe(&self) -> String;

    /// Route every row of `table`.
    fn assign(&self, table: &Table) -> Vec<u32> {
        (0..table.num_rows())
            .map(|row| {
                let bid = self.route(table, row);
                debug_assert!((bid as usize) < self.k(), "route out of range");
                bid
            })
            .collect()
    }
}

/// A shareable layout spec.
pub type SharedSpec = Arc<dyn LayoutSpec>;

/// Build the metadata-only [`LayoutModel`] of a spec by routing `sample`
/// and scaling partition row counts to `full_rows` — the paper's
/// "sample-estimated" costing of candidate layouts. The model is compiled
/// straight from the sample's columns and the routing
/// ([`LayoutModel::from_assignment`]): per partition its row count, and per
/// column its min and max and, up to the distinct-set cap, its distinct
/// values — no per-partition metadata is built on the way.
pub fn build_model(spec: &dyn LayoutSpec, id: u64, sample: &Table, full_rows: f64) -> LayoutModel {
    let assignment = spec.assign(sample);
    let n = sample.num_rows();
    let scale = if n > 0 && full_rows > 0.0 {
        full_rows / n as f64
    } else {
        1.0
    };
    LayoutModel::from_assignment(id, spec.describe(), sample, &assignment, spec.k(), scale)
}

/// Build the *exact* model by routing the full table (what materialization
/// produces; service costs in the simulator are charged against this).
pub fn build_exact_model(spec: &dyn LayoutSpec, id: u64, table: &Table) -> LayoutModel {
    build_model(spec, id, table, table.num_rows() as f64)
}

/// A layout generation technique (Z-ordering, Qd-tree, range…).
///
/// The manager passes a dataset sample, a workload sample, and the target
/// partition count; the generator returns a routing spec. Generators are
/// deliberately *workload-agnostic in interface*: OREO treats them as black
/// boxes (§III-B).
pub trait LayoutGenerator: Send + Sync {
    /// Technique name, e.g. `"qdtree"`.
    fn name(&self) -> &str;

    /// Build a layout for the given data and workload samples.
    fn generate(
        &self,
        sample: &Table,
        workload: &[oreo_query::Query],
        k: usize,
        rng: &mut StdRng,
    ) -> SharedSpec;
}

#[cfg(test)]
mod tests {
    use super::*;
    use oreo_query::{ColumnType, Scalar, Schema};
    use oreo_storage::TableBuilder;

    /// Trivial spec for testing: routes by `v mod k`.
    struct ModSpec {
        k: usize,
    }

    impl LayoutSpec for ModSpec {
        fn k(&self) -> usize {
            self.k
        }
        fn route(&self, table: &Table, row: usize) -> u32 {
            (table
                .scalar(row, 0)
                .as_int()
                .unwrap()
                .rem_euclid(self.k as i64)) as u32
        }
        fn describe(&self) -> String {
            format!("mod({})", self.k)
        }
    }

    fn table(n: i64) -> Table {
        let s = Arc::new(Schema::from_pairs([("v", ColumnType::Int)]));
        let mut b = TableBuilder::new(Arc::clone(&s));
        for i in 0..n {
            b.push_row(&[Scalar::Int(i)]);
        }
        b.finish()
    }

    #[test]
    fn assign_routes_all_rows() {
        let t = table(10);
        let spec = ModSpec { k: 3 };
        let a = spec.assign(&t);
        assert_eq!(a.len(), 10);
        assert_eq!(a[4], 1);
    }

    #[test]
    fn model_scales_sample_rows() {
        let _full = table(100);
        let sample = table(10); // pretend 10% sample
        let spec = ModSpec { k: 2 };
        let model = build_model(&spec, 1, &sample, 100.0);
        assert!((model.total_rows() - 100.0).abs() < 1e-9);
        assert_eq!(model.num_partitions(), 2);
    }

    #[test]
    fn exact_model_uses_all_rows() {
        let t = table(60);
        let spec = ModSpec { k: 4 };
        let model = build_exact_model(&spec, 2, &t);
        assert_eq!(model.total_rows(), 60.0);
        assert_eq!(model.name(), "mod(4)");
    }
}
