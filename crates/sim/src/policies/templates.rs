//! Per-template (per-segment) optimal layouts — the extra workload
//! knowledge granted to the MTS-Optimal and Offline-Optimal comparison
//! methods (§VI-C: "a fixed state space that includes the best data layout
//! precomputed for each query template").
//!
//! A "template" here is one of the stream's *concrete* query shapes: each
//! segment anchors one instantiation of a template family, so the natural
//! state space has one layout per segment (the paper's 20).

use oreo_layout::{build_exact_model, LayoutGenerator};
use oreo_storage::{LayoutModel, Table};
use oreo_workload::QueryStream;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The precomputed state space for the §VI-C comparison methods: one exact
/// model (over the full table) per stream segment, indexed by segment.
pub struct TemplateLayouts {
    exact: Vec<LayoutModel>,
}

impl TemplateLayouts {
    /// Generate one layout per segment from up to `queries_per_segment` of
    /// the segment's own queries.
    pub fn build(
        table: &Arc<Table>,
        stream: &QueryStream,
        generator: &Arc<dyn LayoutGenerator>,
        k: usize,
        data_sample_rows: usize,
        queries_per_segment: usize,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let data_sample = table.sample(&mut rng, data_sample_rows);
        let exact = (stream.segments.iter().enumerate())
            .map(|(i, seg)| {
                let take = seg.len.min(queries_per_segment);
                let workload = &stream.queries[seg.start..seg.start + take];
                let spec = generator.generate(&data_sample, workload, k, &mut rng);
                build_exact_model(spec.as_ref(), i as u64, table)
            })
            .collect();
        Self { exact }
    }

    /// Every segment's exact model, in segment order.
    pub fn models(&self) -> &[LayoutModel] {
        &self.exact
    }

    /// Number of precomputed layouts.
    pub fn len(&self) -> usize {
        self.exact.len()
    }

    /// Whether no layouts were precomputed.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty()
    }
}
