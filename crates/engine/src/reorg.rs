//! The background reorganizer: builds the target layout's snapshot aside
//! and publishes it atomically, turning the paper's configured delay Δ into
//! a *measured* reorganization window.

use oreo_layout::SharedSpec;
use oreo_storage::{LayoutId, Table, TableSnapshot};
use std::time::{Duration, Instant};

/// A switch decision handed to the reorganizer.
#[derive(Clone)]
pub struct ReorgRequest {
    /// Index of the deciding tenant in the engine's tenant map.
    pub tenant: u32,
    /// Target layout (a live state of the reorganizer).
    pub target: LayoutId,
    /// Routing spec to materialize.
    pub spec: SharedSpec,
    /// Stream position of the decision (the tenant's own stream).
    pub decided_seq: u64,
    /// Wall-clock instant of the decision.
    pub decided_at: Instant,
    /// Queries the deciding tenant had observed when the decision was made
    /// — the measured-Δ origin.
    pub tenant_observed_at_decision: u64,
}

/// One completed background reorganization — the measured Δ of §VI-D5,
/// and (in tiered serving) the measured write bill that feeds the
/// empirical α.
#[derive(Clone, Debug)]
pub struct ReorgWindow {
    /// Name of the tenant this window reorganized.
    pub tenant: String,
    /// Layout the engine switched to.
    pub target: LayoutId,
    /// Stream position of the switch decision.
    pub decided_seq: u64,
    /// Wall-clock duration from decision to snapshot publish.
    pub wall: Duration,
    /// Wall-clock duration of the in-memory build (excludes queue wait and
    /// the disk write).
    pub build: Duration,
    /// Wall-clock of persisting the aside rewrite (encode + write + fsync +
    /// atomic rename). Zero in memory-only serving.
    pub write: Duration,
    /// Bytes written by the aside rewrite (segment and manifest). Zero in
    /// memory-only serving.
    pub bytes_written: u64,
    /// On-disk generation number the rewrite committed as (0 in memory-only
    /// serving).
    pub generation: u64,
    /// Queries the tenant's stream served *during* the window — the
    /// measured Δ in queries, the unit `oreo-sim`'s
    /// `Schedule::Configured` takes in the sequential simulator.
    pub queries_during: u64,
    /// Rows re-routed into the new snapshot.
    pub rows: u64,
    /// Partitions in the new snapshot.
    pub partitions: usize,
    /// Delta rows this reorganization folded into the base (0 when the
    /// delta buffer was empty — a pure layout rewrite).
    pub folded_rows: u64,
}

/// Materialize the snapshot of `spec` over `table` (route every row, group,
/// and rebuild pruning metadata) — the α-scan-equivalent work the paper
/// charges a reorganization with, executed off the serving path.
pub fn materialize(table: &Table, spec: &SharedSpec, target: LayoutId) -> TableSnapshot {
    let assignment = spec.assign(table);
    TableSnapshot::build(table, &assignment, spec.k(), target, spec.describe())
}

#[cfg(test)]
mod tests {
    use super::*;
    use oreo_layout::RangeLayout;
    use oreo_query::{ColumnType, Scalar, Schema};
    use oreo_storage::TableBuilder;
    use std::sync::Arc;

    #[test]
    fn materialize_builds_full_cover() {
        let s = Arc::new(Schema::from_pairs([("v", ColumnType::Int)]));
        let mut b = TableBuilder::new(Arc::clone(&s));
        for i in 0..500i64 {
            b.push_row(&[Scalar::Int((i * 31) % 400)]);
        }
        let table = b.finish();
        let spec: SharedSpec = Arc::new(RangeLayout::from_sample(&table, 0, 8));
        let snap = materialize(&table, &spec, 9);
        assert_eq!(snap.layout(), 9);
        assert_eq!(snap.total_rows(), 500);
        assert_eq!(snap.row_cover(), (0..500u32).collect::<Vec<_>>());
    }
}
