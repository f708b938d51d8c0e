//! The engine's write-path state and the fold (compact-and-switch) build.
//!
//! `IngestState` is everything `Engine::ingest` mutates, serialized
//! behind one mutex (lock order: ingest → core — the write path charges
//! merge work into the bookkeeping core while holding its own lock, never
//! the other way around). It owns:
//!
//! * the [`DeltaBuffer`] — delta runs + tombstones the scans overlay;
//! * the WAL (tiered serving only) — the fsync'd append is the ack point;
//! * the *base identity*: the table the served snapshots were built from
//!   and the global row id each base position carries. Folds replace both.
//!
//! `build_fold_snapshot` is the reorganizer acting as compactor: given a
//! frozen [`FoldCapture`], it carves tombstoned rows out of the base and
//! the captured runs, concatenates the survivors, and routes the merged
//! table through the target layout — one rewrite that is simultaneously
//! the layout switch (billed α at decision time) and the compaction.

use oreo_layout::SharedSpec;
use oreo_storage::{
    concat_tables, DeltaBuffer, FoldCapture, LayoutId, Result, Table, TableSnapshot, Wal,
};
use std::sync::Arc;

/// Mutable write-path state behind the engine's ingest lock.
pub(crate) struct IngestState {
    /// Delta runs, tombstones, sequence/row-id counters.
    pub buffer: DeltaBuffer,
    /// The write-ahead log (tiered serving only). `None` after a WAL
    /// failure degraded ingestion to memory-only, and always in memory
    /// serving.
    pub wal: Option<Wal>,
    /// The table the served base partitions were projected from. Starts as
    /// the boot table; each completed fold replaces it with the merged
    /// table.
    pub base: Arc<Table>,
    /// Global row id of each `base` position. Identity at boot; folds
    /// install the concatenated surviving ids.
    pub base_ids: Arc<[u32]>,
    /// Highest ingest sequence folded into `base` (the WAL GC watermark).
    pub folded: u64,
    /// Write-path degradations (WAL open/append/truncate failures). Merged
    /// into `EngineStats::tiered_errors` at shutdown.
    pub errors: Vec<String>,
}

impl IngestState {
    /// Fresh state over `base` with identity row ids.
    pub fn new(
        buffer: DeltaBuffer,
        wal: Option<Wal>,
        base: Arc<Table>,
        errors: Vec<String>,
    ) -> Self {
        let base_ids: Vec<u32> = (0..base.num_rows() as u32).collect();
        Self {
            buffer,
            wal,
            base,
            base_ids: base_ids.into(),
            folded: 0,
            errors,
        }
    }
}

/// What [`build_fold_snapshot`] produced: the snapshot to publish and, when
/// a fold actually merged deltas, the new base identity to install.
pub(crate) struct FoldBuild {
    /// The materialized target-layout snapshot (delta overlay not yet
    /// attached — the publisher re-reads the live overlay under the ingest
    /// lock).
    pub snapshot: TableSnapshot,
    /// `Some((merged_table, merged_ids))` when `capture` folded deltas in;
    /// `None` for a pure layout rewrite.
    pub merged: Option<(Arc<Table>, Arc<[u32]>)>,
}

/// Build the target layout's snapshot, folding `capture` (if any) into the
/// base: tombstoned rows are carved out of the base and the captured runs,
/// survivors concatenate (base first, then runs oldest-first — global ids
/// stay ascending), and the merged table is routed by `spec`.
///
/// With no capture the base is routed as it stands, each row carrying its
/// id; with identity ids (no fold yet) that is exactly
/// [`crate::reorg::materialize`].
pub(crate) fn build_fold_snapshot(
    base: &Arc<Table>,
    base_ids: &Arc<[u32]>,
    capture: Option<&FoldCapture>,
    spec: &SharedSpec,
    target: LayoutId,
) -> Result<FoldBuild> {
    let Some(cap) = capture else {
        let assignment = spec.assign(base);
        let snapshot = TableSnapshot::build_with_rows(
            base,
            base_ids,
            &assignment,
            spec.k(),
            target,
            spec.describe(),
        );
        return Ok(FoldBuild {
            snapshot,
            merged: None,
        });
    };

    let dead = |gid: u32| cap.tombstones.binary_search(&gid).is_ok();
    let keep: Vec<u32> = (0..base.num_rows() as u32)
        .filter(|&pos| !dead(base_ids[pos as usize]))
        .collect();
    let mut ids: Vec<u32> = keep.iter().map(|&pos| base_ids[pos as usize]).collect();
    let mut parts: Vec<Table> = Vec::with_capacity(1 + cap.runs.len());
    parts.push(base.project_rows(&keep));
    for run in &cap.runs {
        // A tombstone can name a delta row (update/delete of a row
        // ingested earlier); carve those out of the run too.
        let live: Vec<u32> = (0..run.rows().len() as u32)
            .filter(|&pos| !dead(run.rows()[pos as usize]))
            .collect();
        if live.is_empty() {
            continue;
        }
        ids.extend(live.iter().map(|&pos| run.rows()[pos as usize]));
        parts.push(run.data.project_rows(&live));
    }
    let merged = Arc::new(concat_tables(base.schema(), &parts)?);
    let assignment = spec.assign(&merged);
    let snapshot = TableSnapshot::build_with_rows(
        &merged,
        &ids,
        &assignment,
        spec.k(),
        target,
        spec.describe(),
    );
    Ok(FoldBuild {
        snapshot,
        merged: Some((merged, ids.into())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oreo_layout::RangeLayout;
    use oreo_query::{ColumnType, Scalar, Schema};
    use oreo_storage::{IngestOp, MergePolicy, TableBuilder};

    fn base(n: i64) -> Arc<Table> {
        let s = Arc::new(Schema::from_pairs([("v", ColumnType::Int)]));
        let mut b = TableBuilder::new(Arc::clone(&s));
        for i in 0..n {
            b.push_row(&[Scalar::Int(i)]);
        }
        Arc::new(b.finish())
    }

    fn append(v: i64) -> IngestOp {
        IngestOp::Append {
            values: vec![Scalar::Int(v)],
        }
    }

    #[test]
    fn fold_carves_tombstones_and_appends_runs_with_stable_ids() {
        let t = base(100);
        let mut buf =
            DeltaBuffer::new(Arc::clone(t.schema()), 100, MergePolicy::KBinomial { k: 2 });
        buf.apply(&[append(1000), append(1001)]).unwrap(); // ids 100, 101
        buf.apply(&[
            IngestOp::Update {
                row: 100,
                values: vec![Scalar::Int(2000)],
            }, // tombstone 100, append id 102
            IngestOp::Delete { row: 7 }, // base tombstone
        ])
        .unwrap();
        let cap = buf.freeze_for_fold().unwrap();
        let spec: SharedSpec = Arc::new(RangeLayout::from_sample(&t, 0, 4));
        let ids: Arc<[u32]> = (0..100u32).collect::<Vec<_>>().into();
        let built = build_fold_snapshot(&t, &ids, Some(&cap), &spec, 5).unwrap();
        let (merged, merged_ids) = built.merged.expect("fold merged");
        // 100 base − 1 tombstone + 3 delta − 1 delta tombstone = 101 rows
        assert_eq!(merged.num_rows(), 101);
        assert_eq!(built.snapshot.total_rows(), 101);
        assert!(!merged_ids.iter().any(|&g| g == 7 || g == 100));
        assert!(merged_ids.contains(&102));
        // ids ascend: base survivors then runs oldest-first
        assert!(merged_ids.windows(2).all(|w| w[0] < w[1]));
        // the folded rows are queryable through the snapshot
        let q = oreo_query::QueryBuilder::new(t.schema())
            .between("v", 2000, 2000)
            .build();
        let scan = built.snapshot.scan(&q.predicate);
        assert_eq!(scan.matches, vec![102]);
    }

    #[test]
    fn no_capture_non_identity_routes_surviving_ids() {
        let t = base(10);
        // pretend an earlier fold dropped id 3: base has 9 rows, ids skip 3
        let keep: Vec<u32> = (0..10u32).filter(|&i| i != 3).collect();
        let shrunk = Arc::new(t.project_rows(&keep));
        let ids: Arc<[u32]> = keep.into();
        let spec: SharedSpec = Arc::new(RangeLayout::from_sample(&shrunk, 0, 2));
        let built = build_fold_snapshot(&shrunk, &ids, None, &spec, 1).unwrap();
        assert!(built.merged.is_none());
        let mut cover = built.snapshot.row_cover();
        cover.sort_unstable();
        assert_eq!(cover, ids.to_vec());

        // Identity ids (no fold yet): exactly `reorg::materialize`'s
        // partitions — row ids, data and metadata.
        let ids: Arc<[u32]> = (0..10u32).collect::<Vec<_>>().into();
        let spec: SharedSpec = Arc::new(RangeLayout::from_sample(&t, 0, 3));
        let built = build_fold_snapshot(&t, &ids, None, &spec, 2).unwrap();
        assert!(built.merged.is_none());
        let want = crate::reorg::materialize(&t, &spec, 2);
        let (got, want) = (&built.snapshot, &want);
        assert_eq!((got.layout(), got.name()), (want.layout(), want.name()));
        assert_eq!(got.num_partitions(), want.num_partitions());
        for (g, w) in got.partitions().iter().zip(want.partitions()) {
            assert_eq!(g.rows(), w.rows());
            assert_eq!(g.meta, w.meta);
            assert_eq!(g.bytes, w.bytes);
            assert_eq!(g.data.num_rows(), w.data.num_rows());
            for r in 0..g.data.num_rows() {
                assert_eq!(g.data.scalar(r, 0), w.data.scalar(r, 0));
            }
        }
    }
}
