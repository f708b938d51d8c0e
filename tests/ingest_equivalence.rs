//! PR 9 satellite: **delta-aware scans are indistinguishable from a naive
//! rebuilt table** under arbitrary interleavings of ingest, scan, and
//! compaction (fold) — matches *and* byte accounting — on both the
//! memory-resident and the disk-tiered (buffer-pooled) serving paths.
//!
//! The reference is `oreo::sim::MutableOracle`: plain `(id, row)` pairs
//! with delta-buffer semantics and row-at-a-time predicate evaluation — no
//! layouts, runs, tombstone overlays, or pruning. The proptests drive a
//! real `DeltaBuffer` + `TableSnapshot` (and, in the tiered variant, a
//! `TieredStore` + `BufferPool`) through the same randomized schedule and
//! assert every scan agrees with the oracle. Folds are rebuilt the way the
//! engine's reorganizer does (carve tombstones from base + runs,
//! concatenate survivors) and cross-checked against the oracle's own
//! rebuild, so id stability survives shrinking too.

use oreo::query::{Atom, ColumnType, Predicate, Scalar, Schema};
use oreo::sim::MutableOracle;
use oreo::storage::{
    concat_tables, BufferPool, BufferPoolConfig, DeltaBuffer, FoldCapture, IngestOp, MergePolicy,
    Table, TableBuilder, TableSnapshot, TieredStore, CHUNK_ROWS,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Two int columns: `v` (the routed/predicated one) and `w` (payload).
fn schema() -> Arc<Schema> {
    Arc::new(Schema::from_pairs([
        ("v", ColumnType::Int),
        ("w", ColumnType::Int),
    ]))
}

fn base_table(n: usize) -> Arc<Table> {
    let s = schema();
    let mut b = TableBuilder::new(Arc::clone(&s));
    for i in 0..n as i64 {
        b.push_row(&[Scalar::Int((i * 7) % 100), Scalar::Int(i % 10)]);
    }
    Arc::new(b.finish())
}

/// Route by `v`'s value band — deterministic, so rebuilt snapshots always
/// exercise metadata pruning on the scanned column.
fn route(base: &Table, k: usize) -> Vec<u32> {
    (0..base.num_rows())
        .map(|r| {
            let Scalar::Int(v) = base.scalar(r, 0) else {
                unreachable!("v is an int column")
            };
            ((v.rem_euclid(100) as usize * k) / 100).min(k - 1) as u32
        })
        .collect()
}

fn rebuild_snapshot(base: &Arc<Table>, ids: &[u32], k: usize) -> TableSnapshot {
    TableSnapshot::build_with_rows(base, ids, &route(base, k), k, 1, "equiv")
}

/// The engine's fold construction, replicated here as the system under
/// test: base survivors, then run survivors oldest-first; ids ascend.
fn fold_tables(base: &Arc<Table>, base_ids: &[u32], cap: &FoldCapture) -> (Arc<Table>, Vec<u32>) {
    let dead = |gid: u32| cap.tombstones.binary_search(&gid).is_ok();
    let keep: Vec<u32> = (0..base.num_rows() as u32)
        .filter(|&pos| !dead(base_ids[pos as usize]))
        .collect();
    let mut ids: Vec<u32> = keep.iter().map(|&pos| base_ids[pos as usize]).collect();
    let mut parts = vec![base.project_rows(&keep)];
    for run in &cap.runs {
        let live: Vec<u32> = (0..run.rows().len() as u32)
            .filter(|&pos| !dead(run.rows()[pos as usize]))
            .collect();
        if live.is_empty() {
            continue;
        }
        ids.extend(live.iter().map(|&pos| run.rows()[pos as usize]));
        parts.push(run.data.project_rows(&live));
    }
    let merged = concat_tables(base.schema(), &parts).expect("fold concat");
    (Arc::new(merged), ids)
}

/// One abstract op — concretized against the oracle's live-id set at apply
/// time, so updates/deletes always target a live row (as real clients do).
#[derive(Clone, Debug)]
enum AbOp {
    Append { v: i64, w: i64 },
    Update { sel: usize, v: i64 },
    Delete { sel: usize },
}

/// One step of the randomized schedule.
#[derive(Clone, Debug)]
enum Action {
    Ingest(Vec<AbOp>),
    Scan { lo: i64, span: i64 },
    Fold,
}

// The vendored `prop_oneof!` is unweighted; arms are repeated to bias the
// mix (appends 3:1:1 over updates/deletes, folds rarer than the rest).
fn ab_op() -> impl Strategy<Value = AbOp> {
    prop_oneof![
        (-50i64..150, 0i64..10).prop_map(|(v, w)| AbOp::Append { v, w }),
        (-50i64..150, 0i64..10).prop_map(|(v, w)| AbOp::Append { v, w }),
        (-50i64..150, 0i64..10).prop_map(|(v, w)| AbOp::Append { v, w }),
        (any::<usize>(), -50i64..150).prop_map(|(sel, v)| AbOp::Update { sel, v }),
        any::<usize>().prop_map(|sel| AbOp::Delete { sel }),
    ]
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        proptest::collection::vec(ab_op(), 1..8).prop_map(Action::Ingest),
        proptest::collection::vec(ab_op(), 1..8).prop_map(Action::Ingest),
        proptest::collection::vec(ab_op(), 1..8).prop_map(Action::Ingest),
        (-60i64..140, 0i64..60).prop_map(|(lo, span)| Action::Scan { lo, span }),
        (-60i64..140, 0i64..60).prop_map(|(lo, span)| Action::Scan { lo, span }),
        (-60i64..140, 0i64..60).prop_map(|(lo, span)| Action::Scan { lo, span }),
        Just(Action::Fold),
    ]
}

/// Concretize one abstract batch against the oracle's live ids.
fn concretize(oracle: &MutableOracle, ab: &[AbOp]) -> Vec<IngestOp> {
    let mut live = oracle.matches(&Predicate::always_true());
    let mut next = oracle.next_row();
    let mut ops = Vec::with_capacity(ab.len());
    for op in ab {
        match *op {
            AbOp::Append { v, w } => {
                ops.push(IngestOp::Append {
                    values: vec![Scalar::Int(v), Scalar::Int(w)],
                });
                live.push(next);
                next += 1;
            }
            AbOp::Update { sel, v } => {
                if live.is_empty() {
                    continue;
                }
                let victim = live.swap_remove(sel % live.len());
                ops.push(IngestOp::Update {
                    row: victim,
                    values: vec![Scalar::Int(v), Scalar::Int(0)],
                });
                live.push(next);
                next += 1;
            }
            AbOp::Delete { sel } => {
                if live.is_empty() {
                    continue;
                }
                let victim = live.swap_remove(sel % live.len());
                ops.push(IngestOp::Delete { row: victim });
            }
        }
    }
    ops
}

fn between(lo: i64, hi: i64) -> Predicate {
    Predicate::new(vec![Atom::Between {
        col: 0,
        low: Scalar::Int(lo),
        high: Scalar::Int(hi),
    }])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Memory serving: vectorized delta-aware scans (and the row-at-a-time
    /// oracle path) equal the mutable oracle after every prefix of a
    /// random ingest/scan/fold schedule, including chunk-straddling base
    /// sizes; delta byte accounting stays a subset of total bytes and is
    /// exactly zero without an overlay.
    #[test]
    fn delta_aware_scan_equals_rebuilt_oracle_in_memory(
        n in prop_oneof![
            1usize..160,
            1usize..160,
            1usize..160,
            CHUNK_ROWS - 6..CHUNK_ROWS + 6,
        ],
        k in 1usize..4,
        actions in proptest::collection::vec(action(), 1..14),
    ) {
        let mut base = base_table(n);
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let mut oracle = MutableOracle::new(&base);
        let mut buf = DeltaBuffer::new(
            Arc::clone(base.schema()),
            n as u64,
            MergePolicy::KBinomial { k: 2 },
        );
        let mut snap = rebuild_snapshot(&base, &ids, k);
        for a in &actions {
            match a {
                Action::Ingest(ab) => {
                    let ops = concretize(&oracle, ab);
                    if ops.is_empty() {
                        continue;
                    }
                    oracle.apply(&ops).expect("oracle accepts live-target batch");
                    buf.apply(&ops).expect("buffer accepts live-target batch");
                    snap.set_delta(buf.overlay());
                }
                Action::Scan { lo, span } => {
                    let pred = between(*lo, lo + span);
                    let want = oracle.matches(&pred);
                    let scan = snap.scan(&pred);
                    prop_assert_eq!(&scan.matches, &want, "vectorized path diverged");
                    prop_assert!(scan.delta_bytes_scanned <= scan.bytes_scanned);
                    if snap.delta().is_none() {
                        prop_assert_eq!(scan.delta_bytes_scanned, 0,
                            "empty-delta scans must cost nothing extra");
                    }
                }
                Action::Fold => {
                    let Some(cap) = buf.freeze_for_fold() else { continue };
                    let (merged, mids) = fold_tables(&base, &ids, &cap);
                    let (otab, oids) = oracle.rebuild();
                    prop_assert_eq!(&mids, &oids, "fold must preserve the oracle's id set");
                    prop_assert_eq!(merged.num_rows(), otab.num_rows());
                    base = merged;
                    ids = mids;
                    buf.complete_fold();
                    snap = rebuild_snapshot(&base, &ids, k);
                    snap.set_delta(buf.overlay());
                }
            }
        }
        prop_assert_eq!(snap.live_rows(), oracle.live_rows());
    }

    /// Tiered serving: buffer-pooled delta-aware scans equal the oracle
    /// under the same schedules, folds commit through
    /// `publish_with_fold`, and the pooled byte-accounting invariant
    /// `io_cold + io_cached + delta_bytes == bytes_scanned` holds on every
    /// scan.
    #[test]
    fn delta_aware_scan_equals_rebuilt_oracle_tiered(
        n in prop_oneof![
            20usize..120,
            20usize..120,
            CHUNK_ROWS - 4..CHUNK_ROWS + 4,
        ],
        k in 1usize..4,
        cap_pages in 2u64..16,
        actions in proptest::collection::vec(action(), 1..10),
        case in 0u32..1_000_000,
    ) {
        let mut base = base_table(n);
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let mut oracle = MutableOracle::new(&base);
        let mut buf = DeltaBuffer::new(
            Arc::clone(base.schema()),
            n as u64,
            MergePolicy::KBinomial { k: 2 },
        );
        let root = std::env::temp_dir().join(format!(
            "oreo-ingest-equiv-{}-{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let mut snap = rebuild_snapshot(&base, &ids, k);
        let (store, _) = TieredStore::create(&root, &mut snap).expect("create store");
        let page_bytes = 256usize;
        let pool = BufferPool::new(BufferPoolConfig {
            capacity_bytes: cap_pages * page_bytes as u64,
            page_bytes,
        });
        for a in &actions {
            match a {
                Action::Ingest(ab) => {
                    let ops = concretize(&oracle, ab);
                    if ops.is_empty() {
                        continue;
                    }
                    oracle.apply(&ops).expect("oracle accepts live-target batch");
                    buf.apply(&ops).expect("buffer accepts live-target batch");
                    snap.set_delta(buf.overlay());
                }
                Action::Scan { lo, span } => {
                    let pred = between(*lo, lo + span);
                    let want = oracle.matches(&pred);
                    let scan = snap.scan_pooled(&pred, &pool).expect("pooled scan");
                    prop_assert_eq!(&scan.matches, &want, "pooled path diverged");
                    prop_assert_eq!(
                        scan.io_cold_bytes + scan.io_cached_bytes + scan.delta_bytes_scanned,
                        scan.bytes_scanned,
                        "pooled byte accounting must stay exact with deltas"
                    );
                }
                Action::Fold => {
                    let Some(cap) = buf.freeze_for_fold() else { continue };
                    let (merged, mids) = fold_tables(&base, &ids, &cap);
                    prop_assert_eq!(&mids, &oracle.rebuild().1);
                    base = merged;
                    ids = mids;
                    let mut folded = rebuild_snapshot(&base, &ids, k);
                    store
                        .publish_with_fold(&mut folded, cap.watermark, cap.next_row)
                        .expect("fold publish");
                    buf.complete_fold();
                    snap = folded;
                    snap.set_delta(buf.overlay());
                }
            }
        }
        prop_assert_eq!(snap.live_rows(), oracle.live_rows());
        drop(snap);
        drop(store);
        let _ = std::fs::remove_dir_all(&root);
    }
}
