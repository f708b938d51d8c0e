//! # oreo-storage
//!
//! The partitioned columnar storage substrate OREO optimizes over.
//!
//! Five layers:
//!
//! 1. **In-memory tables** ([`Table`], [`Column`]) — immutable columnar data
//!    with typed columns (`i64`, `f64`, dictionary strings) used by the
//!    workload generators and the layout routers.
//! 2. **Partition metadata** ([`PartitionMetadata`], [`LayoutModel`]) —
//!    min/max ranges and distinct sets per column per partition. This is the
//!    entire costing surface of OREO: `c(s, q)` is the fraction of rows in
//!    partitions the predicate cannot skip, computed from metadata alone.
//! 3. **Copy-on-write snapshots** ([`TableSnapshot`], [`SnapshotCell`]) —
//!    immutable materialized partition sets readers pin while a background
//!    reorganizer builds the next layout aside and atomically publishes it;
//!    the substrate of the concurrent serving layer (`oreo-engine`).
//! 4. **The disk tier** ([`TieredStore`], [`Generation`]) — snapshot
//!    generations persisted as `gen-N/` directories (one segment of
//!    compressed columnar partition blobs plus a manifest), committed by
//!    atomic rename, pinned by readers, garbage-collected after the last
//!    unpin, and recovered on restart. It is the only on-disk store: the
//!    engine serves from it, and Table I's measured α is one of its
//!    publishes over one of its full scans, so α and the engine's measured
//!    Δ are observables of the *same* store.
//! 5. **A buffer pool** ([`BufferPool`]) — a fixed-capacity, page-granular
//!    cache over a generation's partition blobs with CLOCK eviction. Tiered
//!    scans ([`TableSnapshot::scan_pooled`]) fetch only the pages their
//!    predicate's columns touch, so scan cost is *real* block transfers —
//!    split into cold (disk) and cached (pool) bytes — instead of bytes
//!    merely accounted at file sizes.
//!
//! Both snapshot scans ([`TableSnapshot::scan`] over resident data,
//! [`TableSnapshot::scan_pooled`] over pages through the [`BufferPool`])
//! run one driver: prune by metadata → fetch the predicate's columns →
//! evaluate through the vectorized [`kernel`] layer → assemble the
//! ascending result minus tombstones in linear time. The kernels run
//! compiled per-column plans ([`oreo_query::compile`]) over
//! [`CHUNK_ROWS`]-row chunks into reusable selection vectors, ANDed
//! cheapest-selectivity-first with late materialization of global row ids.

pub mod bufpool;
pub mod column;
pub mod delta;
pub mod encode;
pub mod error;
pub mod format;
pub mod kernel;
pub mod layout_model;
mod order;
pub mod partition;
pub mod snapshot;
pub mod table;
pub mod tiered;
pub mod wal;

pub use bufpool::{BufferPool, BufferPoolConfig, PoolStats, ReadStats};
pub use column::{atom_matches_ref, Column, DictBuilder, DictColumn, ValueRef};
pub use delta::{
    kbinomial_sizes, ApplyReceipt, DeltaBuffer, DeltaOverlay, DeltaRun, FoldCapture, IngestOp,
    MergePolicy,
};
pub use error::{Result, StorageError};
pub use format::{ColumnExtent, PartitionFooter};
pub use kernel::{KernelCounters, CHUNK_ROWS};
pub use layout_model::{cost_vector_distance, LayoutId, LayoutModel};
pub use partition::{build_metadata, PartitionMetadata, DEFAULT_DISTINCT_CAP};
pub use snapshot::{SnapshotCell, SnapshotPartition, SnapshotScan, TableSnapshot};
pub use table::{concat_tables, Table, TableBuilder};
pub use tiered::{FullScan, Generation, PublishReceipt, RecoveryReport, TieredStore};
pub use wal::{Wal, WalRecord, WalRecovery};

#[cfg(test)]
mod proptests {
    use super::*;
    use oreo_query::{ColumnType, Scalar, Schema};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    proptest! {
        /// i64 block encoding round-trips arbitrary data.
        #[test]
        fn i64_block_round_trip(values in proptest::collection::vec(any::<i64>(), 0..200)) {
            let mut b = Vec::new();
            encode::encode_i64_block(&mut b, &values);
            prop_assert_eq!(encode::decode_i64_block(&mut &b[..], values.len()).unwrap(), values);
        }

        /// Frames round-trip at every width 0..=64 — spans up to the whole
        /// of `i64::MIN..=i64::MAX`, all-equal frames at width 0 — and at
        /// the lengths around the frame and pack-group boundaries, at the
        /// size the width predicts.
        #[test]
        fn i64_frames_round_trip_at_every_width(
            width in 0u32..=64,
            len in 0usize..6,
            anchor in any::<i64>(),
            seed in any::<u64>(),
        ) {
            let n = [0usize, 1, 1023, 1024, 1025, 2049][len];
            let span = u64::MAX.checked_shr(64 - width).unwrap_or(0);
            // `base` leaves room for the span, so the widest frames sit on
            // i64::MIN and reach i64::MAX
            let base = anchor.min(i64::MAX.wrapping_sub(span as i64));
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut values: Vec<i64> = (0..n)
                .map(|_| base.wrapping_add((rng.random::<u64>() & span) as i64))
                .collect();
            // both ends of the span are present in every frame: the width is exact
            for frame in values.chunks_mut(encode::FRAME_ROWS) {
                if frame.len() >= 2 {
                    frame[0] = base;
                    *frame.last_mut().unwrap() = base.wrapping_add(span as i64);
                }
            }
            let mut b = Vec::new();
            encode::encode_i64_block(&mut b, &values);
            let mut r = &b[..];
            prop_assert_eq!(encode::decode_i64_block(&mut r, n).unwrap(), values.clone());
            prop_assert!(r.is_empty());
            if n >= 2 {
                let payload: usize = values
                    .chunks(encode::FRAME_ROWS)
                    .map(|f| 9 + if f.len() >= 2 { (f.len() * width as usize).div_ceil(8) } else { 0 })
                    .sum();
                prop_assert_eq!(b.len(), 2 + payload);
            }
        }

        /// u32 block encoding round-trips arbitrary data (RLE or packed).
        #[test]
        fn u32_block_round_trip(values in proptest::collection::vec(0u32..1 << 20, 0..300)) {
            let mut b = Vec::new();
            encode::encode_u32_block(&mut b, &values);
            prop_assert_eq!(encode::decode_u32_block(&mut &b[..], values.len()).unwrap(), values);
        }

        /// Random damage fed through `decode_trusted` — the checksum is off,
        /// as on a pooled read served from cached pages — never panics and
        /// never yields a column of another length or a buffer that grew
        /// past `nrows` values: a stored count sizes nothing. For every
        /// column encoding: int frames, raw floats, dictionary codes under
        /// RLE and under bit-packing.
        #[test]
        fn damaged_payload_never_panics_or_overallocates(
            nrows in 1usize..2500,
            flips in proptest::collection::vec(any::<(usize, u8)>(), 1..4),
            cut in any::<(bool, usize)>(),
        ) {
            let schema = Arc::new(Schema::from_pairs([
                ("i", ColumnType::Int),
                ("f", ColumnType::Float),
                ("runs", ColumnType::Str),
                ("noise", ColumnType::Str),
            ]));
            let mut b = table::TableBuilder::new(Arc::clone(&schema));
            let tags = ["a", "b", "c", "d", "e"];
            for i in 0..nrows {
                b.push_row(&[
                    Scalar::Int((i * i) as i64 - 1000),
                    Scalar::Float(i as f64 / 3.0),
                    Scalar::from(tags[i * tags.len() / nrows]),
                    Scalar::from(tags[i * 7919 % tags.len()]),
                ]);
            }
            let table = b.finish();
            let meta = build_metadata(&table, &vec![0; nrows], 1).pop().unwrap();
            let (bytes, footer) = format::encode_partition_with_meta(&table, &meta);
            for (col, extent) in footer.columns.iter().enumerate() {
                let clean = &bytes[extent.offset as usize..(extent.offset + extent.len) as usize];
                prop_assert!(extent.decode_trusted(clean, nrows, col).is_ok());
                let mut payload = clean.to_vec();
                for &(pos, mask) in &flips {
                    let pos = pos % payload.len();
                    payload[pos] ^= mask | 1;
                }
                let mut extent = *extent;
                if cut.0 {
                    payload.truncate(cut.1 % payload.len());
                    extent.len = payload.len() as u64;
                }
                match extent.decode_trusted(&payload, nrows, col) {
                    Err(e) => prop_assert!(matches!(e, StorageError::Corrupt(_))),
                    Ok(column) => {
                        prop_assert_eq!(column.len(), nrows);
                        let capacity = match &column {
                            Column::Int(v) => v.capacity(),
                            Column::Float(v) => v.capacity(),
                            Column::Str(d) => d.codes().len(),
                        };
                        prop_assert_eq!(capacity, nrows);
                    }
                }
                // the row count is the caller's: the block's own never overrides it
                prop_assert!(extent.decode_trusted(clean, nrows + 1, col).is_err());
            }
        }

        /// Any single-byte corruption of an encoded partition is detected:
        /// decoding never panics and never silently succeeds with wrong
        /// data. A reader answers only for the bytes it reads — a flip
        /// inside one column's payload fails that extent's
        /// `ColumnExtent::verify` (what a pooled scan runs on the payload
        /// it fetched) and no other extent's.
        #[test]
        fn corruption_always_detected(
            rows in proptest::collection::vec((any::<i64>(), 0u32..4), 1..50),
            flip in any::<(usize, u8)>(),
        ) {
            let schema = Arc::new(Schema::from_pairs([
                ("v", ColumnType::Int),
                ("tag", ColumnType::Str),
            ]));
            let mut b = table::TableBuilder::new(Arc::clone(&schema));
            for (v, t) in &rows {
                b.push_row(&[Scalar::Int(*v), Scalar::from(["a","b","c","d"][*t as usize])]);
            }
            let table = b.finish();
            let meta = build_metadata(&table, &vec![0; table.num_rows()], 1).pop().unwrap();
            let (clean, footer) = format::encode_partition_with_meta(&table, &meta);
            let mut bytes = clean.to_vec();
            let pos = flip.0 % bytes.len();
            let mask = if flip.1 == 0 { 1 } else { flip.1 };
            bytes[pos] ^= mask;

            prop_assert!(format::decode_partition(&schema, &bytes).is_err());
            for (col, e) in footer.columns.iter().enumerate() {
                let payload = &bytes[e.offset as usize..(e.offset + e.len) as usize];
                let hit = (e.offset..e.offset + e.len).contains(&(pos as u64));
                prop_assert_eq!(e.verify(payload, col).is_err(), hit, "column {}", col);
            }
        }

        /// Partition metadata is *sound*: every row routed to partition b
        /// with a predicate matching it implies may_match(b) is true.
        #[test]
        fn metadata_never_skips_matching_rows(
            values in proptest::collection::vec(-100i64..100, 1..100),
            k in 1usize..5,
            lo in -100i64..100,
            span in 0i64..50,
        ) {
            let schema = Arc::new(Schema::from_pairs([("v", ColumnType::Int)]));
            let mut b = table::TableBuilder::new(Arc::clone(&schema));
            for v in &values {
                b.push_row(&[Scalar::Int(*v)]);
            }
            let table = b.finish();
            let assignment: Vec<u32> = (0..values.len()).map(|i| (i % k) as u32).collect();
            let meta = build_metadata(&table, &assignment, k);
            let pred = oreo_query::Predicate::new(vec![oreo_query::Atom::Between {
                col: 0,
                low: Scalar::Int(lo),
                high: Scalar::Int(lo + span),
            }]);
            for (row, v) in values.iter().enumerate() {
                if *v >= lo && *v <= lo + span {
                    let bid = assignment[row] as usize;
                    prop_assert!(meta[bid].may_match(&pred),
                        "row {row} (v={v}) matches but partition {bid} was prunable");
                }
            }
        }
    }
}
