//! The disk tier of the serving path: snapshot *generations* persisted as
//! directories, published by atomic rename, pinned by readers, and
//! garbage-collected after the last unpin.
//!
//! A [`TieredStore`] owns a root directory holding one subdirectory per
//! snapshot generation, and a generation is exactly two files:
//!
//! ```text
//! root/
//!   gen-000001/              ← complete generation (commit = the rename)
//!     MANIFEST               ← layout id/name, partition count, row count
//!     segment                ← every partition, back to back, then an index
//!   gen-000002.tmp/          ← in-flight aside rewrite (torn if we crash)
//!
//! segment:
//!   blob 0 | rows 0 | blob 1 | rows 1 | … | blob k−1 | rows k−1
//!   index:   k u64 | per partition: data_off, data_len, rows_off, rows_len
//!   trailer: index sum u64 | index offset u64 | "OREOSEG1"      (all u64 LE)
//! ```
//!
//! A *blob* is one partition in the [`crate::format`] encoding (its footer
//! carries the pruning metadata and the page index, its sums guard footer
//! and column payloads); *rows* is the partition's global row ids, with their
//! own sum. The trailer's sum guards the index, and recovery accepts an
//! index only if it tiles the file exactly — `k` as the manifest says,
//! every extent starting where the last one ended, the last one ending at
//! the index — before it sizes any read by it.
//!
//! A rewrite costs per file it creates, not only per byte it writes: one
//! segment instead of a data file and a row-id file per partition is 2
//! creates and 2 file fsyncs per publish whatever `k` is. Readers address a
//! blob through the segment handle its [`Generation`] keeps open, with
//! offsets — and buffer-pool pages — relative to the blob, so the page
//! geometry is that of one file per partition (see
//! [`crate::BufferPool::read_blob`]).
//!
//! The reorganizer writes the next generation *aside* into `gen-N.tmp/`,
//! fsyncs both files and the directory, then
//! commits with a single atomic `rename(gen-N.tmp, gen-N)` followed by an
//! fsync of the root. Only after
//! the rename does the serving snapshot pointer swap (the engine's
//! `SnapshotCell::publish`), so a crash at any point leaves either the old
//! generation serving (the `.tmp` is garbage) or the new one fully
//! committed — never a half-visible layout.
//!
//! Every [`TableSnapshot`] persisted through the store holds an
//! [`Arc<Generation>`] pin on its directory. When a generation is
//! superseded it is *retired*; its directory is deleted when the last pin
//! drops (readers still scanning the old layout keep it alive).
//! [`TieredStore::open`] recovers the newest complete generation after a
//! restart and cleans up torn `.tmp` directories and stale older
//! generations.

use crate::encode::{checksum, decode_u32_block, encode_u32_block};
use crate::error::{Result, StorageError};
use crate::format::{decode_partition_with_footer, encode_partition_with_meta, ColumnExtent};
use crate::snapshot::{strictly_ascending, SnapshotPartition, TableSnapshot};
use bytes::{Buf, BufMut, BytesMut};
use oreo_query::Schema;
use std::fs;
use std::io::Write as _;
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const MANIFEST: &str = "MANIFEST";
/// v2: the generation's data is one `segment`, not a file pair per partition.
const MANIFEST_MAGIC: &str = "oreo-tiered v2";
const SEGMENT: &str = "segment";
const SEGMENT_MAGIC: &[u8; 8] = b"OREOSEG1";
/// Fixed-size segment trailer: index checksum + index offset + magic.
const SEGMENT_TAIL: u64 = 8 + 8 + 8;
/// One index entry: `data_off | data_len | rows_off | rows_len`.
const INDEX_ENTRY: u64 = 4 * 8;
const ROWS_MAGIC: &[u8; 8] = b"OREOROWS";

/// One on-disk snapshot generation: a committed `gen-N/` directory.
///
/// Held by `Arc` from every [`TableSnapshot`] it backs; once the store
/// retires it (a newer generation committed) the directory is removed when
/// the last `Arc` drops. A generation that was never retired — the current
/// one — survives process exit, which is what makes the store durable.
#[derive(Debug)]
pub struct Generation {
    number: u64,
    table: u32,
    dir: PathBuf,
    bytes: u64,
    retired: AtomicBool,
    /// The generation's `segment`, opened once (by the publish that wrote
    /// it or the recovery that validated it) and read by position.
    segment: fs::File,
    /// Where each partition sits in the segment.
    entries: Box<[SegmentEntry]>,
}

impl Generation {
    /// The generation number `N` of the `gen-N/` directory (1-based).
    pub fn number(&self) -> u64 {
        self.number
    }

    /// The table (tenant) this generation belongs to. Single-table stores
    /// use table 0; a multi-tenant engine gives each tenant's store its own
    /// id so shared caches (the buffer pool) can key pages by
    /// `(table, generation, page)` without cross-tenant collisions.
    pub fn table(&self) -> u32 {
        self.table
    }

    /// The committed directory this generation lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total bytes written for this generation (segment and manifest).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The open segment file; blobs are read from it by position.
    pub(crate) fn segment(&self) -> &fs::File {
        &self.segment
    }

    /// `(offset, length)` of partition `partition`'s blob in the segment.
    pub(crate) fn blob(&self, partition: u32) -> Option<(u64, u64)> {
        let entry = self.entries.get(partition as usize)?;
        Some((entry.data_off, entry.data_len))
    }

    fn retire(&self) {
        self.retired.store(true, Ordering::Release);
    }

    /// Whether this generation has been superseded by a newer commit.
    /// Retired generations still serve their pinned readers, but caches
    /// (the buffer pool) must not admit new pages for them — the pool was
    /// already invalidated at publish time, and re-admitted pages would
    /// squat in it until process exit.
    pub fn is_retired(&self) -> bool {
        self.retired.load(Ordering::Acquire)
    }
}

#[cfg(test)]
impl Generation {
    /// Generation 1 of table 0 over an arbitrary `segment` whose blobs, of
    /// lengths `blob_lens`, lie back to back from offset 0 — for tests of
    /// the page geometry that need blob lengths no encoder produces.
    pub(crate) fn over_blobs(dir: PathBuf, segment: fs::File, blob_lens: &[u64]) -> Self {
        let mut cursor = 0;
        let entries = blob_lens.iter().map(|&data_len| {
            cursor += data_len;
            SegmentEntry {
                data_off: cursor - data_len,
                data_len,
                rows_off: cursor,
                rows_len: 0,
            }
        });
        Self {
            number: 1,
            table: 0,
            dir,
            bytes: 0,
            retired: AtomicBool::new(false),
            entries: entries.collect(),
            segment,
        }
    }
}

impl Drop for Generation {
    fn drop(&mut self) {
        if self.retired.load(Ordering::Acquire) {
            let _ = fs::remove_dir_all(&self.dir);
        }
    }
}

/// What one generation publish cost — the *empirical* reorganization write
/// bill: bytes and wall-clock of persisting the aside rewrite (encode +
/// write + fsync + atomic rename).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PublishReceipt {
    /// The committed generation number.
    pub generation: u64,
    /// Bytes written (segment + manifest).
    pub bytes_written: u64,
    /// Files written: the segment and the manifest.
    pub files: usize,
    /// Wall-clock of the whole persist (write + fsync + rename + root
    /// fsync).
    pub wall: Duration,
}

/// What [`TieredStore::full_scan`] read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FullScan {
    /// Partitions decoded.
    pub partitions: usize,
    /// Rows decoded.
    pub rows: u64,
    /// Partition-blob bytes read (row-id blocks and index not counted — the
    /// unit of [`TableSnapshot::total_bytes`]).
    pub bytes: u64,
}

/// What [`TieredStore::open`] found and cleaned up during recovery.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The complete generation recovered and now serving.
    pub generation: u64,
    /// Torn directories removed: in-flight `gen-N.tmp/` rewrites that never
    /// committed, plus committed directories whose contents fail to decode.
    pub torn_removed: Vec<PathBuf>,
    /// Older complete generations removed (superseded before the restart
    /// but still on disk because the process died holding pins).
    pub stale_removed: Vec<PathBuf>,
    /// Ingest fold watermark of the recovered generation: every WAL record
    /// with sequence ≤ this is already folded into the base and must be
    /// skipped at replay. 0 when the generation never folded deltas.
    pub folded: u64,
    /// The row-id high-water mark at the recovered generation's fold
    /// point: replayed appends continue allocating global ids from here.
    pub next_row: u64,
    /// Entries under the root that are neither committed generations nor
    /// torn rewrites (e.g. a sibling tenant subdirectory, a WAL, or a file
    /// from a future format). Recovery skips them — with a warning — rather
    /// than treating the root as corrupt; they are never deleted.
    pub skipped: Vec<PathBuf>,
}

/// The disk tier backing the serving path: every published
/// [`TableSnapshot`] is persisted as a `gen-N/` directory, committed by
/// atomic rename, pinned by readers, and garbage-collected after the last
/// unpin.
///
/// # Example
///
/// ```
/// use oreo_storage::{TableBuilder, TableSnapshot, TieredStore};
/// use oreo_query::{ColumnType, Scalar, Schema};
/// use std::sync::Arc;
///
/// let schema = Arc::new(Schema::from_pairs([("v", ColumnType::Int)]));
/// let mut b = TableBuilder::new(Arc::clone(&schema));
/// for i in 0..100i64 {
///     b.push_row(&[Scalar::Int(i)]);
/// }
/// let table = b.finish();
///
/// let root = std::env::temp_dir().join(format!("tiered-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&root);
///
/// // Generation 1: the initial layout, persisted at engine start.
/// let mut snap = TableSnapshot::build(&table, &vec![0; 100], 1, 0, "init");
/// let (store, receipt) = TieredStore::create(&root, &mut snap).unwrap();
/// assert_eq!(receipt.generation, 1);
/// assert!(snap.generation().is_some());
///
/// // Generation 2: an aside rewrite, committed by atomic rename.
/// let assignment: Vec<u32> = (0..100).map(|i| (i / 50) as u32).collect();
/// let mut next = TableSnapshot::build(&table, &assignment, 2, 1, "halves");
/// let receipt = store.publish(&mut next).unwrap();
/// assert_eq!(receipt.generation, 2);
/// assert!(receipt.bytes_written > 0);
///
/// // Gen 1 was retired; dropping its last pin removes the directory.
/// drop(snap);
/// assert!(!root.join("gen-000001").exists());
///
/// // The store reopens at the newest complete generation after a restart.
/// drop(store);
/// let (reopened, recovered, report) = TieredStore::open(&root, &schema).unwrap();
/// assert_eq!(report.generation, 2);
/// assert_eq!(recovered.num_partitions(), 2);
/// assert_eq!(reopened.current().number(), 2);
/// # drop(next); drop(recovered); drop(reopened);
/// # let _ = std::fs::remove_dir_all(&root);
/// ```
#[derive(Debug)]
pub struct TieredStore {
    root: PathBuf,
    schema: Arc<Schema>,
    table: u32,
    current: Mutex<Arc<Generation>>,
}

impl TieredStore {
    /// Initialize a store at `root`, persisting `snapshot` as the next
    /// generation.
    ///
    /// On a fresh root that is generation 1. On a root left behind by a
    /// previous process the store *restarts* the sequence instead of
    /// colliding with it: torn `gen-N.tmp/` rewrites are removed, the new
    /// snapshot is committed as `max committed generation + 1`, and the
    /// now-superseded older generations are cleaned up — so an engine can
    /// be restarted on the same root indefinitely. (To *read* the last
    /// committed generation instead of superseding it, use
    /// [`TieredStore::open`] first.)
    ///
    /// The snapshot is mutated in place: its per-partition byte accounting
    /// switches to encoded file sizes and it pins the new generation (see
    /// [`TableSnapshot::generation`]).
    pub fn create(root: &Path, snapshot: &mut TableSnapshot) -> Result<(Self, PublishReceipt)> {
        Self::create_for_table(root, 0, snapshot)
    }

    /// [`TieredStore::create`] with an explicit table (tenant) id stamped
    /// into every generation this store commits, so a shared buffer pool
    /// can key its pages by `(table, generation, page)`.
    pub fn create_for_table(
        root: &Path,
        table: u32,
        snapshot: &mut TableSnapshot,
    ) -> Result<(Self, PublishReceipt)> {
        assert!(
            snapshot.num_partitions() > 0,
            "snapshot must have at least one partition"
        );
        fs::create_dir_all(root)?;
        let mut stale = Vec::new();
        let mut next = 1;
        for (kind, number, path) in list_root(root) {
            match kind {
                EntryKind::Torn => fs::remove_dir_all(&path)?,
                EntryKind::Committed => {
                    next = next.max(number + 1);
                    stale.push(path);
                }
                EntryKind::Unknown => {}
            }
        }
        let schema = Arc::clone(snapshot.partitions()[0].data.schema());
        let next_row = snapshot.total_rows();
        let (generation, receipt) = persist_generation(root, table, snapshot, next, 0, next_row)?;
        // The previous process's generations are superseded by the commit
        // above; nothing in this process pins them.
        for path in stale {
            fs::remove_dir_all(&path)?;
        }
        let store = Self {
            root: root.to_owned(),
            schema,
            table,
            current: Mutex::new(generation),
        };
        Ok((store, receipt))
    }

    /// Persist `snapshot` aside as the next generation and commit it by
    /// atomic rename, then retire the previous generation (its directory is
    /// deleted once the last reader unpins it).
    ///
    /// This is the write half of the paper's four-step rewrite, measured:
    /// the returned [`PublishReceipt`] carries the bytes and wall-clock of
    /// the persist, which the serving layer reports as the empirical α
    /// alongside the measured switch delay Δ. Call the serving-plane
    /// pointer swap (`SnapshotCell::publish`) only after this returns — the
    /// rename is the durability point.
    pub fn publish(&self, snapshot: &mut TableSnapshot) -> Result<PublishReceipt> {
        let next_row = snapshot.total_rows();
        self.publish_with_fold(snapshot, 0, next_row)
    }

    /// [`TieredStore::publish`] for a generation that carries ingest-fold
    /// state: `folded` is the WAL watermark (every record with sequence ≤
    /// it is folded into this base), `next_row` the row-id high-water mark
    /// at the fold point. Both land in the manifest so
    /// [`TieredStore::open`] can resume the ingest sequence exactly.
    pub fn publish_with_fold(
        &self,
        snapshot: &mut TableSnapshot,
        folded: u64,
        next_row: u64,
    ) -> Result<PublishReceipt> {
        let mut current = self.current.lock().expect("tiered store poisoned");
        let number = current.number() + 1;
        let (generation, receipt) =
            match persist_generation(&self.root, self.table, snapshot, number, folded, next_row) {
                Ok(committed) => committed,
                Err(e) => {
                    // A publish that dies partway into its segment
                    // leaves a `gen-N.tmp/` behind; only `open`/`create` used
                    // to clean those, so a long-running engine retrying
                    // publishes would leak disk. Sweep every stale `.tmp`
                    // (best-effort) before surfacing the error.
                    sweep_tmp_entries(&self.root);
                    return Err(e);
                }
            };
        let old = std::mem::replace(&mut *current, generation);
        old.retire();
        Ok(receipt)
    }

    /// Pin the current (newest committed) generation.
    pub fn current(&self) -> Arc<Generation> {
        Arc::clone(&self.current.lock().expect("tiered store poisoned"))
    }

    /// The root directory holding the generation subdirectories.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The schema of the stored table.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The table (tenant) id stamped into this store's generations.
    pub fn table(&self) -> u32 {
        self.table
    }

    /// Generation directories currently on disk (committed `gen-N/` only),
    /// ascending. Superseded generations linger here only while readers
    /// still pin them.
    pub fn generations_on_disk(&self) -> Vec<u64> {
        let mut gens: Vec<u64> = list_root(&self.root)
            .into_iter()
            .filter_map(|(kind, number, _)| match kind {
                EntryKind::Committed => Some(number),
                EntryKind::Torn | EntryKind::Unknown => None,
            })
            .collect();
        gens.sort_unstable();
        gens
    }

    /// Read the current generation back from disk without a buffer pool —
    /// the pass [`TieredStore::open`] recovers with: every partition's blob
    /// and row ids read by position, validated and decoded, one partition
    /// resident at a time. The full table scan Table I divides a rewrite
    /// by, on the files the serving engine writes.
    pub fn full_scan(&self) -> Result<FullScan> {
        let generation = self.current();
        let mut scan = FullScan::default();
        read_generation(generation.dir(), &self.schema, |part, bytes, _| {
            scan.partitions += 1;
            scan.rows += part.rows().len() as u64;
            scan.bytes += bytes;
        })?;
        Ok(scan)
    }

    /// Reopen a store after a restart: recover the newest *complete*
    /// generation (commit point = the rename, so every `gen-N/` should
    /// decode; one that does not is treated as torn), remove torn
    /// `gen-N.tmp/` rewrites and stale older generations, and rebuild the
    /// serving snapshot from the recovered files.
    ///
    /// Fails with [`StorageError::Corrupt`] if no complete generation
    /// exists under `root`.
    ///
    /// Entries that are neither `gen-N/` nor `gen-N.tmp/` — a sibling
    /// tenant's subdirectory, a WAL, a file from a future format — are
    /// *skipped with a warning*, never deleted and never treated as
    /// corruption; they land in [`RecoveryReport::skipped`].
    pub fn open(
        root: &Path,
        schema: &Arc<Schema>,
    ) -> Result<(Self, TableSnapshot, RecoveryReport)> {
        Self::open_for_table(root, 0, schema)
    }

    /// [`TieredStore::open`] with an explicit table (tenant) id stamped
    /// into the recovered (and every future) generation.
    pub fn open_for_table(
        root: &Path,
        table: u32,
        schema: &Arc<Schema>,
    ) -> Result<(Self, TableSnapshot, RecoveryReport)> {
        let mut report = RecoveryReport::default();
        let mut committed: Vec<(u64, PathBuf)> = Vec::new();
        for (kind, number, path) in list_root(root) {
            match kind {
                EntryKind::Torn => {
                    fs::remove_dir_all(&path)?;
                    report.torn_removed.push(path);
                }
                EntryKind::Committed => committed.push((number, path)),
                EntryKind::Unknown => {
                    eprintln!(
                        "oreo-storage: skipping unknown entry {} during recovery",
                        path.display()
                    );
                    report.skipped.push(path);
                }
            }
        }
        committed.sort_unstable_by_key(|&(n, _)| std::cmp::Reverse(n));

        let mut recovered = None;
        for (number, path) in committed {
            if recovered.is_some() {
                // Older than the recovered generation: superseded, clean up.
                fs::remove_dir_all(&path)?;
                report.stale_removed.push(path);
                continue;
            }
            match load_generation(&path, number, table, schema) {
                Ok(loaded) => recovered = Some(loaded),
                Err(_) => {
                    // A committed directory that fails to decode (e.g. a
                    // half-deleted GC victim): treat as torn and fall back.
                    fs::remove_dir_all(&path)?;
                    report.torn_removed.push(path);
                }
            }
        }
        let (generation, snapshot, manifest) =
            recovered.ok_or_else(|| StorageError::Corrupt("no complete generation".into()))?;
        report.generation = generation.number;
        report.folded = manifest.folded;
        report.next_row = manifest.next_row;
        let store = Self {
            root: root.to_owned(),
            schema: Arc::clone(schema),
            table,
            current: Mutex::new(generation),
        };
        Ok((store, snapshot, report))
    }
}

enum EntryKind {
    Committed,
    Torn,
    /// A directory that is not ours (a tenant subdir, a future format) or a
    /// `gen-*`-named entry that does not parse. Recovery skips these with a
    /// warning instead of treating the root as corrupt; plain files that
    /// don't claim the `gen-` prefix (a WAL, a lock file) stay silently
    /// ignored — they belong to other subsystems sharing the root.
    Unknown,
}

/// Classify the entries of a store root into committed `gen-N` directories,
/// torn `gen-N.tmp` leftovers, and unknown entries.
fn list_root(root: &Path) -> Vec<(EntryKind, u64, PathBuf)> {
    let Ok(entries) = fs::read_dir(root) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        let is_dir = path.is_dir();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            out.push((EntryKind::Unknown, 0, path));
            continue;
        };
        if let Some(num) = name.strip_prefix("gen-") {
            if let Some(num) = num.strip_suffix(".tmp") {
                if is_dir && num.parse::<u64>().is_ok() {
                    out.push((EntryKind::Torn, 0, path));
                } else {
                    out.push((EntryKind::Unknown, 0, path));
                }
            } else if is_dir {
                if let Ok(n) = num.parse::<u64>() {
                    out.push((EntryKind::Committed, n, path));
                } else {
                    out.push((EntryKind::Unknown, 0, path));
                }
            } else {
                out.push((EntryKind::Unknown, 0, path));
            }
        } else if is_dir {
            out.push((EntryKind::Unknown, 0, path));
        }
    }
    out
}

fn gen_dir(root: &Path, number: u64) -> PathBuf {
    root.join(format!("gen-{number:06}"))
}

/// Best-effort removal of every stale `gen-*.tmp` entry under `root`
/// (directories *or* stray files): leftovers of publishes that failed
/// partway. `open`/`create` clean these on restart; `publish` calls this
/// on failure so a long-running engine never accumulates them.
fn sweep_tmp_entries(root: &Path) {
    let Ok(entries) = fs::read_dir(root) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let is_tmp = name
            .strip_prefix("gen-")
            .and_then(|n| n.strip_suffix(".tmp"))
            .is_some_and(|n| n.parse::<u64>().is_ok());
        if !is_tmp {
            continue;
        }
        if path.is_dir() {
            let _ = fs::remove_dir_all(&path);
        } else {
            let _ = fs::remove_file(&path);
        }
    }
}

/// Where one partition sits in a segment: its blob, then its row-id block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SegmentEntry {
    data_off: u64,
    data_len: u64,
    rows_off: u64,
    rows_len: u64,
}

/// Write `snapshot` under `root` as generation `number`: segment and
/// manifest go to `gen-N.tmp/` first (both written, both fsynced, then the
/// directory fsynced — everything durable before the rename), and the
/// commit is one atomic rename to `gen-N/` followed by an fsync of `root`.
fn persist_generation(
    root: &Path,
    table: u32,
    snapshot: &mut TableSnapshot,
    number: u64,
    folded: u64,
    next_row: u64,
) -> Result<(Arc<Generation>, PublishReceipt)> {
    let started = Instant::now();
    let tmp = root.join(format!("gen-{number:06}.tmp"));
    if tmp.exists() {
        fs::remove_dir_all(&tmp)?;
    }
    fs::create_dir_all(&tmp)?;

    // Readable as well as writable: the handle that wrote the segment is
    // the one the generation serves reads from (the rename below moves the
    // directory, not the open file).
    let mut segment = fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create_new(true)
        .open(tmp.join(SEGMENT))?;
    let mut cursor = 0u64;
    let mut entries = Vec::with_capacity(snapshot.num_partitions());
    let mut file_info: Vec<(u64, Arc<[ColumnExtent]>)> =
        Vec::with_capacity(snapshot.num_partitions());
    for part in snapshot.partitions() {
        // The snapshot's pruning metadata goes into the blob's footer, so a
        // restart recovers it (and the page index) without decoding data.
        let (encoded, footer) = encode_partition_with_meta(&part.data, &part.meta);
        let rows = encode_rows(part.rows());
        segment.write_all(&encoded)?;
        segment.write_all(&rows)?;
        let (data_len, rows_len) = (encoded.len() as u64, rows.len() as u64);
        entries.push(SegmentEntry {
            data_off: cursor,
            data_len,
            rows_off: cursor + data_len,
            rows_len,
        });
        cursor += data_len + rows_len;
        file_info.push((data_len, Arc::from(footer.columns)));
    }
    let trailer = encode_trailer(&entries, cursor);
    segment.write_all(&trailer)?;
    segment.sync_all()?;
    let manifest = manifest_text(snapshot, number, folded, next_row);
    let mut manifest_file = fs::File::create(tmp.join(MANIFEST))?;
    manifest_file.write_all(manifest.as_bytes())?;
    manifest_file.sync_all()?;
    sync_dir(&tmp)?;
    let bytes_written = cursor + trailer.len() as u64 + manifest.len() as u64;

    let dir = gen_dir(root, number);
    // A committed directory can already sit at this number if an earlier
    // publish renamed successfully but failed afterwards (e.g. on the root
    // fsync) — the store never advanced, so the directory is an orphan no
    // live Generation points to. Renaming onto a non-empty directory fails
    // (ENOTEMPTY), which would wedge every later publish; clear it first.
    if dir.exists() {
        fs::remove_dir_all(&dir)?;
    }
    fs::rename(&tmp, &dir)?;
    sync_dir(root)?;

    let generation = Arc::new(Generation {
        number,
        table,
        dir,
        bytes: bytes_written,
        retired: AtomicBool::new(false),
        segment,
        entries: entries.into(),
    });
    snapshot.attach_generation(Arc::clone(&generation), file_info);
    let receipt = PublishReceipt {
        generation: number,
        bytes_written,
        files: 2,
        wall: started.elapsed(),
    };
    Ok((generation, receipt))
}

/// The segment's index and trailer for `entries`, the index starting at
/// `index_off` (see the [module docs](self) for the layout).
fn encode_trailer(entries: &[SegmentEntry], index_off: u64) -> BytesMut {
    let mut buf = BytesMut::with_capacity(8 + entries.len() * INDEX_ENTRY as usize + 24);
    buf.put_u64_le(entries.len() as u64);
    for e in entries {
        buf.put_u64_le(e.data_off);
        buf.put_u64_le(e.data_len);
        buf.put_u64_le(e.rows_off);
        buf.put_u64_le(e.rows_len);
    }
    let sum = checksum(&buf);
    buf.put_u64_le(sum);
    buf.put_u64_le(index_off);
    buf.put_slice(SEGMENT_MAGIC);
    buf
}

/// `len` bytes at `offset` of `file`, in a buffer whose allocation may fail
/// (`len` comes from disk) without taking the process down.
fn read_exact_vec(file: &fs::File, offset: u64, len: u64) -> Result<Vec<u8>> {
    let too_big = || StorageError::Corrupt(format!("cannot allocate a {len}-byte read"));
    let len = usize::try_from(len).map_err(|_| too_big())?;
    let mut buf = Vec::new();
    buf.try_reserve_exact(len).map_err(|_| too_big())?;
    buf.resize(len, 0);
    file.read_exact_at(&mut buf, offset)?;
    Ok(buf)
}

/// Read and validate the index of a segment `file_len` bytes long that
/// must hold `partitions` partitions. Nothing is sized by a stored number
/// before the file's own length has borne it out: the index must be
/// exactly `partitions` entries long and end at the trailer, and the
/// entries must tile `0..index offset` in order without gap or overlap.
fn read_index(file: &fs::File, file_len: u64, partitions: usize) -> Result<Vec<SegmentEntry>> {
    let corrupt = |what: &str| StorageError::Corrupt(format!("segment: {what}"));
    let body_len = file_len
        .checked_sub(SEGMENT_TAIL)
        .ok_or_else(|| corrupt("shorter than its trailer"))?;
    let mut tail = [0u8; SEGMENT_TAIL as usize];
    file.read_exact_at(&mut tail, body_len)?;
    if &tail[16..] != SEGMENT_MAGIC {
        return Err(corrupt("bad trailer magic"));
    }
    let word = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("8-byte field"));
    let (stored_sum, index_off) = (word(&tail[..8]), word(&tail[8..16]));
    let index_len = (partitions as u64)
        .checked_mul(INDEX_ENTRY)
        .and_then(|n| n.checked_add(8));
    if index_off > body_len || Some(body_len - index_off) != index_len {
        return Err(corrupt("index is not the size the manifest implies"));
    }
    let index = read_exact_vec(file, index_off, body_len - index_off)?;
    if checksum(&index) != stored_sum {
        return Err(corrupt("index checksum"));
    }
    let mut buf = &index[..];
    if buf.get_u64_le() != partitions as u64 {
        return Err(corrupt("partition count disagrees with the manifest"));
    }
    let mut entries = Vec::new();
    entries
        .try_reserve_exact(partitions)
        .map_err(|_| corrupt("cannot allocate the index"))?;
    // Where `entry` ends, if it starts at `cursor` and stays below the index.
    let end_of = |entry: &SegmentEntry, cursor: u64| {
        let rows_off = cursor.checked_add(entry.data_len)?;
        let end = rows_off.checked_add(entry.rows_len)?;
        (entry.data_off == cursor && entry.rows_off == rows_off && end <= index_off).then_some(end)
    };
    let mut cursor = 0u64;
    for _ in 0..partitions {
        let entry = SegmentEntry {
            data_off: buf.get_u64_le(),
            data_len: buf.get_u64_le(),
            rows_off: buf.get_u64_le(),
            rows_len: buf.get_u64_le(),
        };
        cursor =
            end_of(&entry, cursor).ok_or_else(|| corrupt("index entries do not tile the file"))?;
        entries.push(entry);
    }
    if cursor != index_off {
        return Err(corrupt("index entries do not tile the file"));
    }
    Ok(entries)
}

/// One pass over the committed generation directory `dir`, without a
/// buffer pool: the manifest, the segment's index, then each partition's
/// blob and row ids with one positioned read apiece — never the whole
/// segment in one buffer — handed to `each` with the blob's length. Each
/// blob is validated and decoded once: data, pruning metadata and page
/// index all come from that pass. Returns the manifest, the open segment
/// and its index.
fn read_generation(
    dir: &Path,
    schema: &Arc<Schema>,
    mut each: impl FnMut(SnapshotPartition, u64, Arc<[ColumnExtent]>),
) -> Result<(Manifest, fs::File, Vec<SegmentEntry>)> {
    let manifest = read_manifest(&dir.join(MANIFEST))?;
    let segment = fs::File::open(dir.join(SEGMENT))?;
    let entries = read_index(&segment, segment.metadata()?.len(), manifest.partitions)?;
    let mut total_rows = 0u64;
    for (i, entry) in entries.iter().enumerate() {
        let blob = read_exact_vec(&segment, entry.data_off, entry.data_len)?;
        let (data, footer) = decode_partition_with_footer(schema, &blob)?;
        let rows = decode_rows(&read_exact_vec(&segment, entry.rows_off, entry.rows_len)?)?;
        if rows.len() != data.num_rows() {
            return Err(StorageError::Corrupt(format!(
                "partition {i}: {} row ids for {} rows",
                rows.len(),
                data.num_rows()
            )));
        }
        total_rows += rows.len() as u64;
        // blob size and page index are stamped by attach_generation
        let part = SnapshotPartition::new(rows.into(), Arc::new(data), footer.meta);
        each(part, entry.data_len, Arc::from(footer.columns));
    }
    if total_rows != manifest.rows {
        return Err(StorageError::Corrupt(format!(
            "generation holds {total_rows} rows, manifest says {}",
            manifest.rows
        )));
    }
    Ok((manifest, segment, entries))
}

/// Rebuild the serving snapshot from the committed generation directory
/// `dir` (generation `number`) and pin it.
fn load_generation(
    dir: &Path,
    number: u64,
    table: u32,
    schema: &Arc<Schema>,
) -> Result<(Arc<Generation>, TableSnapshot, Manifest)> {
    let mut partitions = Vec::new();
    let mut files = Vec::new();
    let (manifest, segment, entries) = read_generation(dir, schema, |part, bytes, extents| {
        partitions.push(part);
        files.push((bytes, extents));
    })?;
    let mut snapshot =
        TableSnapshot::from_parts(manifest.layout, manifest.name.clone(), partitions);
    let generation = Arc::new(Generation {
        number,
        table,
        dir: dir.to_owned(),
        bytes: dir_bytes(dir)?,
        retired: AtomicBool::new(false),
        segment,
        entries: entries.into(),
    });
    snapshot.attach_generation(Arc::clone(&generation), files);
    Ok((generation, snapshot, manifest))
}

/// Encode the global row ids of one partition:
/// `"OREOROWS" | count u64 LE | u32 block | checksum u64 LE`.
fn encode_rows(rows: &[u32]) -> BytesMut {
    let mut buf = BytesMut::new();
    buf.put_slice(ROWS_MAGIC);
    buf.put_u64_le(rows.len() as u64);
    encode_u32_block(&mut buf, rows);
    let sum = checksum(&buf);
    buf.put_u64_le(sum);
    buf
}

/// Decode a row-id block holding [`encode_rows`] output. A partition's ids
/// are strictly ascending when written ([`SnapshotPartition::new`]) and
/// every scan relies on it, so a block that decodes to anything else is
/// damage like any other, however truthful its checksum.
fn decode_rows(bytes: &[u8]) -> Result<Vec<u32>> {
    if bytes.len() < ROWS_MAGIC.len() + 8 + 8 {
        return Err(StorageError::Corrupt("row-id block too short".into()));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
    if checksum(body) != stored {
        return Err(StorageError::Corrupt("row-id block checksum".into()));
    }
    let mut buf = body;
    let mut magic = [0u8; 8];
    buf.copy_to_slice(&mut magic);
    if &magic != ROWS_MAGIC {
        return Err(StorageError::Corrupt("row-id block magic".into()));
    }
    let count = usize::try_from(buf.get_u64_le())
        .map_err(|_| StorageError::Corrupt("row-id block count exceeds usize".into()))?;
    let rows = decode_u32_block(&mut buf, count)?;
    if !strictly_ascending(&rows) {
        return Err(StorageError::Corrupt(
            "row-id block not strictly ascending".into(),
        ));
    }
    Ok(rows)
}

fn manifest_text(snapshot: &TableSnapshot, number: u64, folded: u64, next_row: u64) -> String {
    let name = snapshot.name().replace(['\n', '\r'], " ");
    format!(
        "{MANIFEST_MAGIC}\ngeneration={number}\nlayout={}\nname={name}\npartitions={}\nrows={}\nfolded={folded}\nnext_row={next_row}\n",
        snapshot.layout(),
        snapshot.num_partitions(),
        snapshot.total_rows(),
    )
}

/// A parsed `MANIFEST`: the keys [`manifest_text`] emits that recovery
/// uses (`folded` / `next_row` as in [`RecoveryReport`]).
struct Manifest {
    layout: u64,
    name: String,
    partitions: usize,
    rows: u64,
    folded: u64,
    next_row: u64,
}

/// Parse a manifest. Every key [`manifest_text`] emits is required and
/// every number must parse: a damaged line is [`StorageError::Corrupt`], so
/// recovery treats the generation as torn instead of, say, resuming from
/// fold watermark 0 and replaying WAL batches the base already holds.
fn read_manifest(path: &Path) -> Result<Manifest> {
    let text = fs::read_to_string(path)?;
    if text.lines().next() != Some(MANIFEST_MAGIC) {
        return Err(StorageError::Corrupt("bad manifest magic".into()));
    }
    let value = |key: &str| {
        text.lines()
            .find_map(|line| line.strip_prefix(key)?.strip_prefix('='))
            .ok_or_else(|| StorageError::Corrupt(format!("manifest lacks {key}")))
    };
    let number = |key: &str| {
        value(key)?
            .parse::<u64>()
            .map_err(|_| StorageError::Corrupt(format!("manifest {key} is not a number")))
    };
    // Required like every emitted key; the directory name numbers the generation.
    number("generation")?;
    Ok(Manifest {
        layout: number("layout")?,
        name: value("name")?.to_string(),
        partitions: number("partitions")? as usize,
        rows: number("rows")?,
        folded: number("folded")?,
        next_row: number("next_row")?,
    })
}

pub(crate) fn sync_dir(dir: &Path) -> Result<()> {
    // Durability of the directory entries themselves (file creation and the
    // commit rename). Some platforms cannot fsync a directory at all —
    // that incapacity is tolerated (the data files are synced
    // individually) — but a *real* I/O failure must surface: reporting a
    // commit that never reached disk would break the "rename is the
    // durability point" contract.
    const EINVAL: i32 = 22; // what fsync(2) reports for unsyncable files
    let file = match fs::File::open(dir) {
        Ok(f) => f,
        // Windows cannot open a directory without backup semantics (std
        // reports PermissionDenied) — platform incapacity, not a failed
        // sync; the data files were synced individually.
        Err(e) if e.kind() == std::io::ErrorKind::PermissionDenied => return Ok(()),
        Err(e) => return Err(e.into()),
    };
    match file.sync_all() {
        Ok(()) => Ok(()),
        Err(e)
            if e.kind() == std::io::ErrorKind::Unsupported || e.raw_os_error() == Some(EINVAL) =>
        {
            Ok(())
        }
        Err(e) => Err(e.into()),
    }
}

fn dir_bytes(dir: &Path) -> Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)?.flatten() {
        total += entry.metadata()?.len();
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Table, TableBuilder};
    use oreo_query::{Atom, ColumnType, Predicate, Scalar};

    fn tmproot(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "oreo-tiered-{tag}-{}-{}",
            std::process::id(),
            rand::random::<u32>()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn table(n: i64) -> Table {
        let s = Arc::new(Schema::from_pairs([
            ("v", ColumnType::Int),
            ("tag", ColumnType::Str),
        ]));
        let mut b = TableBuilder::new(Arc::clone(&s));
        for i in 0..n {
            b.push_row(&[
                Scalar::Int(i),
                Scalar::from(["a", "b", "c", "d"][(i % 4) as usize]),
            ]);
        }
        b.finish()
    }

    fn between(lo: i64, hi: i64) -> Predicate {
        Predicate::new(vec![Atom::Between {
            col: 0,
            low: Scalar::Int(lo),
            high: Scalar::Int(hi),
        }])
    }

    fn snap(t: &Table, k: usize, layout: u64) -> TableSnapshot {
        let n = t.num_rows() as u32;
        let per = n.div_ceil(k as u32).max(1);
        let assignment: Vec<u32> = (0..n).map(|r| (r / per).min(k as u32 - 1)).collect();
        TableSnapshot::build(t, &assignment, k, layout, format!("range{k}"))
    }

    #[test]
    fn create_commits_generation_one_with_disk_byte_accounting() {
        let t = table(400);
        let root = tmproot("create");
        let mut s = snap(&t, 4, 0);
        let mem_bytes = s.total_bytes();
        let (store, receipt) = TieredStore::create(&root, &mut s).unwrap();
        assert_eq!(receipt.generation, 1);
        assert_eq!(receipt.files, 2, "segment + manifest, whatever k is");
        assert!(root.join("gen-000001").join(MANIFEST).exists());
        assert_eq!(store.generations_on_disk(), vec![1]);
        // byte accounting switched from memory to encoded-file sizes
        assert_ne!(s.total_bytes(), mem_bytes);
        assert!(s.total_bytes() > 0 && s.total_bytes() < receipt.bytes_written);
        let scan = s.scan(&between(0, 99));
        assert!(scan.bytes_scanned > 0);
        drop(store);
        drop(s);
        // the current generation was never retired: it must survive
        assert!(root.join("gen-000001").exists(), "durable current gen");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn publish_retires_old_generation_after_last_unpin() {
        let t = table(300);
        let root = tmproot("gc");
        let mut s1 = snap(&t, 2, 0);
        let (store, _) = TieredStore::create(&root, &mut s1).unwrap();
        let pinned = s1.clone(); // a reader still scanning gen 1

        let mut s2 = snap(&t, 3, 1);
        let receipt = store.publish(&mut s2).unwrap();
        assert_eq!(receipt.generation, 2);
        assert_eq!(store.current().number(), 2);

        // gen 1 is retired but still pinned by two snapshots
        drop(s1);
        assert!(root.join("gen-000001").exists(), "still pinned");
        drop(pinned);
        assert!(!root.join("gen-000001").exists(), "GC after last unpin");
        assert_eq!(store.generations_on_disk(), vec![2]);
        drop(store);
        drop(s2);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reopen_recovers_latest_complete_generation() {
        let t = table(500);
        let schema = Arc::clone(t.schema());
        let root = tmproot("reopen");
        let mut s1 = snap(&t, 4, 7);
        let (store, _) = TieredStore::create(&root, &mut s1).unwrap();
        drop(store);
        drop(s1); // process "exits" — gen 1 never retired

        let decodes = crate::format::decodes_on_this_thread();
        let (store, recovered, report) = TieredStore::open(&root, &schema).unwrap();
        assert_eq!(
            crate::format::decodes_on_this_thread() - decodes,
            4,
            "each partition file is decoded exactly once"
        );
        assert_eq!(report.generation, 1);
        assert!(report.torn_removed.is_empty());
        assert!(report.stale_removed.is_empty());
        assert_eq!(recovered.layout(), 7);
        assert_eq!(recovered.name(), "range4");
        assert_eq!(recovered.num_partitions(), 4);
        assert_eq!(recovered.total_rows(), 500);
        // global row ids survived the round trip
        assert_eq!(recovered.row_cover(), (0..500u32).collect::<Vec<_>>());
        // scans on the recovered snapshot match a direct filter
        let pred = between(120, 130);
        let expected: Vec<u32> = (0..500u32)
            .filter(|&r| t.row_matches(r as usize, &pred))
            .collect();
        let scan = recovered.scan(&pred);
        assert_eq!(scan.matches, expected);
        assert!(scan.partitions_read < 4, "recovered metadata still prunes");
        assert!(scan.bytes_scanned > 0);
        drop(store);
        drop(recovered);
        fs::remove_dir_all(&root).unwrap();
    }

    /// The satellite's crash test: die between fsync and rename (a fully
    /// written `gen-2.tmp/` that never committed), reopen, and the old
    /// generation serves while the torn directory is cleaned up.
    #[test]
    fn torn_publish_is_cleaned_up_and_old_generation_serves() {
        let t = table(400);
        let schema = Arc::clone(t.schema());
        let root = tmproot("torn");
        let mut s1 = snap(&t, 2, 3);
        let (store, _) = TieredStore::create(&root, &mut s1).unwrap();
        drop(store);
        drop(s1);

        // Simulate the kill: replay persist_generation up to (not including)
        // the rename by copying gen 1's two files into gen-000002.tmp.
        let torn = root.join("gen-000002.tmp");
        fs::create_dir_all(&torn).unwrap();
        for file in [SEGMENT, MANIFEST] {
            fs::copy(root.join("gen-000001").join(file), torn.join(file)).unwrap();
        }

        let (store, recovered, report) = TieredStore::open(&root, &schema).unwrap();
        assert_eq!(report.generation, 1, "old generation serves");
        assert_eq!(report.torn_removed, vec![torn.clone()]);
        assert!(!torn.exists(), "torn rewrite cleaned up");
        assert_eq!(recovered.row_cover(), (0..400u32).collect::<Vec<_>>());
        drop(store);
        drop(recovered);
        fs::remove_dir_all(&root).unwrap();
    }

    /// The `(blob, row-id block)` byte strings of the segment in `dir`, in
    /// partition order.
    fn segment_parts(dir: &Path, k: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        let bytes = fs::read(dir.join(SEGMENT)).unwrap();
        let file = fs::File::open(dir.join(SEGMENT)).unwrap();
        let cut = |off: u64, len: u64| bytes[off as usize..(off + len) as usize].to_vec();
        read_index(&file, bytes.len() as u64, k)
            .unwrap()
            .iter()
            .map(|e| (cut(e.data_off, e.data_len), cut(e.rows_off, e.rows_len)))
            .collect()
    }

    /// Write `parts` back as the segment of `dir`, under an index that
    /// describes them truthfully — so whatever was done to a part is the
    /// only thing wrong with the file.
    fn write_segment(dir: &Path, parts: &[(Vec<u8>, Vec<u8>)]) {
        let mut bytes = Vec::new();
        let mut entries = Vec::new();
        for (data, rows) in parts {
            let data_off = bytes.len() as u64;
            bytes.extend_from_slice(data);
            entries.push(SegmentEntry {
                data_off,
                data_len: data.len() as u64,
                rows_off: bytes.len() as u64,
                rows_len: rows.len() as u64,
            });
            bytes.extend_from_slice(rows);
        }
        let index_off = bytes.len() as u64;
        bytes.extend_from_slice(&encode_trailer(&entries, index_off));
        fs::write(dir.join(SEGMENT), bytes).unwrap();
    }

    /// A committed directory whose contents are damaged — a partition blob
    /// with a flipped byte, cut short, without its footer or of the previous
    /// format version, row ids under the previous checksum or out of order
    /// under a truthful one, an index that holds fewer partitions than the
    /// manifest says, a manifest missing a key or holding an unparsable
    /// number — is treated as torn: recovery
    /// falls back to the next older complete generation rather than
    /// serving it (or resuming ingest from a defaulted watermark). The
    /// blob damages sit inside an otherwise truthful segment, so it is the
    /// blob's own parser that must refuse them.
    #[test]
    fn corrupt_committed_generation_falls_back() {
        let t = table(300);
        let schema = Arc::clone(t.schema());
        let root = tmproot("corrupt");
        let mut s1 = snap(&t, 2, 0);
        let (store, _) = TieredStore::create(&root, &mut s1).unwrap();
        drop(store);

        // gen 1 never folded: its manifest says folded=0, next_row=300
        let rewrite_manifest = |bad: &Path, from: &str, to: &str| {
            let text = fs::read_to_string(bad.join(MANIFEST)).unwrap();
            assert!(text.contains(from), "the damage must land");
            fs::write(bad.join(MANIFEST), text.replace(from, to)).unwrap();
        };
        type Parts = Vec<(Vec<u8>, Vec<u8>)>;
        let rewrite_segment = |bad: &Path, damage: &dyn Fn(&mut Parts)| {
            let mut parts = segment_parts(bad, 2);
            damage(&mut parts);
            write_segment(bad, &parts);
        };
        type Damage<'a> = (&'a str, &'a dyn Fn(&Path));
        let damages: [Damage; 10] = [
            ("flipped byte", &|bad| {
                rewrite_segment(bad, &|parts| {
                    let mid = parts[0].0.len() / 2;
                    parts[0].0[mid] ^= 0xff;
                })
            }),
            ("truncated partition blob", &|bad| {
                rewrite_segment(bad, &|parts| {
                    let len = parts[1].0.len();
                    parts[1].0.truncate(len / 2);
                })
            }),
            // minus the tail: footer checksum + footer offset + footer magic
            ("footerless partition blob", &|bad| {
                rewrite_segment(bad, &|parts| {
                    let len = parts[1].0.len();
                    parts[1].0.truncate(len - 24);
                })
            }),
            // what the previous format wrote: version 2 in the header...
            ("version-2 partition blob", &|bad| {
                rewrite_segment(bad, &|parts| {
                    assert_eq!(parts[0].0[8..10], 3u16.to_le_bytes());
                    parts[0].0[8..10].copy_from_slice(&2u16.to_le_bytes());
                })
            }),
            // ...and byte-serial FNV-1a where the word-wise sum now sits
            ("row ids carrying the old sum", &|bad| {
                rewrite_segment(bad, &|parts| {
                    let rows = &mut parts[1].1;
                    let body = rows.len() - 8;
                    let fnv1a = rows[..body].iter().fold(0xcbf29ce484222325u64, |h, &b| {
                        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
                    });
                    rows[body..].copy_from_slice(&fnv1a.to_le_bytes());
                })
            }),
            // the right ids, two of them swapped, checksummed again: every
            // scan would hand back that partition's matches out of order
            ("row ids out of order", &|bad| {
                rewrite_segment(bad, &|parts| {
                    let mut ids = decode_rows(&parts[0].1).unwrap();
                    ids.swap(10, 11);
                    parts[0].1 = encode_rows(&ids).to_vec();
                })
            }),
            // a well-formed segment of one partition under a manifest of two
            ("index whose k disagrees with the manifest", &|bad| {
                rewrite_segment(bad, &|parts| {
                    parts.pop();
                })
            }),
            ("manifest without folded", &|bad| {
                rewrite_manifest(bad, "folded=0\n", "")
            }),
            ("manifest without next_row", &|bad| {
                rewrite_manifest(bad, "next_row=300\n", "")
            }),
            ("manifest with folded=x", &|bad| {
                rewrite_manifest(bad, "folded=0\n", "folded=x\n")
            }),
        ];
        for (what, damage) in damages {
            // Fabricate a "newer" generation, then damage it.
            let bad = root.join("gen-000002");
            fs::create_dir_all(&bad).unwrap();
            for file in [SEGMENT, MANIFEST] {
                fs::copy(root.join("gen-000001").join(file), bad.join(file)).unwrap();
            }
            // the fabricated copy is sound until damaged
            write_segment(&bad, &segment_parts(&bad, 2));
            assert_eq!(
                fs::read(bad.join(SEGMENT)).unwrap(),
                fs::read(root.join("gen-000001").join(SEGMENT)).unwrap(),
                "rewriting a segment undamaged reproduces it"
            );
            damage(&bad);

            let (_store, recovered, report) = TieredStore::open(&root, &schema).unwrap();
            assert_eq!(report.generation, 1, "{what}");
            assert_eq!(report.torn_removed, vec![bad.clone()], "{what}");
            assert!(!bad.exists(), "{what}");
            assert_eq!(recovered.total_rows(), 300, "{what}");
            assert_eq!((report.folded, report.next_row), (0, 300), "{what}");
        }
        // A directory in the layout before this one — a file pair per
        // partition, no segment — is one more damaged directory.
        let old = root.join("gen-000002");
        fs::create_dir_all(&old).unwrap();
        fs::copy(root.join("gen-000001").join(MANIFEST), old.join(MANIFEST)).unwrap();
        for (i, (data, rows)) in segment_parts(&root.join("gen-000001"), 2)
            .iter()
            .enumerate()
        {
            fs::write(old.join(format!("part-{i:05}.oreo")), data).unwrap();
            fs::write(old.join(format!("part-{i:05}.rows")), rows).unwrap();
        }
        let (_store, _recovered, report) = TieredStore::open(&root, &schema).unwrap();
        assert_eq!(report.generation, 1, "old-layout directory");
        assert_eq!(report.torn_removed, vec![old], "old-layout directory");
        drop(s1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reopen_removes_stale_older_generations() {
        let t = table(200);
        let schema = Arc::clone(t.schema());
        let root = tmproot("stale");
        let mut s1 = snap(&t, 2, 0);
        let (store, _) = TieredStore::create(&root, &mut s1).unwrap();
        let mut s2 = snap(&t, 4, 1);
        store.publish(&mut s2).unwrap();
        // Simulate dying while a reader still pinned gen 1: leak the pin so
        // the retired directory is never deleted.
        std::mem::forget(s1);
        drop(store);
        drop(s2);
        assert!(root.join("gen-000001").exists());

        let (store, recovered, report) = TieredStore::open(&root, &schema).unwrap();
        assert_eq!(report.generation, 2);
        assert_eq!(report.stale_removed, vec![root.join("gen-000001")]);
        assert!(!root.join("gen-000001").exists());
        assert_eq!(recovered.num_partitions(), 4);
        drop(store);
        drop(recovered);
        fs::remove_dir_all(&root).unwrap();
    }

    /// `create` on a root left behind by a previous process must not
    /// collide with its generations: the sequence continues past the
    /// survivor and the superseded directories are cleaned up.
    #[test]
    fn create_on_existing_root_continues_the_sequence() {
        let t = table(200);
        let root = tmproot("recreate");
        let mut s1 = snap(&t, 2, 0);
        let (store, r1) = TieredStore::create(&root, &mut s1).unwrap();
        assert_eq!(r1.generation, 1);
        drop(store);
        drop(s1); // process "exits"; gen-000001 survives

        // also leave a torn rewrite behind
        fs::create_dir_all(root.join("gen-000002.tmp")).unwrap();

        let mut s2 = snap(&t, 4, 1);
        let (store, r2) = TieredStore::create(&root, &mut s2).unwrap();
        assert_eq!(r2.generation, 2, "sequence continues past the survivor");
        assert!(!root.join("gen-000001").exists(), "superseded gen removed");
        assert!(!root.join("gen-000002.tmp").exists(), "torn dir removed");
        assert_eq!(store.generations_on_disk(), vec![2]);
        drop(store);
        drop(s2);
        fs::remove_dir_all(&root).unwrap();
    }

    /// The tmp-sweep satellite: a publish that fails partway must not
    /// leave `gen-*.tmp` leftovers behind — neither its own nor older
    /// strays — and the store must keep serving and accept a retry.
    #[test]
    fn failed_publish_sweeps_stale_tmp_entries() {
        let t = table(300);
        let root = tmproot("sweep");
        let mut s1 = snap(&t, 2, 0);
        let (store, _) = TieredStore::create(&root, &mut s1).unwrap();

        // a stray tmp dir from some earlier crashed publish
        fs::create_dir_all(root.join("gen-000099.tmp")).unwrap();
        fs::write(root.join("gen-000099.tmp").join(SEGMENT), b"x").unwrap();
        // wedge the next publish: its tmp path exists as a *file*, so the
        // pre-write cleanup (remove_dir_all) fails partway into persist
        fs::write(root.join("gen-000002.tmp"), b"wedge").unwrap();

        let mut s2 = snap(&t, 3, 1);
        assert!(store.publish(&mut s2).is_err(), "wedged publish must fail");
        let leftovers: Vec<String> = fs::read_dir(&root)
            .unwrap()
            .flatten()
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp entries leaked: {leftovers:?}");
        assert_eq!(store.current().number(), 1, "old generation still serves");

        // with the wedge swept, the retry commits
        let mut s3 = snap(&t, 3, 1);
        let receipt = store.publish(&mut s3).unwrap();
        assert_eq!(receipt.generation, 2);
        drop(store);
        drop(s1);
        drop(s2);
        drop(s3);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn empty_partitions_are_valid() {
        use crate::bufpool::{BufferPool, BufferPoolConfig};
        let t = table(100);
        let schema = Arc::clone(t.schema());
        let root = tmproot("empty-parts");
        // everything to BID 0; BIDs 1..4 empty
        let mut s = TableSnapshot::build(&t, &[0; 100], 4, 0, "one-full");
        let (store, _) = TieredStore::create(&root, &mut s).unwrap();
        let scan = store.full_scan().unwrap();
        assert_eq!((scan.partitions, scan.rows), (4, 100));
        drop(store);
        drop(s);

        let (store, recovered, _) = TieredStore::open(&root, &schema).unwrap();
        assert_eq!(recovered.num_partitions(), 4);
        let pool = BufferPool::new(BufferPoolConfig::default());
        let pooled = recovered.scan_pooled(&between(0, 49), &pool).unwrap();
        assert_eq!(pooled.partitions_read, 1);
        assert_eq!(pooled.matches, (0..50u32).collect::<Vec<_>>());
        drop(store);
        drop(recovered);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn open_on_empty_root_is_an_error() {
        let root = tmproot("empty");
        fs::create_dir_all(&root).unwrap();
        let schema = Arc::new(Schema::from_pairs([("v", ColumnType::Int)]));
        let err = TieredStore::open(&root, &schema).unwrap_err();
        assert!(err.to_string().contains("no complete generation"));
        fs::remove_dir_all(&root).unwrap();
    }

    /// Fold metadata (WAL watermark + row-id high-water mark) rides the
    /// manifest and survives recovery.
    #[test]
    fn fold_watermarks_round_trip_through_the_manifest() {
        let t = table(200);
        let schema = Arc::clone(t.schema());
        let root = tmproot("fold");
        let mut s1 = snap(&t, 2, 0);
        let (store, _) = TieredStore::create(&root, &mut s1).unwrap();
        let mut s2 = snap(&t, 4, 1);
        let receipt = store.publish_with_fold(&mut s2, 17, 260).unwrap();
        assert_eq!(receipt.generation, 2);
        drop(store);
        drop(s1);
        drop(s2);

        let (store, recovered, report) = TieredStore::open(&root, &schema).unwrap();
        assert_eq!(report.generation, 2);
        assert_eq!(report.folded, 17);
        assert_eq!(report.next_row, 260);
        drop(store);
        drop(recovered);

        fs::remove_dir_all(&root).unwrap();
    }

    /// The multi-tenant bugfix: a data dir holding entries the store does
    /// not own — a future tenant subdirectory, a stray `gen-` file, a lock
    /// dir — must be skipped with a warning, never deleted and never
    /// treated as corruption.
    #[test]
    fn open_skips_unknown_entries_in_a_mixed_layout_dir() {
        let t = table(200);
        let schema = Arc::clone(t.schema());
        let root = tmproot("mixed");
        let mut s1 = snap(&t, 2, 0);
        let (store, _) = TieredStore::create(&root, &mut s1).unwrap();
        drop(store);
        drop(s1);

        // a sibling tenant's subtree, as a future multi-tenant layout lays it out
        let tenant = root.join("tenant-b");
        fs::create_dir_all(tenant.join("gen-000005")).unwrap();
        fs::write(tenant.join("wal.log"), b"tenant b's wal").unwrap();
        // a directory from some future format, and a gen-named stray file
        fs::create_dir_all(root.join("locks")).unwrap();
        fs::write(root.join("gen-000003"), b"not a directory").unwrap();
        // a plain file that never claimed the gen- prefix stays silent
        fs::write(root.join("wal.log"), b"our wal").unwrap();

        let (store, recovered, report) = TieredStore::open(&root, &schema).unwrap();
        assert_eq!(report.generation, 1, "the real generation still serves");
        assert!(report.torn_removed.is_empty());
        assert!(report.stale_removed.is_empty());
        let mut skipped = report.skipped.clone();
        skipped.sort();
        assert_eq!(
            skipped,
            vec![
                root.join("gen-000003"),
                root.join("locks"),
                root.join("tenant-b"),
            ],
            "unknown entries are reported, wal.log is not"
        );
        // nothing unknown was deleted
        assert!(tenant.join("gen-000005").exists());
        assert!(tenant.join("wal.log").exists());
        assert!(root.join("locks").exists());
        assert!(root.join("gen-000003").exists());
        assert_eq!(recovered.total_rows(), 200);

        // create() on the same mixed root also leaves foreign entries alone
        drop(store);
        drop(recovered);
        let mut s2 = snap(&t, 4, 1);
        let (store, receipt) = TieredStore::create(&root, &mut s2).unwrap();
        assert_eq!(receipt.generation, 2);
        assert!(tenant.join("wal.log").exists(), "create spared the tenant");
        drop(store);
        drop(s2);
        fs::remove_dir_all(&root).unwrap();
    }

    /// Generations carry their store's table id so a shared buffer pool can
    /// key pages per tenant; the id survives reopen.
    #[test]
    fn table_id_is_stamped_and_survives_reopen() {
        let t = table(100);
        let schema = Arc::clone(t.schema());
        let root = tmproot("tableid");
        let mut s1 = snap(&t, 2, 0);
        let (store, _) = TieredStore::create_for_table(&root, 7, &mut s1).unwrap();
        assert_eq!(store.table(), 7);
        assert_eq!(store.current().table(), 7);
        let mut s2 = snap(&t, 4, 1);
        store.publish(&mut s2).unwrap();
        assert_eq!(store.current().table(), 7, "publish keeps the id");
        drop(store);
        drop(s1);
        drop(s2);

        let (store, recovered, _) = TieredStore::open_for_table(&root, 7, &schema).unwrap();
        assert_eq!(store.current().table(), 7);
        // the default single-table constructors stamp table 0
        drop(store);
        drop(recovered);
        let (store, recovered, _) = TieredStore::open(&root, &schema).unwrap();
        assert_eq!(store.current().table(), 0);
        drop(store);
        drop(recovered);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rows_sidecar_round_trips_and_detects_corruption() {
        // strictly ascending with uneven gaps, as a partition's ids are
        let mut rows: Vec<u32> = (0..997).map(|i| i * 3 + i * 7 % 3).collect();
        let mut bytes = encode_rows(&rows).to_vec();
        assert_eq!(decode_rows(&bytes).unwrap(), rows);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(decode_rows(&bytes).is_err());
        // ids out of order are damage even under a checksum that matches
        rows.swap(400, 401);
        assert!(matches!(
            decode_rows(&encode_rows(&rows)),
            Err(StorageError::Corrupt(_))
        ));
    }

    fn file_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .flatten()
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn generation_dir_holds_two_files() {
        let t = table(900);
        let schema = Arc::clone(t.schema());
        let root = tmproot("twofiles");
        let mut s1 = snap(&t, 1, 0);
        let (store, r1) = TieredStore::create(&root, &mut s1).unwrap();
        let mut s2 = snap(&t, 7, 1);
        let r2 = store.publish_with_fold(&mut s2, 3, 900).unwrap();
        for (receipt, dir) in [(r1, "gen-000001"), (r2, "gen-000002")] {
            assert_eq!(receipt.files, 2);
            assert_eq!(file_names(&root.join(dir)), [MANIFEST, SEGMENT], "{dir}");
            assert_eq!(receipt.bytes_written, dir_bytes(&root.join(dir)).unwrap());
        }
        // the segment is the partition blobs, their row ids and the index
        let blobs: u64 = s2.total_bytes();
        assert!(blobs < r2.bytes_written);
        assert_eq!(store.full_scan().unwrap().bytes, blobs);
        drop(store);
        drop(s1);
        drop(s2);
        // ...and what recovery accounts is what publish accounted
        let (store, recovered, _) = TieredStore::open(&root, &schema).unwrap();
        assert_eq!(store.current().bytes(), r2.bytes_written);
        assert_eq!(recovered.total_bytes(), blobs);
        assert_eq!(
            store.full_scan().unwrap(),
            FullScan {
                partitions: 7,
                rows: 900,
                bytes: blobs
            }
        );
        drop(store);
        drop(recovered);
        fs::remove_dir_all(&root).unwrap();
    }

    /// A reader that pinned generation 1 keeps scanning it — from disk,
    /// through the handle its generation holds — across two publishes; each
    /// retired directory goes when its last pin does, and not before.
    #[test]
    fn retired_generation_is_removed_on_last_unpin() {
        use crate::bufpool::{BufferPool, BufferPoolConfig};
        let t = table(1_200);
        let root = tmproot("unpin");
        let mut s1 = snap(&t, 3, 0);
        let (store, _) = TieredStore::create(&root, &mut s1).unwrap();
        let pool = BufferPool::new(BufferPoolConfig {
            capacity_bytes: 1 << 20,
            page_bytes: 256,
        });
        let pred = between(100, 1_100);
        let expected = s1.scan(&pred).matches;
        let reader = s1.clone();
        assert_eq!(reader.scan_pooled(&pred, &pool).unwrap().matches, expected);

        let mut s2 = snap(&t, 4, 1);
        store.publish(&mut s2).unwrap();
        pool.invalidate_generation(0, 1);
        drop(s1);
        let across_one = reader.scan_pooled(&pred, &pool).unwrap();
        assert_eq!(across_one.matches, expected);
        assert!(
            across_one.io_cold_bytes > 0,
            "read from the retired segment"
        );

        let mut s3 = snap(&t, 5, 2);
        store.publish(&mut s3).unwrap();
        pool.invalidate_generation(0, 2);
        assert_eq!(store.generations_on_disk(), vec![1, 2, 3]);
        drop(s2); // generation 2: retired, and that was its last pin
        assert_eq!(store.generations_on_disk(), vec![1, 3]);
        let across_two = reader.scan_pooled(&pred, &pool).unwrap();
        assert_eq!(across_two.matches, expected);
        assert_eq!(across_two.bytes_scanned, across_one.bytes_scanned);
        assert_eq!(file_names(&root.join("gen-000001")), [MANIFEST, SEGMENT]);

        drop(reader);
        assert!(!root.join("gen-000001").exists(), "removed on last unpin");
        assert_eq!(store.generations_on_disk(), vec![3]);
        assert_eq!(s3.scan_pooled(&pred, &pool).unwrap().matches, expected);
        drop(store);
        drop(s3);
        assert!(
            root.join("gen-000003").exists(),
            "the current one is durable"
        );
        fs::remove_dir_all(&root).unwrap();
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// A row-id block read back is the strictly ascending ids that
            /// were written, or `Corrupt`: cut at any byte, with one to
            /// three bytes changed, or — the damage a checksum cannot see,
            /// because it is applied before the sum is taken — holding its
            /// ids with two swapped or one repeated. Never a panic.
            #[test]
            fn decode_rows_returns_ascending_ids_or_corrupt(
                gaps in proptest::collection::vec(1u32..5_000, 0..300),
                flips in proptest::collection::vec((any::<u32>(), 1u8..=255), 1..4),
                at in any::<usize>(),
                other in any::<usize>(),
            ) {
                let mut ids = gaps.clone();
                for i in 1..ids.len() {
                    ids[i] += ids[i - 1];
                }
                let bytes = encode_rows(&ids).to_vec();
                prop_assert_eq!(&decode_rows(&bytes).unwrap(), &ids);
                for cut in 0..bytes.len() {
                    prop_assert!(
                        matches!(decode_rows(&bytes[..cut]), Err(StorageError::Corrupt(_))),
                        "cut at {} of {}", cut, bytes.len()
                    );
                }
                let mut damaged = bytes.clone();
                for &(at, mask) in &flips {
                    damaged[at as usize % bytes.len()] ^= mask;
                }
                match decode_rows(&damaged) {
                    Ok(read) => prop_assert!(strictly_ascending(&read), "flipped {:?}", flips),
                    Err(StorageError::Corrupt(_)) => {}
                    Err(e) => prop_assert!(false, "flipped {:?}: {}", flips, e),
                }
                if ids.len() >= 2 {
                    let (a, b) = (at % ids.len(), other % ids.len());
                    let mut swapped = ids.clone();
                    swapped.swap(a, b);
                    let mut repeated = ids.clone();
                    repeated[a.max(1)] = repeated[a.max(1) - 1];
                    for disordered in [swapped, repeated] {
                        if disordered != ids {
                            prop_assert!(matches!(
                                decode_rows(&encode_rows(&disordered)),
                                Err(StorageError::Corrupt(_))
                            ));
                        }
                    }
                }
            }
        }

        proptest! {
            /// A segment whose trailer — index, checksum, index offset,
            /// magic — is cut at any byte or has one to three bytes
            /// changed is `Corrupt`, or (should the damage cancel out)
            /// reads back as exactly the index that was written: never a
            /// panic, never a buffer sized by a number the file's length
            /// does not bear out.
            #[test]
            fn segment_trailer_damage_is_corrupt(
                lens in proptest::collection::vec((0u64..5_000, 0u64..300), 0..6),
                flips in proptest::collection::vec((any::<u32>(), 1u8..=255), 1..4),
            ) {
                let mut entries = Vec::new();
                let mut cursor = 0u64;
                for &(data_len, rows_len) in &lens {
                    entries.push(SegmentEntry {
                        data_off: cursor,
                        data_len,
                        rows_off: cursor + data_len,
                        rows_len,
                    });
                    cursor += data_len + rows_len;
                }
                let k = entries.len();
                let mut bytes = vec![0xa5u8; cursor as usize];
                bytes.extend_from_slice(&encode_trailer(&entries, cursor));
                let dir = tmproot("trailer");
                fs::create_dir_all(&dir).unwrap();
                let path = dir.join(SEGMENT);
                fs::write(&path, &bytes).unwrap();
                let whole = fs::File::open(&path).unwrap();
                prop_assert_eq!(&read_index(&whole, bytes.len() as u64, k).unwrap(), &entries);
                // a manifest that disagrees about k, either way
                for wrong in [k + 1, k.wrapping_sub(1), usize::MAX, usize::MAX / 32] {
                    prop_assert!(matches!(
                        read_index(&whole, bytes.len() as u64, wrong),
                        Err(StorageError::Corrupt(_))
                    ));
                }
                let shrinking = fs::OpenOptions::new().read(true).write(true).open(&path).unwrap();
                for cut in (cursor..bytes.len() as u64).rev() {
                    shrinking.set_len(cut).unwrap();
                    prop_assert!(
                        matches!(read_index(&shrinking, cut, k), Err(StorageError::Corrupt(_))),
                        "cut at {} of {}", cut, bytes.len()
                    );
                }
                let trailer_len = bytes.len() - cursor as usize;
                let mut damaged = bytes.clone();
                for &(at, mask) in &flips {
                    damaged[cursor as usize + at as usize % trailer_len] ^= mask;
                }
                fs::write(&path, &damaged).unwrap();
                let file = fs::File::open(&path).unwrap();
                match read_index(&file, damaged.len() as u64, k) {
                    Ok(read) => prop_assert_eq!(&read, &entries),
                    Err(StorageError::Corrupt(_)) => {}
                    Err(e) => prop_assert!(false, "flipped {:?}: {}", flips, e),
                }
                fs::remove_dir_all(&dir).unwrap();
            }
        }

        /// The numeric keys every manifest carries, in emission order.
        const NUMERIC_KEYS: [&str; 6] = [
            "generation",
            "layout",
            "partitions",
            "rows",
            "folded",
            "next_row",
        ];

        /// What [`read_manifest`] must make of `bytes`, decided without it:
        /// the six numbers and the name when the bytes are UTF-8, the first
        /// line is the magic, the first `key=` line of each numeric key holds
        /// a `u64` and a `name=` line exists; `None` otherwise. Lines end at
        /// `\n`, dropping one `\r` before it, as [`str::lines`] splits them.
        fn manifest_oracle(bytes: &[u8]) -> Option<([u64; 6], String)> {
            let text = std::str::from_utf8(bytes).ok()?;
            let mut lines: Vec<&str> = text.split('\n').collect();
            let last = lines.len() - 1;
            for line in &mut lines[..last] {
                *line = line.strip_suffix('\r').unwrap_or(line);
            }
            if lines[0] != MANIFEST_MAGIC {
                return None;
            }
            let value = |key: &str| {
                lines
                    .iter()
                    .find_map(|line| line.strip_prefix(key)?.strip_prefix('='))
            };
            let mut numbers = [0u64; 6];
            for (number, key) in numbers.iter_mut().zip(NUMERIC_KEYS) {
                *number = value(key)?.parse().ok()?;
            }
            Some((numbers, value("name")?.to_string()))
        }

        /// Bytes for a name: letters, digits, `=`, line breaks and
        /// non-ASCII characters.
        fn name_of(picks: &[usize]) -> String {
            const ALPHABET: [char; 12] = [
                'a', 'Z', '0', '7', ' ', '=', '\r', '\n', 'é', 'ß', '漢', '🦀',
            ];
            picks
                .iter()
                .map(|&i| ALPHABET[i % ALPHABET.len()])
                .collect()
        }

        proptest! {
            /// `read_manifest` on arbitrary bytes, and on a real manifest cut
            /// at any byte or with one to three bytes changed, never panics
            /// and is `Ok` exactly when the oracle parses the text — with the
            /// oracle's numbers and name.
            #[test]
            fn manifest_decoder_accepts_exactly_what_parses(
                noise in proptest::collection::vec(any::<u8>(), 0..160),
                picks in proptest::collection::vec(0usize..64, 0..12),
                numbers in (any::<u64>(), any::<u64>(), any::<u64>()),
                flips in proptest::collection::vec((any::<u32>(), 1u8..=255), 1..4),
                cut in any::<usize>(),
            ) {
                let t = table(64);
                let (generation, folded, next_row) = numbers;
                let snapshot = TableSnapshot::build(&t, &[0; 64], 1, 9, name_of(&picks));
                let text = manifest_text(&snapshot, generation, folded, next_row).into_bytes();
                let mut flipped = text.clone();
                for &(at, mask) in &flips {
                    flipped[at as usize % text.len()] ^= mask;
                }
                let mut noisy = format!("{MANIFEST_MAGIC}\n").into_bytes();
                noisy.extend_from_slice(&noise);
                let cases = [
                    text.clone(),
                    text[..cut % (text.len() + 1)].to_vec(),
                    flipped,
                    noise.clone(),
                    noisy,
                ];
                let dir = tmproot("manifest");
                fs::create_dir_all(&dir).unwrap();
                let path = dir.join(MANIFEST);
                for bytes in cases {
                    fs::write(&path, &bytes).unwrap();
                    let read = read_manifest(&path);
                    match (manifest_oracle(&bytes), read) {
                        (Some((n, name)), Ok(m)) => {
                            prop_assert_eq!(
                                [m.layout, m.partitions as u64, m.rows, m.folded, m.next_row],
                                [n[1], n[2], n[3], n[4], n[5]]
                            );
                            prop_assert_eq!(m.name, name);
                        }
                        (None, Err(_)) => {}
                        (want, got) => prop_assert!(
                            false,
                            "{:?}: oracle {:?}, read_manifest ok = {}",
                            String::from_utf8_lossy(&bytes),
                            want,
                            got.is_ok()
                        ),
                    }
                }
                fs::remove_dir_all(&dir).unwrap();
            }

            /// `manifest_text` round-trips through `read_manifest` whatever
            /// the snapshot's name holds: `=`, line breaks (written as
            /// spaces) and non-ASCII characters.
            #[test]
            fn manifest_text_round_trips_any_name(
                picks in proptest::collection::vec(0usize..64, 0..24),
                numbers in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
                k in 1usize..5,
            ) {
                let t = table(40);
                let (generation, layout, folded, next_row) = numbers;
                let name = name_of(&picks);
                let assignment: Vec<u32> = (0..40).map(|r| r % k as u32).collect();
                let snapshot = TableSnapshot::build(&t, &assignment, k, layout, name.clone());
                let dir = tmproot("manifest-name");
                fs::create_dir_all(&dir).unwrap();
                let path = dir.join(MANIFEST);
                fs::write(&path, manifest_text(&snapshot, generation, folded, next_row)).unwrap();
                let m = read_manifest(&path).unwrap();
                prop_assert_eq!(m.name, name.replace(['\n', '\r'], " "));
                prop_assert_eq!(
                    [m.layout, m.partitions as u64, m.rows, m.folded, m.next_row],
                    [layout, k as u64, 40, folded, next_row]
                );
                fs::remove_dir_all(&dir).unwrap();
            }
        }
    }
}
