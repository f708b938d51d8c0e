//! Copy-on-write snapshots of a partitioned table, the storage substrate of
//! the concurrent serving layer (`oreo-engine`).
//!
//! A [`TableSnapshot`] is one *immutable* physical organization of a table:
//! the row → partition grouping of a layout, fully materialized, with the
//! pruning metadata needed to skip partitions. Readers never see a snapshot
//! change; a background reorganizer builds the next snapshot aside and
//! *publishes* it through a [`SnapshotCell`], after which new scans pick it
//! up while in-flight scans keep running on the snapshot they pinned.
//!
//! This is what makes the paper's reorganization delay Δ (§VI-D5) a
//! *measured* quantity in the engine: Δ is the wall-clock window between a
//! switch decision and the moment [`SnapshotCell::publish`] lands, during
//! which queries are still served by the old layout.
//!
//! # The scan path
//!
//! Both entry points — [`TableSnapshot::scan`] over resident data and
//! [`TableSnapshot::scan_pooled`] through a [`BufferPool`] — run one driver
//! (`drive`). Per partition it asks the pruning metadata two questions
//! before it touches a value: *can any row match* — no skips the partition
//! — and, per predicate column, *must every row match*
//! ([`ColumnStats::covered_by`](crate::partition::ColumnStats::covered_by)).
//! Only the columns the metadata cannot decide are handed to the [`kernel`]
//! layer — a pooled scan's integer payloads as their packed frames, its
//! other payloads decoded; a partition with none left is answered from its
//! row ids. Every partition contributes one ascending *run* of matches
//! (its row ids are strictly ascending — [`SnapshotPartition`] checks that
//! once, at construction), so the result's order and span come from the
//! runs' first and last ids, not from passes over the ids themselves.

use crate::bufpool::BufferPool;
use crate::column::Column;
use crate::delta::DeltaOverlay;
use crate::encode::IntFrames;
use crate::error::{Result, StorageError};
use crate::format::ColumnExtent;
use crate::kernel::{self, ColumnInput, KernelCounters, ScanScratch};
use crate::layout_model::{LayoutId, LayoutModel};
use crate::partition::{table_metadata, PartitionMetadata};
use crate::table::Table;
use crate::tiered::Generation;
use oreo_query::{ColumnPlan, ColumnPredicate, CompiledPredicate, Predicate};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One materialized partition of a snapshot: the projected data plus the
/// global row ids it holds (positions in the base table).
#[derive(Clone, Debug)]
pub struct SnapshotPartition {
    /// Global row ids (into the base table), in projection order: strictly
    /// ascending, one per row of `data`. Private so that
    /// [`SnapshotPartition::new`] is the only way to make one.
    rows: Arc<[u32]>,
    /// The partition's materialized columnar data.
    pub data: Arc<Table>,
    /// Pruning metadata for this partition.
    pub meta: PartitionMetadata,
    /// Bytes a scan of this partition reads: in-memory column bytes for a
    /// memory-resident snapshot, the encoded partition-blob size once the
    /// snapshot is backed by a [`crate::TieredStore`] generation.
    pub bytes: u64,
    /// Per-column payload extents in the partition's on-disk blob — the
    /// page index pooled scans use. Present once the snapshot is backed by
    /// a generation; `None` for memory-only snapshots, which have no blob.
    pub extents: Option<Arc<[ColumnExtent]>>,
}

/// Are `ids` strictly ascending (hence duplicate-free)?
pub(crate) fn strictly_ascending(ids: &[u32]) -> bool {
    ids.windows(2).all(|pair| pair[0] < pair[1])
}

impl SnapshotPartition {
    /// A memory-resident partition: `rows[i]` is the global id of row `i`
    /// of `data`, `meta` the pruning metadata of `data`.
    ///
    /// Every scan relies on a partition's matches coming out ascending, so
    /// the order of `rows` is checked here, once, instead of on every scan.
    ///
    /// # Panics
    /// Panics if `rows` is not strictly ascending or does not hold one id
    /// per row of `data`. Ids computed in-process get here in order by
    /// construction (positions of a base table, ids handed out by a
    /// counter), so a violation is a bug; ids read from disk are checked by
    /// their decoder, which reports `Corrupt`, before they get here.
    pub fn new(rows: Arc<[u32]>, data: Arc<Table>, meta: PartitionMetadata) -> Self {
        assert_eq!(rows.len(), data.num_rows(), "one global row id per row");
        assert!(
            strictly_ascending(&rows),
            "a partition's global row ids must be strictly ascending"
        );
        let bytes = data.memory_bytes() as u64;
        Self {
            rows,
            data,
            meta,
            bytes,
            extents: None,
        }
    }

    /// Global row ids (into the base table) of the partition's rows, in
    /// projection order — strictly ascending.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }
}

/// Result of scanning a snapshot with one predicate.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SnapshotScan {
    /// Global (base-table) row ids matching the predicate, ascending and
    /// free of tombstoned ids — the order is the ids' own, whatever layout
    /// and partition order produced them (see `assemble_runs`).
    pub matches: Vec<u32>,
    /// Rows living in partitions the predicate could not skip.
    pub rows_read: u64,
    /// Bytes of the partitions the predicate could not skip (see
    /// [`SnapshotPartition::bytes`] for the unit per serving mode).
    pub bytes_scanned: u64,
    /// Partitions actually scanned.
    pub partitions_read: usize,
    /// Partitions among `partitions_read` answered from their metadata
    /// alone: every predicate column was proven to pass on every row
    /// ([`crate::partition::ColumnStats::covered_by`]), so the partition's
    /// row ids are its matches and no kernel ran. They are *read* all the
    /// same — `rows_read`, `bytes_scanned` and the pool see them exactly
    /// as they see any other surviving partition — which makes
    /// `partitions_covered / partitions_read` the finer number beside the
    /// paper's fraction, not a replacement for it.
    pub partitions_covered: usize,
    /// Column payloads a pooled scan decoded, or read as packed frames:
    /// one per surviving base partition and predicate column the metadata
    /// could not decide, at most `partitions_read ×` the predicate's
    /// columns. Zero for memory-resident scans, which decode nothing.
    pub columns_decoded: u64,
    /// Kernel evaluations of a packed integer frame that its header
    /// answered without unpacking ([`KernelCounters::frames_decided`]).
    /// Zero for memory-resident scans.
    pub frames_decided: u64,
    /// Total partitions in the snapshot.
    pub partitions_total: usize,
    /// Page bytes this scan read from disk (buffer-pool misses). Zero for
    /// memory-resident scans.
    pub io_cold_bytes: u64,
    /// Page bytes this scan served from the buffer pool (hits). Zero for
    /// memory-resident scans.
    pub io_cached_bytes: u64,
    /// Selection-vector chunks the vectorized kernels evaluated (zero for
    /// tautological predicates and for covered partitions).
    pub chunks_evaluated: u64,
    /// Row × kernel evaluations the adaptive AND order skipped because the
    /// selection vector had already shrunk.
    pub rows_short_circuited: u64,
    /// Bytes of *delta-run* partitions this scan evaluated — a subset of
    /// `bytes_scanned`. Delta runs are always memory-resident, so on the
    /// pooled paths the invariant becomes
    /// `io_cold_bytes + io_cached_bytes + delta_bytes_scanned ==
    /// bytes_scanned`. Zero when the snapshot carries no delta overlay.
    pub delta_bytes_scanned: u64,
}

/// Where a scan gets a surviving base partition's predicate columns, and
/// what reading them costs.
#[derive(Clone, Copy)]
enum ColumnSource<'a> {
    /// Borrow the materialized `part.data`; charge `part.bytes`.
    Resident,
    /// Fetch the columns' page ranges of the backing generation through
    /// the pool and open them; charge the page bytes, split cold/cached.
    Pooled(&'a BufferPool),
}

/// A predicate column a pooled scan fetched.
enum Fetched {
    /// A float or dictionary payload, decoded.
    Decoded(Column),
    /// An integer payload's frames, left packed for the kernels.
    Packed(IntFrames),
}

impl Fetched {
    fn input(&self) -> ColumnInput<'_> {
        match self {
            Fetched::Decoded(column) => ColumnInput::Decoded(column),
            Fetched::Packed(frames) => ColumnInput::Packed(frames),
        }
    }
}

/// Results with fewer ids than this are comparison-sorted: the bitmap's
/// fixed costs (min/max pass, zeroed allocation, popcount pass) need a few
/// dozen ids to amortize. Measured on the 2-vCPU dev box with ten ascending
/// runs of distinct ids at one bitmap word per four ids: `sort_unstable`
/// 25 ns vs 54 ns for the bitmap at n = 16, 123 vs 83 at 32, 305 vs 166 at
/// 64 — past break-even with margin at 64.
const BITMAP_MIN_MATCHES: usize = 64;

/// The bitmap over `[min, max]` may hold at most this many `u64` words per
/// id, i.e. the ids must fill at least 1/64 of their span (and the bitmap
/// never exceeds twice the matches' own bytes). Same measurement, bitmap
/// speedup over `sort_unstable` by words per id at n = 64 … 20 000:
/// 1.8–4.5× at 0.25, 1.3–2.6× at 1, 0.96–1.6× at 2, 0.6–1.05× at 4 — 1 is
/// the last density that wins at every size.
const BITMAP_MAX_WORDS_PER_MATCH: usize = 1;

/// Set bits [`bitmap_assemble`]'s decode extracts from a word per step,
/// whether the word holds that many or not: a fixed-length step has no
/// data-dependent branch inside it, and the surplus slots it writes are
/// overwritten by the next word's. Measured on the 2-vCPU dev box, 18 500
/// ids, against the bit-at-a-time loop: 109 → 59 µs at one id per word (the
/// sparsest bitmap taken), 73 → 29 at two, 40 → 19 at four (a wide scan of
/// a 300 k-row table), 21 → 12 at eight, 17 → 10 at sixteen; steps of 6 and
/// 8 read 5–15 % slower than 4 below eight ids per word and level above.
const DECODE_STEP: usize = 4;

/// Turn the concatenation of per-partition match runs into the scan's
/// result: ascending global row ids with every id in `tombstones` (sorted
/// ascending, unique) removed — exactly `sort_unstable` followed by dropping
/// each id found in `tombstones`, duplicates in `matches` kept.
///
/// `run_starts[i]` is where run `i` begins in `matches` (it ends where the
/// next one begins; empty runs are fine). Every run is strictly ascending —
/// it is a partition's matches in the order of its row ids, and those are
/// ascending by [`SnapshotPartition::new`] — so what the whole result needs
/// is read off the runs' first and last ids in `O(runs)`, with no pass over
/// the ids:
///
/// 1. each run ends at or before the next one begins (one partition
///    survived, or a layout whose partitions hold id ranges visited in
///    order): the concatenation is the result as it stands;
/// 2. otherwise, when the ids are dense in `[least first, greatest last]`,
///    a counting sort on a `u64` bitmap ([`bitmap_assemble`]) that also
///    drops the tombstones;
/// 3. otherwise (sparse post-fold ids, tiny results, an id held by two
///    runs) a comparison sort.
///
/// Cases 1 and 3 subtract tombstones with one merge-style walk of the two
/// ascending lists.
fn assemble_runs(matches: &mut Vec<u32>, run_starts: &[usize], tombstones: &[u32]) {
    let run_ends = run_starts.iter().copied().skip(1).chain([matches.len()]);
    let mut in_order = true;
    let mut span: Option<(u32, u32)> = None;
    for (&start, end) in run_starts.iter().zip(run_ends) {
        if start == end {
            continue;
        }
        debug_assert!(strictly_ascending(&matches[start..end]), "run order");
        let (first, last) = (matches[start], matches[end - 1]);
        span = Some(match span {
            None => (first, last),
            Some((min, max)) => {
                in_order &= max <= first;
                (min.min(first), max.max(last))
            }
        });
    }
    let Some((min, max)) = span else {
        return;
    };
    if !in_order {
        if bitmap_assemble(matches, min, max, tombstones) {
            return;
        }
        matches.sort_unstable();
    }
    subtract_sorted(matches, tombstones);
}

/// Case 2 of [`assemble_runs`]: scatter the ids, all within `min..=max`,
/// into a bitmap over that range, clear the bits of the tombstones inside
/// it, and gather the survivors in word order. Returns `false`, leaving
/// `matches` untouched, when the result is too small or too sparse for the
/// bitmap to pay off or when an id occurs twice (a bitmap cannot keep
/// duplicates).
///
/// The gather is where a wide result spends its time, so it avoids the
/// bit-at-a-time loop whose exit mispredicts once per word: a full word is
/// written as a span of 64 consecutive ids, any other word [`DECODE_STEP`]
/// bits per step.
fn bitmap_assemble(matches: &mut Vec<u32>, min: u32, max: u32, tombstones: &[u32]) -> bool {
    let n = matches.len();
    if n < BITMAP_MIN_MATCHES {
        return false;
    }
    let words = ((max - min) as usize >> 6) + 1;
    if words > BITMAP_MAX_WORDS_PER_MATCH * n {
        return false;
    }
    let mut bitmap = vec![0u64; words];
    for &r in matches.iter() {
        let bit = (r - min) as usize;
        bitmap[bit >> 6] |= 1 << (bit & 63);
    }
    let distinct: usize = bitmap.iter().map(|w| w.count_ones() as usize).sum();
    if distinct != n {
        return false;
    }
    for &t in within(tombstones, min, max) {
        let bit = (t - min) as usize;
        bitmap[bit >> 6] &= !(1 << (bit & 63));
    }
    // Room for the last step's surplus slots; `kept` never passes `n`.
    matches.resize(n + DECODE_STEP, 0);
    let mut kept = 0usize;
    for (w, &word) in bitmap.iter().enumerate() {
        let base = min + ((w as u32) << 6);
        if word == u64::MAX {
            for (slot, bit) in matches[kept..kept + 64].iter_mut().zip(0u32..) {
                *slot = base + bit;
            }
            kept += 64;
            continue;
        }
        let count = word.count_ones() as usize;
        let mut rest = word;
        let mut at = kept;
        // At least one step, even for an empty word: testing for one
        // costs more than the four dead stores it would save.
        loop {
            for slot in &mut matches[at..at + DECODE_STEP] {
                // A surplus slot sees `rest == 0`: it holds garbage
                // (`base + 64`, which may wrap) until overwritten.
                *slot = base.wrapping_add(rest.trailing_zeros());
                rest &= rest.wrapping_sub(1);
            }
            at += DECODE_STEP;
            if at >= kept + count {
                break;
            }
        }
        kept += count;
    }
    matches.truncate(kept);
    true
}

/// The part of ascending `ids` inside `lo..=hi`.
fn within(ids: &[u32], lo: u32, hi: u32) -> &[u32] {
    &ids[ids.partition_point(|&t| t < lo)..ids.partition_point(|&t| t <= hi)]
}

/// Remove from ascending `matches` every id present in `tombstones` (sorted
/// ascending, unique) by walking the two lists together; all copies of a
/// tombstoned id go.
fn subtract_sorted(matches: &mut Vec<u32>, tombstones: &[u32]) {
    let (Some(&first), Some(&last)) = (matches.first(), matches.last()) else {
        return;
    };
    let dead = within(tombstones, first, last);
    if dead.is_empty() {
        return;
    }
    let mut next = 0usize;
    matches.retain(|&r| {
        while next < dead.len() && dead[next] < r {
            next += 1;
        }
        next == dead.len() || dead[next] != r
    });
}

/// An immutable, fully materialized physical organization of one table.
#[derive(Clone, Debug)]
pub struct TableSnapshot {
    layout: LayoutId,
    name: String,
    epoch: u64,
    partitions: Vec<SnapshotPartition>,
    total_rows: u64,
    /// Pin on the on-disk generation backing this snapshot, when it was
    /// persisted through a [`crate::TieredStore`]. Holding the snapshot
    /// holds the generation directory alive; the last drop after the
    /// generation is superseded garbage-collects it.
    generation: Option<Arc<Generation>>,
    /// Unfolded writes layered over the base partitions: delta runs whose
    /// rows scans union in, and tombstones they subtract. `None` (the
    /// common case for a read-mostly table) keeps every scan path exactly
    /// on its pre-ingestion fast path.
    delta: Option<Arc<DeltaOverlay>>,
}

impl TableSnapshot {
    /// Materialize the snapshot of `base` under a row → partition
    /// `assignment` into `k` partitions. `layout`/`name` identify the layout
    /// the assignment came from.
    ///
    /// This is the physical-reorganization work the background thread
    /// performs (read → re-route → regroup), minus the disk write. In
    /// [`crate::TieredStore`]-backed (tiered) serving the reorganizer
    /// additionally persists the built snapshot as the next on-disk
    /// generation before publishing it, so the write + fsync cost of the
    /// rewrite is measured on the same run.
    ///
    /// # Panics
    /// Panics if `assignment` length differs from the base row count or a
    /// partition id is out of `0..k` — assignments come from layout specs,
    /// so a mismatch is a bug.
    pub fn build(
        base: &Table,
        assignment: &[u32],
        k: usize,
        layout: LayoutId,
        name: impl Into<String>,
    ) -> Self {
        Self::group(base, None, assignment, k, layout, name.into())
    }

    /// [`TableSnapshot::build`] for a base whose global row ids are *not*
    /// `0..n`: `row_ids[pos]` is the global id of `base` row `pos`. This is
    /// the fold path — once deltas with tombstones have been folded in, the
    /// surviving ids are sparse but must stay stable so scans keep
    /// returning layout-independent row sets and unfolded tombstones still
    /// name the rows they kill.
    ///
    /// # Panics
    /// Panics if `assignment` or `row_ids` length differs from the base
    /// row count, a partition id is out of `0..k`, or `row_ids` is not
    /// strictly ascending (see [`SnapshotPartition::new`]; folds keep the
    /// base in id order).
    pub fn build_with_rows(
        base: &Table,
        row_ids: &[u32],
        assignment: &[u32],
        k: usize,
        layout: LayoutId,
        name: impl Into<String>,
    ) -> Self {
        assert_eq!(row_ids.len(), base.num_rows(), "row-id length");
        Self::group(base, Some(row_ids), assignment, k, layout, name.into())
    }

    /// Group `base` by `assignment`; a partition's global row ids are its
    /// base positions, mapped through `row_ids` when given.
    fn group(
        base: &Table,
        row_ids: Option<&[u32]>,
        assignment: &[u32],
        k: usize,
        layout: LayoutId,
        name: String,
    ) -> Self {
        assert_eq!(assignment.len(), base.num_rows(), "assignment length");
        // Count first, so each partition's position list is allocated once
        // at its exact size — and freed as soon as its partition is built,
        // which keeps the rewrite's peak footprint down. (An id outside
        // `0..k` indexes past `counts` and panics.)
        let mut counts = vec![0usize; k];
        for &bid in assignment {
            counts[bid as usize] += 1;
        }
        let mut groups: Vec<Vec<u32>> = counts.into_iter().map(Vec::with_capacity).collect();
        for (pos, &bid) in assignment.iter().enumerate() {
            groups[bid as usize].push(pos as u32);
        }
        let partitions = groups
            .into_iter()
            .map(|positions| {
                let data = Arc::new(base.project_rows(&positions));
                // Pruning metadata from the columns just gathered, not from
                // a second scattered pass over `base`.
                let meta = table_metadata(&data);
                let rows: Arc<[u32]> = match row_ids {
                    None => positions.into(),
                    Some(ids) => positions.iter().map(|&p| ids[p as usize]).collect(),
                };
                SnapshotPartition::new(rows, data, meta)
            })
            .collect();
        Self {
            layout,
            name,
            epoch: 0,
            partitions,
            total_rows: base.num_rows() as u64,
            generation: None,
            delta: None,
        }
    }

    /// Reassemble a snapshot from already-materialized partitions — the
    /// recovery path of [`crate::TieredStore::open`].
    pub(crate) fn from_parts(
        layout: LayoutId,
        name: String,
        partitions: Vec<SnapshotPartition>,
    ) -> Self {
        let total_rows = partitions.iter().map(|p| p.rows.len() as u64).sum();
        Self {
            layout,
            name,
            epoch: 0,
            partitions,
            total_rows,
            generation: None,
            delta: None,
        }
    }

    /// Attach the on-disk generation backing this snapshot: switch the
    /// per-partition byte accounting to encoded blob sizes and record each
    /// partition's page index (column payload extents) for pooled scans.
    pub(crate) fn attach_generation(
        &mut self,
        generation: Arc<Generation>,
        files: Vec<(u64, Arc<[ColumnExtent]>)>,
    ) {
        debug_assert_eq!(files.len(), self.partitions.len());
        for (part, (bytes, extents)) in self.partitions.iter_mut().zip(files) {
            part.bytes = bytes;
            part.extents = Some(extents);
        }
        self.generation = Some(generation);
    }

    /// The layout this snapshot materializes.
    pub fn layout(&self) -> LayoutId {
        self.layout
    }

    /// Human-readable layout provenance.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Publish generation stamped by [`SnapshotCell::publish`] (0 for a
    /// snapshot that was never published).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// The materialized partitions.
    pub fn partitions(&self) -> &[SnapshotPartition] {
        &self.partitions
    }

    /// Total rows across all partitions.
    pub fn total_rows(&self) -> u64 {
        self.total_rows
    }

    /// Total scan footprint in bytes: Σ [`SnapshotPartition::bytes`] —
    /// what a full (unpruned) scan of this snapshot reads.
    pub fn total_bytes(&self) -> u64 {
        self.partitions.iter().map(|p| p.bytes).sum()
    }

    /// The on-disk generation backing this snapshot, when it was persisted
    /// through a [`crate::TieredStore`] (`None` for memory-only snapshots).
    pub fn generation(&self) -> Option<&Arc<Generation>> {
        self.generation.as_ref()
    }

    /// This snapshot with `delta` layered over its base partitions. Scans
    /// union the delta runs in and subtract the tombstones; `None` removes
    /// the overlay.
    #[must_use]
    pub fn with_delta(mut self, delta: Option<Arc<DeltaOverlay>>) -> Self {
        self.delta = delta;
        self
    }

    /// Replace the delta overlay in place (see
    /// [`TableSnapshot::with_delta`]).
    pub fn set_delta(&mut self, delta: Option<Arc<DeltaOverlay>>) {
        self.delta = delta;
    }

    /// The delta overlay layered over this snapshot, if any.
    pub fn delta(&self) -> Option<&Arc<DeltaOverlay>> {
        self.delta.as_ref()
    }

    /// Rows a tautological scan of this snapshot returns: base rows, plus
    /// delta-run rows, minus tombstones. Equal to
    /// [`TableSnapshot::total_rows`] when no delta is attached.
    pub fn live_rows(&self) -> u64 {
        match &self.delta {
            None => self.total_rows,
            Some(d) => self.total_rows + d.delta_rows - d.tombstones.len() as u64,
        }
    }

    /// The one scan loop behind [`TableSnapshot::scan`] and
    /// [`TableSnapshot::scan_pooled`]. Per partition:
    ///
    /// 1. *prune* — metadata proves no row can match: skip it;
    /// 2. *count* it as read, and charge what reading it costs — a resident
    ///    partition its `bytes`, a pooled one the page ranges of every
    ///    predicate column, fetched through `source`;
    /// 3. *decide by metadata* — drop each predicate column whose stored
    ///    min/max or distinct set proves every row passes
    ///    ([`crate::partition::ColumnStats::covered_by`]);
    /// 4. *evaluate the rest* through [`kernel::scan_partition`] — with no
    ///    column left the partition's row ids are its matches as they stand.
    ///
    /// Each partition's matches are one ascending run; [`assemble_runs`]
    /// orders the runs (ascending global ids, so results are
    /// layout-independent) and subtracts the tombstones.
    ///
    /// Base partitions and delta runs share the body. A run is a resident
    /// partition whatever the `source` — it is never on disk — whose bytes
    /// also count as `delta_bytes_scanned`.
    fn drive(&self, predicate: &Predicate, source: ColumnSource<'_>) -> Result<SnapshotScan> {
        let pooled = match source {
            ColumnSource::Resident => None,
            ColumnSource::Pooled(pool) => Some((
                self.generation.as_ref().ok_or_else(|| {
                    StorageError::Corrupt("snapshot has no on-disk generation".into())
                })?,
                pool,
            )),
        };
        let compiled = CompiledPredicate::compile(predicate);
        let plans = compiled.columns();
        // A tautology needs no cell values, so a pooled scan of one reads
        // no payload: its honest I/O cost is zero bytes.
        let payload_free = pooled.is_some() && compiled.is_tautology();
        let mut out = SnapshotScan {
            partitions_total: self.partitions.len()
                + self.delta.as_ref().map_or(0, |d| d.runs.len()),
            ..Default::default()
        };
        let mut run_starts: Vec<usize> = Vec::new();
        let mut counters = KernelCounters::default();
        let mut scratch = ScanScratch::default();
        // Resident columns all borrow from `self`, so one buffer of
        // conjuncts serves every partition of the scan.
        let mut resident: Vec<(&ColumnPlan, ColumnInput)> = Vec::with_capacity(plans.len());
        let base = self
            .partitions
            .iter()
            .enumerate()
            .map(|(i, p)| (Some(i), p));
        let runs = self.delta.iter().flat_map(|d| &d.runs).map(|r| (None, r));
        for (base_index, part) in base.chain(runs) {
            if !part.meta.may_match(predicate) {
                continue;
            }
            out.partitions_read += 1;
            out.rows_read += part.rows.len() as u64;
            run_starts.push(out.matches.len());
            if payload_free {
                out.partitions_covered += 1;
                out.matches.extend_from_slice(&part.rows);
                continue;
            }
            let undecided =
                |cp: &ColumnPredicate| !part.meta.columns[cp.col()].covered_by(cp.plan());
            let fetched;
            let fetched_refs: Vec<(&ColumnPlan, ColumnInput)>;
            let conjuncts: &[(&ColumnPlan, ColumnInput)] = match (pooled, base_index) {
                (Some(tier), Some(index)) => {
                    fetched =
                        self.fetch_undecided_columns(tier, index, plans, undecided, &mut out)?;
                    fetched_refs = fetched.iter().map(|(plan, c)| (*plan, c.input())).collect();
                    &fetched_refs
                }
                _ => {
                    out.bytes_scanned += part.bytes;
                    if base_index.is_none() {
                        out.delta_bytes_scanned += part.bytes;
                    }
                    resident.clear();
                    let left = plans.iter().filter(|cp| undecided(cp));
                    resident.extend(left.map(|cp| (cp.plan(), part.data.column(cp.col()).into())));
                    &resident
                }
            };
            out.partitions_covered += usize::from(conjuncts.is_empty());
            kernel::scan_partition(
                conjuncts,
                &part.rows,
                &mut scratch,
                &mut out.matches,
                &mut counters,
            );
        }
        out.chunks_evaluated = counters.chunks_evaluated;
        out.rows_short_circuited = counters.rows_short_circuited;
        out.frames_decided = counters.frames_decided;
        let tombstones = self.delta.as_ref().map_or(&[][..], |d| &d.tombstones);
        assemble_runs(&mut out.matches, &run_starts, tombstones);
        Ok(out)
    }

    /// Execute one predicate against the snapshot: prune partitions by
    /// metadata, answer the ones the predicate covers from their row ids,
    /// evaluate what is left of the others through the vectorized
    /// [`kernel`] layer, and report the matching *global*
    /// row ids (ascending, so results are layout-independent).
    pub fn scan(&self, predicate: &Predicate) -> SnapshotScan {
        self.drive(predicate, ColumnSource::Resident)
            .expect("resident columns are borrowed, never fetched")
    }

    /// Read the payload of every predicate column (`plans`) of base
    /// partition `index` through the pool, accumulating byte accounting
    /// into `out`, and open the ones `undecided` selects; returned in
    /// `plans` order, each with its plan. An integer payload is opened as
    /// its frames — headers walked, values left packed — and any other
    /// payload decoded.
    ///
    /// A decided column is read all the same — same page ranges, same
    /// hits, misses and evictions, same `bytes_scanned` — because
    /// `scan_fraction`, α̂ and the pool's hit rate must keep counting one
    /// thing whether or not a layout happens to serve the query well
    /// (ARCHITECTURE, "Units of `bytes_scanned`"). What it skips is the
    /// decode, and the kernel after it. Not reading a decided column at all
    /// is the next step, for when the benchmark reports logical and
    /// physical bytes apart.
    fn fetch_undecided_columns<'p>(
        &self,
        (generation, pool): (&Arc<Generation>, &BufferPool),
        index: usize,
        plans: &'p [ColumnPredicate],
        undecided: impl Fn(&ColumnPredicate) -> bool,
        out: &mut SnapshotScan,
    ) -> Result<Vec<(&'p ColumnPlan, Fetched)>> {
        let part = &self.partitions[index];
        let extents = part
            .extents
            .as_ref()
            .ok_or_else(|| StorageError::Corrupt(format!("partition {index} has no page index")))?;
        let nrows = part.rows.len();
        let mut fetched = Vec::with_capacity(plans.len());
        for cp in plans {
            let col = cp.col();
            let extent = extents.get(col).ok_or_else(|| {
                StorageError::Corrupt(format!(
                    "column {col} missing from partition {index} page index"
                ))
            })?;
            let (payload, io) =
                pool.read_blob(generation, index as u32, extent.offset, extent.len)?;
            out.io_cold_bytes += io.cold_bytes;
            out.io_cached_bytes += io.cached_bytes;
            out.bytes_scanned += io.cold_bytes + io.cached_bytes;
            // Checksums guard the disk→memory boundary: a read that touched
            // disk verifies the payload, opened or not; a read served
            // entirely from cached pages re-reads bytes a cold read already
            // verified, and only its length is checked.
            if io.cold_bytes > 0 {
                extent.verify(&payload, col)?;
            }
            if !undecided(cp) {
                continue;
            }
            out.columns_decoded += 1;
            fetched.push((
                cp.plan(),
                if extent.is_int() {
                    Fetched::Packed(extent.frames_trusted(payload, nrows, col)?)
                } else {
                    Fetched::Decoded(extent.decode_trusted(&payload, nrows, col)?)
                },
            ));
        }
        Ok(fetched)
    }

    /// Execute one predicate against the snapshot's *on-disk* generation
    /// through a [`BufferPool`]: prune partitions by metadata, then for
    /// each surviving partition fetch only the pages covering the
    /// predicate's column payloads, open the ones the metadata cannot
    /// decide (integer payloads as packed frames), and evaluate them
    /// through the vectorized [`kernel`] layer.
    ///
    /// Returns exactly the matches [`TableSnapshot::scan`] returns, but the
    /// bytes actually travel through the pool: `bytes_scanned` counts the
    /// page bytes touched and `io_cold_bytes` / `io_cached_bytes` split
    /// them into disk reads and pool hits — the block-transfer accounting
    /// the cost model's scan side needs to be honest about. An empty
    /// (always-true) predicate matches every row *without reading any
    /// column payload*: it needs no cell values, so its honest I/O cost is
    /// zero bytes.
    ///
    /// Fails if the snapshot is memory-only (no generation, hence no page
    /// index) or on I/O/corruption errors; callers degrade to the
    /// in-memory [`TableSnapshot::scan`].
    pub fn scan_pooled(&self, predicate: &Predicate, pool: &BufferPool) -> Result<SnapshotScan> {
        self.drive(predicate, ColumnSource::Pooled(pool))
    }

    /// The metadata-only [`LayoutModel`] view of this snapshot (exact, since
    /// the snapshot is fully materialized). Base partitions only: the cost
    /// model reasons about the *organized* layout, and delta runs are the
    /// transient part every candidate layout pays identically.
    pub fn model(&self) -> LayoutModel {
        LayoutModel::new(
            self.layout,
            self.name.clone(),
            self.partitions.iter().map(|p| p.meta.clone()).collect(),
        )
    }

    /// All global row ids across *base* partitions, ascending. A
    /// well-formed unfolded snapshot covers `0..total_rows` exactly once
    /// (folded bases are sparse but still duplicate-free); test helper.
    pub fn row_cover(&self) -> Vec<u32> {
        let mut all: Vec<u32> = self
            .partitions
            .iter()
            .flat_map(|p| p.rows.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }
}

/// The atomic publish point readers pin snapshots from.
///
/// Readers call [`SnapshotCell::pin`] to get an `Arc` to the current
/// snapshot — from then on their view is immutable regardless of concurrent
/// publishes. The background reorganizer calls [`SnapshotCell::publish`]
/// with the next snapshot; the swap is a single pointer store under a brief
/// write lock, never blocking on reader *scan* work (readers hold the lock
/// only long enough to clone the `Arc`).
#[derive(Debug)]
pub struct SnapshotCell {
    current: RwLock<Arc<TableSnapshot>>,
    epoch: AtomicU64,
}

impl SnapshotCell {
    /// A cell initially serving `initial` (stamped epoch 1).
    pub fn new(mut initial: TableSnapshot) -> Self {
        initial.epoch = 1;
        Self {
            current: RwLock::new(Arc::new(initial)),
            epoch: AtomicU64::new(1),
        }
    }

    /// Pin the current snapshot. The returned `Arc` stays valid (and
    /// unchanged) for as long as the caller holds it.
    pub fn pin(&self) -> Arc<TableSnapshot> {
        Arc::clone(&self.current.read().expect("snapshot lock poisoned"))
    }

    /// Atomically replace the served snapshot, returning the one it
    /// replaced. The new snapshot's epoch is stamped one past the old.
    pub fn publish(&self, mut next: TableSnapshot) -> Arc<TableSnapshot> {
        let mut slot = self.current.write().expect("snapshot lock poisoned");
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        next.epoch = epoch;
        std::mem::replace(&mut *slot, Arc::new(next))
    }

    /// Epoch of the currently served snapshot (monotone, starts at 1).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use oreo_query::{Atom, ColumnType, Scalar, Schema};
    use std::sync::Arc;

    fn table(n: i64) -> Table {
        let s = Arc::new(Schema::from_pairs([
            ("v", ColumnType::Int),
            ("w", ColumnType::Int),
        ]));
        let mut b = TableBuilder::new(Arc::clone(&s));
        for i in 0..n {
            b.push_row(&[Scalar::Int(i), Scalar::Int((i * 7) % 100)]);
        }
        b.finish()
    }

    fn between(col: usize, lo: i64, hi: i64) -> Predicate {
        Predicate::new(vec![Atom::Between {
            col,
            low: Scalar::Int(lo),
            high: Scalar::Int(hi),
        }])
    }

    /// A table exercising all three physical column representations:
    /// `v` = i, `w` = (i*7)%100, `f` = i/3.0, `tag` = cycled category.
    fn rich_table(n: i64) -> Table {
        let s = Arc::new(Schema::from_pairs([
            ("v", ColumnType::Int),
            ("w", ColumnType::Int),
            ("f", ColumnType::Float),
            ("tag", ColumnType::Str),
        ]));
        let tags = ["eu", "us", "apac", "latam"];
        let mut b = TableBuilder::new(Arc::clone(&s));
        for i in 0..n {
            b.push_row(&[
                Scalar::Int(i),
                Scalar::Int((i * 7) % 100),
                Scalar::Float(i as f64 / 3.0),
                Scalar::from(tags[(i % 4) as usize]),
            ]);
        }
        b.finish()
    }

    #[test]
    fn build_covers_every_row_once() {
        let t = table(100);
        let assignment: Vec<u32> = (0..100).map(|i| (i % 4) as u32).collect();
        let snap = TableSnapshot::build(&t, &assignment, 4, 7, "mod4");
        assert_eq!(snap.num_partitions(), 4);
        assert_eq!(snap.total_rows(), 100);
        assert_eq!(snap.row_cover(), (0..100u32).collect::<Vec<_>>());
        assert_eq!(snap.layout(), 7);
    }

    /// The driver-independent oracle: `Table::row_matches` over the live
    /// rows — `base` rows under their positions as global ids, plus the
    /// rows of `snap`'s delta runs, minus its tombstones — ascending.
    fn live_filter(base: &Table, snap: &TableSnapshot, pred: &Predicate) -> Vec<u32> {
        let ids: Vec<u32> = (0..base.num_rows() as u32).collect();
        live_filter_with_rows(base, &ids, snap, pred)
    }

    /// [`live_filter`] for a folded base: row `pos` of `base` has global id
    /// `ids[pos]`.
    fn live_filter_with_rows(
        base: &Table,
        ids: &[u32],
        snap: &TableSnapshot,
        pred: &Predicate,
    ) -> Vec<u32> {
        let mut hits: Vec<u32> = (0..base.num_rows())
            .filter(|&pos| base.row_matches(pos, pred))
            .map(|pos| ids[pos])
            .collect();
        if let Some(delta) = snap.delta() {
            for run in &delta.runs {
                hits.extend(
                    (0..run.rows.len())
                        .filter(|&local| run.data.row_matches(local, pred))
                        .map(|local| run.rows[local]),
                );
            }
            hits.retain(|r| !delta.tombstones.contains(r));
        }
        hits.sort_unstable();
        hits
    }

    /// What a scan reported reading: `(partitions_read, rows_read,
    /// bytes_scanned, delta_bytes_scanned)`.
    fn billed(scan: &SnapshotScan) -> (usize, u64, u64, u64) {
        (
            scan.partitions_read,
            scan.rows_read,
            scan.bytes_scanned,
            scan.delta_bytes_scanned,
        )
    }

    /// What a scan of `pred` must report reading (as [`billed`] lists it),
    /// from the metadata and the page index alone: every partition
    /// `may_match` keeps, base or delta run, is read. A resident scan
    /// (`page_bytes: None`) pays each one's `bytes`. A pooled scan pays,
    /// per surviving base partition, the pages of its blob that each
    /// predicate column's extent touches (the blob's last page is short),
    /// and per surviving delta run its `bytes`; a tautology reads no
    /// payload at all.
    fn expected_bill(
        snap: &TableSnapshot,
        pred: &Predicate,
        page_bytes: Option<u64>,
    ) -> (usize, u64, u64, u64) {
        let (mut parts, mut rows, mut bytes, mut delta_bytes) = (0, 0, 0, 0);
        let payload_free = page_bytes.is_some() && pred.atoms().is_empty();
        let base = snap
            .partitions()
            .iter()
            .enumerate()
            .map(|(i, p)| (Some(i), p));
        let runs = snap.delta().into_iter().flat_map(|d| &d.runs);
        for (index, part) in base.chain(runs.map(|r| (None, r))) {
            if !part.meta.may_match(pred) {
                continue;
            }
            parts += 1;
            rows += part.rows().len() as u64;
            match (page_bytes, index) {
                _ if payload_free => {}
                (Some(page), Some(index)) => {
                    let generation = snap.generation().expect("pooled scans need one");
                    let (_, blob_len) = generation.blob(index as u32).unwrap();
                    let extents = part.extents.as_ref().expect("page index");
                    for col in pred.columns() {
                        let ColumnExtent { offset, len, .. } = extents[col];
                        if len > 0 {
                            let pages = offset / page..=(offset + len - 1) / page;
                            bytes += pages
                                .map(|p| blob_len.min((p + 1) * page) - p * page)
                                .sum::<u64>();
                        }
                    }
                }
                _ => {
                    bytes += part.bytes;
                    if index.is_none() {
                        delta_bytes += part.bytes;
                    }
                }
            }
        }
        (parts, rows, bytes, delta_bytes)
    }

    #[test]
    fn scan_matches_direct_filter_on_any_layout() {
        use crate::delta::{DeltaBuffer, IngestOp, MergePolicy};
        let t = table(200);
        let pred = between(1, 10, 40); // on w = (i*7)%100
        let expected: Vec<u32> = (0..200u32)
            .filter(|&r| t.row_matches(r as usize, &pred))
            .collect();
        // Writes for the second half: two runs (k = 2 keeps them apart),
        // tombstones on base rows 5 and 77 and on delta row 200.
        let mut buf = DeltaBuffer::new(two_col_schema(), 200, MergePolicy::KBinomial { k: 2 });
        let append = |v: i64, w: i64| IngestOp::Append {
            values: vec![Scalar::Int(v), Scalar::Int(w)],
        };
        buf.apply(&[append(500, 20), append(501, 90), append(30, 33)])
            .unwrap();
        buf.apply(&[
            IngestOp::Delete { row: 5 },
            IngestOp::Update {
                row: 77,
                values: vec![Scalar::Int(77), Scalar::Int(12)],
            },
            IngestOp::Delete { row: 200 },
        ])
        .unwrap();
        let mut both_columns = between(0, 20, 90);
        both_columns.push(pred.atoms()[0].clone());
        for (k, assign) in [
            (1, (0..200).map(|_| 0).collect::<Vec<u32>>()),
            (4, (0..200).map(|i| (i / 50) as u32).collect()),
            (8, (0..200).map(|i| (i % 8) as u32).collect()),
        ] {
            let mut snap = TableSnapshot::build(&t, &assign, k, 0, "t");
            let scan = snap.scan(&pred);
            assert_eq!(scan.matches, expected, "k={k}");
            assert!(scan.rows_read >= expected.len() as u64);
            assert_eq!(scan.partitions_total, k);

            // Both entry points share one driver, so neither may serve as
            // the other's oracle: with delta runs and tombstones attached,
            // each is held to the plain filter over live rows and to the
            // bill its metadata and page index imply.
            let root = std::env::temp_dir().join(format!(
                "oreo-snap-oracle-{}-{}",
                std::process::id(),
                rand::random::<u64>()
            ));
            let (store, _) = crate::tiered::TieredStore::create(&root, &mut snap).unwrap();
            let snap = snap.with_delta(buf.overlay());
            assert!(snap.delta().unwrap().runs.len() >= 2);
            let pool = crate::bufpool::BufferPool::new(crate::bufpool::BufferPoolConfig::default());
            for pred in [
                pred.clone(),
                between(0, 0, 600), // every base and delta row's v
                between(0, 490, 510),
                both_columns.clone(),
                Predicate::always_true(),
            ] {
                let want = live_filter(&t, &snap, &pred);
                let mem = snap.scan(&pred);
                assert_eq!(mem.matches, want, "k={k} {pred:?}");
                assert_eq!(billed(&mem), expected_bill(&snap, &pred, None));
                let page = pool.stats().page_bytes;
                for round in ["cold", "warm"] {
                    let pooled = snap.scan_pooled(&pred, &pool).unwrap();
                    assert_eq!(pooled.matches, want, "k={k} {round} {pred:?}");
                    let bill = expected_bill(&snap, &pred, Some(page));
                    assert_eq!(billed(&pooled), bill, "k={k} {round} {pred:?}");
                }
            }
            assert_eq!(
                live_filter(&t, &snap, &Predicate::always_true()).len() as u64,
                snap.live_rows()
            );
            drop(store);
            drop(snap);
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn range_layout_prunes_partitions() {
        let t = table(100);
        // range partition on v: 4 partitions of 25
        let assign: Vec<u32> = (0..100).map(|i| (i / 25) as u32).collect();
        let snap = TableSnapshot::build(&t, &assign, 4, 0, "range");
        let scan = snap.scan(&between(0, 0, 24));
        assert_eq!(scan.partitions_read, 1);
        assert_eq!(scan.rows_read, 25);
        // and the model view agrees with the physical fraction read
        let q = oreo_query::Query::new(between(0, 0, 24));
        assert!((snap.model().cost(&q) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn cell_pin_survives_publish() {
        let t = table(60);
        let a1: Vec<u32> = (0..60).map(|i| (i % 2) as u32).collect();
        let a2: Vec<u32> = (0..60).map(|i| (i / 30) as u32).collect();
        let cell = SnapshotCell::new(TableSnapshot::build(&t, &a1, 2, 0, "mod2"));
        let pinned = cell.pin();
        assert_eq!(pinned.epoch(), 1);
        let old = cell.publish(TableSnapshot::build(&t, &a2, 2, 1, "half"));
        assert_eq!(old.layout(), 0);
        assert_eq!(cell.epoch(), 2);
        // the pinned snapshot is untouched by the publish
        assert_eq!(pinned.layout(), 0);
        assert_eq!(pinned.row_cover(), (0..60u32).collect::<Vec<_>>());
        assert_eq!(cell.pin().layout(), 1);
        assert_eq!(cell.pin().epoch(), 2);
    }

    /// Multi-atom predicate over all three column representations, with a
    /// selective leading column so the AND order has work to skip.
    fn rich_pred() -> Predicate {
        Predicate::new(vec![
            Atom::Between {
                col: 1,
                low: Scalar::Int(10),
                high: Scalar::Int(40),
            },
            Atom::Compare {
                col: 2,
                op: oreo_query::CompareOp::Ge,
                value: Scalar::Float(5.0),
            },
            Atom::InSet {
                col: 3,
                set: vec![Scalar::from("eu"), Scalar::from("apac")],
            },
        ])
    }

    #[test]
    fn kernel_scan_equals_filter_at_chunk_boundaries() {
        // Partition sizes straddling the 1024-row chunk: 1023/1024/1025
        // plus two-chunk sizes, on every column representation.
        for n in [1023i64, 1024, 1025, 2048, 2049] {
            let t = rich_table(n);
            let assign: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
            let snap = TableSnapshot::build(&t, &assign, 2, 0, "mod2");
            let pred = rich_pred();
            let fast = snap.scan(&pred);
            assert_eq!(fast.matches, live_filter(&t, &snap, &pred), "n={n}");
            assert_eq!(billed(&fast), expected_bill(&snap, &pred, None), "n={n}");
            assert_eq!(fast.partitions_covered, 0, "w spans 0..100 in both");
            let expected_chunks: u64 = snap
                .partitions()
                .iter()
                .filter(|p| p.meta.may_match(&pred))
                .map(|p| (p.rows.len() as u64).div_ceil(1024))
                .sum();
            assert_eq!(fast.chunks_evaluated, expected_chunks, "n={n}");
        }
    }

    #[test]
    fn kernel_counters_report_short_circuited_work() {
        let t = rich_table(3000);
        let assign: Vec<u32> = (0..3000).map(|i| (i % 2) as u32).collect();
        let snap = TableSnapshot::build(&t, &assign, 2, 0, "mod2");
        let scan = snap.scan(&rich_pred());
        assert!(scan.chunks_evaluated > 0);
        assert!(
            scan.rows_short_circuited > 0,
            "a selective multi-atom AND must skip later-kernel work"
        );
    }

    #[test]
    fn pooled_empty_predicate_reads_no_payload() {
        let t = rich_table(300);
        let assign: Vec<u32> = (0..300).map(|i| (i % 3) as u32).collect();
        let mut snap = TableSnapshot::build(&t, &assign, 3, 0, "mod3");
        let root = std::env::temp_dir().join(format!(
            "oreo-snap-empty-{}-{}",
            std::process::id(),
            rand::random::<u64>()
        ));
        let (store, _) = crate::tiered::TieredStore::create(&root, &mut snap).unwrap();
        let pool = crate::bufpool::BufferPool::new(crate::bufpool::BufferPoolConfig::default());
        for _round in ["cold", "warm"] {
            let scan = snap.scan_pooled(&Predicate::always_true(), &pool).unwrap();
            assert_eq!(scan.matches, (0..300u32).collect::<Vec<_>>());
            assert_eq!(scan.rows_read, 300);
            assert_eq!((scan.partitions_read, scan.partitions_covered), (3, 3));
            assert_eq!((scan.columns_decoded, scan.chunks_evaluated), (0, 0));
            assert_eq!(scan.bytes_scanned, 0, "tautology needs no column payload");
            assert_eq!(scan.io_cold_bytes, 0);
            assert_eq!(scan.io_cached_bytes, 0);
        }
        drop(store);
        drop(snap);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// `tag BETWEEN 'z' AND 'a'` on a dictionary column matches nothing:
    /// every partition's distinct set prunes it, resident or pooled.
    #[test]
    fn inverted_between_on_a_dictionary_column_returns_no_rows() {
        let t = rich_table(300);
        let assign: Vec<u32> = (0..300).map(|i| (i % 3) as u32).collect();
        let mut snap = TableSnapshot::build(&t, &assign, 3, 0, "mod3");
        let root = std::env::temp_dir().join(format!(
            "oreo-snap-inverted-{}-{}",
            std::process::id(),
            rand::random::<u64>()
        ));
        let (store, _) = crate::tiered::TieredStore::create(&root, &mut snap).unwrap();
        let pool = crate::bufpool::BufferPool::new(crate::bufpool::BufferPoolConfig::default());
        let pred = Predicate::new(vec![Atom::Between {
            col: 3,
            low: Scalar::from("z"),
            high: Scalar::from("a"),
        }]);
        for scan in [snap.scan(&pred), snap.scan_pooled(&pred, &pool).unwrap()] {
            assert!(scan.matches.is_empty());
            assert_eq!(scan.partitions_read, 0);
        }
        drop(store);
        drop(snap);
        let _ = std::fs::remove_dir_all(&root);
    }

    fn two_col_schema() -> Arc<Schema> {
        Arc::new(Schema::from_pairs([
            ("v", ColumnType::Int),
            ("w", ColumnType::Int),
        ]))
    }

    #[test]
    fn delta_aware_scan_unions_runs_and_subtracts_tombstones() {
        use crate::delta::{DeltaBuffer, IngestOp, MergePolicy};
        let t = table(100);
        let assign: Vec<u32> = (0..100).map(|i| (i % 4) as u32).collect();
        let snap = TableSnapshot::build(&t, &assign, 4, 0, "mod4");
        let mut buf = DeltaBuffer::new(two_col_schema(), 100, MergePolicy::KBinomial { k: 2 });
        buf.apply(&[
            IngestOp::Append {
                values: vec![Scalar::Int(200), Scalar::Int(1)],
            },
            IngestOp::Delete { row: 3 },
        ])
        .unwrap();
        buf.apply(&[
            IngestOp::Update {
                row: 10,
                values: vec![Scalar::Int(300), Scalar::Int(2)],
            },
            IngestOp::Append {
                values: vec![Scalar::Int(-5), Scalar::Int(3)],
            },
        ])
        .unwrap();
        // ids: append 200 → 100, update re-append 300 → 101, append -5 → 102;
        // tombstones {3, 10}
        let snap = snap.with_delta(buf.overlay());
        assert_eq!(snap.live_rows(), 100 + 3 - 2);

        let base_hit = snap.scan(&between(0, 0, 99));
        let expected: Vec<u32> = (0..100u32).filter(|r| *r != 3 && *r != 10).collect();
        assert_eq!(base_hit.matches, expected);
        assert!(base_hit.partitions_total > 4, "runs count as partitions");
        // run metadata prunes like base metadata: no delta value is in
        // [0, 99], so the runs cost this scan nothing
        assert_eq!(base_hit.delta_bytes_scanned, 0);

        let delta_hit = snap.scan(&between(0, 150, 400));
        assert_eq!(delta_hit.matches, vec![100, 101]);
        assert!(delta_hit.delta_bytes_scanned > 0, "delta runs evaluated");

        // the plain filter agrees on matches, the metadata on accounting
        let runs = snap.delta().unwrap().runs.len();
        for pred in [
            between(0, 0, 99),
            between(0, 150, 400),
            Predicate::always_true(),
        ] {
            let fast = snap.scan(&pred);
            assert_eq!(fast.matches, live_filter(&t, &snap, &pred), "{pred:?}");
            assert_eq!(billed(&fast), expected_bill(&snap, &pred, None), "{pred:?}");
            assert_eq!(fast.partitions_total, 4 + runs);
        }
        assert_eq!(
            snap.scan(&Predicate::always_true()).matches.len() as u64,
            snap.live_rows()
        );
    }

    #[test]
    fn pooled_delta_scan_matches_memory_and_accounts_io() {
        use crate::delta::{DeltaBuffer, IngestOp, MergePolicy};
        let t = table(120);
        let assign: Vec<u32> = (0..120).map(|i| (i % 3) as u32).collect();
        let mut snap = TableSnapshot::build(&t, &assign, 3, 0, "mod3");
        let root = std::env::temp_dir().join(format!(
            "oreo-snap-delta-{}-{}",
            std::process::id(),
            rand::random::<u64>()
        ));
        let (store, _) = crate::tiered::TieredStore::create(&root, &mut snap).unwrap();
        let mut buf = DeltaBuffer::new(two_col_schema(), 120, MergePolicy::KBinomial { k: 2 });
        buf.apply(&[
            IngestOp::Append {
                values: vec![Scalar::Int(125), Scalar::Int(7)],
            },
            IngestOp::Append {
                values: vec![Scalar::Int(11), Scalar::Int(7)],
            },
            IngestOp::Delete { row: 20 },
        ])
        .unwrap();
        let snap = snap.with_delta(buf.overlay());
        let pool = crate::bufpool::BufferPool::new(crate::bufpool::BufferPoolConfig::default());
        let pred = between(0, 10, 130);
        let mem = snap.scan(&pred);
        assert_eq!(mem.matches, live_filter(&t, &snap, &pred));
        let bill = expected_bill(&snap, &pred, Some(pool.stats().page_bytes));
        for round in 0..2 {
            let pooled = snap.scan_pooled(&pred, &pool).unwrap();
            assert_eq!(pooled.matches, mem.matches, "round {round}");
            assert_eq!(billed(&pooled), bill, "round {round}");
            assert!(pooled.delta_bytes_scanned > 0);
            assert_eq!(
                pooled.io_cold_bytes + pooled.io_cached_bytes + pooled.delta_bytes_scanned,
                pooled.bytes_scanned,
                "delta bytes never travel through the pool"
            );
        }
        // tautology takes every live row without touching any payload
        let taut = snap.scan_pooled(&Predicate::always_true(), &pool).unwrap();
        assert_eq!(taut.matches.len() as u64, snap.live_rows());
        assert_eq!(taut.bytes_scanned, 0);
        assert_eq!(taut.delta_bytes_scanned, 0);
        drop(store);
        drop(snap);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The output stage under the inputs that stress it: a round-robin
    /// layout (every partition's ascending run of matches interleaves with
    /// every other's), a wide range that returns 40 % of the rows, bases
    /// whose ids are dense, folded-but-dense and folded-sparse, and
    /// tombstones on base rows (the extreme ids included) and on rows of
    /// both delta runs. Both entry points are held to the plain filter.
    #[test]
    fn wide_scans_assemble_interleaved_sparse_and_tombstoned_results() {
        use crate::delta::{DeltaBuffer, IngestOp, MergePolicy};
        let n = 3000u32;
        let t = table(i64::from(n));
        let assign: Vec<u32> = (0..n).map(|i| i % 7).collect();
        let wide = between(1, 0, 39); // w = (i*7)%100
        for (label, ids) in [
            ("unfolded", (0..n).collect::<Vec<u32>>()),
            ("folded-dense", (0..n).map(|i| 40 + 3 * i).collect()),
            ("folded-sparse", (0..n).map(|i| 5 + 977 * i).collect()),
        ] {
            let mut snap = TableSnapshot::build_with_rows(&t, &ids, &assign, 7, 0, label);
            let root = std::env::temp_dir().join(format!(
                "oreo-snap-wide-{}-{}",
                std::process::id(),
                rand::random::<u64>()
            ));
            let (store, _) = crate::tiered::TieredStore::create(&root, &mut snap).unwrap();
            let first_new = ids[ids.len() - 1] + 1;
            let mut buf = DeltaBuffer::new(
                two_col_schema(),
                u64::from(first_new),
                MergePolicy::KBinomial { k: 2 },
            );
            let appends = |from: i64| -> Vec<IngestOp> {
                (from..from + 40)
                    .map(|j| IngestOp::Append {
                        values: vec![Scalar::Int(10_000 + j), Scalar::Int((j * 13) % 100)],
                    })
                    .collect()
            };
            buf.apply(&appends(0)).unwrap();
            buf.apply(&appends(40)).unwrap();
            let mut deletes: Vec<IngestOp> = ids
                .iter()
                .step_by(11)
                .chain([&ids[ids.len() - 1], &ids[1500]])
                .map(|&row| IngestOp::Delete { row })
                .collect();
            // rows of the first and of the second delta run
            deletes.extend([0, 1, 39, 40, 79].map(|j| IngestOp::Delete { row: first_new + j }));
            buf.apply(&deletes).unwrap();
            let snap = snap.with_delta(buf.overlay());
            assert!(snap.delta().unwrap().runs.len() >= 2);
            let pool = crate::bufpool::BufferPool::new(crate::bufpool::BufferPoolConfig::default());
            for pred in [
                wide.clone(),
                between(0, 0, 20_000), // every base and delta row
                Predicate::always_true(),
            ] {
                let want = live_filter_with_rows(&t, &ids, &snap, &pred);
                assert!(
                    want.len() as u64 * 10 >= snap.live_rows() * 3,
                    "{label}: a wide scan returns at least 30 % of the live rows"
                );
                assert_eq!(snap.scan(&pred).matches, want, "{label} {pred:?}");
                for round in ["cold", "warm"] {
                    let pooled = snap.scan_pooled(&pred, &pool).unwrap();
                    assert_eq!(pooled.matches, want, "{label} {round} {pred:?}");
                }
            }
            drop(store);
            drop(snap);
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    /// What the assembly step replaced, verbatim: comparison sort, then one
    /// binary search of the tombstones per match.
    fn assemble_oracle(mut matches: Vec<u32>, tombstones: &[u32]) -> Vec<u32> {
        matches.sort_unstable();
        matches.retain(|r| tombstones.binary_search(r).is_err());
        matches
    }

    /// Where the maximal strictly ascending runs of `matches` begin — the
    /// cut that lets any id list at all, repeats included, meet
    /// [`assemble_runs`]' contract.
    fn maximal_runs(matches: &[u32]) -> Vec<usize> {
        (0..matches.len())
            .filter(|&i| i == 0 || matches[i - 1] >= matches[i])
            .collect()
    }

    fn assembled(mut matches: Vec<u32>, tombstones: &[u32]) -> Vec<u32> {
        let run_starts = maximal_runs(&matches);
        assemble_runs(&mut matches, &run_starts, tombstones);
        matches
    }

    /// [`bitmap_assemble`] over the ids' own span, as [`assemble_runs`]
    /// calls it.
    fn bitmap_takes(matches: &mut Vec<u32>) -> bool {
        let (min, max) = (
            *matches.iter().min().unwrap(),
            *matches.iter().max().unwrap(),
        );
        bitmap_assemble(matches, min, max, &[])
    }

    /// A covered partition's columns are not decoded, but a payload that
    /// came off disk is still checksummed: one flipped byte in a column
    /// the metadata decides makes the cold scan `Corrupt`, and over clean
    /// bytes the warm scan answers from row ids alone.
    #[test]
    fn covered_cold_read_still_verifies() {
        let t = table(4000);
        // range layout on v: each partition holds 1000 consecutive values
        let assign: Vec<u32> = (0..4000).map(|i| i / 1000).collect();
        let mut snap = TableSnapshot::build(&t, &assign, 4, 0, "range");
        let root = std::env::temp_dir().join(format!(
            "oreo-snap-covered-{}-{}",
            std::process::id(),
            rand::random::<u64>()
        ));
        let (store, _) = crate::tiered::TieredStore::create(&root, &mut snap).unwrap();
        // covers partitions 1 and 2 entirely, cuts into 0 and 3
        let pred = between(0, 500, 3499);
        let want = live_filter(&t, &snap, &pred);
        assert_eq!(want, (500..3500).collect::<Vec<u32>>());
        let config = crate::bufpool::BufferPoolConfig::default();

        let pool = crate::bufpool::BufferPool::new(config);
        let cold = snap.scan_pooled(&pred, &pool).unwrap();
        assert_eq!(cold.matches, want);
        assert_eq!((cold.partitions_read, cold.partitions_covered), (4, 2));
        assert_eq!(cold.columns_decoded, 2, "only the two cut partitions");
        assert_eq!(cold.chunks_evaluated, 2);
        assert!(cold.io_cold_bytes > 0 && cold.io_cached_bytes == 0);
        let mem = snap.scan(&pred);
        assert_eq!((mem.matches, mem.partitions_covered), (want.clone(), 2));
        assert_eq!((mem.columns_decoded, mem.chunks_evaluated), (0, 2));
        // wholly inside the layout's cuts: nothing is decoded, cold or
        // warm, and what was read is what any scan of those partitions reads
        let inner = between(0, 1000, 2999);
        let bill = expected_bill(&snap, &inner, Some(config.page_bytes as u64));
        assert!(bill.2 > 0, "covered partitions are read all the same");
        for round in ["cold", "warm"] {
            let scan = snap.scan_pooled(&inner, &pool).unwrap();
            assert_eq!(scan.matches, (1000..3000).collect::<Vec<u32>>(), "{round}");
            assert_eq!((scan.partitions_read, scan.partitions_covered), (2, 2));
            assert_eq!((scan.columns_decoded, scan.chunks_evaluated), (0, 0));
            assert_eq!(billed(&scan), bill, "{round}");
        }

        // flip one byte in the middle of covered partition 1's `v` payload
        let generation = Arc::clone(snap.generation().unwrap());
        let (blob_off, _) = generation.blob(1).unwrap();
        let extent = snap.partitions()[1].extents.as_ref().unwrap()[0];
        let segment = generation.dir().join("segment");
        let mut bytes = std::fs::read(&segment).unwrap();
        bytes[(blob_off + extent.offset + extent.len / 2) as usize] ^= 0x01;
        std::fs::write(&segment, &bytes).unwrap();
        let pool = crate::bufpool::BufferPool::new(config);
        let err = snap.scan_pooled(&inner, &pool).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        bytes[(blob_off + extent.offset + extent.len / 2) as usize] ^= 0x01;
        std::fs::write(&segment, &bytes).unwrap();
        let pool = crate::bufpool::BufferPool::new(config);
        assert_eq!(snap.scan_pooled(&inner, &pool).unwrap().matches.len(), 2000);
        drop(store);
        drop(snap);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A pooled scan reads an undecided `Int` column as its packed frames:
    /// a frame whose header bound lies outside or inside the range is
    /// answered without unpacking, and the result and the bill are the
    /// plain filter's and the page index's. One partition of `v = 0..6000` — six frames of 1 024
    /// consecutive values — cut by `1500..=4000`.
    #[test]
    fn pooled_scan_decides_frames_by_header() {
        let t = table(6000);
        let mut snap = TableSnapshot::build(&t, &vec![0; 6000], 1, 0, "one");
        let root = std::env::temp_dir().join(format!(
            "oreo-snap-frames-{}-{}",
            std::process::id(),
            rand::random::<u64>()
        ));
        let (store, _) = crate::tiered::TieredStore::create(&root, &mut snap).unwrap();
        let pred = between(0, 1500, 4000);
        let want = live_filter(&t, &snap, &pred);
        let pool = crate::bufpool::BufferPool::new(crate::bufpool::BufferPoolConfig::default());
        for round in ["cold", "warm"] {
            let scan = snap.scan_pooled(&pred, &pool).unwrap();
            assert_eq!(scan.matches, want, "{round}");
            // frames 0, 4 and 5 lie outside, frame 2 inside; 1 and 3 straddle
            assert_eq!((scan.frames_decided, scan.chunks_evaluated), (4, 6));
            assert_eq!(scan.columns_decoded, 1);
            let bill = expected_bill(&snap, &pred, Some(pool.stats().page_bytes));
            assert_eq!(billed(&scan), bill, "{round}");
        }
        assert_eq!(
            snap.scan(&pred).frames_decided,
            0,
            "resident columns are decoded"
        );
        drop(store);
        drop(snap);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// `n` distinct ids from `start` with the given stride, dealt
    /// round-robin into `k` ascending runs and concatenated — the shape a
    /// `k`-partition scan hands the assembly step.
    fn interleaved_runs(start: u32, stride: u32, n: usize, k: usize) -> Vec<u32> {
        let ids: Vec<u32> = (0..n as u32).map(|i| start + i * stride).collect();
        (0..k)
            .flat_map(|run| ids.iter().copied().skip(run).step_by(k))
            .collect()
    }

    #[test]
    fn assemble_matches_equals_sort_then_binary_search_retain() {
        // Around the small-result threshold, unsorted (3 runs) and sorted,
        // dense (stride 1 → bitmap) and sparse (stride 1000 → fallback).
        for n in [0usize, 1, 2, 63, 64, 65, 1000] {
            for stride in [1u32, 3, 1000] {
                for k in [1usize, 3] {
                    let m = interleaved_runs(10, stride, n, k);
                    let every_other: Vec<u32> =
                        (0..n as u32).step_by(2).map(|i| 10 + i * stride).collect();
                    let all = assemble_oracle(m.clone(), &[]);
                    let first_last: Vec<u32> = match (all.first(), all.last()) {
                        (Some(&a), Some(&b)) if a != b => vec![a, b],
                        (Some(&a), _) => vec![a],
                        _ => vec![],
                    };
                    for tombs in [
                        &[][..],
                        &[0, 5, 9],                // entirely below the matches
                        &[u32::MAX - 1, u32::MAX], // entirely above
                        &[0, 9, u32::MAX],         // straddling, none inside
                        &first_last,               // exactly the extremes
                        &every_other,
                        &all, // naming every match
                    ] {
                        assert_eq!(
                            assembled(m.clone(), tombs),
                            assemble_oracle(m.clone(), tombs),
                            "n={n} stride={stride} k={k} tombs={}",
                            tombs.len()
                        );
                    }
                    if k > 1 && n > k {
                        assert!(!m.is_sorted(), "the unsorted cases must be unsorted");
                    }
                }
            }
        }
        // The dense cases above really take the bitmap, the sparse ones and
        // the tiny ones really refuse it.
        assert!(bitmap_takes(&mut interleaved_runs(10, 1, 64, 3)));
        assert!(!bitmap_takes(&mut interleaved_runs(10, 1, 63, 3)));
        assert!(!bitmap_takes(&mut interleaved_runs(10, 1000, 1000, 3)));

        // Duplicates are kept (the parent kept them), dense or not, and a
        // tombstone removes every copy.
        let mut dups = interleaved_runs(0, 1, 200, 4);
        dups.extend_from_slice(&[7, 7, 150, 0, 199]);
        let mut refused = dups.clone();
        assert!(!bitmap_takes(&mut refused), "duplicates refuse the bitmap");
        assert_eq!(refused, dups, "a refusal leaves the matches untouched");
        for tombs in [&[][..], &[7], &[0, 150, 199]] {
            assert_eq!(
                assembled(dups.clone(), tombs),
                assemble_oracle(dups.clone(), tombs)
            );
        }
        assert_eq!(assembled(vec![5, 5, 5], &[]), vec![5, 5, 5]);
        assert_eq!(assembled(vec![5, 5, 5], &[5]), Vec::<u32>::new());

        // A span touching both ends of the id space: sparse at any size a
        // test can hold, and dense at the top edge where `min + offset`
        // must not overflow.
        let ends = vec![u32::MAX, 0, 17, u32::MAX - 1];
        for tombs in [&[][..], &[0], &[u32::MAX], &[0, u32::MAX]] {
            assert_eq!(
                assembled(ends.clone(), tombs),
                assemble_oracle(ends.clone(), tombs)
            );
        }
        let mut wide = interleaved_runs(0, 1, 100, 3);
        wide.extend(interleaved_runs(u32::MAX - 99, 1, 100, 3));
        assert_eq!(
            assembled(wide.clone(), &[0, u32::MAX]),
            assemble_oracle(wide, &[0, u32::MAX])
        );
        let top = interleaved_runs(u32::MAX - 499, 1, 500, 7);
        assert!(bitmap_takes(&mut top.clone()));
        for tombs in [&[][..], &[u32::MAX], &[u32::MAX - 499, u32::MAX - 250]] {
            assert_eq!(
                assembled(top.clone(), tombs),
                assemble_oracle(top.clone(), tombs)
            );
        }
        let bottom = interleaved_runs(0, 1, 500, 7);
        assert_eq!(
            assembled(bottom.clone(), &[0, 499, 500]),
            assemble_oracle(bottom, &[0, 499, 500])
        );
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn atom_any() -> impl Strategy<Value = Atom> {
            prop_oneof![
                // int range on v (col 0, domain 0..n) or w (col 1, 0..100)
                (0usize..2, -20i64..120, 0i64..80).prop_map(|(col, lo, span)| Atom::Between {
                    col,
                    low: Scalar::Int(lo),
                    high: Scalar::Int(lo + span),
                }),
                // possibly-contradictory compare on w
                (-20i64..120, 0usize..5).prop_map(|(v, op)| Atom::Compare {
                    col: 1,
                    op: [
                        oreo_query::CompareOp::Lt,
                        oreo_query::CompareOp::Le,
                        oreo_query::CompareOp::Gt,
                        oreo_query::CompareOp::Ge,
                        oreo_query::CompareOp::Eq,
                    ][op],
                    value: Scalar::Int(v),
                }),
                // float bound on f (col 2)
                (-10i64..80).prop_map(|v| Atom::Compare {
                    col: 2,
                    op: oreo_query::CompareOp::Le,
                    value: Scalar::Float(v as f64 / 2.0),
                }),
                // categorical membership on tag (col 3), may include misses
                proptest::collection::vec(0usize..5, 1..3).prop_map(|idx| Atom::InSet {
                    col: 3,
                    set: idx
                        .into_iter()
                        .map(|i| Scalar::from(["eu", "us", "apac", "latam", "none"][i]))
                        .collect(),
                }),
            ]
        }

        /// 0 atoms = tautology; repeated columns and contradictions arise
        /// naturally from the strategy.
        fn pred_any() -> impl Strategy<Value = Predicate> {
            proptest::collection::vec(atom_any(), 0..4).prop_map(Predicate::new)
        }

        /// Match lists of every shape the assembly step distinguishes:
        /// dense distinct ids dealt into runs (the bitmap), dense ids with
        /// repeats (the duplicate refusal), and ids from the whole `u32`
        /// space (the sparse refusal) — each anywhere in the id space,
        /// including flush against `0` and `u32::MAX`.
        fn matches_any() -> impl Strategy<Value = Vec<u32>> {
            let base = prop_oneof![Just(0u32), Just(u32::MAX - 6_000), 0u32..u32::MAX - 6_000];
            prop_oneof![
                (
                    base.clone(),
                    proptest::collection::btree_set(0u32..6_000, 0..400),
                    1usize..12,
                    any::<u64>(),
                )
                    .prop_map(|(base, set, k, salt)| {
                        let mut runs = vec![Vec::new(); k];
                        for id in set {
                            let run = (id as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
                            runs[run as usize % k].push(base + id);
                        }
                        runs.concat()
                    }),
                (base, proptest::collection::vec(0u32..2_000, 0..300))
                    .prop_map(|(base, ids)| ids.into_iter().map(|id| base + id).collect()),
                proptest::collection::vec(any::<u32>(), 0..200),
            ]
        }

        proptest! {
            /// The linear-time assembly step is indistinguishable from the
            /// `sort_unstable` + `retain(binary_search)` it replaced, for
            /// arbitrary matches and sorted-unique tombstones drawn both
            /// from the matches themselves and from around them.
            #[test]
            fn assemble_matches_equals_oracle(
                matches in matches_any(),
                named in proptest::collection::vec(any::<usize>(), 0..120),
                around in proptest::collection::btree_set(any::<u32>(), 0..40),
                near in proptest::collection::vec(-3i64..4, 0..40),
            ) {
                let mut tombstones: Vec<u32> = around.into_iter().collect();
                if !matches.is_empty() {
                    tombstones.extend(named.iter().map(|&i| matches[i % matches.len()]));
                    tombstones.extend(near.iter().enumerate().filter_map(|(i, &d)| {
                        u32::try_from(matches[i % matches.len()] as i64 + d).ok()
                    }));
                }
                tombstones.sort_unstable();
                tombstones.dedup();
                prop_assert_eq!(
                    assembled(matches.clone(), &tombstones),
                    assemble_oracle(matches, &tombstones)
                );
            }
        }

        /// Cell `v` of the random tables below, by column type (0 int,
        /// 1 float, else dictionary string): floats hold NaN now and then.
        fn cell(ty: usize, v: i64) -> Scalar {
            match ty {
                0 => Scalar::Int(v - 3),
                1 if v.rem_euclid(11) == 7 => Scalar::Float(f64::NAN),
                1 => Scalar::Float(v as f64 / 2.0 - 1.0),
                _ => Scalar::from(format!("w{v:03}")),
            }
        }

        /// The value just below (`-1`) or just above (`1`) `s` in its
        /// type's order, or `s` itself (`0`).
        fn nudge(s: &Scalar, by: i8) -> Scalar {
            match (s, by) {
                (_, 0) => s.clone(),
                (Scalar::Int(v), _) => Scalar::Int(v + i64::from(by)),
                (Scalar::Float(f), -1) => Scalar::Float(f.next_down()),
                (Scalar::Float(f), _) => Scalar::Float(f.next_up()),
                (Scalar::Str(w), -1) => {
                    let mut below = w.clone().into_bytes();
                    *below.last_mut().expect("non-empty words") -= 1;
                    Scalar::Str(String::from_utf8(below).expect("ascii words"))
                }
                (Scalar::Str(w), _) => Scalar::Str(format!("{w}!")),
            }
        }

        /// How one predicate of `covered_partitions_scan_exactly` is cut
        /// from a partition's own metadata.
        #[derive(Clone, Debug)]
        struct Probe {
            /// Partition and column whose statistics it is built from.
            part: usize,
            col: usize,
            /// 0 two compares, 1 `BETWEEN`, 2 lower bound only, 3 upper
            /// bound only, 4 `IN` the distinct set, 5 `IN` all but one of
            /// it, 6 `IN` it and a stranger.
            form: usize,
            /// Where the bounds sit against the stored min and max.
            lo_by: i8,
            hi_by: i8,
            lo_open: bool,
            hi_open: bool,
            /// Which member form 5 leaves out.
            drop: usize,
            /// A second atom, on another column: wide open (the metadata
            /// decides it) or cutting (it must be evaluated).
            second: Option<(usize, bool)>,
        }

        fn probe_any() -> impl Strategy<Value = Probe> {
            (
                (0usize..8, 0usize..4, 0usize..7, 0usize..64),
                (-1i8..=1, -1i8..=1, any::<bool>(), any::<bool>()),
                (any::<bool>(), 0usize..4, any::<bool>()),
            )
                .prop_map(|((part, col, form, drop), bounds, second)| Probe {
                    part,
                    col,
                    form,
                    lo_by: bounds.0,
                    hi_by: bounds.1,
                    lo_open: bounds.2,
                    hi_open: bounds.3,
                    drop,
                    second: second.0.then_some((second.1, second.2)),
                })
        }

        /// The atoms of `probe` against `snap`, whose base is `t`.
        fn probe_atoms(probe: &Probe, snap: &TableSnapshot, t: &Table) -> Vec<Atom> {
            let live: Vec<&SnapshotPartition> = snap
                .partitions()
                .iter()
                .filter(|p| !p.rows().is_empty())
                .collect();
            let part = live[probe.part % live.len()];
            let col = probe.col % t.num_columns();
            let stats = &part.meta.columns[col];
            let (min, max) = stats.range.clone().expect("non-empty partition");
            let low = nudge(&min, probe.lo_by);
            let high = nudge(&max, probe.hi_by);
            let compare = |op, value| Atom::Compare { col, op, value };
            let lower = compare(
                [oreo_query::CompareOp::Ge, oreo_query::CompareOp::Gt][usize::from(probe.lo_open)],
                low.clone(),
            );
            let upper = compare(
                [oreo_query::CompareOp::Le, oreo_query::CompareOp::Lt][usize::from(probe.hi_open)],
                high.clone(),
            );
            // The values the partition really holds: its distinct set when
            // kept, else (past the cap) read off the column.
            let held: Vec<Scalar> = match &stats.distinct {
                Some(set) => set.iter().cloned().collect(),
                None => {
                    let mut all: Vec<Scalar> = (0..part.data.num_rows())
                        .map(|r| part.data.scalar(r, col))
                        .collect();
                    all.sort();
                    all.dedup();
                    all
                }
            };
            let mut atoms = match probe.form {
                // (an inverted BETWEEN is spelled as two compares:
                // `Atom::may_match_set` hands its bounds to
                // `BTreeSet::range`, which panics on them)
                1 if low <= high => vec![Atom::Between { col, low, high }],
                0 | 1 => vec![lower, upper],
                2 => vec![lower],
                3 => vec![upper],
                4 => vec![Atom::InSet { col, set: held }],
                5 => {
                    let mut set = held;
                    set.remove(probe.drop % set.len());
                    // an empty IN list is not a predicate anyone writes
                    set.push(nudge(&max, 1));
                    vec![Atom::InSet { col, set }]
                }
                _ => {
                    let mut set = held;
                    set.push(nudge(&min, -1));
                    vec![Atom::InSet { col, set }]
                }
            };
            if let Some((other, wide)) = probe.second {
                let col = other % t.num_columns();
                let (min, max) = part.meta.columns[col].range.clone().expect("non-empty");
                atoms.push(if wide {
                    Atom::Between {
                        col,
                        low: nudge(&min, -1),
                        high: nudge(&max, 1),
                    }
                } else {
                    Atom::Compare {
                        col,
                        op: oreo_query::CompareOp::Lt,
                        value: max,
                    }
                });
            }
            atoms
        }

        proptest! {
            /// Answering a partition from its metadata never changes an
            /// answer: predicates cut from the partitions' own statistics
            /// — bounds exactly on, one below and one above a stored min
            /// and max, open and closed; `IN` lists equal to, one short of
            /// and one past a distinct set; a second column the metadata
            /// decides or does not — over int / float-with-NaN / dictionary
            /// columns, one of them at the distinct-set cap and one just
            /// past it, on range, mod-k and cut-by-value layouts, with
            /// delta runs and tombstones attached, return the plain filter
            /// over the live rows through both entry points, cold and warm,
            /// and read what the metadata and the page index say they read.
            #[test]
            fn covered_partitions_scan_exactly(
                types in proptest::collection::vec(0usize..3, 1..5),
                spreads in proptest::collection::vec(0usize..7, 4),
                n in 1usize..400,
                k in 1usize..7,
                layout in (0usize..3, any::<bool>()),
                page_pow in 6u32..13,
                probes in proptest::collection::vec(probe_any(), 1..7),
                dead in proptest::collection::vec(any::<u32>(), 0..12),
            ) {
                use crate::delta::{DeltaBuffer, IngestOp, MergePolicy};
                use crate::partition::DEFAULT_DISTINCT_CAP;
                const CAP: i64 = DEFAULT_DISTINCT_CAP as i64;
                let (layout, big_first) = layout;
                let spreads: Vec<i64> = spreads
                    .iter()
                    .map(|&s| [1, 2, 3, CAP, CAP + 1, CAP + 2, 500][s])
                    .collect();
                let schema = Arc::new(Schema::from_pairs(types.iter().enumerate().map(
                    |(c, &ty)| {
                        let ty = [ColumnType::Int, ColumnType::Float, ColumnType::Str][ty];
                        (format!("c{c}"), ty)
                    },
                )));
                let row = |r: i64| -> Vec<Scalar> {
                    let cells = types.iter().zip(&spreads);
                    cells.map(|(&ty, &spread)| cell(ty, r % spread)).collect()
                };
                let mut b = TableBuilder::new(Arc::clone(&schema));
                (0..n as i64).for_each(|r| b.push_row(&row(r)));
                let t = b.finish();
                // Range: consecutive runs of the first column's order.
                // Mod-k: round-robin. Cut by value: one partition per band
                // of the first column's values, as a qd-tree leaf is. With
                // `big_first` the leading rows all land in partition 0, so
                // a column of spread s <= CAP + 2 shows it exactly s values.
                let mut by_value: Vec<usize> = (0..n).collect();
                by_value.sort_by_key(|&r| t.scalar(r, 0));
                let mut rank = vec![0usize; n];
                by_value.iter().enumerate().for_each(|(at, &r)| rank[r] = at);
                let assignment: Vec<u32> = (0..n)
                    .map(|r| match layout {
                        _ if big_first && r < 2 * (DEFAULT_DISTINCT_CAP + 2) => 0,
                        0 => (rank[r] * k / n) as u32,
                        1 => (r % k) as u32,
                        _ => (r as i64 % spreads[0] * k as i64 / spreads[0]) as u32,
                    })
                    .collect();
                let mut snap = TableSnapshot::build(&t, &assignment, k, 0, "p");
                let root = std::env::temp_dir().join(format!(
                    "oreo-snap-cover-{}-{}",
                    std::process::id(),
                    rand::random::<u64>()
                ));
                let (store, _) = crate::tiered::TieredStore::create(&root, &mut snap).unwrap();
                // Two delta runs of rows from the same domains, tombstones
                // on base and delta rows.
                let mut buf = DeltaBuffer::new(
                    Arc::clone(&schema),
                    n as u64,
                    MergePolicy::KBinomial { k: 2 },
                );
                for batch in 0..2i64 {
                    let appends: Vec<IngestOp> = (0..5)
                        .map(|j| IngestOp::Append { values: row(batch * 131 + j * 17) })
                        .collect();
                    buf.apply(&appends).unwrap();
                }
                let deletes: Vec<IngestOp> = dead
                    .iter()
                    .map(|&d| IngestOp::Delete { row: d % (n as u32 + 10) })
                    .collect();
                buf.apply(&deletes).unwrap();
                let snap = snap.with_delta(buf.overlay());
                let page_bytes = 1usize << page_pow;
                let pool = crate::bufpool::BufferPool::new(crate::bufpool::BufferPoolConfig {
                    capacity_bytes: 64 * page_bytes as u64,
                    page_bytes,
                });
                for probe in &probes {
                    let pred = Predicate::new(probe_atoms(probe, &snap, &t));
                    let want = live_filter(&t, &snap, &pred);
                    let mem = snap.scan(&pred);
                    prop_assert_eq!(&mem.matches, &want, "scan {:?}", pred);
                    prop_assert!(mem.partitions_covered <= mem.partitions_read);
                    prop_assert_eq!(mem.columns_decoded, 0);
                    prop_assert_eq!(billed(&mem), expected_bill(&snap, &pred, None));
                    let columns = pred.columns().len();
                    let bill = expected_bill(&snap, &pred, Some(page_bytes as u64));
                    for round in ["cold", "warm"] {
                        let pooled = snap.scan_pooled(&pred, &pool).unwrap();
                        prop_assert_eq!(&pooled.matches, &want, "{} {:?}", round, pred);
                        prop_assert_eq!(pooled.partitions_covered, mem.partitions_covered);
                        prop_assert_eq!(pooled.chunks_evaluated, mem.chunks_evaluated);
                        prop_assert!(
                            pooled.columns_decoded <= (pooled.partitions_read * columns) as u64
                        );
                        prop_assert_eq!(billed(&pooled), bill, "{} {:?}", round, pred);
                    }
                }
                drop(store);
                drop(snap);
                let _ = std::fs::remove_dir_all(&root);
            }
        }

        /// Runs for `assemble_runs_equals_oracle`: strictly ascending
        /// pieces, empty ones among them, in a chosen relation to each
        /// other.
        fn runs_any() -> impl Strategy<Value = Vec<Vec<u32>>> {
            let base = prop_oneof![Just(0u32), Just(u32::MAX - 9_000), 0u32..u32::MAX - 9_000];
            let ids = proptest::collection::btree_set(0u32..8_000, 0..500);
            prop_oneof![
                // one run, possibly empty
                (base.clone(), ids.clone())
                    .prop_map(|(base, set)| vec![set.into_iter().map(|id| base + id).collect()]),
                // consecutive slices of one ascending list, cut anywhere,
                // empty slices included: already in order
                (
                    base.clone(),
                    ids.clone(),
                    proptest::collection::vec(0usize..500, 0..6)
                )
                    .prop_map(|(base, set, mut cuts)| {
                        let all: Vec<u32> = set.into_iter().map(|id| base + id).collect();
                        cuts.iter_mut().for_each(|c| *c = (*c).min(all.len()));
                        cuts.sort_unstable();
                        let starts = [0].into_iter().chain(cuts.iter().copied());
                        let ends = cuts.iter().copied().chain([all.len()]);
                        starts.zip(ends).map(|(s, e)| all[s..e].to_vec()).collect()
                    }),
                // ids dealt into k runs by a hash: interleaved, dense
                (base.clone(), ids.clone(), 1usize..12, any::<u64>()).prop_map(
                    |(base, set, k, salt)| {
                        let mut runs = vec![Vec::new(); k];
                        for id in set {
                            let run = (id as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
                            runs[run as usize % k].push(base + id);
                        }
                        runs
                    }
                ),
                // the same with each run's last id also opening the next
                // run: neighbours share an endpoint, some ids occur twice
                (base, ids, 2usize..6).prop_map(|(base, set, k)| {
                    let all: Vec<u32> = set.into_iter().map(|id| base + id).collect();
                    let len = all.len().div_ceil(k).max(1);
                    let mut runs: Vec<Vec<u32>> = all.chunks(len).map(<[u32]>::to_vec).collect();
                    for i in 1..runs.len() {
                        let shared = *runs[i - 1].last().expect("chunks are non-empty");
                        runs[i].insert(0, shared);
                    }
                    runs.rotate_left(1);
                    runs
                }),
                // ids from the whole u32 space: too sparse for a bitmap
                proptest::collection::vec(
                    proptest::collection::btree_set(any::<u32>(), 0..60),
                    0..5,
                )
                .prop_map(|runs| runs.into_iter().map(|r| r.into_iter().collect()).collect()),
            ]
        }

        proptest! {
            /// Ordering a scan's runs from their ends is indistinguishable
            /// from sorting their concatenation and dropping the
            /// tombstoned ids one binary search at a time: no run, empty
            /// runs, one run, runs in order, interleaved runs, runs
            /// sharing an endpoint id, sparse ids that refuse the bitmap;
            /// tombstones named from the ids, next to them, and anywhere.
            #[test]
            fn assemble_runs_equals_oracle(
                runs in runs_any(),
                named in proptest::collection::vec(any::<usize>(), 0..120),
                around in proptest::collection::btree_set(any::<u32>(), 0..40),
                near in proptest::collection::vec(-3i64..4, 0..40),
            ) {
                let mut run_starts = Vec::new();
                let mut matches = Vec::new();
                for run in &runs {
                    run_starts.push(matches.len());
                    matches.extend_from_slice(run);
                }
                let mut tombstones: Vec<u32> = around.into_iter().collect();
                if !matches.is_empty() {
                    tombstones.extend(named.iter().map(|&i| matches[i % matches.len()]));
                    tombstones.extend(near.iter().enumerate().filter_map(|(i, &d)| {
                        u32::try_from(matches[i % matches.len()] as i64 + d).ok()
                    }));
                }
                tombstones.sort_unstable();
                tombstones.dedup();
                let want = assemble_oracle(matches.clone(), &tombstones);
                assemble_runs(&mut matches, &run_starts, &tombstones);
                prop_assert_eq!(matches, want);
            }
        }

        proptest! {
            /// The metadata `build` derives from each partition's gathered
            /// columns is, bit for bit, what `build_metadata` derives from
            /// the base table and the assignment: random schemas (int,
            /// float with NaN, dictionary strings), a partition holding
            /// most rows beside empty ones, columns whose big partition
            /// holds exactly `DEFAULT_DISTINCT_CAP` distinct values and one
            /// more, global row ids given and not.
            #[test]
            fn group_metadata_equals_build_metadata(
                types in proptest::collection::vec(0usize..3, 1..5),
                spreads in proptest::collection::vec(0usize..7, 4),
                n in 0usize..300,
                k in 1usize..7,
                scatter in proptest::collection::vec(0u32..12, 1..40),
                with_ids in any::<bool>(),
            ) {
                use crate::partition::{build_metadata, DEFAULT_DISTINCT_CAP};
                const CAP: i64 = DEFAULT_DISTINCT_CAP as i64;
                let spreads: Vec<i64> = spreads
                    .iter()
                    .map(|&s| [1, 2, CAP - 1, CAP, CAP + 1, CAP + 2, 500][s])
                    .collect();
                let schema = Arc::new(Schema::from_pairs(types.iter().enumerate().map(
                    |(c, &ty)| {
                        let ty = [ColumnType::Int, ColumnType::Float, ColumnType::Str][ty];
                        (format!("c{c}"), ty)
                    },
                )));
                let mut b = TableBuilder::new(Arc::clone(&schema));
                for r in 0..n as i64 {
                    let row: Vec<Scalar> = types
                        .iter()
                        .zip(&spreads)
                        .map(|(&ty, &spread)| {
                            let v = r % spread;
                            match ty {
                                0 => Scalar::Int(v - 3),
                                1 if v % 11 == 7 => Scalar::Float(f64::NAN),
                                1 => Scalar::Float(v as f64 / 2.0 - 1.0),
                                _ => Scalar::from(format!("w{v:03}")),
                            }
                        })
                        .collect();
                    b.push_row(&row);
                }
                let t = b.finish();
                // The first 2·(CAP + 2) rows all land in partition 0, so a
                // column of spread s ≤ CAP + 2 shows it exactly s distinct
                // values; the rest scatter, partition k − 1 staying empty.
                let live = (k - 1).max(1) as u32;
                let assignment: Vec<u32> = (0..n)
                    .map(|r| match scatter[r % scatter.len()] {
                        _ if r < 2 * (DEFAULT_DISTINCT_CAP + 2) => 0,
                        s if s < 6 => 0,
                        s => s % live,
                    })
                    .collect();
                let ids: Vec<u32> = (0..n as u32).map(|r| r * 3 + 1).collect();
                let snap = if with_ids {
                    TableSnapshot::build_with_rows(&t, &ids, &assignment, k, 9, "g")
                } else {
                    TableSnapshot::build(&t, &assignment, k, 9, "g")
                };
                let want_meta = build_metadata(&t, &assignment, k);
                let got_meta: Vec<_> = snap.partitions().iter().map(|p| p.meta.clone()).collect();
                prop_assert_eq!(&got_meta, &want_meta);
                let want = LayoutModel::new(9, "g", want_meta);
                let got = snap.model();
                prop_assert_eq!(got.total_rows().to_bits(), want.total_rows().to_bits());
                prop_assert_eq!((got.id(), got.name()), (want.id(), want.name()));
            }
        }

        proptest! {
            /// Snapshot build never loses or duplicates rows, whatever the
            /// assignment, and the vectorized scan returns exactly the plain
            /// filter's row set and reads what the metadata says it reads —
            /// over random layouts, chunk-straddling row counts, and
            /// predicates including empty, contradictory and multi-atom
            /// conjunctions over every physical column representation.
            #[test]
            fn build_and_scan_preserve_row_sets(
                n in 1usize..2200,
                k in 1usize..6,
                seedish in proptest::collection::vec(0u32..6, 1..120),
                pred in pred_any(),
            ) {
                let t = rich_table(n as i64);
                let assignment: Vec<u32> = (0..n)
                    .map(|i| seedish[i % seedish.len()] % k as u32)
                    .collect();
                let snap = TableSnapshot::build(&t, &assignment, k, 0, "p");
                prop_assert_eq!(snap.row_cover(), (0..n as u32).collect::<Vec<_>>());
                let scan = snap.scan(&pred);
                prop_assert_eq!(&scan.matches, &live_filter(&t, &snap, &pred), "pred {:?}", pred);
                prop_assert_eq!(billed(&scan), expected_bill(&snap, &pred, None));
                prop_assert!(scan.partitions_covered <= scan.partitions_read);
                let chunk_bound: u64 = snap
                    .partitions()
                    .iter()
                    .filter(|p| p.meta.may_match(&pred))
                    .map(|p| (p.rows.len() as u64).div_ceil(kernel::CHUNK_ROWS as u64))
                    .sum();
                prop_assert!(scan.chunks_evaluated <= chunk_bound);
            }

            /// Pooled (page-granular, disk-backed) scans return exactly
            /// what in-memory scans and the plain filter return, and read
            /// the pages the page index says they read, split cold/cached —
            /// for random layouts, page sizes, pool capacities, and
            /// predicates over every physical column representation — cold
            /// and warm.
            #[test]
            fn pooled_scan_equals_memory_scan(
                n in 1usize..120,
                k in 1usize..5,
                seedish in proptest::collection::vec(0u32..5, 1..100),
                page_pow in 5u32..12,   // 32 B .. 2 KiB pages
                cap_pages in 1u64..32,
                pred in pred_any(),
            ) {
                let t = rich_table(n as i64);
                let assignment: Vec<u32> = (0..n)
                    .map(|i| seedish[i % seedish.len()] % k as u32)
                    .collect();
                let mut snap = TableSnapshot::build(&t, &assignment, k, 0, "p");
                let root = std::env::temp_dir().join(format!(
                    "oreo-snap-prop-{}-{}",
                    std::process::id(),
                    rand::random::<u64>()
                ));
                let (store, _) = crate::tiered::TieredStore::create(&root, &mut snap).unwrap();
                let page_bytes = 1usize << page_pow;
                let pool = crate::bufpool::BufferPool::new(crate::bufpool::BufferPoolConfig {
                    capacity_bytes: cap_pages * page_bytes as u64,
                    page_bytes,
                });
                let mem = snap.scan(&pred);
                prop_assert_eq!(&mem.matches, &live_filter(&t, &snap, &pred), "pred {:?}", pred);
                let bill = expected_bill(&snap, &pred, Some(page_bytes as u64));
                for round in 0..2 {  // cold pass, then (possibly) warm
                    let pooled = snap.scan_pooled(&pred, &pool).unwrap();
                    prop_assert_eq!(&pooled.matches, &mem.matches, "round {}", round);
                    prop_assert_eq!(billed(&pooled), bill, "round {} {:?}", round, pred);
                    prop_assert_eq!(
                        pooled.io_cold_bytes + pooled.io_cached_bytes,
                        pooled.bytes_scanned
                    );
                }
                drop(store);
                drop(snap);
                let _ = std::fs::remove_dir_all(&root);
            }
        }
    }
}
