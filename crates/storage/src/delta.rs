//! Live-ingestion delta state: in-memory delta runs, tombstones, and the
//! merge policies that bound write amplification.
//!
//! The serving path treats the base [`crate::TableSnapshot`] as immutable;
//! writes land here instead. An [`IngestOp`] batch becomes (a) zero or more
//! *tombstones* — global row ids whose rows are logically deleted — and (b)
//! a new *delta run*: a small, fully materialized [`SnapshotPartition`]
//! holding the appended rows, with the same pruning metadata base
//! partitions carry, so delta-aware scans prune runs exactly like
//! partitions. Updates are a tombstone plus a re-append under a fresh row
//! id, which keeps every run append-only and every global row id immutable
//! for its lifetime.
//!
//! Each batch is merged with a suffix of the existing runs under a
//! [`MergePolicy`]. [`MergePolicy::NaiveFullMerge`] rewrites everything
//! into one run per batch — minimal read cost, O(m) write amplification
//! over m batches. [`MergePolicy::KBinomial`] follows the *k-binomial
//! transform* of Mathieu et al., *Competitive Data-Structure Dynamization*
//! (arXiv:2011.02615): the run sizes (counted in batches, newest last) are
//! kept equal to the combinatorial-number-system decomposition
//! `m = C(c_k,k) + C(c_{k-1},k-1) + … + C(c_1,1)` with
//! `c_k > c_{k-1} > … > c_1 ≥ 0`, which maintains at most `k` runs and
//! amortized write amplification `O(k·m^{1/k})` — the second worst-case
//! guarantee the `dynamization` bench measures next to the paper's 2·H(n)
//! switching bound.
//!
//! A background fold (the reorganizer acting as compactor) calls
//! [`DeltaBuffer::freeze_for_fold`] to capture every run and tombstone up
//! to a sequence watermark, rebuilds the base table with the captured rows
//! folded in (and tombstoned rows carved out), and calls
//! [`DeltaBuffer::complete_fold`] to drop the captured state. Ingestion
//! continues during the fold: batches that arrive after the freeze merge
//! only among themselves (the frozen prefix is immutable), so the fold
//! never races the write path.

use crate::error::{Result, StorageError};
use crate::partition::table_metadata;
use crate::snapshot::SnapshotPartition;
use crate::table::{concat_tables, Table, TableBuilder};
use oreo_query::{Scalar, Schema};
use std::collections::HashSet;
use std::sync::Arc;

/// One write-path operation. Row ids are *global* ids — positions in the
/// original base table, or ids handed out for earlier appends — and stay
/// valid across folds (folds preserve ids).
#[derive(Clone, Debug, PartialEq)]
pub enum IngestOp {
    /// Append a new row (cells in schema order); it receives the next
    /// global row id.
    Append {
        /// Cell values, one per schema column.
        values: Vec<Scalar>,
    },
    /// Replace row `row`: tombstone it and re-append `values` under a
    /// fresh id.
    Update {
        /// The global row id being replaced.
        row: u32,
        /// Replacement cell values, one per schema column.
        values: Vec<Scalar>,
    },
    /// Logically delete row `row` (a tombstone until the next fold removes
    /// it physically).
    Delete {
        /// The global row id being deleted.
        row: u32,
    },
}

/// How ingest batches are merged into delta runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergePolicy {
    /// Merge every batch with all existing runs: one run at all times,
    /// minimal scan overhead, write amplification ~(m+1)/2 over m batches.
    NaiveFullMerge,
    /// The k-binomial transform (arXiv:2011.02615): at most `k` runs,
    /// amortized write amplification O(k·m^{1/k}).
    KBinomial {
        /// Number of binomial "slots" (k ≥ 1; k = 1 degenerates to
        /// [`MergePolicy::NaiveFullMerge`]).
        k: u32,
    },
}

/// C(n, k) in u64 (exact for the run counts this module sees).
fn binomial(n: u64, k: u64) -> u64 {
    if k == 0 {
        return 1;
    }
    if n < k {
        return 0;
    }
    let mut r: u64 = 1;
    for i in 0..k {
        // Exact at every step: a product of j consecutive integers is
        // divisible by j!.
        r = r * (n - i) / (i + 1);
    }
    r
}

/// The target run sizes (in batches, oldest first) for `m` total batches
/// under the k-binomial transform: the nonzero terms of the combinatorial
/// number system decomposition `m = C(c_k,k) + … + C(c_1,1)`.
pub fn kbinomial_sizes(m: u64, k: u64) -> Vec<u64> {
    assert!(k >= 1, "k-binomial needs k >= 1");
    let mut rem = m;
    let mut sizes = Vec::new();
    let mut prev_c = u64::MAX;
    for j in (1..=k).rev() {
        // Greedy: the largest c < prev_c with C(c, j) <= rem.
        let mut c = j - 1; // C(j-1, j) = 0
        while c + 1 < prev_c && binomial(c + 1, j) <= rem {
            c += 1;
        }
        let term = binomial(c, j);
        if term > 0 {
            sizes.push(term);
        }
        rem -= term;
        prev_c = c;
    }
    debug_assert_eq!(rem, 0, "combinatorial decomposition incomplete");
    sizes
}

impl MergePolicy {
    /// Given the batch counts of the current (unfrozen) runs, oldest first,
    /// decide how many *trailing* runs the next one-batch ingest merges
    /// with. Returns `t`: the new batch joins runs `len-t .. len` into a
    /// single new run (0 = the batch becomes its own run).
    pub fn plan(&self, batches: &[u64]) -> usize {
        match *self {
            MergePolicy::NaiveFullMerge => batches.len(),
            MergePolicy::KBinomial { k } => {
                let m: u64 = batches.iter().sum();
                let target = kbinomial_sizes(m + 1, u64::from(k.max(1)));
                let mut p = 0;
                while p < batches.len() && p < target.len() && batches[p] == target[p] {
                    p += 1;
                }
                // The combinatorial decompositions of m and m+1 share a
                // prefix, and the remainder collapses into exactly one run.
                debug_assert_eq!(target.len(), p + 1, "suffix must collapse to one run");
                debug_assert_eq!(
                    batches[p..].iter().sum::<u64>() + 1,
                    target[p],
                    "merged suffix size must match the decomposition"
                );
                batches.len() - p
            }
        }
    }

    /// Upper bound on the write amplification (rows written / rows
    /// ingested) after `m` equal-sized batches — the competitive guarantee
    /// the `dynamization` bench asserts against. For k-binomial this is
    /// `k·m^{1/k}` (+1 for the initial write of each batch); the naive
    /// policy has no sublinear bound and reports `(m+1)/2 + 1`.
    pub fn write_amplification_bound(&self, m: u64) -> f64 {
        let m = m.max(1) as f64;
        match *self {
            MergePolicy::NaiveFullMerge => (m + 1.0) / 2.0 + 1.0,
            MergePolicy::KBinomial { k } => {
                let k = f64::from(k.max(1));
                k * m.powf(1.0 / k) + 1.0
            }
        }
    }
}

/// One delta run: a materialized partition of appended rows plus the batch
/// count the merge policy tracks.
#[derive(Clone, Debug)]
pub struct DeltaRun {
    part: SnapshotPartition,
    batches: u64,
    /// Highest ingest sequence folded into this run.
    max_seq: u64,
}

impl DeltaRun {
    /// The run's materialized partition (rows carry global ids).
    pub fn part(&self) -> &SnapshotPartition {
        &self.part
    }

    /// How many ingest batches were merged into this run.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Highest ingest sequence folded into this run.
    pub fn max_seq(&self) -> u64 {
        self.max_seq
    }
}

/// The scan-facing, immutable view of the delta state a snapshot carries:
/// extra partitions to union in, tombstoned row ids to subtract.
#[derive(Clone, Debug, Default)]
pub struct DeltaOverlay {
    /// Delta runs as scan-ready partitions (memory-resident, pruned via
    /// their metadata like base partitions).
    pub runs: Vec<SnapshotPartition>,
    /// Logically deleted global row ids, sorted ascending, unique.
    pub tombstones: Arc<[u32]>,
    /// Total rows across `runs` (tombstoned delta rows included — they are
    /// subtracted at scan time like base rows).
    pub delta_rows: u64,
}

impl DeltaOverlay {
    /// True when the overlay changes nothing (no runs, no tombstones).
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty() && self.tombstones.is_empty()
    }
}

/// What the fold (compacting reorganization) captured: everything the base
/// rewrite must absorb, frozen at a sequence watermark.
#[derive(Clone, Debug)]
pub struct FoldCapture {
    /// Captured runs (scan-ready partitions with global row ids).
    pub runs: Vec<SnapshotPartition>,
    /// Captured tombstones, sorted ascending, unique — rows the rewrite
    /// carves out of the base *and* out of the captured runs.
    pub tombstones: Vec<u32>,
    /// The highest ingest sequence included in the capture; WAL records
    /// `<= watermark` are covered by the folded base once it commits.
    pub watermark: u64,
    /// The row-id high-water mark at capture time; persisting it lets
    /// recovery re-assign identical ids when replaying records past the
    /// watermark.
    pub next_row: u64,
    /// Rows across the captured runs (compaction-work accounting).
    pub delta_rows: u64,
}

/// What one [`DeltaBuffer::apply`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ApplyReceipt {
    /// The batch's ingest sequence (monotone from 1).
    pub seq: u64,
    /// Rows appended (includes the re-append half of updates).
    pub appended: u64,
    /// Rows tombstoned (includes the delete half of updates).
    pub deleted: u64,
    /// Pre-existing runs merged with this batch.
    pub merged_runs: usize,
    /// Rows written building the new run (appended + re-written rows) —
    /// the write-amplification numerator.
    pub rows_written: u64,
    /// In-memory bytes of the new run (0 when the batch appended nothing).
    pub bytes_written: u64,
}

/// The mutable ingest state behind the engine's write path: delta runs,
/// tombstones, sequence/row-id counters, and the frozen prefix an in-flight
/// fold pins.
///
/// Single-writer: the engine serializes all access behind its ingest lock.
#[derive(Debug)]
pub struct DeltaBuffer {
    schema: Arc<Schema>,
    policy: MergePolicy,
    runs: Vec<DeltaRun>,
    /// (row id, sequence) pairs in tombstoning order (ascending seq).
    tombstones: Vec<(u32, u64)>,
    tomb_set: HashSet<u32>,
    frozen_runs: usize,
    frozen_tombstones: usize,
    fold_watermark: Option<u64>,
    next_row: u64,
    next_seq: u64,
    delta_rows: u64,
}

impl DeltaBuffer {
    /// A fresh buffer over a base table holding rows `0..next_row`.
    pub fn new(schema: Arc<Schema>, next_row: u64, policy: MergePolicy) -> Self {
        Self::resume(schema, next_row, 0, policy)
    }

    /// A buffer resuming after recovery: row ids continue at `next_row`
    /// and the first accepted batch gets sequence `folded + 1` — replaying
    /// WAL records past the folded watermark reproduces the pre-crash ids
    /// exactly.
    pub fn resume(schema: Arc<Schema>, next_row: u64, folded: u64, policy: MergePolicy) -> Self {
        Self {
            schema,
            policy,
            runs: Vec::new(),
            tombstones: Vec::new(),
            tomb_set: HashSet::new(),
            frozen_runs: 0,
            frozen_tombstones: 0,
            fold_watermark: None,
            next_row,
            next_seq: folded + 1,
            delta_rows: 0,
        }
    }

    /// The sequence the next accepted batch will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The global id the next appended row will get.
    pub fn next_row(&self) -> u64 {
        self.next_row
    }

    /// Rows across all delta runs (tombstoned delta rows included).
    pub fn delta_rows(&self) -> u64 {
        self.delta_rows
    }

    /// Live tombstones (not yet folded away).
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }

    /// Current delta runs, oldest first.
    pub fn runs(&self) -> impl Iterator<Item = &DeltaRun> {
        self.runs.iter()
    }

    /// Batch counts of the runs the merge policy currently operates on
    /// (the unfrozen suffix), oldest first.
    pub fn active_batches(&self) -> Vec<u64> {
        self.runs[self.frozen_runs..]
            .iter()
            .map(DeltaRun::batches)
            .collect()
    }

    /// The configured merge policy.
    pub fn policy(&self) -> MergePolicy {
        self.policy
    }

    /// True when there is nothing to scan or fold.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty() && self.tombstones.is_empty()
    }

    /// Validate a batch without applying it: referenced rows must exist
    /// (id below the high-water mark) and value arity must match the
    /// schema. Call before WAL-logging a batch, so the log never holds a
    /// record [`DeltaBuffer::apply`] would reject on replay.
    pub fn validate(&self, ops: &[IngestOp]) -> Result<()> {
        let mut next_row = self.next_row;
        for op in ops {
            match op {
                IngestOp::Append { values } => {
                    self.check_arity(values)?;
                    next_row += 1;
                }
                IngestOp::Update { row, values } => {
                    self.check_arity(values)?;
                    self.check_row(*row, next_row)?;
                    next_row += 1;
                }
                IngestOp::Delete { row } => self.check_row(*row, next_row)?,
            }
        }
        if next_row > u64::from(u32::MAX) {
            return Err(StorageError::Corrupt(
                "ingest: row-id space exhausted".into(),
            ));
        }
        Ok(())
    }

    fn check_arity(&self, values: &[Scalar]) -> Result<()> {
        if values.len() != self.schema.len() {
            return Err(StorageError::Corrupt(format!(
                "ingest: {} values for {}-column schema",
                values.len(),
                self.schema.len()
            )));
        }
        Ok(())
    }

    fn check_row(&self, row: u32, next_row: u64) -> Result<()> {
        if u64::from(row) >= next_row {
            return Err(StorageError::Corrupt(format!(
                "ingest: row {row} beyond high-water mark {next_row}"
            )));
        }
        Ok(())
    }

    /// Apply one batch: tombstone deletes/updates, materialize the appended
    /// rows, and merge them with the trailing runs the policy selects.
    /// Validation errors leave the buffer unchanged (the batch is atomic).
    pub fn apply(&mut self, ops: &[IngestOp]) -> Result<ApplyReceipt> {
        self.validate(ops)?;
        let seq = self.next_seq;
        self.next_seq += 1;

        let mut builder = TableBuilder::new(Arc::clone(&self.schema));
        let mut new_ids: Vec<u32> = Vec::new();
        let mut receipt = ApplyReceipt {
            seq,
            ..Default::default()
        };
        for op in ops {
            match op {
                IngestOp::Append { values } => {
                    builder.push_row(values);
                    new_ids.push(self.next_row as u32);
                    self.next_row += 1;
                    receipt.appended += 1;
                }
                IngestOp::Update { row, values } => {
                    receipt.deleted += self.tombstone(*row, seq);
                    builder.push_row(values);
                    new_ids.push(self.next_row as u32);
                    self.next_row += 1;
                    receipt.appended += 1;
                }
                IngestOp::Delete { row } => {
                    receipt.deleted += self.tombstone(*row, seq);
                }
            }
        }
        if new_ids.is_empty() {
            return Ok(receipt); // pure-delete batch: no run work
        }
        let batch_table = builder.finish();

        let merge_n = self.policy.plan(&self.active_batches());
        let first = self.runs.len() - merge_n;
        debug_assert!(
            first >= self.frozen_runs,
            "merge must not touch frozen runs"
        );
        let merged_batches: u64 = self.runs[first..]
            .iter()
            .map(DeltaRun::batches)
            .sum::<u64>()
            + 1;
        let mut ids: Vec<u32> = self.runs[first..]
            .iter()
            .flat_map(|r| r.part.rows().iter().copied())
            .collect();
        ids.extend_from_slice(&new_ids);
        let data = if merge_n == 0 {
            batch_table
        } else {
            let mut parts: Vec<Table> = self.runs[first..]
                .iter()
                .map(|r| (*r.part.data).clone())
                .collect();
            parts.push(batch_table);
            concat_tables(&self.schema, &parts)?
        };
        let rows_written = data.num_rows() as u64;
        let meta = table_metadata(&data);
        // Ids come off one counter and runs merge oldest first, so they
        // ascend — which the constructor checks.
        let part = SnapshotPartition::new(ids.into(), Arc::new(data), meta);
        let bytes = part.bytes;
        self.runs.truncate(first);
        self.runs.push(DeltaRun {
            part,
            batches: merged_batches,
            max_seq: seq,
        });
        self.delta_rows = self.runs.iter().map(|r| r.part.rows().len() as u64).sum();
        receipt.merged_runs = merge_n;
        receipt.rows_written = rows_written;
        receipt.bytes_written = bytes;
        Ok(receipt)
    }

    /// Record a tombstone; returns 1 if the row was newly tombstoned, 0 if
    /// it was already dead (idempotent).
    fn tombstone(&mut self, row: u32, seq: u64) -> u64 {
        if self.tomb_set.insert(row) {
            self.tombstones.push((row, seq));
            1
        } else {
            0
        }
    }

    /// The live tombstones in the form [`DeltaOverlay::tombstones`] and
    /// [`FoldCapture::tombstones`] promise — sorted ascending, unique —
    /// which the snapshot's linear tombstone subtraction relies on.
    fn sorted_tombstones(&self) -> Vec<u32> {
        let mut tombs: Vec<u32> = self.tombstones.iter().map(|&(r, _)| r).collect();
        tombs.sort_unstable();
        debug_assert!(
            tombs.windows(2).all(|w| w[0] < w[1]),
            "a row was tombstoned twice"
        );
        tombs
    }

    /// The scan-facing overlay of the current state (`None` when empty, so
    /// empty-delta scans cost nothing extra).
    pub fn overlay(&self) -> Option<Arc<DeltaOverlay>> {
        if self.is_empty() {
            return None;
        }
        Some(Arc::new(DeltaOverlay {
            runs: self.runs.iter().map(|r| r.part.clone()).collect(),
            tombstones: self.sorted_tombstones().into(),
            delta_rows: self.delta_rows,
        }))
    }

    /// Freeze the current runs and tombstones for a fold: they become
    /// immutable (later batches merge only among themselves) until
    /// [`DeltaBuffer::complete_fold`] or [`DeltaBuffer::abort_fold`].
    /// Returns `None` — and freezes nothing — when there is nothing to
    /// fold.
    ///
    /// # Panics
    /// Panics if a fold is already in flight (the reorganizer is single-
    /// threaded).
    pub fn freeze_for_fold(&mut self) -> Option<FoldCapture> {
        assert!(self.fold_watermark.is_none(), "fold already in flight");
        if self.is_empty() {
            return None;
        }
        let watermark = self.next_seq - 1;
        self.frozen_runs = self.runs.len();
        self.frozen_tombstones = self.tombstones.len();
        self.fold_watermark = Some(watermark);
        Some(FoldCapture {
            runs: self.runs.iter().map(|r| r.part.clone()).collect(),
            tombstones: self.sorted_tombstones(),
            watermark,
            next_row: self.next_row,
            delta_rows: self.delta_rows,
        })
    }

    /// Drop the frozen prefix after the fold committed: the captured runs
    /// and tombstones now live in the rewritten base.
    pub fn complete_fold(&mut self) {
        assert!(self.fold_watermark.is_some(), "no fold in flight");
        for (row, _) in self.tombstones.drain(..self.frozen_tombstones) {
            self.tomb_set.remove(&row);
        }
        self.runs.drain(..self.frozen_runs);
        self.frozen_runs = 0;
        self.frozen_tombstones = 0;
        self.fold_watermark = None;
        self.delta_rows = self.runs.iter().map(|r| r.part.rows().len() as u64).sum();
    }

    /// Unfreeze without dropping anything (the fold failed before its
    /// publish; the captured state is still only here).
    pub fn abort_fold(&mut self) {
        assert!(self.fold_watermark.is_some(), "no fold in flight");
        self.frozen_runs = 0;
        self.frozen_tombstones = 0;
        self.fold_watermark = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oreo_query::{ColumnType, Schema};

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::from_pairs([
            ("v", ColumnType::Int),
            ("tag", ColumnType::Str),
        ]))
    }

    fn append(v: i64) -> IngestOp {
        IngestOp::Append {
            values: vec![Scalar::Int(v), Scalar::from(["a", "b"][(v % 2) as usize])],
        }
    }

    #[test]
    fn kbinomial_k2_run_size_sequence() {
        // The verified k=2 sequence: [1] [1,1] [3] [3,1] [3,2] [6].
        let expect: [&[u64]; 6] = [&[1], &[1, 1], &[3], &[3, 1], &[3, 2], &[6]];
        for (m, sizes) in expect.iter().enumerate() {
            assert_eq!(
                kbinomial_sizes(m as u64 + 1, 2),
                sizes.to_vec(),
                "m={}",
                m + 1
            );
        }
    }

    #[test]
    fn plan_maintains_the_binomial_decomposition() {
        for k in 1u64..=4 {
            let policy = MergePolicy::KBinomial { k: k as u32 };
            let mut state: Vec<u64> = Vec::new();
            for m in 1u64..=300 {
                let t = policy.plan(&state);
                let merged: u64 = state.split_off(state.len() - t).iter().sum::<u64>() + 1;
                state.push(merged);
                assert_eq!(state, kbinomial_sizes(m, k), "k={k} m={m}");
                assert!(state.len() <= k as usize, "k={k} m={m}: too many runs");
            }
        }
    }

    #[test]
    fn kbinomial_beats_naive_on_write_amplification() {
        // Equal-size batches; total rows written per policy over m batches.
        let m = 64u64;
        let mut written = [0u64; 2];
        for (slot, policy) in [MergePolicy::KBinomial { k: 2 }, MergePolicy::NaiveFullMerge]
            .into_iter()
            .enumerate()
        {
            let mut state: Vec<u64> = Vec::new();
            for _ in 0..m {
                let t = policy.plan(&state);
                let merged: u64 = state.split_off(state.len() - t).iter().sum::<u64>() + 1;
                state.push(merged);
                written[slot] += merged;
            }
        }
        let wa_k = written[0] as f64 / m as f64;
        let wa_naive = written[1] as f64 / m as f64;
        assert!(wa_k < wa_naive, "k-binomial {wa_k} vs naive {wa_naive}");
        assert!(
            wa_k <= MergePolicy::KBinomial { k: 2 }.write_amplification_bound(m),
            "k-binomial WA {wa_k} exceeds its bound"
        );
    }

    #[test]
    fn apply_appends_merge_under_the_policy() {
        let mut buf = DeltaBuffer::new(schema(), 100, MergePolicy::KBinomial { k: 2 });
        // m=1..6 with one append per batch: run sizes follow the sequence.
        let expect: [&[u64]; 6] = [&[1], &[1, 1], &[3], &[3, 1], &[3, 2], &[6]];
        for (i, sizes) in expect.iter().enumerate() {
            let r = buf.apply(&[append(i as i64)]).unwrap();
            assert_eq!(r.seq, i as u64 + 1);
            assert_eq!(r.appended, 1);
            assert_eq!(buf.active_batches(), sizes.to_vec(), "m={}", i + 1);
        }
        assert_eq!(buf.delta_rows(), 6);
        assert_eq!(buf.next_row(), 106);
        // ids are contiguous from the base high-water mark, oldest first
        let overlay = buf.overlay().unwrap();
        let all: Vec<u32> = overlay
            .runs
            .iter()
            .flat_map(|p| p.rows().iter().copied())
            .collect();
        assert_eq!(all, (100..106).collect::<Vec<u32>>());
    }

    #[test]
    fn naive_policy_keeps_one_run() {
        let mut buf = DeltaBuffer::new(schema(), 0, MergePolicy::NaiveFullMerge);
        let mut total_written = 0;
        for i in 0..5 {
            let r = buf.apply(&[append(i), append(i + 10)]).unwrap();
            total_written += r.rows_written;
            assert_eq!(buf.active_batches().len(), 1, "naive keeps one run");
        }
        // 2 + 4 + 6 + 8 + 10 rows written for 10 ingested
        assert_eq!(total_written, 30);
        assert_eq!(buf.delta_rows(), 10);
    }

    #[test]
    fn updates_and_deletes_tombstone_and_reappend() {
        let mut buf = DeltaBuffer::new(schema(), 10, MergePolicy::KBinomial { k: 2 });
        buf.apply(&[append(1), append(2)]).unwrap(); // ids 10, 11
        let r = buf
            .apply(&[
                IngestOp::Update {
                    row: 10,
                    values: vec![Scalar::Int(99), Scalar::from("a")],
                },
                IngestOp::Delete { row: 3 }, // base row
                IngestOp::Delete { row: 3 }, // duplicate: idempotent
            ])
            .unwrap();
        assert_eq!(r.appended, 1);
        assert_eq!(r.deleted, 2, "update tombstone + one delete");
        let overlay = buf.overlay().unwrap();
        assert_eq!(overlay.tombstones.as_ref(), &[3, 10]);
        assert_eq!(overlay.delta_rows, 3); // 10, 11, 12 (12 = re-append)
        assert_eq!(buf.next_row(), 13);
    }

    #[test]
    fn pure_delete_batch_creates_no_run() {
        let mut buf = DeltaBuffer::new(schema(), 10, MergePolicy::KBinomial { k: 2 });
        let r = buf.apply(&[IngestOp::Delete { row: 4 }]).unwrap();
        assert_eq!(r.seq, 1);
        assert_eq!(r.rows_written, 0);
        assert_eq!(buf.active_batches(), Vec::<u64>::new());
        assert_eq!(buf.overlay().unwrap().tombstones.as_ref(), &[4]);
        // the sequence still advanced
        assert_eq!(buf.apply(&[append(0)]).unwrap().seq, 2);
    }

    #[test]
    fn validation_rejects_bad_batches_atomically() {
        let mut buf = DeltaBuffer::new(schema(), 5, MergePolicy::NaiveFullMerge);
        // unknown row: nothing applied, sequence unmoved
        let err = buf
            .apply(&[append(1), IngestOp::Delete { row: 99 }])
            .unwrap_err();
        assert!(err.to_string().contains("beyond high-water mark"));
        assert!(buf.is_empty());
        assert_eq!(buf.next_seq(), 1);
        // arity mismatch
        let err = buf
            .apply(&[IngestOp::Append {
                values: vec![Scalar::Int(1)],
            }])
            .unwrap_err();
        assert!(err.to_string().contains("2-column schema"));
        // a row appended earlier in the same batch is referencable
        buf.apply(&[append(7), IngestOp::Delete { row: 5 }])
            .unwrap();
    }

    #[test]
    fn fold_lifecycle_freezes_and_drops_the_captured_prefix() {
        let mut buf = DeltaBuffer::new(schema(), 0, MergePolicy::KBinomial { k: 2 });
        buf.apply(&[append(1)]).unwrap();
        buf.apply(&[append(2), IngestOp::Delete { row: 0 }])
            .unwrap();
        let cap = buf.freeze_for_fold().unwrap();
        assert_eq!(cap.watermark, 2);
        assert_eq!(cap.delta_rows, 2);
        assert_eq!(cap.tombstones, vec![0]);
        assert_eq!(cap.next_row, 2);

        // ingestion continues during the fold; merges stay off the frozen
        // prefix (batch counts restart)
        buf.apply(&[append(3)]).unwrap();
        buf.apply(&[append(4)]).unwrap();
        assert_eq!(buf.active_batches(), vec![1, 1]);
        assert_eq!(buf.delta_rows(), 4);

        buf.complete_fold();
        assert_eq!(buf.delta_rows(), 2, "captured runs dropped");
        assert_eq!(buf.tombstone_count(), 0, "captured tombstone dropped");
        let overlay = buf.overlay().unwrap();
        let ids: Vec<u32> = overlay
            .runs
            .iter()
            .flat_map(|p| p.rows().iter().copied())
            .collect();
        assert_eq!(ids, vec![2, 3], "post-freeze rows survive");
    }

    #[test]
    fn abort_fold_keeps_everything() {
        let mut buf = DeltaBuffer::new(schema(), 0, MergePolicy::NaiveFullMerge);
        buf.apply(&[append(1), append(2)]).unwrap();
        let cap = buf.freeze_for_fold().unwrap();
        assert_eq!(cap.delta_rows, 2);
        buf.abort_fold();
        assert_eq!(buf.delta_rows(), 2);
        // a new fold can start and captures the same state
        let cap2 = buf.freeze_for_fold().unwrap();
        assert_eq!(cap2.delta_rows, 2);
        buf.complete_fold();
        assert!(buf.is_empty());
        assert!(buf.overlay().is_none());
    }

    #[test]
    fn empty_buffer_has_no_overlay_and_no_capture() {
        let mut buf = DeltaBuffer::new(schema(), 50, MergePolicy::KBinomial { k: 3 });
        assert!(buf.overlay().is_none());
        assert!(buf.freeze_for_fold().is_none());
    }

    #[test]
    fn resume_continues_sequence_and_row_ids() {
        let mut buf = DeltaBuffer::resume(schema(), 120, 7, MergePolicy::NaiveFullMerge);
        let r = buf.apply(&[append(1)]).unwrap();
        assert_eq!(r.seq, 8, "first post-recovery batch follows the watermark");
        let overlay = buf.overlay().unwrap();
        assert_eq!(overlay.runs[0].rows(), &[120]);
    }

    #[test]
    fn run_metadata_prunes_like_base_partitions() {
        let mut buf = DeltaBuffer::new(schema(), 0, MergePolicy::NaiveFullMerge);
        buf.apply(&[append(5), append(6)]).unwrap();
        let overlay = buf.overlay().unwrap();
        let pred = oreo_query::Predicate::new(vec![oreo_query::Atom::Between {
            col: 0,
            low: Scalar::Int(100),
            high: Scalar::Int(200),
        }]);
        assert!(!overlay.runs[0].meta.may_match(&pred), "run prunable");
    }
}
