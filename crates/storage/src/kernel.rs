//! Vectorized scan kernels: chunked, selection-vector predicate evaluation
//! over decoded columns and over packed integer frames.
//!
//! The row-at-a-time scan interpreter re-dispatches on the atom list and the
//! column representation for every row. The kernel layer does that dispatch
//! once per (column plan, physical column) pair and then streams each
//! partition in [`CHUNK_ROWS`]-row chunks:
//!
//! 1. each conjunct's [`oreo_query::ColumnPlan`] is specialized against its
//!    column's physical representation into a column kernel — tight
//!    typed loops over `&[i64]` / `&[f64]`, or a precomputed per-dictionary
//!    mask for string columns (the plan is evaluated once per *distinct*
//!    value, then rows test one `bool` per code). An integer column a
//!    pooled scan fetched stays in its frame-of-reference frames
//!    ([`ColumnInput::Packed`]); a frame is a chunk, and its header
//!    `(base, width)` bounds its values, so a range kernel first asks the
//!    header — the partition metadata's decide-first rule at chunk grain:
//!    a frame disjoint from the range passes nothing, a frame inside it
//!    passes every row ([`KernelCounters::frames_decided`] counts both),
//!    and only a frame that straddles the range is unpacked, into a
//!    scratch buffer, and its offsets compared against the range shifted
//!    by `base`;
//! 2. the first kernel fills a reusable `u32` selection vector with the
//!    chunk-local positions that pass; each further kernel filters the
//!    surviving positions in place (the conjunctive AND);
//! 3. kernels run cheapest-selectivity-first: observed pass rates reorder
//!    the AND after every chunk, so the most selective column is evaluated
//!    on all rows and the rest only on survivors;
//! 4. global row ids are materialized *late* — only survivors of the full
//!    conjunction touch the partition's row-id array, and each chunk's
//!    survivors are appended in one exact-size `extend` (one slice copy
//!    when the whole chunk passed). Ids come out
//!    ascending within a partition iff its row-id array is; ordering the
//!    concatenation of all partitions (and subtracting tombstones) is the
//!    snapshot driver's linear-time assembly step, not the kernels'.
//!
//! Everything a partition scan allocates — the selection vector, the
//! specialized kernels, the adaptive AND order — lives in a caller-owned
//! [`ScanScratch`], so a scan allocates it once, not once per partition.
//!
//! The kernels see only the conjuncts the driver hands them. A predicate
//! column that the partition's min/max or distinct-set metadata already
//! proves every row passes ([`crate::partition::ColumnStats::covered_by`])
//! never reaches this layer, and a partition with no conjunct left is
//! answered from its row ids without building a kernel or counting a chunk.
//!
//! [`KernelCounters`] reports how much work the short-circuiting saved,
//! which the serving layer surfaces through `SnapshotScan`.

use crate::column::Column;
use crate::encode::{FrameHeader, IntFrames, FRAME_ROWS};
use oreo_query::ColumnPlan;
use std::cmp::Ordering;
use std::ops::Range;

/// Rows evaluated per selection-vector chunk. 1024 positions keep the
/// selection vector (4 KiB) and one `i64` column chunk (8 KiB) resident in
/// L1 while still amortizing the per-chunk reorder bookkeeping.
pub const CHUNK_ROWS: usize = 1024;

/// Work counters of one or more kernel scans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Chunks driven through the kernel pipeline.
    pub chunks_evaluated: u64,
    /// Row × kernel evaluations skipped because the selection vector had
    /// already shrunk when a later kernel in the AND order ran (the work a
    /// row-at-a-time interpreter with short-circuit `&&` would also skip,
    /// plus whole-kernel skips once a chunk's selection empties).
    pub rows_short_circuited: u64,
    /// Kernel evaluations of a packed frame ([`ColumnInput::Packed`]) its
    /// header answered without unpacking a value: the frame lies wholly
    /// outside the kernel's range (no row passes) or wholly inside it
    /// (every row does).
    pub frames_decided: u64,
}

/// What one conjunct's kernel reads.
#[derive(Clone, Copy, Debug)]
pub enum ColumnInput<'a> {
    /// A decoded column.
    Decoded(&'a Column),
    /// An integer column's frame-of-reference frames, still packed. Frame
    /// `f` is chunk `f` ([`FRAME_ROWS`] is [`CHUNK_ROWS`]).
    Packed(&'a IntFrames),
}

impl ColumnInput<'_> {
    /// Rows in the column.
    fn len(&self) -> usize {
        match self {
            ColumnInput::Decoded(column) => column.len(),
            ColumnInput::Packed(frames) => frames.len(),
        }
    }
}

impl<'a> From<&'a Column> for ColumnInput<'a> {
    fn from(column: &'a Column) -> Self {
        ColumnInput::Decoded(column)
    }
}

/// One predicate column specialized against one physical column. The
/// kernel holds only what the specialization computed; the column it was
/// built against is passed back in at evaluation time, so kernels borrow
/// nothing and their `Vec` is reusable across partitions.
enum ColumnKernel {
    /// The plan admits no value of this column's type: nothing matches.
    Never,
    /// Inclusive `lo..=hi` over an `i64` column (strict bounds folded into
    /// the endpoints).
    IntRange { lo: i64, hi: i64 },
    /// Sorted membership set over an `i64` column.
    IntSet { set: Vec<i64> },
    /// Range with `total_cmp` endpoint semantics over an `f64` column
    /// (`(endpoint, inclusive)`, absent bound = unbounded).
    FloatRange {
        lo: Option<(f64, bool)>,
        hi: Option<(f64, bool)>,
    },
    /// Membership set over an `f64` column. `total_cmp` equality is bit
    /// equality, so members are sorted bit patterns.
    FloatSet { set: Vec<u64> },
    /// Any plan over a dictionary column: the plan pre-evaluated per
    /// dictionary entry, rows test `mask[code]`.
    CodeMask { mask: Vec<bool> },
}

/// What a packed frame's header says about an integer kernel.
enum FrameVerdict<'k> {
    /// The kernel passes nothing whatever the frame holds (a
    /// [`ColumnKernel::Never`]): not the header's doing.
    Nothing,
    /// The header decides: no value the frame can hold passes (`false`),
    /// or every one does (`true`).
    Decided(bool),
    /// The rows whose offset `o` from `base` has `o − lo <= span` pass.
    Offsets { lo: u64, span: u64 },
    /// The rows whose value is one of these (sorted) pass: values are
    /// tested one by one.
    Members(&'k [i64]),
}

/// Branch-light full-chunk evaluation: write the positions of `0..len`
/// that pass into the front of `sel` and return how many there are. `sel`
/// is a fixed buffer of at least `len` slots whose old contents are dead —
/// every slot below the returned count is overwritten, so nothing clears it.
#[inline]
fn fill_with(len: usize, sel: &mut [u32], mut pred: impl FnMut(usize) -> bool) -> usize {
    let sel = &mut sel[..len];
    let mut n = 0usize;
    for i in 0..len {
        sel[n] = i as u32;
        n += usize::from(pred(i));
    }
    n
}

/// In-place filtering of the first `live` selected positions (order
/// preserved); returns how many survive.
#[inline]
fn filter_with(sel: &mut [u32], live: usize, mut pred: impl FnMut(usize) -> bool) -> usize {
    let sel = &mut sel[..live];
    let mut n = 0usize;
    for j in 0..live {
        let i = sel[j];
        sel[n] = i;
        n += usize::from(pred(i as usize));
    }
    n
}

#[inline]
fn float_bound_ok(x: f64, bound: &Option<(f64, bool)>, pass: Ordering) -> bool {
    match bound {
        None => true,
        Some((b, inclusive)) => {
            let ord = x.total_cmp(b);
            ord == pass || (*inclusive && ord == Ordering::Equal)
        }
    }
}

impl ColumnKernel {
    /// Specialize `plan` against the physical `column`.
    fn build(plan: &ColumnPlan, column: ColumnInput<'_>) -> ColumnKernel {
        match column {
            ColumnInput::Decoded(Column::Int(_)) | ColumnInput::Packed(_) => Self::int(plan),
            ColumnInput::Decoded(Column::Float(_)) => match plan {
                ColumnPlan::Never => ColumnKernel::Never,
                ColumnPlan::Range { lo, hi } => {
                    let as_bound = |b: &Option<oreo_query::Bound>| match b {
                        None => Ok(None),
                        Some(b) => match b.value.as_float() {
                            Some(v) => Ok(Some((v, b.inclusive))),
                            None => Err(()),
                        },
                    };
                    match (as_bound(lo), as_bound(hi)) {
                        (Ok(lo), Ok(hi)) => ColumnKernel::FloatRange { lo, hi },
                        _ => ColumnKernel::Never,
                    }
                }
                ColumnPlan::Set(members) => {
                    let mut set: Vec<u64> = members
                        .iter()
                        .filter_map(|m| m.as_float().map(f64::to_bits))
                        .collect();
                    set.sort_unstable();
                    if set.is_empty() {
                        ColumnKernel::Never
                    } else {
                        ColumnKernel::FloatSet { set }
                    }
                }
            },
            ColumnInput::Decoded(Column::Str(dict)) => {
                // Evaluate the plan once per distinct dictionary entry;
                // rows then test a single bool per code.
                let mask: Vec<bool> = dict.dict().iter().map(|s| plan.matches_str(s)).collect();
                if mask.iter().any(|&m| m) {
                    ColumnKernel::CodeMask { mask }
                } else {
                    ColumnKernel::Never
                }
            }
        }
    }

    /// Specialize `plan` against an integer column, decoded or packed.
    fn int(plan: &ColumnPlan) -> ColumnKernel {
        match plan {
            ColumnPlan::Never => ColumnKernel::Never,
            ColumnPlan::Range { lo, hi } => {
                // Fold strict endpoints into the inclusive [lo, hi]
                // form; a strict bound at the domain edge is empty.
                let lo_i = match lo {
                    None => i64::MIN,
                    Some(b) => match (b.value.as_int(), b.inclusive) {
                        (Some(v), true) => v,
                        (Some(i64::MAX), false) => return ColumnKernel::Never,
                        (Some(v), false) => v + 1,
                        (None, _) => return ColumnKernel::Never,
                    },
                };
                let hi_i = match hi {
                    None => i64::MAX,
                    Some(b) => match (b.value.as_int(), b.inclusive) {
                        (Some(v), true) => v,
                        (Some(i64::MIN), false) => return ColumnKernel::Never,
                        (Some(v), false) => v - 1,
                        (None, _) => return ColumnKernel::Never,
                    },
                };
                if lo_i > hi_i {
                    ColumnKernel::Never
                } else {
                    ColumnKernel::IntRange { lo: lo_i, hi: hi_i }
                }
            }
            ColumnPlan::Set(members) => {
                // Members arrive sorted by Scalar order; ints sort
                // naturally within it, so the filtered list is sorted.
                let set: Vec<i64> = members.iter().filter_map(|m| m.as_int()).collect();
                if set.is_empty() {
                    ColumnKernel::Never
                } else {
                    ColumnKernel::IntSet { set }
                }
            }
        }
    }

    /// Evaluate rows `base..base + len` of `column` — the column this kernel
    /// was built against — into `sel` (chunk-local positions); returns the
    /// number selected.
    fn fill(&self, column: &Column, base: usize, len: usize, sel: &mut [u32]) -> usize {
        match (self, column) {
            (ColumnKernel::Never, _) => 0,
            (ColumnKernel::IntRange { lo, hi }, Column::Int(values)) => {
                let v = &values[base..base + len];
                fill_with(len, sel, |i| v[i] >= *lo && v[i] <= *hi)
            }
            (ColumnKernel::IntSet { set }, Column::Int(values)) => {
                let v = &values[base..base + len];
                fill_with(len, sel, |i| set.binary_search(&v[i]).is_ok())
            }
            (ColumnKernel::FloatRange { lo, hi }, Column::Float(values)) => {
                let v = &values[base..base + len];
                fill_with(len, sel, |i| {
                    float_bound_ok(v[i], lo, Ordering::Greater)
                        && float_bound_ok(v[i], hi, Ordering::Less)
                })
            }
            (ColumnKernel::FloatSet { set }, Column::Float(values)) => {
                let v = &values[base..base + len];
                fill_with(len, sel, |i| set.binary_search(&v[i].to_bits()).is_ok())
            }
            (ColumnKernel::CodeMask { mask }, Column::Str(dict)) => {
                let c = &dict.codes()[base..base + len];
                fill_with(len, sel, |i| mask[c[i] as usize])
            }
            _ => unreachable!("kernel evaluated against a column it was not built for"),
        }
    }

    /// Keep only the survivors among the first `live` positions of `sel`
    /// (chunk-local, relative to `base`); returns how many remain.
    fn filter(&self, column: &Column, base: usize, sel: &mut [u32], live: usize) -> usize {
        match (self, column) {
            (ColumnKernel::Never, _) => 0,
            (ColumnKernel::IntRange { lo, hi }, Column::Int(values)) => {
                filter_with(sel, live, |i| {
                    let x = values[base + i];
                    x >= *lo && x <= *hi
                })
            }
            (ColumnKernel::IntSet { set }, Column::Int(values)) => {
                filter_with(sel, live, |i| set.binary_search(&values[base + i]).is_ok())
            }
            (ColumnKernel::FloatRange { lo, hi }, Column::Float(values)) => {
                filter_with(sel, live, |i| {
                    let x = values[base + i];
                    float_bound_ok(x, lo, Ordering::Greater)
                        && float_bound_ok(x, hi, Ordering::Less)
                })
            }
            (ColumnKernel::FloatSet { set }, Column::Float(values)) => {
                filter_with(sel, live, |i| {
                    set.binary_search(&values[base + i].to_bits()).is_ok()
                })
            }
            (ColumnKernel::CodeMask { mask }, Column::Str(dict)) => {
                let codes = dict.codes();
                filter_with(sel, live, |i| mask[codes[base + i] as usize])
            }
            _ => unreachable!("kernel evaluated against a column it was not built for"),
        }
    }

    /// What frame `header`'s bounds alone say about this kernel, one of
    /// the integer kernels.
    fn frame_verdict(&self, header: FrameHeader) -> FrameVerdict<'_> {
        match self {
            ColumnKernel::Never => FrameVerdict::Nothing,
            ColumnKernel::IntRange { lo, hi } => {
                // The range relative to `base`, against the frame's
                // `0..=max_offset`; i128 holds both without overflow.
                let top = i128::from(header.max_offset());
                let lo = i128::from(*lo) - i128::from(header.base);
                let hi = i128::from(*hi) - i128::from(header.base);
                if hi < 0 || lo > top {
                    FrameVerdict::Decided(false)
                } else if lo <= 0 && hi >= top {
                    FrameVerdict::Decided(true)
                } else {
                    let (lo, hi) = (lo.max(0) as u64, hi.min(top) as u64);
                    FrameVerdict::Offsets { lo, span: hi - lo }
                }
            }
            ColumnKernel::IntSet { set } => FrameVerdict::Members(set),
            _ => unreachable!("a non-integer kernel evaluated against packed frames"),
        }
    }

    /// [`ColumnKernel::fill`] over frame `f` of `frames`: the header
    /// decides, or the frame is unpacked into `offsets`.
    fn fill_frame(
        &self,
        frames: &IntFrames,
        f: usize,
        len: usize,
        sel: &mut [u32],
        offsets: &mut Vec<u64>,
        counters: &mut KernelCounters,
    ) -> usize {
        let header = frames.header(f);
        match self.frame_verdict(header) {
            FrameVerdict::Nothing => 0,
            FrameVerdict::Decided(all) => {
                counters.frames_decided += 1;
                if !all {
                    return 0;
                }
                sel[..len].iter_mut().zip(0u32..).for_each(|(s, i)| *s = i);
                len
            }
            FrameVerdict::Offsets { lo, span } => {
                frames.unpack(f, offsets);
                fill_with(len, sel, |i| offsets[i].wrapping_sub(lo) <= span)
            }
            FrameVerdict::Members(set) => {
                frames.unpack(f, offsets);
                fill_with(len, sel, |i| {
                    set.binary_search(&header.base.wrapping_add(offsets[i] as i64))
                        .is_ok()
                })
            }
        }
    }

    /// [`ColumnKernel::filter`] over frame `f` of `frames`.
    fn filter_frame(
        &self,
        frames: &IntFrames,
        f: usize,
        sel: &mut [u32],
        live: usize,
        offsets: &mut Vec<u64>,
        counters: &mut KernelCounters,
    ) -> usize {
        let header = frames.header(f);
        match self.frame_verdict(header) {
            FrameVerdict::Nothing => 0,
            FrameVerdict::Decided(all) => {
                counters.frames_decided += 1;
                if all {
                    live
                } else {
                    0
                }
            }
            FrameVerdict::Offsets { lo, span } => {
                frames.unpack(f, offsets);
                filter_with(sel, live, |i| offsets[i].wrapping_sub(lo) <= span)
            }
            FrameVerdict::Members(set) => {
                frames.unpack(f, offsets);
                filter_with(sel, live, |i| {
                    set.binary_search(&header.base.wrapping_add(offsets[i] as i64))
                        .is_ok()
                })
            }
        }
    }

    /// Every row of `column` — the column this kernel was built against —
    /// as one bit per row in `u64` words, written over `out` (one word per
    /// 64 rows; bits past the last row stay clear).
    fn bitmap_into(&self, column: &Column, out: &mut [u64]) {
        match (self, column) {
            (ColumnKernel::Never, _) => out.fill(0),
            (ColumnKernel::IntRange { lo, hi }, Column::Int(values)) => {
                // lo <= hi, so lo <= x <= hi is one unsigned comparison of
                // offsets from lo.
                let span = hi.wrapping_sub(*lo) as u64;
                bits_with(values, out, |x| x.wrapping_sub(*lo) as u64 <= span)
            }
            (ColumnKernel::IntSet { set }, Column::Int(values)) => {
                bits_with(values, out, |x| set.binary_search(&x).is_ok())
            }
            (ColumnKernel::FloatRange { lo, hi }, Column::Float(values)) => {
                bits_with(values, out, |x| {
                    float_bound_ok(x, lo, Ordering::Greater)
                        && float_bound_ok(x, hi, Ordering::Less)
                })
            }
            (ColumnKernel::FloatSet { set }, Column::Float(values)) => {
                bits_with(values, out, |x| set.binary_search(&x.to_bits()).is_ok())
            }
            (ColumnKernel::CodeMask { mask }, Column::Str(dict)) => {
                bits_with(dict.codes(), out, |c| mask[c as usize])
            }
            _ => unreachable!("kernel evaluated against a column it was not built for"),
        }
    }
}

/// `pred` of every value, one bit per value, a 64-value word of `out` at a
/// time.
#[inline]
fn bits_with<T: Copy>(values: &[T], out: &mut [u64], mut pred: impl FnMut(T) -> bool) {
    for (word, chunk) in out.iter_mut().zip(values.chunks(64)) {
        let bits = chunk.iter().enumerate();
        *word = bits.fold(0u64, |w, (i, &x)| w | u64::from(pred(x)) << i);
    }
}

/// `plan`'s verdict on every row of `column`, as one bit per row in `u64`
/// words written over `out` — bit `r % 64` of word `r / 64` is row `r`'s
/// verdict, bits past the last row stay clear. One typed kernel pass, for a
/// caller that wants whole-column verdicts as sets to intersect (the
/// Qd-tree builder's candidate cuts), where [`filter_rows`] would have it
/// copy, filter and re-scatter a row list.
pub fn bitmap_into(plan: &ColumnPlan, column: &Column, out: &mut [u64]) {
    assert_eq!(out.len(), column.len().div_ceil(64), "bitmap length");
    ColumnKernel::build(plan, column.into()).bitmap_into(column, out)
}

/// An integer column in value order: its rows sorted by `(value, row)`.
/// The rows a plan that folds to an integer range `lo..=hi` selects are
/// then the ranks `start..end` two binary searches find — a range of
/// positions, not a pass over the column. The Qd-tree builder counts a
/// leaf's rows in such a range in O(1) per candidate cut; a table prepared
/// once ([`crate::Table::prepared`]) holds the index of every integer
/// column, so no build sorts one.
#[derive(Clone, Debug)]
pub struct RankIndex {
    /// The column's values, ascending.
    pub(crate) values: Vec<i64>,
    /// Row ids in `(value, row)` order.
    pub(crate) rows: Vec<u32>,
    /// `rank_of[row]`: the inverse of `rows`.
    rank_of: Vec<u32>,
}

impl RankIndex {
    /// Sort `column` (one `(value, row)` sort).
    pub fn new(column: &[i64]) -> RankIndex {
        let mut ranked: Vec<(i64, u32)> =
            (column.iter().zip(0u32..)).map(|(&v, r)| (v, r)).collect();
        ranked.sort_unstable();
        let (values, rows): (Vec<i64>, Vec<u32>) = ranked.into_iter().unzip();
        let mut rank_of = vec![0; rows.len()];
        for (&row, rank) in rows.iter().zip(0u32..) {
            rank_of[row as usize] = rank;
        }
        RankIndex {
            values,
            rows,
            rank_of,
        }
    }

    /// The row of every rank: row ids in `(value, row)` order.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// The rank of every row: the inverse of [`RankIndex::rows`].
    pub fn rank_of(&self) -> &[u32] {
        &self.rank_of
    }

    /// The ranks of the rows whose value satisfies `plan`, when it folds to
    /// an integer range (an empty range when it folds to nothing): exactly
    /// the rows [`bitmap_into`] sets. `None` for a plan that folds to a set
    /// of values, whose rows no single rank range holds.
    pub fn ranks(&self, plan: &ColumnPlan) -> Option<Range<usize>> {
        match ColumnKernel::int(plan) {
            ColumnKernel::IntRange { lo, hi } => {
                let start = self.values.partition_point(|&v| v < lo);
                let end = self.values.partition_point(|&v| v <= hi);
                Some(start..end)
            }
            ColumnKernel::IntSet { .. } => None,
            _ => Some(0..0),
        }
    }
}

/// Keep the entries of `sel` (row positions in `column`, order preserved)
/// whose value satisfies `plan`. One typed kernel pass with no chunking or
/// reordering: the entry point for callers that need a single column's
/// verdict over an arbitrary row subset — layout routing and the Qd-tree
/// builder — rather than a conjunction scan of a partition.
pub fn filter_rows(plan: &ColumnPlan, column: &Column, sel: &mut Vec<u32>) {
    let live = sel.len();
    let kept = ColumnKernel::build(plan, column.into()).filter(column, 0, sel, live);
    sel.truncate(kept);
}

/// One conjunct of a partition scan: a kernel, the slot of the column it
/// was built against, and the pass rate it has shown so far.
struct KernelSlot {
    kernel: ColumnKernel,
    /// Index into the scan's conjunct slice.
    col: usize,
    evaluated: u64,
    passed: u64,
}

impl KernelSlot {
    /// Observed pass rate (0.5 when never evaluated, so unknown kernels
    /// sort between proven-selective and proven-permissive ones).
    #[inline]
    fn pass_rate(&self) -> f64 {
        if self.evaluated == 0 {
            0.5
        } else {
            self.passed as f64 / self.evaluated as f64
        }
    }
}

/// Buffers a partition scan works in, owned by the caller so a multi-
/// partition scan allocates them once: the selection vector, the
/// conjunction's kernels in their current AND order, and the one frame a
/// packed column has unpacked. Starts empty (`default()`); the buffers grow
/// on first use.
#[derive(Default)]
pub struct ScanScratch {
    /// Chunk-local selected positions; a fixed `chunk_rows`-slot buffer
    /// whose live prefix length the scan loop tracks.
    sel: Vec<u32>,
    /// The partition's kernels, cheapest-selectivity-first.
    slots: Vec<KernelSlot>,
    /// The offsets of the packed frame being evaluated ([`FRAME_ROWS`]
    /// values, 8 KiB: an L1-resident chunk like a decoded one).
    offsets: Vec<u64>,
}

/// Scan one partition with [`CHUNK_ROWS`]-row chunks. See
/// [`scan_partition_chunked`].
pub fn scan_partition(
    conjuncts: &[(&ColumnPlan, ColumnInput<'_>)],
    rows: &[u32],
    scratch: &mut ScanScratch,
    matches: &mut Vec<u32>,
    counters: &mut KernelCounters,
) {
    scan_partition_chunked(conjuncts, rows, CHUNK_ROWS, scratch, matches, counters)
}

/// Scan one partition, appending the global row ids of the rows that
/// satisfy every conjunct to `matches`.
///
/// Each conjunct is one predicate column's plan with the physical column
/// to evaluate it on — decoded, or as packed frames, which need
/// `chunk_rows == CHUNK_ROWS`; `rows` are the partition's global row ids
/// (`rows.len()` rows per column). The caller passes only the columns it
/// could not decide some other way — the snapshot driver leaves out every
/// column the partition's metadata proves all rows pass. `scratch` is
/// caller-owned so repeated partition scans reuse its allocations; nothing
/// in it carries over between partitions. Appended ids are ascending
/// *within* the partition iff `rows` is; ordering the full result is the
/// caller's job.
///
/// With no conjunct left (a tautological predicate, or a partition whose
/// metadata decided every column) all of `rows` match and no kernel is
/// built — `counters` does not move.
pub fn scan_partition_chunked(
    conjuncts: &[(&ColumnPlan, ColumnInput<'_>)],
    rows: &[u32],
    chunk_rows: usize,
    scratch: &mut ScanScratch,
    matches: &mut Vec<u32>,
    counters: &mut KernelCounters,
) {
    debug_assert!(chunk_rows > 0, "chunk size");
    if conjuncts.is_empty() {
        matches.extend_from_slice(rows);
        return;
    }
    let ScanScratch {
        sel,
        slots,
        offsets,
    } = scratch;
    if sel.len() < chunk_rows {
        sel.resize(chunk_rows, 0);
    }
    slots.clear();
    slots.extend(conjuncts.iter().enumerate().map(|(col, &(plan, column))| {
        debug_assert_eq!(column.len(), rows.len(), "column row-count skew");
        assert!(
            matches!(column, ColumnInput::Decoded(_)) || chunk_rows == FRAME_ROWS,
            "packed frames are scanned a frame a chunk"
        );
        KernelSlot {
            kernel: ColumnKernel::build(plan, column),
            col,
            evaluated: 0,
            passed: 0,
        }
    }));
    let nrows = rows.len();
    let mut base = 0usize;
    while base < nrows {
        let len = chunk_rows.min(nrows - base);
        counters.chunks_evaluated += 1;
        let mut live = 0usize;
        for (pos, slot) in slots.iter_mut().enumerate() {
            let column = conjuncts[slot.col].1;
            if pos == 0 {
                slot.evaluated += len as u64;
                live = match column {
                    ColumnInput::Decoded(column) => slot.kernel.fill(column, base, len, sel),
                    ColumnInput::Packed(frames) => {
                        let f = base / FRAME_ROWS;
                        slot.kernel
                            .fill_frame(frames, f, len, sel, offsets, counters)
                    }
                };
            } else {
                counters.rows_short_circuited += (len - live) as u64;
                if live > 0 {
                    slot.evaluated += live as u64;
                    live = match column {
                        ColumnInput::Decoded(column) => slot.kernel.filter(column, base, sel, live),
                        ColumnInput::Packed(frames) => {
                            let f = base / FRAME_ROWS;
                            slot.kernel
                                .filter_frame(frames, f, sel, live, offsets, counters)
                        }
                    };
                }
            }
            slot.passed += live as u64;
        }
        let chunk_ids = &rows[base..base + len];
        if live == len {
            // Every row passed (a frame inside the range, say): the
            // selection is the identity, so the ids are one copy.
            matches.extend_from_slice(chunk_ids);
        } else {
            matches.extend(sel[..live].iter().map(|&i| chunk_ids[i as usize]));
        }
        if slots.len() > 1 {
            // Cheapest-selectivity-first: the kernel that has been letting
            // the fewest rows through runs first on the next chunk.
            slots.sort_by(|a, b| a.pass_rate().total_cmp(&b.pass_rate()));
        }
        base += len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::DictBuilder;
    use oreo_query::{Atom, CompareOp, CompiledPredicate, Predicate, Scalar};

    fn compile(atoms: Vec<Atom>) -> CompiledPredicate {
        CompiledPredicate::compile(&Predicate::new(atoms))
    }

    fn between(col: usize, lo: i64, hi: i64) -> Atom {
        Atom::Between {
            col,
            low: Scalar::Int(lo),
            high: Scalar::Int(hi),
        }
    }

    /// Run a kernel scan over single-partition columns with global row ids
    /// `0..n`, at the given chunk size.
    fn run(
        compiled: &CompiledPredicate,
        cols: &[&Column],
        n: usize,
        chunk: usize,
    ) -> (Vec<u32>, KernelCounters) {
        let rows: Vec<u32> = (0..n as u32).collect();
        let conjuncts: Vec<(&ColumnPlan, ColumnInput)> = compiled
            .columns()
            .iter()
            .zip(cols)
            .map(|(cp, &column)| (cp.plan(), column.into()))
            .collect();
        let mut scratch = ScanScratch::default();
        let mut matches = Vec::new();
        let mut counters = KernelCounters::default();
        scan_partition_chunked(
            &conjuncts,
            &rows,
            chunk,
            &mut scratch,
            &mut matches,
            &mut counters,
        );
        (matches, counters)
    }

    #[test]
    fn int_range_matches_interpreter_across_chunk_boundaries() {
        let values: Vec<i64> = (0..100).map(|i| (i * 7) % 50).collect();
        let col = Column::Int(values.clone());
        let c = compile(vec![between(0, 10, 30)]);
        let expected: Vec<u32> = (0..100u32)
            .filter(|&i| (10..=30).contains(&values[i as usize]))
            .collect();
        for chunk in [1, 3, 7, 64, 100, 1000] {
            let (matches, counters) = run(&c, &[&col], 100, chunk);
            assert_eq!(matches, expected, "chunk={chunk}");
            assert_eq!(counters.chunks_evaluated, 100u64.div_ceil(chunk as u64));
        }
    }

    #[test]
    fn strict_int_bounds_fold_into_endpoints() {
        let col = Column::Int((0..20).collect());
        let c = compile(vec![
            Atom::Compare {
                col: 0,
                op: CompareOp::Gt,
                value: Scalar::Int(5),
            },
            Atom::Compare {
                col: 0,
                op: CompareOp::Lt,
                value: Scalar::Int(9),
            },
        ]);
        let (matches, _) = run(&c, &[&col], 20, 1024);
        assert_eq!(matches, vec![6, 7, 8]);
    }

    #[test]
    fn int_set_kernel() {
        let col = Column::Int(vec![5, 1, 9, 5, 3, 9, 9]);
        let c = compile(vec![Atom::InSet {
            col: 0,
            set: vec![Scalar::Int(9), Scalar::Int(5)],
        }]);
        let (matches, _) = run(&c, &[&col], 7, 4);
        assert_eq!(matches, vec![0, 2, 3, 5, 6]);
    }

    #[test]
    fn float_range_uses_total_cmp() {
        let col = Column::Float(vec![-0.0, 0.0, 1.5, f64::NAN, 2.0]);
        let c = compile(vec![Atom::Compare {
            col: 0,
            op: CompareOp::Ge,
            value: Scalar::Float(0.0),
        }]);
        // total_cmp: -0.0 < 0.0; NaN > everything
        let (matches, _) = run(&c, &[&col], 5, 1024);
        assert_eq!(matches, vec![1, 2, 3, 4]);
    }

    #[test]
    fn float_set_matches_by_bits() {
        let col = Column::Float(vec![1.0, 2.0, -0.0, 0.0]);
        let c = compile(vec![Atom::InSet {
            col: 0,
            set: vec![Scalar::Float(0.0), Scalar::Float(2.0)],
        }]);
        let (matches, _) = run(&c, &[&col], 4, 1024);
        assert_eq!(matches, vec![1, 3], "-0.0 is distinct from 0.0");
    }

    #[test]
    fn dict_mask_covers_string_plans() {
        let mut b = DictBuilder::new();
        for s in ["eu", "us", "apac", "eu", "us", "eu"] {
            b.push(s);
        }
        let col = Column::Str(b.finish());
        let c = compile(vec![Atom::InSet {
            col: 0,
            set: vec![Scalar::from("eu"), Scalar::from("apac")],
        }]);
        let (matches, _) = run(&c, &[&col], 6, 2);
        assert_eq!(matches, vec![0, 2, 3, 5]);
    }

    #[test]
    fn type_mismatch_between_plan_and_column_matches_nothing() {
        let col = Column::Int((0..10).collect());
        let c = compile(vec![Atom::Compare {
            col: 0,
            op: CompareOp::Ge,
            value: Scalar::from("a"),
        }]);
        let (matches, _) = run(&c, &[&col], 10, 1024);
        assert!(matches.is_empty());
    }

    #[test]
    fn filter_rows_keeps_matching_subset_in_order() {
        use crate::column::atom_matches_ref;
        let ints = Column::Int((0..40).map(|i| (i * 7) % 10).collect());
        let mut b = DictBuilder::new();
        (0..40).for_each(|i| b.push(["eu", "us", "apac"][i % 3]));
        let strs = Column::Str(b.finish());
        let subset: Vec<u32> = (0..40).filter(|r| r % 3 != 1).collect();
        for (col, atom) in [
            (&ints, between(0, 3, 6)),
            (
                &strs,
                Atom::Compare {
                    col: 0,
                    op: CompareOp::Gt,
                    value: Scalar::from("eu"),
                },
            ),
        ] {
            let c = compile(vec![atom.clone()]);
            let mut sel = subset.clone();
            filter_rows(c.columns()[0].plan(), col, &mut sel);
            let expected: Vec<u32> = subset
                .iter()
                .copied()
                .filter(|&r| atom_matches_ref(&atom, col.get(r as usize)))
                .collect();
            assert_eq!(sel, expected, "{atom:?}");
        }
    }

    #[test]
    fn matching_bitmap_is_the_row_verdict_per_bit() {
        use crate::column::atom_matches_ref;
        // 150 rows: two full words and a partial one
        let n = 150usize;
        let ints = Column::Int((0..n as i64).map(|i| (i * 7) % 10).collect());
        let floats = Column::Float((0..n).map(|i| (i % 9) as f64 - 4.0).collect());
        let mut b = DictBuilder::new();
        (0..n).for_each(|i| b.push(["eu", "us", "apac"][i % 3]));
        let strs = Column::Str(b.finish());
        let ge = |value: Scalar| Atom::Compare {
            col: 0,
            op: CompareOp::Ge,
            value,
        };
        for (col, atom) in [
            (&ints, between(0, 3, 6)),
            (
                &ints,
                Atom::InSet {
                    col: 0,
                    set: vec![Scalar::Int(9), Scalar::Int(0)],
                },
            ),
            (&ints, ge(Scalar::from("foreign type"))),
            (&floats, ge(Scalar::Float(0.0))),
            (&strs, ge(Scalar::from("eu"))),
            // one-sided ranges, inclusive and strict
            (&ints, ge(Scalar::Int(4))),
            (
                &ints,
                Atom::Compare {
                    col: 0,
                    op: CompareOp::Lt,
                    value: Scalar::Int(7),
                },
            ),
        ] {
            // every word is written over, whatever it held
            let mut words = vec![u64::MAX; n.div_ceil(64)];
            bitmap_into(&ColumnPlan::of_atom(&atom), col, &mut words);
            for r in 0..words.len() * 64 {
                let bit = words[r / 64] >> (r % 64) & 1 == 1;
                let want = r < n && atom_matches_ref(&atom, col.get(r));
                assert_eq!(bit, want, "{atom:?} row {r}");
            }
        }
    }

    mod proptests {
        use super::*;
        use crate::column::atom_matches_ref;
        use proptest::prelude::*;

        /// The lengths around a bitmap's 64-row word, and the sample size
        /// of a generation boundary.
        const LENGTHS: [usize; 7] = [0, 1, 63, 64, 65, 128, 1_500];

        /// An integer: mostly from a tiny domain (heavy duplicates), else a
        /// domain edge or anything at all.
        fn int() -> impl Strategy<Value = i64> {
            (0usize..10, -4i64..5, any::<i64>()).prop_map(|(kind, small, wide)| match kind {
                0 => i64::MIN,
                1 => i64::MAX,
                2 => i64::MIN + 1,
                3 => i64::MAX - 1,
                4 => wide,
                _ => small,
            })
        }

        /// A literal for the int column: an int nine times in ten, else a
        /// float or a string (which must match nothing).
        fn literal() -> impl Strategy<Value = Scalar> {
            (0usize..20, int()).prop_map(|(kind, v)| match kind {
                0 => Scalar::Float(v as f64),
                1 => Scalar::from("foreign"),
                _ => Scalar::Int(v),
            })
        }

        /// Every atom shape; `BETWEEN` bounds are not ordered, so some
        /// are inverted.
        fn atom() -> impl Strategy<Value = Atom> {
            let op = prop_oneof![
                Just(CompareOp::Lt),
                Just(CompareOp::Le),
                Just(CompareOp::Gt),
                Just(CompareOp::Ge),
                Just(CompareOp::Eq),
            ];
            prop_oneof![
                (op, literal()).prop_map(|(op, value)| Atom::Compare { col: 0, op, value }),
                (literal(), literal()).prop_map(|(low, high)| Atom::Between { col: 0, low, high }),
                proptest::collection::vec(literal(), 1..5)
                    .prop_map(|set| Atom::InSet { col: 0, set }),
            ]
        }

        /// A column of up to three frames, each frame of one shape: a
        /// constant (width 0), a narrow band at an arbitrary base, values
        /// spanning the whole domain with `i64::MIN` and `i64::MAX` in it
        /// (width 64), or `int()`'s mix of duplicates and domain edges.
        fn frames_column() -> impl Strategy<Value = Vec<i64>> {
            (
                0usize..=3 * CHUNK_ROWS,
                proptest::collection::vec((0usize..4, any::<i64>()), 3),
                proptest::collection::vec((any::<u64>(), int()), 3 * CHUNK_ROWS),
            )
                .prop_map(|(n, shapes, cells)| {
                    (0..n)
                        .map(|r| {
                            let (shape, base) = shapes[r / CHUNK_ROWS];
                            let (noise, mixed) = cells[r];
                            match (shape, r % CHUNK_ROWS) {
                                (0, _) => base,
                                (1, _) => base.saturating_add((noise % 64) as i64),
                                (2, 0) => i64::MIN,
                                (2, 1) => i64::MAX,
                                (2, _) => noise as i64,
                                _ => mixed,
                            }
                        })
                        .collect()
                })
        }

        /// A literal for one of two frame columns, resolved against the
        /// columns: a cell's value nudged by -2..=2, a domain edge,
        /// anything, or a float or a string (which match nothing).
        #[derive(Clone, Debug)]
        enum Lit {
            Cell(usize, i64),
            Edge(bool),
            Any(i64),
            Foreign(bool),
        }

        fn lit() -> impl Strategy<Value = Lit> {
            (0usize..10, any::<usize>(), -2i64..=2, any::<i64>()).prop_map(|(kind, r, d, v)| {
                match kind {
                    0 => Lit::Edge(v < 0),
                    1 => Lit::Any(v),
                    2 => Lit::Foreign(v < 0),
                    _ => Lit::Cell(r, d),
                }
            })
        }

        fn resolve(lit: &Lit, column: &[i64]) -> Scalar {
            match *lit {
                Lit::Cell(_, d) if column.is_empty() => Scalar::Int(d),
                Lit::Cell(r, d) => Scalar::Int(column[r % column.len()].saturating_add(d)),
                Lit::Edge(max) => Scalar::Int(if max { i64::MAX } else { i64::MIN }),
                Lit::Any(v) => Scalar::Int(v),
                Lit::Foreign(float) if float => Scalar::Float(0.0),
                Lit::Foreign(_) => Scalar::from("foreign"),
            }
        }

        /// An atom shape on column `col` over unresolved literals; some
        /// `BETWEEN`s are inverted.
        fn frame_atom() -> impl Strategy<Value = (usize, usize, Vec<Lit>)> {
            (0usize..2, 0usize..7, proptest::collection::vec(lit(), 1..4))
        }

        fn build_atom(col: usize, shape: usize, lits: &[Scalar]) -> Atom {
            let op = [
                CompareOp::Lt,
                CompareOp::Le,
                CompareOp::Gt,
                CompareOp::Ge,
                CompareOp::Eq,
            ];
            match shape {
                0..=4 => Atom::Compare {
                    col,
                    op: op[shape],
                    value: lits[0].clone(),
                },
                5 => Atom::Between {
                    col,
                    low: lits[0].clone(),
                    high: lits[lits.len() - 1].clone(),
                },
                _ => Atom::InSet {
                    col,
                    set: lits.to_vec(),
                },
            }
        }

        proptest! {
            /// A scan over packed frames is the scan over the decoded
            /// columns — same matches, same chunks and short-circuited
            /// rows — and both are the row-by-row verdict. Two columns,
            /// so the second conjunct's `filter` runs on frames too.
            #[test]
            fn packed_frames_scan_equals_decoded_scan(
                columns in proptest::collection::vec(frames_column(), 2),
                atoms in proptest::collection::vec(frame_atom(), 1..4),
            ) {
                use crate::encode::{encode_i64_block, IntFrames};
                let n = columns[0].len().min(columns[1].len());
                let columns: Vec<Vec<i64>> = columns.iter().map(|c| c[..n].to_vec()).collect();
                let atoms: Vec<Atom> = atoms
                    .iter()
                    .map(|(col, shape, lits)| {
                        let lits: Vec<Scalar> =
                            lits.iter().map(|l| resolve(l, &columns[*col])).collect();
                        build_atom(*col, *shape, &lits)
                    })
                    .collect();
                let compiled = compile(atoms.clone());
                let decoded: Vec<Column> = columns.iter().cloned().map(Column::Int).collect();
                let frames: Vec<IntFrames> = columns
                    .iter()
                    .map(|c| {
                        let mut payload = Vec::new();
                        encode_i64_block(&mut payload, c);
                        IntFrames::new(payload, n).unwrap()
                    })
                    .collect();
                let rows: Vec<u32> = (0..n as u32).collect();
                let scan = |inputs: [ColumnInput; 2]| {
                    let conjuncts: Vec<(&ColumnPlan, ColumnInput)> = compiled
                        .columns()
                        .iter()
                        .map(|cp| (cp.plan(), inputs[cp.col()]))
                        .collect();
                    let mut matches = Vec::new();
                    let mut counters = KernelCounters::default();
                    let mut scratch = ScanScratch::default();
                    scan_partition(&conjuncts, &rows, &mut scratch, &mut matches, &mut counters);
                    (matches, counters)
                };
                let (on_frames, packed) =
                    scan([ColumnInput::Packed(&frames[0]), ColumnInput::Packed(&frames[1])]);
                let (on_columns, plain) = scan([(&decoded[0]).into(), (&decoded[1]).into()]);
                let want: Vec<u32> = rows
                    .iter()
                    .copied()
                    .filter(|&r| {
                        atoms
                            .iter()
                            .all(|a| atom_matches_ref(a, decoded[a.col()].get(r as usize)))
                    })
                    .collect();
                prop_assert_eq!(&on_columns, &want);
                prop_assert_eq!(&on_frames, &want);
                prop_assert_eq!(plain.frames_decided, 0);
                prop_assert_eq!(
                    (packed.chunks_evaluated, packed.rows_short_circuited),
                    (plain.chunks_evaluated, plain.rows_short_circuited)
                );
            }

            /// Every plan on an integer column — one atom's, or two atoms'
            /// folded together — is the row-by-row verdict, bit for bit:
            /// the rows of the ranks one index gives every range plan, as a
            /// bitmap, and the kernel pass's bitmap of any plan, written
            /// into a buffer that held the previous plan's. A plan the
            /// index has no range for folds to a set of values.
            #[test]
            fn rank_index_bitmap_is_the_row_verdict(
                len in 0usize..LENGTHS.len(),
                values in proptest::collection::vec(int(), 1_500),
                atoms in proptest::collection::vec(atom(), 1..8),
            ) {
                let n = LENGTHS[len];
                let col = Column::Int(values[..n].to_vec());
                let index = RankIndex::new(&values[..n]);
                let mut words = vec![u64::MAX; n.div_ceil(64)];
                let mut plans: Vec<(ColumnPlan, Vec<&Atom>)> = atoms
                    .iter()
                    .map(|a| (ColumnPlan::of_atom(a), vec![a]))
                    .collect();
                let both = compile(atoms[..2.min(atoms.len())].to_vec());
                plans.push((both.columns()[0].plan().clone(), atoms.iter().take(2).collect()));
                for (plan, conj) in &plans {
                    let mut verdicts = vec![];
                    if let Some(ranks) = index.ranks(plan) {
                        let mut ranked = vec![0u64; n.div_ceil(64)];
                        for &r in &index.rows()[ranks] {
                            ranked[r as usize / 64] |= 1 << (r % 64);
                        }
                        verdicts.push(ranked);
                    } else {
                        prop_assert!(matches!(plan, ColumnPlan::Set(_)), "{:?}", plan);
                    }
                    bitmap_into(plan, &col, &mut words);
                    verdicts.push(words.clone());
                    for words in &verdicts {
                        for r in 0..words.len() * 64 {
                            let bit = words[r / 64] >> (r % 64) & 1 == 1;
                            let want = r < n && conj.iter().all(|a| atom_matches_ref(a, col.get(r)));
                            prop_assert_eq!(bit, want, "{:?} row {}", conj, r);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tautology_materializes_all_rows_without_chunks() {
        let rows: Vec<u32> = vec![4, 9, 2];
        let mut scratch = ScanScratch::default();
        let mut matches = Vec::new();
        let mut counters = KernelCounters::default();
        scan_partition(&[], &rows, &mut scratch, &mut matches, &mut counters);
        assert_eq!(matches, rows);
        assert_eq!(counters, KernelCounters::default());
    }

    #[test]
    fn multi_column_and_short_circuits_and_reorders() {
        let n = 4096usize;
        // col 0 passes ~1/64 of rows, col 1 passes ~1/3 — but col 1 comes
        // first in the predicate, so the adaptive order must flip them.
        let c0 = Column::Int((0..n as i64).map(|i| i % 64).collect());
        let c1 = Column::Int((0..n as i64).map(|i| i % 3).collect());
        let c = compile(vec![between(1, 0, 0), between(0, 0, 0)]);
        let cols = [&c1, &c0]; // aligned with first-use order: col 1, col 0
        let (matches, counters) = run(&c, &cols, n, CHUNK_ROWS);
        let expected: Vec<u32> = (0..n as u32).filter(|i| i % 192 == 0).collect();
        assert_eq!(matches, expected);
        assert_eq!(counters.chunks_evaluated, 4);
        // After the first chunk the 1/64 kernel runs first, so later chunks
        // short-circuit ~63/64 of the second kernel's work.
        assert!(
            counters.rows_short_circuited > 2 * CHUNK_ROWS as u64,
            "expected substantial short-circuiting, got {}",
            counters.rows_short_circuited
        );
    }

    /// A frame's header decides a range kernel when the frame's bounds lie
    /// wholly outside or wholly inside the range; only a straddling frame
    /// is unpacked. Three frames: a constant 5, values 100..1124 (width
    /// 10, so bounded by 100..=1123), and 0..=3 (width 2).
    #[test]
    fn frame_headers_decide_whole_chunks() {
        use crate::encode::{encode_i64_block, IntFrames};
        let mut values = vec![5i64; CHUNK_ROWS];
        values.extend((0..CHUNK_ROWS as i64).map(|i| 100 + i));
        values.extend((0..300).map(|i| i % 4));
        let n = values.len();
        let mut payload = Vec::new();
        encode_i64_block(&mut payload, &values);
        let frames = IntFrames::new(payload, n).unwrap();
        let rows: Vec<u32> = (0..n as u32).collect();
        for (lo, hi, decided) in [
            (0, 4, 3),       // frames 0 and 1 outside, frame 2 inside
            (2, 1200, 2),    // frames 0 and 1 inside, frame 2 straddles
            (200, 300, 2),   // frame 1 straddles, the others are outside
            (-10, 2000, 3),  // everything inside
            (1124, 2000, 3), // frame 1's bound is 1123: all outside
        ] {
            let c = compile(vec![between(0, lo, hi)]);
            let conjuncts = [(c.columns()[0].plan(), ColumnInput::Packed(&frames))];
            let mut matches = Vec::new();
            let mut counters = KernelCounters::default();
            let mut scratch = ScanScratch::default();
            scan_partition(&conjuncts, &rows, &mut scratch, &mut matches, &mut counters);
            let want: Vec<u32> = rows
                .iter()
                .copied()
                .filter(|&r| (lo..=hi).contains(&values[r as usize]))
                .collect();
            assert_eq!(matches, want, "{lo}..={hi}");
            assert_eq!(counters.frames_decided, decided, "{lo}..={hi}");
            assert_eq!(counters.chunks_evaluated, 3);
        }
    }

    #[test]
    fn never_plan_yields_no_matches_but_counts_chunks() {
        let col = Column::Int((0..10).collect());
        let c = compile(vec![between(0, 5, 3)]);
        assert!(c.is_never());
        let (matches, counters) = run(&c, &[&col], 10, 4);
        assert!(matches.is_empty());
        assert_eq!(counters.chunks_evaluated, 3);
    }
}
