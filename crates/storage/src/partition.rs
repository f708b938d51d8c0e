//! Partition-level metadata: the only thing OREO needs to cost a query on a
//! layout without touching data (Fig. 2 of the paper).
//!
//! For every column a partition tracks its `[min, max]` range; categorical
//! columns with low cardinality additionally keep the exact distinct-value
//! set, which prunes `IN`/`=` filters much more sharply than a string range.
//!
//! The same statistics answer two questions about a predicate. *Can any
//! row match?* ([`PartitionMetadata::may_match`]) — no skips the partition.
//! *Must every row match?* ([`ColumnStats::covered_by`], per predicate
//! column) — yes means the scan need not evaluate that column, and a
//! partition every predicate column covers is answered whole, from its
//! row ids alone.

use crate::column::Column;
use crate::encode::{get_varint, put_varint, unzigzag, zigzag, DecodeError};
use crate::table::Table;
use bytes::{Buf, BufMut};
use oreo_query::{ColumnPlan, Predicate, Scalar};
use std::collections::BTreeSet;

/// Per-column pruning statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnStats {
    /// `[min, max]` over the partition's rows; `None` for an empty partition.
    pub range: Option<(Scalar, Scalar)>,
    /// Exact distinct set, kept only for categorical columns whose partition-
    /// local cardinality stays at or below the builder's cap.
    pub distinct: Option<BTreeSet<Scalar>>,
}

impl ColumnStats {
    fn empty() -> Self {
        Self {
            range: None,
            distinct: None,
        }
    }

    /// Does every value this column holds in the partition satisfy `plan`?
    /// Conservative the other way round from
    /// [`PartitionMetadata::may_match`]: `true` is a proof, `false` only
    /// means the statistics cannot tell.
    ///
    /// A `Range` plan covers the column when the stored `min` and `max`
    /// both satisfy [`ColumnPlan::matches`]: a range is convex in the order
    /// the statistics were built in (exact for ints, `total_cmp` for floats
    /// — NaN included —, [`Scalar`] order for strings), so everything
    /// between two values it admits is admitted too. A `Set` plan covers
    /// the column when the exact `distinct` set is a subset of it. Anything
    /// else — no statistics, a distinct set given up at the cap, `Never`, a
    /// literal of another type than the column — does not.
    pub fn covered_by(&self, plan: &ColumnPlan) -> bool {
        match plan {
            ColumnPlan::Never => false,
            ColumnPlan::Range { .. } => self
                .range
                .as_ref()
                .is_some_and(|(min, max)| plan.matches(min) && plan.matches(max)),
            ColumnPlan::Set(_) => self
                .distinct
                .as_ref()
                .is_some_and(|held| held.iter().all(|v| plan.matches(v))),
        }
    }
}

/// Metadata for one partition of one layout.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionMetadata {
    /// Row count — possibly *scaled* when the metadata was estimated from a
    /// sample (see [`PartitionMetadata::scale_rows`]).
    pub rows: f64,
    /// Per-column stats, indexed by [`oreo_query::ColId`].
    pub columns: Vec<ColumnStats>,
}

impl PartitionMetadata {
    /// Can any row of this partition match `predicate`? Conservative: `false`
    /// means the partition is provably irrelevant and can be skipped.
    pub fn may_match(&self, predicate: &Predicate) -> bool {
        if self.rows <= 0.0 {
            return false;
        }
        predicate.atoms().iter().all(|atom| {
            let stats = &self.columns[atom.col()];
            if let Some(distinct) = &stats.distinct {
                return atom.may_match_set(distinct);
            }
            match &stats.range {
                Some((min, max)) => atom.may_match_range(min, max),
                None => false,
            }
        })
    }

    /// Multiply the row count by `factor`. Metadata built from a table
    /// *sample* approximates the full-table partition sizes this way, which
    /// is how candidate layouts are costed before they are materialized.
    pub fn scale_rows(&mut self, factor: f64) {
        self.rows *= factor;
    }
}

/// Default cap on exact distinct sets per (partition, column): beyond this,
/// the builder keeps only the range. 64 comfortably covers the categorical
/// columns of TPC-H/TPC-DS-shaped data (flags, modes, segments, regions).
pub const DEFAULT_DISTINCT_CAP: usize = 64;

/// Builds metadata for all `k` partitions of a layout in one pass over the
/// table, given the row → partition assignment, keeping a distinct set
/// wherever a partition holds at most [`DEFAULT_DISTINCT_CAP`] values.
///
/// Test builds only: a layout's model is compiled straight from the table
/// ([`crate::LayoutModel::from_assignment`]), and a rewrite gathers each
/// partition's metadata while its columns are in cache
/// ([`crate::TableSnapshot::build`]). It is the test oracle of both — the
/// metadata they must agree with, spelled out as statistics.
#[cfg(test)]
pub(crate) fn build_metadata(
    table: &Table,
    assignment: &[u32],
    k: usize,
) -> Vec<PartitionMetadata> {
    assert_eq!(assignment.len(), table.num_rows(), "assignment length");
    let ncols = table.num_columns();
    let mut rows = vec![0u64; k];
    for &bid in assignment {
        rows[bid as usize] += 1;
    }

    // Accumulate per column to stay cache-friendly in the typed arrays:
    // one pass over each column's rows, then per-partition work that does
    // not depend on the row count — never a second pass over the rows.
    let mut stats: Vec<Vec<ColumnStats>> = (0..k)
        .map(|_| (0..ncols).map(|_| ColumnStats::empty()).collect())
        .collect();

    for (col_id, column) in table.columns().iter().enumerate() {
        match column {
            Column::Int(values) => {
                let mut min = vec![i64::MAX; k];
                let mut max = vec![i64::MIN; k];
                // Low-cardinality integer columns (nation keys, store ids,
                // months…) prune equality predicates far better with exact
                // distinct sets than with min/max ranges — a range almost
                // always straddles the probe value. Track a capped set per
                // partition as a sorted vector (as `table_metadata` does),
                // dropping it on overflow; a value equal to the partition's
                // previous one is already in the set (runs of zeros, sorted
                // keys) and skips the search.
                let mut sets: Vec<Option<Vec<i64>>> = vec![Some(Vec::new()); k];
                let mut last: Vec<Option<i64>> = vec![None; k];
                for (row, &v) in values.iter().enumerate() {
                    let b = assignment[row] as usize;
                    min[b] = min[b].min(v);
                    max[b] = max[b].max(v);
                    if last[b] == Some(v) {
                        continue;
                    }
                    last[b] = Some(v);
                    if let Some(set) = sets[b].as_mut() {
                        if let Err(at) = set.binary_search(&v) {
                            set.insert(at, v);
                            if set.len() > DEFAULT_DISTINCT_CAP {
                                sets[b] = None;
                            }
                        }
                    }
                }
                for b in 0..k {
                    if rows[b] > 0 {
                        stats[b][col_id].range = Some((Scalar::Int(min[b]), Scalar::Int(max[b])));
                        stats[b][col_id].distinct = sets[b]
                            .take()
                            .map(|s| s.into_iter().map(Scalar::Int).collect());
                    }
                }
            }
            Column::Float(values) => {
                let mut min = vec![f64::INFINITY; k];
                let mut max = vec![f64::NEG_INFINITY; k];
                for (row, &v) in values.iter().enumerate() {
                    let b = assignment[row] as usize;
                    if v.total_cmp(&min[b]).is_lt() {
                        min[b] = v;
                    }
                    if v.total_cmp(&max[b]).is_gt() {
                        max[b] = v;
                    }
                }
                for b in 0..k {
                    if rows[b] > 0 {
                        stats[b][col_id].range =
                            Some((Scalar::Float(min[b]), Scalar::Float(max[b])));
                    }
                }
            }
            Column::Str(dict) => {
                // Mark the codes each partition holds in a k × |dict| bitset
                // (the only per-row work), then derive range and distinct
                // set from the marked codes: |dict| string compares per
                // partition at most, whatever its row count. Beyond the cap
                // a partition keeps only the range.
                let words = dict.cardinality().div_ceil(64);
                let mut seen = vec![0u64; k * words];
                for (row, &code) in dict.codes().iter().enumerate() {
                    let b = assignment[row] as usize;
                    seen[b * words + code as usize / 64] |= 1 << (code % 64);
                }
                for (b, marked) in seen.chunks(words.max(1)).enumerate() {
                    let held: Vec<&str> = set_bits(marked).map(|c| dict.decode(c)).collect();
                    let range = held.iter().min().zip(held.iter().max());
                    stats[b][col_id].range =
                        range.map(|(lo, hi)| (Scalar::from(*lo), Scalar::from(*hi)));
                    if !held.is_empty() && held.len() <= DEFAULT_DISTINCT_CAP {
                        stats[b][col_id].distinct =
                            Some(held.into_iter().map(Scalar::from).collect());
                    }
                }
            }
        }
    }

    stats
        .into_iter()
        .zip(rows)
        .map(|(columns, r)| PartitionMetadata {
            rows: r as f64,
            columns,
        })
        .collect()
}

/// Metadata of the one partition made of all of `table`'s rows, under
/// [`DEFAULT_DISTINCT_CAP`] — what `build_metadata` returns for `k = 1`,
/// without an assignment to consult: every column is read front to back.
///
/// The rewrite path ([`crate::TableSnapshot::build`]) calls this on each
/// partition's columns right after gathering them, while they are still in
/// cache, instead of a second pass over the base table that scatters every
/// row into `k` accumulators. `build_metadata` is its oracle.
pub(crate) fn table_metadata(table: &Table) -> PartitionMetadata {
    let rows = table.num_rows();
    let columns = table.columns().iter().map(|column| {
        if rows == 0 {
            return ColumnStats::empty();
        }
        match column {
            Column::Int(values) => {
                let (min, max) = values
                    .iter()
                    .fold((i64::MAX, i64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                // The exact set `build_metadata` keeps, given up at
                // the first value past the cap — after a few dozen rows of
                // a high-cardinality column, which is why it has a loop of
                // its own. A value equal to its predecessor is already held.
                let mut held: Vec<i64> = Vec::new();
                let mut last = None;
                for &v in values {
                    if last == Some(v) {
                        continue;
                    }
                    last = Some(v);
                    if let Err(at) = held.binary_search(&v) {
                        held.insert(at, v);
                        if held.len() > DEFAULT_DISTINCT_CAP {
                            break;
                        }
                    }
                }
                ColumnStats {
                    range: Some((Scalar::Int(min), Scalar::Int(max))),
                    distinct: (held.len() <= DEFAULT_DISTINCT_CAP)
                        .then(|| held.into_iter().map(Scalar::Int).collect()),
                }
            }
            Column::Float(values) => {
                let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
                for &v in values {
                    if v.total_cmp(&min).is_lt() {
                        min = v;
                    }
                    if v.total_cmp(&max).is_gt() {
                        max = v;
                    }
                }
                ColumnStats {
                    range: Some((Scalar::Float(min), Scalar::Float(max))),
                    distinct: None,
                }
            }
            Column::Str(dict) => {
                // One mark per dictionary code, a byte wide so that marking
                // is a plain store: rows of one partition keep hitting the
                // same few codes, and a read-modify-write of a shared
                // bitset word would chain each row behind the one before.
                let mut seen = vec![false; dict.cardinality()];
                for &code in dict.codes() {
                    seen[code as usize] = true;
                }
                let held: Vec<&str> = (dict.dict().iter().zip(&seen))
                    .filter_map(|(s, &marked)| marked.then_some(s.as_str()))
                    .collect();
                let range = held.iter().min().zip(held.iter().max());
                ColumnStats {
                    range: range.map(|(lo, hi)| (Scalar::from(*lo), Scalar::from(*hi))),
                    distinct: (held.len() <= DEFAULT_DISTINCT_CAP)
                        .then(|| held.into_iter().map(Scalar::from).collect()),
                }
            }
        }
    });
    PartitionMetadata {
        columns: columns.collect(),
        rows: rows as f64,
    }
}

/// Positions of the set bits of `words`, ascending.
pub(crate) fn set_bits(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    (words.iter().enumerate())
        .flat_map(|(w, &word)| word_bits(word, w * 64))
        .map(|bit| bit as u32)
}

/// `base` plus the position of each set bit of `word`, ascending.
pub(crate) fn word_bits(word: u64, base: usize) -> impl Iterator<Item = usize> {
    let mut rest = word;
    std::iter::from_fn(move || {
        (rest != 0).then(|| {
            let bit = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            base + bit
        })
    })
}

// ------------------------------------------------------- metadata codec --
//
// Partition files (format version 2) persist their pruning metadata in the
// footer so a store can reopen header-only: row counts, ranges, and
// distinct sets come from a few hundred footer bytes instead of a full
// decode of every partition: without them, opening a store decoded every
// partition just to rebuild its metadata, and its scans decoded it again.

const SCALAR_INT: u8 = 0;
const SCALAR_FLOAT: u8 = 1;
const SCALAR_STR: u8 = 2;

fn put_scalar(buf: &mut impl BufMut, s: &Scalar) {
    match s {
        Scalar::Int(v) => {
            buf.put_u8(SCALAR_INT);
            put_varint(buf, zigzag(*v));
        }
        Scalar::Float(v) => {
            buf.put_u8(SCALAR_FLOAT);
            buf.put_f64_le(*v);
        }
        Scalar::Str(v) => {
            buf.put_u8(SCALAR_STR);
            put_varint(buf, v.len() as u64);
            buf.put_slice(v.as_bytes());
        }
    }
}

fn need(buf: &impl Buf, n: usize, what: &str) -> Result<(), DecodeError> {
    if buf.remaining() < n {
        return Err(DecodeError(format!(
            "truncated metadata: need {n} more bytes for {what}"
        )));
    }
    Ok(())
}

fn get_scalar(buf: &mut impl Buf) -> Result<Scalar, DecodeError> {
    need(buf, 1, "scalar tag")?;
    match buf.get_u8() {
        SCALAR_INT => Ok(Scalar::Int(unzigzag(get_varint(buf)?))),
        SCALAR_FLOAT => {
            need(buf, 8, "float scalar")?;
            Ok(Scalar::Float(buf.get_f64_le()))
        }
        SCALAR_STR => {
            let len = get_varint(buf)? as usize;
            need(buf, len, "string scalar")?;
            let mut bytes = vec![0u8; len];
            buf.copy_to_slice(&mut bytes);
            String::from_utf8(bytes)
                .map(Scalar::Str)
                .map_err(|_| DecodeError("invalid UTF-8 in metadata scalar".into()))
        }
        tag => Err(DecodeError(format!("unknown scalar tag {tag}"))),
    }
}

/// Serialize pruning metadata into a partition-file footer: the row count,
/// then per column a flags byte, the optional `[min, max]` range, and the
/// optional distinct set.
pub fn encode_metadata(buf: &mut impl BufMut, meta: &PartitionMetadata) {
    buf.put_f64_le(meta.rows);
    put_varint(buf, meta.columns.len() as u64);
    for col in &meta.columns {
        let mut flags = 0u8;
        if col.range.is_some() {
            flags |= 1;
        }
        if col.distinct.is_some() {
            flags |= 2;
        }
        buf.put_u8(flags);
        if let Some((lo, hi)) = &col.range {
            put_scalar(buf, lo);
            put_scalar(buf, hi);
        }
        if let Some(set) = &col.distinct {
            put_varint(buf, set.len() as u64);
            for s in set {
                put_scalar(buf, s);
            }
        }
    }
}

/// Parse metadata produced by [`encode_metadata`].
pub fn decode_metadata(buf: &mut impl Buf) -> Result<PartitionMetadata, DecodeError> {
    need(buf, 8, "metadata row count")?;
    let rows = buf.get_f64_le();
    if !rows.is_finite() || rows < 0.0 {
        return Err(DecodeError(format!("invalid metadata row count {rows}")));
    }
    let ncols = get_varint(buf)? as usize;
    if ncols > u16::MAX as usize {
        return Err(DecodeError(format!("metadata claims {ncols} columns")));
    }
    let mut columns = Vec::with_capacity(ncols);
    for col in 0..ncols {
        need(buf, 1, "metadata flags")?;
        let flags = buf.get_u8();
        if flags & !3 != 0 {
            return Err(DecodeError(format!(
                "unknown metadata flags {flags:#x} for column {col}"
            )));
        }
        let range = if flags & 1 != 0 {
            Some((get_scalar(buf)?, get_scalar(buf)?))
        } else {
            None
        };
        let distinct = if flags & 2 != 0 {
            let n = get_varint(buf)? as usize;
            if n > 1 << 20 {
                return Err(DecodeError(format!("distinct set of {n} values")));
            }
            let mut set = BTreeSet::new();
            for _ in 0..n {
                set.insert(get_scalar(buf)?);
            }
            Some(set)
        } else {
            None
        };
        columns.push(ColumnStats { range, distinct });
    }
    Ok(PartitionMetadata { rows, columns })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use oreo_query::{ColumnType, QueryBuilder, Schema};
    use std::sync::Arc;

    /// The metadata pass this module shipped before the single-pass one (a
    /// tree insert per row, a table rescan per overflowed partition per string
    /// column), kept verbatim as the differential oracle.
    fn reference_metadata_capped(
        table: &Table,
        assignment: &[u32],
        k: usize,
        distinct_cap: usize,
    ) -> Vec<PartitionMetadata> {
        assert_eq!(assignment.len(), table.num_rows(), "assignment length");
        let ncols = table.num_columns();
        let mut rows = vec![0u64; k];
        for &bid in assignment {
            rows[bid as usize] += 1;
        }

        // Accumulate per column to stay cache-friendly in the typed arrays.
        let mut stats: Vec<Vec<ColumnStats>> = (0..k)
            .map(|_| (0..ncols).map(|_| ColumnStats::empty()).collect())
            .collect();

        for (col_id, column) in table.columns().iter().enumerate() {
            match column {
                Column::Int(values) => {
                    let mut min = vec![i64::MAX; k];
                    let mut max = vec![i64::MIN; k];
                    // Low-cardinality integer columns (nation keys, store ids,
                    // months…) prune equality predicates far better with exact
                    // distinct sets than with min/max ranges — a range almost
                    // always straddles the probe value. Track a capped set per
                    // partition, dropping it on overflow.
                    let mut sets: Vec<Option<BTreeSet<i64>>> = vec![Some(BTreeSet::new()); k];
                    for (row, &v) in values.iter().enumerate() {
                        let b = assignment[row] as usize;
                        min[b] = min[b].min(v);
                        max[b] = max[b].max(v);
                        if let Some(set) = sets[b].as_mut() {
                            set.insert(v);
                            if set.len() > distinct_cap {
                                sets[b] = None;
                            }
                        }
                    }
                    for b in 0..k {
                        if rows[b] > 0 {
                            stats[b][col_id].range =
                                Some((Scalar::Int(min[b]), Scalar::Int(max[b])));
                            stats[b][col_id].distinct = sets[b]
                                .take()
                                .map(|s| s.into_iter().map(Scalar::Int).collect());
                        }
                    }
                }
                Column::Float(values) => {
                    let mut min = vec![f64::INFINITY; k];
                    let mut max = vec![f64::NEG_INFINITY; k];
                    for (row, &v) in values.iter().enumerate() {
                        let b = assignment[row] as usize;
                        if v.total_cmp(&min[b]).is_lt() {
                            min[b] = v;
                        }
                        if v.total_cmp(&max[b]).is_gt() {
                            max[b] = v;
                        }
                    }
                    for b in 0..k {
                        if rows[b] > 0 {
                            stats[b][col_id].range =
                                Some((Scalar::Float(min[b]), Scalar::Float(max[b])));
                        }
                    }
                }
                Column::Str(dict) => {
                    // Track distinct codes per partition; degrade to range-only
                    // when a partition exceeds the cap.
                    let mut codes: Vec<Option<BTreeSet<u32>>> = vec![Some(BTreeSet::new()); k];
                    for (row, &code) in dict.codes().iter().enumerate() {
                        let b = assignment[row] as usize;
                        if let Some(set) = codes[b].as_mut() {
                            set.insert(code);
                            if set.len() > distinct_cap {
                                codes[b] = None;
                            }
                        }
                    }
                    for b in 0..k {
                        if rows[b] == 0 {
                            continue;
                        }
                        match &codes[b] {
                            Some(set) => {
                                let distinct: BTreeSet<Scalar> = set
                                    .iter()
                                    .map(|&c| Scalar::Str(dict.decode(c).to_owned()))
                                    .collect();
                                let min = distinct.iter().next().cloned();
                                let max = distinct.iter().next_back().cloned();
                                stats[b][col_id].range = min.zip(max);
                                stats[b][col_id].distinct = Some(distinct);
                            }
                            None => {
                                // One extra pass for this partition's range.
                                let mut min: Option<&str> = None;
                                let mut max: Option<&str> = None;
                                for (row, &code) in dict.codes().iter().enumerate() {
                                    if assignment[row] as usize != b {
                                        continue;
                                    }
                                    let s = dict.decode(code);
                                    min = Some(min.map_or(s, |m| if s < m { s } else { m }));
                                    max = Some(max.map_or(s, |m| if s > m { s } else { m }));
                                }
                                stats[b][col_id].range = min.zip(max).map(|(lo, hi)| {
                                    (Scalar::Str(lo.to_owned()), Scalar::Str(hi.to_owned()))
                                });
                            }
                        }
                    }
                }
            }
        }

        stats
            .into_iter()
            .zip(rows)
            .map(|(columns, r)| PartitionMetadata {
                rows: r as f64,
                columns,
            })
            .collect()
    }

    fn table() -> Table {
        let s = Arc::new(Schema::from_pairs([
            ("v", ColumnType::Int),
            ("f", ColumnType::Float),
            ("c", ColumnType::Str),
        ]));
        let mut b = TableBuilder::new(Arc::clone(&s));
        for i in 0..100i64 {
            b.push_row(&[
                Scalar::Int(i),
                Scalar::Float(i as f64),
                Scalar::from(if i < 50 { "low" } else { "high" }),
            ]);
        }
        b.finish()
    }

    #[test]
    fn metadata_ranges_per_partition() {
        let t = table();
        // rows 0..50 -> partition 0, rows 50..100 -> partition 1
        let assignment: Vec<u32> = (0..100).map(|i| (i >= 50) as u32).collect();
        let meta = build_metadata(&t, &assignment, 2);
        assert_eq!(meta[0].rows, 50.0);
        assert_eq!(
            meta[0].columns[0].range,
            Some((Scalar::Int(0), Scalar::Int(49)))
        );
        assert_eq!(
            meta[1].columns[0].range,
            Some((Scalar::Int(50), Scalar::Int(99)))
        );
        let d0 = meta[0].columns[2].distinct.as_ref().unwrap();
        assert_eq!(d0.len(), 1);
        assert!(d0.contains(&Scalar::from("low")));
    }

    #[test]
    fn may_match_uses_distinct_sets() {
        let t = table();
        let assignment: Vec<u32> = (0..100).map(|i| (i >= 50) as u32).collect();
        let meta = build_metadata(&t, &assignment, 2);
        let q = QueryBuilder::new(t.schema())
            .eq("c", "low")
            .build_predicate();
        assert!(meta[0].may_match(&q));
        assert!(!meta[1].may_match(&q));
        let q2 = QueryBuilder::new(t.schema())
            .between("v", 10, 20)
            .build_predicate();
        assert!(meta[0].may_match(&q2));
        assert!(!meta[1].may_match(&q2));
    }

    /// An int and a string column over `2 * cap + 1` distinct values:
    /// partition 0 holds the first [`DEFAULT_DISTINCT_CAP`] of them,
    /// partition 1 the rest — one more than the cap.
    fn past_the_cap() -> (Table, Vec<u32>) {
        let cap = DEFAULT_DISTINCT_CAP;
        let s = Arc::new(Schema::from_pairs([
            ("v", ColumnType::Int),
            ("c", ColumnType::Str),
        ]));
        let mut b = TableBuilder::new(Arc::clone(&s));
        for i in 0..2 * cap + 1 {
            b.push_row(&[Scalar::Int(i as i64), Scalar::from(format!("s{i:03}"))]);
        }
        let assignment = (0..2 * cap + 1).map(|i| (i >= cap) as u32).collect();
        (b.finish(), assignment)
    }

    #[test]
    fn distinct_cap_degrades_to_range() {
        let (t, assignment) = past_the_cap();
        let meta = build_metadata(&t, &assignment, 2);
        for col in 0..2 {
            let held = meta[0].columns[col].distinct.as_ref().map(BTreeSet::len);
            assert_eq!(held, Some(DEFAULT_DISTINCT_CAP));
            assert!(meta[1].columns[col].distinct.is_none());
        }
        assert_eq!(
            meta[1].columns[0].range,
            Some((Scalar::Int(64), Scalar::Int(128)))
        );
        assert_eq!(
            meta[1].columns[1].range,
            Some((Scalar::from("s064"), Scalar::from("s128")))
        );
    }

    #[test]
    fn empty_partition_never_matches() {
        let t = table();
        let assignment = vec![0u32; 100]; // partition 1 stays empty
        let meta = build_metadata(&t, &assignment, 2);
        assert_eq!(meta[1].rows, 0.0);
        assert!(!meta[1].may_match(&Predicate::always_true()));
    }

    #[test]
    fn metadata_codec_round_trips() {
        let t = table();
        let assignment: Vec<u32> = (0..100).map(|i| (i >= 50) as u32).collect();
        for meta in build_metadata(&t, &assignment, 2) {
            let mut buf = bytes::BytesMut::new();
            encode_metadata(&mut buf, &meta);
            let mut r: &[u8] = &buf;
            let back = decode_metadata(&mut r).unwrap();
            assert_eq!(back, meta);
            assert_eq!(r.len(), 0, "codec must consume exactly its bytes");
        }
        // degraded (range-only) metadata round-trips too
        let (t, assignment) = past_the_cap();
        let capped = build_metadata(&t, &assignment, 2);
        let mut buf = bytes::BytesMut::new();
        encode_metadata(&mut buf, &capped[1]);
        let mut r: &[u8] = &buf;
        assert_eq!(decode_metadata(&mut r).unwrap(), capped[1]);
    }

    #[test]
    fn metadata_codec_rejects_truncation() {
        let t = table();
        let meta = build_metadata(&t, &vec![0u32; 100], 1).pop().unwrap();
        let mut buf = bytes::BytesMut::new();
        encode_metadata(&mut buf, &meta);
        for cut in [0, 4, 9, buf.len() / 2, buf.len() - 1] {
            let mut r: &[u8] = &buf[..cut];
            assert!(decode_metadata(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn scale_rows_multiplies() {
        let t = table();
        let assignment = vec![0u32; 100];
        let mut meta = build_metadata(&t, &assignment, 1);
        meta[0].scale_rows(10.0);
        assert_eq!(meta[0].rows, 1000.0);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The single-pass builder equals the old per-row / rescanning
            /// one field for field: empty partitions, dictionaries that
            /// straddle a 64-code bitset word, and partition cardinalities
            /// on both sides of the cap — ints of a narrow domain or of one
            /// wider than the cap, strings of up to 150.
            #[test]
            fn single_pass_equals_reference(
                rows in proptest::collection::vec(
                    (-4i64..12, -3i64..5, 0usize..150, 0usize..4),
                    0..200,
                ),
                k in 1usize..9,
                narrow in 1usize..150,
                wide in any::<bool>(),
            ) {
                let s = Arc::new(Schema::from_pairs([
                    ("v", ColumnType::Int),
                    ("f", ColumnType::Float),
                    ("c", ColumnType::Str),
                ]));
                let mut b = TableBuilder::new(Arc::clone(&s));
                // Partition k − 1 stays empty; partition ids correlate with
                // the values so some partitions stay under the cap.
                let live = (k - 1).max(1);
                let mut assignment = Vec::new();
                for &(v, f, word, salt) in &rows {
                    let word = word % narrow;
                    let f = if f == -3 { f64::NAN } else { f as f64 / 2.0 };
                    let word_str = Scalar::from(format!("w{word:03}"));
                    let v = if wide { v + 16 * word as i64 } else { v };
                    b.push_row(&[Scalar::Int(v), Scalar::Float(f), word_str]);
                    assignment.push(((word / 8 + salt / 3) % live) as u32);
                }
                let t = b.finish();
                let got = build_metadata(&t, &assignment, k);
                let want = reference_metadata_capped(&t, &assignment, k, DEFAULT_DISTINCT_CAP);
                prop_assert_eq!(got, want);
            }

            /// Footers are read back from disk, so the codec sees arbitrary
            /// bytes: random ones, and a real encoding with one byte
            /// overwritten and its tail cut anywhere. Each decodes to a
            /// value or an error and never panics.
            #[test]
            fn decode_metadata_never_panics(
                noise in proptest::collection::vec(any::<u8>(), 0..200),
                shapes in arb::shapes(),
                at in any::<usize>(),
                byte in any::<u8>(),
                cut in any::<usize>(),
            ) {
                let _ = decode_metadata(&mut &noise[..]);
                let (t, assignment) = arb::table(&shapes, shapes.len());
                let mut buf = bytes::BytesMut::new();
                for meta in build_metadata(&t, &assignment, shapes.len()) {
                    encode_metadata(&mut buf, &meta);
                }
                let mut bytes = buf.to_vec();
                let len = bytes.len();
                bytes[at % len] = byte;
                bytes.truncate(cut % (len + 1));
                let mut r = &bytes[..];
                while !r.is_empty() && decode_metadata(&mut r).is_ok() {}
            }

            /// Both questions the statistics answer are sound on any
            /// predicate — floats with NaN, ±0.0 and ±∞, literals of another
            /// type than their column, inverted and mixed-type ranges, two
            /// atoms on one column: a partition `may_match` rules out holds
            /// no row matching under `atom_matches_ref`, and a column
            /// `covered_by` a compiled plan holds no row failing one of the
            /// column's atoms.
            #[test]
            fn may_match_and_covered_by_are_sound(
                shapes in arb::shapes(),
                pad in prop_oneof![Just(0usize), Just(3)],
                raw in arb::raw_atoms(),
            ) {
                use crate::column::atom_matches_ref;
                use oreo_query::CompiledPredicate;
                let k = shapes.len() + pad;
                let (t, assignment) = arb::table(&shapes, k);
                let meta = build_metadata(&t, &assignment, k);
                // The conjunction, and each atom on its own (which matches
                // rows far more often).
                let singles = raw.iter().map(|a| arb::predicate(std::slice::from_ref(a)));
                for predicate in std::iter::once(arb::predicate(&raw)).chain(singles) {
                    let compiled = CompiledPredicate::compile(&predicate);
                    for (r, &p) in assignment.iter().enumerate() {
                        let meta = &meta[p as usize];
                        prop_assert!(
                            meta.may_match(&predicate) || !t.row_matches(r, &predicate),
                            "partition {} skipped but row {} matches {:?}", p, r, predicate
                        );
                        for column in compiled.columns() {
                            let col = column.col();
                            if meta.columns[col].covered_by(column.plan()) {
                                let on_col = predicate.atoms().iter().filter(|a| a.col() == col);
                                prop_assert!(
                                    on_col.clone().all(|a| atom_matches_ref(a, t.get(r, col))),
                                    "column {} of partition {} covered but row {} fails {:?}",
                                    col, p, r, on_col.collect::<Vec<_>>()
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Random tables, layouts and predicates for the property tests of the
/// statistics (here) and of [`crate::LayoutModel`], which must cost a query
/// exactly as [`PartitionMetadata::may_match`] prunes it.
#[cfg(test)]
pub(crate) mod arb {
    use super::DEFAULT_DISTINCT_CAP;
    use crate::table::{Table, TableBuilder};
    use oreo_query::{Atom, ColumnType, CompareOp, Predicate, Scalar, Schema};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// An int, a timestamp, a float and a string column.
    const COLUMNS: usize = 4;

    /// One atom as drawn: its column, its kind and its literals, each a
    /// type selector and a seed (see [`atom`]).
    pub type RawAtom = (usize, usize, Vec<(usize, i64)>);

    /// Column `col`'s value for seed `v`. Distinct seeds give distinct
    /// ints, timestamps and strings; floats cycle through NaN of both
    /// signs, −0.0, 0.0, ±∞ and quarters. A negative seed gives a string
    /// no table holds, between two that it may.
    fn cell(col: usize, v: i64) -> Scalar {
        match col {
            0 => Scalar::Int(v),
            1 => Scalar::Int(v * 1_000 - 7),
            2 => Scalar::Float(match v.rem_euclid(16) {
                1 => f64::NAN,
                2 => -f64::NAN,
                3 => -0.0,
                4 => f64::INFINITY,
                5 => f64::NEG_INFINITY,
                _ => (v - 8) as f64 / 4.0,
            }),
            _ if v >= 0 => Scalar::from(format!("s{v:03}")),
            _ => Scalar::from(format!("s{:03}x", -v)),
        }
    }

    /// One `(class, seed)` per partition; see [`table`].
    pub fn shapes() -> impl Strategy<Value = Vec<(usize, i64)>> {
        proptest::collection::vec((0usize..5, 0i64..64), 1..12)
    }

    /// A table of `k` partitions, the shapes repeated as needed, and its
    /// row → partition assignment. By class, a partition is empty, holds a
    /// few rows of a narrow domain, holds exactly [`DEFAULT_DISTINCT_CAP`]
    /// distinct values per column (floats aside) or one more — with
    /// repeats —, or holds 20 rows of a wider spread.
    pub fn table(shapes: &[(usize, i64)], k: usize) -> (Table, Vec<u32>) {
        let cap = DEFAULT_DISTINCT_CAP as i64;
        let schema = Arc::new(Schema::from_pairs([
            ("i", ColumnType::Int),
            ("t", ColumnType::Timestamp),
            ("f", ColumnType::Float),
            ("s", ColumnType::Str),
        ]));
        let mut b = TableBuilder::new(schema);
        let mut assignment = Vec::new();
        for (p, &(class, seed)) in shapes.iter().cycle().take(k).enumerate() {
            let seeds: Vec<i64> = match class {
                0 => Vec::new(),
                1 => (0..=seed % 6).map(|j| (seed + 13 * j) % 70).collect(),
                2 | 3 => (0..cap + class as i64 - 2)
                    .chain(0..seed % 5)
                    .map(|j| seed % 8 + j)
                    .collect(),
                _ => (0..20).map(|j| (seed * 7 + 29 * j) % 200).collect(),
            };
            for v in seeds {
                let row: Vec<Scalar> = (0..COLUMNS).map(|c| cell(c, v)).collect();
                b.push_row(&row);
                assignment.push(p as u32);
            }
        }
        (b.finish(), assignment)
    }

    /// Up to three atoms, on any of the columns — often two on one.
    pub fn raw_atoms() -> impl Strategy<Value = Vec<RawAtom>> {
        let literals = proptest::collection::vec((0usize..8, -8i64..80), 1..8);
        proptest::collection::vec((0..COLUMNS, 0usize..8, literals), 0..4)
    }

    /// The atom `raw` stands for. Kinds 0–4 compare the first literal
    /// under each [`CompareOp`]; 5 is `BETWEEN` the first and last literal
    /// in order, 6 the same as drawn (inverted about half the time); 7 is
    /// `IN` every literal (1–7 of them). A literal has its column's type
    /// for selectors 0–5 and one of the other two types for 6 and 7.
    fn atom(raw: &RawAtom) -> Atom {
        let (col, kind, literals) = raw;
        let col = *col;
        let foreign = match col {
            0 | 1 => [2, 3],
            2 => [0, 3],
            _ => [0, 2],
        };
        let literals: Vec<Scalar> = (literals.iter())
            .map(|&(ty, v)| cell(if ty < 6 { col } else { foreign[ty - 6] }, v))
            .collect();
        let (first, last) = (literals[0].clone(), literals[literals.len() - 1].clone());
        match kind {
            0..=4 => {
                let op = [
                    CompareOp::Lt,
                    CompareOp::Le,
                    CompareOp::Gt,
                    CompareOp::Ge,
                    CompareOp::Eq,
                ][*kind];
                Atom::Compare {
                    col,
                    op,
                    value: first,
                }
            }
            5 if first > last => Atom::Between {
                col,
                low: last,
                high: first,
            },
            5 | 6 => Atom::Between {
                col,
                low: first,
                high: last,
            },
            _ => Atom::InSet { col, set: literals },
        }
    }

    /// The conjunction of the drawn atoms.
    pub fn predicate(raw: &[RawAtom]) -> Predicate {
        Predicate::new(raw.iter().map(atom).collect())
    }
}
