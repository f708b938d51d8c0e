//! [`LayoutModel`] — the metadata-only view of a data layout.
//!
//! This is the "state" the MTS machinery works with: evaluating the service
//! cost `c(s, q)` of a query on a layout requires only the layout's
//! partition statistics, never the data itself (§III-B of the paper, the
//! `eval_skipped` functionality).
//!
//! The D-UMTS step costs every live state on every query, and each
//! generation boundary costs every state and candidate over the admission
//! sample (Algorithm 5), so a model is compiled once into per-column arrays
//! a query is costed on in one pass:
//!
//! * every statistic becomes an integer key whose order is [`Scalar`]'s:
//!   an int is itself, a float its `total_cmp` image, a string its position
//!   in the column's sorted dictionary of the strings its statistics hold,
//!   each above its type's rank — so a literal of another runtime type than
//!   the column compares exactly the way `Scalar` compares it, through the
//!   same code;
//! * per partition a column keeps a `min` and a `max` key, one bit saying
//!   whether it has statistics at all and one saying whether an exact
//!   distinct set answers it, that set being a sorted slice of one key
//!   buffer per column;
//! * an atom is evaluated across 64 partitions at a time into a bit mask
//!   — only on the partitions the atoms before it kept —, a conjunction
//!   ANDs its atoms' masks, and the rows of the set bits are summed in
//!   partition order.
//!
//! There are two ways in. [`LayoutModel::from_assignment`] compiles the
//! arrays straight from a table's typed columns and a row → partition
//! assignment — what every candidate a generation boundary builds on the
//! data sample goes through, and every exact model the simulator routes
//! the whole table for: per column, one pass over its rows collects each
//! partition's row count, min and max and capped distinct set as keys,
//! strings as their positions in the dictionary sorted once. On a prepared
//! table ([`Table::prepared`], the layout manager's data sample) the pass
//! over an integer column runs in value order, so distinct values are only
//! appended, and the dictionary's order is the one prepared with the
//! table. No [`PartitionMetadata`] is built. [`LayoutModel::new`] compiles the
//! metadata a materialized snapshot already holds
//! ([`crate::TableSnapshot::model`]).
//!
//! [`PartitionMetadata::may_match`] is the reference semantics: the cost is
//! the same f64 sum, in the same order, of the rows of the partitions it
//! keeps, so every ledger built on it is unchanged to the bit; and
//! `from_assignment` compiles exactly what `new` compiles from
//! `build_metadata`'s partitions (the test oracle in `partition.rs`), their
//! rows scaled alike.

use crate::column::Column;
use crate::order::{ColumnOrder, DictRanks};
use crate::partition::{set_bits, word_bits, ColumnStats, PartitionMetadata, DEFAULT_DISTINCT_CAP};
use crate::table::Table;
use oreo_query::{Atom, CompareOp, Predicate, Query, Scalar};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Monotonically increasing identifier for layouts created during a run.
pub type LayoutId = u64;

/// A costed, metadata-only description of one data layout.
#[derive(Clone, Debug)]
pub struct LayoutModel {
    id: LayoutId,
    /// Human-readable provenance, e.g. `"qdtree(window@1400)"`.
    name: String,
    /// Shared by clones: a model is compiled once and costed many times.
    stats: Arc<CompiledStats>,
    total_rows: f64,
}

impl LayoutModel {
    /// A model named `name` over the given partition metadata — how a
    /// materialized snapshot, which holds its partitions' metadata, is
    /// costed.
    pub fn new(id: LayoutId, name: impl Into<String>, partitions: Vec<PartitionMetadata>) -> Self {
        Self::compiled(id, name, CompiledStats::new(&partitions))
    }

    /// A model named `name` of the layout that puts row `r` of `table` in
    /// partition `assignment[r]` of `k`, each partition's row count
    /// multiplied by `scale` — compiled from the table's columns with no
    /// [`PartitionMetadata`] in between. It is the model [`LayoutModel::new`]
    /// compiles from `build_metadata(table, assignment, k)` with
    /// every partition's rows scaled by `scale`, to the bit.
    ///
    /// # Panics
    /// Panics if `assignment` does not have one entry per row, or names a
    /// partition past `k`.
    pub fn from_assignment(
        id: LayoutId,
        name: impl Into<String>,
        table: &Table,
        assignment: &[u32],
        k: usize,
        scale: f64,
    ) -> Self {
        let stats = CompiledStats::from_assignment(table, assignment, k, scale);
        Self::compiled(id, name, stats)
    }

    fn compiled(id: LayoutId, name: impl Into<String>, stats: CompiledStats) -> Self {
        Self {
            id,
            name: name.into(),
            total_rows: stats.rows.iter().sum(),
            stats: Arc::new(stats),
        }
    }

    /// The layout's stable identifier.
    pub fn id(&self) -> LayoutId {
        self.id
    }

    /// The same model under another identifier — how a candidate costed
    /// before it had an id enters the state space without being rebuilt.
    pub fn with_id(mut self, id: LayoutId) -> Self {
        self.id = id;
        self
    }

    /// The layout's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.stats.rows.len()
    }

    /// Total rows across all partitions.
    pub fn total_rows(&self) -> f64 {
        self.total_rows
    }

    /// Partition ids that must be read for `query` (cannot be skipped).
    pub fn relevant_partitions(&self, query: &Query) -> Vec<usize> {
        self.stats.relevant(&query.predicate).collect()
    }

    /// Service cost `c(s, q) ∈ [0, 1]`: the fraction of rows living in
    /// partitions that cannot be skipped. This is the paper's query-cost
    /// proxy (§III-A).
    pub fn cost(&self, query: &Query) -> f64 {
        if self.total_rows <= 0.0 {
            return 0.0;
        }
        let rows = &self.stats.rows;
        let accessed: f64 = self.stats.relevant(&query.predicate).map(|p| rows[p]).sum();
        accessed / self.total_rows
    }

    /// Cost vector over a query sample — the representation Algorithm 5
    /// compares layouts with.
    pub fn cost_vector(&self, queries: &[Query]) -> Vec<f64> {
        queries.iter().map(|q| self.cost(q)).collect()
    }

    /// Mean cost over a workload sample.
    pub fn mean_cost(&self, queries: &[Query]) -> f64 {
        if queries.is_empty() {
            return 0.0;
        }
        self.cost_vector(queries).iter().sum::<f64>() / queries.len() as f64
    }
}

/// A layout's partition metadata compiled for mask evaluation. Every bit
/// mask holds one `u64` word per 64 partitions; partition `p` is bit
/// `p % 64` of word `p / 64`.
#[derive(Debug)]
struct CompiledStats {
    /// Row count per partition — possibly sample-scaled.
    rows: Vec<f64>,
    /// Partitions with rows: `may_match` skips the others whatever the
    /// predicate.
    live: Vec<u64>,
    /// Indexed by [`oreo_query::ColId`].
    columns: Vec<ColumnArrays>,
}

impl CompiledStats {
    fn new(partitions: &[PartitionMetadata]) -> Self {
        let ncols = partitions.iter().map(|p| p.columns.len()).max();
        Self::with_rows(
            partitions.iter().map(|p| p.rows).collect(),
            (0..ncols.unwrap_or(0))
                .map(|col| ColumnArrays::new(partitions, col))
                .collect(),
        )
    }

    fn from_assignment(table: &Table, assignment: &[u32], k: usize, scale: f64) -> Self {
        assert_eq!(assignment.len(), table.num_rows(), "assignment length");
        let mut counts = vec![0usize; k];
        for &p in assignment {
            counts[p as usize] += 1;
        }
        Self::with_rows(
            counts.iter().map(|&n| n as f64 * scale).collect(),
            (table.columns().iter().enumerate())
                .map(|(col, column)| {
                    let order = table.column_order(col);
                    ColumnArrays::from_column(column, order, assignment, &counts)
                })
                .collect(),
        )
    }

    fn with_rows(rows: Vec<f64>, columns: Vec<ColumnArrays>) -> Self {
        let mut live = vec![0u64; rows.len().div_ceil(64)];
        for (p, &r) in rows.iter().enumerate() {
            // `may_match` tests `rows <= 0`, which a NaN row count fails.
            if r > 0.0 || r.is_nan() {
                live[p / 64] |= 1 << (p % 64);
            }
        }
        Self {
            rows,
            live,
            columns,
        }
    }

    /// The partitions `predicate` cannot skip, ascending: per word of 64
    /// partitions, the live mask ANDed with every atom's mask. An atom is
    /// only evaluated on the partitions the atoms before it kept.
    fn relevant<'a>(&'a self, predicate: &'a Predicate) -> impl Iterator<Item = usize> + 'a {
        self.live.iter().enumerate().flat_map(move |(word, &live)| {
            let mask = predicate.atoms().iter().fold(live, |mask, atom| {
                // A column past the metadata's has no statistics, so no
                // partition can match it.
                match self.columns.get(atom.col()) {
                    Some(column) if mask != 0 => column.mask(atom, word, mask),
                    _ => 0,
                }
            });
            word_bits(mask, word * 64)
        })
    }
}

/// The statistics [`PartitionMetadata::may_match`] consults for one
/// partition's column: the distinct set when there is one, else the range.
enum Held<'a> {
    Set(&'a BTreeSet<Scalar>),
    Range(&'a Scalar, &'a Scalar),
    /// No range, or an empty distinct set: no atom can match.
    Nothing,
}

impl<'a> Held<'a> {
    fn of(stats: Option<&'a ColumnStats>) -> Self {
        match stats {
            Some(ColumnStats {
                distinct: Some(set),
                ..
            }) if set.is_empty() => Held::Nothing,
            Some(ColumnStats {
                distinct: Some(set),
                ..
            }) => Held::Set(set),
            Some(ColumnStats {
                range: Some((min, max)),
                ..
            }) => Held::Range(min, max),
            _ => Held::Nothing,
        }
    }
}

/// An integer image of a [`Scalar`] under one column's string dictionary:
/// for any two scalars, comparing their keys gives `Scalar::cmp`.
type Key = i128;

/// `value`'s key under the sorted `dict`. A string outside it gets the
/// even slot between its neighbours', so it orders correctly and equals no
/// member.
fn key(dict: &[String], value: &Scalar) -> Key {
    match value {
        Scalar::Int(v) => int_key(*v),
        Scalar::Float(v) => float_key(*v),
        Scalar::Str(s) => match dict.binary_search(s) {
            Ok(at) => str_key(at),
            Err(at) => compose(2, 2 * at as i64),
        },
    }
}

fn int_key(v: i64) -> Key {
    compose(0, v)
}

/// `f64::total_cmp`'s own mapping onto signed integers.
fn float_key(v: f64) -> Key {
    let bits = v.to_bits() as i64;
    compose(1, bits ^ (((bits >> 63) as u64) >> 1) as i64)
}

/// The key of the string at `position` in the column's dictionary.
fn str_key(position: usize) -> Key {
    compose(2, (2 * position + 1) as i64)
}

/// A type's rank (`Int < Float < Str`, [`Scalar`]'s cross-type order)
/// above an order-preserving image of the payload.
fn compose(rank: Key, image: i64) -> Key {
    (rank << 64) | Key::from((image as u64) ^ (1 << 63))
}

/// One column's statistics across every partition.
#[derive(Debug)]
struct ColumnArrays {
    /// Partitions a range or a non-empty distinct set answers.
    has_stats: Vec<u64>,
    /// The subset of `has_stats` a distinct set answers.
    has_set: Vec<u64>,
    /// Per partition, the first and last key it holds — a set's smallest
    /// and largest member, a range's `min` and `max`; 0 without statistics.
    min: Vec<Key>,
    max: Vec<Key>,
    /// Partition `p` holds `keys[start[p]..start[p + 1]]`: its distinct set
    /// ascending, or its range's `min` and `max`.
    start: Vec<usize>,
    keys: Vec<Key>,
    /// The strings the column's statistics hold, sorted and deduplicated.
    dict: Vec<String>,
}

/// What answers one partition's column.
enum Kind {
    Set,
    Range,
    Nothing,
}

/// A [`ColumnArrays`] being filled partition by partition, in order.
struct Filling {
    has_stats: Vec<u64>,
    has_set: Vec<u64>,
    start: Vec<usize>,
}

impl Filling {
    fn new(k: usize) -> Self {
        let words = k.div_ceil(64);
        let mut start = Vec::with_capacity(k + 1);
        start.push(0);
        Self {
            has_stats: vec![0; words],
            has_set: vec![0; words],
            start,
        }
    }

    /// Closes the next partition as `kind`, its keys ending at `end`.
    fn close(&mut self, kind: Kind, end: usize) {
        let p = self.start.len() - 1;
        let bit = 1 << (p % 64);
        match kind {
            Kind::Set => {
                self.has_set[p / 64] |= bit;
                self.has_stats[p / 64] |= bit;
            }
            Kind::Range => self.has_stats[p / 64] |= bit,
            Kind::Nothing => {}
        }
        self.start.push(end);
    }

    fn finish(self, keys: Vec<Key>, dict: Vec<String>) -> ColumnArrays {
        let start = self.start;
        let first_last = |p: usize| {
            let own = &keys[start[p]..start[p + 1]];
            own.first()
                .zip(own.last())
                .map_or((0, 0), |(&a, &b)| (a, b))
        };
        let (min, max) = (0..start.len() - 1).map(first_last).unzip();
        ColumnArrays {
            has_stats: self.has_stats,
            has_set: self.has_set,
            min,
            max,
            start,
            keys,
            dict,
        }
    }
}

impl ColumnArrays {
    fn new(partitions: &[PartitionMetadata], col: usize) -> Self {
        let mut filling = Filling::new(partitions.len());
        let mut held: Vec<&Scalar> = Vec::new();
        for meta in partitions {
            let kind = match Held::of(meta.columns.get(col)) {
                Held::Set(set) => {
                    held.extend(set);
                    Kind::Set
                }
                Held::Range(min, max) => {
                    held.extend([min, max]);
                    Kind::Range
                }
                Held::Nothing => Kind::Nothing,
            };
            filling.close(kind, held.len());
        }
        // The strings' dictionary positions: one hash lookup per string
        // held, then a sort of the distinct ones — the same strings recur
        // in partition after partition.
        let mut ids: HashMap<&str, usize> = HashMap::new();
        let first_seen: Vec<Option<usize>> = (held.iter())
            .map(|v| {
                let next = ids.len();
                v.as_str().map(|s| *ids.entry(s).or_insert(next))
            })
            .collect();
        let mut by_id = vec![""; ids.len()];
        for (s, id) in ids {
            by_id[id] = s;
        }
        let mut sorted: Vec<usize> = (0..by_id.len()).collect();
        sorted.sort_unstable_by_key(|&id| by_id[id]);
        let mut position = vec![0; by_id.len()];
        for (at, &id) in sorted.iter().enumerate() {
            position[id] = at;
        }
        let keys = (held.iter().zip(first_seen))
            .map(|(v, id)| match id {
                Some(id) => str_key(position[id]),
                None => key(&[], v),
            })
            .collect();
        let dict = sorted.iter().map(|&id| by_id[id].to_owned()).collect();
        filling.finish(keys, dict)
    }

    /// The arrays [`ColumnArrays::new`] compiles from
    /// `build_metadata`'s partitions, straight from `column` when
    /// its row `r` lies in partition `assignment[r]`, which holds
    /// `counts[p]` rows: one pass over the rows, then one over the
    /// partitions, with every statistic held as a key from the start.
    /// `order` is the column's prepared order, if its table was prepared:
    /// an integer column is then walked in value order, so every
    /// partition's distinct values arrive ascending and are only appended,
    /// and a string column's dictionary is not sorted again.
    fn from_column(
        column: &Column,
        order: Option<&ColumnOrder>,
        assignment: &[u32],
        counts: &[usize],
    ) -> Self {
        let k = counts.len();
        let cap = DEFAULT_DISTINCT_CAP;
        let mut filling = Filling::new(k);
        let mut keys = Vec::new();
        let dict = match column {
            Column::Int(values) => {
                let (mut min, mut max) = (vec![i64::MAX; k], vec![i64::MIN; k]);
                // Partition p's distinct values so far, ascending, are
                // `held[p * cap..][..len[p]]`; `len[p]` passes the cap when
                // one more turns up, and the partition keeps only its range.
                // A value equal to the partition's previous one is already
                // held (runs of zeros, sorted keys) and skips the search.
                let mut held = vec![0i64; k * cap];
                let mut len = vec![0usize; k];
                let mut last = vec![None; k];
                match order {
                    // In value order every partition's values arrive
                    // ascending: a new one is appended, never searched for.
                    Some(ColumnOrder::Int(index)) => {
                        for (&v, &r) in index.values.iter().zip(&index.rows) {
                            let p = assignment[r as usize] as usize;
                            min[p] = min[p].min(v);
                            max[p] = v;
                            if len[p] > cap || last[p] == Some(v) {
                                continue;
                            }
                            last[p] = Some(v);
                            if len[p] < cap {
                                held[p * cap + len[p]] = v;
                            }
                            len[p] += 1;
                        }
                    }
                    _ => {
                        for (&v, &p) in values.iter().zip(assignment) {
                            let p = p as usize;
                            min[p] = min[p].min(v);
                            max[p] = max[p].max(v);
                            if len[p] > cap || last[p] == Some(v) {
                                continue;
                            }
                            last[p] = Some(v);
                            let set = &mut held[p * cap..][..cap];
                            if let Err(at) = set[..len[p]].binary_search(&v) {
                                if len[p] < cap {
                                    set.copy_within(at..len[p], at + 1);
                                    set[at] = v;
                                }
                                len[p] += 1;
                            }
                        }
                    }
                }
                for p in 0..k {
                    let kind = if counts[p] == 0 {
                        Kind::Nothing
                    } else if len[p] <= cap {
                        keys.extend(held[p * cap..][..len[p]].iter().map(|&v| int_key(v)));
                        Kind::Set
                    } else {
                        keys.extend([int_key(min[p]), int_key(max[p])]);
                        Kind::Range
                    };
                    filling.close(kind, keys.len());
                }
                Vec::new()
            }
            Column::Float(values) => {
                let (mut min, mut max) = (vec![f64::INFINITY; k], vec![f64::NEG_INFINITY; k]);
                for (&v, &p) in values.iter().zip(assignment) {
                    let p = p as usize;
                    if v.total_cmp(&min[p]).is_lt() {
                        min[p] = v;
                    }
                    if v.total_cmp(&max[p]).is_gt() {
                        max[p] = v;
                    }
                }
                for p in 0..k {
                    let kind = if counts[p] == 0 {
                        Kind::Nothing
                    } else {
                        keys.extend([float_key(min[p]), float_key(max[p])]);
                        Kind::Range
                    };
                    filling.close(kind, keys.len());
                }
                Vec::new()
            }
            Column::Str(column) => {
                // Each code's rank among the column's distinct strings, from
                // the dictionary sorted once — with the table, if it was
                // prepared: from here on a string is its rank, and string
                // order is integer order.
                let sorted;
                let DictRanks { rank, names } = match order {
                    Some(ColumnOrder::Str(ranks)) => ranks,
                    _ => {
                        sorted = DictRanks::new(column);
                        &sorted
                    }
                };
                // The ranks each partition holds, as a bitset of
                // `words` words per partition: the only per-row work.
                let words = names.len().div_ceil(64);
                let mut seen = vec![0u64; k * words];
                for (&code, &p) in column.codes().iter().zip(assignment) {
                    let r = rank[code as usize] as usize;
                    seen[p as usize * words + r / 64] |= 1 << (r % 64);
                }
                // Keys hold ranks until the dictionary of the strings the
                // statistics keep is known.
                for p in 0..k {
                    let marked = &seen[p * words..][..words];
                    let distinct: u32 = marked.iter().map(|w| w.count_ones()).sum();
                    let kind = if distinct == 0 {
                        Kind::Nothing
                    } else if distinct as usize <= cap {
                        keys.extend(set_bits(marked).map(Key::from));
                        Kind::Set
                    } else {
                        let mut ranks = set_bits(marked).map(Key::from);
                        keys.extend(ranks.next().into_iter().chain(ranks.last()));
                        Kind::Range
                    };
                    filling.close(kind, keys.len());
                }
                let mut used = vec![false; names.len()];
                for &r in &keys {
                    used[r as usize] = true;
                }
                let mut position = vec![0; names.len()];
                let mut dict = Vec::new();
                for (r, _) in used.iter().enumerate().filter(|(_, &u)| u) {
                    position[r] = dict.len();
                    dict.push(column.decode(names[r]).to_owned());
                }
                for key in &mut keys {
                    *key = str_key(position[*key as usize]);
                }
                dict
            }
        };
        filling.finish(keys, dict)
    }

    /// The partitions among `among` (bits of word `word`) the statistics
    /// cannot rule out for `atom` — [`Atom::may_match_set`] on the set
    /// partitions and [`Atom::may_match_range`] on the others, rule for
    /// rule.
    fn mask(&self, atom: &Atom, word: usize, among: u64) -> u64 {
        let stats = among & self.has_stats[word];
        let sets = stats & self.has_set[word];
        match atom {
            Atom::Compare { op, value, .. } => {
                let v = key(&self.dict, value);
                // Ordered ops on a set only need its extremes, as on a range.
                match op {
                    CompareOp::Lt => self.select(stats, word, |p| self.min[p] < v),
                    CompareOp::Le => self.select(stats, word, |p| self.min[p] <= v),
                    CompareOp::Gt => self.select(stats, word, |p| self.max[p] > v),
                    CompareOp::Ge => self.select(stats, word, |p| self.max[p] >= v),
                    CompareOp::Eq => self.holding(stats, sets, word, v, v),
                }
            }
            Atom::Between { low, high, .. } => {
                let (lo, hi) = (key(&self.dict, low), key(&self.dict, high));
                if lo <= hi {
                    return self.holding(stats, sets, word, lo, hi);
                }
                // An inverted BETWEEN: no set member lies in it, but the
                // range rule still admits a range it straddles.
                let (min, max) = (&self.min, &self.max);
                self.select(stats & !sets, word, |p| !(hi < min[p] || lo > max[p]))
            }
            Atom::InSet { set, .. } => set.iter().fold(0, |found, v| {
                let v = key(&self.dict, v);
                let open = stats & !found;
                found | self.holding(open, sets & open, word, v, v)
            }),
        }
    }

    /// The partitions among `stats` holding a value in `[lo, hi]` (`lo <=
    /// hi`) as far as their statistics tell: a range that meets it, or a
    /// distinct set — `sets` — with a member in it.
    fn holding(&self, stats: u64, sets: u64, word: usize, lo: Key, hi: Key) -> u64 {
        self.select(stats, word, |p| {
            let (min, max) = (self.min[p], self.max[p]);
            if hi < min || lo > max {
                return false;
            }
            // A set whose smallest or largest member lies in `[lo, hi]`
            // needs no search.
            if sets & (1 << (p % 64)) == 0 || lo <= min || max <= hi {
                return true;
            }
            let set = &self.keys[self.start[p]..self.start[p + 1]];
            let at = set.partition_point(|&k| k < lo);
            set.get(at).is_some_and(|&k| k <= hi)
        })
    }

    /// The partitions among `among` (bits of word `word`) that satisfy
    /// `pred`, which takes a partition id.
    fn select(&self, among: u64, word: usize, pred: impl Fn(usize) -> bool) -> u64 {
        word_bits(among, word * 64)
            .filter(|&p| pred(p))
            .fold(0, |mask, p| mask | 1 << (p % 64))
    }
}

/// Normalized L1 distance between two cost vectors (Algorithm 5, line 6:
/// `‖c − cᵢ‖₁ / dim(c)`). Both vectors must have the same length.
pub fn cost_vector_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "cost vectors must align");
    if a.is_empty() {
        return 0.0;
    }
    let l1: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
    l1 / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::build_metadata;
    use crate::table::TableBuilder;
    use oreo_query::{ColumnType, QueryBuilder, Scalar, Schema};

    fn model() -> (LayoutModel, crate::table::Table) {
        let s = std::sync::Arc::new(Schema::from_pairs([("v", ColumnType::Int)]));
        let mut b = TableBuilder::new(std::sync::Arc::clone(&s));
        for i in 0..100i64 {
            b.push_row(&[Scalar::Int(i)]);
        }
        let t = b.finish();
        // 4 partitions of 25 rows by value range
        let assignment: Vec<u32> = (0..100).map(|i| (i / 25) as u32).collect();
        let meta = build_metadata(&t, &assignment, 4);
        (LayoutModel::new(1, "range(v)", meta), t)
    }

    #[test]
    fn cost_is_fraction_of_rows_in_relevant_partitions() {
        let (m, t) = model();
        let q = QueryBuilder::new(t.schema()).between("v", 0, 24).build();
        assert_eq!(m.relevant_partitions(&q), vec![0]);
        assert!((m.cost(&q) - 0.25).abs() < 1e-12);
        let q2 = QueryBuilder::new(t.schema()).between("v", 20, 30).build();
        assert_eq!(m.relevant_partitions(&q2), vec![0, 1]);
        assert!((m.cost(&q2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn full_scan_costs_one() {
        let (m, _) = model();
        assert_eq!(m.cost(&Query::full_scan()), 1.0);
    }

    #[test]
    fn cost_vector_and_mean() {
        let (m, t) = model();
        let qs = vec![
            QueryBuilder::new(t.schema()).between("v", 0, 24).build(),
            Query::full_scan(),
        ];
        let cv = m.cost_vector(&qs);
        assert_eq!(cv.len(), 2);
        assert!((m.mean_cost(&qs) - (0.25 + 1.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn distance_is_normalized_l1() {
        let a = [0.0, 1.0, 0.5];
        let b = [1.0, 1.0, 0.0];
        assert!((cost_vector_distance(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(cost_vector_distance(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn distance_requires_same_length() {
        cost_vector_distance(&[0.0], &[0.0, 1.0]);
    }

    mod proptests {
        use super::*;
        use crate::partition::arb;
        use proptest::prelude::*;

        proptest! {
            /// The compiled model costs a query exactly as
            /// [`PartitionMetadata::may_match`] prunes it — the partitions
            /// kept, and the f64 sum of their rows in partition order to
            /// the bit — on sample metadata scaled the way `build_model`
            /// scales it: empty partitions, sets of exactly the cap and
            /// ranges past it, floats with NaN, ±0.0 and ±∞, foreign
            /// literals, inverted `BETWEEN`s, `IN` lists of 1–7 literals,
            /// two atoms on one column, and layouts of more than 64 (and
            /// of exactly 128) partitions.
            #[test]
            fn model_cost_equals_may_match(
                shapes in arb::shapes(),
                pad in prop_oneof![Just(0usize), Just(60), Just(127)],
                full_rows in prop_oneof![Just(0.0), (1u32..400).prop_map(|r| r as f64 * 37.5)],
                queries in proptest::collection::vec(arb::raw_atoms(), 1..6),
            ) {
                let k = shapes.len() + pad;
                let (t, assignment) = arb::table(&shapes, k);
                let mut meta = build_metadata(&t, &assignment, k);
                if t.num_rows() > 0 && full_rows > 0.0 {
                    let factor = full_rows / t.num_rows() as f64;
                    for m in &mut meta {
                        m.scale_rows(factor);
                    }
                }
                let model = LayoutModel::new(3, "arb", meta.clone());
                let total: f64 = meta.iter().map(|m| m.rows).sum();
                prop_assert_eq!(model.num_partitions(), k);
                prop_assert_eq!(model.total_rows().to_bits(), total.to_bits());
                let queries: Vec<Query> = (queries.iter())
                    .map(|raw| Query::new(arb::predicate(raw)))
                    .collect();
                let mut want = Vec::new();
                for q in &queries {
                    let kept: Vec<usize> = (0..k)
                        .filter(|&p| meta[p].may_match(&q.predicate))
                        .collect();
                    let accessed: f64 = kept.iter().map(|&p| meta[p].rows).sum();
                    let cost = if total <= 0.0 { 0.0 } else { accessed / total };
                    prop_assert_eq!(model.relevant_partitions(q), kept, "{:?}", q);
                    prop_assert_eq!(model.cost(q).to_bits(), cost.to_bits(), "{:?}", q);
                    want.push(cost.to_bits());
                }
                let got: Vec<u64> = model.cost_vector(&queries).iter().map(|c| c.to_bits()).collect();
                prop_assert_eq!(got, want);
            }

            /// The model compiled straight from the table is the one
            /// compiled from [`build_metadata`]'s partitions, their rows
            /// scaled alike: the same arrays, dictionaries and keys, so the
            /// same partitions kept and the same cost to the bit. Tables as
            /// above — int and string partitions of exactly the cap's
            /// distinct values and of one more, floats with NaN, ±0.0 and
            /// ±∞, empty partitions, tables with no rows (so no strings at
            /// all), layouts of more than 64 partitions —, and every atom
            /// kind, inverted `BETWEEN`s, foreign literals and strings no
            /// dictionary holds. Compiled from the plain table (row order,
            /// the dictionary sorted per model) and from the prepared one
            /// (value order, the dictionary ranked beforehand) alike.
            #[test]
            fn from_assignment_equals_metadata_model(
                shapes in arb::shapes(),
                pad in prop_oneof![Just(0usize), Just(60), Just(127)],
                full_rows in prop_oneof![Just(0.0), (1u32..400).prop_map(|r| r as f64 * 37.5)],
                queries in proptest::collection::vec(arb::raw_atoms(), 1..6),
            ) {
                let k = shapes.len() + pad;
                let (t, assignment) = arb::table(&shapes, k);
                let n = t.num_rows();
                let scale = if n > 0 && full_rows > 0.0 { full_rows / n as f64 } else { 1.0 };
                let mut meta = build_metadata(&t, &assignment, k);
                for m in &mut meta {
                    m.scale_rows(scale);
                }
                let want = LayoutModel::new(5, "oracle", meta);
                for t in [t.clone(), t.prepared()] {
                    let got = LayoutModel::from_assignment(5, "direct", &t, &assignment, k, scale);
                    prop_assert_eq!(format!("{:?}", got.stats), format!("{:?}", want.stats));
                    prop_assert_eq!(got.num_partitions(), k);
                    prop_assert_eq!(got.total_rows().to_bits(), want.total_rows().to_bits());
                    for raw in &queries {
                        let q = Query::new(arb::predicate(raw));
                        prop_assert_eq!(got.relevant_partitions(&q), want.relevant_partitions(&q), "{:?}", q);
                        prop_assert_eq!(got.cost(&q).to_bits(), want.cost(&q).to_bits(), "{:?}", q);
                    }
                }
            }
        }
    }
}
