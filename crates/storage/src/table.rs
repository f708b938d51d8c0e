//! The in-memory table: a schema plus one [`Column`] per schema entry.

use crate::column::{atom_matches_ref, Column, DictBuilder, ValueRef};
use crate::error::{Result, StorageError};
use crate::kernel::RankIndex;
use crate::order::ColumnOrder;
use oreo_query::{ColId, ColumnType, Predicate, Scalar, Schema};
use rand::Rng;
use std::borrow::Cow;
use std::sync::Arc;

/// A columnar table. Immutable once built; layouts are expressed as
/// row → partition assignments *over* a table, never by mutating it.
#[derive(Clone, Debug)]
pub struct Table {
    schema: Arc<Schema>,
    columns: Vec<Column>,
    rows: usize,
    /// One entry per column once [`Table::prepared`]; shared by clones.
    order: Option<Arc<[ColumnOrder]>>,
}

impl Table {
    /// Assemble from pre-built columns.
    ///
    /// # Panics
    /// Panics if column count or lengths disagree with the schema — tables
    /// are only built by generator code, so a mismatch is a bug.
    pub fn new(schema: Arc<Schema>, columns: Vec<Column>) -> Self {
        assert_eq!(schema.len(), columns.len(), "column count mismatch");
        let rows = columns.first().map_or(0, Column::len);
        for (i, c) in columns.iter().enumerate() {
            assert_eq!(c.len(), rows, "column {i} length mismatch");
        }
        Self {
            schema,
            columns,
            rows,
            order: None,
        }
    }

    /// The same table with every column's value order computed once: each
    /// integer column sorted by `(value, row)`, each string column's
    /// dictionary ranked by string. Every Qd-tree grown on it then counts
    /// its integer cuts on the sorted columns ([`Table::rank_index`]), and
    /// every model compiled from it ([`crate::LayoutModel::from_assignment`])
    /// walks them, instead of sorting per build. For a table that many
    /// layouts are built and modelled on — the layout manager's data
    /// sample; the order takes 16 bytes per integer row, so a whole table
    /// is not prepared. A table derived from this one
    /// ([`Table::project_rows`], a proper [`Table::sample`]) is not
    /// prepared.
    pub fn prepared(mut self) -> Table {
        if self.order.is_none() {
            self.order = Some(self.columns.iter().map(ColumnOrder::new).collect());
        }
        self
    }

    /// The prepared order of column `col`, if the table is prepared.
    pub(crate) fn column_order(&self, col: ColId) -> Option<&ColumnOrder> {
        self.order.as_deref().map(|order| &order[col])
    }

    /// The rank index of integer column `col`: the prepared one, or one
    /// sorted now. `None` for a column of another type.
    pub fn rank_index(&self, col: ColId) -> Option<Cow<'_, RankIndex>> {
        match (self.column_order(col), &self.columns[col]) {
            (Some(ColumnOrder::Int(index)), _) => Some(Cow::Borrowed(index)),
            (_, Column::Int(values)) => Some(Cow::Owned(RankIndex::new(values))),
            _ => None,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The column with id `id`.
    pub fn column(&self, id: ColId) -> &Column {
        &self.columns[id]
    }

    /// All columns, in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Borrowed cell view.
    pub fn get(&self, row: usize, col: ColId) -> ValueRef<'_> {
        self.columns[col].get(row)
    }

    /// Owned cell value (allocates for strings).
    pub fn scalar(&self, row: usize, col: ColId) -> Scalar {
        self.columns[col].scalar(row)
    }

    /// Row-level predicate evaluation without allocation.
    pub fn row_matches(&self, row: usize, predicate: &Predicate) -> bool {
        predicate
            .atoms()
            .iter()
            .all(|a| atom_matches_ref(a, self.get(row, a.col())))
    }

    /// Exact selectivity of a predicate (fraction of rows matching).
    pub fn selectivity(&self, predicate: &Predicate) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        let hits = (0..self.rows)
            .filter(|&r| self.row_matches(r, predicate))
            .count();
        hits as f64 / self.rows as f64
    }

    /// Materialize a new table containing exactly `rows` (in order).
    pub fn project_rows(&self, rows: &[u32]) -> Table {
        Table {
            schema: Arc::clone(&self.schema),
            columns: self.columns.iter().map(|c| c.project_rows(rows)).collect(),
            rows: rows.len(),
            order: None,
        }
    }

    /// Uniform sample of `n` rows without replacement (all rows if
    /// `n >= num_rows`). Used to build layout candidates from 0.1–1% samples
    /// the way the paper does.
    pub fn sample(&self, rng: &mut impl Rng, n: usize) -> Table {
        if n >= self.rows {
            return self.clone();
        }
        let mut idx = rand::seq::index::sample(rng, self.rows, n).into_vec();
        idx.sort_unstable();
        let idx: Vec<u32> = idx.into_iter().map(|i| i as u32).collect();
        self.project_rows(&idx)
    }

    /// Approximate in-memory footprint.
    pub fn memory_bytes(&self) -> usize {
        self.columns.iter().map(Column::memory_bytes).sum()
    }
}

/// Streaming row-oriented builder, used by the synthetic dataset generators.
pub struct TableBuilder {
    schema: Arc<Schema>,
    ints: Vec<Option<Vec<i64>>>,
    floats: Vec<Option<Vec<f64>>>,
    dicts: Vec<Option<DictBuilder>>,
    rows: usize,
}

impl TableBuilder {
    /// An empty builder for `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        let n = schema.len();
        let mut ints = Vec::with_capacity(n);
        let mut floats = Vec::with_capacity(n);
        let mut dicts = Vec::with_capacity(n);
        for (_, def) in schema.iter() {
            ints.push(def.ty.is_int_backed().then(Vec::new));
            floats.push((def.ty == ColumnType::Float).then(Vec::new));
            dicts.push((def.ty == ColumnType::Str).then(DictBuilder::new));
        }
        Self {
            schema,
            ints,
            floats,
            dicts,
            rows: 0,
        }
    }

    /// Append one cell to the current row. Cells must be pushed in schema
    /// order via [`TableBuilder::push_row`]; these typed setters exist for
    /// generators that fill columns independently.
    pub fn push_int(&mut self, col: ColId, v: i64) {
        self.ints[col].as_mut().expect("not an int column").push(v);
    }

    /// Appends one float cell to column `col`.
    pub fn push_float(&mut self, col: ColId, v: f64) {
        self.floats[col]
            .as_mut()
            .expect("not a float column")
            .push(v);
    }

    /// Appends one string cell to column `col`.
    pub fn push_str(&mut self, col: ColId, v: &str) {
        self.dicts[col].as_mut().expect("not a str column").push(v);
    }

    /// Append a full row of scalars (schema order).
    pub fn push_row(&mut self, row: &[Scalar]) {
        assert_eq!(row.len(), self.schema.len());
        for (col, v) in row.iter().enumerate() {
            match v {
                Scalar::Int(x) => self.push_int(col, *x),
                Scalar::Float(x) => self.push_float(col, *x),
                Scalar::Str(x) => self.push_str(col, x),
            }
        }
        self.rows += 1;
    }

    /// Mark a row complete when using the typed per-column setters.
    pub fn finish_row(&mut self) {
        self.rows += 1;
    }

    /// Finalizes into an immutable table.
    pub fn finish(self) -> Table {
        let mut columns = Vec::with_capacity(self.schema.len());
        for (col, (ints, (floats, dicts))) in self
            .ints
            .into_iter()
            .zip(self.floats.into_iter().zip(self.dicts))
            .enumerate()
        {
            let c = if let Some(v) = ints {
                Column::Int(v)
            } else if let Some(v) = floats {
                Column::Float(v)
            } else if let Some(d) = dicts {
                Column::Str(d.finish())
            } else {
                unreachable!("column {col} has no representation")
            };
            columns.push(c);
        }
        Table::new(self.schema, columns)
    }
}

/// Concatenate tables sharing a schema. Dictionary columns are re-interned
/// because each file carries its own dictionary — once per dictionary
/// entry a row uses ([`DictBuilder::push_column`]), not once per row.
pub fn concat_tables(schema: &Arc<Schema>, parts: &[Table]) -> Result<Table> {
    let ncols = schema.len();
    let total: usize = parts.iter().map(Table::num_rows).sum();
    let mut columns = Vec::with_capacity(ncols);
    for col in 0..ncols {
        let mut ints: Option<Vec<i64>> = None;
        let mut floats: Option<Vec<f64>> = None;
        let mut dict: Option<DictBuilder> = None;
        for part in parts {
            if part.schema().as_ref() != schema.as_ref() {
                return Err(StorageError::Corrupt("schema mismatch in concat".into()));
            }
            match part.column(col) {
                Column::Int(v) => ints
                    .get_or_insert_with(|| Vec::with_capacity(total))
                    .extend(v),
                Column::Float(v) => floats
                    .get_or_insert_with(|| Vec::with_capacity(total))
                    .extend(v),
                Column::Str(d) => dict.get_or_insert_with(DictBuilder::new).push_column(d),
            }
        }
        let column = if let Some(v) = ints {
            Column::Int(v)
        } else if let Some(v) = floats {
            Column::Float(v)
        } else if let Some(b) = dict {
            Column::Str(b.finish())
        } else {
            // no parts at all: produce an empty column of the schema's type
            Column::empty(schema.column_type(col))
        };
        columns.push(column);
    }
    Ok(Table::new(Arc::clone(schema), columns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oreo_query::QueryBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::from_pairs([
            ("ts", ColumnType::Timestamp),
            ("qty", ColumnType::Int),
            ("price", ColumnType::Float),
            ("region", ColumnType::Str),
        ]))
    }

    fn small_table() -> Table {
        let s = schema();
        let mut b = TableBuilder::new(Arc::clone(&s));
        let regions = ["eu", "na", "apac"];
        for i in 0..90i64 {
            b.push_row(&[
                Scalar::Int(i),
                Scalar::Int(i % 10),
                Scalar::Float(i as f64 * 0.5),
                Scalar::from(regions[(i % 3) as usize]),
            ]);
        }
        b.finish()
    }

    #[test]
    fn builder_round_trip() {
        let t = small_table();
        assert_eq!(t.num_rows(), 90);
        assert_eq!(t.num_columns(), 4);
        assert_eq!(t.scalar(5, 0), Scalar::Int(5));
        assert_eq!(t.scalar(5, 3), Scalar::from("apac"));
    }

    #[test]
    fn selectivity_exact() {
        let t = small_table();
        let q = QueryBuilder::new(t.schema()).lt("qty", 5).build_predicate();
        // qty = i % 10, so qty < 5 hits exactly half the rows
        assert!((t.selectivity(&q) - 0.5).abs() < 1e-12);
        let q2 = QueryBuilder::new(t.schema())
            .eq("region", "eu")
            .build_predicate();
        assert!((t.selectivity(&q2) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn project_rows_preserves_values() {
        let t = small_table();
        let p = t.project_rows(&[10, 20, 30]);
        assert_eq!(p.num_rows(), 3);
        assert_eq!(p.scalar(1, 0), Scalar::Int(20));
        assert_eq!(p.scalar(2, 3), t.scalar(30, 3));
    }

    #[test]
    fn sample_is_subset_without_replacement() {
        let t = small_table();
        let mut rng = StdRng::seed_from_u64(7);
        let s = t.sample(&mut rng, 30);
        assert_eq!(s.num_rows(), 30);
        // all ts values are unique in the base table, so a without-replacement
        // sample has 30 unique values
        let mut seen = std::collections::HashSet::new();
        for r in 0..s.num_rows() {
            assert!(seen.insert(s.scalar(r, 0)));
        }
    }

    #[test]
    fn sample_larger_than_table_is_identity() {
        let t = small_table();
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(t.sample(&mut rng, 1000).num_rows(), 90);
    }

    #[test]
    fn concat_reinterns_dictionaries() {
        let s = Arc::new(Schema::from_pairs([("tag", ColumnType::Str)]));
        let mut b1 = TableBuilder::new(Arc::clone(&s));
        b1.push_row(&[Scalar::from("x")]);
        b1.push_row(&[Scalar::from("y")]);
        let mut b2 = TableBuilder::new(Arc::clone(&s));
        b2.push_row(&[Scalar::from("y")]);
        b2.push_row(&[Scalar::from("z")]);
        let t = concat_tables(&s, &[b1.finish(), b2.finish()]).unwrap();
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.scalar(1, 0), Scalar::from("y"));
        assert_eq!(t.scalar(2, 0), Scalar::from("y"));
        assert_eq!(t.scalar(3, 0), Scalar::from("z"));
    }

    mod proptests {
        use super::*;
        use crate::column::DictColumn;
        use proptest::prelude::*;

        const VOCAB: [&str; 8] = ["", "eu", "us", "apac", "é", "eu-west", "us ", "ZZ"];

        /// One string part: a dictionary of distinct words drawn from a
        /// shared vocabulary (so parts share strings), some of which no row
        /// uses, and codes into it.
        fn part() -> impl Strategy<Value = (Vec<String>, Vec<u32>)> {
            (
                proptest::collection::vec(0usize..VOCAB.len(), 0..8),
                proptest::collection::vec(any::<u32>(), 0..40),
            )
                .prop_map(|(words, picks)| {
                    let mut dict: Vec<String> = Vec::new();
                    for w in words {
                        if !dict.iter().any(|d| d == VOCAB[w]) {
                            dict.push(VOCAB[w].to_string());
                        }
                    }
                    let codes = if dict.is_empty() {
                        Vec::new()
                    } else {
                        picks.iter().map(|p| p % dict.len() as u32).collect()
                    };
                    (dict, codes)
                })
        }

        proptest! {
            /// Concatenation interns each dictionary entry once, yet builds
            /// exactly the dictionary and codes of pushing every row's
            /// string in order.
            #[test]
            fn concat_equals_per_row_interning(
                parts in proptest::collection::vec(part(), 0..5),
            ) {
                let s = Arc::new(Schema::from_pairs([("tag", ColumnType::Str)]));
                let tables: Vec<Table> = parts
                    .iter()
                    .map(|(dict, codes)| {
                        let column = DictColumn::from_parts(dict.clone(), codes.clone());
                        Table::new(Arc::clone(&s), vec![Column::Str(column)])
                    })
                    .collect();
                let mut reference = DictBuilder::new();
                for (dict, codes) in &parts {
                    codes.iter().for_each(|&c| reference.push(&dict[c as usize]));
                }
                let reference = reference.finish();
                let joined = concat_tables(&s, &tables).unwrap();
                let Column::Str(joined) = joined.column(0) else {
                    panic!("a string column");
                };
                prop_assert_eq!(joined.dict(), reference.dict());
                prop_assert_eq!(joined.codes(), reference.codes());
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_columns_rejected() {
        let s = schema();
        Table::new(
            s,
            vec![
                Column::Int(vec![1]),
                Column::Int(vec![1, 2]),
                Column::Float(vec![0.0]),
                Column::Str(Default::default()),
            ],
        );
    }
}
