//! In-memory columnar storage.
//!
//! Three physical representations cover the paper's datasets: `i64` (ints and
//! timestamps), `f64`, and dictionary-encoded categorical strings. Cells are
//! read through [`ValueRef`], a borrowed view that avoids allocating a
//! [`Scalar`] per row — routing millions of records through a layout is the
//! hot path of reorganization.

use oreo_query::{Atom, ColumnType, CompareOp, Scalar};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Borrowed view of one cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ValueRef<'a> {
    /// A borrowed integer cell.
    Int(i64),
    /// A borrowed float cell.
    Float(f64),
    /// A borrowed string cell.
    Str(&'a str),
}

impl ValueRef<'_> {
    /// Materialize into an owned [`Scalar`].
    pub fn to_scalar(self) -> Scalar {
        match self {
            ValueRef::Int(v) => Scalar::Int(v),
            ValueRef::Float(v) => Scalar::Float(v),
            ValueRef::Str(v) => Scalar::Str(v.to_owned()),
        }
    }

    /// Compare against a literal of the same type. Returns `None` on a type
    /// mismatch, which callers treat as "predicate does not match" — a typed
    /// workload never hits this in practice.
    pub fn cmp_scalar(self, rhs: &Scalar) -> Option<Ordering> {
        match (self, rhs) {
            (ValueRef::Int(a), Scalar::Int(b)) => Some(a.cmp(b)),
            (ValueRef::Float(a), Scalar::Float(b)) => Some(a.total_cmp(b)),
            (ValueRef::Str(a), Scalar::Str(b)) => Some(a.cmp(b.as_str())),
            _ => None,
        }
    }
}

/// Zero-allocation atom evaluation against a borrowed cell.
pub fn atom_matches_ref(atom: &Atom, value: ValueRef<'_>) -> bool {
    match atom {
        Atom::Compare { op, value: rhs, .. } => match value.cmp_scalar(rhs) {
            Some(ord) => match op {
                CompareOp::Lt => ord == Ordering::Less,
                CompareOp::Le => ord != Ordering::Greater,
                CompareOp::Gt => ord == Ordering::Greater,
                CompareOp::Ge => ord != Ordering::Less,
                CompareOp::Eq => ord == Ordering::Equal,
            },
            None => false,
        },
        Atom::Between { low, high, .. } => {
            matches!(
                value.cmp_scalar(low),
                Some(Ordering::Greater | Ordering::Equal)
            ) && matches!(
                value.cmp_scalar(high),
                Some(Ordering::Less | Ordering::Equal)
            )
        }
        Atom::InSet { set, .. } => set
            .iter()
            .any(|s| value.cmp_scalar(s) == Some(Ordering::Equal)),
    }
}

/// Dictionary-encoded string column: a (deduplicated) dictionary plus a
/// `u32` code per row.
#[derive(Clone, Debug, Default)]
pub struct DictColumn {
    dict: Vec<String>,
    codes: Vec<u32>,
}

impl DictColumn {
    /// An empty dictionary column.
    pub fn new() -> Self {
        Self::default()
    }

    /// Construct from parts. `codes` must index into `dict`.
    pub fn from_parts(dict: Vec<String>, codes: Vec<u32>) -> Self {
        debug_assert!(codes.iter().all(|&c| (c as usize) < dict.len().max(1)));
        Self { dict, codes }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Dictionary size (distinct values ever appended).
    pub fn cardinality(&self) -> usize {
        self.dict.len()
    }

    /// The dictionary of distinct strings, in first-seen order.
    pub fn dict(&self) -> &[String] {
        &self.dict
    }

    /// The per-row dictionary codes.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The dictionary code of `row`.
    pub fn code(&self, row: usize) -> u32 {
        self.codes[row]
    }

    /// The string value of `row`.
    pub fn get(&self, row: usize) -> &str {
        &self.dict[self.codes[row] as usize]
    }

    /// Decode a dictionary code to its string.
    pub fn decode(&self, code: u32) -> &str {
        &self.dict[code as usize]
    }
}

/// A builder that interns strings while rows stream in.
#[derive(Default)]
pub struct DictBuilder {
    dict: Vec<String>,
    index: HashMap<String, u32>,
    codes: Vec<u32>,
}

impl DictBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one string cell.
    pub fn push(&mut self, value: &str) {
        let code = self.intern(value);
        self.codes.push(code);
    }

    /// Appends every row of `column`. Each dictionary entry is interned
    /// once, the first time a row uses it, through a table from the
    /// column's codes to the builder's; so the dictionary and the codes are
    /// exactly those of pushing the rows one by one, and entries no row
    /// uses are left out, but no row's string is hashed.
    pub fn push_column(&mut self, column: &DictColumn) {
        const UNSEEN: u32 = u32::MAX;
        let mut remap = vec![UNSEEN; column.dict.len()];
        self.codes.reserve(column.len());
        for &code in &column.codes {
            let slot = &mut remap[code as usize];
            if *slot == UNSEEN {
                *slot = self.intern(&column.dict[code as usize]);
            }
            self.codes.push(*slot);
        }
    }

    /// The code of `value`, added to the dictionary if it is new.
    fn intern(&mut self, value: &str) -> u32 {
        if let Some(&code) = self.index.get(value) {
            return code;
        }
        let code = self.dict.len() as u32;
        self.dict.push(value.to_owned());
        self.index.insert(value.to_owned(), code);
        code
    }

    /// Finalizes into an immutable dictionary column.
    pub fn finish(self) -> DictColumn {
        DictColumn {
            dict: self.dict,
            codes: self.codes,
        }
    }
}

/// One physical column.
#[derive(Clone, Debug)]
pub enum Column {
    /// 64-bit integers (also dates/timestamps).
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Dictionary-encoded strings.
    Str(DictColumn),
}

impl Column {
    /// An empty column of the given logical type.
    pub fn empty(ty: ColumnType) -> Self {
        match ty {
            ColumnType::Int | ColumnType::Timestamp => Column::Int(Vec::new()),
            ColumnType::Float => Column::Float(Vec::new()),
            ColumnType::Str => Column::Str(DictColumn::new()),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(d) => d.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrowed view of cell `row`.
    pub fn get(&self, row: usize) -> ValueRef<'_> {
        match self {
            Column::Int(v) => ValueRef::Int(v[row]),
            Column::Float(v) => ValueRef::Float(v[row]),
            Column::Str(d) => ValueRef::Str(d.get(row)),
        }
    }

    /// Owned scalar for cell `row` (allocates for strings).
    pub fn scalar(&self, row: usize) -> Scalar {
        self.get(row).to_scalar()
    }

    /// Copy the given rows into a new column. Dictionary columns keep the
    /// full dictionary (cheap, shared vocabulary) and subset only codes.
    pub fn project_rows(&self, rows: &[u32]) -> Column {
        match self {
            Column::Int(v) => Column::Int(rows.iter().map(|&r| v[r as usize]).collect()),
            Column::Float(v) => Column::Float(rows.iter().map(|&r| v[r as usize]).collect()),
            Column::Str(d) => Column::Str(DictColumn {
                dict: d.dict.clone(),
                codes: rows.iter().map(|&r| d.codes[r as usize]).collect(),
            }),
        }
    }

    /// Approximate heap footprint in bytes (used to size Table I files).
    pub fn memory_bytes(&self) -> usize {
        match self {
            Column::Int(v) => v.len() * 8,
            Column::Float(v) => v.len() * 8,
            Column::Str(d) => {
                d.codes.len() * 4 + d.dict.iter().map(|s| s.len() + 24).sum::<usize>()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dict_builder_interns() {
        let mut b = DictBuilder::new();
        for v in ["a", "b", "a", "c", "b"] {
            b.push(v);
        }
        let d = b.finish();
        assert_eq!(d.cardinality(), 3);
        assert_eq!(d.len(), 5);
        assert_eq!(d.get(0), "a");
        assert_eq!(d.get(2), "a");
        assert_eq!(d.code(0), d.code(2));
        assert_eq!(d.get(4), "b");
    }

    #[test]
    fn value_ref_comparisons() {
        assert_eq!(
            ValueRef::Int(3).cmp_scalar(&Scalar::Int(5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            ValueRef::Str("b").cmp_scalar(&Scalar::from("b")),
            Some(Ordering::Equal)
        );
        assert_eq!(ValueRef::Int(3).cmp_scalar(&Scalar::from("x")), None);
    }

    #[test]
    fn atom_matches_ref_agrees_with_scalar_path() {
        let atoms = [
            Atom::Compare {
                col: 0,
                op: CompareOp::Ge,
                value: Scalar::Int(10),
            },
            Atom::Between {
                col: 0,
                low: Scalar::Int(5),
                high: Scalar::Int(15),
            },
            Atom::InSet {
                col: 0,
                set: vec![Scalar::Int(7), Scalar::Int(12)],
            },
        ];
        for atom in &atoms {
            for v in [-1i64, 5, 7, 10, 12, 15, 16] {
                assert_eq!(
                    atom_matches_ref(atom, ValueRef::Int(v)),
                    atom.matches(&Scalar::Int(v)),
                    "{atom:?} on {v}"
                );
            }
        }
    }

    #[test]
    fn project_rows_subsets() {
        let c = Column::Int(vec![10, 20, 30, 40]);
        let p = c.project_rows(&[3, 1]);
        assert_eq!(p.scalar(0), Scalar::Int(40));
        assert_eq!(p.scalar(1), Scalar::Int(20));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn empty_column_types() {
        assert!(matches!(
            Column::empty(ColumnType::Timestamp),
            Column::Int(_)
        ));
        assert!(matches!(Column::empty(ColumnType::Str), Column::Str(_)));
        assert_eq!(Column::empty(ColumnType::Float).len(), 0);
    }
}
