//! Table schemas: ordered, named, typed columns.

use crate::value::ColumnType;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Index of a column within a [`Schema`].
pub type ColId = usize;

/// A single column definition.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnDef {
    /// Column name, unique within its schema.
    pub name: String,
    /// The column's value type.
    pub ty: ColumnType,
}

impl ColumnDef {
    /// A definition for a column called `name` of type `ty`.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Self {
            name: name.into(),
            ty,
        }
    }
}

/// An ordered collection of column definitions with O(1) name lookup.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    columns: Vec<ColumnDef>,
    #[serde(skip)]
    by_name: HashMap<String, ColId>,
}

impl Schema {
    /// Build a schema from column definitions.
    ///
    /// # Panics
    /// Panics if two columns share a name — schemas are always constructed
    /// from trusted generator code, so a duplicate is a programming error.
    pub fn new(columns: Vec<ColumnDef>) -> Self {
        let mut by_name = HashMap::with_capacity(columns.len());
        for (i, c) in columns.iter().enumerate() {
            let prev = by_name.insert(c.name.clone(), i);
            assert!(prev.is_none(), "duplicate column name {:?}", c.name);
        }
        Self { columns, by_name }
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn from_pairs<I, S>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S, ColumnType)>,
        S: Into<String>,
    {
        Self::new(
            pairs
                .into_iter()
                .map(|(n, t)| ColumnDef::new(n, t))
                .collect(),
        )
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Resolve a column name to its index.
    pub fn col(&self, name: &str) -> Option<ColId> {
        self.by_name.get(name).copied()
    }

    /// Resolve a column name, panicking with a helpful message when absent.
    /// Used by builders where a typo'd name is a programming error.
    pub fn col_or_panic(&self, name: &str) -> ColId {
        self.col(name)
            .unwrap_or_else(|| panic!("unknown column {name:?} (schema: {self})"))
    }

    /// The definition of column `id`.
    pub fn column(&self, id: ColId) -> &ColumnDef {
        &self.columns[id]
    }

    /// Type of column `id`.
    pub fn column_type(&self, id: ColId) -> ColumnType {
        self.columns[id].ty
    }

    /// Iterate over `(ColId, &ColumnDef)`.
    pub fn iter(&self) -> impl Iterator<Item = (ColId, &ColumnDef)> {
        self.columns.iter().enumerate()
    }

    /// Ids of all columns of the given type.
    pub fn columns_of_type(&self, ty: ColumnType) -> Vec<ColId> {
        self.iter()
            .filter(|(_, c)| c.ty == ty)
            .map(|(i, _)| i)
            .collect()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}:{}", c.name, c.ty)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::from_pairs([
            ("ts", ColumnType::Timestamp),
            ("qty", ColumnType::Int),
            ("price", ColumnType::Float),
            ("region", ColumnType::Str),
        ])
    }

    #[test]
    fn name_lookup_round_trips() {
        let s = schema();
        assert_eq!(s.col("qty"), Some(1));
        assert_eq!(s.col("missing"), None);
        assert_eq!(s.column(3).name, "region");
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn columns_of_type_filters() {
        let s = schema();
        assert_eq!(s.columns_of_type(ColumnType::Str), vec![3]);
        assert_eq!(s.columns_of_type(ColumnType::Timestamp), vec![0]);
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicate_names_rejected() {
        Schema::from_pairs([("a", ColumnType::Int), ("a", ColumnType::Float)]);
    }

    #[test]
    #[should_panic(expected = "unknown column")]
    fn col_or_panic_reports_name() {
        schema().col_or_panic("nope");
    }

    #[test]
    fn display_lists_columns() {
        assert_eq!(
            schema().to_string(),
            "[ts:timestamp, qty:int, price:float, region:str]"
        );
    }
}
