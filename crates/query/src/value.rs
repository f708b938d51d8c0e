//! Scalar values and column types.
//!
//! OREO's cost model only ever compares values *within* a single column, so
//! [`Scalar`] defines a total order that is meaningful per column type.
//! Cross-type comparisons fall back to a fixed type-tag order so scalars can
//! live in ordered collections; callers that care should check
//! [`Scalar::same_type`] first (all internal call sites do).

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// Logical type of a column.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float, ordered with `total_cmp`.
    Float,
    /// Categorical string (dictionary-encoded by the storage layer).
    Str,
    /// Timestamp stored as an `i64` (e.g. seconds since an epoch); behaves
    /// like [`ColumnType::Int`] for comparison and pruning purposes but lets
    /// generators and pretty-printers know the column carries time semantics.
    Timestamp,
}

impl ColumnType {
    /// Whether values of this type are stored as `i64` internally.
    pub fn is_int_backed(self) -> bool {
        matches!(self, ColumnType::Int | ColumnType::Timestamp)
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColumnType::Int => "int",
            ColumnType::Float => "float",
            ColumnType::Str => "str",
            ColumnType::Timestamp => "timestamp",
        };
        f.write_str(s)
    }
}

/// A single typed value: the literal side of a predicate, or one cell of a
/// row when routing records through a layout.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Scalar {
    /// A 64-bit integer (also carries dates/timestamps as epoch offsets).
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// An owned string.
    Str(String),
}

impl Scalar {
    /// The column type this scalar naturally belongs to. `Timestamp` columns
    /// use [`Scalar::Int`] values.
    pub fn column_type(&self) -> ColumnType {
        match self {
            Scalar::Int(_) => ColumnType::Int,
            Scalar::Float(_) => ColumnType::Float,
            Scalar::Str(_) => ColumnType::Str,
        }
    }

    /// True when `self` and `other` carry the same runtime type.
    pub fn same_type(&self, other: &Scalar) -> bool {
        std::mem::discriminant(self) == std::mem::discriminant(other)
    }

    /// True when this scalar is a valid literal for a column of type `ty`.
    pub fn compatible_with(&self, ty: ColumnType) -> bool {
        matches!(
            (self, ty),
            (Scalar::Int(_), ColumnType::Int | ColumnType::Timestamp)
                | (Scalar::Float(_), ColumnType::Float)
                | (Scalar::Str(_), ColumnType::Str)
        )
    }

    /// Integer payload, if any.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Scalar::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Float payload, if any.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Scalar::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// String payload, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(v) => Some(v),
            _ => None,
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Scalar::Int(_) => 0,
            Scalar::Float(_) => 1,
            Scalar::Str(_) => 2,
        }
    }
}

impl From<i64> for Scalar {
    fn from(v: i64) -> Self {
        Scalar::Int(v)
    }
}

impl From<i32> for Scalar {
    fn from(v: i32) -> Self {
        Scalar::Int(v as i64)
    }
}

impl From<f64> for Scalar {
    fn from(v: f64) -> Self {
        Scalar::Float(v)
    }
}

impl From<&str> for Scalar {
    fn from(v: &str) -> Self {
        Scalar::Str(v.to_owned())
    }
}

impl From<String> for Scalar {
    fn from(v: String) -> Self {
        Scalar::Str(v)
    }
}

impl PartialEq for Scalar {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Scalar {}

impl PartialOrd for Scalar {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scalar {
    /// Total order: within a type, the natural order (floats via
    /// `total_cmp`); across types, a fixed tag order (`Int < Float < Str`).
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Scalar::Int(a), Scalar::Int(b)) => a.cmp(b),
            (Scalar::Float(a), Scalar::Float(b)) => a.total_cmp(b),
            (Scalar::Str(a), Scalar::Str(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl std::hash::Hash for Scalar {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Scalar::Int(v) => {
                0u8.hash(state);
                v.hash(state);
            }
            Scalar::Float(v) => {
                1u8.hash(state);
                v.to_bits().hash(state);
            }
            Scalar::Str(v) => {
                2u8.hash(state);
                v.hash(state);
            }
        }
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Int(v) => write!(f, "{v}"),
            Scalar::Float(v) => write!(f, "{v}"),
            Scalar::Str(v) => write!(f, "'{v}'"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_order_is_natural() {
        assert!(Scalar::Int(1) < Scalar::Int(2));
        assert_eq!(Scalar::Int(5), Scalar::Int(5));
    }

    #[test]
    fn float_order_handles_nan_via_total_cmp() {
        let nan = Scalar::Float(f64::NAN);
        let one = Scalar::Float(1.0);
        // total_cmp puts NaN above all ordinary values.
        assert!(nan > one);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
    }

    #[test]
    fn str_order_is_lexicographic() {
        assert!(Scalar::from("apple") < Scalar::from("banana"));
    }

    #[test]
    fn cross_type_order_is_by_tag() {
        assert!(Scalar::Int(i64::MAX) < Scalar::Float(f64::NEG_INFINITY));
        assert!(Scalar::Float(f64::INFINITY) < Scalar::from(""));
    }

    #[test]
    fn compatibility_matrix() {
        assert!(Scalar::Int(3).compatible_with(ColumnType::Int));
        assert!(Scalar::Int(3).compatible_with(ColumnType::Timestamp));
        assert!(!Scalar::Int(3).compatible_with(ColumnType::Float));
        assert!(Scalar::Float(1.0).compatible_with(ColumnType::Float));
        assert!(Scalar::from("x").compatible_with(ColumnType::Str));
        assert!(!Scalar::from("x").compatible_with(ColumnType::Int));
    }

    #[test]
    fn negative_zero_and_zero_are_distinct_under_total_cmp() {
        assert!(Scalar::Float(-0.0) < Scalar::Float(0.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Scalar::Int(7).to_string(), "7");
        assert_eq!(Scalar::from("eu").to_string(), "'eu'");
    }

    #[test]
    fn hash_distinguishes_types() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Scalar::Int(1));
        set.insert(Scalar::Float(1.0));
        set.insert(Scalar::from("1"));
        assert_eq!(set.len(), 3);
    }
}
