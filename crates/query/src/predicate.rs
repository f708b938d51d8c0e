//! Predicate AST and its two evaluation surfaces.
//!
//! Predicates are conjunctions of per-column atoms (the fragment used by
//! partition pruning in Qd-tree-style systems; see Fig. 2 of the paper).
//! Every atom supports:
//!
//! * **row evaluation** — does a concrete value satisfy the atom; and
//! * **pruning evaluation** — *might* any value inside a partition's
//!   min/max range (or distinct set, for categoricals) satisfy the atom.
//!
//! Pruning is conservative: `may_match_* == false` guarantees no row in the
//! partition matches, which is exactly the soundness condition data skipping
//! needs.

use crate::schema::{ColId, Schema};
use crate::value::Scalar;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Comparison operators for [`Atom::Compare`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CompareOp {
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
    /// Equal.
    Eq,
}

impl CompareOp {
    /// Evaluate `lhs <op> rhs`.
    pub fn eval(self, lhs: &Scalar, rhs: &Scalar) -> bool {
        match self {
            CompareOp::Lt => lhs < rhs,
            CompareOp::Le => lhs <= rhs,
            CompareOp::Gt => lhs > rhs,
            CompareOp::Ge => lhs >= rhs,
            CompareOp::Eq => lhs == rhs,
        }
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
            CompareOp::Eq => "=",
        };
        f.write_str(s)
    }
}

/// A single-column condition.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Atom {
    /// `col <op> value`.
    Compare {
        /// The constrained column.
        col: ColId,
        /// The comparison operator.
        op: CompareOp,
        /// The literal compared against.
        value: Scalar,
    },
    /// `col BETWEEN low AND high` (inclusive on both ends).
    Between {
        /// The constrained column.
        col: ColId,
        /// Lower bound (inclusive).
        low: Scalar,
        /// Upper bound (inclusive).
        high: Scalar,
    },
    /// `col IN (set)`. Sets are small (query literals), stored sorted.
    InSet {
        /// The constrained column.
        col: ColId,
        /// The sorted membership literals.
        set: Vec<Scalar>,
    },
}

impl Atom {
    /// The column this atom constrains.
    pub fn col(&self) -> ColId {
        match self {
            Atom::Compare { col, .. } | Atom::Between { col, .. } | Atom::InSet { col, .. } => *col,
        }
    }

    /// Row evaluation: does `value` (the row's cell for this atom's column)
    /// satisfy the condition?
    ///
    /// `InSet` membership is a linear scan: query literal sets are tiny and
    /// this stays correct even for hand-built atoms whose sets were never
    /// normalized (sorted) by [`Predicate::new`].
    pub fn matches(&self, value: &Scalar) -> bool {
        match self {
            Atom::Compare { op, value: rhs, .. } => op.eval(value, rhs),
            Atom::Between { low, high, .. } => value >= low && value <= high,
            Atom::InSet { set, .. } => set.iter().any(|s| s == value),
        }
    }

    /// Pruning evaluation against a partition's `[min, max]` range for this
    /// column. Returns `true` if *some* value in the range could satisfy the
    /// atom (so the partition must be read), `false` if the partition can be
    /// skipped.
    pub fn may_match_range(&self, min: &Scalar, max: &Scalar) -> bool {
        debug_assert!(min <= max, "partition range inverted");
        match self {
            Atom::Compare { op, value, .. } => match op {
                CompareOp::Lt => min < value,
                CompareOp::Le => min <= value,
                CompareOp::Gt => max > value,
                CompareOp::Ge => max >= value,
                CompareOp::Eq => min <= value && value <= max,
            },
            Atom::Between { low, high, .. } => !(high < min || low > max),
            Atom::InSet { set, .. } => set.iter().any(|v| v >= min && v <= max),
        }
    }

    /// Pruning evaluation against a partition's exact distinct-value set
    /// (kept for low-cardinality categorical columns).
    pub fn may_match_set(&self, distinct: &BTreeSet<Scalar>) -> bool {
        match self {
            Atom::Compare { op, value, .. } => match op {
                // Ordered ops on a distinct set only need the extremes.
                CompareOp::Lt => distinct.iter().next().is_some_and(|min| min < value),
                CompareOp::Le => distinct.iter().next().is_some_and(|min| min <= value),
                CompareOp::Gt => distinct.iter().next_back().is_some_and(|max| max > value),
                CompareOp::Ge => distinct.iter().next_back().is_some_and(|max| max >= value),
                CompareOp::Eq => distinct.contains(value),
            },
            // An inverted range matches nothing (and `BTreeSet::range`
            // panics on one).
            Atom::Between { low, high, .. } => {
                low <= high && distinct.range(low.clone()..=high.clone()).next().is_some()
            }
            Atom::InSet { set, .. } => set.iter().any(|v| distinct.contains(v)),
        }
    }

    /// Render with column names resolved against `schema`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Atom, &'a Schema);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let name = |c: ColId| &self.1.column(c).name;
                match self.0 {
                    Atom::Compare { col, op, value } => {
                        write!(f, "{} {} {}", name(*col), op, value)
                    }
                    Atom::Between { col, low, high } => {
                        write!(f, "{} BETWEEN {} AND {}", name(*col), low, high)
                    }
                    Atom::InSet { col, set } => {
                        write!(f, "{} IN (", name(*col))?;
                        for (i, v) in set.iter().enumerate() {
                            if i > 0 {
                                write!(f, ", ")?;
                            }
                            write!(f, "{v}")?;
                        }
                        write!(f, ")")
                    }
                }
            }
        }
        D(self, schema)
    }
}

/// A conjunction of atoms. The empty predicate matches everything (a full
/// scan), mirroring how a query with no prunable predicates behaves.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Predicate {
    atoms: Vec<Atom>,
}

impl Predicate {
    /// An always-true predicate (full scan).
    pub fn always_true() -> Self {
        Self::default()
    }

    /// Build from atoms. `InSet` sets are sorted for binary search; the atom
    /// list is kept in insertion order.
    pub fn new(mut atoms: Vec<Atom>) -> Self {
        for a in &mut atoms {
            if let Atom::InSet { set, .. } = a {
                set.sort();
                set.dedup();
            }
        }
        Self { atoms }
    }

    /// The conjunction's atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True for the always-true predicate.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Append an atom.
    pub fn push(&mut self, atom: Atom) {
        self.atoms.push(atom);
        if let Some(Atom::InSet { set, .. }) = self.atoms.last_mut() {
            set.sort();
            set.dedup();
        }
    }

    /// Distinct columns referenced by the predicate, in first-use order.
    pub fn columns(&self) -> Vec<ColId> {
        let mut out = Vec::new();
        for a in &self.atoms {
            let c = a.col();
            if !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }

    /// Row evaluation: `row(col)` must return the row's value for `col`.
    pub fn matches_with(&self, mut row: impl FnMut(ColId) -> Scalar) -> bool {
        self.atoms.iter().all(|a| a.matches(&row(a.col())))
    }

    /// Render with column names resolved against `schema`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Predicate, &'a Schema);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if self.0.atoms.is_empty() {
                    return write!(f, "TRUE");
                }
                for (i, a) in self.0.atoms.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "{}", a.display(self.1))?;
                }
                Ok(())
            }
        }
        D(self, schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn btree(vals: &[&str]) -> BTreeSet<Scalar> {
        vals.iter().map(|v| Scalar::from(*v)).collect()
    }

    #[test]
    fn compare_ops_row_eval() {
        let v = Scalar::Int(10);
        assert!(CompareOp::Lt.eval(&v, &Scalar::Int(11)));
        assert!(!CompareOp::Lt.eval(&v, &Scalar::Int(10)));
        assert!(CompareOp::Le.eval(&v, &Scalar::Int(10)));
        assert!(CompareOp::Gt.eval(&v, &Scalar::Int(9)));
        assert!(CompareOp::Ge.eval(&v, &Scalar::Int(10)));
        assert!(CompareOp::Eq.eval(&v, &Scalar::Int(10)));
    }

    #[test]
    fn between_is_inclusive() {
        let a = Atom::Between {
            col: 0,
            low: Scalar::Int(5),
            high: Scalar::Int(7),
        };
        assert!(a.matches(&Scalar::Int(5)));
        assert!(a.matches(&Scalar::Int(7)));
        assert!(!a.matches(&Scalar::Int(8)));
        assert!(!a.matches(&Scalar::Int(4)));
    }

    #[test]
    fn in_set_uses_sorted_search() {
        let p = Predicate::new(vec![Atom::InSet {
            col: 0,
            set: vec![Scalar::from("c"), Scalar::from("a"), Scalar::from("a")],
        }]);
        let Atom::InSet { set, .. } = &p.atoms()[0] else {
            panic!()
        };
        assert_eq!(set.len(), 2, "dedup");
        assert!(p.atoms()[0].matches(&Scalar::from("a")));
        assert!(!p.atoms()[0].matches(&Scalar::from("b")));
    }

    #[test]
    fn range_pruning_lt_le() {
        let lt = Atom::Compare {
            col: 0,
            op: CompareOp::Lt,
            value: Scalar::Int(10),
        };
        // Partition [10, 20]: nothing < 10 inside.
        assert!(!lt.may_match_range(&Scalar::Int(10), &Scalar::Int(20)));
        // Partition [9, 20]: 9 < 10.
        assert!(lt.may_match_range(&Scalar::Int(9), &Scalar::Int(20)));
        let le = Atom::Compare {
            col: 0,
            op: CompareOp::Le,
            value: Scalar::Int(10),
        };
        assert!(le.may_match_range(&Scalar::Int(10), &Scalar::Int(20)));
    }

    #[test]
    fn range_pruning_eq_and_between() {
        let eq = Atom::Compare {
            col: 0,
            op: CompareOp::Eq,
            value: Scalar::Int(15),
        };
        assert!(eq.may_match_range(&Scalar::Int(10), &Scalar::Int(20)));
        assert!(!eq.may_match_range(&Scalar::Int(16), &Scalar::Int(20)));

        let between = Atom::Between {
            col: 0,
            low: Scalar::Int(1),
            high: Scalar::Int(4),
        };
        assert!(!between.may_match_range(&Scalar::Int(5), &Scalar::Int(9)));
        assert!(between.may_match_range(&Scalar::Int(4), &Scalar::Int(9)));
    }

    #[test]
    fn set_pruning() {
        let distinct = btree(&["emea", "apac"]);
        let eq = Atom::Compare {
            col: 0,
            op: CompareOp::Eq,
            value: Scalar::from("amer"),
        };
        assert!(!eq.may_match_set(&distinct));
        let inset = Atom::InSet {
            col: 0,
            set: vec![Scalar::from("amer"), Scalar::from("apac")],
        };
        assert!(inset.may_match_set(&distinct));
        let between = Atom::Between {
            col: 0,
            low: Scalar::from("a"),
            high: Scalar::from("b"),
        };
        assert!(between.may_match_set(&distinct)); // "apac" in [a, b]
    }

    #[test]
    fn inverted_between_prunes_a_set() {
        let distinct: BTreeSet<Scalar> = [1, 5].into_iter().map(Scalar::Int).collect();
        let inverted = Atom::Between {
            col: 0,
            low: Scalar::Int(9),
            high: Scalar::Int(2),
        };
        assert!(!inverted.may_match_set(&distinct));
    }

    #[test]
    fn empty_set_prunes_everything() {
        let distinct: BTreeSet<Scalar> = BTreeSet::new();
        for atom in [
            Atom::Compare {
                col: 0,
                op: CompareOp::Lt,
                value: Scalar::from("z"),
            },
            Atom::Compare {
                col: 0,
                op: CompareOp::Ge,
                value: Scalar::from("a"),
            },
        ] {
            assert!(!atom.may_match_set(&distinct));
        }
    }

    #[test]
    fn predicate_conjunction_semantics() {
        let p = Predicate::new(vec![
            Atom::Compare {
                col: 0,
                op: CompareOp::Ge,
                value: Scalar::Int(10),
            },
            Atom::Compare {
                col: 1,
                op: CompareOp::Eq,
                value: Scalar::from("x"),
            },
        ]);
        assert!(p.matches_with(|c| if c == 0 {
            Scalar::Int(12)
        } else {
            Scalar::from("x")
        }));
        assert!(!p.matches_with(|c| if c == 0 {
            Scalar::Int(12)
        } else {
            Scalar::from("y")
        }));
        assert_eq!(p.columns(), vec![0, 1]);
    }

    #[test]
    fn always_true_matches_everything() {
        assert!(Predicate::always_true().matches_with(|_| unreachable!()));
    }

    #[test]
    fn display_resolves_names() {
        let schema = Schema::from_pairs([
            ("qty", crate::value::ColumnType::Int),
            ("region", crate::value::ColumnType::Str),
        ]);
        let p = Predicate::new(vec![
            Atom::Compare {
                col: 0,
                op: CompareOp::Lt,
                value: Scalar::Int(5),
            },
            Atom::InSet {
                col: 1,
                set: vec![Scalar::from("eu")],
            },
        ]);
        assert_eq!(
            p.display(&schema).to_string(),
            "qty < 5 AND region IN ('eu')"
        );
    }
}
