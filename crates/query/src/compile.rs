//! Predicate compilation: fold a conjunction of atoms into one normalized
//! plan per column, the form the storage layer's vectorized scan kernels
//! consume.
//!
//! A [`Predicate`] is a flat list of atoms; evaluating it row-at-a-time
//! re-dispatches on every atom for every row. Compilation does the
//! per-predicate work once:
//!
//! * all atoms on one column collapse into a single [`ColumnPlan`] — an
//!   intersected range with explicit inclusivity, an intersected membership
//!   set, or a proven contradiction ([`ColumnPlan::Never`]);
//! * provably-empty conjunctions (inverted ranges, empty set intersections,
//!   mixed literal types on one column) surface as `Never` instead of being
//!   re-discovered on every row;
//! * the empty predicate compiles to zero plans — a tautology the scan
//!   paths can satisfy without touching any column payload.
//!
//! Compiled semantics are the *typed* row semantics of the storage layer
//! (`atom_matches_ref`): a value matches a literal of a different runtime
//! type never, and floats compare via `total_cmp`. This differs from
//! [`Atom::matches`] only on cross-typed literals, which typed workloads
//! never produce; the kernels must agree with the scan paths, which use the
//! typed semantics.

use crate::predicate::{Atom, CompareOp, Predicate};
use crate::schema::ColId;
use crate::value::Scalar;
use std::cmp::Ordering;

/// One endpoint of a compiled range: the literal plus whether the endpoint
/// itself is admitted.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// The endpoint literal.
    pub value: Scalar,
    /// Whether a value equal to the endpoint satisfies the range.
    pub inclusive: bool,
}

/// The normalized form of all atoms on one column.
#[derive(Clone, Debug, PartialEq)]
pub enum ColumnPlan {
    /// An intersected interval; at least one bound is present. When both
    /// bounds are present they carry the same scalar type.
    Range {
        /// Greatest lower bound across the column's atoms, if any.
        lo: Option<Bound>,
        /// Least upper bound across the column's atoms, if any.
        hi: Option<Bound>,
    },
    /// An intersected membership set (sorted, deduplicated, non-empty),
    /// already filtered through any range atoms on the same column.
    Set(Vec<Scalar>),
    /// The column's atoms are jointly unsatisfiable: no value of any type
    /// passes, so the whole conjunction matches nothing.
    Never,
}

impl ColumnPlan {
    /// The plan of a single atom: what [`CompiledPredicate::compile`] gives
    /// a one-atom predicate, without building either.
    pub fn of_atom(atom: &Atom) -> ColumnPlan {
        let mut folder = Folder::default();
        folder.fold(atom);
        folder.finish()
    }

    /// Typed row evaluation of the plan against one value. Equivalent to
    /// evaluating the column's original atoms under `atom_matches_ref`
    /// semantics (type mismatch ⇒ false, floats via `total_cmp`).
    pub fn matches(&self, value: &Scalar) -> bool {
        match self {
            ColumnPlan::Never => false,
            ColumnPlan::Set(set) => set.binary_search(value).is_ok(),
            ColumnPlan::Range { lo, hi } => {
                let above = lo.as_ref().is_none_or(|b| {
                    value.same_type(&b.value)
                        && match value.cmp(&b.value) {
                            Ordering::Greater => true,
                            Ordering::Equal => b.inclusive,
                            Ordering::Less => false,
                        }
                });
                let below = hi.as_ref().is_none_or(|b| {
                    value.same_type(&b.value)
                        && match value.cmp(&b.value) {
                            Ordering::Less => true,
                            Ordering::Equal => b.inclusive,
                            Ordering::Greater => false,
                        }
                });
                above && below
            }
        }
    }

    /// [`ColumnPlan::matches`] specialized to a borrowed string value —
    /// used by the storage layer to evaluate a plan once per dictionary
    /// entry without allocating a [`Scalar`].
    pub fn matches_str(&self, value: &str) -> bool {
        match self {
            ColumnPlan::Never => false,
            ColumnPlan::Set(set) => set.iter().any(|m| m.as_str() == Some(value)),
            ColumnPlan::Range { lo, hi } => {
                let above = lo.as_ref().is_none_or(|b| match b.value.as_str() {
                    Some(bv) => value > bv || (b.inclusive && value == bv),
                    None => false,
                });
                let below = hi.as_ref().is_none_or(|b| match b.value.as_str() {
                    Some(bv) => value < bv || (b.inclusive && value == bv),
                    None => false,
                });
                above && below
            }
        }
    }
}

/// All constraints one column carries in a compiled predicate.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnPredicate {
    col: ColId,
    plan: ColumnPlan,
}

impl ColumnPredicate {
    /// The constrained column.
    pub fn col(&self) -> ColId {
        self.col
    }

    /// The column's normalized plan.
    pub fn plan(&self) -> &ColumnPlan {
        &self.plan
    }
}

/// A [`Predicate`] folded into one plan per distinct column, in the
/// predicate's first-use column order (so the compiled column list lines up
/// with [`Predicate::columns`]).
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledPredicate {
    columns: Vec<ColumnPredicate>,
}

impl CompiledPredicate {
    /// Compile a predicate. Cost is linear in the atom count (plus set
    /// intersection work on the tiny `IN` literal sets).
    pub fn compile(predicate: &Predicate) -> Self {
        let mut columns: Vec<(ColId, Folder)> = Vec::new();
        for atom in predicate.atoms() {
            let col = atom.col();
            let folder = match columns.iter_mut().find(|(c, _)| *c == col) {
                Some((_, f)) => f,
                None => {
                    columns.push((col, Folder::default()));
                    &mut columns.last_mut().expect("just pushed").1
                }
            };
            folder.fold(atom);
        }
        CompiledPredicate {
            columns: columns
                .into_iter()
                .map(|(col, folder)| ColumnPredicate {
                    col,
                    plan: folder.finish(),
                })
                .collect(),
        }
    }

    /// The per-column plans, in the predicate's first-use column order.
    pub fn columns(&self) -> &[ColumnPredicate] {
        &self.columns
    }

    /// True for the empty (always-true) predicate: no column constraints,
    /// so every row matches without reading any column.
    pub fn is_tautology(&self) -> bool {
        self.columns.is_empty()
    }

    /// True when some column's atoms are jointly unsatisfiable — the whole
    /// conjunction matches nothing.
    pub fn is_never(&self) -> bool {
        self.columns
            .iter()
            .any(|c| matches!(c.plan, ColumnPlan::Never))
    }

    /// Typed row evaluation of the whole conjunction; `row(col)` must
    /// return the row's value for `col`. Reference semantics for the
    /// storage kernels (equivalent to per-atom `atom_matches_ref`).
    pub fn matches_with(&self, mut row: impl FnMut(ColId) -> Scalar) -> bool {
        self.columns.iter().all(|c| c.plan.matches(&row(c.col)))
    }
}

/// Accumulates one column's atoms into a plan.
#[derive(Default)]
struct Folder {
    lo: Option<Bound>,
    hi: Option<Bound>,
    /// Intersection of `IN` sets seen so far (`None` = no `IN` atom yet).
    set: Option<Vec<Scalar>>,
    /// Set once the atoms are proven jointly unsatisfiable.
    never: bool,
}

impl Folder {
    fn fold(&mut self, atom: &Atom) {
        match atom {
            Atom::Compare { op, value, .. } => match op {
                CompareOp::Lt => self.tighten_hi(value, false),
                CompareOp::Le => self.tighten_hi(value, true),
                CompareOp::Gt => self.tighten_lo(value, false),
                CompareOp::Ge => self.tighten_lo(value, true),
                CompareOp::Eq => {
                    self.tighten_lo(value, true);
                    self.tighten_hi(value, true);
                }
            },
            Atom::Between { low, high, .. } => {
                self.tighten_lo(low, true);
                self.tighten_hi(high, true);
            }
            Atom::InSet { set, .. } => match &mut self.set {
                None => self.set = Some(set.clone()),
                Some(acc) => acc.retain(|m| set.iter().any(|s| s == m)),
            },
        }
    }

    fn tighten_lo(&mut self, value: &Scalar, inclusive: bool) {
        match &mut self.lo {
            None => {
                self.lo = Some(Bound {
                    value: value.clone(),
                    inclusive,
                })
            }
            Some(cur) => {
                if !cur.value.same_type(value) {
                    // Two ordered atoms with differently-typed literals on
                    // one column: no value has both types, so the
                    // conjunction is unsatisfiable.
                    self.never = true;
                } else {
                    match value.cmp(&cur.value) {
                        Ordering::Greater => {
                            cur.value = value.clone();
                            cur.inclusive = inclusive;
                        }
                        Ordering::Equal => cur.inclusive &= inclusive,
                        Ordering::Less => {}
                    }
                }
            }
        }
    }

    fn tighten_hi(&mut self, value: &Scalar, inclusive: bool) {
        match &mut self.hi {
            None => {
                self.hi = Some(Bound {
                    value: value.clone(),
                    inclusive,
                })
            }
            Some(cur) => {
                if !cur.value.same_type(value) {
                    self.never = true;
                } else {
                    match value.cmp(&cur.value) {
                        Ordering::Less => {
                            cur.value = value.clone();
                            cur.inclusive = inclusive;
                        }
                        Ordering::Equal => cur.inclusive &= inclusive,
                        Ordering::Greater => {}
                    }
                }
            }
        }
    }

    fn finish(self) -> ColumnPlan {
        if self.never {
            return ColumnPlan::Never;
        }
        let range = ColumnPlan::Range {
            lo: self.lo,
            hi: self.hi,
        };
        match self.set {
            Some(mut members) => {
                // Filter the intersected membership set through the range
                // atoms (typed semantics: a member of a different type than
                // a bound fails that bound's atom).
                members.retain(|m| range.matches(m));
                members.sort();
                members.dedup();
                if members.is_empty() {
                    ColumnPlan::Never
                } else {
                    ColumnPlan::Set(members)
                }
            }
            None => {
                if let ColumnPlan::Range {
                    lo: Some(lo),
                    hi: Some(hi),
                } = &range
                {
                    if !lo.value.same_type(&hi.value) {
                        // e.g. BETWEEN an int and a string: no value
                        // compares against both endpoints.
                        return ColumnPlan::Never;
                    }
                    match lo.value.cmp(&hi.value) {
                        Ordering::Greater => return ColumnPlan::Never,
                        Ordering::Equal if !(lo.inclusive && hi.inclusive) => {
                            return ColumnPlan::Never
                        }
                        _ => {}
                    }
                }
                range
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmp(col: ColId, op: CompareOp, value: Scalar) -> Atom {
        Atom::Compare { col, op, value }
    }

    /// The typed per-atom oracle the compiled form must agree with:
    /// `atom_matches_ref` lifted to scalars (type mismatch ⇒ no match).
    fn typed_atom_matches(atom: &Atom, value: &Scalar) -> bool {
        let cmp = |rhs: &Scalar| {
            if value.same_type(rhs) {
                Some(value.cmp(rhs))
            } else {
                None
            }
        };
        match atom {
            Atom::Compare { op, value: rhs, .. } => match cmp(rhs) {
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
                matches!(cmp(low), Some(Ordering::Greater | Ordering::Equal))
                    && matches!(cmp(high), Some(Ordering::Less | Ordering::Equal))
            }
            Atom::InSet { set, .. } => set.iter().any(|s| cmp(s) == Some(Ordering::Equal)),
        }
    }

    #[test]
    fn empty_predicate_is_tautology() {
        let c = CompiledPredicate::compile(&Predicate::always_true());
        assert!(c.is_tautology());
        assert!(!c.is_never());
        assert!(c.matches_with(|_| unreachable!()));
    }

    #[test]
    fn range_atoms_intersect() {
        let p = Predicate::new(vec![
            cmp(0, CompareOp::Ge, Scalar::Int(10)),
            cmp(0, CompareOp::Lt, Scalar::Int(20)),
            Atom::Between {
                col: 0,
                low: Scalar::Int(5),
                high: Scalar::Int(18),
            },
        ]);
        let c = CompiledPredicate::compile(&p);
        assert_eq!(c.columns().len(), 1);
        match c.columns()[0].plan() {
            ColumnPlan::Range { lo, hi } => {
                assert_eq!(
                    lo.as_ref().unwrap(),
                    &Bound {
                        value: Scalar::Int(10),
                        inclusive: true
                    }
                );
                assert_eq!(
                    hi.as_ref().unwrap(),
                    &Bound {
                        value: Scalar::Int(18),
                        inclusive: true
                    }
                );
            }
            other => panic!("expected range, got {other:?}"),
        }
    }

    #[test]
    fn strict_bound_wins_at_equal_endpoint() {
        let p = Predicate::new(vec![
            cmp(0, CompareOp::Le, Scalar::Int(7)),
            cmp(0, CompareOp::Lt, Scalar::Int(7)),
        ]);
        let c = CompiledPredicate::compile(&p);
        assert!(c.matches_with(|_| Scalar::Int(6)));
        assert!(!c.matches_with(|_| Scalar::Int(7)));
    }

    #[test]
    fn inverted_range_is_never() {
        let p = Predicate::new(vec![
            cmp(0, CompareOp::Ge, Scalar::Int(10)),
            cmp(0, CompareOp::Lt, Scalar::Int(10)),
        ]);
        assert!(CompiledPredicate::compile(&p).is_never());
        let between = Predicate::new(vec![Atom::Between {
            col: 0,
            low: Scalar::Int(5),
            high: Scalar::Int(3),
        }]);
        assert!(CompiledPredicate::compile(&between).is_never());
    }

    #[test]
    fn eq_folds_to_degenerate_range() {
        let p = Predicate::new(vec![cmp(0, CompareOp::Eq, Scalar::Int(4))]);
        let c = CompiledPredicate::compile(&p);
        assert!(c.matches_with(|_| Scalar::Int(4)));
        assert!(!c.matches_with(|_| Scalar::Int(5)));
        // two different Eq literals contradict
        let p2 = Predicate::new(vec![
            cmp(0, CompareOp::Eq, Scalar::Int(4)),
            cmp(0, CompareOp::Eq, Scalar::Int(5)),
        ]);
        assert!(CompiledPredicate::compile(&p2).is_never());
    }

    #[test]
    fn in_sets_intersect_and_filter_through_ranges() {
        let p = Predicate::new(vec![
            Atom::InSet {
                col: 0,
                set: vec![Scalar::Int(1), Scalar::Int(5), Scalar::Int(9)],
            },
            Atom::InSet {
                col: 0,
                set: vec![Scalar::Int(5), Scalar::Int(9), Scalar::Int(12)],
            },
            cmp(0, CompareOp::Lt, Scalar::Int(9)),
        ]);
        let c = CompiledPredicate::compile(&p);
        assert_eq!(
            c.columns()[0].plan(),
            &ColumnPlan::Set(vec![Scalar::Int(5)])
        );
        // empty intersection is a contradiction
        let p2 = Predicate::new(vec![
            Atom::InSet {
                col: 0,
                set: vec![Scalar::Int(1)],
            },
            Atom::InSet {
                col: 0,
                set: vec![Scalar::Int(2)],
            },
        ]);
        assert!(CompiledPredicate::compile(&p2).is_never());
    }

    #[test]
    fn mixed_literal_types_on_one_column_are_never() {
        let p = Predicate::new(vec![
            cmp(0, CompareOp::Ge, Scalar::Int(1)),
            cmp(0, CompareOp::Le, Scalar::from("z")),
        ]);
        assert!(CompiledPredicate::compile(&p).is_never());
        let between = Predicate::new(vec![Atom::Between {
            col: 0,
            low: Scalar::Int(0),
            high: Scalar::from("z"),
        }]);
        assert!(CompiledPredicate::compile(&between).is_never());
    }

    #[test]
    fn single_typed_literal_rejects_other_types() {
        let p = Predicate::new(vec![cmp(0, CompareOp::Ge, Scalar::Int(0))]);
        let c = CompiledPredicate::compile(&p);
        assert!(c.matches_with(|_| Scalar::Int(3)));
        assert!(!c.matches_with(|_| Scalar::from("zzz")));
        assert!(!c.matches_with(|_| Scalar::Float(3.0)));
    }

    #[test]
    fn float_bounds_use_total_cmp() {
        let p = Predicate::new(vec![cmp(0, CompareOp::Ge, Scalar::Float(0.0))]);
        let c = CompiledPredicate::compile(&p);
        // total_cmp: -0.0 < 0.0, NaN > everything
        assert!(!c.matches_with(|_| Scalar::Float(-0.0)));
        assert!(c.matches_with(|_| Scalar::Float(0.0)));
        assert!(c.matches_with(|_| Scalar::Float(f64::NAN)));
    }

    #[test]
    fn matches_str_agrees_with_scalar_path() {
        let p = Predicate::new(vec![
            Atom::Between {
                col: 0,
                low: Scalar::from("b"),
                high: Scalar::from("m"),
            },
            Atom::InSet {
                col: 0,
                set: vec![Scalar::from("c"), Scalar::from("q")],
            },
        ]);
        let c = CompiledPredicate::compile(&p);
        for v in ["a", "b", "c", "m", "q", "z"] {
            assert_eq!(
                c.columns()[0].plan().matches_str(v),
                c.columns()[0].plan().matches(&Scalar::from(v)),
                "value {v:?}"
            );
        }
    }

    #[test]
    fn columns_follow_first_use_order() {
        let p = Predicate::new(vec![
            cmp(3, CompareOp::Ge, Scalar::Int(1)),
            cmp(1, CompareOp::Lt, Scalar::Int(9)),
            cmp(3, CompareOp::Lt, Scalar::Int(5)),
        ]);
        let c = CompiledPredicate::compile(&p);
        let cols: Vec<ColId> = c.columns().iter().map(|cp| cp.col()).collect();
        assert_eq!(cols, p.columns());
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn scalar() -> impl Strategy<Value = Scalar> {
            prop_oneof![
                (-40i64..40).prop_map(Scalar::Int),
                (-40i64..40).prop_map(Scalar::Int),
                (-40i64..40).prop_map(|v| Scalar::Float(v as f64 / 4.0)),
                (0usize..6).prop_map(|i| Scalar::from(["a", "b", "c", "d", "e", "ab"][i])),
            ]
        }

        fn atom() -> impl Strategy<Value = Atom> {
            prop_oneof![
                (
                    scalar(),
                    prop_oneof![
                        Just(CompareOp::Lt),
                        Just(CompareOp::Le),
                        Just(CompareOp::Gt),
                        Just(CompareOp::Ge),
                        Just(CompareOp::Eq),
                    ]
                )
                    .prop_map(|(value, op)| Atom::Compare { col: 0, op, value }),
                (scalar(), scalar()).prop_map(|(a, b)| {
                    let (low, high) = if a <= b { (a, b) } else { (b, a) };
                    Atom::Between { col: 0, low, high }
                }),
                proptest::collection::vec(scalar(), 1..5)
                    .prop_map(|set| Atom::InSet { col: 0, set }),
            ]
        }

        proptest! {
            /// The compiled plan is row-equivalent to evaluating the raw
            /// atom conjunction under typed (`atom_matches_ref`) semantics,
            /// for any mix of atoms — including contradictions and
            /// cross-typed literals.
            #[test]
            fn compiled_equals_typed_atom_conjunction(
                atoms in proptest::collection::vec(atom(), 0..5),
                probes in proptest::collection::vec(scalar(), 1..20),
            ) {
                let p = Predicate::new(atoms);
                let c = CompiledPredicate::compile(&p);
                for v in &probes {
                    let expect = p.atoms().iter().all(|a| typed_atom_matches(a, v));
                    prop_assert_eq!(
                        c.matches_with(|_| v.clone()),
                        expect,
                        "value {:?} under {:?} (compiled {:?})", v, p, c
                    );
                }
            }

            /// `is_never` is sound: a plan proven unsatisfiable admits no
            /// probe value.
            #[test]
            fn never_admits_nothing(
                atoms in proptest::collection::vec(atom(), 1..5),
                probes in proptest::collection::vec(scalar(), 1..20),
            ) {
                let p = Predicate::new(atoms);
                let c = CompiledPredicate::compile(&p);
                if c.is_never() {
                    for v in &probes {
                        prop_assert!(!c.matches_with(|_| v.clone()));
                    }
                }
            }
        }
    }
}
