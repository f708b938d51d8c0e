//! # oreo-query
//!
//! Typed values, schemas, predicates and queries — the vocabulary shared by
//! every other OREO crate.
//!
//! Layout optimization never needs a full SQL engine: the only query feature
//! that determines whether a partition can be *skipped* is the conjunctive
//! filter over individual columns (Fig. 2 of the paper). This crate models
//! exactly that fragment, with two evaluation surfaces:
//!
//! * row-level evaluation (used by workload generators and the storage
//!   engine's filtered scans), and
//! * conservative pruning against partition metadata (min/max ranges and
//!   distinct sets), which is how `eval_skipped` — the cost oracle of the
//!   whole framework — is computed without touching data.

pub mod compile;
pub mod predicate;
pub mod query;
pub mod schema;
pub mod value;

pub use compile::{Bound, ColumnPlan, ColumnPredicate, CompiledPredicate};
pub use predicate::{Atom, CompareOp, Predicate};
pub use query::{Query, QueryBuilder, TemplateId};
pub use schema::{ColId, ColumnDef, Schema};
pub use value::{ColumnType, Scalar};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn scalar_int() -> impl Strategy<Value = Scalar> {
        (-1000i64..1000).prop_map(Scalar::Int)
    }

    fn atom_int() -> impl Strategy<Value = Atom> {
        prop_oneof![
            (
                scalar_int(),
                prop_oneof![
                    Just(CompareOp::Lt),
                    Just(CompareOp::Le),
                    Just(CompareOp::Gt),
                    Just(CompareOp::Ge),
                    Just(CompareOp::Eq),
                ]
            )
                .prop_map(|(value, op)| Atom::Compare { col: 0, op, value }),
            (scalar_int(), scalar_int()).prop_map(|(a, b)| {
                let (low, high) = if a <= b { (a, b) } else { (b, a) };
                Atom::Between { col: 0, low, high }
            }),
            proptest::collection::vec(scalar_int(), 1..6).prop_map(|mut set| {
                set.sort();
                set.dedup();
                Atom::InSet { col: 0, set }
            }),
        ]
    }

    /// Values a column of each runtime type holds in the tests below.
    const COLUMN_VALUES: usize = 9;

    /// Value `i` of a column of type `ty` (int, float, string).
    fn column_value(ty: usize, i: usize) -> Scalar {
        match ty {
            0 => Scalar::Int([-5, -1, 0, 1, 2, 7, 10, 15, 19][i]),
            1 => Scalar::Float(
                [
                    f64::NAN,
                    -f64::NAN,
                    -0.0,
                    0.0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    1.5,
                    -2.0,
                    3.0,
                ][i],
            ),
            _ => Scalar::from(["", "a", "ab", "b", "c", "ca", "d", "zz", "é"][i]),
        }
    }

    /// A literal of any runtime type.
    fn scalar_any() -> impl Strategy<Value = Scalar> {
        (0usize..3, 0usize..COLUMN_VALUES).prop_map(|(ty, i)| column_value(ty, i))
    }

    /// Any atom on column 0, as drawn: `BETWEEN` bounds unordered and of
    /// any two types, `IN` lists of 0–6 literals unsorted.
    fn atom_any() -> impl Strategy<Value = Atom> {
        let op = prop_oneof![
            Just(CompareOp::Lt),
            Just(CompareOp::Le),
            Just(CompareOp::Gt),
            Just(CompareOp::Ge),
            Just(CompareOp::Eq),
        ];
        prop_oneof![
            (scalar_any(), op).prop_map(|(value, op)| Atom::Compare { col: 0, op, value }),
            (scalar_any(), scalar_any()).prop_map(|(low, high)| Atom::Between {
                col: 0,
                low,
                high
            }),
            proptest::collection::vec(scalar_any(), 0..7)
                .prop_map(|set| Atom::InSet { col: 0, set }),
        ]
    }

    proptest! {
        /// Soundness of range pruning: if `may_match_range` says "skip",
        /// then no value inside the range satisfies the atom.
        #[test]
        fn range_pruning_is_sound(atom in atom_int(), a in -1000i64..1000, b in -1000i64..1000, probe in -1000i64..1000) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            if !atom.may_match_range(&Scalar::Int(lo), &Scalar::Int(hi)) {
                // any probe inside [lo, hi] must fail the atom
                let p = probe.clamp(lo, hi);
                prop_assert!(!atom.matches(&Scalar::Int(p)),
                    "pruned range [{lo},{hi}] but {p} matches {atom:?}");
            }
        }

        /// Soundness of distinct-set pruning: a pruned set contains no
        /// matching member.
        #[test]
        fn set_pruning_is_sound(atom in atom_int(), vals in proptest::collection::btree_set(-1000i64..1000, 0..20)) {
            let distinct: BTreeSet<Scalar> = vals.iter().map(|v| Scalar::Int(*v)).collect();
            if !atom.may_match_set(&distinct) {
                for v in &distinct {
                    prop_assert!(!atom.matches(v), "pruned set but {v} matches {atom:?}");
                }
            }
        }

        /// Completeness on singleton ranges: a partition whose min == max ==
        /// v must be kept iff v matches.
        #[test]
        fn singleton_range_pruning_is_exact(atom in atom_int(), v in -1000i64..1000) {
            let s = Scalar::Int(v);
            prop_assert_eq!(atom.may_match_range(&s, &s), atom.matches(&s));
        }

        /// Pruning is total and sound on any literal, not only ints: floats
        /// with NaN of both signs, ±0.0 and ±∞, strings, literals of
        /// another type than the column, inverted and mixed-type
        /// `BETWEEN`s, empty `IN` lists and empty distinct sets. Nothing
        /// panics; a range ruled out holds no probe matching under either
        /// row semantics — [`Atom::matches`] (the `Scalar` order) or the
        /// typed one of [`ColumnPlan::matches`] (`atom_matches_ref`'s); a
        /// single-value range is kept exactly when the value matches; and
        /// a distinct set is kept exactly when a member matches.
        #[test]
        fn pruning_is_sound_on_any_literal(
            atom in atom_any(),
            ty in 0usize..3,
            held in proptest::collection::vec(0usize..COLUMN_VALUES, 0..10),
            probes in proptest::collection::vec(0usize..COLUMN_VALUES, 1..10),
        ) {
            let typed = ColumnPlan::of_atom(&atom);
            let held: Vec<Scalar> = held.iter().map(|&i| column_value(ty, i)).collect();
            let probes: Vec<Scalar> = probes.iter().map(|&i| column_value(ty, i)).collect();
            if let (Some(min), Some(max)) = (held.iter().min(), held.iter().max()) {
                if !atom.may_match_range(min, max) {
                    for p in probes.iter().filter(|&p| min <= p && p <= max) {
                        prop_assert!(!atom.matches(p), "pruned [{min}, {max}] but {p} matches {atom:?}");
                        prop_assert!(!typed.matches(p), "pruned [{min}, {max}] but {p} matches {atom:?} typed");
                    }
                }
            }
            for p in &probes {
                prop_assert_eq!(atom.may_match_range(p, p), atom.matches(p), "{} vs {:?}", p, atom);
            }
            let distinct: BTreeSet<Scalar> = held.into_iter().collect();
            prop_assert_eq!(
                atom.may_match_set(&distinct),
                distinct.iter().any(|v| atom.matches(v)),
                "{:?} on {:?}", atom, distinct
            );
            if !atom.may_match_set(&distinct) {
                prop_assert!(!distinct.iter().any(|v| typed.matches(v)));
            }
        }

        /// Scalar ordering is a total order (antisymmetric + transitive on a
        /// sample of triples).
        #[test]
        fn scalar_order_total(a in scalar_int(), b in scalar_int(), c in scalar_int()) {
            use std::cmp::Ordering;
            match a.cmp(&b) {
                Ordering::Less => prop_assert_eq!(b.cmp(&a), Ordering::Greater),
                Ordering::Greater => prop_assert_eq!(b.cmp(&a), Ordering::Less),
                Ordering::Equal => prop_assert_eq!(b.cmp(&a), Ordering::Equal),
            }
            if a <= b && b <= c {
                prop_assert!(a <= c);
            }
        }
    }
}
