//! # oreo-layout
//!
//! Data-layout generation techniques behind a single interface.
//!
//! A *layout* is a deterministic routing function record → partition
//! ([`LayoutSpec`]); a *generator* ([`LayoutGenerator`]) builds one from a
//! dataset sample and a workload sample — the paper's
//! `generate_layout(D, Q, k)` (§III-B). Three techniques are provided:
//!
//! * [`RangeLayout`] — sort by one column, split equi-depth (the default
//!   "partition by time" layout);
//! * [`ZOrderLayout`] — Morton-interleaved multi-column clustering over the
//!   top-queried columns (workload-aware Z-ordering, §VI-A1);
//! * [`QdTree`] — greedy predicate-cut decision tree (Qd-tree, §VI-A1).
//!
//! OREO is agnostic to the technique; anything implementing
//! [`LayoutGenerator`] plugs into the LAYOUT MANAGER.

pub mod morton;
pub mod qdtree;
pub mod range;
pub mod satset;
pub mod spec;
pub mod zorder;

pub use morton::{morton_decode, morton_encode};
pub use qdtree::{QdTree, QdTreeBuilder, QdTreeGenerator};
pub use range::{RangeGenerator, RangeLayout};
pub use satset::{predicate_satset, Bound, SatSet};
pub use spec::{build_exact_model, build_model, LayoutGenerator, LayoutSpec, SharedSpec};
pub use zorder::{ZOrderGenerator, ZOrderLayout};

#[cfg(test)]
mod proptests {
    use super::*;
    use oreo_query::{Atom, ColumnType, CompareOp, Scalar, Schema};
    use oreo_storage::TableBuilder;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn int_atom() -> impl Strategy<Value = Atom> {
        prop_oneof![
            (
                (-50i64..50),
                prop_oneof![
                    Just(CompareOp::Lt),
                    Just(CompareOp::Le),
                    Just(CompareOp::Gt),
                    Just(CompareOp::Ge),
                    Just(CompareOp::Eq)
                ]
            )
                .prop_map(|(v, op)| Atom::Compare {
                    col: 0,
                    op,
                    value: Scalar::Int(v)
                }),
            (-50i64..50, 0i64..30).prop_map(|(lo, span)| Atom::Between {
                col: 0,
                low: Scalar::Int(lo),
                high: Scalar::Int(lo + span)
            }),
            proptest::collection::vec(-50i64..50, 1..4).prop_map(|vs| Atom::InSet {
                col: 0,
                set: vs.into_iter().map(Scalar::Int).collect()
            }),
        ]
    }

    proptest! {
        /// SatSet semantics agree with row-level atom evaluation.
        #[test]
        fn satset_matches_atom_eval(atom in int_atom(), v in -60i64..60) {
            let s = SatSet::of_atom(&atom);
            prop_assert_eq!(s.contains(&Scalar::Int(v)), atom.matches(&Scalar::Int(v)));
        }

        /// subset_of is sound: when it reports true, every matching value of
        /// the narrow atom matches the wide atom.
        #[test]
        fn subset_is_sound(a in int_atom(), b in int_atom(), v in -60i64..60) {
            let sa = SatSet::of_atom(&a);
            let sb = SatSet::of_atom(&b);
            if sa.subset_of(&sb) && a.matches(&Scalar::Int(v)) {
                prop_assert!(b.matches(&Scalar::Int(v)),
                    "{:?} ⊆ {:?} claimed but {} separates them", a, b, v);
            }
        }

        /// disjoint_from is sound: no value matches both.
        #[test]
        fn disjoint_is_sound(a in int_atom(), b in int_atom(), v in -60i64..60) {
            let sa = SatSet::of_atom(&a);
            let sb = SatSet::of_atom(&b);
            if sa.disjoint_from(&sb) {
                prop_assert!(!(a.matches(&Scalar::Int(v)) && b.matches(&Scalar::Int(v))),
                    "{:?} ∥ {:?} claimed but {} matches both", a, b, v);
            }
        }

        /// disjoint_from decides exactly what intersect calls empty, so the
        /// Qd-tree builder counts the same queries either way.
        #[test]
        fn disjoint_is_intersect_emptiness(
            a in proptest::collection::vec(int_atom(), 1..3),
            b in int_atom(),
        ) {
            let sa = predicate_satset(&oreo_query::Predicate::new(a), 0).expect("atoms on col 0");
            let sb = SatSet::of_atom(&b);
            prop_assert_eq!(sa.disjoint_from(&sb), sa.intersect(&sb) == SatSet::Empty);
            prop_assert_eq!(sb.disjoint_from(&sa), sb.intersect(&sa) == SatSet::Empty);
        }

        /// The integer-interval keys decide subset and disjointness exactly
        /// as the bound-by-bound checks do.
        #[test]
        fn int_interval_keys_agree_with_bounds(
            a in proptest::collection::vec(int_atom(), 1..3),
            b in int_atom(),
        ) {
            let sa = predicate_satset(&oreo_query::Predicate::new(a), 0).expect("atoms on col 0");
            let sb = SatSet::of_atom(&b);
            if let (Some((al, ah)), Some((bl, bh))) = (sa.int_interval_keys(), sb.int_interval_keys()) {
                prop_assert_eq!(al >= bl && ah <= bh, sa.subset_of(&sb));
                prop_assert_eq!(al.max(bl) > ah.min(bh), sa.disjoint_from(&sb));
            }
        }

        /// Morton encode/decode round-trips.
        #[test]
        fn morton_round_trip(x in 0u32..256, y in 0u32..256, z in 0u32..256) {
            let code = morton_encode(&[x, y, z], 8);
            prop_assert_eq!(morton_decode(code, 3, 8), vec![x, y, z]);
        }

        /// Every generator produces a spec whose assignment is total,
        /// in-range, and deterministic.
        #[test]
        fn generators_produce_valid_assignments(
            n in 50usize..200,
            k in 1usize..9,
            seed in 0u64..20,
        ) {
            use rand::SeedableRng;
            let schema = Arc::new(Schema::from_pairs([
                ("ts", ColumnType::Timestamp),
                ("v", ColumnType::Int),
            ]));
            let mut b = TableBuilder::new(Arc::clone(&schema));
            for i in 0..n as i64 {
                b.push_row(&[Scalar::Int(i), Scalar::Int((i * 37) % 100)]);
            }
            let t = b.finish();
            let qs: Vec<oreo_query::Query> = (0..6)
                .map(|i| oreo_query::QueryBuilder::new(&schema)
                    .between("v", i * 10, i * 10 + 15)
                    .build())
                .collect();
            let generators: Vec<Box<dyn LayoutGenerator>> = vec![
                Box::new(RangeGenerator::new(0)),
                Box::new(ZOrderGenerator::new(2, 4, vec![0, 1])),
                Box::new(QdTreeGenerator::new()),
            ];
            for g in &generators {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let spec = g.generate(&t, &qs, k, &mut rng);
                let a = spec.assign(&t);
                prop_assert_eq!(a.len(), n);
                prop_assert!(a.iter().all(|&bid| (bid as usize) < spec.k()));
                let mut rng2 = rand::rngs::StdRng::seed_from_u64(seed);
                let spec2 = g.generate(&t, &qs, k, &mut rng2);
                prop_assert_eq!(spec2.assign(&t), a, "non-deterministic {}", g.name());
            }
        }
    }
}
