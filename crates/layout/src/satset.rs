//! Satisfying-set algebra for single-column atoms.
//!
//! The Qd-tree greedy builder needs to reason about *logical relationships*
//! between a query's predicate and a candidate cut: if the query implies the
//! cut, the query never touches the cut's "no" subtree (those rows become
//! skippable); if it contradicts the cut, it skips the "yes" subtree.
//!
//! We represent an atom's set of satisfying values per column as either an
//! interval (ordered comparisons, BETWEEN) or a finite set (`=`, `IN`), and
//! implement conservative subset / disjointness checks. "Conservative" means
//! `subset_of` may return `false` for a true subset (costing only greedy
//! quality, never correctness), but never returns `true` wrongly.

use oreo_query::{Atom, CompareOp, Scalar};
use std::collections::BTreeSet;

/// One end of an interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Bound {
    /// No endpoint (−∞ or +∞).
    Unbounded,
    /// Endpoint included.
    Inclusive(Scalar),
    /// Endpoint excluded.
    Exclusive(Scalar),
}

/// The set of values satisfying a single-column atom.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatSet {
    /// Contiguous range `(low, high)`.
    Interval {
        /// Lower end of the range.
        low: Bound,
        /// Upper end of the range.
        high: Bound,
    },
    /// Finite set of points.
    Points(BTreeSet<Scalar>),
    /// Nothing satisfies (e.g. the intersection of disjoint atoms).
    Empty,
}

impl SatSet {
    /// The satisfying set of a single atom.
    pub fn of_atom(atom: &Atom) -> SatSet {
        match atom {
            Atom::Compare { op, value, .. } => match op {
                CompareOp::Lt => SatSet::Interval {
                    low: Bound::Unbounded,
                    high: Bound::Exclusive(value.clone()),
                },
                CompareOp::Le => SatSet::Interval {
                    low: Bound::Unbounded,
                    high: Bound::Inclusive(value.clone()),
                },
                CompareOp::Gt => SatSet::Interval {
                    low: Bound::Exclusive(value.clone()),
                    high: Bound::Unbounded,
                },
                CompareOp::Ge => SatSet::Interval {
                    low: Bound::Inclusive(value.clone()),
                    high: Bound::Unbounded,
                },
                CompareOp::Eq => SatSet::Points([value.clone()].into_iter().collect()),
            },
            Atom::Between { low, high, .. } => {
                if low > high {
                    SatSet::Empty
                } else {
                    SatSet::Interval {
                        low: Bound::Inclusive(low.clone()),
                        high: Bound::Inclusive(high.clone()),
                    }
                }
            }
            Atom::InSet { set, .. } => {
                if set.is_empty() {
                    SatSet::Empty
                } else {
                    SatSet::Points(set.iter().cloned().collect())
                }
            }
        }
    }

    /// Intersect two satisfying sets (conjunction of atoms on one column).
    pub fn intersect(&self, other: &SatSet) -> SatSet {
        match (self, other) {
            (SatSet::Empty, _) | (_, SatSet::Empty) => SatSet::Empty,
            (SatSet::Points(a), SatSet::Points(b)) => {
                let inter: BTreeSet<Scalar> = a.intersection(b).cloned().collect();
                if inter.is_empty() {
                    SatSet::Empty
                } else {
                    SatSet::Points(inter)
                }
            }
            (SatSet::Points(pts), iv @ SatSet::Interval { .. })
            | (iv @ SatSet::Interval { .. }, SatSet::Points(pts)) => {
                let kept: BTreeSet<Scalar> =
                    pts.iter().filter(|p| iv.contains(p)).cloned().collect();
                if kept.is_empty() {
                    SatSet::Empty
                } else {
                    SatSet::Points(kept)
                }
            }
            (SatSet::Interval { low: l1, high: h1 }, SatSet::Interval { low: l2, high: h2 }) => {
                let low = max_low(l1, l2);
                let high = min_high(h1, h2);
                if interval_empty(low, high) {
                    SatSet::Empty
                } else {
                    SatSet::Interval {
                        low: low.clone(),
                        high: high.clone(),
                    }
                }
            }
        }
    }

    /// Point membership.
    pub fn contains(&self, v: &Scalar) -> bool {
        match self {
            SatSet::Empty => false,
            SatSet::Points(pts) => pts.contains(v),
            SatSet::Interval { low, high } => {
                let above_low = match low {
                    Bound::Unbounded => true,
                    Bound::Inclusive(b) => v >= b,
                    Bound::Exclusive(b) => v > b,
                };
                let below_high = match high {
                    Bound::Unbounded => true,
                    Bound::Inclusive(b) => v <= b,
                    Bound::Exclusive(b) => v < b,
                };
                above_low && below_high
            }
        }
    }

    /// Conservative subset check: `true` guarantees `self ⊆ other`.
    pub fn subset_of(&self, other: &SatSet) -> bool {
        match (self, other) {
            (SatSet::Empty, _) => true,
            (_, SatSet::Empty) => false,
            (SatSet::Points(a), SatSet::Points(b)) => a.is_subset(b),
            (SatSet::Points(a), iv @ SatSet::Interval { .. }) => a.iter().all(|p| iv.contains(p)),
            // An interval (with a continuum of values) is only inside a
            // finite point set in degenerate cases; stay conservative.
            (SatSet::Interval { .. }, SatSet::Points(_)) => false,
            (SatSet::Interval { low: l1, high: h1 }, SatSet::Interval { low: l2, high: h2 }) => {
                low_geq(l1, l2) && high_leq(h1, h2)
            }
        }
    }

    /// An interval whose endpoints are integers (or absent) as a pair of
    /// keys `(low, high)` such that, for two such intervals `a` and `b`,
    /// `a.subset_of(b)` is `a.low >= b.low && a.high <= b.high` and
    /// `a.disjoint_from(b)` is `max(a.low, b.low) > min(a.high, b.high)` —
    /// the checks above, on two integer comparisons each. An endpoint `v`
    /// keys as `2v`, one inward of that when exclusive; a missing one as
    /// the far end of `i128`. `None` for every other set.
    pub fn int_interval_keys(&self) -> Option<(i128, i128)> {
        let SatSet::Interval { low, high } = self else {
            return None;
        };
        let key = |bound: &Bound, unbounded: i128, inward: i128| match bound {
            Bound::Unbounded => Some(unbounded),
            Bound::Inclusive(Scalar::Int(v)) => Some(2 * i128::from(*v)),
            Bound::Exclusive(Scalar::Int(v)) => Some(2 * i128::from(*v) + inward),
            _ => None,
        };
        Some((key(low, i128::MIN, 1)?, key(high, i128::MAX, -1)?))
    }

    /// Conservative disjointness check: `true` guarantees no common value.
    /// Decides what [`SatSet::intersect`] would return `Empty` for, on
    /// borrowed bounds and points, without building the intersection.
    pub fn disjoint_from(&self, other: &SatSet) -> bool {
        match (self, other) {
            (SatSet::Empty, _) | (_, SatSet::Empty) => true,
            (SatSet::Points(a), SatSet::Points(b)) => a.is_disjoint(b),
            (SatSet::Points(pts), iv @ SatSet::Interval { .. })
            | (iv @ SatSet::Interval { .. }, SatSet::Points(pts)) => {
                !pts.iter().any(|p| iv.contains(p))
            }
            (SatSet::Interval { low: l1, high: h1 }, SatSet::Interval { low: l2, high: h2 }) => {
                interval_empty(max_low(l1, l2), min_high(h1, h2))
            }
        }
    }
}

/// The tighter (larger) of two lower bounds.
fn max_low<'a>(a: &'a Bound, b: &'a Bound) -> &'a Bound {
    match (a, b) {
        (Bound::Unbounded, x) | (x, Bound::Unbounded) => x,
        (Bound::Inclusive(x), Bound::Inclusive(y)) | (Bound::Exclusive(x), Bound::Exclusive(y)) => {
            if x >= y {
                a
            } else {
                b
            }
        }
        // On a tie the exclusive bound is the tighter one.
        (Bound::Inclusive(x), Bound::Exclusive(y)) => {
            if y >= x {
                b
            } else {
                a
            }
        }
        (Bound::Exclusive(x), Bound::Inclusive(y)) => {
            if x >= y {
                a
            } else {
                b
            }
        }
    }
}

/// The tighter (smaller) of two upper bounds.
fn min_high<'a>(a: &'a Bound, b: &'a Bound) -> &'a Bound {
    match (a, b) {
        (Bound::Unbounded, x) | (x, Bound::Unbounded) => x,
        (Bound::Inclusive(x), Bound::Inclusive(y)) | (Bound::Exclusive(x), Bound::Exclusive(y)) => {
            if x <= y {
                a
            } else {
                b
            }
        }
        (Bound::Inclusive(x), Bound::Exclusive(y)) => {
            if y <= x {
                b
            } else {
                a
            }
        }
        (Bound::Exclusive(x), Bound::Inclusive(y)) => {
            if x <= y {
                a
            } else {
                b
            }
        }
    }
}

/// Is the interval `(low, high)` provably empty? Conservative for open
/// bounds over dense domains (treats `(x, x+ε)` as nonempty, which is safe).
fn interval_empty(low: &Bound, high: &Bound) -> bool {
    let (lo, lo_incl) = match low {
        Bound::Unbounded => return false,
        Bound::Inclusive(v) => (v, true),
        Bound::Exclusive(v) => (v, false),
    };
    let (hi, hi_incl) = match high {
        Bound::Unbounded => return false,
        Bound::Inclusive(v) => (v, true),
        Bound::Exclusive(v) => (v, false),
    };
    match lo.cmp(hi) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Equal => !(lo_incl && hi_incl),
        std::cmp::Ordering::Less => false,
    }
}

/// Is lower bound `a` at least as tight as `b` (i.e. a ≥ b)?
fn low_geq(a: &Bound, b: &Bound) -> bool {
    match (a, b) {
        (_, Bound::Unbounded) => true,
        (Bound::Unbounded, _) => false,
        (Bound::Inclusive(x), Bound::Inclusive(y)) => x >= y,
        (Bound::Exclusive(x), Bound::Exclusive(y)) => x >= y,
        (Bound::Inclusive(x), Bound::Exclusive(y)) => x > y,
        (Bound::Exclusive(x), Bound::Inclusive(y)) => x >= y,
    }
}

/// Is upper bound `a` at least as tight as `b` (i.e. a ≤ b)?
fn high_leq(a: &Bound, b: &Bound) -> bool {
    match (a, b) {
        (_, Bound::Unbounded) => true,
        (Bound::Unbounded, _) => false,
        (Bound::Inclusive(x), Bound::Inclusive(y)) => x <= y,
        (Bound::Exclusive(x), Bound::Exclusive(y)) => x <= y,
        (Bound::Inclusive(x), Bound::Exclusive(y)) => x < y,
        (Bound::Exclusive(x), Bound::Inclusive(y)) => x <= y,
    }
}

/// The combined satisfying set of all atoms a predicate places on `col`
/// (`None` when the predicate does not constrain the column).
pub fn predicate_satset(
    predicate: &oreo_query::Predicate,
    col: oreo_query::ColId,
) -> Option<SatSet> {
    let mut acc: Option<SatSet> = None;
    for atom in predicate.atoms() {
        if atom.col() != col {
            continue;
        }
        let s = SatSet::of_atom(atom);
        acc = Some(match acc {
            None => s,
            Some(prev) => prev.intersect(&s),
        });
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom_cmp(op: CompareOp, v: i64) -> Atom {
        Atom::Compare {
            col: 0,
            op,
            value: Scalar::Int(v),
        }
    }

    #[test]
    fn atom_satsets_contain_their_matches() {
        for (atom, inside, outside) in [
            (atom_cmp(CompareOp::Lt, 10), 9, 10),
            (atom_cmp(CompareOp::Le, 10), 10, 11),
            (atom_cmp(CompareOp::Gt, 10), 11, 10),
            (atom_cmp(CompareOp::Ge, 10), 10, 9),
            (atom_cmp(CompareOp::Eq, 10), 10, 9),
        ] {
            let s = SatSet::of_atom(&atom);
            assert!(s.contains(&Scalar::Int(inside)), "{atom:?}");
            assert!(!s.contains(&Scalar::Int(outside)), "{atom:?}");
        }
    }

    #[test]
    fn intersection_of_disjoint_ranges_is_empty() {
        let a = SatSet::of_atom(&atom_cmp(CompareOp::Lt, 5));
        let b = SatSet::of_atom(&atom_cmp(CompareOp::Gt, 10));
        assert_eq!(a.intersect(&b), SatSet::Empty);
        assert!(a.disjoint_from(&b));
    }

    #[test]
    fn touching_open_bounds_are_empty() {
        // x < 5 AND x > 5 → empty; x < 5 AND x >= 5 → empty
        let lt = SatSet::of_atom(&atom_cmp(CompareOp::Lt, 5));
        let gt = SatSet::of_atom(&atom_cmp(CompareOp::Gt, 5));
        let ge = SatSet::of_atom(&atom_cmp(CompareOp::Ge, 5));
        assert_eq!(lt.intersect(&gt), SatSet::Empty);
        assert_eq!(lt.intersect(&ge), SatSet::Empty);
        // x <= 5 AND x >= 5 → {5}-ish interval, not empty
        let le = SatSet::of_atom(&atom_cmp(CompareOp::Le, 5));
        assert_ne!(le.intersect(&ge), SatSet::Empty);
    }

    #[test]
    fn subset_checks() {
        let narrow = SatSet::of_atom(&Atom::Between {
            col: 0,
            low: Scalar::Int(3),
            high: Scalar::Int(7),
        });
        let wide = SatSet::of_atom(&Atom::Between {
            col: 0,
            low: Scalar::Int(0),
            high: Scalar::Int(10),
        });
        assert!(narrow.subset_of(&wide));
        assert!(!wide.subset_of(&narrow));

        let pts = SatSet::of_atom(&Atom::InSet {
            col: 0,
            set: vec![Scalar::Int(4), Scalar::Int(5)],
        });
        assert!(pts.subset_of(&narrow));
        assert!(!pts.subset_of(&SatSet::of_atom(&atom_cmp(CompareOp::Lt, 5))));
    }

    #[test]
    fn exclusive_vs_inclusive_subsets() {
        let lt = SatSet::of_atom(&atom_cmp(CompareOp::Lt, 10)); // (-inf, 10)
        let le = SatSet::of_atom(&atom_cmp(CompareOp::Le, 10)); // (-inf, 10]
        assert!(lt.subset_of(&le));
        assert!(!le.subset_of(&lt));
    }

    #[test]
    fn predicate_satset_intersects_atoms() {
        let p = oreo_query::Predicate::new(vec![
            atom_cmp(CompareOp::Ge, 5),
            atom_cmp(CompareOp::Lt, 10),
        ]);
        let s = predicate_satset(&p, 0).unwrap();
        assert!(s.contains(&Scalar::Int(5)));
        assert!(s.contains(&Scalar::Int(9)));
        assert!(!s.contains(&Scalar::Int(10)));
        assert!(predicate_satset(&p, 1).is_none());
    }

    #[test]
    fn contradictory_predicate_is_empty() {
        let p = oreo_query::Predicate::new(vec![
            atom_cmp(CompareOp::Lt, 0),
            atom_cmp(CompareOp::Gt, 10),
        ]);
        assert_eq!(predicate_satset(&p, 0).unwrap(), SatSet::Empty);
    }

    #[test]
    fn points_filtered_by_interval() {
        let pts = SatSet::of_atom(&Atom::InSet {
            col: 0,
            set: vec![Scalar::Int(1), Scalar::Int(6), Scalar::Int(20)],
        });
        let iv = SatSet::of_atom(&Atom::Between {
            col: 0,
            low: Scalar::Int(5),
            high: Scalar::Int(10),
        });
        match pts.intersect(&iv) {
            SatSet::Points(p) => {
                assert_eq!(p.len(), 1);
                assert!(p.contains(&Scalar::Int(6)));
            }
            other => panic!("expected points, got {other:?}"),
        }
    }
}
