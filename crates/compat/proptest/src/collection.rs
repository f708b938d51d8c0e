//! Collection strategies, mirroring `proptest::collection`.

use crate::strategy::{Shrinkable, Strategy};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;
use std::ops::Range;
use std::rc::Rc;

/// A range of collection sizes, mirroring `proptest::collection::SizeRange`.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl SizeRange {
    fn sample(&self, rng: &mut StdRng) -> usize {
        if self.lo >= self.hi {
            self.lo
        } else {
            rng.random_range(self.lo..self.hi)
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

/// The strategy returned by [`vec()`].
#[derive(Clone, Debug)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S>
where
    S::Value: Clone + 'static,
{
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        let n = self.size.sample(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }

    fn generate_shrinkable(&self, rng: &mut StdRng) -> Shrinkable<Self::Value>
    where
        Self::Value: 'static,
    {
        let n = self.size.sample(rng);
        let elems: Vec<Shrinkable<S::Value>> = (0..n)
            .map(|_| self.element.generate_shrinkable(rng))
            .collect();
        vec_shrinkable(elems, self.size.lo)
    }
}

/// Vector shrinking: drop to the minimum length first (the most aggressive
/// candidate), then remove single elements, then shrink elements in place.
/// Each candidate copies the vector, so they are built only as the runner
/// pulls them.
fn vec_shrinkable<T: Clone + 'static>(
    elems: Vec<Shrinkable<T>>,
    min_len: usize,
) -> Shrinkable<Vec<T>> {
    let value: Vec<T> = elems.iter().map(|e| e.value.clone()).collect();
    let elems: Rc<[Shrinkable<T>]> = elems.into();
    Shrinkable::with_children(value, move || {
        let n = elems.len();
        let shorter = if n > min_len { n } else { 0 };
        // Halve toward the minimum, keeping the prefix…
        let keep = min_len.max(n / 2);
        let halved = (keep < shorter).then(|| Rc::clone(&elems));
        let halved = halved
            .into_iter()
            .map(move |e| vec_shrinkable(e[..keep].to_vec(), min_len));
        // …then drop one element at a time…
        let all = Rc::clone(&elems);
        let dropped = (0..shorter).map(move |i| {
            let mut fewer = all.to_vec();
            fewer.remove(i);
            vec_shrinkable(fewer, min_len)
        });
        // …then shrink one element in place.
        let all = Rc::clone(&elems);
        let simpler = (0..n).flat_map(move |i| {
            let all = Rc::clone(&all);
            all[i].children().map(move |child| {
                let mut simpler = all.to_vec();
                simpler[i] = child;
                vec_shrinkable(simpler, min_len)
            })
        });
        Box::new(halved.chain(dropped).chain(simpler))
    })
}

/// Generates vectors whose elements come from `element` and whose length is
/// drawn from `size`, mirroring `proptest::collection::vec`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// The strategy returned by [`btree_set`].
#[derive(Clone, Debug)]
pub struct BTreeSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for BTreeSetStrategy<S>
where
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        let n = self.size.sample(rng);
        let mut set = BTreeSet::new();
        // Duplicates shrink the set below the requested size; a bounded
        // number of extra draws keeps generation total on narrow domains.
        let mut attempts = 0;
        while set.len() < n && attempts < n.saturating_mul(10) + 16 {
            set.insert(self.element.generate(rng));
            attempts += 1;
        }
        set
    }
}

/// Generates ordered sets whose elements come from `element` and whose size
/// is drawn from `size`, mirroring `proptest::collection::btree_set`.
pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S> {
    BTreeSetStrategy {
        element,
        size: size.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::case_rng;

    #[test]
    fn vec_respects_size_range() {
        let s = vec(0i64..100, 2..5);
        let mut rng = case_rng(5, 0);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&x| (0..100).contains(&x)));
        }
    }

    #[test]
    fn vec_shrinks_length_then_elements() {
        let s = vec(0i64..100, 2..8);
        let mut rng = case_rng(7, 0);
        let mut node = s.generate_shrinkable(&mut rng);
        // Greedy first-child descent must bottom out at the minimal
        // length with every element at the range origin.
        while let Some(k) = node.children().next() {
            node = k;
        }
        assert_eq!(node.value, vec![0i64, 0]);
    }

    #[test]
    fn vec_children_are_built_as_they_are_pulled() {
        // Counts every element candidate a vector child is built from: a
        // fixed-length vector shrinks only in place, one element candidate
        // per child.
        let built = Rc::new(std::cell::Cell::new(0usize));
        let counter = Rc::clone(&built);
        let element = (1i64..1000).prop_map(move |v| {
            counter.set(counter.get() + 1);
            v
        });
        let s = vec(element, 256);
        let mut rng = case_rng(11, 0);
        let tree = s.generate_shrinkable(&mut rng);
        built.set(0);
        // The runner pulls children one at a time up to its attempt cap.
        let cap = 400;
        let pulled = tree.children().take(cap).count();
        assert_eq!(pulled, cap);
        assert!(
            built.get() <= cap,
            "{} children built for {cap} pulled from 256 elements",
            built.get()
        );
    }

    #[test]
    fn btree_set_is_bounded_and_distinct() {
        let s = btree_set(0i64..8, 0..20);
        let mut rng = case_rng(6, 0);
        for _ in 0..50 {
            // The domain has only 8 values, so the set can never exceed 8;
            // generation must still terminate.
            assert!(s.generate(&mut rng).len() <= 8);
        }
    }
}
