//! The [`Strategy`] trait and its combinators: composable generators of
//! random test inputs, mirroring `proptest::strategy`.
//!
//! Strategies produce [`Shrinkable`] values — a lazy tree whose root is
//! the generated value and whose children are progressively simpler
//! candidates. On failure the test runner walks the tree greedily
//! (binary-search steps toward the origin for integers, componentwise for
//! tuples, length-then-element for vectors), so the reported
//! counterexample is locally minimal rather than the first random hit.
//! Children are built one at a time as the runner pulls them, so its
//! attempt cap — not the size of the input — bounds the work.

use rand::rngs::StdRng;
use rand::{Rng, SampleUniform};
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

/// The simpler candidates of a [`Shrinkable`], built as they are pulled.
pub type Children<T> = Box<dyn Iterator<Item = Shrinkable<T>>>;

/// One generated value plus a lazy tree of simpler candidates, mirroring
/// `proptest::strategy::ValueTree`.
pub struct Shrinkable<T> {
    /// The generated (or shrunk-to) value.
    pub value: T,
    children: Rc<dyn Fn() -> Children<T>>,
}

impl<T: Clone> Clone for Shrinkable<T> {
    fn clone(&self) -> Self {
        Shrinkable {
            value: self.value.clone(),
            children: Rc::clone(&self.children),
        }
    }
}

impl<T: 'static> Shrinkable<T> {
    /// A value with no simpler candidates.
    pub fn leaf(value: T) -> Self {
        Shrinkable {
            value,
            children: Rc::new(|| Box::new(std::iter::empty())),
        }
    }

    /// A value whose simpler candidates are produced on demand by
    /// `children` (ordered most-aggressive first — the shrinker takes the
    /// first child that still fails).
    pub fn with_children(value: T, children: impl Fn() -> Children<T> + 'static) -> Self {
        Shrinkable {
            value,
            children: Rc::new(children),
        }
    }

    /// The simpler candidates, most aggressive first, each built when it
    /// is pulled.
    pub fn children(&self) -> Children<T> {
        (self.children)()
    }
}

impl<T: Clone + 'static> Shrinkable<T> {
    /// Maps the whole tree through `f` (children lazily).
    pub fn map<O: 'static>(&self, f: Rc<dyn Fn(T) -> O>) -> Shrinkable<O> {
        let value = f(self.value.clone());
        let inner = self.clone();
        Shrinkable::with_children(value, move || {
            let f = Rc::clone(&f);
            Box::new(inner.children().map(move |c| c.map(Rc::clone(&f))))
        })
    }
}

/// Values that know how to take binary-search steps toward a simplest
/// point of their domain. Implemented for every [`SampleUniform`] type so
/// range strategies shrink; the float impls are no-ops (float bisection
/// rarely converges to anything more readable than the original).
pub trait Shrink: Clone + 'static {
    /// Candidate replacements between `origin` and `self`, most aggressive
    /// (closest to `origin`) first. Empty when already at the origin.
    fn shrink_candidates(&self, origin: &Self) -> Vec<Self>;
    /// The simplest value inside the `[lo, hi)` domain: zero when the
    /// domain contains it, the low bound otherwise.
    fn shrink_origin(lo: &Self, hi: &Self) -> Self;
}

macro_rules! impl_shrink_int {
    ($($t:ty),+) => {$(
        impl Shrink for $t {
            fn shrink_candidates(&self, origin: &Self) -> Vec<Self> {
                let v = *self as i128;
                let o = *origin as i128;
                if v == o {
                    return Vec::new();
                }
                // origin first, then the binary-search ladder back toward
                // the current value: o, v - (v-o)/2, v - (v-o)/4, …, v ± 1.
                let mut out = vec![o];
                let mut diff = v - o;
                loop {
                    diff /= 2;
                    if diff == 0 {
                        break;
                    }
                    let c = v - diff;
                    if c != o {
                        out.push(c);
                    }
                }
                out.into_iter().map(|c| c as $t).collect()
            }

            fn shrink_origin(lo: &Self, hi: &Self) -> Self {
                let zero: $t = 0;
                if *lo <= zero && zero < *hi {
                    zero
                } else {
                    *lo
                }
            }
        }
    )+};
}

impl_shrink_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_shrink_noop {
    ($($t:ty),+) => {$(
        impl Shrink for $t {
            fn shrink_candidates(&self, _origin: &Self) -> Vec<Self> {
                Vec::new()
            }
            fn shrink_origin(lo: &Self, _hi: &Self) -> Self {
                lo.clone()
            }
        }
    )+};
}

impl_shrink_noop!(f32, f64);

/// A shrinkable anchored at `origin`: every child re-anchors so the
/// binary search recurses until the step size reaches zero.
fn shrink_toward<T: Shrink>(value: T, origin: T) -> Shrinkable<T> {
    let v = value.clone();
    Shrinkable::with_children(value, move || {
        let origin = origin.clone();
        let candidates = v.shrink_candidates(&origin).into_iter();
        Box::new(candidates.map(move |c| shrink_toward(c, origin.clone())))
    })
}

/// A generator of random values of one type, mirroring
/// `proptest::strategy::Strategy`.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Draws one value together with its shrink tree. The default wraps
    /// [`Strategy::generate`] in a leaf (no shrinking) — combinators that
    /// know better override this.
    fn generate_shrinkable(&self, rng: &mut StdRng) -> Shrinkable<Self::Value>
    where
        Self::Value: 'static,
    {
        Shrinkable::leaf(self.generate(rng))
    }

    /// Transforms every generated value through `f`, mirroring `prop_map`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, O>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O + 'static,
    {
        Map {
            strategy: self,
            f: Rc::new(f),
        }
    }

    /// Erases the concrete strategy type, mirroring `boxed`.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy(Rc::new(move |rng| self.generate_shrinkable(rng)))
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (**self).generate(rng)
    }

    fn generate_shrinkable(&self, rng: &mut StdRng) -> Shrinkable<Self::Value>
    where
        Self::Value: 'static,
    {
        (**self).generate_shrinkable(rng)
    }
}

/// The erased generator a [`BoxedStrategy`] wraps.
type BoxedGenerator<T> = Rc<dyn Fn(&mut StdRng) -> Shrinkable<T>>;

/// A type-erased strategy, mirroring `proptest::strategy::BoxedStrategy`.
pub struct BoxedStrategy<T>(BoxedGenerator<T>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T: 'static> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        (self.0)(rng).value
    }

    fn generate_shrinkable(&self, rng: &mut StdRng) -> Shrinkable<T> {
        (self.0)(rng)
    }
}

/// Always produces a clone of one value, mirroring
/// `proptest::strategy::Just`.
#[derive(Clone, Copy, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S: Strategy, O> {
    strategy: S,
    f: Rc<dyn Fn(S::Value) -> O>,
}

impl<S: Strategy + Clone, O> Clone for Map<S, O> {
    fn clone(&self) -> Self {
        Map {
            strategy: self.strategy.clone(),
            f: Rc::clone(&self.f),
        }
    }
}

impl<S, O> Strategy for Map<S, O>
where
    S: Strategy,
    S::Value: Clone + 'static,
    O: 'static,
{
    type Value = O;

    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.strategy.generate(rng))
    }

    fn generate_shrinkable(&self, rng: &mut StdRng) -> Shrinkable<O> {
        self.strategy
            .generate_shrinkable(rng)
            .map(Rc::clone(&self.f))
    }
}

/// Picks uniformly among several strategies of one value type; the
/// expansion of [`crate::prop_oneof!`].
#[derive(Clone)]
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union over `options`, which must be non-empty.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Union { options }
    }
}

impl<T: 'static> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        let i = rng.random_range(0..self.options.len());
        self.options[i].generate(rng)
    }

    fn generate_shrinkable(&self, rng: &mut StdRng) -> Shrinkable<T> {
        // Shrinks stay inside the chosen arm (cross-arm shrinking would
        // change the shape of the counterexample, not simplify it).
        let i = rng.random_range(0..self.options.len());
        self.options[i].generate_shrinkable(rng)
    }
}

impl<T: SampleUniform + Shrink> Strategy for Range<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }

    fn generate_shrinkable(&self, rng: &mut StdRng) -> Shrinkable<T> {
        let v = self.generate(rng);
        let origin = T::shrink_origin(&self.start, &self.end);
        shrink_toward(v, origin)
    }
}

impl<T: SampleUniform + Shrink> Strategy for RangeInclusive<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        T::sample_inclusive(rng, *self.start(), *self.end())
    }

    fn generate_shrinkable(&self, rng: &mut StdRng) -> Shrinkable<T> {
        let v = self.generate(rng);
        // The half-open origin rule is still correct for the inclusive
        // domain: zero if `lo <= 0 <= hi`, else `lo`.
        let origin = T::shrink_origin(self.start(), self.end());
        shrink_toward(v, origin)
    }
}

macro_rules! impl_strategy_for_tuple {
    ($combine:ident: $($s:ident/$part:ident/$idx:tt),+) => {
        /// Componentwise shrink of one tuple arity: each child shrinks
        /// exactly one component, earliest components first.
        fn $combine<$($s: Clone + 'static),+>(
            parts: ($(Shrinkable<$s>,)+),
        ) -> Shrinkable<($($s,)+)> {
            let value = ($(parts.$idx.value.clone(),)+);
            Shrinkable::with_children(value, move || {
                let out: Children<($($s,)+)> = Box::new(std::iter::empty());
                $(
                    let base = parts.clone();
                    let out = Box::new(out.chain(parts.$idx.children().map(move |child| {
                        let mut next = base.clone();
                        next.$idx = child;
                        $combine(next)
                    })));
                )+
                out
            })
        }

        impl<$($s: Strategy),+> Strategy for ($($s,)+)
        where
            $($s::Value: Clone + 'static),+
        {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn generate_shrinkable(&self, rng: &mut StdRng) -> Shrinkable<Self::Value> {
                $(let $part = self.$idx.generate_shrinkable(rng);)+
                $combine(($($part,)+))
            }
        }
    };
}

impl_strategy_for_tuple!(combine1: A / a / 0);
impl_strategy_for_tuple!(combine2: A / a / 0, B / b / 1);
impl_strategy_for_tuple!(combine3: A / a / 0, B / b / 1, C / c / 2);
impl_strategy_for_tuple!(combine4: A / a / 0, B / b / 1, C / c / 2, D / d / 3);
impl_strategy_for_tuple!(combine5: A / a / 0, B / b / 1, C / c / 2, D / d / 3, E / e / 4);
impl_strategy_for_tuple!(combine6: A / a / 0, B / b / 1, C / c / 2, D / d / 3, E / e / 4, F / f / 5);
impl_strategy_for_tuple!(combine7: A / a / 0, B / b / 1, C / c / 2, D / d / 3, E / e / 4, F / f / 5, G / g / 6);
impl_strategy_for_tuple!(combine8: A / a / 0, B / b / 1, C / c / 2, D / d / 3, E / e / 4, F / f / 5, G / g / 6, H / h / 7);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::case_rng;

    #[test]
    fn ranges_tuples_and_maps_compose() {
        let strat = ((0i64..10), (5u32..6)).prop_map(|(a, b)| a + b as i64);
        let mut rng = case_rng(1, 1);
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!((5..15).contains(&v));
        }
    }

    #[test]
    fn union_hits_every_arm() {
        let u = Union::new(vec![
            Just(1u8).boxed(),
            Just(2u8).boxed(),
            Just(3u8).boxed(),
        ]);
        let mut rng = case_rng(2, 7);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[u.generate(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    #[test]
    fn integer_shrink_walks_a_binary_search_toward_zero() {
        // From 96 with origin 0 the candidates open with the origin and
        // then climb the bisection ladder back toward the value.
        let cands = 96i64.shrink_candidates(&0);
        assert_eq!(cands[0], 0);
        assert!(cands.contains(&48));
        assert!(cands.windows(2).all(|w| w[0] < w[1]), "{cands:?}");
        // Negative values shrink toward zero from below.
        let neg = (-96i64).shrink_candidates(&0);
        assert_eq!(neg[0], 0);
        assert!(neg.contains(&-48));
        // At the origin there is nothing left.
        assert!(0i64.shrink_candidates(&0).is_empty());
    }

    #[test]
    fn range_origin_prefers_zero_when_in_domain() {
        assert_eq!(i64::shrink_origin(&-50, &50), 0);
        assert_eq!(i64::shrink_origin(&10, &50), 10);
        assert_eq!(u64::shrink_origin(&3, &9), 3);
    }

    #[test]
    fn shrink_tree_reaches_the_origin_of_a_range() {
        let strat = 10i64..1000;
        let mut rng = case_rng(8, 0);
        let mut node = strat.generate_shrinkable(&mut rng);
        // Greedily follow first children (most aggressive shrink): must
        // terminate at the range's low bound.
        while let Some(k) = node.children().next() {
            node = k;
        }
        assert_eq!(node.value, 10);
    }

    #[test]
    fn tuple_shrinks_componentwise() {
        let strat = (1i64..100, 1i64..100);
        let mut rng = case_rng(9, 3);
        let node = strat.generate_shrinkable(&mut rng);
        let (a, b) = node.value;
        let kids: Vec<_> = node.children().collect();
        assert!(!kids.is_empty(), "non-origin tuple must offer shrinks");
        for child in kids {
            let (ca, cb) = child.value;
            assert!(
                (ca == a) ^ (cb == b),
                "each child shrinks exactly one component: ({a},{b}) -> ({ca},{cb})"
            );
        }
    }

    #[test]
    fn map_shrinks_through_the_transform() {
        let strat = (0i64..1000).prop_map(|v| v * 2);
        let mut rng = case_rng(10, 0);
        let mut node = strat.generate_shrinkable(&mut rng);
        while let Some(k) = node.children().next() {
            node = k;
        }
        assert_eq!(node.value, 0, "mapped shrink must bottom out at f(origin)");
    }
}
