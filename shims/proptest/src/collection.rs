//! Collection strategies: `vec(element, size)`.

use rand::rngs::StdRng;
use rand::Rng;

use crate::strategy::Strategy;

/// An inclusive size window accepted by [`vec()`].
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    min: usize,
    max: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self { min: n, max: n }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec size range");
        Self {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        Self {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

/// Strategy producing vectors of `element` samples.
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

/// Vectors whose length falls in `size`, elements drawn from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
        let len = rng.gen_range(self.size.min..self.size.max + 1);
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}
