//! Sim-clock windows and the aggregations computed over them.

use crate::Micros;

/// A window shape over simulated time. Window `k` covers the half-open
/// interval `[k·slide, k·slide + size)`; a *tumbling* window has
/// `slide == size` (each instant in exactly one window), a *sliding*
/// window has `slide < size` (each instant in `size/slide` windows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowSpec {
    /// Window length in simulated microseconds (> 0).
    pub size_us: Micros,
    /// Stride between window starts (> 0, ≤ `size_us`).
    pub slide_us: Micros,
}

impl WindowSpec {
    /// A tumbling window: stride equals size.
    pub fn tumbling(size_us: Micros) -> Self {
        Self {
            size_us,
            slide_us: size_us,
        }
    }

    /// A sliding window: stride `slide_us`, length `size_us`.
    pub fn sliding(size_us: Micros, slide_us: Micros) -> Self {
        Self { size_us, slide_us }
    }

    /// Whether the shape is usable (nonzero, stride no larger than
    /// size).
    pub fn is_valid(&self) -> bool {
        self.size_us > 0 && self.slide_us > 0 && self.slide_us <= self.size_us
    }

    /// Start of window `k`.
    pub fn start_of(&self, k: u64) -> Micros {
        k * self.slide_us
    }

    /// End (exclusive) of window `k`.
    pub fn end_of(&self, k: u64) -> Micros {
        k * self.slide_us + self.size_us
    }

    /// Indexes of every window containing instant `t`, as an inclusive
    /// `lo..=hi` pair.
    pub fn covering(&self, t: Micros) -> (u64, u64) {
        let hi = t / self.slide_us;
        let lo = if t < self.size_us {
            0
        } else {
            (t - self.size_us) / self.slide_us + 1
        };
        (lo, hi)
    }

    /// Highest window index closed once the watermark reaches `wm`
    /// (i.e. `end_of(k) ≤ wm`), or `None` if no window has closed yet.
    pub fn last_closed(&self, wm: Micros) -> Option<u64> {
        if wm < self.size_us {
            None
        } else {
            Some((wm - self.size_us) / self.slide_us)
        }
    }
}

/// What to compute over the observations that fall in a window.
///
/// All of these are deterministic folds. `Count`/`Sum`/`Rate`/`Mean`/
/// `Max`/`Quantile` are order-insensitive over integer-valued inputs;
/// `Ewma` is deliberately order-*sensitive* — it replicates the
/// exponentially-weighted estimator control loops poll (see
/// `udc_sched::FineTuner::observe`) and so folds samples in
/// ingestion order, carrying its estimate across windows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Aggregation {
    /// Number of observations in the window.
    Count,
    /// Sum of observation values.
    Sum,
    /// Sum divided by the window length in seconds.
    Rate,
    /// Arithmetic mean (0 when the window is empty).
    Mean,
    /// Largest value (0 when the window is empty).
    Max,
    /// Quantile estimate via the shared log-bucketed histogram
    /// (`q` in `[0, 1]`); integer-valued sources only.
    Quantile(f64),
    /// Exponentially-weighted moving average with smoothing factor
    /// `alpha`; the first sample ever seeds the estimate, and the
    /// estimate carries across windows (an empty window re-emits the
    /// previous estimate with `count == 0`). Tumbling windows only.
    Ewma {
        /// Smoothing factor in `(0, 1]`.
        alpha: f64,
    },
}

impl Aggregation {
    /// Stable lower-snake name used in exports and rule strings.
    pub fn as_str(&self) -> &'static str {
        match self {
            Aggregation::Count => "count",
            Aggregation::Sum => "sum",
            Aggregation::Rate => "rate",
            Aggregation::Mean => "mean",
            Aggregation::Max => "max",
            Aggregation::Quantile(_) => "quantile",
            Aggregation::Ewma { .. } => "ewma",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tumbling_covering_is_exactly_one_window() {
        let w = WindowSpec::tumbling(100);
        assert_eq!(w.covering(0), (0, 0));
        assert_eq!(w.covering(99), (0, 0));
        assert_eq!(w.covering(100), (1, 1));
        assert_eq!(w.covering(250), (2, 2));
    }

    #[test]
    fn sliding_covering_spans_overlapping_windows() {
        // size 100, slide 25: each instant sits in 4 windows (fewer
        // near t=0).
        let w = WindowSpec::sliding(100, 25);
        assert_eq!(w.covering(0), (0, 0));
        assert_eq!(w.covering(30), (0, 1));
        assert_eq!(w.covering(99), (0, 3));
        assert_eq!(w.covering(100), (1, 4));
        let (lo, hi) = w.covering(1000);
        for k in lo..=hi {
            assert!(w.start_of(k) <= 1000 && 1000 < w.end_of(k));
        }
        assert!(1000 < w.start_of(hi + 1) || 1000 >= w.end_of(lo.wrapping_sub(1)));
    }

    #[test]
    fn last_closed_tracks_the_watermark() {
        let w = WindowSpec::sliding(100, 25);
        assert_eq!(w.last_closed(99), None);
        assert_eq!(w.last_closed(100), Some(0));
        assert_eq!(w.last_closed(124), Some(0));
        assert_eq!(w.last_closed(125), Some(1));
        let t = WindowSpec::tumbling(250);
        assert_eq!(t.last_closed(499), Some(0));
        assert_eq!(t.last_closed(500), Some(1));
    }
}
