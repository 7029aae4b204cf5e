//! Counters, gauges, and log-bucketed histograms.

use std::collections::BTreeMap;

use crate::Labels;

/// What identifies one metric series: its name and labels.
pub type SeriesKey = (String, Labels);

/// A metric name prepared for lookups by name: the least series key
/// the name can have (`Labels::none()` sorts before every other label
/// set), built once so each lookup is a range seek that allocates
/// nothing (see [`HubView::counters_named`](crate::HubView::counters_named)).
#[derive(Clone, Debug)]
pub struct SeriesName(SeriesKey);

impl SeriesName {
    /// The name `name`, ready for lookups.
    pub fn new(name: &str) -> Self {
        Self((name.to_string(), Labels::none()))
    }
}

/// Every series of `map` named `name`, in label order.
fn named<'a, T>(
    map: &'a BTreeMap<SeriesKey, T>,
    name: &'a SeriesName,
) -> impl Iterator<Item = (&'a SeriesKey, &'a T)> {
    map.range(&name.0..)
        .take_while(move |(k, _)| k.0 == name.0 .0)
}

/// A gauge value plus its high-water mark.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Gauge {
    pub value: i64,
    pub high_water: i64,
}

/// A counter or histogram plus the registry write that last touched
/// it, so a cursor reader visits only what changed since its last look
/// (see [`MetricsRegistry::counters_since`]).
#[derive(Default)]
struct Stamped<T> {
    value: T,
    stamp: u64,
}

/// Holds every metric series, keyed by `(name, labels)`.
#[derive(Default)]
pub(crate) struct MetricsRegistry {
    counters: BTreeMap<SeriesKey, Stamped<u64>>,
    gauges: BTreeMap<SeriesKey, Gauge>,
    histograms: BTreeMap<SeriesKey, Stamped<Histogram>>,
    /// Counter and histogram writes so far. Never reset (not even by
    /// [`MetricsRegistry::clear`]), so a reader's remembered value
    /// stays a valid "since" for the life of the registry.
    writes: u64,
}

impl MetricsRegistry {
    fn counter_mut(&mut self, key: SeriesKey) -> &mut u64 {
        self.writes += 1;
        let c = self.counters.entry(key).or_default();
        c.stamp = self.writes;
        &mut c.value
    }

    fn histogram_mut(&mut self, key: SeriesKey) -> &mut Histogram {
        self.writes += 1;
        let h = self.histograms.entry(key).or_default();
        h.stamp = self.writes;
        &mut h.value
    }

    pub fn incr(&mut self, name: &str, labels: Labels, delta: u64) {
        *self.counter_mut((name.to_string(), labels)) += delta;
    }

    pub fn counter(&self, name: &str, labels: &Labels) -> u64 {
        self.counters
            .get(&(name.to_string(), labels.clone()))
            .map_or(0, |c| c.value)
    }

    pub fn gauge_set(&mut self, name: &str, labels: Labels, value: i64) {
        let g = self
            .gauges
            .entry((name.to_string(), labels))
            .or_insert(Gauge {
                value,
                high_water: value,
            });
        g.value = value;
        g.high_water = g.high_water.max(value);
    }

    pub fn gauge(&self, name: &str, labels: &Labels) -> Option<(i64, i64)> {
        self.gauges
            .get(&(name.to_string(), labels.clone()))
            .map(|g| (g.value, g.high_water))
    }

    pub fn observe(&mut self, name: &str, labels: Labels, value: u64) {
        self.histogram_mut((name.to_string(), labels)).record(value);
    }

    pub fn histogram(&self, name: &str, labels: &Labels) -> Option<&Histogram> {
        self.histograms
            .get(&(name.to_string(), labels.clone()))
            .map(|h| &h.value)
    }

    /// Folds another registry into this one: counters add, gauges take
    /// the incoming value (high-water marks max together), histograms
    /// merge bucket-wise. Used by [`crate::Telemetry::absorb`] to
    /// combine per-trial hubs from parallel experiment workers.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in other.counters.iter() {
            *self.counter_mut(k.clone()) += v.value;
        }
        for (k, g) in other.gauges.iter() {
            let e = self.gauges.entry(k.clone()).or_insert(*g);
            e.value = g.value;
            e.high_water = e.high_water.max(g.high_water);
        }
        for (k, h) in other.histograms.iter() {
            self.histogram_mut(k.clone()).merge(&h.value);
        }
    }

    /// Counter and histogram writes so far: remember it after a visit
    /// and pass it to the `_since` iterators at the next one.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Counters written after the registry's `since`-th write (0 =
    /// every counter), in key order.
    pub fn counters_since(&self, since: u64) -> impl Iterator<Item = (&SeriesKey, u64)> {
        self.counters
            .iter()
            .filter(move |(_, c)| c.stamp > since)
            .map(|(k, c)| (k, c.value))
    }

    pub fn gauges(&self) -> impl Iterator<Item = (&SeriesKey, &Gauge)> {
        self.gauges.iter()
    }

    /// [`MetricsRegistry::counters_since`] restricted to one name.
    pub fn counters_named<'a>(
        &'a self,
        name: &'a SeriesName,
        since: u64,
    ) -> impl Iterator<Item = (&'a SeriesKey, u64)> {
        named(&self.counters, name)
            .filter(move |(_, c)| c.stamp > since)
            .map(|(k, c)| (k, c.value))
    }

    pub fn gauges_named<'a>(
        &'a self,
        name: &'a SeriesName,
    ) -> impl Iterator<Item = (&'a SeriesKey, &'a Gauge)> {
        named(&self.gauges, name)
    }

    /// [`MetricsRegistry::histograms_since`] restricted to one name.
    pub fn histograms_named<'a>(
        &'a self,
        name: &'a SeriesName,
        since: u64,
    ) -> impl Iterator<Item = (&'a SeriesKey, &'a Histogram)> {
        named(&self.histograms, name)
            .filter(move |(_, h)| h.stamp > since)
            .map(|(k, h)| (k, &h.value))
    }

    /// Histograms written after the registry's `since`-th write (0 =
    /// every histogram), in key order.
    pub fn histograms_since(&self, since: u64) -> impl Iterator<Item = (&SeriesKey, &Histogram)> {
        self.histograms
            .iter()
            .filter(move |(_, h)| h.stamp > since)
            .map(|(k, h)| (k, &h.value))
    }
}

/// Number of buckets: one for zero plus one per power of two up to
/// `u64::MAX`.
pub const BUCKETS: usize = 65;

/// A base-2 log-bucketed histogram.
///
/// Bucket 0 holds only zeros; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i - 1]`. A quantile estimate is the upper bound of the
/// bucket holding the rank-selected sample (clamped to the observed
/// min/max), so it never underestimates and its error is bounded by the
/// width of that bucket — which is what the property tests pin down.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Index of the bucket holding `value`.
pub fn bucket_index(value: u64) -> usize {
    match value {
        0 => 0,
        v => 64 - v.leading_zeros() as usize,
    }
}

/// Inclusive `(low, high)` bounds of bucket `index`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    match index {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        i => (1 << (i - 1), (1 << i) - 1),
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds another histogram into this one. Exact: bucket counts and
    /// sums add, min/max fold, so merged quantile estimates are
    /// identical to having recorded every observation into one
    /// histogram in any order.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Raw per-bucket counts (`BUCKETS` entries; bucket bounds via
    /// [`bucket_bounds`]).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The observations recorded into `self` but not yet into
    /// `earlier` — the window-delta primitive behind `udc-query`'s
    /// live feed, which snapshots cumulative histograms at sim-clock
    /// barriers and diffs consecutive snapshots. Exact for bucket
    /// counts, count, and sum (cumulative histograms are monotone);
    /// min/max are reconstructed at bucket resolution from the delta's
    /// own nonempty buckets (the cumulative min/max may predate the
    /// window), which is exactly the precision the quantile estimator
    /// works at, so window quantiles stay deterministic.
    pub fn diff(&self, earlier: &Histogram) -> Histogram {
        let mut out = Histogram::default();
        for (i, (&a, &b)) in self.counts.iter().zip(earlier.counts.iter()).enumerate() {
            let d = a.saturating_sub(b);
            if d > 0 {
                out.counts[i] = d;
                out.count += d;
                let (lo, hi) = bucket_bounds(i);
                out.min = out.min.min(lo);
                out.max = out.max.max(hi);
            }
        }
        out.sum = self.sum.saturating_sub(earlier.sum);
        // The cumulative extrema bound the window's: a window holding
        // the all-time min or max gets that endpoint exact.
        if out.count > 0 {
            out.max = out.max.min(self.max);
            out.min = out.min.max(self.min);
        }
        out
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`): the upper bound of
    /// the bucket holding the sample of rank `round(q * (count - 1))`,
    /// clamped into `[min, max]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                let (_, hi) = bucket_bounds(i);
                return hi.min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// The fixed summary used in exports.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// Snapshot of one histogram's headline statistics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Mean observation.
    pub mean: f64,
    /// Median estimate.
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_partition_the_domain() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
        }
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        let p50 = h.quantile(0.5);
        // True median is 500; the estimate lands at its bucket's upper
        // bound (511), never below the true value.
        assert!((500..=511).contains(&p50), "{p50}");
        assert!(h.quantile(0.0) >= 1);
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn diff_recovers_window_deltas() {
        let mut earlier = Histogram::default();
        for v in [3u64, 300, 40_000] {
            earlier.record(v);
        }
        let mut later = earlier.clone();
        for v in [5u64, 7, 900] {
            later.record(v);
        }
        let d = later.diff(&earlier);
        assert_eq!(d.count(), 3);
        assert_eq!(d.sum(), 5 + 7 + 900);
        // Delta buckets match recording just the new observations.
        let mut direct = Histogram::default();
        for v in [5u64, 7, 900] {
            direct.record(v);
        }
        assert_eq!(d.counts(), direct.counts());
        // Extrema are bucket-resolution bounds around the true values.
        assert!(d.min() <= 5 && d.min() >= 3, "{}", d.min());
        assert!(d.max() >= 900 && d.max() <= 1023, "{}", d.max());
        // Diffing against itself is empty.
        assert_eq!(later.diff(&later).count(), 0);
    }

    #[test]
    fn a_gauges_first_value_is_its_high_water() {
        // A negative first reading is not lifted to a zero high water;
        // later readings only raise the mark.
        let mut m = MetricsRegistry::default();
        m.gauge_set("delta", Labels::none(), -3);
        assert_eq!(m.gauge("delta", &Labels::none()), Some((-3, -3)));
        m.gauge_set("delta", Labels::none(), -5);
        assert_eq!(m.gauge("delta", &Labels::none()), Some((-5, -3)));
        m.gauge_set("delta", Labels::none(), 2);
        assert_eq!(m.gauge("delta", &Labels::none()), Some((2, 2)));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::default();
        assert_eq!(h.summary().count, 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
