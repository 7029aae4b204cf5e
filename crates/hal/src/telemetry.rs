//! Runtime telemetry (§3.2).
//!
//! "UDC would perform fine tuning (enlarging or shrinking the amount of
//! resources for a module, migrating modules across hardware units,
//! etc.) based on telemetry data collected at the run time." This module
//! is that data plane: named counters, utilization samples per module,
//! and an exponentially-weighted usage estimator the fine-tuning
//! controller in `udc-sched` consumes.

use crate::clock::Micros;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One utilization observation for a module.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UtilizationSample {
    /// Virtual time of the sample.
    pub at_us: Micros,
    /// Fraction of the module's *allocated* resources actually used,
    /// in [0, +inf) — above 1.0 means the allocation is saturated and
    /// the module is starved.
    pub used_fraction: f64,
}

/// EWMA smoothing factor for usage estimation. Public so
/// subscription-driven control loops can register a query-engine EWMA
/// aggregation that reproduces this estimator's smoothing bit-exactly.
pub const EWMA_ALPHA: f64 = 0.3;

/// Per-module usage estimator.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct UsageEstimator {
    samples: Vec<UtilizationSample>,
    ewma: Option<f64>,
}

impl UsageEstimator {
    /// Records a sample and updates the EWMA.
    pub fn record(&mut self, sample: UtilizationSample) {
        self.ewma = Some(match self.ewma {
            None => sample.used_fraction,
            Some(prev) => EWMA_ALPHA * sample.used_fraction + (1.0 - EWMA_ALPHA) * prev,
        });
        self.samples.push(sample);
    }

    /// Smoothed usage estimate (None before any sample).
    pub fn estimate(&self) -> Option<f64> {
        self.ewma
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Raw samples (oldest first).
    pub fn samples(&self) -> &[UtilizationSample] {
        &self.samples
    }
}

/// The datacenter-wide telemetry sink.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Telemetry {
    counters: BTreeMap<String, u64>,
    usage: BTreeMap<String, UsageEstimator>,
}

impl Telemetry {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments a named counter by `delta`.
    pub fn incr(&mut self, name: &str, delta: u64) {
        // `entry` would allocate the key on every call; only the first
        // sight of a name needs one.
        match self.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Reads a counter (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records a utilization sample for `module`.
    pub fn sample_usage(&mut self, module: &str, at_us: Micros, used_fraction: f64) {
        self.usage
            .entry(module.to_string())
            .or_default()
            .record(UtilizationSample {
                at_us,
                used_fraction,
            });
    }

    /// Smoothed usage estimate for `module`.
    pub fn usage_estimate(&self, module: &str) -> Option<f64> {
        self.usage.get(module).and_then(|e| e.estimate())
    }

    /// Full estimator for `module` (for tests and reports).
    pub fn estimator(&self, module: &str) -> Option<&UsageEstimator> {
        self.usage.get(module)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut t = Telemetry::new();
        t.incr("placements", 1);
        t.incr("placements", 2);
        assert_eq!(t.counter("placements"), 3);
        assert_eq!(t.counter("missing"), 0);
    }

    #[test]
    fn ewma_converges_toward_signal() {
        let mut e = UsageEstimator::default();
        for i in 0..50 {
            e.record(UtilizationSample {
                at_us: i,
                used_fraction: 0.8,
            });
        }
        let est = e.estimate().unwrap();
        assert!((est - 0.8).abs() < 1e-6, "{est}");
    }

    #[test]
    fn ewma_smooths_noise() {
        let mut e = UsageEstimator::default();
        // Alternating 0.0 / 1.0 should estimate near 0.5, not the last value.
        for i in 0..100 {
            e.record(UtilizationSample {
                at_us: i,
                used_fraction: (i % 2) as f64,
            });
        }
        let est = e.estimate().unwrap();
        assert!(est > 0.3 && est < 0.7, "{est}");
    }

    #[test]
    fn first_sample_sets_estimate() {
        let mut e = UsageEstimator::default();
        assert!(e.estimate().is_none());
        e.record(UtilizationSample {
            at_us: 0,
            used_fraction: 0.42,
        });
        assert_eq!(e.estimate(), Some(0.42));
    }

    #[test]
    fn per_module_isolation() {
        let mut t = Telemetry::new();
        t.sample_usage("A1", 0, 0.1);
        t.sample_usage("A2", 0, 0.9);
        assert!(t.usage_estimate("A1").unwrap() < t.usage_estimate("A2").unwrap());
        assert!(t.usage_estimate("A3").is_none());
    }
}
