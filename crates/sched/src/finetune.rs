//! Telemetry-driven fine-tuning (§3.2).
//!
//! "Since user specified resources may be inaccurate when executing with
//! real (and changing) inputs, UDC would perform fine tuning (enlarging
//! or shrinking the amount of resources for a module, migrating modules
//! across hardware units, etc.) based on telemetry data collected at the
//! run time."
//!
//! The tuner keeps each module's smoothed utilization inside a target
//! band: above the band → grow, below → shrink, and a saturated module
//! on a full device → migrate.

use std::collections::BTreeMap;

/// EWMA smoothing factor for usage estimation. Public so
/// subscription-driven control loops can register a query-engine EWMA
/// aggregation that reproduces [`FineTuner::observe`]'s smoothing
/// bit-exactly.
pub const EWMA_ALPHA: f64 = 0.3;

/// Lower utilization bound: below this, shrink.
const LOW_WATERMARK: f64 = 0.4;
/// Upper utilization bound: above this, grow.
const HIGH_WATERMARK: f64 = 0.9;
/// Multiplier when growing.
const GROW_FACTOR: f64 = 1.5;
/// Multiplier when shrinking.
const SHRINK_FACTOR: f64 = 0.7;
/// Minimum units a module may shrink to.
const MIN_UNITS: u64 = 1;

/// A recommended adjustment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TuneAction {
    /// Change the module's allocation to `new_units`.
    Resize {
        /// Module name.
        module: String,
        /// Current units.
        from_units: u64,
        /// Recommended units.
        to_units: u64,
    },
    /// The module is saturated and its device cannot grow: move it.
    Migrate {
        /// Module name.
        module: String,
        /// Units to allocate at the destination.
        units: u64,
    },
}

/// The fine-tuning controller.
#[derive(Debug, Clone, Default)]
pub struct FineTuner {
    /// Smoothed used fraction per module (see [`FineTuner::observe`]).
    usage: BTreeMap<String, f64>,
    /// SLO-violation counter: samples where usage exceeded allocation.
    pub slo_violations: u64,
    /// Actions recommended so far.
    pub actions_issued: u64,
}

impl FineTuner {
    /// Folds one usage sample for `module` — the fraction of its
    /// allocation actually used, in [0, +inf); above 1.0 the module is
    /// starved — into the module's EWMA, and returns the new estimate.
    /// The first sample seeds the estimate.
    pub fn observe(&mut self, module: &str, used_fraction: f64) -> f64 {
        match self.usage.get_mut(module) {
            Some(prev) => {
                *prev = EWMA_ALPHA * used_fraction + (1.0 - EWMA_ALPHA) * *prev;
                *prev
            }
            None => {
                self.usage.insert(module.to_string(), used_fraction);
                used_fraction
            }
        }
    }

    /// Evaluates one module: given its smoothed usage (nothing before
    /// its first [`FineTuner::observe`]) and its current allocation,
    /// recommend an action (or nothing when inside the band).
    ///
    /// `device_headroom` is the free capacity on the hosting device; a
    /// grow that exceeds it becomes a migration.
    pub fn evaluate(
        &mut self,
        module: &str,
        current_units: u64,
        device_headroom: u64,
    ) -> Option<TuneAction> {
        let usage = *self.usage.get(module)?;
        self.evaluate_usage(module, usage, current_units, device_headroom)
    }

    /// The policy core behind [`FineTuner::evaluate`], taking the
    /// smoothed usage directly instead of the tuner's own estimate —
    /// this is the entry point for subscription-driven control loops
    /// that receive the smoothed value from a query engine (an EWMA
    /// aggregation with [`EWMA_ALPHA`] reproduces it exactly).
    pub fn evaluate_usage(
        &mut self,
        module: &str,
        usage: f64,
        current_units: u64,
        device_headroom: u64,
    ) -> Option<TuneAction> {
        if usage > 1.0 {
            self.slo_violations += 1;
        }
        if usage > HIGH_WATERMARK {
            let target =
                ((current_units as f64 * GROW_FACTOR).ceil() as u64).max(current_units + 1);
            let extra = target - current_units;
            self.actions_issued += 1;
            if extra > device_headroom {
                return Some(TuneAction::Migrate {
                    module: module.to_string(),
                    units: target,
                });
            }
            return Some(TuneAction::Resize {
                module: module.to_string(),
                from_units: current_units,
                to_units: target,
            });
        }
        if usage < LOW_WATERMARK && current_units > MIN_UNITS {
            let target = ((current_units as f64 * SHRINK_FACTOR).floor() as u64).max(MIN_UNITS);
            if target < current_units {
                self.actions_issued += 1;
                return Some(TuneAction::Resize {
                    module: module.to_string(),
                    from_units: current_units,
                    to_units: target,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuner_with(module: &str, samples: &[f64]) -> FineTuner {
        let mut tuner = FineTuner::default();
        for &s in samples {
            tuner.observe(module, s);
        }
        tuner
    }

    #[test]
    fn observe_is_the_ewma_bit_for_bit() {
        let samples = [0.42, 1.3, 0.0, 0.77, 0.05, 2.5, 0.6, 0.6, 0.31];
        let mut tuner = FineTuner::default();
        let mut expected: Option<f64> = None;
        for (n, &x) in samples.iter().enumerate() {
            let got = tuner.observe("A1", x);
            // The recurrence the query engine's `Ewma` folds with.
            let e = match expected {
                None => x,
                Some(prev) => EWMA_ALPHA * x + (1.0 - EWMA_ALPHA) * prev,
            };
            assert_eq!(got.to_bits(), e.to_bits(), "sample {n}");
            expected = Some(e);
            // ... which is the closed form (1-a)^n x_0 + sum a (1-a)^(n-k) x_k.
            let closed: f64 = (1.0 - EWMA_ALPHA).powi(n as i32) * samples[0]
                + (1..=n)
                    .map(|k| EWMA_ALPHA * (1.0 - EWMA_ALPHA).powi((n - k) as i32) * samples[k])
                    .sum::<f64>();
            assert!(
                (got - closed).abs() < 1e-12,
                "sample {n}: {got} vs {closed}"
            );
        }
        // Each module smooths its own samples.
        assert_eq!(tuner.observe("A2", 0.9), 0.9);
        assert!(tuner.evaluate("A3", 4, 100).is_none());
    }

    #[test]
    fn overloaded_module_grows() {
        let mut tuner = tuner_with("A1", &[0.95; 20]);
        let action = tuner.evaluate("A1", 4, 100).unwrap();
        match action {
            TuneAction::Resize {
                from_units: 4,
                to_units,
                ..
            } => assert!(to_units > 4),
            other => panic!("expected grow, got {other:?}"),
        }
    }

    #[test]
    fn idle_module_shrinks() {
        let mut tuner = tuner_with("A1", &[0.1; 20]);
        let action = tuner.evaluate("A1", 8, 100).unwrap();
        match action {
            TuneAction::Resize {
                from_units: 8,
                to_units,
                ..
            } => assert!(to_units < 8),
            other => panic!("expected shrink, got {other:?}"),
        }
    }

    #[test]
    fn in_band_module_untouched() {
        let mut tuner = tuner_with("A1", &[0.7; 20]);
        assert!(tuner.evaluate("A1", 4, 100).is_none());
        assert_eq!(tuner.actions_issued, 0);
    }

    #[test]
    fn saturated_on_full_device_migrates() {
        let mut tuner = tuner_with("A1", &[1.2; 20]);
        let action = tuner.evaluate("A1", 4, 0).unwrap();
        assert!(matches!(action, TuneAction::Migrate { units, .. } if units > 4));
        assert!(tuner.slo_violations > 0);
    }

    #[test]
    fn never_shrinks_below_minimum() {
        let mut tuner = tuner_with("A1", &[0.01; 20]);
        assert!(tuner.evaluate("A1", 1, 100).is_none());
    }

    #[test]
    fn unsampled_module_untouched() {
        let mut tuner = FineTuner::default();
        assert!(tuner.evaluate("ghost", 4, 100).is_none());
    }

    #[test]
    fn convergence_loop_settles_in_band() {
        // A module that really needs 6 units, initially allocated 16:
        // the loop shrink-converges into the band without oscillating
        // forever.
        let mut units = 16u64;
        let need = 6.0;
        let mut tuner = FineTuner::default();
        for round in 0..20 {
            for _ in 0..10 {
                tuner.observe("A1", need / units as f64);
            }
            match tuner.evaluate("A1", units, 1000) {
                Some(TuneAction::Resize { to_units, .. }) => units = to_units,
                Some(TuneAction::Migrate { units: u, .. }) => units = u,
                None => {
                    assert!(round > 0, "initial allocation was already wrong");
                    break;
                }
            }
        }
        let final_usage = need / units as f64;
        assert!(
            (0.35..=1.0).contains(&final_usage),
            "converged to units={units}, usage={final_usage}"
        );
    }
}
