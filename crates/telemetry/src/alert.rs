//! Alert records: the continuous-query engine's output ring.
//!
//! Decision records say *why* a single candidate won or lost; alert
//! records say that a *pattern over time* held — a windowed aggregate
//! crossed a threshold, a condition persisted, a series went silent, or
//! two events followed each other too closely. The rules themselves are
//! evaluated by `udc-query` (which depends on this crate, never the
//! other way around); this module only owns the record shape, its
//! structured reason codes, and the bounded ring the hub exports.
//!
//! Determinism contract: alerts carry an *explicit* simulated fire time
//! (the rule evaluation point, usually a window boundary), never the
//! hub's own clock — so replayed alerts can be fired into a hub whose
//! clock belongs to some earlier trial (or to nobody) without
//! perturbing its timestamps or logical ticks.

use crate::ring::Ring;
use crate::{Labels, Micros};

/// Which rule family fired the alert. One code per rule kind, so an
/// exported artifact can be summarized per-family without parsing rule
/// names.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertReason {
    /// A windowed aggregate crossed a comparison threshold.
    Threshold,
    /// A condition held continuously for at least the rule's duration.
    Sustained,
    /// A series produced no observations for at least the rule's
    /// duration.
    Absence,
    /// A second event followed a first within the rule's window.
    Sequence,
}

impl AlertReason {
    /// Every alert reason, in declaration order. Exporters iterate this
    /// so a newly added variant cannot be silently missed (see the
    /// exhaustiveness test below).
    pub const ALL: [AlertReason; 4] = [
        AlertReason::Threshold,
        AlertReason::Sustained,
        AlertReason::Absence,
        AlertReason::Sequence,
    ];

    /// Stable lower-snake name used in JSON exports.
    pub fn as_str(&self) -> &'static str {
        match self {
            AlertReason::Threshold => "threshold",
            AlertReason::Sustained => "sustained",
            AlertReason::Absence => "absence",
            AlertReason::Sequence => "sequence",
        }
    }

    /// Parses the stable export name back into a reason.
    pub fn from_str_name(name: &str) -> Option<AlertReason> {
        AlertReason::ALL
            .iter()
            .copied()
            .find(|c| c.as_str() == name)
    }
}

/// One alert as reported by the rule engine (everything but the
/// ring-assigned sequence number).
#[derive(Clone, Debug, PartialEq)]
pub struct AlertFire {
    /// Simulated fire time — explicit, never read from the hub clock.
    pub at_us: Micros,
    /// The rule that fired, e.g. `"heal.failure_burst"`.
    pub rule: String,
    /// Rule family that produced the fire.
    pub reason: AlertReason,
    /// Tenant/module the alert is attributed to, when attributable.
    pub labels: Labels,
    /// Start of the window (or condition run) that fired.
    pub window_start_us: Micros,
    /// End of the window (or condition run) that fired.
    pub window_end_us: Micros,
    /// The aggregate value (or sustained duration in µs) that fired.
    pub value: f64,
    /// Free-form detail, e.g. `"count(events:failure)=7 > 4"`.
    pub detail: String,
}

/// One recorded alert (owned, exported to JSON).
#[derive(Clone, Debug, PartialEq)]
pub struct AlertRecord {
    /// Arrival order under the recording hub.
    pub seq: u64,
    /// Simulated fire time.
    pub at_us: Micros,
    /// The rule that fired.
    pub rule: String,
    /// Rule family.
    pub reason: AlertReason,
    /// Tenant/module attribution.
    pub labels: Labels,
    /// Start of the firing window.
    pub window_start_us: Micros,
    /// End of the firing window.
    pub window_end_us: Micros,
    /// The value that fired.
    pub value: f64,
    /// Free-form detail.
    pub detail: String,
}

/// Bounded ring of alert records.
pub(crate) struct AlertLog {
    pub ring: Ring<AlertRecord>,
}

impl AlertLog {
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: Ring::new(capacity),
        }
    }

    pub fn record(&mut self, fire: AlertFire) {
        self.ring.push_with(|seq| AlertRecord {
            seq,
            at_us: fire.at_us,
            rule: fire.rule,
            reason: fire.reason,
            labels: fire.labels,
            window_start_us: fire.window_start_us,
            window_end_us: fire.window_end_us,
            value: fire.value,
            detail: fire.detail,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fire(at: Micros, rule: &str, reason: AlertReason) -> AlertFire {
        AlertFire {
            at_us: at,
            rule: rule.to_string(),
            reason,
            labels: Labels::none(),
            window_start_us: at.saturating_sub(10),
            window_end_us: at,
            value: 1.0,
            detail: String::new(),
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut log = AlertLog::new(2);
        log.record(fire(1, "a", AlertReason::Threshold));
        log.record(fire(2, "b", AlertReason::Absence));
        log.record(fire(3, "c", AlertReason::Sequence));
        let got: Vec<_> = log.ring.records().map(|r| r.rule.clone()).collect();
        assert_eq!(got, vec!["b", "c"]);
        assert_eq!(log.ring.dropped(), 1);
        assert_eq!(log.ring.records().last().unwrap().seq, 2);
    }

    #[test]
    fn records_keep_their_fire_time_and_sequence_in_arrival_order() {
        // A later trial's rules may fire at an earlier simulated time
        // than the trial before: the log orders by arrival, not by time.
        let mut log = AlertLog::new(16);
        log.record(fire(1, "a", AlertReason::Threshold));
        log.record(fire(99, "b", AlertReason::Sustained));
        log.record(fire(7, "c", AlertReason::Sequence));
        let got: Vec<_> = log
            .ring
            .records()
            .map(|r| (r.seq, r.at_us, r.rule.clone(), r.window_start_us))
            .collect();
        assert_eq!(
            got,
            vec![
                (0, 1, "a".to_string(), 0),
                (1, 99, "b".to_string(), 89),
                (2, 7, "c".to_string(), 0),
            ]
        );
        assert_eq!(log.ring.dropped(), 0);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut log = AlertLog::new(0);
        log.record(fire(1, "a", AlertReason::Threshold));
        assert_eq!(log.ring.records().count(), 0);
        assert_eq!(log.ring.dropped(), 1);
    }

    #[test]
    fn alert_reasons_are_exhaustive_and_round_trip() {
        // `ALL` must cover every variant exactly once. The match below
        // fails to compile when a variant is added, forcing both `ALL`
        // and `as_str` to be extended in the same change.
        for code in AlertReason::ALL {
            match code {
                AlertReason::Threshold
                | AlertReason::Sustained
                | AlertReason::Absence
                | AlertReason::Sequence => {}
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        for code in AlertReason::ALL {
            assert!(seen.insert(code.as_str()));
            assert_eq!(AlertReason::from_str_name(code.as_str()), Some(code));
        }
        assert_eq!(seen.len(), AlertReason::ALL.len());
        assert_eq!(AlertReason::from_str_name("nonsense"), None);
    }
}
