//! The flight recorder: a bounded ring of structured control-plane
//! events, old entries evicted first.

use crate::ring::Ring;
use crate::{Labels, Micros};

/// What happened. The closed set keeps exports greppable; extend it as
/// the control plane grows new decision points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A deployment was accepted into the system.
    Submit,
    /// The scheduler placed a module onto devices.
    Placement,
    /// A requirement conflict was resolved during submit.
    ConflictResolution,
    /// An isolate started without a warm slot.
    ColdStart,
    /// A module, device, or delivery failed.
    Failure,
    /// The autoscaler changed a deployment's resources.
    Autoscale,
    /// A deployment was torn down.
    Teardown,
    /// A verification pass ran (quotes, billing reconciliation).
    Verification,
    /// An experiment emitted a data point (one row of a results table).
    Measurement,
}

impl EventKind {
    /// Stable lowercase name used in JSON exports.
    pub fn as_str(&self) -> &'static str {
        match self {
            EventKind::Submit => "submit",
            EventKind::Placement => "placement",
            EventKind::ConflictResolution => "conflict_resolution",
            EventKind::ColdStart => "cold_start",
            EventKind::Failure => "failure",
            EventKind::Autoscale => "autoscale",
            EventKind::Teardown => "teardown",
            EventKind::Verification => "verification",
            EventKind::Measurement => "measurement",
        }
    }
}

/// A typed field value on an event.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned quantity (bytes, units, microseconds).
    U64(u64),
    /// Signed quantity (deltas).
    I64(i64),
    /// Ratio or rate.
    F64(f64),
    /// Free text (module names, outcomes).
    Str(String),
    /// Flag.
    Bool(bool),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

/// One recorded event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Global sequence number (never reused, survives eviction).
    pub seq: u64,
    /// Simulated timestamp.
    pub at_us: Micros,
    /// Category.
    pub kind: EventKind,
    /// Attribution.
    pub labels: Labels,
    /// Free-form structured payload.
    pub fields: Vec<(String, FieldValue)>,
}

/// Fixed-capacity ring of events.
pub(crate) struct FlightRecorder {
    pub ring: Ring<Event>,
}

impl FlightRecorder {
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: Ring::new(capacity.max(1)),
        }
    }

    pub fn record(
        &mut self,
        kind: EventKind,
        labels: Labels,
        fields: &[(&str, FieldValue)],
        at: Micros,
    ) {
        self.ring.push_with(|seq| Event {
            seq,
            at_us: at,
            kind,
            labels,
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }

    /// Appends another recorder's retained events in their original
    /// order, re-sequencing them under this recorder's counter while
    /// preserving their simulated timestamps. Drops already suffered by
    /// `other` carry over, and the ring keeps evicting normally.
    pub fn absorb(&mut self, other: &FlightRecorder) {
        self.ring
            .absorb(&other.ring, |e, seq| Event { seq, ..e.clone() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut r = FlightRecorder::new(3);
        for i in 0..5u64 {
            r.record(
                EventKind::Placement,
                Labels::none(),
                &[("i", FieldValue::from(i))],
                i,
            );
        }
        let seqs: Vec<u64> = r.ring.records().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(r.ring.dropped(), 2);
    }
}
