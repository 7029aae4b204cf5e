//! Retro feed: the same observation stream, reconstructed from a
//! recorded `results/` artifact.
//!
//! A full snapshot artifact carries events and decisions with their
//! true simulated timestamps, so those replay exactly. Counter, gauge,
//! and histogram series are exported as *end-state only* — their time
//! series cannot be reconstructed — so metric-sourced queries see no
//! observations in replay (the `udc-query` bin warns when a loaded
//! rule needs one). The batch is stable-sorted by timestamp with the
//! same tie order as the live feed (events before decisions), so a
//! rule validated over an artifact behaves identically when attached
//! live.

use serde_json::Value;
use udc_telemetry::Labels;

use crate::engine::Obs;
use crate::Micros;

fn labels_of(o: &Value) -> Labels {
    Labels {
        tenant: o.get("tenant").and_then(|v| v.as_str()).map(String::from),
        module: o.get("module").and_then(|v| v.as_str()).map(String::from),
    }
}

fn str_field(o: &Value, key: &str) -> Result<String, String> {
    o.get(key)
        .and_then(|v| v.as_str())
        .map(String::from)
        .ok_or_else(|| format!("record missing string field '{}'", key))
}

fn u64_field(o: &Value, key: &str) -> Result<u64, String> {
    o.get(key)
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("record missing u64 field '{}'", key))
}

/// Reconstructs the observation stream from a full snapshot artifact's
/// JSON text (events + decisions, timestamp-ordered).
pub fn obs_from_json(text: &str) -> Result<Vec<Obs>, String> {
    let v = serde_json::parse_value(text).map_err(|e| format!("artifact parse: {e}"))?;
    if let Some(schema) = v.get("schema").and_then(|s| s.as_str()) {
        return Err(format!(
            "artifact is a compact export ('{}'); replay needs a full snapshot \
             (re-run the experiment with --full-artifact)",
            schema
        ));
    }
    let events = v
        .get("events")
        .and_then(|e| e.as_array())
        .ok_or("artifact has no 'events' array — not a telemetry snapshot")?;
    let decisions = v
        .get("decisions")
        .and_then(|d| d.as_array())
        .ok_or("artifact has no 'decisions' array — not a telemetry snapshot")?;

    let mut out = Vec::with_capacity(events.len() + decisions.len());
    for e in events {
        out.push(Obs::Event {
            at_us: u64_field(e, "at_us")?,
            kind: str_field(e, "kind")?,
            labels: labels_of(e),
        });
    }
    for d in decisions {
        out.push(Obs::Decision {
            at_us: u64_field(d, "at_us")?,
            stage: str_field(d, "stage")?,
            module: str_field(d, "module")?,
            reason: str_field(d, "reason")?,
            accepted: d
                .get("accepted")
                .and_then(|a| a.as_bool())
                .ok_or("decision missing 'accepted'")?,
        });
    }
    out.sort_by_key(Obs::at_us);
    Ok(out)
}

/// The default replay horizon: the next full simulated second strictly
/// after the last observation (so trailing windows close and absence
/// rules get room to fire), or one second for an empty stream.
pub fn default_horizon(obs: &[Obs]) -> Micros {
    let max_at = obs.iter().map(Obs::at_us).max().unwrap_or(0);
    (max_at / 1_000_000 + 1) * 1_000_000
}

#[cfg(test)]
mod tests {
    use super::*;
    use udc_telemetry::{Decision, EventKind, FieldValue, ReasonCode, Telemetry};

    #[test]
    fn round_trips_a_live_snapshot() {
        let hub = Telemetry::enabled();
        hub.set_clock(|| 123);
        hub.event(
            EventKind::Failure,
            Labels::module("acme", "m0"),
            &[("attempt", FieldValue::from(2u64))],
        );
        hub.decide(Decision {
            ctx: None,
            stage: "heal.detect",
            module: "m0",
            candidate: "m0",
            accepted: false,
            reason: ReasonCode::Evicted,
            score: None,
            detail: String::new(),
        });
        let obs = obs_from_json(&hub.snapshot().to_json()).unwrap();
        assert_eq!(obs.len(), 2);
        assert!(matches!(&obs[0], Obs::Event { at_us: 123, kind, labels }
                if kind == "failure" && labels.module.as_deref() == Some("m0")));
        assert!(
            matches!(&obs[1], Obs::Decision { at_us: 123, stage, reason, accepted: false, .. }
                if stage == "heal.detect" && reason == "evicted")
        );
        assert_eq!(default_horizon(&obs), 1_000_000);
    }

    #[test]
    fn rejects_compact_and_malformed_artifacts() {
        assert!(obs_from_json("{\"schema\": \"udc.chaos.compact.v1\"}")
            .unwrap_err()
            .contains("full snapshot"));
        assert!(obs_from_json("{\"counters\": []}").is_err());
        assert!(obs_from_json("not json").is_err());
    }

    #[test]
    fn stream_is_time_sorted_across_record_kinds() {
        // Two absorbed trial hubs: timestamps restart per trial, so the
        // merged arrays are seq-ordered but not time-ordered — replay
        // re-sorts into one timeline.
        let hub = Telemetry::enabled();
        for start in [500u64, 100] {
            let trial = Telemetry::enabled();
            trial.set_clock(move || start);
            trial.event(EventKind::Failure, Labels::none(), &[]);
            hub.absorb(&trial);
        }
        let obs = obs_from_json(&hub.snapshot().to_json()).unwrap();
        assert_eq!(
            obs.iter().map(Obs::at_us).collect::<Vec<_>>(),
            vec![100, 500]
        );
    }
}
