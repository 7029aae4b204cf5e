//! Snapshots and JSON export of everything the hub recorded.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde_json::{Number, Value};

use crate::alert::AlertRecord;
use crate::decision::DecisionRecord;
use crate::metrics::HistogramSummary;
use crate::recorder::{Event, FieldValue};
use crate::span::SpanRecord;
use crate::{Labels, State};

/// A consistent copy of the hub's contents at one instant.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// `(name, labels, value)` per counter series.
    pub counters: Vec<(String, Labels, u64)>,
    /// `(name, labels, current, high_water)` per gauge series.
    pub gauges: Vec<(String, Labels, i64, i64)>,
    /// `(name, labels, summary)` per histogram series.
    pub histograms: Vec<(String, Labels, HistogramSummary)>,
    /// Retained spans in creation order.
    pub spans: Vec<SpanRecord>,
    /// Closed spans evicted from the store before this snapshot.
    pub dropped_spans: u64,
    /// Flight-recorder contents, oldest first. Ring records are shared
    /// with the hub, not copied.
    pub events: Vec<Arc<Event>>,
    /// Events evicted from the ring before this snapshot.
    pub dropped_events: u64,
    /// Decision records, oldest first.
    pub decisions: Vec<Arc<DecisionRecord>>,
    /// Decisions evicted from the ring before this snapshot.
    pub dropped_decisions: u64,
    /// Fired alerts, oldest first.
    pub alerts: Vec<Arc<AlertRecord>>,
    /// Alerts evicted from the ring before this snapshot.
    pub dropped_alerts: u64,
}

impl Snapshot {
    pub(crate) fn capture(state: &State) -> Self {
        Self {
            counters: state
                .metrics
                .counters_since(0)
                .map(|((n, l), v)| (n.clone(), l.clone(), v))
                .collect(),
            gauges: state
                .metrics
                .gauges()
                .map(|((n, l), g)| (n.clone(), l.clone(), g.value, g.high_water))
                .collect(),
            histograms: state
                .metrics
                .histograms_since(0)
                .map(|((n, l), h)| (n.clone(), l.clone(), h.summary()))
                .collect(),
            spans: state.spans.records().cloned().collect(),
            dropped_spans: state.spans.dropped(),
            events: state.recorder.ring.records().cloned().collect(),
            dropped_events: state.recorder.ring.dropped(),
            decisions: state.decisions.ring.records().cloned().collect(),
            dropped_decisions: state.decisions.ring.dropped(),
            alerts: state.alerts.ring.records().cloned().collect(),
            dropped_alerts: state.alerts.ring.dropped(),
        }
    }

    /// Renders the snapshot as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let counters = self.counters.iter().map(|(n, l, v)| {
            let mut o = series_header(n, l);
            o.push(field("value", uint(*v)));
            Value::Object(o)
        });
        let gauges = self.gauges.iter().map(|(n, l, v, hw)| {
            let mut o = series_header(n, l);
            o.push(field("value", int(*v)));
            o.push(field("high_water", int(*hw)));
            Value::Object(o)
        });
        let histograms = self.histograms.iter().map(|(n, l, s)| {
            let mut o = series_header(n, l);
            o.push(field("count", uint(s.count)));
            o.push(field("min", uint(s.min)));
            o.push(field("max", uint(s.max)));
            o.push(field("mean", float(s.mean)));
            o.push(field("p50", uint(s.p50)));
            o.push(field("p95", uint(s.p95)));
            o.push(field("p99", uint(s.p99)));
            Value::Object(o)
        });
        let spans = self.spans.iter().map(|s| {
            Value::Object(vec![
                field("id", uint(s.id as u64)),
                field("parent", opt(s.parent.map(u64::from))),
                field("trace", opt(s.trace)),
                field("name", text(&s.name)),
                field("start_us", uint(s.start_us)),
                field("end_us", opt(s.end_us)),
            ])
        });
        let events = self.events.iter().map(|e| {
            let mut o = vec![
                field("seq", uint(e.seq)),
                field("at_us", uint(e.at_us)),
                field("kind", text(e.kind.as_str())),
            ];
            o.extend(labels_fields(&e.labels));
            o.extend(e.fields.iter().map(|(k, v)| (k.clone(), field_value(v))));
            Value::Object(o)
        });
        let decisions = self.decisions.iter().map(|d| {
            Value::Object(vec![
                field("seq", uint(d.seq)),
                field("trace", opt(d.trace)),
                field("at_us", uint(d.at_us)),
                field("stage", text(&d.stage)),
                field("module", text(&d.module)),
                field("candidate", text(&d.candidate)),
                field("accepted", Value::Bool(d.accepted)),
                field("reason", text(d.reason.as_str())),
                field("score", d.score.map_or(Value::Null, int)),
                field("detail", text(&d.detail)),
            ])
        });
        let alerts = self.alerts.iter().map(|a| {
            let mut o = vec![
                field("seq", uint(a.seq)),
                field("at_us", uint(a.at_us)),
                field("rule", text(&a.rule)),
                field("reason", text(a.reason.as_str())),
            ];
            o.extend(labels_fields(&a.labels));
            o.push(field("window_start_us", uint(a.window_start_us)));
            o.push(field("window_end_us", uint(a.window_end_us)));
            o.push(field("value", float(a.value)));
            o.push(field("detail", text(&a.detail)));
            Value::Object(o)
        });
        let root = Value::Object(vec![
            field("counters", Value::Array(counters.collect())),
            field("gauges", Value::Array(gauges.collect())),
            field("histograms", Value::Array(histograms.collect())),
            field("spans", Value::Array(spans.collect())),
            field("dropped_spans", uint(self.dropped_spans)),
            field("events", Value::Array(events.collect())),
            field("dropped_events", uint(self.dropped_events)),
            field("decisions", Value::Array(decisions.collect())),
            field("dropped_decisions", uint(self.dropped_decisions)),
            field("alerts", Value::Array(alerts.collect())),
            field("dropped_alerts", uint(self.dropped_alerts)),
        ]);
        serde_json::to_string_pretty(&root)
    }

    /// Writes the JSON snapshot to `path`, creating parent directories.
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<PathBuf> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())?;
        Ok(path.to_path_buf())
    }
}

fn field(key: &str, value: Value) -> (String, Value) {
    (key.to_string(), value)
}

fn uint(v: u64) -> Value {
    Value::Number(Number::U(v))
}

fn int(v: i64) -> Value {
    Value::Number(Number::I(v))
}

fn float(v: f64) -> Value {
    Value::Number(Number::F(v))
}

fn text(v: &str) -> Value {
    Value::String(v.to_string())
}

fn opt(v: Option<u64>) -> Value {
    v.map_or(Value::Null, uint)
}

fn series_header(name: &str, labels: &Labels) -> Vec<(String, Value)> {
    let mut o = vec![field("name", text(name))];
    o.extend(labels_fields(labels));
    o
}

fn labels_fields(labels: &Labels) -> Vec<(String, Value)> {
    let mut o = Vec::new();
    if let Some(t) = &labels.tenant {
        o.push(field("tenant", text(t)));
    }
    if let Some(m) = &labels.module {
        o.push(field("module", text(m)));
    }
    o
}

fn field_value(v: &FieldValue) -> Value {
    match v {
        FieldValue::U64(u) => uint(*u),
        FieldValue::I64(i) => int(*i),
        FieldValue::F64(f) => float(*f),
        FieldValue::Str(s) => text(s),
        FieldValue::Bool(b) => Value::Bool(*b),
    }
}

#[cfg(test)]
mod tests {
    use crate::{
        AlertFire, AlertReason, Decision, EventKind, FieldValue, Labels, ReasonCode, Telemetry,
    };

    #[test]
    fn export_is_valid_json_with_all_sections() {
        let tel = Telemetry::enabled();
        tel.incr("runs", Labels::tenant("acme"), 2);
        tel.gauge_set("depth", Labels::none(), 7);
        tel.observe("lat_us", Labels::module("acme", "stage0"), 1234);
        let s = tel.span("outer");
        tel.span("inner").exit();
        s.exit();
        tel.event(
            EventKind::ColdStart,
            Labels::module("acme", "stage0"),
            &[
                ("latency_us", FieldValue::from(250u64)),
                ("pool", FieldValue::from("gpu")),
            ],
        );

        let text = tel.snapshot().to_json();
        let v = serde_json::parse_value(&text).expect("export parses");
        assert_eq!(
            v.get("counters").and_then(|c| c.as_array()).map(Vec::len),
            Some(1)
        );
        assert_eq!(
            v.get("spans").and_then(|s| s.as_array()).map(Vec::len),
            Some(2)
        );
        let ev = &v.get("events").unwrap().as_array().unwrap()[0];
        assert_eq!(ev.get("kind").and_then(|k| k.as_str()), Some("cold_start"));
        assert_eq!(ev.get("latency_us").and_then(|x| x.as_u64()), Some(250));
        assert_eq!(ev.get("module").and_then(|m| m.as_str()), Some("stage0"));
    }

    #[test]
    fn export_carries_traces_and_decisions() {
        let tel = Telemetry::enabled();
        let root = tel.trace_root("cloud.submit");
        let ctx = root.ctx().unwrap();
        tel.span_in(&ctx, "sched.place").exit();
        tel.decide(Decision {
            ctx: Some(ctx),
            stage: "sched.place_task",
            module: "stage0",
            candidate: "cpu-03",
            accepted: false,
            reason: ReasonCode::Capacity,
            score: Some(-4),
            detail: "free=2 needed=6".to_string(),
        });
        root.exit();

        let text = tel.snapshot().to_json();
        let v = serde_json::parse_value(&text).expect("export parses");
        let spans = v.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans[0].get("trace").and_then(|t| t.as_u64()), Some(0));
        assert_eq!(spans[1].get("trace").and_then(|t| t.as_u64()), Some(0));
        let ds = v.get("decisions").unwrap().as_array().unwrap();
        assert_eq!(ds.len(), 1);
        let d = &ds[0];
        assert_eq!(d.get("candidate").and_then(|c| c.as_str()), Some("cpu-03"));
        assert_eq!(d.get("reason").and_then(|r| r.as_str()), Some("capacity"));
        assert_eq!(d.get("trace").and_then(|t| t.as_u64()), Some(0));
        assert_eq!(
            d.get("detail").and_then(|x| x.as_str()),
            Some("free=2 needed=6")
        );
    }

    /// The exact bytes of the export: every section, a negative gauge,
    /// non-finite floats and a string that needs escaping. Committed
    /// artifacts are diffed by CI; this pins the format in tier-1 too.
    #[test]
    fn export_bytes_are_pinned() {
        let tel = Telemetry::enabled();
        tel.set_clock(|| 42);
        tel.incr("runs", Labels::tenant("acme"), 2);
        tel.gauge_set("depth", Labels::none(), -3);
        tel.observe("lat_us", Labels::module("acme", "s0"), 1234);
        let root = tel.trace_root("cloud.submit");
        let ctx = root.ctx().unwrap();
        tel.span_in(&ctx, "sched.place").exit();
        tel.event(
            EventKind::ColdStart,
            Labels::module("acme", "s0"),
            &[
                ("ratio", FieldValue::F64(f64::NAN)),
                ("delta", FieldValue::I64(-5)),
                ("warm", FieldValue::Bool(false)),
                ("note", FieldValue::from("say \"hi\"\n\tback\\slash \u{1}")),
            ],
        );
        tel.decide(Decision {
            ctx: Some(ctx),
            stage: "sched.place_task",
            module: "s0",
            candidate: "cpu-03",
            accepted: false,
            reason: ReasonCode::Capacity,
            score: Some(-4),
            detail: "free=2 needed=6".to_string(),
        });
        root.exit();
        tel.alert(AlertFire {
            at_us: 7,
            rule: "r".to_string(),
            reason: AlertReason::Threshold,
            labels: Labels::tenant("acme"),
            window_start_us: 0,
            window_end_us: 7,
            value: f64::INFINITY,
            detail: "fired".to_string(),
        });
        assert_eq!(tel.snapshot().to_json(), PINNED);
    }

    const PINNED: &str = r##"{
  "counters": [
    {
      "name": "runs",
      "tenant": "acme",
      "value": 2
    }
  ],
  "gauges": [
    {
      "name": "depth",
      "value": -3,
      "high_water": -3
    }
  ],
  "histograms": [
    {
      "name": "lat_us",
      "tenant": "acme",
      "module": "s0",
      "count": 1,
      "min": 1234,
      "max": 1234,
      "mean": 1234,
      "p50": 1234,
      "p95": 1234,
      "p99": 1234
    }
  ],
  "spans": [
    {
      "id": 0,
      "parent": null,
      "trace": 0,
      "name": "cloud.submit",
      "start_us": 42,
      "end_us": 42
    },
    {
      "id": 1,
      "parent": 0,
      "trace": 0,
      "name": "sched.place",
      "start_us": 42,
      "end_us": 42
    }
  ],
  "dropped_spans": 0,
  "events": [
    {
      "seq": 0,
      "at_us": 42,
      "kind": "cold_start",
      "tenant": "acme",
      "module": "s0",
      "ratio": null,
      "delta": -5,
      "warm": false,
      "note": "say \"hi\"\n\tback\\slash \u0001"
    }
  ],
  "dropped_events": 0,
  "decisions": [
    {
      "seq": 0,
      "trace": 0,
      "at_us": 42,
      "stage": "sched.place_task",
      "module": "s0",
      "candidate": "cpu-03",
      "accepted": false,
      "reason": "capacity",
      "score": -4,
      "detail": "free=2 needed=6"
    }
  ],
  "dropped_decisions": 0,
  "alerts": [
    {
      "seq": 0,
      "at_us": 7,
      "rule": "r",
      "reason": "threshold",
      "tenant": "acme",
      "window_start_us": 0,
      "window_end_us": 7,
      "value": null,
      "detail": "fired"
    }
  ],
  "dropped_alerts": 0
}"##;
}
