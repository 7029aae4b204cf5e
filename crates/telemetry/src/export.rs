//! Snapshots and JSON export of everything the hub recorded.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::alert::AlertRecord;
use crate::decision::DecisionRecord;
use crate::json::J;
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
        let mut root = Vec::new();
        root.push((
            "counters".to_string(),
            J::Arr(
                self.counters
                    .iter()
                    .map(|(n, l, v)| {
                        let mut o = series_header(n, l);
                        o.push(("value".to_string(), J::U(*v)));
                        J::Obj(o)
                    })
                    .collect(),
            ),
        ));
        root.push((
            "gauges".to_string(),
            J::Arr(
                self.gauges
                    .iter()
                    .map(|(n, l, v, hw)| {
                        let mut o = series_header(n, l);
                        o.push(("value".to_string(), J::I(*v)));
                        o.push(("high_water".to_string(), J::I(*hw)));
                        J::Obj(o)
                    })
                    .collect(),
            ),
        ));
        root.push((
            "histograms".to_string(),
            J::Arr(
                self.histograms
                    .iter()
                    .map(|(n, l, s)| {
                        let mut o = series_header(n, l);
                        o.push(("count".to_string(), J::U(s.count)));
                        o.push(("min".to_string(), J::U(s.min)));
                        o.push(("max".to_string(), J::U(s.max)));
                        o.push(("mean".to_string(), J::F(s.mean)));
                        o.push(("p50".to_string(), J::U(s.p50)));
                        o.push(("p95".to_string(), J::U(s.p95)));
                        o.push(("p99".to_string(), J::U(s.p99)));
                        J::Obj(o)
                    })
                    .collect(),
            ),
        ));
        root.push((
            "spans".to_string(),
            J::Arr(
                self.spans
                    .iter()
                    .map(|s| {
                        J::Obj(vec![
                            ("id".to_string(), J::U(s.id as u64)),
                            (
                                "parent".to_string(),
                                s.parent.map(|p| J::U(p as u64)).unwrap_or(J::Null),
                            ),
                            ("trace".to_string(), s.trace.map(J::U).unwrap_or(J::Null)),
                            ("name".to_string(), J::S(s.name.clone())),
                            ("start_us".to_string(), J::U(s.start_us)),
                            ("end_us".to_string(), s.end_us.map(J::U).unwrap_or(J::Null)),
                        ])
                    })
                    .collect(),
            ),
        ));
        root.push(("dropped_spans".to_string(), J::U(self.dropped_spans)));
        root.push((
            "events".to_string(),
            J::Arr(
                self.events
                    .iter()
                    .map(|e| {
                        let mut o = vec![
                            ("seq".to_string(), J::U(e.seq)),
                            ("at_us".to_string(), J::U(e.at_us)),
                            ("kind".to_string(), J::S(e.kind.as_str().to_string())),
                        ];
                        o.extend(labels_fields(&e.labels));
                        for (k, v) in &e.fields {
                            o.push((k.clone(), field_to_json(v)));
                        }
                        J::Obj(o)
                    })
                    .collect(),
            ),
        ));
        root.push(("dropped_events".to_string(), J::U(self.dropped_events)));
        root.push((
            "decisions".to_string(),
            J::Arr(
                self.decisions
                    .iter()
                    .map(|d| {
                        J::Obj(vec![
                            ("seq".to_string(), J::U(d.seq)),
                            ("trace".to_string(), d.trace.map(J::U).unwrap_or(J::Null)),
                            ("at_us".to_string(), J::U(d.at_us)),
                            ("stage".to_string(), J::S(d.stage.clone())),
                            ("module".to_string(), J::S(d.module.clone())),
                            ("candidate".to_string(), J::S(d.candidate.clone())),
                            ("accepted".to_string(), J::Bool(d.accepted)),
                            ("reason".to_string(), J::S(d.reason.as_str().to_string())),
                            ("score".to_string(), d.score.map(J::I).unwrap_or(J::Null)),
                            ("detail".to_string(), J::S(d.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ));
        root.push((
            "dropped_decisions".to_string(),
            J::U(self.dropped_decisions),
        ));
        root.push((
            "alerts".to_string(),
            J::Arr(
                self.alerts
                    .iter()
                    .map(|a| {
                        let mut o = vec![
                            ("seq".to_string(), J::U(a.seq)),
                            ("at_us".to_string(), J::U(a.at_us)),
                            ("rule".to_string(), J::S(a.rule.clone())),
                            ("reason".to_string(), J::S(a.reason.as_str().to_string())),
                        ];
                        o.extend(labels_fields(&a.labels));
                        o.push(("window_start_us".to_string(), J::U(a.window_start_us)));
                        o.push(("window_end_us".to_string(), J::U(a.window_end_us)));
                        o.push(("value".to_string(), J::F(a.value)));
                        o.push(("detail".to_string(), J::S(a.detail.clone())));
                        J::Obj(o)
                    })
                    .collect(),
            ),
        ));
        root.push(("dropped_alerts".to_string(), J::U(self.dropped_alerts)));
        J::Obj(root).render()
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

fn series_header(name: &str, labels: &Labels) -> Vec<(String, J)> {
    let mut o = vec![("name".to_string(), J::S(name.to_string()))];
    o.extend(labels_fields(labels));
    o
}

fn labels_fields(labels: &Labels) -> Vec<(String, J)> {
    let mut o = Vec::new();
    if let Some(t) = &labels.tenant {
        o.push(("tenant".to_string(), J::S(t.clone())));
    }
    if let Some(m) = &labels.module {
        o.push(("module".to_string(), J::S(m.clone())));
    }
    o
}

fn field_to_json(v: &FieldValue) -> J {
    match v {
        FieldValue::U64(u) => J::U(*u),
        FieldValue::I64(i) => J::I(*i),
        FieldValue::F64(f) => J::F(*f),
        FieldValue::Str(s) => J::S(s.clone()),
        FieldValue::Bool(b) => J::Bool(*b),
    }
}

#[cfg(test)]
mod tests {
    use crate::{Decision, EventKind, FieldValue, Labels, ReasonCode, Telemetry};

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
        let v: serde_json::Value = serde_json::from_str(&text).expect("export parses");
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
        let v: serde_json::Value = serde_json::from_str(&text).expect("export parses");
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
}
