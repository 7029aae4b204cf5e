//! The artifact reader and trace validator behind `udc-trace`: reads
//! the spans, decisions and alerts of an exported telemetry snapshot
//! back from its JSON, and checks that the spans form well-formed
//! causal traces.
//!
//! [`validate`] fails on: orphan spans (parent id absent from the
//! artifact), spans whose parent lives in a different trace, unclosed
//! spans, broken critical paths (a child interval escaping its parent's
//! interval), and disconnected traces (a trace must form one connected
//! DAG: exactly one root span, every member reachable from it). The
//! connectivity check is what keeps trace propagation honest: a request
//! whose spans lost their context shows up here as extra roots or
//! unreachable spans.

use std::collections::BTreeMap;

use serde_json::Value;

/// One span as read back from the artifact (fields as exported).
#[derive(Debug, Clone)]
pub struct SpanRow {
    pub id: u64,
    pub parent: Option<u64>,
    pub trace: Option<u64>,
    pub name: String,
    pub start_us: u64,
    pub end_us: Option<u64>,
}

impl SpanRow {
    /// End minus start (0 for an unclosed span).
    pub fn duration_us(&self) -> u64 {
        self.end_us.unwrap_or(self.start_us) - self.start_us
    }
}

/// One decision record as read back from the artifact (fields as
/// exported).
#[derive(Debug, Clone)]
pub struct DecisionRow {
    pub trace: Option<u64>,
    pub stage: String,
    pub module: String,
    pub candidate: String,
    pub accepted: bool,
    pub reason: String,
    pub score: Option<i64>,
    pub detail: String,
}

fn get_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(|x| x.as_u64())
        .ok_or_else(|| format!("missing or non-integer `{key}`"))
}

fn get_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(|x| x.as_str())
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string `{key}`"))
}

/// `key` must be present and either null or a u64.
fn get_opt_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None => Err(format!("missing `{key}`")),
        Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("non-integer `{key}`")),
    }
}

/// Reads array `key` of `root`, one row per element; `what` names a row
/// in an error.
fn rows<T>(
    root: &Value,
    key: &str,
    what: &str,
    row: impl Fn(&Value) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let items = root
        .get(key)
        .and_then(|s| s.as_array())
        .ok_or_else(|| format!("artifact has no `{key}` array"))?;
    let parsed = items.iter().map(&row).enumerate();
    parsed
        .map(|(i, r)| r.map_err(|e| format!("{what} #{i}: {e}")))
        .collect()
}

/// Reads the `spans` array.
pub fn parse_spans(root: &Value) -> Result<Vec<SpanRow>, String> {
    rows(root, "spans", "span", |s| {
        Ok(SpanRow {
            id: get_u64(s, "id")?,
            parent: get_opt_u64(s, "parent")?,
            trace: get_opt_u64(s, "trace")?,
            name: get_str(s, "name")?,
            start_us: get_u64(s, "start_us")?,
            end_us: get_opt_u64(s, "end_us")?,
        })
    })
}

/// One alert record as read back from the artifact (fields as exported).
#[derive(Debug, Clone)]
pub struct AlertRow {
    pub at_us: u64,
    pub rule: String,
    pub reason: String,
}

/// Reads the `alerts` array and the `dropped_alerts` count.
pub fn parse_alerts(root: &Value) -> Result<(Vec<AlertRow>, u64), String> {
    let alerts = rows(root, "alerts", "alert", |a| {
        Ok(AlertRow {
            at_us: get_u64(a, "at_us")?,
            rule: get_str(a, "rule")?,
            reason: get_str(a, "reason")?,
        })
    })?;
    let dropped = root
        .get("dropped_alerts")
        .and_then(|x| x.as_u64())
        .unwrap_or(0);
    Ok((alerts, dropped))
}

/// Reads the `decisions` array.
pub fn parse_decisions(root: &Value) -> Result<Vec<DecisionRow>, String> {
    rows(root, "decisions", "decision", |d| {
        Ok(DecisionRow {
            trace: get_opt_u64(d, "trace")?,
            stage: get_str(d, "stage")?,
            module: get_str(d, "module")?,
            candidate: get_str(d, "candidate")?,
            accepted: d
                .get("accepted")
                .and_then(|x| x.as_bool())
                .ok_or("missing or non-bool `accepted`")?,
            reason: get_str(d, "reason")?,
            score: d.get("score").and_then(|x| x.as_i64()),
            detail: get_str(d, "detail")?,
        })
    })
}

/// What [`validate`] found.
#[derive(Default)]
pub struct Validation {
    /// Hard failures, one human-readable line each.
    pub violations: Vec<String>,
    /// Parent links the hub's bounded span store cut by evicting the
    /// parent (only ever non-zero when the artifact says
    /// `dropped_spans > 0`): reported, not failed.
    pub cut_by_eviction: usize,
}

/// Structural validation. `dropped_spans` is the artifact's count of
/// spans its hub evicted: when non-zero, a span whose parent lies below
/// the retained floor, and a trace left with several roots, are what
/// eviction looks like, not corruption.
pub fn validate(spans: &[SpanRow], dropped_spans: u64) -> Validation {
    let mut out = Validation::default();
    let violations = &mut out.violations;
    let by_id: BTreeMap<u64, &SpanRow> = spans.iter().map(|s| (s.id, s)).collect();
    if by_id.len() != spans.len() {
        violations.push("duplicate span ids".to_string());
    }
    let floor = by_id.keys().next().copied().unwrap_or(0);
    for s in spans {
        if s.end_us.is_none() {
            violations.push(format!("span {} `{}` never closed", s.id, s.name));
        }
        if let Some(end) = s.end_us {
            if end < s.start_us {
                violations.push(format!("span {} `{}` ends before it starts", s.id, s.name));
            }
        }
        let Some(pid) = s.parent else { continue };
        let Some(p) = by_id.get(&pid) else {
            if dropped_spans > 0 && pid < floor {
                out.cut_by_eviction += 1;
            } else {
                violations.push(format!(
                    "orphan span {} `{}`: parent {} not in artifact",
                    s.id, s.name, pid
                ));
            }
            continue;
        };
        if s.trace.is_some() && p.trace != s.trace {
            violations.push(format!(
                "span {} `{}` is in trace {:?} but its parent {} is in {:?}",
                s.id, s.name, s.trace, pid, p.trace
            ));
        }
        // Single simulated clock: a child must run inside its parent.
        if s.start_us < p.start_us || matches!((s.end_us, p.end_us), (Some(c), Some(pe)) if c > pe)
        {
            violations.push(format!(
                "broken critical path: span {} `{}` [{}, {:?}] escapes parent {} [{}, {:?}]",
                s.id, s.name, s.start_us, s.end_us, pid, p.start_us, p.end_us
            ));
        }
    }
    let dags = validate_trace_dags(spans, dropped_spans > 0);
    out.violations.extend(dags.violations);
    out.cut_by_eviction += dags.cut_by_eviction;
    out
}

/// Per-trace connectivity: every trace must be ONE connected DAG — a
/// single root span (no parent, or a parent outside the trace) with
/// every member span reachable from it by parent links. A trace whose
/// spans were split from their context fails this with extra roots; a
/// parent cycle fails it with unreachable spans. In a `truncated` artifact extra roots are counted
/// as cut by eviction and reachability is checked from all of them.
pub fn validate_trace_dags(spans: &[SpanRow], truncated: bool) -> Validation {
    let mut out = Validation::default();
    let mut traces: BTreeMap<u64, Vec<&SpanRow>> = BTreeMap::new();
    for s in spans {
        if let Some(t) = s.trace {
            traces.entry(t).or_default().push(s);
        }
    }
    for (tid, members) in &traces {
        let ids: std::collections::BTreeSet<u64> = members.iter().map(|s| s.id).collect();
        let roots: Vec<&&SpanRow> = members
            .iter()
            .filter(|s| s.parent.map(|p| !ids.contains(&p)).unwrap_or(true))
            .collect();
        if truncated && roots.len() > 1 {
            // Each root beyond the first lost its parent to eviction;
            // those naming a below-floor parent were already counted as
            // orphans.
            let parentless = roots.iter().filter(|s| s.parent.is_none()).count();
            out.cut_by_eviction += parentless.saturating_sub(1);
        } else if roots.len() != 1 {
            let names: Vec<&str> = roots.iter().map(|s| s.name.as_str()).collect();
            out.violations.push(format!(
                "trace {tid} has {} roots ({}) — its spans do not form one DAG",
                roots.len(),
                if names.is_empty() {
                    "none".to_string()
                } else {
                    names.join(", ")
                }
            ));
            continue;
        }
        // Breadth-first walk from the root over parent links reversed.
        let mut children: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for s in members {
            if let Some(p) = s.parent.filter(|p| ids.contains(p)) {
                children.entry(p).or_default().push(s.id);
            }
        }
        let mut reachable = std::collections::BTreeSet::new();
        let mut frontier: Vec<u64> = roots.iter().map(|s| s.id).collect();
        while let Some(id) = frontier.pop() {
            if reachable.insert(id) {
                if let Some(kids) = children.get(&id) {
                    frontier.extend(kids);
                }
            }
        }
        for s in members {
            if !reachable.contains(&s.id) {
                out.violations.push(format!(
                    "trace {tid}: span {} `{}` is not reachable from root `{}` — disconnected DAG",
                    s.id, s.name, roots[0].name
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: u64, parent: Option<u64>, trace: u64, name: &str) -> SpanRow {
        SpanRow {
            id,
            parent,
            trace: Some(trace),
            name: name.to_string(),
            start_us: 0,
            end_us: Some(1),
        }
    }

    /// The positive case the check exists for: trials run in order on
    /// one hub, each minting its own complete trace, exported to JSON
    /// and read back through the real parse path — every trace must
    /// come out as one connected DAG with zero violations of any kind.
    #[test]
    fn sequential_trials_on_one_hub_validate_clean() {
        use udc_telemetry::Telemetry;
        let hub = Telemetry::enabled();
        {
            let root = hub.trace_root("cloud.submit");
            let ctx = root.ctx().expect("trace context");
            let child = hub.span_in(&ctx, "sched.place");
            child.exit();
            root.exit();
        }
        for trial in 0..2u64 {
            // Each trial on its own clock, starting over near zero.
            hub.set_clock(move || trial);
            let root = hub.trace_root("actor.round");
            let ctx = root.ctx().expect("trace context");
            let d = hub.span_in(&ctx, &format!("actor.deliver.s{trial}"));
            d.exit();
            root.exit();
        }
        let text = hub.snapshot().to_json();
        let v = serde_json::parse_value(&text).expect("export parses");
        let spans = parse_spans(&v).expect("span schema");
        assert_eq!(spans.len(), 6);
        let traces: std::collections::BTreeSet<_> = spans.iter().filter_map(|s| s.trace).collect();
        assert_eq!(traces.len(), 3, "every trial's trace stays distinct");
        assert_eq!(validate(&spans, 0).violations, Vec::<String>::new());
    }

    #[test]
    fn orphan_parent_is_a_violation() {
        let spans = vec![row(0, None, 7, "cloud.submit"), row(1, Some(99), 7, "lost")];
        let v = validate(&spans, 0).violations;
        assert!(
            v.iter().any(|m| m.contains("orphan span 1")),
            "violations: {v:?}"
        );
    }

    /// A hub whose span store wrapped: the artifact starts mid-trace.
    /// Links cut by eviction are counted, everything else still holds.
    #[test]
    fn parents_below_the_retained_floor_are_reported_not_failed() {
        let spans = vec![
            // Trace 7's root (id 3) was evicted; 4 and 5 hung off it.
            row(4, Some(3), 7, "sched.place"),
            row(5, Some(3), 7, "isolate.launch"),
            row(6, None, 8, "cloud.heal"),
            row(7, Some(6), 8, "heal.detect"),
        ];
        let v = validate(&spans, 4);
        assert_eq!(v.violations, Vec::<String>::new());
        assert_eq!(v.cut_by_eviction, 2);
        // The same rows from a hub that claims to have dropped nothing
        // are orphans, and a parent id the store never evicted (above
        // the floor) is an orphan whatever was dropped.
        assert_eq!(validate(&spans, 0).violations.len(), 3);
        let mut spans = spans;
        spans.push(row(8, Some(99), 8, "lost"));
        let v = validate(&spans, 4);
        assert!(
            v.violations.iter().any(|m| m.contains("orphan span 8")),
            "violations: {:?}",
            v.violations
        );
    }

    #[test]
    fn two_roots_in_one_trace_is_a_violation() {
        // Two halves that both claim trace 3.
        let spans = vec![
            row(0, None, 3, "actor.round"),
            row(1, Some(0), 3, "actor.deliver"),
            row(2, None, 3, "actor.round"),
            row(3, Some(2), 3, "actor.deliver"),
        ];
        let v = validate_trace_dags(&spans, false).violations;
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("trace 3 has 2 roots"), "violation: {}", v[0]);
    }

    #[test]
    fn parent_cycle_is_unreachable_from_root() {
        let spans = vec![
            row(0, None, 5, "cloud.submit"),
            row(1, Some(2), 5, "a"),
            row(2, Some(1), 5, "b"),
        ];
        let v = validate_trace_dags(&spans, false).violations;
        assert_eq!(v.len(), 2, "both cycle members unreachable: {v:?}");
        assert!(v.iter().all(|m| m.contains("not reachable from root")));
    }

    #[test]
    fn single_connected_trace_passes_dag_check() {
        let spans = vec![
            row(0, None, 1, "cloud.submit"),
            row(1, Some(0), 1, "sched.place"),
            row(2, Some(1), 1, "hal.pool.allocate"),
            row(3, Some(0), 1, "isolate.launch"),
        ];
        assert_eq!(
            validate_trace_dags(&spans, false).violations,
            Vec::<String>::new()
        );
    }
}
