//! `udc-trace` — reconstructs causal traces from an exported telemetry
//! artifact and explains placement decisions.
//!
//! ```text
//! udc-trace results/exp_01_medical.json                # trace summary
//! udc-trace results/exp_01_medical.json --explain s1   # decision audit
//! udc-trace results/exp_01_medical.json --alerts       # alert-fire audit
//! udc-trace results/exp_01_medical.json --chrome t.json # chrome://tracing
//! ```
//!
//! The tool validates the artifact as it reads it and exits non-zero on:
//! schema violations (missing/mistyped span fields), orphan spans
//! (parent id absent from the artifact), spans whose parent lives in a
//! different trace, unclosed spans, broken critical paths (a child
//! interval escaping its parent's interval), and disconnected traces
//! (a trace must form one connected DAG: exactly one root span, every
//! member reachable from it). The connectivity check is what keeps
//! multi-shard telemetry honest — `Telemetry::absorb` shifts absorbed
//! trace ids past the destination's, so a trace split across shard
//! hubs that was *not* reknit shows up here as extra roots or
//! unreachable spans. CI runs it over the exp_01 artifact so a
//! regression in trace propagation fails the build.
//!
//! Per-trace output: the span DAG grouped by phase (validate / place /
//! allocate / launch / actor / dist / heal), the critical path from the root to
//! the latest-ending leaf chain, and a per-phase self-time breakdown
//! (each span's duration minus its children's, so phases sum to the
//! root's wall time instead of double-counting nested spans).

use std::collections::BTreeMap;
use std::process::ExitCode;

use udc_bench::{fmt_us, Table};

/// One span as read back from the artifact.
#[derive(Debug, Clone)]
struct SpanRow {
    id: u64,
    parent: Option<u64>,
    trace: Option<u64>,
    name: String,
    start_us: u64,
    end_us: Option<u64>,
}

impl SpanRow {
    fn duration_us(&self) -> u64 {
        self.end_us.unwrap_or(self.start_us) - self.start_us
    }
}

/// One decision record as read back from the artifact.
#[derive(Debug, Clone)]
struct DecisionRow {
    trace: Option<u64>,
    stage: String,
    module: String,
    candidate: String,
    accepted: bool,
    reason: String,
    score: Option<i64>,
    detail: String,
}

/// The latency phases a control-plane span belongs to.
const PHASES: &[(&str, &str)] = &[
    ("validate", "spec."),
    ("place", "sched."),
    ("allocate", "hal."),
    ("launch", "isolate."),
    ("actor", "actor."),
    ("dist", "dist."),
    ("heal", "heal."),
];

fn phase_of(name: &str) -> &'static str {
    for (phase, prefix) in PHASES {
        if name.starts_with(prefix) {
            return phase;
        }
    }
    "other"
}

fn get_u64(v: &serde_json::Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(|x| x.as_u64())
        .ok_or_else(|| format!("missing or non-integer `{key}`"))
}

fn get_str(v: &serde_json::Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(|x| x.as_str())
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string `{key}`"))
}

/// `key` must be present and either null or a u64.
fn get_opt_u64(v: &serde_json::Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None => Err(format!("missing `{key}`")),
        Some(serde_json::Value::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("non-integer `{key}`")),
    }
}

fn parse_spans(root: &serde_json::Value) -> Result<Vec<SpanRow>, String> {
    let spans = root
        .get("spans")
        .and_then(|s| s.as_array())
        .ok_or("artifact has no `spans` array")?;
    let mut out = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        let row = (|| -> Result<SpanRow, String> {
            Ok(SpanRow {
                id: get_u64(s, "id")?,
                parent: get_opt_u64(s, "parent")?,
                trace: get_opt_u64(s, "trace")?,
                name: get_str(s, "name")?,
                start_us: get_u64(s, "start_us")?,
                end_us: get_opt_u64(s, "end_us")?,
            })
        })()
        .map_err(|e| format!("span #{i}: {e}"))?;
        out.push(row);
    }
    Ok(out)
}

/// One alert record as read back from the artifact.
#[derive(Debug, Clone)]
struct AlertRow {
    at_us: u64,
    rule: String,
    reason: String,
}

fn parse_alerts(root: &serde_json::Value) -> Result<(Vec<AlertRow>, u64), String> {
    let alerts = root
        .get("alerts")
        .and_then(|s| s.as_array())
        .ok_or("artifact has no `alerts` array (re-export with a current build)")?;
    let mut out = Vec::with_capacity(alerts.len());
    for (i, a) in alerts.iter().enumerate() {
        let row = (|| -> Result<AlertRow, String> {
            Ok(AlertRow {
                at_us: get_u64(a, "at_us")?,
                rule: get_str(a, "rule")?,
                reason: get_str(a, "reason")?,
            })
        })()
        .map_err(|e| format!("alert #{i}: {e}"))?;
        out.push(row);
    }
    let dropped = root
        .get("dropped_alerts")
        .and_then(|x| x.as_u64())
        .unwrap_or(0);
    Ok((out, dropped))
}

/// The `--alerts` section: per-rule fire counts with first/last fire
/// times — the audit view of what the continuous-query rules saw over
/// this run.
fn print_alert_summary(alerts: &[AlertRow], dropped: u64) {
    println!();
    println!(
        "alert audit: {} fire(s), {} dropped (ring overflow)",
        alerts.len(),
        dropped
    );
    if alerts.is_empty() {
        return;
    }
    let mut per_rule: BTreeMap<(&str, &str), (u64, u64, u64)> = BTreeMap::new();
    for a in alerts {
        let e = per_rule
            .entry((a.rule.as_str(), a.reason.as_str()))
            .or_insert((0, u64::MAX, 0));
        e.0 += 1;
        e.1 = e.1.min(a.at_us);
        e.2 = e.2.max(a.at_us);
    }
    let mut t = Table::new(&["rule", "reason", "fires", "first", "last"]);
    for ((rule, reason), (count, first, last)) in &per_rule {
        t.row(&[
            rule.to_string(),
            reason.to_string(),
            count.to_string(),
            fmt_us(*first),
            fmt_us(*last),
        ]);
    }
    t.print();
}

fn parse_decisions(root: &serde_json::Value) -> Result<Vec<DecisionRow>, String> {
    let ds = root
        .get("decisions")
        .and_then(|s| s.as_array())
        .ok_or("artifact has no `decisions` array")?;
    let mut out = Vec::with_capacity(ds.len());
    for (i, d) in ds.iter().enumerate() {
        let row = (|| -> Result<DecisionRow, String> {
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
        })()
        .map_err(|e| format!("decision #{i}: {e}"))?;
        out.push(row);
    }
    Ok(out)
}

/// What [`validate`] found.
#[derive(Default)]
struct Validation {
    /// Hard failures, one human-readable line each.
    violations: Vec<String>,
    /// Parent links the hub's bounded span store cut by evicting the
    /// parent (only ever non-zero when the artifact says
    /// `dropped_spans > 0`): reported, not failed.
    cut_by_eviction: usize,
}

/// Structural validation. `dropped_spans` is the artifact's count of
/// spans its hub evicted: when non-zero, a span whose parent lies below
/// the retained floor, and a trace left with several roots, are what
/// eviction looks like, not corruption.
fn validate(spans: &[SpanRow], dropped_spans: u64) -> Validation {
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
/// every member span reachable from it by parent links. A merged
/// artifact that absorbed shard hubs without reknitting their spans
/// fails this with extra roots; a parent cycle fails it with
/// unreachable spans. In a `truncated` artifact extra roots are counted
/// as cut by eviction and reachability is checked from all of them.
fn validate_trace_dags(spans: &[SpanRow], truncated: bool) -> Validation {
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
            // Each root beyond the first lost its parent (an absorbed
            // store's evicted parents arrive as `null`); those naming a
            // below-floor parent were already counted as orphans.
            let parentless = roots.iter().filter(|s| s.parent.is_none()).count();
            out.cut_by_eviction += parentless.saturating_sub(1);
        } else if roots.len() != 1 {
            let names: Vec<&str> = roots.iter().map(|s| s.name.as_str()).collect();
            out.violations.push(format!(
                "trace {tid} has {} roots ({}) — absorbed shard stores were not reknit into one DAG",
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

/// The chain from `root` to the latest-ending descendant: at each level
/// descend into the child whose end time is greatest. Ties go to the
/// highest id — spans are created in program order, so under an idle
/// simulated clock the path still follows the last chain to finish.
fn critical_path<'a>(
    root: &'a SpanRow,
    children: &BTreeMap<u64, Vec<&'a SpanRow>>,
) -> Vec<&'a SpanRow> {
    let mut path = vec![root];
    let mut cur = root;
    while let Some(kids) = children.get(&cur.id) {
        let Some(next) = kids
            .iter()
            .copied()
            .max_by_key(|k| (k.end_us.unwrap_or(k.start_us), k.id))
        else {
            break;
        };
        path.push(next);
        cur = next;
    }
    path
}

/// Per-phase self time under `root`: each span contributes its duration
/// minus its children's durations, so the phases sum to the root's wall
/// time even with deeply nested spans.
fn phase_breakdown(
    root: &SpanRow,
    spans: &[SpanRow],
    children: &BTreeMap<u64, Vec<&SpanRow>>,
) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    let mut stack = vec![root.id];
    let by_id: BTreeMap<u64, &SpanRow> = spans.iter().map(|s| (s.id, s)).collect();
    while let Some(id) = stack.pop() {
        let s = by_id[&id];
        let child_total: u64 = children
            .get(&id)
            .map(|kids| kids.iter().map(|k| k.duration_us()).sum())
            .unwrap_or(0);
        let self_us = s.duration_us().saturating_sub(child_total);
        *out.entry(phase_of(&s.name)).or_insert(0) += self_us;
        if let Some(kids) = children.get(&id) {
            stack.extend(kids.iter().map(|k| k.id));
        }
    }
    out
}

fn print_trace_report(spans: &[SpanRow], decisions: &[DecisionRow]) {
    let traced: Vec<&SpanRow> = spans.iter().filter(|s| s.trace.is_some()).collect();
    let mut traces: BTreeMap<u64, Vec<&SpanRow>> = BTreeMap::new();
    for s in &traced {
        traces.entry(s.trace.unwrap()).or_default().push(s);
    }
    println!(
        "{} spans ({} traced, {} traces), {} decisions",
        spans.len(),
        traced.len(),
        traces.len(),
        decisions.len()
    );
    println!();

    let mut t = Table::new(&[
        "trace",
        "root",
        "spans",
        "wall",
        "validate",
        "place",
        "allocate",
        "launch",
        "critical path",
    ]);
    for (tid, members) in &traces {
        let mut children: BTreeMap<u64, Vec<&SpanRow>> = BTreeMap::new();
        let mut roots = Vec::new();
        for s in members {
            match s.parent {
                Some(p) if members.iter().any(|m| m.id == p) => {
                    children.entry(p).or_default().push(s)
                }
                _ => roots.push(*s),
            }
        }
        for root in roots {
            let phases = phase_breakdown(root, spans, &children);
            let path = critical_path(root, &children);
            let path_str = path
                .iter()
                .map(|s| s.name.as_str())
                .collect::<Vec<_>>()
                .join(" > ");
            let ph = |k: &str| fmt_us(phases.get(k).copied().unwrap_or(0));
            t.row(&[
                tid.to_string(),
                root.name.clone(),
                members.len().to_string(),
                fmt_us(root.duration_us()),
                ph("validate"),
                ph("place"),
                ph("allocate"),
                ph("launch"),
                path_str,
            ]);
        }
    }
    t.print();

    let rejected = decisions.iter().filter(|d| !d.accepted).count();
    println!();
    println!(
        "decision audit: {} records, {} rejections ({} stages)",
        decisions.len(),
        rejected,
        decisions
            .iter()
            .map(|d| d.stage.as_str())
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    );
    // Economic denials — the quota gate, the suspension lifecycle, and
    // lost spot-market auctions — audited next to capacity rejections.
    let econ: BTreeMap<&str, usize> = decisions
        .iter()
        .filter(|d| matches!(d.reason.as_str(), "quota_exceeded" | "suspended" | "outbid"))
        .fold(BTreeMap::new(), |mut m, d| {
            *m.entry(d.reason.as_str()).or_default() += 1;
            m
        });
    if !econ.is_empty() {
        let parts: Vec<String> = econ.iter().map(|(r, n)| format!("{n} {r}")).collect();
        println!("economic denials: {}", parts.join(", "));
    }
}

fn explain(decisions: &[DecisionRow], module: &str) -> bool {
    let picked: Vec<&DecisionRow> = decisions.iter().filter(|d| d.module == module).collect();
    if picked.is_empty() {
        println!("no decisions recorded for module `{module}`");
        return false;
    }
    println!();
    println!("placement audit for `{module}`:");
    let mut t = Table::new(&[
        "trace",
        "stage",
        "candidate",
        "verdict",
        "reason",
        "score",
        "detail",
    ]);
    for d in &picked {
        t.row(&[
            d.trace.map(|t| t.to_string()).unwrap_or_else(|| "-".into()),
            d.stage.clone(),
            d.candidate.clone(),
            if d.accepted { "accepted" } else { "rejected" }.to_string(),
            d.reason.clone(),
            d.score.map(|s| s.to_string()).unwrap_or_else(|| "-".into()),
            d.detail.clone(),
        ]);
    }
    t.print();
    true
}

/// Renders spans as a Chrome `trace_event` JSON document
/// (chrome://tracing, Perfetto). Complete events (`ph: "X"`); one pid
/// per trace id, untraced spans under pid 0.
fn chrome_json(spans: &[SpanRow]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":0,\"args\":{{\"span\":{},\"parent\":{}}}}}",
            s.name,
            phase_of(&s.name),
            s.start_us,
            s.duration_us(),
            s.trace.map(|t| t + 1).unwrap_or(0),
            s.id,
            s.parent.map(|p| p.to_string()).unwrap_or_else(|| "null".into()),
        ));
    }
    out.push_str("]}");
    out
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut artifact = None;
    let mut explain_module = None;
    let mut chrome_out = None;
    let mut show_alerts = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--explain" => explain_module = Some(it.next().ok_or("--explain needs a module name")?),
            "--chrome" => chrome_out = Some(it.next().ok_or("--chrome needs an output path")?),
            "--alerts" => show_alerts = true,
            "--help" | "-h" => {
                println!(
                    "usage: udc-trace <artifact.json> [--explain <module>] [--alerts] \
                     [--chrome <out.json>]"
                );
                return Ok(ExitCode::SUCCESS);
            }
            _ if artifact.is_none() => artifact = Some(a),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let artifact = artifact.ok_or("usage: udc-trace <artifact.json> [--explain <module>]")?;
    let text =
        std::fs::read_to_string(&artifact).map_err(|e| format!("reading {artifact}: {e}"))?;
    let root: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("parsing {artifact}: {e}"))?;

    let spans = parse_spans(&root)?;
    let decisions = parse_decisions(&root)?;

    println!("== udc-trace: {artifact} ==");
    // Absent in artifacts written before the span store was bounded.
    let dropped_spans = root
        .get("dropped_spans")
        .and_then(|x| x.as_u64())
        .unwrap_or(0);
    let Validation {
        violations,
        cut_by_eviction,
    } = validate(&spans, dropped_spans);
    print_trace_report(&spans, &decisions);
    if dropped_spans > 0 {
        println!();
        println!(
            "span store evicted {dropped_spans} span(s) before export: {cut_by_eviction} retained \
             span(s) lost their parent to it (reported, not a violation)"
        );
    }
    if show_alerts {
        let (alerts, dropped) = parse_alerts(&root)?;
        print_alert_summary(&alerts, dropped);
    }
    let mut failed = false;
    if let Some(module) = explain_module {
        // An explain run over a module with no audit trail is a failure:
        // the whole point is that every placement is explainable.
        failed |= !explain(&decisions, &module);
    }
    if let Some(out) = chrome_out {
        std::fs::write(&out, chrome_json(&spans)).map_err(|e| format!("writing {out}: {e}"))?;
        println!();
        println!("chrome trace written: {out} (load in chrome://tracing or Perfetto)");
    }
    if !violations.is_empty() {
        println!();
        println!("VIOLATIONS ({}):", violations.len());
        for v in &violations {
            println!("  - {v}");
        }
        failed = true;
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("udc-trace: {e}");
            ExitCode::from(2)
        }
    }
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

    /// The positive case the check exists for: spans recorded on several
    /// shard-style hubs, absorbed into one store, exported to JSON, read
    /// back through the real parse path — every trace must come out as
    /// one connected DAG with zero violations of any kind.
    #[test]
    fn absorbed_multi_hub_artifact_validates_clean() {
        use udc_telemetry::Telemetry;
        let main = Telemetry::enabled();
        {
            let root = main.trace_root("cloud.submit");
            let ctx = root.ctx().expect("trace context");
            let child = main.span_in(&ctx, "sched.place");
            child.exit();
            root.exit();
        }
        // Two worker hubs, each minting its own complete trace (the
        // harness contract: a trial never splits a trace across hubs).
        for shard in 0..2u32 {
            let hub = Telemetry::enabled();
            let root = hub.trace_root("actor.round");
            let ctx = root.ctx().expect("trace context");
            let d = hub.span_in(&ctx, &format!("actor.deliver.s{shard}"));
            d.exit();
            root.exit();
            main.absorb(&hub);
        }
        let text = main.snapshot().to_json();
        let v: serde_json::Value = serde_json::from_str(&text).expect("export parses");
        let spans = parse_spans(&v).expect("span schema");
        assert_eq!(spans.len(), 6);
        let traces: std::collections::BTreeSet<_> = spans.iter().filter_map(|s| s.trace).collect();
        assert_eq!(traces.len(), 3, "absorb keeps shard traces distinct");
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
        // The un-reknit shard-merge shape: both halves claim trace 3.
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
