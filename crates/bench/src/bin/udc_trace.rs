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
//! The tool reads and validates the artifact with `udc_bench::trace`
//! and exits non-zero on a schema violation (missing/mistyped span
//! fields) or on any structural violation `trace::validate` reports:
//! orphan spans, cross-trace parents, unclosed spans, broken critical
//! paths and disconnected traces. CI runs it over the exp_01 artifact
//! so a regression in trace propagation fails the build.
//!
//! Per-trace output: the span DAG grouped by phase (validate / place /
//! allocate / launch / actor / dist / heal), the critical path from the root to
//! the latest-ending leaf chain, and a per-phase self-time breakdown
//! (each span's duration minus its children's, so phases sum to the
//! root's wall time instead of double-counting nested spans).

use std::collections::BTreeMap;
use std::process::ExitCode;

use udc_bench::trace::{self, AlertRow, DecisionRow, SpanRow, Validation};
use udc_bench::{fmt_us, tally_fires, Table};

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
    let per_rule = tally_fires(
        alerts
            .iter()
            .map(|a| ((a.rule.as_str(), a.reason.as_str()), a.at_us)),
    );
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
    children: &BTreeMap<u64, Vec<&SpanRow>>,
) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    let mut stack = vec![root];
    while let Some(s) = stack.pop() {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or_default();
        let child_total: u64 = kids.iter().map(|k| k.duration_us()).sum();
        *out.entry(phase_of(&s.name)).or_insert(0) += s.duration_us().saturating_sub(child_total);
        stack.extend(kids);
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
            let phases = phase_breakdown(root, &children);
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
    let root = serde_json::parse_value(&text).map_err(|e| format!("parsing {artifact}: {e}"))?;
    let spans = trace::parse_spans(&root)?;
    let decisions = trace::parse_decisions(&root)?;
    // Absent in artifacts written before the span store was bounded.
    let dropped_spans = root
        .get("dropped_spans")
        .and_then(|x| x.as_u64())
        .unwrap_or(0);
    let Validation {
        violations,
        cut_by_eviction,
    } = trace::validate(&spans, dropped_spans);

    println!("== udc-trace: {artifact} ==");
    print_trace_report(&spans, &decisions);
    if dropped_spans > 0 {
        println!();
        println!(
            "span store evicted {dropped_spans} span(s) before export: {cut_by_eviction} retained \
             span(s) lost their parent to it (reported, not a violation)"
        );
    }
    if show_alerts {
        let (alerts, dropped) = trace::parse_alerts(&root)?;
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
