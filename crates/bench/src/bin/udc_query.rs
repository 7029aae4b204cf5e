//! `udc-query` — runs continuous queries and alert rules over a
//! recorded telemetry artifact, so a rule can be validated against past
//! runs (e.g. a chaos sweep) before it is attached to a live cloud.
//!
//! ```text
//! udc-query --replay results/exp_01_medical.json             # default ruleset
//! udc-query --replay results/udc_chaos.json \
//!     --alert 'storm: count(event:failure) over 500ms >= 3'  # custom rules
//! udc-query --replay a.json --out alerts.json                # export fires
//! ```
//!
//! The artifact must be a *full* telemetry snapshot (events +
//! decisions); the compact chaos export is rejected with a pointer to
//! `--full-artifact`. Replay reconstructs the same timestamp-ordered
//! observation stream the live `HubFeed` produces, so fire times and
//! counts here are exactly what the rule would have produced attached
//! live — metric-sourced rules are the one exception (metric *series*
//! are not recorded in artifacts, only end states), and are flagged
//! with a warning. Output is fully deterministic: CI diffs two runs.
//!
//! Exits 0 on a clean run, 2 on a malformed artifact, unknown rule, or
//! bad usage.

use std::process::ExitCode;

use udc_bench::{fmt_us, tally_fires, Table};
use udc_query::{default_horizon, default_ruleset, obs_from_json, ParsedRule, RuleKind, Source};
use udc_telemetry::Telemetry;

fn is_metric_source(s: &Source) -> bool {
    matches!(
        s,
        Source::Counter { .. } | Source::Gauge { .. } | Source::Hist { .. }
    )
}

/// Warns that a replayed query or rule reads a metric series.
fn warn_metric(what: &str, name: &str) {
    eprintln!(
        "warning: {what} `{name}` reads a metric series — artifacts only record \
         end states, so it sees no observations in replay"
    );
}

/// Sources a rule reads directly (threshold rules read via their query,
/// which is checked separately at registration).
fn rule_sources(kind: &RuleKind) -> Vec<&Source> {
    match kind {
        RuleKind::Threshold { .. } => Vec::new(),
        RuleKind::Sustained { source, .. } | RuleKind::Absence { source, .. } => vec![source],
        RuleKind::Sequence { first, then, .. } => vec![first, then],
    }
}

fn reason_of(kind: &RuleKind) -> &'static str {
    match kind {
        RuleKind::Threshold { .. } => "threshold",
        RuleKind::Sustained { .. } => "sustained",
        RuleKind::Absence { .. } => "absence",
        RuleKind::Sequence { .. } => "sequence",
    }
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut artifact = None;
    let mut rule_texts: Vec<String> = Vec::new();
    let mut out_path = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--replay" => artifact = Some(it.next().ok_or("--replay needs an artifact path")?),
            "--alert" => rule_texts.push(it.next().ok_or("--alert needs a rule string")?),
            "--out" => out_path = Some(it.next().ok_or("--out needs an output path")?),
            "--help" | "-h" => {
                println!(
                    "usage: udc-query --replay <artifact.json> [--alert <rule>]... [--out <path>]"
                );
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let artifact = artifact.ok_or("usage: udc-query --replay <artifact.json> [--alert <rule>]")?;
    let text =
        std::fs::read_to_string(&artifact).map_err(|e| format!("reading {artifact}: {e}"))?;
    let obs = obs_from_json(&text).map_err(|e| format!("{artifact}: {e}"))?;

    let rules: Vec<ParsedRule> = if rule_texts.is_empty() {
        default_ruleset()
    } else {
        rule_texts
            .iter()
            .map(|t| udc_query::parse_rule(t).map_err(|e| format!("rule `{t}`: {e}")))
            .collect::<Result<_, _>>()?
    };

    let mut engine = udc_query::QueryEngine::new();
    let mut order = Vec::new();
    for parsed in rules {
        for q in parsed.queries {
            if is_metric_source(&q.source) {
                warn_metric("query", &q.name);
            }
            engine
                .register(q)
                .map_err(|e| format!("registering rule query: {e}"))?;
        }
        if rule_sources(&parsed.rule.kind)
            .iter()
            .any(|s| is_metric_source(s))
        {
            warn_metric("rule", &parsed.rule.name);
        }
        order.push((parsed.rule.name.clone(), reason_of(&parsed.rule.kind)));
        engine
            .add_rule(parsed.rule)
            .map_err(|e| format!("loading rule: {e}"))?;
    }

    let (events, decisions) = obs.iter().fold((0u64, 0u64), |(e, d), o| match o {
        udc_query::Obs::Event { .. } => (e + 1, d),
        udc_query::Obs::Decision { .. } => (e, d + 1),
        _ => (e, d),
    });
    let horizon = default_horizon(&obs);
    engine.ingest(obs);
    engine.advance_to(horizon);

    println!("== udc-query: {artifact} ==");
    println!(
        "{} observations ({events} events, {decisions} decisions), horizon {}",
        events + decisions,
        fmt_us(horizon)
    );
    println!();

    let fires = tally_fires(engine.alerts().iter().map(|a| (a.rule.as_str(), a.at_us)));
    let mut t = Table::new(&["rule", "kind", "fires", "first", "last"]);
    for (name, reason) in &order {
        let row = fires.get(name.as_str());
        t.row(&[
            name.clone(),
            reason.to_string(),
            row.map(|r| r.0.to_string()).unwrap_or_else(|| "0".into()),
            row.map(|r| fmt_us(r.1)).unwrap_or_else(|| "-".into()),
            row.map(|r| fmt_us(r.2)).unwrap_or_else(|| "-".into()),
        ]);
    }
    t.print();
    println!();
    println!(
        "{} alert(s) fired; {} query window(s) emitted; {} late observation(s)",
        engine.alerts().len(),
        engine.outputs().len(),
        engine.late_obs()
    );

    if let Some(out) = out_path {
        let hub = Telemetry::enabled();
        engine.fire_into(&hub);
        let path = hub
            .snapshot()
            .write_to(&out)
            .map_err(|e| format!("writing {out}: {e}"))?;
        println!("alert snapshot written: {}", path.display());
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    udc_bench::stop_quietly_on_broken_pipe();
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("udc-query: {e}");
            ExitCode::from(2)
        }
    }
}
