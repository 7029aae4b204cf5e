//! E12 — §3.2's runtime fine-tuning: "Since user specified resources may
//! be inaccurate when executing with real (and changing) inputs, UDC
//! would perform fine tuning (enlarging or shrinking the amount of
//! resources for a module, migrating modules across hardware units,
//! etc.) based on telemetry data collected at the run time."
//!
//! Modules start mis-specified by ±50% (and one by +300%); the tuner
//! drives allocations toward the true need. Reported per round: total
//! over-allocation waste and SLO violations (usage > allocation).
//!
//! Since PR 8 the loop is *subscription-driven*: the tuner no longer
//! polls the HAL estimator — it subscribes to one EWMA query per module
//! in the continuous-query engine (same smoothing constant, so the
//! values are bit-identical; `tests/query_equiv.rs` pins that the whole
//! artifact matches the polling implementation byte for byte). Riding
//! the same observation stream, a sustained-saturation alert rule marks
//! the rounds where a module ran above its allocation for a full
//! control period — the auditable record of *why* the loop grew it.

use super::finetune_sim::{self, FeedMode, USAGE_GAUGE};
use crate::{banner, fmt_us, pct, Table};

/// Fires when a module's raw usage sits above 1.0 (saturated: demand
/// exceeds allocation) for a full control round — the condition that
/// gates the tuner's grow/migrate escalation.
fn saturation_rule() -> String {
    format!("e12.saturated: sustained(gauge:{USAGE_GAUGE} > 1) for 1s")
}

pub fn run() -> String {
    banner(
        "E12",
        "Telemetry-driven fine-tuning of mis-specified resources",
        "user estimates are inaccurate; the runtime converges allocations \
         to actual usage, cutting waste without starving modules",
    );

    let rule = saturation_rule();
    let out = finetune_sim::run(FeedMode::Subscribed, &[rule.as_str()]);

    let mut t = Table::new(&[
        "round",
        "total allocated",
        "total needed",
        "over-alloc waste",
        "starved modules",
        "actions",
    ]);
    for r in &out.rounds {
        t.row(&[
            r.round.to_string(),
            r.total_allocated.to_string(),
            format!("{:.0}", r.total_needed),
            pct(r.waste),
            r.starved.to_string(),
            r.actions.to_string(),
        ]);
    }
    t.print();

    println!();
    println!("Final allocations vs true needs:");
    let mut f = Table::new(&[
        "module",
        "initial spec",
        "true need",
        "final allocation",
        "usage",
    ]);
    for m in &out.modules {
        f.row(&[
            m.name.to_string(),
            m.initial.to_string(),
            format!("{:.0}", m.true_need),
            m.allocated.to_string(),
            pct(m.true_need / m.allocated as f64),
        ]);
    }
    f.print();

    println!();
    let alerts = out.hub.snapshot().alerts;
    println!(
        "Alerts from rule `{}` ({} fired):",
        rule.split(':').next().unwrap_or(""),
        alerts.len()
    );
    for a in &alerts {
        println!(
            "  {} @ {}: module {} sustained saturation",
            a.rule,
            fmt_us(a.at_us),
            a.labels.module.as_deref().unwrap_or("-"),
        );
    }

    println!();
    println!(
        "SLO violations observed while converging: {}; actions issued: {}. \
         Shape: starvation (the -50% module) is eliminated within ~2 rounds; \
         over-specifications shrink toward the target band; every module ends \
         inside [40%, 90%] usage — the waste that remains is the headroom the \
         band deliberately keeps. Well-specified modules are never touched. \
         The saturation alerts above are the subscription-side audit trail: \
         each marks a module whose demand exceeded its allocation for a full \
         control round, which is exactly when the tuner escalated.",
        out.slo_violations, out.actions_issued
    );
    out.hub.snapshot().to_json()
}
