//! The E12 fine-tune control loop, runnable over either telemetry feed:
//! **polling** (the seed path — each round's sample goes straight into
//! the tuner's own EWMA via `FineTuner::observe`) or **subscribed** (the
//! continuous-query path — one EWMA query per module over a
//! `tune.usage` gauge stream, the tuner fed from subscription polls via
//! `FineTuner::evaluate_usage`).
//!
//! Both modes drive the *same* tuner policy over the *same* simulated
//! workload and record the *same* per-round Measurement events into the
//! returned hub, so with no alert rules loaded the exported artifacts
//! are byte-identical — that equivalence is pinned by
//! `tests/query_equiv.rs`. The query EWMA uses
//! [`udc_sched::finetune::EWMA_ALPHA`], so the smoothed values the two
//! modes see are the same `f64`s bit-for-bit, not merely close.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use udc_query::{Aggregation, LabelFilter, Obs, QueryEngine, QuerySpec, Source, SubId, WindowSpec};
use udc_sched::finetune::EWMA_ALPHA;
use udc_sched::{FineTuner, TuneAction};
use udc_telemetry::{EventKind, FieldValue, Labels, Telemetry as Hub};

/// Gauge name the subscribed mode streams per-module usage under.
pub const USAGE_GAUGE: &str = "tune.usage";
/// One control round per simulated second: each round's sample lands in
/// its own tumbling window, closed by the round's `advance_to`.
pub const ROUND_US: u64 = 1_000_000;
/// Rounds in the standard E12 run.
pub const ROUNDS: u64 = 12;

/// Which feed drives the tuner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeedMode {
    /// Seed path: the tuner smooths every round's sample itself.
    Polling,
    /// Query path: per-module EWMA subscriptions.
    Subscribed,
}

/// One simulated module: a fixed true need against a moving allocation.
pub struct SimModule {
    /// Module name (also the gauge's module label).
    pub name: &'static str,
    /// Units the module actually needs.
    pub true_need: f64,
    /// The user's initial (mis-)specification.
    pub initial: u64,
    /// Current allocation, updated by tuner actions.
    pub allocated: u64,
}

/// The standard E12 population: mis-specified by -50%, +50%, +300%,
/// and one already in band.
pub fn standard_modules() -> Vec<SimModule> {
    [
        ("under50", 8.0, 4u64),
        ("over50", 8.0, 12),
        ("over300", 4.0, 16),
        ("inband", 4.2, 6),
    ]
    .into_iter()
    .map(|(name, true_need, initial)| SimModule {
        name,
        true_need,
        initial,
        allocated: initial,
    })
    .collect()
}

/// Per-round aggregates (what E12's convergence table prints).
pub struct RoundStats {
    /// Round index.
    pub round: u64,
    /// Total allocated units after this round's actions.
    pub total_allocated: u64,
    /// Total true need.
    pub total_needed: f64,
    /// Over-allocation waste fraction.
    pub waste: f64,
    /// Modules whose need exceeds their allocation.
    pub starved: u64,
    /// Tuner actions applied this round.
    pub actions: u64,
}

/// Everything a caller needs to print tables, export artifacts, or
/// assert equivalence.
pub struct SimOutcome {
    /// The telemetry hub: one Measurement event per round, plus any
    /// alerts the loaded rules fired (subscribed mode only).
    pub hub: Hub,
    /// Final module allocations.
    pub modules: Vec<SimModule>,
    /// Tuner SLO-violation count.
    pub slo_violations: u64,
    /// Tuner actions issued.
    pub actions_issued: u64,
    /// Per-round table rows.
    pub rounds: Vec<RoundStats>,
}

/// Runs the simulation. `rules` are alert rules (the grammar of
/// [`udc_query::parse_rule`]) evaluated against the subscribed mode's
/// observation stream; they must be empty in polling mode (there is no
/// engine to host them) and must not alter the tuner's behavior — they
/// only fire alerts into the hub.
pub fn run(mode: FeedMode, rules: &[&str]) -> SimOutcome {
    assert!(
        rules.is_empty() || mode == FeedMode::Subscribed,
        "alert rules need the subscribed feed"
    );
    let mut modules = standard_modules();
    let mut tuner = FineTuner::default();
    let hub = Hub::enabled();
    let clock = Arc::new(AtomicU64::new(0));
    {
        let c = clock.clone();
        hub.set_clock(move || c.load(Ordering::Relaxed));
    }

    let mut engine = QueryEngine::new();
    let mut subs: Vec<SubId> = Vec::new();
    if mode == FeedMode::Subscribed {
        for m in &modules {
            let name = format!("tune.usage.{}", m.name);
            engine
                .register(QuerySpec {
                    name: name.clone(),
                    source: Source::Gauge {
                        name: USAGE_GAUGE.to_string(),
                        labels: LabelFilter {
                            tenant: None,
                            module: Some(m.name.to_string()),
                        },
                    },
                    agg: Aggregation::Ewma { alpha: EWMA_ALPHA },
                    window: WindowSpec::tumbling(ROUND_US),
                })
                .expect("usage query registers");
            subs.push(engine.subscribe(&name).expect("usage query subscribes"));
        }
        for text in rules {
            let parsed = udc_query::parse_rule(text).expect("sim rule parses");
            for q in parsed.queries {
                engine.register(q).expect("sim rule query registers");
            }
            engine.add_rule(parsed.rule).expect("sim rule loads");
        }
    }

    let mut rounds = Vec::new();
    for round in 0..ROUNDS {
        clock.store(round * ROUND_US, Ordering::Relaxed);
        // Usage: need / allocation, with a deterministic ripple.
        let ripple = 1.0 + 0.05 * ((round % 3) as f64 - 1.0);
        let usages: Vec<f64> = modules
            .iter()
            .map(|m| (m.true_need * ripple) / m.allocated.max(1) as f64)
            .collect();
        let smoothed: Vec<Option<f64>> = match mode {
            FeedMode::Polling => modules
                .iter()
                .zip(&usages)
                .map(|(m, &u)| Some(tuner.observe(m.name, u)))
                .collect(),
            FeedMode::Subscribed => {
                for (m, &u) in modules.iter().zip(&usages) {
                    engine.push(Obs::Gauge {
                        at_us: round * ROUND_US,
                        name: USAGE_GAUGE.to_string(),
                        labels: Labels {
                            tenant: None,
                            module: Some(m.name.to_string()),
                        },
                        value: u,
                    });
                }
                // Close this round's windows; each subscription yields
                // exactly the EWMA including this round's sample —
                // which is what the polling path's `observe` returns.
                engine.advance_to((round + 1) * ROUND_US);
                let vals = subs
                    .iter()
                    .map(|&s| engine.poll(s).last().map(|o| o.value))
                    .collect();
                engine.fire_into(&hub);
                vals
            }
        };
        let mut actions = 0u64;
        for (m, sm) in modules.iter_mut().zip(&smoothed) {
            let Some(usage) = *sm else { continue };
            if let Some(action) = tuner.evaluate_usage(m.name, usage, m.allocated, 1_000) {
                match action {
                    TuneAction::Resize { to_units, .. } => m.allocated = to_units,
                    TuneAction::Migrate { units, .. } => m.allocated = units,
                }
                actions += 1;
            }
        }
        let total_allocated: u64 = modules.iter().map(|m| m.allocated).sum();
        let total_needed: f64 = modules.iter().map(|m| m.true_need).sum();
        let waste = (total_allocated as f64 - total_needed).max(0.0) / total_allocated as f64;
        let starved = modules
            .iter()
            .filter(|m| m.true_need > m.allocated as f64)
            .count() as u64;
        hub.event(
            EventKind::Measurement,
            Labels::tenant(format!("round{round}")),
            &[
                ("total_allocated", FieldValue::from(total_allocated)),
                ("total_needed", FieldValue::from(total_needed)),
                ("overalloc_waste", FieldValue::from(waste)),
                ("starved_modules", FieldValue::from(starved)),
                ("actions", FieldValue::from(actions)),
            ],
        );
        rounds.push(RoundStats {
            round,
            total_allocated,
            total_needed,
            waste,
            starved,
            actions,
        });
    }
    SimOutcome {
        hub,
        modules,
        slo_violations: tuner.slo_violations,
        actions_issued: tuner.actions_issued,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_feeds_converge_every_module_into_band() {
        for mode in [FeedMode::Polling, FeedMode::Subscribed] {
            let out = run(mode, &[]);
            for m in &out.modules {
                let usage = m.true_need / m.allocated as f64;
                assert!(
                    (0.35..=1.0).contains(&usage),
                    "{:?}: {} ended at usage {usage}",
                    mode,
                    m.name
                );
            }
            assert_eq!(out.rounds.len(), ROUNDS as usize);
        }
    }
}
