//! PR 8's two observable-equivalence contracts.
//!
//! 1. **Subscriptions replace polling without changing behavior.** The
//!    E12 fine-tune loop runs over either feed (`finetune_sim`): the
//!    polling path reads the HAL's EWMA estimator; the subscribed path
//!    reads per-module EWMA queries in the continuous-query engine.
//!    With no alert rules loaded, the two runs must be *byte-identical*
//!    — same decisions, same final allocations, same exported artifact.
//!
//! 2. **Alerts over in-order trials are deterministic.** Chaos-style
//!    trials run in order on one hub, each on its own clock, and the
//!    rules are evaluated once every trial has run — so two runs fire
//!    the same alerts, in the same order, with the same timestamps.

use std::cell::Cell;
use std::rc::Rc;

use udc_bench::exp::finetune_sim::{self, FeedMode};
use udc_telemetry::{EventKind, Labels, Telemetry};

#[test]
fn subscribed_finetune_is_byte_identical_to_polling() {
    let polled = finetune_sim::run(FeedMode::Polling, &[]);
    let subscribed = finetune_sim::run(FeedMode::Subscribed, &[]);

    // Same control decisions: allocations, violations, action counts.
    assert_eq!(polled.modules.len(), subscribed.modules.len());
    for (p, s) in polled.modules.iter().zip(&subscribed.modules) {
        assert_eq!(p.name, s.name);
        assert_eq!(
            p.allocated, s.allocated,
            "module {} diverged between feeds",
            p.name
        );
    }
    assert_eq!(polled.slo_violations, subscribed.slo_violations);
    assert_eq!(polled.actions_issued, subscribed.actions_issued);

    // Same artifact, byte for byte: the subscription path is observably
    // the polling path — the EWMA values are the same f64s, so every
    // Measurement field serializes identically.
    assert_eq!(
        polled.hub.snapshot().to_json(),
        subscribed.hub.snapshot().to_json(),
        "subscribed artifact must match the polling artifact byte for byte"
    );
}

/// A chaos-style trial on `hub`: its own sim clock, a deterministic
/// burst/quiet failure pattern derived from the trial index.
fn run_trial(hub: &Telemetry, i: usize) {
    let clock = Rc::new(Cell::new(0));
    {
        let c = Rc::clone(&clock);
        hub.set_clock(move || c.get());
    }
    let module = format!("m{i}");
    // Burst at 10ms spacing (trips rapid_refailure's 100ms window and
    // failure_burst's 250ms count), then silence past 500ms (trips
    // absence), then one late failure re-arming the sequence rule.
    let burst = 3 + (i % 3) as u64;
    for k in 0..burst {
        clock.set(100_000 + k * 10_000);
        hub.event(EventKind::Failure, Labels::module("acme", &module), &[]);
    }
    clock.set(900_000 + (i as u64) * 1_000);
    hub.event(EventKind::Failure, Labels::module("acme", &module), &[]);
}

/// Runs `trials` trials in order on one hub, evaluates the default
/// ruleset once they have all run, and returns the full artifact JSON.
fn chaos_style_artifact(trials: usize) -> String {
    let hub = Telemetry::enabled();
    for i in 0..trials {
        run_trial(&hub, i);
    }
    let mut engine = udc_query::QueryEngine::new();
    for parsed in udc_query::default_ruleset() {
        for q in parsed.queries {
            engine.register(q).expect("preset query registers");
        }
        engine.add_rule(parsed.rule).expect("preset rule loads");
    }
    let mut feed = udc_query::HubFeed::new();
    engine.ingest(feed.poll(&hub, 2_000_000));
    engine.advance_to(2_000_000);
    assert!(
        !engine.alerts().is_empty(),
        "the trial pattern must actually trip the default rules"
    );
    engine.fire_into(&hub);
    hub.snapshot().to_json()
}

#[test]
fn chaos_alerts_over_in_order_trials_are_byte_identical() {
    let first = chaos_style_artifact(6);
    assert_eq!(
        first,
        chaos_style_artifact(6),
        "alert evaluation over in-order trials must be deterministic"
    );
    // Each trial stamped its records with its own clock: the last
    // trial's late failure sits at its own offset.
    assert!(first.contains("\"at_us\": 905000"));
}
