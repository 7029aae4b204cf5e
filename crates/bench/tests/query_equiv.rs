//! PR 8's two observable-equivalence contracts.
//!
//! 1. **Subscriptions replace polling without changing behavior.** The
//!    E12 fine-tune loop runs over either feed (`finetune_sim`): the
//!    polling path reads the HAL's EWMA estimator; the subscribed path
//!    reads per-module EWMA queries in the continuous-query engine.
//!    With no alert rules loaded, the two runs must be *byte-identical*
//!    — same decisions, same final allocations, same exported artifact.
//!
//! 2. **Alerts are deterministic at any `--threads N`.** Rule
//!    evaluation happens only at the single-threaded barrier, after
//!    shard hubs are absorbed in trial order — so a chaos-style
//!    multi-hub run must fire the same alerts, in the same order, with
//!    the same timestamps, whether the trials ran on 1 thread or 4.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use udc_bench::finetune_sim::{self, FeedMode};
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

/// A chaos-style trial: its own hub, its own sim clock, a deterministic
/// burst/quiet failure pattern derived from the trial index.
fn run_trial(i: usize) -> Telemetry {
    let hub = Telemetry::enabled();
    let clock = Arc::new(AtomicU64::new(0));
    {
        let c = clock.clone();
        hub.set_clock(move || c.load(Ordering::Relaxed));
    }
    let module = format!("m{i}");
    // Burst at 10ms spacing (trips rapid_refailure's 100ms window and
    // failure_burst's 250ms count), then silence past 500ms (trips
    // absence), then one late failure re-arming the sequence rule.
    let burst = 3 + (i % 3) as u64;
    for k in 0..burst {
        clock.store(100_000 + k * 10_000, Ordering::Relaxed);
        hub.event(EventKind::Failure, Labels::module("acme", &module), &[]);
    }
    clock.store(900_000 + (i as u64) * 1_000, Ordering::Relaxed);
    hub.event(EventKind::Failure, Labels::module("acme", &module), &[]);
    hub
}

/// Merges `trials` trial hubs (computed across `threads` workers) into
/// one driver hub, evaluates the default ruleset at the barrier, and
/// returns the full artifact JSON.
fn chaos_style_artifact(threads: usize, trials: usize) -> String {
    let main = Telemetry::enabled();
    let hubs = udc_actor::parallel::fan_out(threads, trials, run_trial);
    // Absorption in trial order is the determinism contract: the thread
    // count decided who *computed* each hub, never the merge order.
    for hub in &hubs {
        main.absorb(hub);
    }
    let mut engine = udc_query::QueryEngine::new();
    for parsed in udc_query::default_ruleset() {
        for q in parsed.queries {
            engine.register(q).expect("preset query registers");
        }
        engine.add_rule(parsed.rule).expect("preset rule loads");
    }
    let mut feed = udc_query::HubFeed::new();
    engine.ingest(feed.poll(&main, 2_000_000));
    engine.advance_to(2_000_000);
    assert!(
        !engine.alerts().is_empty(),
        "the trial pattern must actually trip the default rules"
    );
    engine.fire_into(&main);
    main.snapshot().to_json()
}

#[test]
fn chaos_alerts_are_byte_identical_across_thread_counts() {
    let single = chaos_style_artifact(1, 6);
    let parallel = chaos_style_artifact(4, 6);
    assert_eq!(
        single, parallel,
        "alert evaluation at the barrier must not observe the thread count"
    );
}
