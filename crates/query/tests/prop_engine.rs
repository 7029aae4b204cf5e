//! Property proofs for the continuous-query engine, mirroring the
//! repo's `LinearPool` oracle pattern:
//!
//! 1. **Oracle equality** — the incremental engine's output sequence is
//!    identical to the naive recompute-from-scratch oracle under random
//!    observation streams, window shapes, aggregations, and advance
//!    interleavings (EWMA included: the oracle refolds its carry from
//!    window zero on every advance).
//! 2. **Merge-order invariance** — aggregations over a hub that
//!    absorbs fresh shard hubs every barrier round are byte-identical
//!    no matter the order the shards are absorbed in (integer-valued sources: counter
//!    merges and histogram merges are commutative, and every per-window
//!    fold is order-insensitive over the same multiset).
//! 3. **Retro ≡ live** — replaying a hub's exported snapshot yields the
//!    same outputs *and alerts* as feeding the live hub, for
//!    event/decision-sourced queries (the only kind artifacts carry).
//! 4. **Routed rules ≡ the scan** — sustained, absence and sequence
//!    rules fed through the engine's interest index (and, for gauges,
//!    through resolved series) fire exactly what the parent's
//!    algorithm fires: every rule offered every observation, every
//!    sustained label set visited at every watermark.
//!
//! The streams carry observations under names nothing reads, so an
//! engine that routed one of them to a reader, or dropped one a reader
//! needed, differs from the oracle.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use std::collections::BTreeMap;

use udc_query::engine::{LabelFilter, Source};
use udc_query::{
    default_ruleset, parse_rule, replay, Aggregation, AlertRule, Cmp, HubFeed, NaiveEngine, Obs,
    QueryEngine, QuerySpec, RuleKind, WindowSpec,
};
use udc_telemetry::{
    AlertFire, AlertReason, Decision, EventKind, Histogram, Labels, ReasonCode, Telemetry,
};

fn window_from(size_step: u64, slide_step: u64) -> WindowSpec {
    let size = size_step * 40;
    WindowSpec::sliding(size, (slide_step * 20).min(size))
}

/// Kinds 0–4 feed the queries of [`all_source_specs`]; 5–7 carry
/// names nothing reads.
fn obs_from(kind: u8, at: u64, val: u64) -> Obs {
    match kind % 8 {
        5 => Obs::Counter {
            at_us: at,
            name: "c.unread".to_string(),
            labels: Labels::none(),
            delta: val,
        },
        6 => Obs::Event {
            at_us: at,
            kind: "placement".to_string(),
            labels: Labels::none(),
        },
        7 => Obs::Decision {
            at_us: at,
            stage: "t".to_string(),
            module: "m".to_string(),
            reason: "capacity".to_string(),
            accepted: true,
        },
        0 => Obs::Counter {
            at_us: at,
            name: "c".to_string(),
            labels: Labels::none(),
            delta: val,
        },
        1 => Obs::Event {
            at_us: at,
            kind: "failure".to_string(),
            labels: Labels::none(),
        },
        2 => {
            let mut h = Histogram::default();
            h.record(val);
            h.record(val * 3);
            Obs::Hist {
                at_us: at,
                name: "h".to_string(),
                labels: Labels::none(),
                delta: Box::new(h),
            }
        }
        3 => Obs::Decision {
            at_us: at,
            stage: "s".to_string(),
            module: "m".to_string(),
            reason: "capacity".to_string(),
            accepted: val.is_multiple_of(2),
        },
        // Integer-valued gauges keep f64 folds exact.
        _ => Obs::Gauge {
            at_us: at,
            name: "g".to_string(),
            labels: Labels::none(),
            value: val as f64,
        },
    }
}

fn all_source_specs(agg: Aggregation, window: WindowSpec) -> Vec<QuerySpec> {
    let mut specs = vec![
        QuerySpec {
            name: "q_counter".to_string(),
            source: Source::Counter {
                name: "c".to_string(),
                labels: LabelFilter::any(),
            },
            agg,
            window,
        },
        QuerySpec {
            name: "q_event".to_string(),
            source: Source::Event {
                kind: Some("failure".to_string()),
                labels: LabelFilter::any(),
            },
            agg,
            window,
        },
        QuerySpec {
            name: "q_hist".to_string(),
            source: Source::Hist {
                name: "h".to_string(),
                labels: LabelFilter::any(),
            },
            agg,
            window,
        },
        QuerySpec {
            name: "q_decision".to_string(),
            source: Source::Decision {
                stage: Some("s".to_string()),
                module: None,
                reason: None,
                accepted: None,
            },
            agg,
            window,
        },
    ];
    // Gauges can't feed quantiles (float-valued); mirror the engine's
    // validation rather than tripping it.
    if !matches!(agg, Aggregation::Quantile(_)) {
        specs.push(QuerySpec {
            name: "q_gauge".to_string(),
            source: Source::Gauge {
                name: "g".to_string(),
                labels: LabelFilter::any(),
            },
            agg,
            window,
        });
    }
    specs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    fn engine_matches_naive_oracle(
        ops in prop::collection::vec((0u8..8, 0u64..60, 1u64..50, any::<bool>()), 0..80),
        size_step in 1u64..6,
        slide_step in 1u64..6,
        agg_pick in 0u8..7,
    ) {
        let agg = match agg_pick {
            0 => Aggregation::Count,
            1 => Aggregation::Sum,
            2 => Aggregation::Rate,
            3 => Aggregation::Mean,
            4 => Aggregation::Max,
            5 => Aggregation::Quantile(0.5),
            _ => Aggregation::Quantile(0.95),
        };
        let window = window_from(size_step, slide_step);
        let mut eng = QueryEngine::new();
        let mut naive = NaiveEngine::new();
        for spec in all_source_specs(agg, window) {
            eng.register(spec.clone()).unwrap();
            naive.register(spec);
        }
        let mut t = 0u64;
        for (kind, dt, val, advance_first) in ops {
            t += dt;
            if advance_first {
                // Advancing to the obs time can never strand it: every
                // window containing t ends strictly after t.
                eng.advance_to(t);
                naive.advance_to(t);
            }
            let o = obs_from(kind, t, val);
            eng.push(o.clone());
            naive.push(o);
        }
        let horizon = t + 2 * window.size_us + 1;
        eng.advance_to(horizon);
        naive.advance_to(horizon);
        prop_assert_eq!(eng.late_obs(), 0);
        prop_assert_eq!(eng.outputs(), naive.outputs());
    }

    fn ewma_matches_naive_carry_refold(
        ops in prop::collection::vec((0u64..60, 1u64..50, any::<bool>()), 0..60),
        size_step in 1u64..6,
        alpha_step in 1u64..10,
    ) {
        let window = WindowSpec::tumbling(size_step * 40);
        let agg = Aggregation::Ewma { alpha: alpha_step as f64 / 10.0 };
        let spec = QuerySpec {
            name: "u".to_string(),
            source: Source::Gauge { name: "g".to_string(), labels: LabelFilter::any() },
            agg,
            window,
        };
        let mut eng = QueryEngine::new();
        eng.register(spec.clone()).unwrap();
        let mut naive = NaiveEngine::new();
        naive.register(spec);
        let mut t = 0u64;
        for (dt, val, advance_first) in ops {
            t += dt;
            if advance_first {
                eng.advance_to(t);
                naive.advance_to(t);
            }
            let o = obs_from(4, t, val);
            eng.push(o.clone());
            naive.push(o);
        }
        let horizon = t + 2 * window.size_us + 1;
        eng.advance_to(horizon);
        naive.advance_to(horizon);
        // Byte-exact f64 equality: both fold the identical sample
        // sequence with the identical operations.
        prop_assert_eq!(eng.outputs(), naive.outputs());
    }

    fn aggregations_survive_absorb_order_permutations(
        ops in prop::collection::vec((0u8..3, 0u8..4, 0u64..40, 1u64..30), 0..60),
        size_step in 1u64..6,
        slide_step in 1u64..6,
    ) {
        const ROUND_US: u64 = 1_000;
        let window = window_from(size_step, slide_step);
        let specs: Vec<QuerySpec> = [
            Aggregation::Count,
            Aggregation::Sum,
            Aggregation::Mean,
            Aggregation::Max,
            Aggregation::Quantile(0.95),
        ]
        .into_iter()
        .enumerate()
        .flat_map(|(i, agg)| {
            all_source_specs(agg, window)
                .into_iter()
                // Gauge merges take the *last* absorbed value, which is
                // order-sensitive by design; every other source merges
                // commutatively.
                .filter(|s| !matches!(s.source, Source::Gauge { .. }))
                .map(move |mut s| {
                    s.name = format!("{}_{}", s.name, i);
                    s
                })
        })
        .collect();

        let rounds: Vec<&[(u8, u8, u64, u64)]> = ops.chunks(20).collect();
        let mut all_outputs = Vec::new();
        for order in [[0usize, 1, 2], [2, 0, 1], [1, 2, 0]] {
            let driver = Telemetry::enabled();
            let mut feed = HubFeed::new();
            let mut eng = QueryEngine::new();
            let mut naive = NaiveEngine::new();
            for s in &specs {
                eng.register(s.clone()).unwrap();
                naive.register(s.clone());
            }
            for (r, round_ops) in rounds.iter().enumerate() {
                // Fresh shard hubs every round, so each barrier merges
                // only what the round recorded.
                let shards: Vec<(Telemetry, Arc<AtomicU64>)> = (0..3)
                    .map(|_| {
                        let cell = Arc::new(AtomicU64::new(0));
                        let hub = Telemetry::enabled();
                        let c = Arc::clone(&cell);
                        hub.set_clock(move || c.load(Ordering::Relaxed));
                        (hub, cell)
                    })
                    .collect();
                let mut t = r as u64 * ROUND_US;
                for &(shard, kind, dt, val) in round_ops.iter() {
                    t += dt; // ≤ 20 ops × <40us keeps t inside the round
                    let (hub, cell) = &shards[shard as usize % 3];
                    cell.store(t, Ordering::Relaxed);
                    match kind % 4 {
                        0 => hub.incr("c", Labels::none(), val),
                        1 => hub.event(EventKind::Failure, Labels::none(), &[]),
                        2 => hub.observe("h", Labels::none(), val),
                        _ => hub.decide(Decision {
                            ctx: None,
                            stage: "s",
                            module: "m",
                            candidate: "m",
                            accepted: val.is_multiple_of(2),
                            reason: ReasonCode::Capacity,
                            score: None,
                            detail: String::new(),
                        }),
                    }
                }
                let barrier = (r as u64 + 1) * ROUND_US;
                for &i in &order {
                    driver.absorb(&shards[i].0);
                }
                let batch = feed.poll(&driver, barrier);
                for o in batch {
                    eng.push(o.clone());
                    naive.push(o);
                }
                eng.advance_to(barrier);
                naive.advance_to(barrier);
            }
            let horizon = (rounds.len() as u64 + 1) * ROUND_US + 2 * window.size_us;
            eng.advance_to(horizon);
            naive.advance_to(horizon);
            prop_assert_eq!(eng.outputs(), naive.outputs());
            all_outputs.push(eng.outputs().to_vec());
        }
        prop_assert_eq!(&all_outputs[0], &all_outputs[1]);
        prop_assert_eq!(&all_outputs[0], &all_outputs[2]);
    }

    fn replay_equals_live_for_recorded_streams(
        ops in prop::collection::vec((0u8..2, 0u64..500, 1u64..8), 0..40),
        size_step in 1u64..6,
    ) {
        let window = WindowSpec::tumbling(size_step * 100);
        let specs = vec![
            QuerySpec {
                name: "ev".to_string(),
                source: Source::Event { kind: None, labels: LabelFilter::any() },
                agg: Aggregation::Count,
                window,
            },
            QuerySpec {
                name: "dec".to_string(),
                source: Source::Decision { stage: None, module: None, reason: None, accepted: Some(false) },
                agg: Aggregation::Rate,
                window,
            },
        ];
        let hub = Telemetry::enabled();
        let cell = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&cell);
        hub.set_clock(move || c.load(Ordering::Relaxed));
        let mut t = 0u64;
        for &(kind, dt, val) in &ops {
            t += dt;
            cell.store(t, Ordering::Relaxed);
            if kind == 0 {
                hub.event(EventKind::Failure, Labels::module("acme", "m0"), &[]);
            } else {
                hub.decide(Decision {
                    ctx: None,
                    stage: "heal.detect",
                    module: "m0",
                    candidate: "m0",
                    accepted: val.is_multiple_of(2),
                    reason: ReasonCode::Evicted,
                    score: None,
                    detail: String::new(),
                });
            }
        }
        let run = |obs: Vec<Obs>, horizon: u64| {
            let mut eng = QueryEngine::new();
            for s in &specs {
                eng.register(s.clone()).unwrap();
            }
            for p in default_ruleset() {
                for q in p.queries {
                    eng.register(q).unwrap();
                }
                eng.add_rule(p.rule).unwrap();
            }
            eng.ingest(obs);
            eng.advance_to(horizon);
            (eng.outputs().to_vec(), eng.alerts().to_vec())
        };
        let live_obs = HubFeed::new().poll(&hub, t);
        let replay_obs = replay::obs_from_json(&hub.snapshot().to_json()).unwrap();
        let horizon = replay::default_horizon(&replay_obs);
        let live = run(live_obs, horizon);
        let retro = run(replay_obs, horizon);
        prop_assert_eq!(live.0, retro.0);
        prop_assert_eq!(live.1, retro.1);
    }
}

/// What a source reads of one observation: its scalar value, or `None`
/// when the observation is not the source's (histograms read as their
/// count, which only presence matters for here).
fn read_value(src: &Source, obs: &Obs) -> Option<f64> {
    let labels_match = |f: &LabelFilter, l: &Labels| {
        f.tenant
            .as_ref()
            .is_none_or(|t| l.tenant.as_ref() == Some(t))
            && f.module
                .as_ref()
                .is_none_or(|m| l.module.as_ref() == Some(m))
    };
    match (src, obs) {
        (
            Source::Counter { name, labels },
            Obs::Counter {
                name: n,
                labels: l,
                delta,
                ..
            },
        ) if name == n && labels_match(labels, l) => Some(*delta as f64),
        (
            Source::Gauge { name, labels },
            Obs::Gauge {
                name: n,
                labels: l,
                value,
                ..
            },
        ) if name == n && labels_match(labels, l) => Some(*value),
        (
            Source::Hist { name, labels },
            Obs::Hist {
                name: n,
                labels: l,
                delta,
                ..
            },
        ) if name == n && labels_match(labels, l) => Some(delta.count() as f64),
        (
            Source::Event { kind, labels },
            Obs::Event {
                kind: k, labels: l, ..
            },
        ) if kind.as_ref().is_none_or(|w| w == k) && labels_match(labels, l) => Some(1.0),
        (
            Source::Decision {
                stage,
                module,
                reason,
                accepted,
            },
            Obs::Decision {
                stage: s,
                module: m,
                reason: r,
                accepted: a,
                ..
            },
        ) if stage.as_ref().is_none_or(|w| w == s)
            && module.as_ref().is_none_or(|w| w == m)
            && reason.as_ref().is_none_or(|w| w == r)
            && accepted.is_none_or(|w| w == *a) =>
        {
            Some(1.0)
        }
        _ => None,
    }
}

fn obs_labels(obs: &Obs) -> Labels {
    match obs {
        Obs::Counter { labels, .. }
        | Obs::Gauge { labels, .. }
        | Obs::Hist { labels, .. }
        | Obs::Event { labels, .. } => labels.clone(),
        Obs::Decision { module, .. } => Labels {
            tenant: None,
            module: Some(module.clone()),
        },
    }
}

#[derive(Clone, Copy, Default)]
struct Run {
    held_since: Option<u64>,
    fired: bool,
}

/// One rule's state as the parent commit kept it.
struct ScanRule {
    rule: AlertRule,
    cond: BTreeMap<Labels, Run>,
    last_seen: u64,
    gap_fired: bool,
    pending_first: Option<u64>,
}

/// The rules as the parent commit evaluated them: every rule offered
/// every observation, and a watermark visits every label set a
/// sustained rule has seen.
struct ScanRules {
    rules: Vec<ScanRule>,
    alerts: Vec<AlertFire>,
}

fn sustained_fire(
    rule: &str,
    labels: Labels,
    t0: u64,
    for_us: u64,
    cmp: Cmp,
    value: f64,
) -> AlertFire {
    AlertFire {
        at_us: t0.saturating_add(for_us),
        rule: rule.to_string(),
        reason: AlertReason::Sustained,
        labels,
        window_start_us: t0,
        window_end_us: t0.saturating_add(for_us),
        value: for_us as f64,
        detail: format!("held {} {} for {}us", cmp.as_str(), value, for_us),
    }
}

fn absence_fire(rule: &str, source: &Source, last_seen: u64, for_us: u64) -> AlertFire {
    let Source::Event { labels, .. } = source else {
        unreachable!("the absence rules here watch events")
    };
    let (tenant, module) = (labels.tenant.clone(), labels.module.clone());
    AlertFire {
        at_us: last_seen.saturating_add(for_us),
        rule: rule.to_string(),
        reason: AlertReason::Absence,
        labels: Labels { tenant, module },
        window_start_us: last_seen,
        window_end_us: last_seen.saturating_add(for_us),
        value: for_us as f64,
        detail: format!("silent since {}us", last_seen),
    }
}

impl ScanRules {
    fn new(rules: &[AlertRule]) -> Self {
        Self {
            rules: rules
                .iter()
                .map(|r| ScanRule {
                    rule: r.clone(),
                    cond: BTreeMap::new(),
                    last_seen: 0,
                    gap_fired: false,
                    pending_first: None,
                })
                .collect(),
            alerts: Vec::new(),
        }
    }

    fn observe(&mut self, obs: &Obs) {
        let at = obs.at_us();
        for ScanRule {
            rule,
            cond,
            last_seen,
            gap_fired,
            pending_first,
        } in &mut self.rules
        {
            match &rule.kind {
                RuleKind::Sustained {
                    source,
                    cmp,
                    value,
                    for_us,
                } => {
                    let Some(v) = read_value(source, obs) else {
                        continue;
                    };
                    let labels = obs_labels(obs);
                    let state = cond.entry(labels.clone()).or_default();
                    if cmp.eval(v, *value) {
                        if state.held_since.is_none() {
                            *state = Run {
                                held_since: Some(at),
                                fired: false,
                            };
                        }
                    } else {
                        if let (Some(t0), false) = (state.held_since, state.fired) {
                            if at >= t0.saturating_add(*for_us) {
                                self.alerts.push(sustained_fire(
                                    &rule.name, labels, t0, *for_us, *cmp, *value,
                                ));
                            }
                        }
                        *state = Run::default();
                    }
                }
                RuleKind::Absence { source, for_us } => {
                    if read_value(source, obs).is_none() {
                        continue;
                    }
                    if !*gap_fired && at >= last_seen.saturating_add(*for_us) {
                        self.alerts
                            .push(absence_fire(&rule.name, source, *last_seen, *for_us));
                    }
                    *last_seen = (*last_seen).max(at);
                    *gap_fired = false;
                }
                RuleKind::Sequence {
                    first,
                    then,
                    within_us,
                } => {
                    if read_value(then, obs).is_some() {
                        if let Some(f) = *pending_first {
                            if at >= f && at - f <= *within_us {
                                self.alerts.push(AlertFire {
                                    at_us: at,
                                    rule: rule.name.clone(),
                                    reason: AlertReason::Sequence,
                                    labels: obs_labels(obs),
                                    window_start_us: f,
                                    window_end_us: at,
                                    value: (at - f) as f64,
                                    detail: format!("gap={}us <= {}us", at - f, within_us),
                                });
                                *pending_first = None;
                            }
                        }
                    }
                    if read_value(first, obs).is_some() {
                        *pending_first = Some(at);
                    }
                }
                RuleKind::Threshold { .. } => unreachable!("no threshold rules here"),
            }
        }
    }

    fn advance_to(&mut self, wm: u64) {
        for ScanRule {
            rule,
            cond,
            last_seen,
            gap_fired,
            ..
        } in &mut self.rules
        {
            match &rule.kind {
                RuleKind::Sustained {
                    cmp, value, for_us, ..
                } => {
                    for (labels, state) in cond.iter_mut() {
                        if let (Some(t0), false) = (state.held_since, state.fired) {
                            if wm >= t0.saturating_add(*for_us) {
                                self.alerts.push(sustained_fire(
                                    &rule.name,
                                    labels.clone(),
                                    t0,
                                    *for_us,
                                    *cmp,
                                    *value,
                                ));
                                state.fired = true;
                            }
                        }
                    }
                }
                RuleKind::Absence { source, for_us }
                    if !*gap_fired && wm >= last_seen.saturating_add(*for_us) =>
                {
                    self.alerts
                        .push(absence_fire(&rule.name, source, *last_seen, *for_us));
                    *gap_fired = true;
                }
                _ => {}
            }
        }
    }

    fn held_since(&self, rule: usize, labels: &Labels) -> Option<u64> {
        self.rules[rule].cond.get(labels).and_then(|r| r.held_since)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    fn routed_rules_match_the_scan_oracle(
        ops in prop::collection::vec(
            (0u8..6, 0u8..12, 0u64..40, 0u8..3, any::<bool>(), any::<bool>()),
            0..160,
        ),
        for_step in 0u64..4,
    ) {
        let rules: Vec<AlertRule> = [
            format!("deg: sustained(gauge:g >= 1) for {}us", for_step * 50),
            "deg_acme: sustained(gauge:g{tenant=acme} >= 2) for 30us".to_string(),
            "low: sustained(gauge:h < 1) for 60us".to_string(),
            "quiet: absent(event:failure) for 90us".to_string(),
            "refail: seq(event:failure -> event:*) within 50us".to_string(),
            // A wildcard reader added after a name already has readers.
            "any_quiet: absent(event:*) for 70us".to_string(),
        ]
        .iter()
        .map(|text| parse_rule(text).unwrap().rule)
        .collect();
        let mut eng = QueryEngine::new();
        for r in &rules {
            eng.add_rule(r.clone()).unwrap();
        }
        let mut oracle = ScanRules::new(&rules);
        let mut seen = Vec::new();
        let mut t = 0u64;
        for (kind, module, dt, val, advance_first, resolved) in ops {
            t += dt;
            if advance_first {
                eng.advance_to(t);
                oracle.advance_to(t);
            }
            // Twelve modules over two tenants: many label sets per rule.
            let tenant = if module % 2 == 0 { "acme" } else { "globex" };
            let labels = Labels::module(tenant, format!("m{}", module / 2));
            let obs = match kind {
                0 | 1 => Obs::Gauge {
                    at_us: t,
                    name: ["g", "h"][kind as usize].to_string(),
                    labels: labels.clone(),
                    value: val as f64,
                },
                2 => Obs::Gauge {
                    at_us: t,
                    name: "g.unread".to_string(),
                    labels: labels.clone(),
                    value: val as f64,
                },
                3 => Obs::Event { at_us: t, kind: "failure".to_string(), labels: labels.clone() },
                4 => Obs::Event { at_us: t, kind: "placement".to_string(), labels: labels.clone() },
                _ => obs_from(5, t, val as u64 + 1),
            };
            oracle.observe(&obs);
            match &obs {
                Obs::Gauge { name, value, .. } if resolved => {
                    let series = eng.gauge_series(name, labels.clone());
                    eng.sample(series, t, *value);
                }
                _ => eng.observe(&obs),
            }
            seen.push(labels);
        }
        eng.advance_to(t + 1_000);
        oracle.advance_to(t + 1_000);
        prop_assert_eq!(eng.alerts(), &oracle.alerts[..]);
        for labels in &seen {
            for (i, name) in ["deg", "deg_acme", "low"].into_iter().enumerate() {
                prop_assert_eq!(eng.condition_held_since(name, labels), oracle.held_since(i, labels));
            }
        }
    }
}
