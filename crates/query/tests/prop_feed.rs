//! `HubFeed::poll` against its oracle.
//!
//! The feed reads a hub through cursors (write stamps for metric
//! series, sequence numbers for rings) and touches only what changed.
//! The oracle is the algorithm it replaced, kept here verbatim: take a
//! whole [`Snapshot`](udc_telemetry::Snapshot) every poll, diff every
//! series against the previous poll's copy, and filter ring records by
//! sequence number. Batches must match one for one, in order.
//!
//! The property drives random interleavings of every way a hub takes
//! data in (`incr` / `observe` / `gauge_set`, `event`, `decide`)
//! against two feeds polled independently, over rings small enough to
//! wrap between polls.
//!
//! A feed reading an engine's interest ([`HubFeed::reading`]) must
//! yield the oracle's batch with every observation the engine's
//! sources cannot read left out — wildcard event and decision sources
//! included — and advance its cursors and `missed()` exactly as an
//! all-interest feed does; an engine fed by it fires what one fed
//! everything fires.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;

use proptest::prelude::*;
use udc_query::rules::parse_source;
use udc_query::{parse_rule, HubFeed, Obs, QueryEngine, Source};
use udc_telemetry::{Decision, EventKind, Histogram, Labels, ReasonCode, SeriesKey, Telemetry};

/// The parent commit's `HubFeed`: snapshot the hub, diff everything.
#[derive(Default)]
struct OracleFeed {
    counters: BTreeMap<SeriesKey, u64>,
    hists: BTreeMap<SeriesKey, Histogram>,
    next_event_seq: u64,
    next_decision_seq: u64,
}

impl OracleFeed {
    fn poll(&mut self, hub: &Telemetry, now: u64) -> Vec<Obs> {
        let snap = hub.snapshot();
        // What `Telemetry::histograms_raw` returned: every cumulative
        // histogram, cloned.
        let hists: Vec<(SeriesKey, Histogram)> = hub
            .view()
            .map(|v| {
                v.histograms_since(0)
                    .map(|(k, h)| (k.clone(), h.clone()))
                    .collect()
            })
            .unwrap_or_default();
        let mut out = Vec::new();
        for (name, labels, value) in snap.counters {
            let key = (name, labels);
            let prev = self.counters.get(&key).copied().unwrap_or(0);
            let delta = value.saturating_sub(prev);
            self.counters.insert(key.clone(), value);
            if delta > 0 {
                out.push(Obs::Counter {
                    at_us: now,
                    name: key.0,
                    labels: key.1,
                    delta,
                });
            }
        }
        for (name, labels, value, _high_water) in snap.gauges {
            out.push(Obs::Gauge {
                at_us: now,
                name,
                labels,
                value: value as f64,
            });
        }
        for (key, hist) in hists {
            let delta = match self.hists.get(&key) {
                Some(prev) => hist.diff(prev),
                None => hist.clone(),
            };
            self.hists.insert(key.clone(), hist);
            if delta.count() > 0 {
                out.push(Obs::Hist {
                    at_us: now,
                    name: key.0,
                    labels: key.1,
                    delta: Box::new(delta),
                });
            }
        }
        for e in snap.events {
            if e.seq >= self.next_event_seq {
                self.next_event_seq = e.seq + 1;
                out.push(Obs::Event {
                    at_us: e.at_us,
                    kind: e.kind.as_str().to_string(),
                    labels: e.labels.clone(),
                });
            }
        }
        for d in snap.decisions {
            if d.seq >= self.next_decision_seq {
                self.next_decision_seq = d.seq + 1;
                out.push(Obs::Decision {
                    at_us: d.at_us,
                    stage: d.stage.clone(),
                    module: d.module.clone(),
                    reason: d.reason.as_str().to_string(),
                    accepted: d.accepted,
                });
            }
        }
        out.sort_by_key(Obs::at_us);
        out
    }
}

fn labels(which: u64) -> Labels {
    match which % 3 {
        0 => Labels::none(),
        1 => Labels::tenant("acme"),
        _ => Labels::module("acme", "m0"),
    }
}

fn decide(hub: &Telemetry, val: u64) {
    hub.decide(Decision {
        ctx: None,
        stage: if val.is_multiple_of(2) {
            "sched.place"
        } else {
            "heal.detect"
        },
        module: "m0",
        candidate: "dev0",
        accepted: val.is_multiple_of(3),
        reason: ReasonCode::Capacity,
        score: None,
        detail: String::new(),
    });
}

/// `Obs` carries a boxed histogram and no `PartialEq`; its `Debug` form
/// shows every field.
fn render(batch: &[Obs]) -> String {
    format!("{batch:#?}")
}

fn ring_records(batch: &[Obs]) -> u64 {
    batch
        .iter()
        .filter(|o| matches!(o, Obs::Event { .. } | Obs::Decision { .. }))
        .count() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn poll_equals_the_snapshot_diff_oracle(
        ops in prop::collection::vec((0u8..9, 0u64..40, 0u64..1000), 0..120),
        event_cap in 1usize..6,
        decision_cap in 0usize..6,
    ) {
        let clock = Rc::new(Cell::new(0));
        let hub = Telemetry::with_capacities(event_cap, decision_cap);
        {
            let c = Rc::clone(&clock);
            hub.set_clock(move || c.get());
        }

        // Two independent (feed, oracle) pairs on the one hub, plus how
        // many ring records each feed has delivered.
        let mut pairs = [
            (HubFeed::new(), OracleFeed::default(), 0u64),
            (HubFeed::new(), OracleFeed::default(), 0u64),
        ];
        let mut recorded = 0u64;
        let mut t = 0u64;
        for &(kind, dt, val) in &ops {
            t += dt;
            clock.set(t);
            match kind {
                0 => hub.incr("hits", labels(val), val % 5),
                1 => hub.observe("lat", labels(val), val),
                2 => hub.gauge_set("depth", labels(val), val as i64 - 500),
                3 => {
                    hub.event(EventKind::Failure, labels(val), &[]);
                    recorded += 1;
                }
                4 => {
                    decide(&hub, val);
                    recorded += 1;
                }
                _ => {
                    let (feed, oracle, delivered) = &mut pairs[kind as usize % 2];
                    let got = feed.poll(&hub, t);
                    let want = oracle.poll(&hub, t);
                    prop_assert_eq!(render(&got), render(&want));
                    *delivered += ring_records(&got);
                }
            }
        }
        // Once caught up, every record the hub ever took in was either
        // delivered to a feed or counted as missed by it.
        for (feed, oracle, delivered) in &mut pairs {
            let got = feed.poll(&hub, t);
            prop_assert_eq!(render(&got), render(&oracle.poll(&hub, t)));
            *delivered += ring_records(&got);
            prop_assert_eq!(*delivered + feed.missed(), recorded);
            let only_gauges = |o: &Obs| matches!(o, Obs::Gauge { .. });
            prop_assert!(feed.poll(&hub, t).iter().all(only_gauges));
        }
    }
}

#[test]
fn a_disabled_hub_yields_nothing() {
    let hub = Telemetry::disabled();
    hub.incr("hits", Labels::none(), 3);
    hub.event(EventKind::Failure, Labels::none(), &[]);
    let mut feed = HubFeed::new();
    assert!(feed.poll(&hub, 100).is_empty());
    assert!(OracleFeed::default().poll(&hub, 100).is_empty());
    assert_eq!((feed.missed(), feed.hub_dropped()), (0, 0));
}

#[test]
fn missed_counts_what_the_ring_evicted_between_polls() {
    let hub = Telemetry::with_capacities(2, 2);
    let mut feed = HubFeed::new();
    let mut late = HubFeed::new();
    hub.event(EventKind::Failure, Labels::none(), &[]);
    assert_eq!(ring_records(&feed.poll(&hub, 10)), 1);
    for _ in 0..5 {
        hub.event(EventKind::Failure, Labels::none(), &[]);
    }
    // Five new events through a ring of two: three were gone before
    // this poll could read them.
    assert_eq!(ring_records(&feed.poll(&hub, 20)), 2);
    assert_eq!(feed.missed(), 3);
    assert_eq!(feed.hub_dropped(), 4);
    // A feed that arrives late missed everything already evicted.
    assert_eq!(ring_records(&late.poll(&hub, 20)), 2);
    assert_eq!(late.missed(), 4);
}

/// Whether `src` reads `obs`'s stream and name: what a feed's interest
/// keeps (label filters narrow the engine, not the feed).
fn named_by(src: &Source, obs: &Obs) -> bool {
    match (src, obs) {
        (Source::Counter { name, .. }, Obs::Counter { name: n, .. })
        | (Source::Gauge { name, .. }, Obs::Gauge { name: n, .. })
        | (Source::Hist { name, .. }, Obs::Hist { name: n, .. }) => name == n,
        (Source::Event { kind, .. }, Obs::Event { kind: k, .. }) => {
            kind.as_ref().is_none_or(|w| w == k)
        }
        (Source::Decision { stage, .. }, Obs::Decision { stage: s, .. }) => {
            stage.as_ref().is_none_or(|w| w == s)
        }
        _ => false,
    }
}

/// Sources an engine may read: names the hub writes, names it never
/// writes, a prefix of a written name, label filters, and the two
/// wildcards.
const SOURCES: [&str; 12] = [
    "counter:hits",
    "counter:hits.x",
    "counter:never",
    "gauge:depth",
    "gauge:depth{tenant=acme}",
    "hist:lat",
    "hist:la",
    "event:failure",
    "event:*",
    "decision:heal.detect",
    "decision:*",
    "decision:sched.place/accepted",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn interest_poll_equals_the_oracle_filtered(
        ops in prop::collection::vec((0u8..9, 0u64..40, 0u64..1000), 0..120),
        pick in 0u16..(1 << 12),
        event_cap in 1usize..6,
        decision_cap in 0usize..6,
    ) {
        let sources: Vec<Source> = (0..SOURCES.len())
            .filter(|i| pick & (1 << i) != 0)
            .map(|i| parse_source(SOURCES[i]).unwrap())
            .collect();
        // One threshold rule (and its query) per source.
        let engine = || {
            let mut e = QueryEngine::new();
            for i in (0..SOURCES.len()).filter(|i| pick & (1 << i) != 0) {
                let parsed = parse_rule(&format!("r{i}: count({}) over 100us >= 1", SOURCES[i])).unwrap();
                for q in parsed.queries {
                    e.register(q).unwrap();
                }
                e.add_rule(parsed.rule).unwrap();
            }
            e
        };
        let (mut routed, mut fed_all) = (engine(), engine());
        let clock = Rc::new(Cell::new(0));
        let hub = Telemetry::with_capacities(event_cap, decision_cap);
        let c = Rc::clone(&clock);
        hub.set_clock(move || c.get());
        let mut feed = HubFeed::reading(routed.interest());
        let mut all = HubFeed::new();
        let mut oracle = OracleFeed::default();
        let mut t = 0u64;
        for &(kind, dt, val) in &ops {
            t += dt;
            clock.set(t);
            let name = |base: &'static str| match val % 3 {
                0 => base,
                1 => ["hits.x", "depth.y", "la"][(val % 9 / 3) as usize],
                _ => "other",
            };
            match kind {
                0 => hub.incr(name("hits"), labels(val), val % 5),
                1 => hub.observe(name("lat"), labels(val), val),
                2 => hub.gauge_set(name("depth"), labels(val), val as i64 - 500),
                3 => hub.event(EventKind::Failure, labels(val), &[]),
                4 => hub.event(EventKind::Placement, labels(val), &[]),
                5 => decide(&hub, val),
                _ => {
                    let got = feed.poll(&hub, t);
                    let every = all.poll(&hub, t);
                    let mut want = oracle.poll(&hub, t);
                    prop_assert_eq!(render(&every), render(&want));
                    want.retain(|o| sources.iter().any(|s| named_by(s, o)));
                    prop_assert_eq!(render(&got), render(&want));
                    prop_assert_eq!((feed.missed(), feed.hub_dropped()), (all.missed(), all.hub_dropped()));
                    routed.ingest(got);
                    fed_all.ingest(every);
                    routed.advance_to(t);
                    fed_all.advance_to(t);
                }
            }
        }
        prop_assert_eq!(routed.outputs(), fed_all.outputs());
        prop_assert_eq!(routed.alerts(), fed_all.alerts());
    }
}
