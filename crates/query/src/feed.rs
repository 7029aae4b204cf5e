//! Live feed: turns a telemetry hub's state into the engine's
//! observation stream.
//!
//! Poll the feed at barriers: it reads what the hub took in since its
//! previous poll, so the resulting stream (and therefore every query
//! output and alert) is byte-identical run to run.
//!
//! What a poll yields, of what the feed's [`Interest`] names (all of it
//! for [`HubFeed::new`], only what an engine reads for
//! [`HubFeed::reading`]):
//!
//! - **counters** — the increment since the previous poll, stamped at
//!   the barrier time `now` (barrier-granularity attribution);
//! - **gauges** — the current value, sampled every poll (this is what
//!   polling control loops see, so subscriptions replicate it);
//! - **histograms** — the bucket-delta since the previous poll
//!   ([`Histogram::diff`]), exact for count/sum/buckets;
//! - **events / decisions** — every record not yet consumed (tracked
//!   by ring sequence number), at its *true* simulated record time.
//!
//! Metric samples come in `(name, labels)` order, then events, then
//! decisions, and the batch is stable-sorted by timestamp before it is
//! returned, so replaying a recorded artifact (same sort, see
//! [`crate::replay`]) produces the same per-window contents and the
//! same rule transitions. A feed reading an engine's interest yields
//! exactly the all-interest batch with what the engine does not read
//! left out.
//!
//! What a poll costs: one lock of the hub and a by-reference look
//! ([`Telemetry::view`]). An all-interest feed compares a write stamp
//! per counter and histogram series and samples every gauge; a feed
//! reading an engine's interest instead seeks each name the engine
//! reads in the hub's `(name, labels)`-ordered maps, so its cost
//! follows those names' series, not the hub's size, and it samples
//! only the gauges something reads. Real work (a lookup in the feed's
//! own last-seen map, a name and label clone for the emitted [`Obs`])
//! happens only for series written since *this feed's* previous poll.
//! Ring records are walked from the feed's cursor; one no reader can
//! match costs a name comparison and is never cloned. The cursors live
//! in the feed, so any number of feeds can follow one hub without
//! seeing each other.

use std::collections::BTreeMap;
use std::iter::FlatMap;
use std::slice;

use udc_telemetry::{Histogram, SeriesKey, SeriesName, Telemetry};

use crate::engine::Obs;
use crate::Micros;

/// Which series and records a feed reads, per stream: every one
/// (`None`, the default) or those with one of the listed names
/// (sorted). An engine's is [`QueryEngine::interest`](crate::QueryEngine::interest).
#[derive(Clone, Debug, Default)]
pub struct Interest {
    pub(crate) counters: Option<Vec<SeriesName>>,
    pub(crate) gauges: Option<Vec<SeriesName>>,
    pub(crate) hists: Option<Vec<SeriesName>>,
    /// Event kind names.
    pub(crate) events: Option<Vec<String>>,
    /// Decision stages.
    pub(crate) decisions: Option<Vec<String>>,
}

/// Whether `names` (sorted; `None` = every name) holds `name`.
fn reads(names: &Option<Vec<String>>, name: &str) -> bool {
    names
        .as_ref()
        .is_none_or(|n| n.binary_search_by(|k| k.as_str().cmp(name)).is_ok())
}

/// One metric stream's series: every one the hub holds, or those of a
/// list of names, looked up name by name.
enum Series<A, B> {
    All(A),
    Named(B),
}

impl<T, A: Iterator<Item = T>, B: Iterator<Item = T>> Iterator for Series<A, B> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            Series::All(a) => a.next(),
            Series::Named(b) => b.next(),
        }
    }
}

/// The series `names` asks for: `all()` when it is `None`, else
/// `named(name)` for each name in order.
fn series<'n, A, B, F>(
    names: &'n Option<Vec<SeriesName>>,
    all: impl FnOnce() -> A,
    named: F,
) -> Series<A, FlatMap<slice::Iter<'n, SeriesName>, B, F>>
where
    B: IntoIterator,
    F: FnMut(&'n SeriesName) -> B,
{
    match names {
        None => Series::All(all()),
        Some(names) => Series::Named(names.iter().flat_map(named)),
    }
}

/// Stateful cursor over one hub. Keep one feed per hub for the life of
/// the run; its diffs assume the hub only accumulates (which every hub
/// does).
#[derive(Default)]
pub struct HubFeed {
    interest: Interest,
    counters: BTreeMap<SeriesKey, u64>,
    hists: BTreeMap<SeriesKey, Histogram>,
    /// The hub's metric-write count at the previous poll.
    metric_writes: u64,
    next_event_seq: u64,
    next_decision_seq: u64,
    missed: u64,
    hub_dropped: u64,
}

impl HubFeed {
    /// A fresh feed of everything (first poll yields everything
    /// recorded so far).
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh feed of only what `interest` names. Its interest is
    /// fixed: a counter or histogram it starts reading later would
    /// have no last-seen value to diff against.
    pub fn reading(interest: Interest) -> Self {
        Self {
            interest,
            ..Self::default()
        }
    }

    /// Events and decisions the hub's rings evicted before this feed
    /// read them: they never reached the engine. Non-zero means the
    /// rings are too small for the poll cadence. Counted whatever the
    /// interest: a cursor passes every record.
    pub fn missed(&self) -> u64 {
        self.missed
    }

    /// Records the hub's rings and span store had evicted in total
    /// (`dropped_events + dropped_decisions + dropped_alerts +
    /// dropped_spans`) as of the previous poll.
    pub fn hub_dropped(&self) -> u64 {
        self.hub_dropped
    }

    /// Drains everything new since the previous poll that the feed's
    /// interest names, as a timestamp-ordered observation batch. `now`
    /// is the barrier's sim time; metric samples are stamped with it.
    pub fn poll(&mut self, hub: &Telemetry, now: Micros) -> Vec<Obs> {
        let Some(view) = hub.view() else {
            return Vec::new();
        };
        let since = self.metric_writes;
        let want = &self.interest;
        let mut out = Vec::new();
        let counters = series(
            &want.counters,
            || view.counters_since(since),
            |name| view.counters_named(name, since),
        );
        for (key, value) in counters {
            let delta = match self.counters.get_mut(key) {
                Some(prev) => value.saturating_sub(std::mem::replace(prev, value)),
                None => {
                    self.counters.insert(key.clone(), value);
                    value
                }
            };
            if delta > 0 {
                out.push(Obs::Counter {
                    at_us: now,
                    name: key.0.clone(),
                    labels: key.1.clone(),
                    delta,
                });
            }
        }
        let gauges = series(
            &want.gauges,
            || view.gauges(),
            |name| view.gauges_named(name),
        );
        for (key, value) in gauges {
            out.push(Obs::Gauge {
                at_us: now,
                name: key.0.clone(),
                labels: key.1.clone(),
                value: value as f64,
            });
        }
        let hists = series(
            &want.hists,
            || view.histograms_since(since),
            |name| view.histograms_named(name, since),
        );
        for (key, hist) in hists {
            let delta = match self.hists.get_mut(key) {
                Some(prev) => {
                    let delta = hist.diff(prev);
                    prev.clone_from(hist);
                    delta
                }
                None => {
                    self.hists.insert(key.clone(), hist.clone());
                    hist.clone()
                }
            };
            if delta.count() > 0 {
                out.push(Obs::Hist {
                    at_us: now,
                    name: key.0.clone(),
                    labels: key.1.clone(),
                    delta: Box::new(delta),
                });
            }
        }
        self.metric_writes = view.metric_writes();
        let events = view.events_since(self.next_event_seq);
        self.missed += events.missed;
        self.next_event_seq = self.next_event_seq.max(events.next_seq);
        for e in events.records {
            let kind = e.kind.as_str();
            if reads(&want.events, kind) {
                out.push(Obs::Event {
                    at_us: e.at_us,
                    kind: kind.to_string(),
                    labels: e.labels.clone(),
                });
            }
        }
        let decisions = view.decisions_since(self.next_decision_seq);
        self.missed += decisions.missed;
        self.next_decision_seq = self.next_decision_seq.max(decisions.next_seq);
        for d in decisions.records {
            if reads(&want.decisions, &d.stage) {
                out.push(Obs::Decision {
                    at_us: d.at_us,
                    stage: d.stage.clone(),
                    module: d.module.clone(),
                    reason: d.reason.as_str().to_string(),
                    accepted: d.accepted,
                });
            }
        }
        self.hub_dropped = view.dropped();
        drop(view);
        // Stable sort: equal timestamps keep the construction order
        // (metrics, then events, then decisions) — the same order the
        // replay path reconstructs.
        out.sort_by_key(Obs::at_us);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udc_telemetry::{Decision, EventKind, Labels, ReasonCode};

    #[test]
    fn poll_diffs_counters_and_histograms() {
        let hub = Telemetry::enabled();
        let mut feed = HubFeed::new();
        hub.incr("hits", Labels::none(), 5);
        hub.observe("lat", Labels::none(), 100);
        hub.observe("lat", Labels::none(), 200);
        let batch = feed.poll(&hub, 1_000);
        let deltas: Vec<u64> = batch
            .iter()
            .filter_map(|o| match o {
                Obs::Counter { delta, .. } => Some(*delta),
                _ => None,
            })
            .collect();
        assert_eq!(deltas, vec![5]);
        let hist_counts: Vec<u64> = batch
            .iter()
            .filter_map(|o| match o {
                Obs::Hist { delta, .. } => Some(delta.count()),
                _ => None,
            })
            .collect();
        assert_eq!(hist_counts, vec![2]);

        // Second poll sees only what happened since.
        hub.incr("hits", Labels::none(), 2);
        let batch = feed.poll(&hub, 2_000);
        let deltas: Vec<u64> = batch
            .iter()
            .filter_map(|o| match o {
                Obs::Counter { delta, .. } => Some(*delta),
                _ => None,
            })
            .collect();
        assert_eq!(deltas, vec![2]);
        assert!(
            !batch.iter().any(|o| matches!(o, Obs::Hist { .. }),),
            "no new observations"
        );
    }

    #[test]
    fn poll_consumes_events_and_decisions_once_at_true_times() {
        let hub = Telemetry::enabled();
        hub.set_clock(|| 400);
        let mut feed = HubFeed::new();
        hub.event(EventKind::Failure, Labels::module("acme", "m0"), &[]);
        hub.decide(Decision {
            ctx: None,
            stage: "heal.detect",
            module: "m0",
            candidate: "m0",
            accepted: true,
            reason: ReasonCode::Evicted,
            score: None,
            detail: String::new(),
        });
        let batch = feed.poll(&hub, 1_000);
        assert_eq!(batch.len(), 2);
        assert!(batch.iter().all(|o| o.at_us() == 400), "true record times");
        assert!(matches!(&batch[0], Obs::Event { kind, .. } if kind == "failure"));
        assert!(
            matches!(&batch[1], Obs::Decision { stage, accepted: true, .. } if stage == "heal.detect")
        );
        assert!(feed.poll(&hub, 2_000).is_empty(), "consumed exactly once");
    }

    #[test]
    fn gauges_are_sampled_every_poll() {
        let hub = Telemetry::enabled();
        let mut feed = HubFeed::new();
        hub.gauge_set("depth", Labels::none(), 7);
        for now in [100, 200] {
            let batch = feed.poll(&hub, now);
            assert!(batch
                .iter()
                .any(|o| matches!(o, Obs::Gauge { value, .. } if *value == 7.0)));
        }
    }

    #[test]
    fn batch_is_sorted_by_timestamp() {
        let hub = Telemetry::enabled();
        hub.set_clock(|| 50);
        let mut feed = HubFeed::new();
        hub.event(EventKind::Failure, Labels::none(), &[]);
        hub.incr("hits", Labels::none(), 1);
        let batch = feed.poll(&hub, 1_000);
        // The event (t=50) sorts before the counter sample (t=1000)
        // even though counters are collected first.
        assert!(matches!(&batch[0], Obs::Event { .. }));
        assert!(matches!(&batch[1], Obs::Counter { .. }));
    }
}
