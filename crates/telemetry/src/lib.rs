//! # udc-telemetry — the observability substrate
//!
//! The paper argues a user-defined cloud must remain *accountable*: §4
//! asks "how can users trust the cloud?" and answers with verification
//! loops that compare what the platform claims (bills, placements,
//! isolation) against what actually happened. This crate is the
//! "actually happened" side: a deterministic observability substrate
//! the whole control plane reports into, with three pillars:
//!
//! - [`metrics`] — a `MetricsRegistry` of counters, gauges (with
//!   high-water marks), and log-bucketed histograms with bounded-error
//!   quantiles, keyed by metric name plus `(tenant, module)` [`Labels`];
//! - [`span`] — nested span tracing (`telemetry.span("sched.place")`)
//!   timestamped from the *simulated* clock, so traces are reproducible
//!   bit-for-bit across runs;
//! - [`recorder`] — a fixed-capacity flight recorder of structured
//!   [`Event`]s (placements, conflict resolutions, cold starts, failures,
//!   autoscale actions) that survives to JSON export for offline
//!   analysis.
//!
//! The hub itself ([`Telemetry`]) is cheap to clone and share. A
//! *disabled* hub (the default) is a true no-op: every method returns
//! after one `Option` check, so instrumented hot paths (placement,
//! message delivery) pay near-zero overhead when observability is off —
//! the criterion benches in `udc-bench` pin this below 5%.
//!
//! Time never comes from the host: callers install a clock source
//! (usually `udc-hal`'s `SimClock`) via [`Telemetry::set_clock`]; until
//! then a logical tick counter stands in, keeping traces deterministic
//! even clock-less.

pub mod alert;
pub mod decision;
pub mod export;
pub mod metrics;
pub mod recorder;
mod ring;
pub mod span;

use std::cell::{Ref, RefCell, RefMut};
use std::rc::Rc;

pub use alert::{AlertFire, AlertReason, AlertRecord};
pub use decision::{Decision, DecisionRecord, ReasonCode};
pub use export::Snapshot;
pub use metrics::{Histogram, HistogramSummary, SeriesKey, SeriesName};
pub use recorder::{Event, EventKind, FieldValue};
pub use ring::RingTail;
pub use span::{Span, SpanRecord};

/// Simulated-time microseconds (mirrors `udc_hal::clock::Micros`
/// without depending on it; the dependency points the other way).
pub type Micros = u64;

/// A clock the hub reads for span and event timestamps.
pub type ClockSource = Rc<dyn Fn() -> Micros>;

/// Causal trace context: carried explicitly along the request path
/// (submit → place → allocate → launch → actor/dist ops) so every
/// component's spans link into one DAG. Sim-clock based — there is no
/// wall-clock anywhere in a trace. `Copy` so threading it through call
/// chains costs nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceCtx {
    /// Trace the request belongs to (unique per hub).
    pub trace_id: u64,
    /// Span id of the caller — children opened via
    /// [`Telemetry::span_in`] attach beneath it.
    pub span: u32,
}

/// The `(tenant, module)` dimensions every metric and event can carry.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Labels {
    /// Owning tenant, when attributable.
    pub tenant: Option<String>,
    /// Module within the tenant's app, when attributable.
    pub module: Option<String>,
}

impl Labels {
    /// Platform-wide (unattributed) series.
    pub fn none() -> Self {
        Self::default()
    }

    /// Tenant-scoped series.
    pub fn tenant(tenant: impl Into<String>) -> Self {
        Self {
            tenant: Some(tenant.into()),
            module: None,
        }
    }

    /// Tenant- and module-scoped series.
    pub fn module(tenant: impl Into<String>, module: impl Into<String>) -> Self {
        Self {
            tenant: Some(tenant.into()),
            module: Some(module.into()),
        }
    }
}

struct State {
    clock: Option<ClockSource>,
    /// Logical fallback time: bumped per timestamped operation before a
    /// clock source is installed.
    ticks: Micros,
    metrics: metrics::MetricsRegistry,
    spans: span::SpanStore,
    recorder: recorder::FlightRecorder,
    decisions: decision::DecisionLog,
    alerts: alert::AlertLog,
    /// Next trace id to mint; every id in this hub is below it.
    next_trace: u64,
}

impl State {
    fn now(&mut self) -> Micros {
        match &self.clock {
            Some(clock) => clock(),
            None => {
                self.ticks += 1;
                self.ticks
            }
        }
    }
}

/// The observability hub. Clones share state; the default hub is
/// disabled and all operations are no-ops.
///
/// The hub is single-threaded (`Rc<RefCell<_>>`): the control plane
/// runs on one thread, and experiments run their trials in order on
/// one hub. Each operation borrows the state for its own duration, so
/// nothing may record into a hub while a [`HubView`] of it is held.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Rc<RefCell<State>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Contents are shared and unbounded; show only the mode.
        f.write_str(if self.is_enabled() {
            "Telemetry(enabled)"
        } else {
            "Telemetry(disabled)"
        })
    }
}

/// Default flight-recorder capacity (events retained).
pub const DEFAULT_RECORDER_CAPACITY: usize = 4096;

/// Default decision-log capacity (records retained).
pub const DEFAULT_DECISION_CAPACITY: usize = 16384;

/// Default alert-ring capacity (records retained).
pub const DEFAULT_ALERT_CAPACITY: usize = 4096;

/// Span-store capacity (spans retained; closed spans beyond it are
/// evicted oldest-first and counted in `dropped_spans`).
pub const SPAN_CAPACITY: usize = 4096;

impl Telemetry {
    /// A disabled hub: every operation is a no-op.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled hub with the default ring capacities.
    pub fn enabled() -> Self {
        Self::with_capacities(DEFAULT_RECORDER_CAPACITY, DEFAULT_DECISION_CAPACITY)
    }

    /// An enabled hub with explicit ring capacities for the flight
    /// recorder and the decision log. Both rings evict oldest-first and
    /// count drops, so hub memory stays bounded no matter how many
    /// events flow through (see the 1M-event test).
    pub fn with_capacities(recorder_capacity: usize, decision_capacity: usize) -> Self {
        Self {
            inner: Some(Rc::new(RefCell::new(State {
                clock: None,
                ticks: 0,
                metrics: metrics::MetricsRegistry::default(),
                spans: span::SpanStore::new(SPAN_CAPACITY),
                recorder: recorder::FlightRecorder::new(recorder_capacity),
                decisions: decision::DecisionLog::new(decision_capacity),
                alerts: alert::AlertLog::new(DEFAULT_ALERT_CAPACITY),
                next_trace: 0,
            }))),
        }
    }

    /// Whether this hub records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn state(&self) -> Option<RefMut<'_, State>> {
        self.inner.as_ref().map(|s| s.borrow_mut())
    }

    fn read(&self) -> Option<Ref<'_, State>> {
        self.inner.as_ref().map(|s| s.borrow())
    }

    /// Installs the timestamp source (typically the simulated clock),
    /// replacing any earlier one: a trial run on a shared hub installs
    /// its own clock before it records.
    pub fn set_clock(&self, clock: impl Fn() -> Micros + 'static) {
        if let Some(mut s) = self.state() {
            s.clock = Some(Rc::new(clock));
        }
    }

    /// Adds `delta` to a counter.
    pub fn incr(&self, name: &str, labels: Labels, delta: u64) {
        if let Some(mut s) = self.state() {
            s.metrics.incr(name, labels, delta);
        }
    }

    /// Reads a counter back (0 when absent or disabled).
    pub fn counter(&self, name: &str, labels: &Labels) -> u64 {
        self.read()
            .map(|s| s.metrics.counter(name, labels))
            .unwrap_or(0)
    }

    /// Sets a gauge, tracking its high-water mark.
    pub fn gauge_set(&self, name: &str, labels: Labels, value: i64) {
        if let Some(mut s) = self.state() {
            s.metrics.gauge_set(name, labels, value);
        }
    }

    /// Reads a gauge as `(current, high_water)`.
    pub fn gauge(&self, name: &str, labels: &Labels) -> Option<(i64, i64)> {
        self.read().and_then(|s| s.metrics.gauge(name, labels))
    }

    /// Records one observation into a log-bucketed histogram.
    pub fn observe(&self, name: &str, labels: Labels, value: u64) {
        if let Some(mut s) = self.state() {
            s.metrics.observe(name, labels, value);
        }
    }

    /// Summarizes a histogram (count, min/max, p50/p95/p99).
    pub fn histogram(&self, name: &str, labels: &Labels) -> Option<HistogramSummary> {
        self.read()
            .and_then(|s| s.metrics.histogram(name, labels).map(|h| h.summary()))
    }

    /// Opens a span; it closes when the guard drops (or via
    /// [`Span::exit`]). Nesting follows open-span order, forming a
    /// tree; the span inherits the trace of its enclosing open span.
    pub fn span(&self, name: &str) -> Span {
        match self.state() {
            Some(mut s) => {
                let at = s.now();
                let id = s.spans.begin(name, at);
                let trace = s.spans.trace_of(id);
                Span::active(self.clone(), id, trace)
            }
            None => Span::inert(),
        }
    }

    /// Mints a fresh trace and opens its root span. Call once per
    /// request (e.g. `Cloud::submit`); pass [`Span::ctx`] down the call
    /// chain so callee spans join the same trace.
    pub fn trace_root(&self, name: &str) -> Span {
        match self.state() {
            Some(mut s) => {
                let at = s.now();
                let trace = s.next_trace;
                s.next_trace += 1;
                let id = s.spans.begin_at(name, at, None, Some(trace));
                Span::active(self.clone(), id, Some(trace))
            }
            None => Span::inert(),
        }
    }

    /// Opens a span as an explicit child of `ctx` — the causal
    /// propagation primitive. Unlike [`Telemetry::span`], the parent is
    /// taken from the context rather than the open-span stack, so the
    /// link survives component boundaries.
    pub fn span_in(&self, ctx: &TraceCtx, name: &str) -> Span {
        match self.state() {
            Some(mut s) => {
                let at = s.now();
                let id = s
                    .spans
                    .begin_at(name, at, Some(ctx.span), Some(ctx.trace_id));
                Span::active(self.clone(), id, Some(ctx.trace_id))
            }
            None => Span::inert(),
        }
    }

    /// Convenience for call sites holding an `Option<TraceCtx>`:
    /// [`Telemetry::span_in`] when a context is present, plain
    /// [`Telemetry::span`] otherwise.
    pub fn span_opt(&self, ctx: Option<&TraceCtx>, name: &str) -> Span {
        match ctx {
            Some(c) => self.span_in(c, name),
            None => self.span(name),
        }
    }

    /// Appends a structured decision record (candidate considered,
    /// accept/reject, reason code) to the bounded decision log. Build
    /// the [`Decision`] behind an [`Telemetry::is_enabled`] check on
    /// hot paths — its `detail` string allocates.
    pub fn decide(&self, d: Decision<'_>) {
        if let Some(mut s) = self.state() {
            let at = s.now();
            s.decisions.record(d, at);
        }
    }

    /// Decision records so far (snapshot order). Mostly for tests; the
    /// JSON export carries the same data.
    pub fn decisions(&self) -> Vec<Rc<DecisionRecord>> {
        self.read()
            .map(|s| s.decisions.ring.records().cloned().collect())
            .unwrap_or_default()
    }

    pub(crate) fn end_span(&self, id: u32) {
        if let Some(mut s) = self.state() {
            let at = s.now();
            s.spans.end(id, at);
        }
    }

    /// Appends a structured event to the flight recorder.
    pub fn event(&self, kind: EventKind, labels: Labels, fields: &[(&str, FieldValue)]) {
        if let Some(mut s) = self.state() {
            let at = s.now();
            s.recorder.record(kind, labels, fields, at);
        }
    }

    /// Appends a fired alert to the bounded alert ring. The fire time
    /// is explicit in the [`AlertFire`] (a sim-clock window boundary
    /// computed by the rule engine), never read from the hub clock, so
    /// firing replayed alerts into a clock-less driver hub cannot
    /// perturb logical ticks.
    pub fn alert(&self, fire: AlertFire) {
        if let Some(mut s) = self.state() {
            s.alerts.record(fire);
        }
    }

    /// Alert records so far (snapshot order). Mostly for tests; the
    /// JSON export carries the same data.
    pub fn alerts(&self) -> Vec<Rc<AlertRecord>> {
        self.read()
            .map(|s| s.alerts.ring.records().cloned().collect())
            .unwrap_or_default()
    }

    /// Borrows the hub for one consistent by-reference look (`None` on
    /// a disabled hub). This is the live-feed primitive for `udc-query`:
    /// where [`Telemetry::snapshot`] copies everything, a view lends
    /// only what the reader asks for, and the `_since` accessors let a
    /// reader holding its own cursors skip what it has already seen.
    /// The hub stays borrowed until the view drops — record nothing into
    /// it meanwhile: a write through any clone panics.
    pub fn view(&self) -> Option<HubView<'_>> {
        self.read().map(|state| HubView { state })
    }

    /// A consistent copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        self.read()
            .map(|s| Snapshot::capture(&s))
            .unwrap_or_default()
    }
}

/// A borrowed, by-reference look at one hub (see [`Telemetry::view`]).
///
/// Cursors belong to the reader, never to the hub: any number of
/// independent readers can follow one hub, each passing back what its
/// own previous view reported ([`HubView::metric_writes`],
/// [`RingTail::next_seq`]).
pub struct HubView<'a> {
    state: Ref<'a, State>,
}

impl HubView<'_> {
    /// Counter and histogram writes the hub has taken so far: the
    /// `since` to pass to the next view's `_since` accessors.
    pub fn metric_writes(&self) -> u64 {
        self.state.metrics.writes()
    }

    /// `(series, cumulative value)` for every counter written after
    /// the hub's `since`-th metric write (0 = all), in series order.
    pub fn counters_since(&self, since: u64) -> impl Iterator<Item = (&SeriesKey, u64)> {
        self.state.metrics.counters_since(since)
    }

    /// `(series, current value)` for every gauge, in series order.
    pub fn gauges(&self) -> impl Iterator<Item = (&SeriesKey, i64)> {
        self.state.metrics.gauges().map(|(k, g)| (k, g.value))
    }

    /// `(series, cumulative histogram)` for every histogram written
    /// after the hub's `since`-th metric write (0 = all), in series
    /// order.
    pub fn histograms_since(&self, since: u64) -> impl Iterator<Item = (&SeriesKey, &Histogram)> {
        self.state.metrics.histograms_since(since)
    }

    /// [`HubView::counters_since`] for the series named `name` only: a
    /// range seek in the hub's `(name, labels)`-ordered map, so the
    /// cost follows that name's series, not the hub's.
    pub fn counters_named<'s>(
        &'s self,
        name: &'s SeriesName,
        since: u64,
    ) -> impl Iterator<Item = (&'s SeriesKey, u64)> {
        self.state.metrics.counters_named(name, since)
    }

    /// [`HubView::gauges`] for the series named `name` only.
    pub fn gauges_named<'s>(
        &'s self,
        name: &'s SeriesName,
    ) -> impl Iterator<Item = (&'s SeriesKey, i64)> {
        self.state
            .metrics
            .gauges_named(name)
            .map(|(k, g)| (k, g.value))
    }

    /// [`HubView::histograms_since`] for the series named `name` only.
    pub fn histograms_named<'s>(
        &'s self,
        name: &'s SeriesName,
        since: u64,
    ) -> impl Iterator<Item = (&'s SeriesKey, &'s Histogram)> {
        self.state.metrics.histograms_named(name, since)
    }

    /// Flight-recorder events with sequence number `seq` or later.
    pub fn events_since(&self, seq: u64) -> RingTail<'_, Event> {
        self.state.recorder.ring.since(seq)
    }

    /// Decision records with sequence number `seq` or later.
    pub fn decisions_since(&self, seq: u64) -> RingTail<'_, DecisionRecord> {
        self.state.decisions.ring.since(seq)
    }

    /// Records evicted so far by the event, decision and alert rings
    /// and the span store together.
    pub fn dropped(&self) -> u64 {
        let s = &*self.state;
        s.recorder.ring.dropped()
            + s.decisions.ring.dropped()
            + s.alerts.ring.dropped()
            + s.spans.dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hub_is_inert() {
        let tel = Telemetry::disabled();
        tel.incr("x", Labels::none(), 3);
        tel.observe("h", Labels::none(), 10);
        tel.gauge_set("g", Labels::none(), 5);
        let span = tel.span("nothing");
        drop(span);
        tel.event(EventKind::Failure, Labels::none(), &[]);
        assert_eq!(tel.counter("x", &Labels::none()), 0);
        assert!(tel.histogram("h", &Labels::none()).is_none());
        let snap = tel.snapshot();
        assert!(snap.counters.is_empty() && snap.spans.is_empty() && snap.events.is_empty());
    }

    #[test]
    fn counters_are_label_scoped() {
        let tel = Telemetry::enabled();
        tel.incr("runs", Labels::tenant("acme"), 2);
        tel.incr("runs", Labels::tenant("globex"), 5);
        tel.incr("runs", Labels::tenant("acme"), 1);
        assert_eq!(tel.counter("runs", &Labels::tenant("acme")), 3);
        assert_eq!(tel.counter("runs", &Labels::tenant("globex")), 5);
        assert_eq!(tel.counter("runs", &Labels::none()), 0);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let tel = Telemetry::enabled();
        let l = Labels::none();
        tel.gauge_set("depth", l.clone(), 4);
        tel.gauge_set("depth", l.clone(), 9);
        tel.gauge_set("depth", l.clone(), 2);
        assert_eq!(tel.gauge("depth", &l), Some((2, 9)));
    }

    #[test]
    fn an_enabled_hub_keeps_the_default_ring_capacities() {
        let hub = Telemetry::enabled();
        for _ in 0..DEFAULT_RECORDER_CAPACITY + 3 {
            hub.event(EventKind::Measurement, Labels::none(), &[]);
        }
        for _ in 0..DEFAULT_DECISION_CAPACITY + 2 {
            hub.decide(Decision {
                ctx: None,
                stage: "s",
                module: "m",
                candidate: "c",
                accepted: false,
                reason: ReasonCode::Capacity,
                score: None,
                detail: String::new(),
            });
        }
        let snap = hub.snapshot();
        assert_eq!(snap.events.len(), DEFAULT_RECORDER_CAPACITY);
        assert_eq!(snap.dropped_events, 3);
        assert_eq!(snap.decisions.len(), DEFAULT_DECISION_CAPACITY);
        assert_eq!(snap.dropped_decisions, 2);
    }

    #[test]
    fn memory_stays_bounded_under_a_million_events() {
        // Flight-recorder unbounded-growth edge: record 1M events (and
        // decisions) through bounded rings and assert retention never
        // exceeds the configured capacities, with every eviction
        // counted rather than silently lost.
        const RING: usize = 512;
        const TOTAL: u64 = 1_000_000;
        let hub = Telemetry::with_capacities(RING, RING);
        for i in 0..TOTAL {
            hub.event(
                EventKind::Measurement,
                Labels::none(),
                &[("i", FieldValue::from(i))],
            );
            hub.decide(Decision {
                ctx: None,
                stage: "s",
                module: "m",
                candidate: "c",
                accepted: false,
                reason: ReasonCode::Capacity,
                score: None,
                detail: String::new(),
            });
        }
        let snap = hub.snapshot();
        assert_eq!(snap.events.len(), RING, "event ring stayed at capacity");
        assert_eq!(
            snap.decisions.len(),
            RING,
            "decision ring stayed at capacity"
        );
        assert_eq!(snap.dropped_events, TOTAL - RING as u64);
        assert_eq!(snap.dropped_decisions, TOTAL - RING as u64);
        // The survivors are the newest records, their sequence numbers
        // still counting every record the hub took in.
        assert_eq!(snap.events.last().unwrap().seq, TOTAL - 1);
    }

    #[test]
    #[should_panic(expected = "already borrowed")]
    fn recording_while_a_view_is_held_panics() {
        let hub = Telemetry::enabled();
        let writer = hub.clone();
        let _view = hub.view().expect("enabled hub");
        writer.incr("x", Labels::none(), 1);
    }

    #[test]
    fn clock_source_timestamps_spans() {
        let tel = Telemetry::enabled();
        let t = Rc::new(std::cell::Cell::new(100));
        let tc = Rc::clone(&t);
        tel.set_clock(move || tc.get());
        let span = tel.span("work");
        t.set(250);
        span.exit();
        let snap = tel.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].start_us, 100);
        assert_eq!(snap.spans[0].end_us, Some(250));
    }

    /// The raw histogram series `name` (unlabelled) as the hub holds it.
    fn raw_histogram(hub: &Telemetry, name: &str) -> Histogram {
        let view = hub.view().expect("enabled hub");
        let found = view
            .histograms_named(&SeriesName::new(name), 0)
            .map(|(_, h)| h.clone())
            .next();
        found.unwrap_or_default()
    }

    fn placement_decision(ctx: Option<TraceCtx>) -> Decision<'static> {
        Decision {
            ctx,
            stage: "sched.place_task",
            module: "m0",
            candidate: "dev0",
            accepted: true,
            reason: ReasonCode::Accepted,
            score: Some(10),
            detail: String::new(),
        }
    }

    #[test]
    fn trials_in_order_fold_every_pillar_into_one_hub() {
        let hub = Telemetry::enabled();
        hub.incr("placements", Labels::none(), 2);
        hub.gauge_set("depth", Labels::none(), 4);
        hub.observe("latency", Labels::none(), 10);
        hub.event(EventKind::Placement, Labels::none(), &[]);

        // The second trial installs its own clock on the same hub.
        hub.set_clock(|| 777);
        hub.incr("placements", Labels::none(), 3);
        hub.incr("migrations", Labels::tenant("acme"), 1);
        hub.gauge_set("depth", Labels::none(), 9);
        hub.gauge_set("depth", Labels::none(), 1);
        hub.observe("latency", Labels::none(), 1000);
        hub.span("trial").exit();
        hub.event(EventKind::Measurement, Labels::none(), &[]);

        assert_eq!(hub.counter("placements", &Labels::none()), 5);
        assert_eq!(hub.counter("migrations", &Labels::tenant("acme")), 1);
        // A gauge holds the latest value; its high-water spans both trials.
        assert_eq!(hub.gauge("depth", &Labels::none()), Some((1, 9)));
        let h = hub.histogram("latency", &Labels::none()).unwrap();
        assert_eq!((h.count, h.min, h.max), (2, 10, 1000));

        let snap = hub.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].start_us, 777, "span takes the trial's clock");
        assert_eq!(snap.events.len(), 2);
        // Sequence numbers run on across trials; timestamps are the
        // trial's own.
        assert_eq!(snap.events[1].seq, 1);
        assert_eq!(snap.events[1].at_us, 777);
        assert_eq!(snap.events[1].kind, EventKind::Measurement);
    }

    #[test]
    fn a_trials_share_of_a_histogram_is_its_difference_across_the_trial() {
        // A driver reads one trial's observations from the shared hub as
        // the difference of the histogram's count and sum across it.
        let hub = Telemetry::enabled();
        let whole = Telemetry::enabled();
        for trial in 1..=3u64 {
            let before = raw_histogram(&hub, "lat");
            let mut own = Histogram::default();
            for v in (1..=200).map(|i| i * trial) {
                hub.observe("lat", Labels::none(), v);
                whole.observe("lat", Labels::none(), v);
                own.record(v);
            }
            let share = raw_histogram(&hub, "lat").diff(&before);
            assert_eq!((share.count(), share.sum()), (own.count(), own.sum()));
        }
        assert_eq!(
            hub.histogram("lat", &Labels::none()),
            whole.histogram("lat", &Labels::none())
        );
    }

    #[test]
    fn clones_share_one_hub_and_a_disabled_hub_stays_inert() {
        let hub = Telemetry::enabled();
        hub.incr("x", Labels::none(), 1);
        let alias = hub.clone();
        alias.incr("x", Labels::none(), 2);
        alias.event(EventKind::Placement, Labels::none(), &[]);
        assert_eq!(hub.counter("x", &Labels::none()), 3);
        assert_eq!(hub.snapshot().events.len(), 1);

        let disabled = Telemetry::disabled();
        let twin = disabled.clone();
        twin.set_clock(|| 5);
        twin.incr("x", Labels::none(), 1);
        assert!(!disabled.is_enabled() && !twin.is_enabled());
        assert_eq!(disabled.counter("x", &Labels::none()), 0);
        assert!(disabled.view().is_none());
    }

    #[test]
    fn sequential_trials_keep_their_traces_distinct() {
        // Each trial mints its own trace on the shared hub; the store
        // must hold one distinct, internally connected trace per trial.
        let hub = Telemetry::enabled();
        hub.trace_root("driver.submit").exit();
        for trial in 0..2u64 {
            hub.set_clock(move || 1_000 * trial);
            let root = hub.trace_root("trial.submit");
            let ctx = root.ctx().unwrap();
            hub.span_in(&ctx, "trial.place").exit();
            hub.decide(placement_decision(Some(ctx)));
            root.exit();
        }

        let snap = hub.snapshot();
        let mut traces: Vec<u64> = snap.spans.iter().filter_map(|s| s.trace).collect();
        traces.sort_unstable();
        traces.dedup();
        assert_eq!(traces.len(), 3, "driver trace + one per trial");
        for s in &snap.spans {
            if let Some(p) = s.parent {
                let parent = snap.spans.iter().find(|r| r.id == p).unwrap();
                assert_eq!(parent.trace, s.trace, "parent stays in the same trace");
            }
        }
        assert_eq!(snap.decisions.len(), 2);
        let d_traces: Vec<_> = snap.decisions.iter().map(|d| d.trace.unwrap()).collect();
        assert_ne!(d_traces[0], d_traces[1]);
        for d in &snap.decisions {
            assert!(
                snap.spans.iter().any(|s| s.trace == d.trace),
                "every decision's trace has spans"
            );
        }
    }

    #[test]
    fn alerts_sequence_across_trials_like_other_rings() {
        let fire = |at: u64, rule: &str| AlertFire {
            at_us: at,
            rule: rule.to_string(),
            reason: AlertReason::Threshold,
            labels: Labels::module("acme", "stage0"),
            window_start_us: at.saturating_sub(100),
            window_end_us: at,
            value: 7.0,
            detail: "count=7 > 4".to_string(),
        };
        let hub = Telemetry::enabled();
        hub.alert(fire(50, "first.rule"));
        // A later trial's clock does not restamp its alerts: each keeps
        // the fire time its rule computed, even one earlier than before.
        hub.set_clock(|| 10);
        hub.alert(fire(900, "second.rule"));
        hub.alert(fire(500, "second.rule"));
        let got = hub.alerts();
        assert_eq!(got.len(), 3);
        let stamps: Vec<_> = got.iter().map(|a| (a.seq, a.at_us)).collect();
        assert_eq!(stamps, vec![(0, 50), (1, 900), (2, 500)]);
        let snap = hub.snapshot();
        assert_eq!(snap.alerts.len(), 3);
        assert_eq!(snap.dropped_alerts, 0);
    }

    #[test]
    fn alerts_leave_the_fallback_ticks_alone() {
        let quiet = Telemetry::enabled();
        let alerted = Telemetry::enabled();
        alerted.alert(AlertFire {
            at_us: 40,
            rule: "r".to_string(),
            reason: AlertReason::Absence,
            labels: Labels::none(),
            window_start_us: 0,
            window_end_us: 40,
            value: 0.0,
            detail: String::new(),
        });
        for hub in [&quiet, &alerted] {
            hub.event(EventKind::Measurement, Labels::none(), &[]);
        }
        assert_eq!(
            quiet.snapshot().events[0].at_us,
            alerted.snapshot().events[0].at_us
        );
    }
}
