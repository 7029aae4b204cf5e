//! The incremental continuous-query engine.
//!
//! One engine instance lives on the single-threaded driver; it ingests
//! an ordered stream of [`Obs`] (from a live hub via
//! [`crate::feed::HubFeed`] or from a recorded artifact via
//! [`crate::replay`]), maintains per-window accumulators, and emits
//! [`QueryOutput`]s whenever [`QueryEngine::advance_to`] moves the
//! watermark past a window's end. Rules (see [`crate::rules`]) ride the
//! same stream and fire [`AlertFire`]s at deterministic sim-clock
//! boundaries.
//!
//! Output ordering contract (the oracle reproduces it exactly): within
//! one `advance_to`, outputs are query-major in registration order,
//! window index ascending; across calls the sequence only appends.
//! Every window from index 0 is emitted, including empty ones — an
//! empty window is data (absence rules and EWMA carry depend on it).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use udc_telemetry::{AlertFire, Histogram, Labels, SeriesKey, SeriesName, Telemetry};

use crate::feed::Interest;
use crate::rules::{AlertRule, RuleState};
use crate::window::{Aggregation, WindowSpec};
use crate::Micros;

/// One observation in the unified retro/live stream.
#[derive(Clone, Debug)]
pub enum Obs {
    /// A counter increment of `delta`, stamped at the barrier that
    /// polled it (live) or reconstructed (replay).
    Counter {
        /// Sim time of the sample.
        at_us: Micros,
        /// Counter name.
        name: String,
        /// Series labels.
        labels: Labels,
        /// Increment since the previous sample.
        delta: u64,
    },
    /// A gauge sample (current value at the poll barrier).
    Gauge {
        /// Sim time of the sample.
        at_us: Micros,
        /// Gauge name.
        name: String,
        /// Series labels.
        labels: Labels,
        /// Sampled value.
        value: f64,
    },
    /// New histogram observations since the previous sample, as a
    /// bucket-delta histogram ([`Histogram::diff`]).
    Hist {
        /// Sim time of the sample.
        at_us: Micros,
        /// Histogram name.
        name: String,
        /// Series labels.
        labels: Labels,
        /// Observations added since the previous sample (boxed: a
        /// histogram is ~640 bytes and would otherwise dominate the
        /// size of every `Obs` in the stream).
        delta: Box<Histogram>,
    },
    /// A flight-recorder event (true record time).
    Event {
        /// Sim time the event was recorded.
        at_us: Micros,
        /// Stable event-kind name (`EventKind::as_str`).
        kind: String,
        /// Event labels.
        labels: Labels,
    },
    /// A decision record (true record time).
    Decision {
        /// Sim time the decision was recorded.
        at_us: Micros,
        /// Decision stage, e.g. `"sched.place_task"`.
        stage: String,
        /// Module the decision concerned.
        module: String,
        /// Stable reason-code name.
        reason: String,
        /// Whether the candidate was accepted.
        accepted: bool,
    },
}

/// The streams an observation can belong to, in [`Obs`] variant order.
const KINDS: usize = 5;

impl Obs {
    /// The stream the observation belongs to and its name there (metric
    /// name, event kind, or decision stage).
    fn key(&self) -> (usize, &str) {
        match self {
            Obs::Counter { name, .. } => (0, name),
            Obs::Gauge { name, .. } => (1, name),
            Obs::Hist { name, .. } => (2, name),
            Obs::Event { kind, .. } => (3, kind),
            Obs::Decision { stage, .. } => (4, stage),
        }
    }

    /// The observation's simulated timestamp.
    pub fn at_us(&self) -> Micros {
        match self {
            Obs::Counter { at_us, .. }
            | Obs::Gauge { at_us, .. }
            | Obs::Hist { at_us, .. }
            | Obs::Event { at_us, .. }
            | Obs::Decision { at_us, .. } => *at_us,
        }
    }
}

/// Optional `(tenant, module)` filter; `None` matches anything.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LabelFilter {
    /// Required tenant, if any.
    pub tenant: Option<String>,
    /// Required module, if any.
    pub module: Option<String>,
}

impl LabelFilter {
    /// Matches every series.
    pub fn any() -> Self {
        Self::default()
    }

    /// Whether `labels` satisfies the filter.
    pub fn matches(&self, labels: &Labels) -> bool {
        self.tenant
            .as_ref()
            .is_none_or(|t| labels.tenant.as_deref() == Some(t.as_str()))
            && self
                .module
                .as_ref()
                .is_none_or(|m| labels.module.as_deref() == Some(m.as_str()))
    }
}

/// What stream a query (or rule) reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Source {
    /// Counter increments for `name`.
    Counter {
        /// Metric name.
        name: String,
        /// Series filter.
        labels: LabelFilter,
    },
    /// Gauge samples for `name`.
    Gauge {
        /// Metric name.
        name: String,
        /// Series filter.
        labels: LabelFilter,
    },
    /// Histogram observation deltas for `name`.
    Hist {
        /// Metric name.
        name: String,
        /// Series filter.
        labels: LabelFilter,
    },
    /// Flight-recorder events (each contributes value 1).
    Event {
        /// Required kind name, or `None` for every kind.
        kind: Option<String>,
        /// Series filter.
        labels: LabelFilter,
    },
    /// Decision records (each contributes value 1).
    Decision {
        /// Required stage, or `None` for every stage.
        stage: Option<String>,
        /// Required module, or `None` for any.
        module: Option<String>,
        /// Required reason-code name, or `None` for any.
        reason: Option<String>,
        /// Required accept/reject outcome, or `None` for either.
        accepted: Option<bool>,
    },
}

/// How one observation contributes to a window.
pub(crate) enum Contribution<'a> {
    /// A scalar sample.
    Value(f64),
    /// A batch of histogram observations.
    Hist(&'a Histogram),
}

impl Source {
    /// The stream this source reads and the name it requires there
    /// (`None`: every event kind or decision stage) — the key the
    /// engine indexes its readers by. Every observation the source
    /// has a [`Source::contribution`] for shares it.
    fn key(&self) -> (usize, Option<&str>) {
        match self {
            Source::Counter { name, .. } => (0, Some(name)),
            Source::Gauge { name, .. } => (1, Some(name)),
            Source::Hist { name, .. } => (2, Some(name)),
            Source::Event { kind, .. } => (3, kind.as_deref()),
            Source::Decision { stage, .. } => (4, stage.as_deref()),
        }
    }

    /// Whether `obs` feeds this source, and with what contribution.
    pub(crate) fn contribution<'a>(&self, obs: &'a Obs) -> Option<Contribution<'a>> {
        match (self, obs) {
            (
                Source::Counter { name, labels },
                Obs::Counter {
                    name: n,
                    labels: l,
                    delta,
                    ..
                },
            ) if n == name && labels.matches(l) => Some(Contribution::Value(*delta as f64)),
            (
                Source::Gauge { name, labels },
                Obs::Gauge {
                    name: n,
                    labels: l,
                    value,
                    ..
                },
            ) if n == name && labels.matches(l) => Some(Contribution::Value(*value)),
            (
                Source::Hist { name, labels },
                Obs::Hist {
                    name: n,
                    labels: l,
                    delta,
                    ..
                },
            ) if n == name && labels.matches(l) => Some(Contribution::Hist(delta)),
            (
                Source::Event { kind, labels },
                Obs::Event {
                    kind: k, labels: l, ..
                },
            ) if kind.as_ref().is_none_or(|want| want == k) && labels.matches(l) => {
                Some(Contribution::Value(1.0))
            }
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
            ) if stage.as_ref().is_none_or(|want| want == s)
                && module.as_ref().is_none_or(|want| want == m)
                && reason.as_ref().is_none_or(|want| want == r)
                && accepted.is_none_or(|want| want == *a) =>
            {
                Some(Contribution::Value(1.0))
            }
            _ => None,
        }
    }

    /// The labels an alert fired from this source should carry (the
    /// filter's, when concrete).
    pub(crate) fn alert_labels(&self) -> Labels {
        let f = match self {
            Source::Counter { labels, .. }
            | Source::Gauge { labels, .. }
            | Source::Hist { labels, .. }
            | Source::Event { labels, .. } => labels.clone(),
            Source::Decision { module, .. } => LabelFilter {
                tenant: None,
                module: module.clone(),
            },
        };
        Labels {
            tenant: f.tenant,
            module: f.module,
        }
    }
}

/// A named continuous query: aggregate `source` over `window`.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// Unique query name, e.g. `"heal.failure_rate"`.
    pub name: String,
    /// Stream the query reads.
    pub source: Source,
    /// Fold computed per window.
    pub agg: Aggregation,
    /// Window shape.
    pub window: WindowSpec,
}

/// One closed window's result.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryOutput {
    /// Name of the query that produced it.
    pub query: String,
    /// Window index (`start = index · slide`).
    pub window_index: u64,
    /// Window start (inclusive).
    pub window_start_us: Micros,
    /// Window end (exclusive) — also the emission watermark.
    pub window_end_us: Micros,
    /// Aggregate value.
    pub value: f64,
    /// Observations that fell in the window (0 marks an empty window;
    /// EWMA still re-emits its carried estimate).
    pub count: u64,
}

/// Incremental per-window state.
#[derive(Clone, Debug, Default)]
pub(crate) struct Accum {
    pub count: u64,
    pub sum: f64,
    pub max: f64,
    /// Only populated for `Quantile` queries.
    pub hist: Option<Histogram>,
    /// Only populated for `Ewma` queries: values in ingestion order.
    pub vals: Vec<f64>,
}

impl Accum {
    pub fn new(agg: &Aggregation) -> Self {
        Self {
            max: f64::NEG_INFINITY,
            hist: matches!(agg, Aggregation::Quantile(_)).then(Histogram::default),
            ..Self::default()
        }
    }

    pub fn add(&mut self, c: &Contribution<'_>) {
        match c {
            Contribution::Value(v) => {
                self.count += 1;
                self.sum += v;
                self.max = self.max.max(*v);
                if let Some(h) = &mut self.hist {
                    // Scalar sources feeding a quantile are integer-
                    // valued (validated at register time), so the cast
                    // is exact.
                    h.record(*v as u64);
                }
                self.vals.push(*v);
            }
            Contribution::Hist(d) => {
                if d.count() == 0 {
                    return;
                }
                self.count += d.count();
                self.sum += d.sum() as f64;
                self.max = self.max.max(d.max() as f64);
                if let Some(h) = &mut self.hist {
                    h.merge(d);
                }
            }
        }
    }

    /// Folds the window into its aggregate value. `carry` is the
    /// cross-window EWMA estimate, updated in place.
    pub fn finalize(&self, agg: &Aggregation, window: &WindowSpec, carry: &mut Option<f64>) -> f64 {
        match agg {
            Aggregation::Count => self.count as f64,
            Aggregation::Sum => self.sum,
            Aggregation::Rate => self.sum / (window.size_us as f64 / 1_000_000.0),
            Aggregation::Mean => {
                if self.count == 0 {
                    0.0
                } else {
                    self.sum / self.count as f64
                }
            }
            Aggregation::Max => {
                if self.count == 0 {
                    0.0
                } else {
                    self.max
                }
            }
            Aggregation::Quantile(q) => self
                .hist
                .as_ref()
                .map(|h| h.quantile(*q) as f64)
                .unwrap_or(0.0),
            Aggregation::Ewma { alpha } => {
                for v in &self.vals {
                    *carry = Some(match *carry {
                        None => *v,
                        Some(prev) => alpha * v + (1.0 - alpha) * prev,
                    });
                }
                carry.unwrap_or(0.0)
            }
        }
    }
}

struct QueryState {
    spec: QuerySpec,
    /// Open (not yet emitted) windows by index. Only windows that
    /// received observations are materialized; empties are synthesized
    /// at close.
    open: BTreeMap<u64, Accum>,
    /// Next window index to emit.
    next_close: u64,
    /// Cross-window EWMA estimate.
    ewma_carry: Option<f64>,
}

impl QueryState {
    /// Adds `obs` to every still-open window covering it; `false` when
    /// the source reads it but all those windows have closed.
    fn add(&mut self, obs: &Obs) -> bool {
        let Some(c) = self.spec.source.contribution(obs) else {
            return true;
        };
        let (lo, hi) = self.spec.window.covering(obs.at_us());
        let lo = lo.max(self.next_close);
        if lo > hi {
            return false;
        }
        for k in lo..=hi {
            self.open
                .entry(k)
                .or_insert_with(|| Accum::new(&self.spec.agg))
                .add(&c);
        }
        true
    }
}

struct SubState {
    query: String,
    cursor: usize,
}

/// The queries and rules that read one key, each list in registration
/// order (so a routed observation visits them in the order an unrouted
/// one would).
#[derive(Clone, Debug, Default)]
struct Readers {
    queries: Vec<usize>,
    rules: Vec<usize>,
}

/// The engine's interest index: per stream, the readers of each name,
/// and the readers of every name (event `*`, decision `*`), who are
/// also on each name's list.
#[derive(Default)]
struct Index {
    named: [BTreeMap<String, Readers>; KINDS],
    any: [Readers; KINDS],
}

impl Index {
    /// Adds reader `i` (a query, or a rule when `rule`) of `key`. Readers
    /// arrive in increasing index order, so pushing keeps every list
    /// sorted; a rule reading one key twice is listed once.
    fn add(&mut self, (kind, name): (usize, Option<&str>), i: usize, rule: bool) {
        let push = |r: &mut Readers| {
            let list = if rule { &mut r.rules } else { &mut r.queries };
            if list.last() != Some(&i) {
                list.push(i);
            }
        };
        match name {
            Some(name) => {
                let any = &self.any[kind];
                push(
                    self.named[kind]
                        .entry(name.to_string())
                        .or_insert_with(|| any.clone()),
                );
            }
            None => {
                push(&mut self.any[kind]);
                self.named[kind].values_mut().for_each(push);
            }
        }
    }

    /// Who reads `obs`: one lookup, `None` when nobody does.
    fn readers(&self, obs: &Obs) -> Option<&Readers> {
        let (kind, name) = obs.key();
        self.named[kind].get(name).or_else(|| {
            let any = &self.any[kind];
            (!any.queries.is_empty() || !any.rules.is_empty()).then_some(any)
        })
    }

    /// The names read on stream `kind`, sorted (`None`: every name).
    fn names(&self, kind: usize) -> Option<Vec<String>> {
        let any = &self.any[kind];
        (any.queries.is_empty() && any.rules.is_empty())
            .then(|| self.named[kind].keys().cloned().collect())
    }
}

/// A series resolved by [`QueryEngine::gauge_series`]; valid only with
/// the engine that resolved it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeriesId {
    engine: EngineId,
    index: usize,
}

/// A process-unique engine identity, so that a [`SeriesId`] cannot
/// reach into an engine that did not resolve it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct EngineId(u64);

impl Default for EngineId {
    fn default() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        Self(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// A resolved series: its observation, rewritten in place by every
/// sample, and the run slot each sustained rule reading it keeps it in.
struct Resolved {
    obs: Obs,
    /// `(rule index, run slot)`.
    runs: Vec<(usize, usize)>,
}

/// Opaque subscription handle returned by [`QueryEngine::subscribe`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubId(usize);

/// The incremental engine. See the module docs for the ordering and
/// determinism contract.
#[derive(Default)]
pub struct QueryEngine {
    queries: Vec<QueryState>,
    rules: Vec<RuleState>,
    /// Who reads what: routes each observation to its readers.
    index: Index,
    id: EngineId,
    /// Series resolved by [`QueryEngine::gauge_series`], by handle
    /// index, and their handle indices by series key.
    series: Vec<Resolved>,
    series_of: BTreeMap<SeriesKey, usize>,
    subs: Vec<SubState>,
    watermark: Micros,
    /// Outputs not yet released by [`QueryEngine::fire_into`].
    outputs: Vec<QueryOutput>,
    /// Alerts not yet handed to a hub by [`QueryEngine::fire_into`].
    alerts: Vec<AlertFire>,
    /// Observations that arrived after their every window had closed
    /// (counted, never silently lost).
    late_obs: u64,
}

impl QueryEngine {
    /// An engine with no queries or rules.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a named query. Rejects duplicate names, invalid
    /// windows, and unsupported aggregation/source combinations
    /// (quantiles need integer-valued sources; EWMA needs a tumbling
    /// window and a scalar source).
    pub fn register(&mut self, spec: QuerySpec) -> Result<(), String> {
        if !spec.window.is_valid() {
            return Err(format!(
                "query '{}': invalid window (size {}us, slide {}us)",
                spec.name, spec.window.size_us, spec.window.slide_us
            ));
        }
        if self.queries.iter().any(|q| q.spec.name == spec.name) {
            return Err(format!("query '{}' already registered", spec.name));
        }
        match (&spec.agg, &spec.source) {
            (Aggregation::Quantile(q), _) if !(0.0..=1.0).contains(q) => {
                return Err(format!(
                    "query '{}': quantile {} out of [0,1]",
                    spec.name, q
                ));
            }
            (Aggregation::Quantile(_), Source::Gauge { .. }) => {
                return Err(format!(
                    "query '{}': quantile over a gauge (float-valued) source",
                    spec.name
                ));
            }
            (Aggregation::Ewma { alpha }, _) if !(*alpha > 0.0 && *alpha <= 1.0) => {
                return Err(format!(
                    "query '{}': ewma alpha {} out of (0,1]",
                    spec.name, alpha
                ));
            }
            (Aggregation::Ewma { .. }, Source::Hist { .. }) => {
                return Err(format!(
                    "query '{}': ewma needs scalar samples, not histogram deltas",
                    spec.name
                ));
            }
            (Aggregation::Ewma { .. }, _) if spec.window.slide_us != spec.window.size_us => {
                return Err(format!(
                    "query '{}': ewma requires a tumbling window",
                    spec.name
                ));
            }
            _ => {}
        }
        self.index.add(spec.source.key(), self.queries.len(), false);
        self.queries.push(QueryState {
            spec,
            open: BTreeMap::new(),
            next_close: 0,
            ewma_carry: None,
        });
        Ok(())
    }

    /// Adds an alert rule. Threshold rules must reference a registered
    /// query (whose source filter becomes the fire's labels).
    pub fn add_rule(&mut self, rule: AlertRule) -> Result<(), String> {
        if self.rules.iter().any(|r| r.rule.name == rule.name) {
            return Err(format!("rule '{}' already added", rule.name));
        }
        let mut state = RuleState::new(rule);
        if let Some(q) = state.rule.threshold_query() {
            match self.queries.iter().find(|s| s.spec.name == q) {
                Some(qs) => state.threshold_labels = qs.spec.source.alert_labels(),
                None => {
                    return Err(format!(
                        "rule '{}': references unregistered query '{}'",
                        state.rule.name, q
                    ));
                }
            }
        }
        for source in state.rule.sources() {
            self.index.add(source.key(), self.rules.len(), true);
        }
        self.rules.push(state);
        Ok(())
    }

    /// What a feed must read for this engine: the names its queries and
    /// rules read, per stream (see [`HubFeed::reading`](crate::HubFeed::reading)).
    pub fn interest(&self) -> Interest {
        let series = |kind| {
            self.index
                .names(kind)
                .map(|names| names.iter().map(|n| SeriesName::new(n)).collect())
        };
        Interest {
            counters: series(0),
            gauges: series(1),
            hists: series(2),
            events: self.index.names(3),
            decisions: self.index.names(4),
        }
    }

    /// Subscribes to a query's outputs; [`QueryEngine::poll`] returns
    /// everything emitted since the previous poll.
    pub fn subscribe(&mut self, query: &str) -> Result<SubId, String> {
        if !self.queries.iter().any(|q| q.spec.name == query) {
            return Err(format!("subscribe: unknown query '{}'", query));
        }
        self.subs.push(SubState {
            query: query.to_string(),
            cursor: self.outputs.len(),
        });
        Ok(SubId(self.subs.len() - 1))
    }

    /// Outputs emitted for `sub`'s query since the last poll.
    pub fn poll(&mut self, sub: SubId) -> Vec<QueryOutput> {
        let s = &mut self.subs[sub.0];
        let out: Vec<QueryOutput> = self.outputs[s.cursor..]
            .iter()
            .filter(|o| o.query == s.query)
            .cloned()
            .collect();
        s.cursor = self.outputs.len();
        out
    }

    /// Ingests one observation: it lands in every still-open window of
    /// every matching query, and drives rule state machines.
    pub fn push(&mut self, obs: Obs) {
        self.observe(&obs);
    }

    /// [`QueryEngine::push`] by reference, for a caller that samples
    /// many series through one reused `Obs`. An observation no query
    /// or rule reads costs one index lookup; one that is read visits
    /// only its readers.
    pub fn observe(&mut self, obs: &Obs) {
        let Some(readers) = self.index.readers(obs) else {
            return;
        };
        for &i in &readers.queries {
            if !self.queries[i].add(obs) {
                self.late_obs += 1;
            }
        }
        for &i in &readers.rules {
            self.rules[i].on_obs(obs, &mut self.alerts);
        }
    }

    /// Resolves the gauge series `name{labels}` once, for a caller that
    /// samples it at every barrier: [`QueryEngine::sample`] then finds
    /// each sustained rule's run for it by slot rather than by
    /// searching the rule's label sets. Resolving a series again
    /// returns the same handle.
    pub fn gauge_series(&mut self, name: &str, labels: Labels) -> SeriesId {
        let key = (name.to_string(), labels);
        let index = match self.series_of.get(&key) {
            Some(&index) => index,
            None => {
                self.series.push(Resolved {
                    obs: Obs::Gauge {
                        at_us: 0,
                        name: key.0.clone(),
                        labels: key.1.clone(),
                        value: 0.0,
                    },
                    runs: Vec::new(),
                });
                self.series_of.insert(key, self.series.len() - 1);
                self.series.len() - 1
            }
        };
        // Sustained rules added since the series was last resolved get
        // their slots now; any later still fall back to a lookup.
        let Resolved { obs, runs } = &mut self.series[index];
        for (i, r) in self.rules.iter_mut().enumerate() {
            if !runs.iter().any(|&(rule, _)| rule == i) {
                runs.extend(r.resolve(obs).map(|slot| (i, slot)));
            }
        }
        SeriesId {
            engine: self.id,
            index,
        }
    }

    /// Whether this engine resolved `series`.
    pub fn owns(&self, series: SeriesId) -> bool {
        series.engine == self.id
    }

    /// One sample of a resolved series at `at_us`: exactly
    /// [`QueryEngine::observe`] of the series' gauge observation with
    /// this time and value.
    pub fn sample(&mut self, series: SeriesId, at_us: Micros, value: f64) {
        assert_eq!(series.engine, self.id, "a series of another engine");
        let Resolved { obs, runs } = &mut self.series[series.index];
        if let Obs::Gauge {
            at_us: at,
            value: v,
            ..
        } = obs
        {
            (*at, *v) = (at_us, value);
        }
        let obs = &*obs;
        let Some(readers) = self.index.readers(obs) else {
            return;
        };
        for &i in &readers.queries {
            if !self.queries[i].add(obs) {
                self.late_obs += 1;
            }
        }
        for &i in &readers.rules {
            match runs.iter().find(|&&(rule, _)| rule == i) {
                Some(&(_, slot)) => self.rules[i].on_run_sample(slot, obs, value, &mut self.alerts),
                None => self.rules[i].on_obs(obs, &mut self.alerts),
            }
        }
    }

    /// Convenience: [`QueryEngine::push`] over a batch.
    pub fn ingest(&mut self, batch: impl IntoIterator<Item = Obs>) {
        for obs in batch {
            self.observe(&obs);
        }
    }

    /// Moves the watermark to `wm` (monotone; lower values are no-ops),
    /// closing and emitting every window whose end is ≤ `wm`, then
    /// evaluating rules over the newly emitted outputs and the elapsed
    /// time.
    pub fn advance_to(&mut self, wm: Micros) {
        if wm < self.watermark {
            return;
        }
        self.watermark = wm;
        let first_new = self.outputs.len();
        for q in &mut self.queries {
            let Some(last) = q.spec.window.last_closed(wm) else {
                continue;
            };
            while q.next_close <= last {
                let k = q.next_close;
                let accum = q.open.remove(&k).unwrap_or_else(|| Accum::new(&q.spec.agg));
                let value = accum.finalize(&q.spec.agg, &q.spec.window, &mut q.ewma_carry);
                self.outputs.push(QueryOutput {
                    query: q.spec.name.clone(),
                    window_index: k,
                    window_start_us: q.spec.window.start_of(k),
                    window_end_us: q.spec.window.end_of(k),
                    value,
                    count: accum.count,
                });
                q.next_close += 1;
            }
        }
        for r in &mut self.rules {
            r.on_outputs(&self.outputs[first_new..], &mut self.alerts);
            r.on_watermark(wm, &mut self.alerts);
        }
    }

    /// Current watermark.
    pub fn watermark(&self) -> Micros {
        self.watermark
    }

    /// Outputs emitted and not yet released by
    /// [`QueryEngine::fire_into`] (every output so far on an engine
    /// that is never flushed), in emission order.
    pub fn outputs(&self) -> &[QueryOutput] {
        &self.outputs
    }

    /// Alerts fired and not yet handed over by
    /// [`QueryEngine::fire_into`] (every alert so far on an engine that
    /// is never flushed), in fire order.
    pub fn alerts(&self) -> &[AlertFire] {
        &self.alerts
    }

    /// Observations that arrived after all their windows had closed.
    pub fn late_obs(&self) -> u64 {
        self.late_obs
    }

    /// Whether a rule with this name is loaded.
    pub fn has_rule(&self, name: &str) -> bool {
        self.rules.iter().any(|r| r.rule.name == name)
    }

    /// Since when rule `name`'s condition has held continuously for the
    /// series keyed by `labels` (sustained rules only) — the primitive
    /// control loops use for "degraded for N µs" questions without
    /// re-reading raw instruments.
    pub fn condition_held_since(&self, name: &str, labels: &Labels) -> Option<Micros> {
        self.rules
            .iter()
            .find(|r| r.rule.name == name)
            .and_then(|r| r.held_since(labels))
    }

    /// Ends a barrier: hands the alerts fired since the previous flush
    /// to `hub`'s bounded alert ring, and releases the outputs every
    /// subscriber has polled (all of them when nobody subscribes). The
    /// ring and the subscribers hold what matters from then on, so an
    /// engine flushed at every barrier stays bounded however long it
    /// runs; read [`QueryEngine::alerts`] / [`QueryEngine::outputs`]
    /// before flushing. Call only on the single-threaded driver hub
    /// (after the worker hubs are absorbed), never on worker hubs —
    /// that is the thread-count determinism contract.
    pub fn fire_into(&mut self, hub: &Telemetry) {
        for fire in self.alerts.drain(..) {
            hub.alert(fire);
        }
        let polled = self
            .subs
            .iter()
            .map(|s| s.cursor)
            .min()
            .unwrap_or(self.outputs.len());
        self.outputs.drain(..polled);
        for s in &mut self.subs {
            s.cursor -= polled;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_obs(at: Micros, delta: u64) -> Obs {
        Obs::Counter {
            at_us: at,
            name: "hits".to_string(),
            labels: Labels::none(),
            delta,
        }
    }

    fn counter_query(name: &str, agg: Aggregation, window: WindowSpec) -> QuerySpec {
        QuerySpec {
            name: name.to_string(),
            source: Source::Counter {
                name: "hits".to_string(),
                labels: LabelFilter::any(),
            },
            agg,
            window,
        }
    }

    #[test]
    fn tumbling_sum_emits_in_window_order_with_empties() {
        let mut e = QueryEngine::new();
        e.register(counter_query(
            "s",
            Aggregation::Sum,
            WindowSpec::tumbling(100),
        ))
        .unwrap();
        e.push(counter_obs(10, 3));
        e.push(counter_obs(90, 4));
        // Window [100,200) stays empty; [200,300) gets one obs.
        e.push(counter_obs(250, 5));
        e.advance_to(300);
        let got: Vec<(u64, f64, u64)> = e
            .outputs()
            .iter()
            .map(|o| (o.window_index, o.value, o.count))
            .collect();
        assert_eq!(got, vec![(0, 7.0, 2), (1, 0.0, 0), (2, 5.0, 1)]);
        assert_eq!(e.outputs()[1].window_start_us, 100);
        assert_eq!(e.outputs()[1].window_end_us, 200);
    }

    #[test]
    fn sliding_windows_each_see_the_obs() {
        let mut e = QueryEngine::new();
        e.register(counter_query(
            "s",
            Aggregation::Sum,
            WindowSpec::sliding(100, 50),
        ))
        .unwrap();
        // t=60 sits in windows [0,100) and [50,150).
        e.push(counter_obs(60, 2));
        e.advance_to(150);
        let got: Vec<(u64, f64)> = e
            .outputs()
            .iter()
            .map(|o| (o.window_index, o.value))
            .collect();
        assert_eq!(got, vec![(0, 2.0), (1, 2.0)]);
    }

    #[test]
    fn rate_scales_by_window_seconds() {
        let mut e = QueryEngine::new();
        e.register(counter_query(
            "r",
            Aggregation::Rate,
            WindowSpec::tumbling(250_000),
        ))
        .unwrap();
        e.push(counter_obs(10, 5));
        e.advance_to(250_000);
        assert_eq!(e.outputs()[0].value, 20.0, "5 per quarter-second");
    }

    #[test]
    fn ewma_matches_hand_fold_and_carries_across_windows() {
        let alpha = 0.3;
        let mut e = QueryEngine::new();
        e.register(QuerySpec {
            name: "u".to_string(),
            source: Source::Gauge {
                name: "usage".to_string(),
                labels: LabelFilter::any(),
            },
            agg: Aggregation::Ewma { alpha },
            window: WindowSpec::tumbling(100),
        })
        .unwrap();
        let g = |at, value| Obs::Gauge {
            at_us: at,
            name: "usage".to_string(),
            labels: Labels::none(),
            value,
        };
        e.push(g(10, 0.5));
        e.push(g(60, 0.9));
        e.advance_to(200); // window 0 closes with two samples, 1 empty
        let expect0 = alpha * 0.9 + (1.0 - alpha) * 0.5;
        assert_eq!(e.outputs()[0].value, expect0);
        assert_eq!(e.outputs()[1].value, expect0, "empty window re-emits carry");
        assert_eq!(e.outputs()[1].count, 0);
        e.push(g(250, 0.1));
        e.advance_to(300);
        let expect2 = alpha * 0.1 + (1.0 - alpha) * expect0;
        assert!((e.outputs()[2].value - expect2).abs() < 1e-12);
    }

    #[test]
    fn quantile_over_histogram_deltas() {
        let mut e = QueryEngine::new();
        e.register(QuerySpec {
            name: "p95".to_string(),
            source: Source::Hist {
                name: "lat".to_string(),
                labels: LabelFilter::any(),
            },
            agg: Aggregation::Quantile(0.95),
            window: WindowSpec::tumbling(1000),
        })
        .unwrap();
        let mut d = Histogram::default();
        for v in 1..=100u64 {
            d.record(v);
        }
        e.push(Obs::Hist {
            at_us: 500,
            name: "lat".to_string(),
            labels: Labels::none(),
            delta: Box::new(d.clone()),
        });
        e.advance_to(1000);
        let direct = d.quantile(0.95) as f64;
        assert_eq!(e.outputs()[0].value, direct);
        assert_eq!(e.outputs()[0].count, 100);
    }

    #[test]
    fn label_filters_scope_queries() {
        let mut e = QueryEngine::new();
        e.register(QuerySpec {
            name: "acme_only".to_string(),
            source: Source::Counter {
                name: "hits".to_string(),
                labels: LabelFilter {
                    tenant: Some("acme".to_string()),
                    module: None,
                },
            },
            agg: Aggregation::Sum,
            window: WindowSpec::tumbling(100),
        })
        .unwrap();
        e.push(Obs::Counter {
            at_us: 10,
            name: "hits".to_string(),
            labels: Labels::tenant("acme"),
            delta: 2,
        });
        e.push(Obs::Counter {
            at_us: 20,
            name: "hits".to_string(),
            labels: Labels::tenant("globex"),
            delta: 40,
        });
        e.advance_to(100);
        assert_eq!(e.outputs()[0].value, 2.0);
    }

    #[test]
    fn late_obs_are_counted_not_aggregated() {
        let mut e = QueryEngine::new();
        e.register(counter_query(
            "s",
            Aggregation::Sum,
            WindowSpec::tumbling(100),
        ))
        .unwrap();
        e.advance_to(200);
        e.push(counter_obs(50, 9)); // both its windows are long closed
        e.advance_to(300);
        assert!(e.outputs().iter().all(|o| o.value == 0.0));
        assert_eq!(e.late_obs(), 1);
    }

    #[test]
    fn subscriptions_see_each_output_exactly_once() {
        let mut e = QueryEngine::new();
        e.register(counter_query(
            "s",
            Aggregation::Sum,
            WindowSpec::tumbling(100),
        ))
        .unwrap();
        let sub = e.subscribe("s").unwrap();
        e.push(counter_obs(10, 1));
        e.advance_to(100);
        assert_eq!(e.poll(sub).len(), 1);
        assert!(e.poll(sub).is_empty(), "no duplicates");
        e.advance_to(300);
        let batch = e.poll(sub);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].window_index, 1);
    }

    #[test]
    fn fire_into_hands_alerts_over_and_releases_polled_outputs() {
        let mut e = QueryEngine::new();
        e.register(counter_query(
            "s",
            Aggregation::Sum,
            WindowSpec::tumbling(100),
        ))
        .unwrap();
        let rule = crate::rules::parse_rule("busy: sum(counter:hits) over 100us >= 1").unwrap();
        e.register(rule.queries[0].clone()).unwrap();
        e.add_rule(rule.rule).unwrap();
        let hub = Telemetry::enabled();

        // No subscriber: a flush keeps nothing back.
        e.push(counter_obs(10, 1));
        e.advance_to(100);
        assert_eq!((e.outputs().len(), e.alerts().len()), (2, 1));
        e.fire_into(&hub);
        assert!(e.outputs().is_empty() && e.alerts().is_empty());
        assert_eq!(hub.alerts().len(), 1, "the hub's ring holds the fire now");

        // A subscriber that has not polled yet holds its outputs back
        // across flushes, and still sees each exactly once.
        let sub = e.subscribe("s").unwrap();
        e.push(counter_obs(110, 2));
        e.advance_to(200);
        e.fire_into(&hub);
        assert_eq!(e.outputs().len(), 2, "unpolled window retained");
        e.advance_to(300);
        let got: Vec<u64> = e.poll(sub).iter().map(|o| o.window_index).collect();
        assert_eq!(got, vec![1, 2]);
        e.fire_into(&hub);
        assert!(e.outputs().is_empty());
        assert!(e.poll(sub).is_empty());
        assert_eq!(hub.alerts().len(), 2, "each fire flushed once");
    }

    #[test]
    fn register_rejects_bad_specs() {
        let mut e = QueryEngine::new();
        assert!(e
            .register(counter_query(
                "w",
                Aggregation::Sum,
                WindowSpec::sliding(10, 20)
            ))
            .is_err());
        assert!(e
            .register(QuerySpec {
                name: "q".to_string(),
                source: Source::Gauge {
                    name: "g".to_string(),
                    labels: LabelFilter::any(),
                },
                agg: Aggregation::Quantile(0.5),
                window: WindowSpec::tumbling(100),
            })
            .is_err());
        assert!(e
            .register(QuerySpec {
                name: "q".to_string(),
                source: Source::Gauge {
                    name: "g".to_string(),
                    labels: LabelFilter::any(),
                },
                agg: Aggregation::Ewma { alpha: 0.3 },
                window: WindowSpec::sliding(100, 50),
            })
            .is_err());
        e.register(counter_query(
            "ok",
            Aggregation::Sum,
            WindowSpec::tumbling(100),
        ))
        .unwrap();
        assert!(e
            .register(counter_query(
                "ok",
                Aggregation::Sum,
                WindowSpec::tumbling(100)
            ))
            .is_err());
        assert!(e.subscribe("missing").is_err());
    }
}
