//! Pattern-alert rules and their small textual language.
//!
//! Four rule families, one per [`udc_telemetry::AlertReason`]:
//!
//! - **threshold** — a windowed query output crossed a comparison;
//! - **sustained** — a scalar condition held continuously for a
//!   duration (per distinct label set, with exact entry times — the
//!   heal loop's "degraded > N s" question);
//! - **absence** — a source produced nothing for a duration;
//! - **sequence** — a second observation followed a first within a
//!   duration.
//!
//! Fire times are always derived from the stream (window ends,
//! condition-entry times, observation times) — never from a host
//! clock — so rule evaluation is deterministic and replayable.
//!
//! The textual grammar (used by `udc-query --alert` and the presets):
//!
//! ```text
//! name: AGG(SOURCE) [over DUR [slide DUR]] CMP NUM   (threshold)
//! name: sustained(SOURCE CMP NUM) for DUR
//! name: absent(SOURCE) for DUR
//! name: seq(SOURCE -> SOURCE) within DUR
//!
//! AGG    := count | sum | rate | mean | max | p50 | p90 | p95 | p99
//! SOURCE := counter:NAME | gauge:NAME | hist:NAME
//!         | event:KIND | event:* | decision:STAGE[/accepted|/rejected]
//!           (any of these may append {tenant=T,module=M})
//! CMP    := > | >= | < | <=
//! DUR    := e.g. 500us | 250ms | 2s (bare integers are µs)
//! ```
//!
//! A threshold rule implicitly registers a query named after the rule;
//! `over` defaults to a 250 ms tumbling window.

use std::borrow::Cow;
use std::collections::BTreeMap;

use udc_telemetry::{AlertFire, AlertReason, Labels};

use crate::engine::{Contribution, LabelFilter, Obs, QueryOutput, QuerySpec, Source};
use crate::window::{Aggregation, WindowSpec};
use crate::Micros;

/// Comparison operator in threshold/sustained rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// Strictly greater.
    Gt,
    /// Greater or equal.
    Ge,
    /// Strictly less.
    Lt,
    /// Less or equal.
    Le,
}

impl Cmp {
    /// Applies the comparison.
    pub fn eval(&self, lhs: f64, rhs: f64) -> bool {
        match self {
            Cmp::Gt => lhs > rhs,
            Cmp::Ge => lhs >= rhs,
            Cmp::Lt => lhs < rhs,
            Cmp::Le => lhs <= rhs,
        }
    }

    /// The operator's source text.
    pub fn as_str(&self) -> &'static str {
        match self {
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
        }
    }
}

/// The rule families.
#[derive(Clone, Debug)]
pub enum RuleKind {
    /// Fire whenever the named query emits a window whose value
    /// satisfies `cmp value` (one fire per matching window).
    Threshold {
        /// Registered query whose outputs are tested.
        query: String,
        /// Comparison.
        cmp: Cmp,
        /// Right-hand side.
        value: f64,
    },
    /// Fire when `source`'s scalar samples satisfy `cmp value`
    /// continuously for at least `for_us` (tracked per label set; one
    /// fire per continuous run).
    Sustained {
        /// Scalar stream the condition reads.
        source: Source,
        /// Comparison.
        cmp: Cmp,
        /// Right-hand side.
        value: f64,
        /// Required continuous duration.
        for_us: Micros,
    },
    /// Fire when `source` produces no observations for `for_us`
    /// (silence-from-start counts; one fire per gap).
    Absence {
        /// Stream whose silence is watched.
        source: Source,
        /// Maximum tolerated gap.
        for_us: Micros,
    },
    /// Fire when an observation matching `then` arrives within
    /// `within_us` of an earlier one matching `first` (the pair is
    /// consumed).
    Sequence {
        /// The opening observation.
        first: Source,
        /// The closing observation.
        then: Source,
        /// Maximum gap between the two.
        within_us: Micros,
    },
}

/// A named alert rule.
#[derive(Clone, Debug)]
pub struct AlertRule {
    /// Unique rule name (becomes `AlertRecord::rule`).
    pub name: String,
    /// The rule family and its parameters.
    pub kind: RuleKind,
}

impl AlertRule {
    /// The query a threshold rule references, if this is one.
    pub fn threshold_query(&self) -> Option<&str> {
        match &self.kind {
            RuleKind::Threshold { query, .. } => Some(query),
            _ => None,
        }
    }
}

/// Per-label-set state of a sustained rule's condition.
#[derive(Clone, Copy, Debug, Default)]
struct CondState {
    held_since: Option<Micros>,
    fired: bool,
}

/// Runtime state of one rule inside the engine.
pub(crate) struct RuleState {
    pub rule: AlertRule,
    /// Labels carried by threshold fires (copied from the query's
    /// source filter by the engine at `add_rule`).
    pub threshold_labels: Labels,
    /// Sustained: condition runs per label set.
    cond: BTreeMap<Labels, CondState>,
    /// Absence: last time the source spoke (0 = never).
    last_seen_us: Micros,
    /// Absence: whether the current gap already fired.
    gap_fired: bool,
    /// Sequence: time of the pending opening observation.
    pending_first: Option<Micros>,
}

fn obs_labels(obs: &Obs) -> Cow<'_, Labels> {
    match obs {
        Obs::Counter { labels, .. }
        | Obs::Gauge { labels, .. }
        | Obs::Hist { labels, .. }
        | Obs::Event { labels, .. } => Cow::Borrowed(labels),
        Obs::Decision { module, .. } => Cow::Owned(Labels {
            tenant: None,
            module: Some(module.clone()),
        }),
    }
}

impl RuleState {
    pub fn new(rule: AlertRule) -> Self {
        Self {
            rule,
            threshold_labels: Labels::none(),
            cond: BTreeMap::new(),
            last_seen_us: 0,
            gap_fired: false,
            pending_first: None,
        }
    }

    pub fn held_since(&self, labels: &Labels) -> Option<Micros> {
        self.cond.get(labels).and_then(|c| c.held_since)
    }

    /// Observation-driven transitions. The stream is time-ordered, so
    /// `obs.at_us()` is a valid lower bound on the watermark: expiring
    /// runs/gaps fire *before* the state resets.
    pub fn on_obs(&mut self, obs: &Obs, alerts: &mut Vec<AlertFire>) {
        let at = obs.at_us();
        match &self.rule.kind {
            RuleKind::Threshold { .. } => {}
            RuleKind::Sustained {
                source,
                cmp,
                value,
                for_us,
            } => {
                let Some(Contribution::Value(v)) = source.contribution(obs) else {
                    return;
                };
                let labels = obs_labels(obs);
                let holds = cmp.eval(v, *value);
                // Look up by reference: a series seen before (every
                // barrier re-samples the same gauges) clones nothing.
                if !self.cond.contains_key(&*labels) {
                    self.cond
                        .insert(labels.clone().into_owned(), CondState::default());
                }
                let state = self.cond.get_mut(&*labels).expect("just ensured");
                if holds {
                    if state.held_since.is_none() {
                        *state = CondState {
                            held_since: Some(at),
                            fired: false,
                        };
                    }
                } else {
                    // The run ends here; if it already crossed the
                    // duration, it must fire before being forgotten.
                    if let (Some(t0), false) = (state.held_since, state.fired) {
                        if at >= t0 + *for_us {
                            alerts.push(sustained_fire(
                                &self.rule.name,
                                labels.into_owned(),
                                t0,
                                *for_us,
                                cmp,
                                *value,
                            ));
                        }
                    }
                    *state = CondState::default();
                }
            }
            RuleKind::Absence { source, for_us } => {
                if source.contribution(obs).is_none() {
                    return;
                }
                if !self.gap_fired && at >= self.last_seen_us + *for_us {
                    alerts.push(absence_fire(
                        &self.rule.name,
                        source.alert_labels(),
                        self.last_seen_us,
                        *for_us,
                    ));
                }
                self.last_seen_us = self.last_seen_us.max(at);
                self.gap_fired = false;
            }
            RuleKind::Sequence {
                first,
                then,
                within_us,
            } => {
                // Close a pending pair before (possibly) opening a new
                // one, so an obs matching both can do each in turn.
                if then.contribution(obs).is_some() {
                    if let Some(f) = self.pending_first {
                        if at >= f && at - f <= *within_us {
                            alerts.push(AlertFire {
                                at_us: at,
                                rule: self.rule.name.clone(),
                                reason: AlertReason::Sequence,
                                labels: obs_labels(obs).into_owned(),
                                window_start_us: f,
                                window_end_us: at,
                                value: (at - f) as f64,
                                detail: format!("gap={}us <= {}us", at - f, within_us),
                            });
                            self.pending_first = None;
                        }
                    }
                }
                if first.contribution(obs).is_some() {
                    self.pending_first = Some(at);
                }
            }
        }
    }

    /// Threshold evaluation over the outputs emitted by one
    /// `advance_to`.
    pub fn on_outputs(&mut self, new: &[QueryOutput], alerts: &mut Vec<AlertFire>) {
        let RuleKind::Threshold { query, cmp, value } = &self.rule.kind else {
            return;
        };
        for o in new.iter().filter(|o| &o.query == query) {
            if cmp.eval(o.value, *value) {
                alerts.push(AlertFire {
                    at_us: o.window_end_us,
                    rule: self.rule.name.clone(),
                    reason: AlertReason::Threshold,
                    labels: self.threshold_labels.clone(),
                    window_start_us: o.window_start_us,
                    window_end_us: o.window_end_us,
                    value: o.value,
                    detail: format!("{}={} {} {}", query, o.value, cmp.as_str(), value),
                });
            }
        }
    }

    /// Time-driven transitions (runs and gaps that expire with no
    /// observation marking the boundary).
    pub fn on_watermark(&mut self, wm: Micros, alerts: &mut Vec<AlertFire>) {
        match &self.rule.kind {
            RuleKind::Sustained {
                cmp, value, for_us, ..
            } => {
                for (labels, state) in self.cond.iter_mut() {
                    if let (Some(t0), false) = (state.held_since, state.fired) {
                        if wm >= t0 + *for_us {
                            alerts.push(sustained_fire(
                                &self.rule.name,
                                labels.clone(),
                                t0,
                                *for_us,
                                cmp,
                                *value,
                            ));
                            state.fired = true;
                        }
                    }
                }
            }
            RuleKind::Absence { source, for_us }
                if !self.gap_fired && wm >= self.last_seen_us + *for_us =>
            {
                alerts.push(absence_fire(
                    &self.rule.name,
                    source.alert_labels(),
                    self.last_seen_us,
                    *for_us,
                ));
                self.gap_fired = true;
            }
            _ => {}
        }
    }
}

fn sustained_fire(
    rule: &str,
    labels: Labels,
    entered_us: Micros,
    for_us: Micros,
    cmp: &Cmp,
    value: f64,
) -> AlertFire {
    AlertFire {
        at_us: entered_us + for_us,
        rule: rule.to_string(),
        reason: AlertReason::Sustained,
        labels,
        window_start_us: entered_us,
        window_end_us: entered_us + for_us,
        value: for_us as f64,
        detail: format!("held {} {} for {}us", cmp.as_str(), value, for_us),
    }
}

fn absence_fire(rule: &str, labels: Labels, last_seen_us: Micros, for_us: Micros) -> AlertFire {
    AlertFire {
        at_us: last_seen_us + for_us,
        rule: rule.to_string(),
        reason: AlertReason::Absence,
        labels,
        window_start_us: last_seen_us,
        window_end_us: last_seen_us + for_us,
        value: for_us as f64,
        detail: format!("silent since {}us", last_seen_us),
    }
}

/// A parsed rule string: the rule plus any query it implicitly
/// registers (threshold rules register one named after themselves).
#[derive(Clone, Debug)]
pub struct ParsedRule {
    /// Queries to register before adding the rule.
    pub queries: Vec<QuerySpec>,
    /// The rule itself.
    pub rule: AlertRule,
}

/// Parses a duration like `250ms`, `2s`, `500us`, or bare µs digits.
pub fn parse_dur(s: &str) -> Result<Micros, String> {
    let (digits, mult) = if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix("us") {
        (d, 1)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000)
    } else {
        (s, 1)
    };
    digits
        .parse::<u64>()
        .map(|n| n * mult)
        .map_err(|_| format!("bad duration '{}'", s))
}

/// Parses a source token (see the module grammar).
pub fn parse_source(s: &str) -> Result<Source, String> {
    let (body, filter) = match s.split_once('{') {
        Some((b, rest)) => {
            let inner = rest
                .strip_suffix('}')
                .ok_or_else(|| format!("unclosed label filter in '{}'", s))?;
            let mut f = LabelFilter::any();
            for part in inner.split(',').filter(|p| !p.is_empty()) {
                match part.split_once('=') {
                    Some(("tenant", v)) => f.tenant = Some(v.to_string()),
                    Some(("module", v)) => f.module = Some(v.to_string()),
                    _ => return Err(format!("bad label filter '{}'", part)),
                }
            }
            (b, f)
        }
        None => (s, LabelFilter::any()),
    };
    let (kind, rest) = body
        .split_once(':')
        .ok_or_else(|| format!("source '{}' needs a kind: prefix", s))?;
    match kind {
        "counter" => Ok(Source::Counter {
            name: rest.to_string(),
            labels: filter,
        }),
        "gauge" => Ok(Source::Gauge {
            name: rest.to_string(),
            labels: filter,
        }),
        "hist" => Ok(Source::Hist {
            name: rest.to_string(),
            labels: filter,
        }),
        "event" => Ok(Source::Event {
            kind: (rest != "*").then(|| rest.to_string()),
            labels: filter,
        }),
        "decision" => {
            let (stage, accepted) = match rest.split_once('/') {
                Some((st, "accepted")) => (st, Some(true)),
                Some((st, "rejected")) => (st, Some(false)),
                Some((_, other)) => {
                    return Err(format!("bad decision outcome '{}'", other));
                }
                None => (rest, None),
            };
            Ok(Source::Decision {
                stage: (stage != "*").then(|| stage.to_string()),
                module: filter.module,
                reason: None,
                accepted,
            })
        }
        other => Err(format!("unknown source kind '{}'", other)),
    }
}

fn parse_agg(s: &str) -> Result<Aggregation, String> {
    match s {
        "count" => Ok(Aggregation::Count),
        "sum" => Ok(Aggregation::Sum),
        "rate" => Ok(Aggregation::Rate),
        "mean" => Ok(Aggregation::Mean),
        "max" => Ok(Aggregation::Max),
        "p50" => Ok(Aggregation::Quantile(0.50)),
        "p90" => Ok(Aggregation::Quantile(0.90)),
        "p95" => Ok(Aggregation::Quantile(0.95)),
        "p99" => Ok(Aggregation::Quantile(0.99)),
        other => Err(format!("unknown aggregation '{}'", other)),
    }
}

fn parse_cmp(s: &str) -> Result<Cmp, String> {
    match s {
        ">" => Ok(Cmp::Gt),
        ">=" => Ok(Cmp::Ge),
        "<" => Ok(Cmp::Lt),
        "<=" => Ok(Cmp::Le),
        other => Err(format!("unknown comparison '{}'", other)),
    }
}

/// Default threshold window when a rule omits `over`.
pub const DEFAULT_WINDOW_US: Micros = 250_000;

/// Parses one rule string (see the module grammar).
pub fn parse_rule(text: &str) -> Result<ParsedRule, String> {
    let (name, body) = text
        .split_once(':')
        .ok_or_else(|| format!("rule '{}' needs a 'name:' prefix", text))?;
    let name = name.trim();
    let body = body.trim();
    if name.is_empty() {
        return Err("empty rule name".to_string());
    }

    // Bracketed forms: sustained(...), absent(...), seq(...).
    if let Some(rest) = body.strip_prefix("sustained(") {
        let (inner, tail) = split_paren(rest)?;
        let toks: Vec<&str> = inner.split_whitespace().collect();
        let [src, cmp, val] = toks.as_slice() else {
            return Err(format!("sustained needs 'SOURCE CMP NUM', got '{}'", inner));
        };
        let for_us = parse_for(tail, "for")?;
        return Ok(ParsedRule {
            queries: Vec::new(),
            rule: AlertRule {
                name: name.to_string(),
                kind: RuleKind::Sustained {
                    source: parse_source(src)?,
                    cmp: parse_cmp(cmp)?,
                    value: parse_num(val)?,
                    for_us,
                },
            },
        });
    }
    if let Some(rest) = body.strip_prefix("absent(") {
        let (inner, tail) = split_paren(rest)?;
        let for_us = parse_for(tail, "for")?;
        return Ok(ParsedRule {
            queries: Vec::new(),
            rule: AlertRule {
                name: name.to_string(),
                kind: RuleKind::Absence {
                    source: parse_source(inner.trim())?,
                    for_us,
                },
            },
        });
    }
    if let Some(rest) = body.strip_prefix("seq(") {
        let (inner, tail) = split_paren(rest)?;
        let (first, then) = inner
            .split_once("->")
            .ok_or_else(|| format!("seq needs 'FIRST -> THEN', got '{}'", inner))?;
        let within_us = parse_for(tail, "within")?;
        return Ok(ParsedRule {
            queries: Vec::new(),
            rule: AlertRule {
                name: name.to_string(),
                kind: RuleKind::Sequence {
                    first: parse_source(first.trim())?,
                    then: parse_source(then.trim())?,
                    within_us,
                },
            },
        });
    }

    // Threshold: AGG(SOURCE) [over DUR [slide DUR]] CMP NUM
    let open = body
        .find('(')
        .ok_or_else(|| format!("rule body '{}' is not a known form", body))?;
    let agg = parse_agg(&body[..open])?;
    let (inner, tail) = split_paren(&body[open + 1..])?;
    let source = parse_source(inner.trim())?;
    let toks: Vec<&str> = tail.split_whitespace().collect();
    let (window, rest) = match toks.as_slice() {
        ["over", size, "slide", slide, rest @ ..] => (
            WindowSpec::sliding(parse_dur(size)?, parse_dur(slide)?),
            rest,
        ),
        ["over", size, rest @ ..] => (WindowSpec::tumbling(parse_dur(size)?), rest),
        rest => (WindowSpec::tumbling(DEFAULT_WINDOW_US), rest),
    };
    let [cmp, val] = rest else {
        return Err(format!(
            "threshold needs 'CMP NUM' after the window: '{}'",
            tail
        ));
    };
    Ok(ParsedRule {
        queries: vec![QuerySpec {
            name: name.to_string(),
            source,
            agg,
            window,
        }],
        rule: AlertRule {
            name: name.to_string(),
            kind: RuleKind::Threshold {
                query: name.to_string(),
                cmp: parse_cmp(cmp)?,
                value: parse_num(val)?,
            },
        },
    })
}

fn split_paren(rest: &str) -> Result<(&str, &str), String> {
    rest.split_once(')')
        .map(|(inner, tail)| (inner, tail.trim()))
        .ok_or_else(|| "missing ')'".to_string())
}

fn parse_for<'a>(tail: &'a str, keyword: &str) -> Result<Micros, String> {
    let toks: Vec<&'a str> = tail.split_whitespace().collect();
    match toks.as_slice() {
        [kw, dur] if *kw == keyword => parse_dur(dur),
        _ => Err(format!("expected '{} DUR', got '{}'", keyword, tail)),
    }
}

fn parse_num(s: &str) -> Result<f64, String> {
    s.parse::<f64>().map_err(|_| format!("bad number '{}'", s))
}

/// The stock ruleset evaluated by `udc-query` and the chaos driver when
/// no `--alert` is given: one rule per replayable family (sustained
/// rules need live gauge samples, which artifacts don't carry).
///
/// - `failure_burst` — any failure event inside a 250 ms window;
/// - `failure_silence` — no failure events for 500 ms (fires on
///   healthy runs: silence is a first-class, testable outcome);
/// - `rapid_refailure` — two failure events within 100 ms.
pub fn default_ruleset() -> Vec<ParsedRule> {
    [
        "failure_burst: count(event:failure) over 250ms >= 1",
        "failure_silence: absent(event:failure) for 500ms",
        "rapid_refailure: seq(event:failure -> event:failure) within 100ms",
    ]
    .iter()
    .map(|s| parse_rule(s).expect("preset rules parse"))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryEngine;

    fn gauge(at: Micros, module: &str, value: f64) -> Obs {
        Obs::Gauge {
            at_us: at,
            name: "degraded".to_string(),
            labels: Labels::module("acme", module),
            value,
        }
    }

    fn failure(at: Micros) -> Obs {
        Obs::Event {
            at_us: at,
            kind: "failure".to_string(),
            labels: Labels::module("acme", "m0"),
        }
    }

    fn engine_with(rule: &str) -> QueryEngine {
        let mut e = QueryEngine::new();
        let parsed = parse_rule(rule).unwrap();
        for q in parsed.queries {
            e.register(q).unwrap();
        }
        e.add_rule(parsed.rule).unwrap();
        e
    }

    #[test]
    fn threshold_fires_per_matching_window() {
        let mut e = engine_with("burst: count(event:failure) over 100us >= 2");
        e.ingest([failure(10), failure(20), failure(150)]);
        e.advance_to(300);
        let fires = e.alerts();
        assert_eq!(fires.len(), 1, "only window 0 has two failures");
        assert_eq!(fires[0].at_us, 100);
        assert_eq!(fires[0].reason, AlertReason::Threshold);
        assert_eq!(fires[0].value, 2.0);
    }

    #[test]
    fn sustained_fires_once_per_run_with_exact_entry() {
        let mut e = engine_with("deg: sustained(gauge:degraded >= 1) for 100us");
        e.push(gauge(40, "m0", 1.0));
        e.advance_to(100);
        assert!(e.alerts().is_empty(), "held only 60us so far");
        assert_eq!(
            e.condition_held_since("deg", &Labels::module("acme", "m0")),
            Some(40)
        );
        e.advance_to(140);
        assert_eq!(e.alerts().len(), 1);
        let f = &e.alerts()[0];
        assert_eq!(
            (f.at_us, f.window_start_us, f.window_end_us),
            (140, 40, 140)
        );
        assert_eq!(f.reason, AlertReason::Sustained);
        // Still held, but already fired: no refire.
        e.advance_to(10_000);
        assert_eq!(e.alerts().len(), 1);
        // Recovery re-arms; a second run fires again.
        e.push(gauge(10_050, "m0", 0.0));
        assert_eq!(
            e.condition_held_since("deg", &Labels::module("acme", "m0")),
            None
        );
        e.push(gauge(10_100, "m0", 1.0));
        e.advance_to(10_200);
        assert_eq!(e.alerts().len(), 2);
    }

    #[test]
    fn sustained_run_ending_after_duration_still_fires() {
        let mut e = engine_with("deg: sustained(gauge:degraded >= 1) for 100us");
        e.push(gauge(0, "m0", 1.0));
        // Condition breaks at 160 — after the 100us duration elapsed but
        // before any advance noticed; the fire must not be lost.
        e.push(gauge(160, "m0", 0.0));
        e.advance_to(200);
        assert_eq!(e.alerts().len(), 1);
        assert_eq!(e.alerts()[0].at_us, 100);
    }

    #[test]
    fn sustained_tracks_each_label_set_separately() {
        let mut e = engine_with("deg: sustained(gauge:degraded >= 1) for 100us");
        e.push(gauge(0, "m0", 1.0));
        e.push(gauge(50, "m1", 1.0));
        e.advance_to(150);
        let fired: Vec<_> = e
            .alerts()
            .iter()
            .map(|f| (f.labels.module.clone().unwrap(), f.at_us))
            .collect();
        assert_eq!(
            fired,
            vec![("m0".to_string(), 100), ("m1".to_string(), 150)]
        );
    }

    #[test]
    fn absence_fires_per_gap_including_initial_silence() {
        let mut e = engine_with("quiet: absent(event:failure) for 100us");
        e.advance_to(99);
        assert!(e.alerts().is_empty());
        e.advance_to(150);
        assert_eq!(e.alerts().len(), 1, "silent from t=0");
        assert_eq!(e.alerts()[0].at_us, 100);
        // An obs re-arms; the next gap fires at last_seen + 100.
        e.push(failure(200));
        e.advance_to(250);
        assert_eq!(e.alerts().len(), 1);
        e.advance_to(400);
        assert_eq!(e.alerts().len(), 2);
        assert_eq!(e.alerts()[1].at_us, 300);
    }

    #[test]
    fn absence_gap_closed_by_late_obs_still_fires() {
        let mut e = engine_with("quiet: absent(event:failure) for 100us");
        // First failure arrives at 500 with no advance in between: the
        // [0,100) gap must fire on the way.
        e.push(failure(500));
        assert_eq!(e.alerts().len(), 1);
        assert_eq!(e.alerts()[0].at_us, 100);
    }

    #[test]
    fn sequence_fires_within_gap_and_consumes_the_pair() {
        let mut e = engine_with("refail: seq(event:failure -> event:failure) within 100us");
        e.ingest([failure(10), failure(80), failure(300)]);
        // 10→80 fires (gap 70); the pair is consumed, but 80 opens a
        // new pending first; 300 is too late after 80.
        assert_eq!(e.alerts().len(), 1);
        let f = &e.alerts()[0];
        assert_eq!((f.window_start_us, f.window_end_us, f.at_us), (10, 80, 80));
        assert_eq!(f.value, 70.0);
        e.push(failure(350));
        assert_eq!(e.alerts().len(), 2, "300→350 pairs up");
    }

    #[test]
    fn rule_strings_round_trip_through_the_parser() {
        let p =
            parse_rule("hot: mean(gauge:usage{tenant=acme,module=m0}) over 1s slide 250ms > 0.9")
                .unwrap();
        assert_eq!(p.queries.len(), 1);
        let q = &p.queries[0];
        assert_eq!(q.window, WindowSpec::sliding(1_000_000, 250_000));
        assert_eq!(q.agg, Aggregation::Mean);
        match &q.source {
            Source::Gauge { name, labels } => {
                assert_eq!(name, "usage");
                assert_eq!(labels.tenant.as_deref(), Some("acme"));
                assert_eq!(labels.module.as_deref(), Some("m0"));
            }
            other => panic!("wrong source {:?}", other),
        }
        assert!(parse_rule("p: p95(hist:heal.mttr_us) over 2s > 50000").is_ok());
        assert!(parse_rule("d: count(decision:sched.place_task/rejected) >= 5").is_ok());
        assert!(parse_rule("bad: frobnicate(event:*) > 1").is_err());
        assert!(parse_rule("bad: count(event:failure) >= ").is_err());
        assert!(parse_rule("no colon").is_err());
        assert!(parse_rule("x: sustained(gauge:g >= 1) within 5s").is_err());
    }

    #[test]
    fn presets_parse_and_load() {
        let mut e = QueryEngine::new();
        for p in default_ruleset() {
            for q in p.queries {
                e.register(q).unwrap();
            }
            e.add_rule(p.rule).unwrap();
        }
        // A quiet stream trips only the silence rule.
        e.advance_to(1_000_000);
        assert!(e.alerts().iter().all(|f| f.rule == "failure_silence"));
        assert!(!e.alerts().is_empty());
    }
}
