//! # udc-query — deterministic continuous queries over telemetry
//!
//! The paper's user-defined cloud lets tenants program the control
//! plane; this crate is the piece that lets them (and the platform's
//! own control loops) *watch* it as a first-class, auditable program:
//! named windowed aggregations over the telemetry stream, a small
//! pattern-alert rule language, and subscriptions that feed control
//! loops from query outputs instead of ad-hoc instrument reads.
//!
//! Everything is driven by the **simulated** clock and a single
//! ingestion order, so query outputs and alert fires are byte-identical
//! at any `--threads N`:
//!
//! - The engine is only ever attached to the single-threaded driver
//!   hub. Shard hubs are absorbed (in trial order) *first*; the engine
//!   polls the merged hub at barriers via [`feed::HubFeed`]. Nothing
//!   query-related runs on worker threads.
//! - Observations ([`engine::Obs`]) carry explicit simulated
//!   timestamps. Events and decisions keep their true record times;
//!   counter/gauge/histogram samples are stamped at the barrier that
//!   polled them.
//! - Alerts fire with explicit window-boundary times (never the hub
//!   clock) into the bounded alert ring `udc-telemetry` exports.
//!
//! The incremental engine ([`engine::QueryEngine`]) is shadowed by a
//! naive recompute-from-scratch oracle ([`naive::NaiveEngine`]),
//! mirroring the repo's `LinearPool` oracle pattern: the property
//! tests drive both with random streams and window shapes and demand
//! identical output sequences.
//!
//! The same query/rule definitions run *retroactively* over recorded
//! `results/` artifacts (see [`replay`]), so an alert rule can be
//! validated against a past chaos sweep before it gates anything live.

pub mod engine;
pub mod feed;
pub mod naive;
pub mod replay;
pub mod rules;
pub mod window;

pub use engine::{LabelFilter, Obs, QueryEngine, QueryOutput, QuerySpec, SeriesId, Source, SubId};
pub use feed::{HubFeed, Interest};
pub use naive::NaiveEngine;
pub use replay::{default_horizon, obs_from_json};
pub use rules::{default_ruleset, parse_rule, AlertRule, Cmp, ParsedRule, RuleKind, DEFAULT_RULES};
pub use window::{Aggregation, WindowSpec};

/// Simulated-time microseconds (re-exported from the telemetry crate).
pub type Micros = udc_telemetry::Micros;
