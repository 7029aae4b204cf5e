//! The recompute-from-scratch oracle for windowed aggregations.
//!
//! Mirrors the repo's `LinearPool` oracle pattern: the same public
//! shape as [`QueryEngine`](crate::engine::QueryEngine)'s query half,
//! but with no incremental state at all — every `advance_to` rescans
//! the complete observation log and recomputes every window (including
//! the EWMA carry, folded from window 0 every time), then appends only
//! the windows not yet emitted. The property tests drive both engines
//! with identical streams and demand identical output sequences.
//!
//! Precondition (same as the incremental engine's feed contract):
//! observations arrive in nondecreasing `at_us` order, and no
//! observation is pushed for a window that has already closed.

use crate::engine::{Accum, Obs, QueryOutput, QuerySpec};

use crate::Micros;

/// The oracle. Register the same specs, push the same stream, compare
/// [`NaiveEngine::outputs`].
#[derive(Default)]
pub struct NaiveEngine {
    queries: Vec<QuerySpec>,
    /// Next window index to emit, per query.
    emitted: Vec<u64>,
    obs: Vec<Obs>,
    watermark: Micros,
    outputs: Vec<QueryOutput>,
}

impl NaiveEngine {
    /// An empty oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a query (no validation — feed it the specs the real
    /// engine accepted).
    pub fn register(&mut self, spec: QuerySpec) {
        self.queries.push(spec);
        self.emitted.push(0);
    }

    /// Stores one observation.
    pub fn push(&mut self, obs: Obs) {
        self.obs.push(obs);
    }

    /// Stores a batch.
    pub fn ingest(&mut self, batch: impl IntoIterator<Item = Obs>) {
        self.obs.extend(batch);
    }

    /// Recomputes every window of every query from the full log and
    /// appends the newly closed ones in the engine's emission order
    /// (query-major, window ascending).
    pub fn advance_to(&mut self, wm: Micros) {
        if wm < self.watermark {
            return;
        }
        self.watermark = wm;
        for (qi, spec) in self.queries.iter().enumerate() {
            let Some(last) = spec.window.last_closed(wm) else {
                continue;
            };
            let mut carry = None;
            for k in 0..=last {
                let start = spec.window.start_of(k);
                let end = spec.window.end_of(k);
                let mut acc = Accum::new(&spec.agg);
                for o in &self.obs {
                    let t = o.at_us();
                    if t >= start && t < end {
                        if let Some(c) = spec.source.contribution(o) {
                            acc.add(&c);
                        }
                    }
                }
                let value = acc.finalize(&spec.agg, &spec.window, &mut carry);
                if k >= self.emitted[qi] {
                    self.outputs.push(QueryOutput {
                        query: spec.name.clone(),
                        window_index: k,
                        window_start_us: start,
                        window_end_us: end,
                        value,
                        count: acc.count,
                    });
                }
            }
            self.emitted[qi] = last + 1;
        }
    }

    /// Every output emitted so far, in emission order.
    pub fn outputs(&self) -> &[QueryOutput] {
        &self.outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{LabelFilter, QueryEngine, Source};
    use crate::window::{Aggregation, WindowSpec};
    use udc_telemetry::Labels;

    #[test]
    fn oracle_matches_engine_on_a_hand_stream() {
        let specs = vec![
            QuerySpec {
                name: "sum".to_string(),
                source: Source::Counter {
                    name: "c".to_string(),
                    labels: LabelFilter::any(),
                },
                agg: Aggregation::Sum,
                window: WindowSpec::sliding(100, 50),
            },
            QuerySpec {
                name: "ewma".to_string(),
                source: Source::Gauge {
                    name: "g".to_string(),
                    labels: LabelFilter::any(),
                },
                agg: Aggregation::Ewma { alpha: 0.3 },
                window: WindowSpec::tumbling(100),
            },
        ];
        let mut eng = QueryEngine::new();
        let mut naive = NaiveEngine::new();
        for s in &specs {
            eng.register(s.clone()).unwrap();
            naive.register(s.clone());
        }
        let stream = [
            Obs::Counter {
                at_us: 10,
                name: "c".to_string(),
                labels: Labels::none(),
                delta: 3,
            },
            Obs::Gauge {
                at_us: 20,
                name: "g".to_string(),
                labels: Labels::none(),
                value: 0.8,
            },
            Obs::Counter {
                at_us: 120,
                name: "c".to_string(),
                labels: Labels::none(),
                delta: 4,
            },
            Obs::Gauge {
                at_us: 260,
                name: "g".to_string(),
                labels: Labels::none(),
                value: 0.2,
            },
        ];
        for (i, o) in stream.iter().enumerate() {
            eng.push(o.clone());
            naive.push(o.clone());
            if i == 1 {
                eng.advance_to(150);
                naive.advance_to(150);
            }
        }
        eng.advance_to(400);
        naive.advance_to(400);
        assert_eq!(eng.outputs(), naive.outputs());
        assert!(!eng.outputs().is_empty());
    }
}
