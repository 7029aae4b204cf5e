//! Property tests for span forests over trials run in order on one hub:
//! every trial's forest must come out intact — parent/child links,
//! names, relative order, and trace membership — with no trace id
//! shared between trials, no matter how the trials nested their spans.

use std::cell::Cell;
use std::rc::Rc;

use proptest::prelude::*;
use udc_telemetry::{SpanRecord, Telemetry};

/// One trial's recording schedule: a stack program where `true` opens
/// a span and `false` closes the innermost open one (no-op when empty).
type Program = Vec<bool>;

/// What the store must contain for one trial: spans in creation order
/// with trial-local parent indices and trial-local trace numbers.
struct ExpectedSpan {
    name: String,
    parent: Option<usize>,
    trace: usize,
}

/// Runs `program` on `hub` under a fresh trial clock, mirroring the
/// expected structure with a plain stack oracle. Stack-empty opens mint
/// new traces (as `Cloud::submit` does); nested opens use plain
/// `span()` and must inherit the enclosing trace.
fn run_trial(hub: &Telemetry, program: &Program) -> Vec<ExpectedSpan> {
    let clock = Rc::new(Cell::new(0u64));
    let c = Rc::clone(&clock);
    hub.set_clock(move || c.get());
    let mut guards = Vec::new();
    let mut stack: Vec<usize> = Vec::new();
    let mut expected: Vec<ExpectedSpan> = Vec::new();
    let mut traces = 0usize;
    for (i, &open) in program.iter().enumerate() {
        clock.set(i as u64);
        if open {
            let name = format!("op{i}");
            let trace = match stack.last() {
                Some(&p) => expected[p].trace,
                None => {
                    traces += 1;
                    traces - 1
                }
            };
            let guard = if stack.is_empty() {
                hub.trace_root(&name)
            } else {
                hub.span(&name)
            };
            expected.push(ExpectedSpan {
                name,
                parent: stack.last().copied(),
                trace,
            });
            stack.push(expected.len() - 1);
            guards.push(guard);
        } else if stack.pop().is_some() {
            guards.pop(); // drop ends the innermost open span
        }
    }
    drop(guards); // close whatever remains open
    expected
}

fn span_by_id(spans: &[SpanRecord], id: u32) -> &SpanRecord {
    spans.iter().find(|s| s.id == id).expect("span id exists")
}

proptest! {
    #[test]
    fn sequential_trials_preserve_their_span_forests(
        programs in prop::collection::vec(
            prop::collection::vec(any::<bool>(), 1..40),
            1..5,
        ),
    ) {
        let hub = Telemetry::enabled();
        let all_expected: Vec<Vec<ExpectedSpan>> =
            programs.iter().map(|p| run_trial(&hub, p)).collect();

        let spans = hub.snapshot().spans;
        let total: usize = all_expected.iter().map(Vec::len).sum();
        prop_assert_eq!(spans.len(), total, "no span lost or invented");

        let mut offset = 0usize;
        let mut seen_traces: Vec<u64> = Vec::new();
        for expected in &all_expected {
            let slice = &spans[offset..offset + expected.len()];
            let mut trial_traces: Vec<u64> = Vec::new();
            for (local, (exp, got)) in expected.iter().zip(slice).enumerate() {
                prop_assert_eq!(&got.name, &exp.name);
                prop_assert!(got.end_us.is_some(), "every span closed");
                // Parent links point at the right span of the SAME trial.
                match exp.parent {
                    Some(p) => {
                        let parent = span_by_id(&spans, got.parent.expect("kept its parent"));
                        prop_assert_eq!(&parent.name, &expected[p].name);
                        prop_assert_eq!(parent.id, slice[p].id);
                        prop_assert_eq!(parent.trace, got.trace, "trace follows parent");
                    }
                    None => prop_assert!(got.parent.is_none(), "roots stay roots"),
                }
                // Same trial-local trace -> same hub trace id.
                let trace = got.trace.expect("every span traced");
                while trial_traces.len() <= exp.trace {
                    trial_traces.push(u64::MAX);
                }
                if trial_traces[exp.trace] == u64::MAX {
                    trial_traces[exp.trace] = trace;
                } else {
                    prop_assert_eq!(trial_traces[exp.trace], trace);
                }
                // Creation order is id order, timed by the trial's clock.
                if local > 0 {
                    prop_assert!(slice[local - 1].id < got.id);
                    prop_assert!(slice[local - 1].start_us <= got.start_us);
                }
            }
            // No trace id is shared across trials.
            for t in trial_traces.iter().filter(|&&t| t != u64::MAX) {
                prop_assert!(
                    !seen_traces.contains(t),
                    "trial traces must stay distinct on one hub"
                );
                seen_traces.push(*t);
            }
            offset += expected.len();
        }
    }
}
