//! Hostile tenant input never panics. Assembler text, alert-rule
//! strings and `.udc` specs are mangled (1–3 lines or space-separated
//! tokens deleted, duplicated or swapped, or a token's number replaced
//! by a boundary numeral) and driven through everything that consumes
//! them; each must come out as a typed error or a clean result. So must
//! any text handed to the JSON reader behind the offline artifact tools.

use proptest::prelude::*;
use serde_json::{parse_value, to_string_pretty, Error, MAX_DEPTH};
use udc_core::{
    CloudConfig, CloudError, UdcCloud, HEAL_DEGRADED_GAUGE, HEAL_DEGRADED_RULE, RING_DROPPED_GAUGE,
    RING_DROPPED_RULE,
};
use udc_query::{parse_rule, Obs, QueryEngine, DEFAULT_RULES};
use udc_spec::{parse_app, print_app, ConflictPolicy, ResolvedApp};
use udc_telemetry::Labels;

/// The edges of the integer types the three parsers read: `u8` operands,
/// `i64` immediates, `u64` numbers and durations.
const BOUNDARY: [&str; 9] = [
    "0",
    "255",
    "256",
    "-1",
    "-9223372036854775808",
    "9223372036854775807",
    "18446744073709551615",
    "18446744073709551615s",
    "18446744073709551615ms",
];

/// One edit of `text`, seen as lines or as space-separated tokens:
/// delete unit `i` (op 0), duplicate it (1), swap it with unit `j` (2),
/// or put `BOUNDARY[j]` in place of the first number in the first unit
/// from `i` on that has one (3).
fn mangle(text: &str, by_line: bool, op: u8, i: usize, j: usize) -> String {
    let sep = if by_line { "\n" } else { " " };
    let mut units: Vec<String> = text.split(sep).map(str::to_string).collect();
    let n = units.len();
    let (i, j) = (i % n, j % n);
    match op {
        0 => drop(units.remove(i)),
        1 => units.insert(i, units[i].clone()),
        2 => units.swap(i, j),
        _ => {
            let has_digit = |u: &String| u.contains(|c: char| c.is_ascii_digit());
            if let Some(k) = (0..n).map(|d| (i + d) % n).find(|&k| has_digit(&units[k])) {
                units[k] = with_numeral(&units[k], BOUNDARY[j % BOUNDARY.len()]);
            }
        }
    }
    units.join(sep)
}

/// `unit` with its first run of digits, and a sign right before it,
/// replaced by `numeral`.
fn with_numeral(unit: &str, numeral: &str) -> String {
    let start = unit
        .find(|c: char| c.is_ascii_digit())
        .expect("the caller picked a unit with a digit");
    let end = unit[start..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(unit.len(), |len| start + len);
    let start = start - usize::from(unit[..start].ends_with('-'));
    format!("{}{numeral}{}", &unit[..start], &unit[end..])
}

/// Up to three edits: `(by_line, op, i, j)` as [`mangle`] reads them.
fn edits() -> impl Strategy<Value = Vec<(bool, u8, usize, usize)>> {
    prop::collection::vec(
        (any::<bool>(), 0u8..4, any::<usize>(), any::<usize>()),
        1..4,
    )
}

fn mangled(text: &str, edits: Vec<(bool, u8, usize, usize)>) -> String {
    let mangle_once = |t: String, (by_line, op, i, j)| mangle(&t, by_line, op, i, j);
    edits.into_iter().fold(text.to_string(), mangle_once)
}

/// Every shipped `.udc` spec and the printed form of each
/// `udc_workload` generator (built once).
fn spec_corpus() -> &'static [String] {
    static CORPUS: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
    CORPUS.get_or_init(|| {
        let specs = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/specs");
        let mut paths: Vec<_> = std::fs::read_dir(specs)
            .expect("examples/specs exists")
            .map(|entry| entry.expect("readable entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "udc"))
            .collect();
        paths.sort();
        let mut corpus: Vec<String> = paths
            .iter()
            .map(|path| std::fs::read_to_string(path).expect("readable spec"))
            .collect();
        assert!(!corpus.is_empty(), "no .udc spec under {specs}");
        let conflicting = udc_workload::RandomDagConfig {
            tasks: 6,
            data: 3,
            conflict_prob: 0.5,
            ..Default::default()
        };
        for app in [
            udc_workload::medical_pipeline(),
            udc_workload::microservice_chain(3),
            udc_workload::ml_serving_chain(2),
            udc_workload::analytics_fanout(4),
            udc_workload::random_app(conflicting).0,
        ] {
            corpus.push(print_app(&app));
        }
        corpus
    })
}

/// The stock ruleset, the two rules `UdcCloud::attach_queries` loads,
/// and a sliding threshold rule.
fn rule_corpus() -> Vec<String> {
    let mut rules: Vec<String> = DEFAULT_RULES.iter().map(|r| r.to_string()).collect();
    for (name, gauge, for_us) in [
        (HEAL_DEGRADED_RULE, HEAL_DEGRADED_GAUGE, 500_000),
        (RING_DROPPED_RULE, RING_DROPPED_GAUGE, 0),
    ] {
        rules.push(format!(
            "{name}: sustained(gauge:{gauge} >= 1) for {for_us}us"
        ));
    }
    rules.push("hot: mean(gauge:usage{tenant=acme,module=m0}) over 1s slide 250ms > 0.9".into());
    rules
}

/// A stream every rule above can match: failures, both built-in
/// gauges and the usage gauge, spread over 15 ms.
fn stream() -> Vec<Obs> {
    let m0 = || Labels::module("acme", "m0");
    let gauge = |at_us, name: &str, labels, value| Obs::Gauge {
        at_us,
        name: name.to_string(),
        labels,
        value,
    };
    let failure = |at_us| Obs::Event {
        at_us,
        kind: "failure".to_string(),
        labels: m0(),
    };
    vec![
        failure(10),
        gauge(20, HEAL_DEGRADED_GAUGE, m0(), 1.0),
        gauge(20, RING_DROPPED_GAUGE, Labels::none(), 1.0),
        gauge(30, "usage", m0(), 0.95),
        failure(15_000),
    ]
}

/// Pieces of JSON text, well-formed and not: brackets, separators,
/// escapes, partial literals and numbers, multi-byte characters.
const JSON_BITS: [&str; 24] = [
    "[", "]", "{", "}", "\"", "\\", ":", ",", " ", "\\u", "\\ud800", "00e9", "-", "1", "0.5e",
    "E+", "nul", "null", "true", "fals", "\"k\"", "é", "😀", "\n",
];

proptest! {
    /// (a) The canned tenant policies, mangled, assemble or are refused
    /// with an `AsmError`.
    #[test]
    fn mangled_assembler_yields_typed_errors_never_panics(
        source in 0usize..4,
        edits in edits(),
    ) {
        let canned = [
            udc_extvm::BEST_FIT,
            udc_extvm::WORST_FIT,
            udc_extvm::RACK_AFFINITY,
            udc_extvm::HALF_EMPTY_ONLY,
        ];
        let _ = udc_extvm::assemble(&mangled(canned[source], edits));
    }

    /// (b) A mangled rule parses or is refused; one that parses also
    /// registers (or is refused) and survives a stream and a watermark.
    #[test]
    fn mangled_rules_yield_typed_errors_never_panics(
        source in 0usize..64,
        edits in edits(),
    ) {
        let rules = rule_corpus();
        let Ok(parsed) = parse_rule(&mangled(&rules[source % rules.len()], edits)) else {
            return Ok(());
        };
        let mut engine = QueryEngine::new();
        for query in parsed.queries {
            if engine.register(query).is_err() {
                return Ok(());
            }
        }
        if engine.add_rule(parsed.rule).is_err() {
            return Ok(());
        }
        engine.ingest(stream());
        engine.advance_to(20_000);
    }

    /// (c) Shipped specs, mangled, go through the whole tenant life —
    /// parser, `ResolvedApp::new`, `submit`, `run`, `teardown` — and come
    /// out as a finished run or a typed error; and `submit` refuses
    /// exactly what the front door refuses, for the same reason.
    #[test]
    fn mangled_specs_yield_typed_errors_never_panics(
        source in 0usize..64,
        edits in edits(),
        policy in prop_oneof![Just(ConflictPolicy::StrictestWins), Just(ConflictPolicy::Error)],
    ) {
        let corpus = spec_corpus();
        let Ok(app) = parse_app(&mangled(&corpus[source % corpus.len()], edits)) else {
            return Ok(());
        };
        let front_door = ResolvedApp::new(&app, policy).map(drop);
        let mut cloud = UdcCloud::new(CloudConfig { conflict_policy: policy, ..Default::default() });
        match cloud.submit(&app) {
            Ok(mut dep) => {
                prop_assert_eq!(front_door, Ok(()));
                cloud.run(&dep);
                cloud.teardown(&mut dep);
            }
            Err(CloudError::Spec(e)) => prop_assert_eq!(front_door, Err(e)),
            Err(CloudError::Sched(_)) => prop_assert_eq!(front_door, Ok(())),
        }
    }

    /// (d) Any text handed to the JSON reader parses or is refused with
    /// an `Error`.
    #[test]
    fn arbitrary_text_is_parsed_or_refused(
        bits in prop::collection::vec(0usize..JSON_BITS.len(), 0..64),
        printable in "\\PC{0,32}",
    ) {
        let text: String = bits.iter().map(|&i| JSON_BITS[i]).collect();
        let _ = parse_value(&text);
        let _ = parse_value(&printable);
        let _ = parse_value(&(text + &printable));
    }

    /// (e) Arrays and objects nested at random: up to `MAX_DEPTH` levels
    /// the text parses and its value re-renders to itself, one level more
    /// is refused as too deep, and any prefix cut short is refused.
    #[test]
    fn random_nestings_parse_or_are_refused_as_too_deep(
        arrays in prop::collection::vec(any::<bool>(), 0..400),
        cut in any::<usize>(),
    ) {
        let open: String = arrays.iter().map(|&a| if a { "[" } else { "{\"k\": " }).collect();
        let close: String = arrays.iter().rev().map(|&a| if a { "]" } else { "}" }).collect();
        let text = format!("{open}1{close}");
        let parsed = parse_value(&text);
        if arrays.len() <= MAX_DEPTH {
            let v = parsed.expect("nesting within the cap parses");
            prop_assert_eq!(parse_value(&to_string_pretty(&v)), Ok(v));
        } else {
            let too_deep = matches!(parsed, Err(Error::TooDeep { .. }));
            prop_assert!(too_deep, "{parsed:?}");
        }
        prop_assert!(parse_value(&text[..cut % text.len()]).is_err());
    }
}
