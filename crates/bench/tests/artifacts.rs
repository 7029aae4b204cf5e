//! Every registered artifact regenerates byte-identical to the one
//! committed under `results/`, and reads back clean.
//!
//! Each experiment in `udc_bench::exp::REGISTRY` runs in memory; its
//! JSON is compared with the committed file, and a mismatch names the
//! artifact and its first differing line. The artifact is then read
//! back the way `udc-trace` reads it: a snapshot's spans must validate
//! with no violation, a compact chaos summary must parse. Nothing is
//! written. The three slowest experiments run as tests of their own so
//! the harness spreads them over the cores.
//!
//! After a change that means to move an artifact, regenerate it with
//! `udc-exp <name>` and commit the new bytes.

use std::collections::BTreeSet;

use udc_bench::exp::REGISTRY;
use udc_bench::{results_path, trace};

/// The experiments checked by a test of their own.
const ALONE: [&str; 3] = ["exp_04_utilization", "exp_10_conflicts", "exp_14_extvm"];

/// Regenerates artifact `name` and compares it with the committed file,
/// then reads it back. Returns what went wrong, if anything.
fn check(name: &str) -> Result<(), String> {
    let (_, run) = REGISTRY
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| format!("{name}: not in the registry"))?;
    let fresh = run();
    let path = results_path(name);
    let committed = std::fs::read_to_string(&path)
        .map_err(|e| format!("{name}: reading {}: {e}", path.display()))?;
    if let Some((line, want, got)) = first_difference(&committed, &fresh) {
        return Err(format!(
            "{name}: the regenerated artifact differs from {} at line {line}\n  \
             committed:   {want}\n  regenerated: {got}",
            path.display()
        ));
    }
    read_back(&fresh, name.starts_with("udc_chaos")).map_err(|e| format!("{name}: {e}"))
}

/// The first line (1-based) where `a` and `b` differ, with both lines;
/// `None` when the two texts are identical.
fn first_difference(a: &str, b: &str) -> Option<(usize, String, String)> {
    if a == b {
        return None;
    }
    let (mut la, mut lb) = (a.split('\n'), b.split('\n'));
    let mut line = 1;
    loop {
        match (la.next(), lb.next()) {
            (Some(x), Some(y)) if x == y => line += 1,
            (x, y) => {
                let show = |l: Option<&str>| l.map_or("<end of file>".to_string(), str::to_string);
                return Some((line, show(x), show(y)));
            }
        }
    }
}

/// Reads an artifact back: a compact chaos summary as JSON with its
/// schema and trial rows; a telemetry snapshot through `udc-trace`'s
/// reader, which must find no trace violation.
fn read_back(json: &str, compact: bool) -> Result<(), String> {
    let root = serde_json::parse_value(json).map_err(|e| e.to_string())?;
    if compact {
        let schema = root.get("schema").and_then(|s| s.as_str());
        let trials = root.get("trials").and_then(|t| t.as_array());
        return match (schema, trials) {
            (Some(_), Some(rows)) if !rows.is_empty() => Ok(()),
            _ => Err("no schema or no trial rows".to_string()),
        };
    }
    let spans = trace::parse_spans(&root)?;
    trace::parse_decisions(&root)?;
    trace::parse_alerts(&root)?;
    let dropped = root.get("dropped_spans").and_then(|d| d.as_u64());
    let violations = trace::validate(&spans, dropped.unwrap_or(0)).violations;
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!("trace violations: {violations:?}"))
    }
}

fn check_all(names: &[&str]) {
    let failures: Vec<String> = names.iter().filter_map(|name| check(name).err()).collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn exp_04_utilization_regenerates() {
    check_all(&["exp_04_utilization"]);
}

#[test]
fn exp_10_conflicts_regenerates() {
    check_all(&["exp_10_conflicts"]);
}

#[test]
fn exp_14_extvm_regenerates() {
    check_all(&["exp_14_extvm"]);
}

#[test]
fn every_other_registered_artifact_regenerates() {
    let names: Vec<&str> = REGISTRY
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| !ALONE.contains(name))
        .collect();
    check_all(&names);
}

/// Each committed experiment or chaos artifact has exactly one registry
/// entry and each entry exactly one committed file, so a new experiment
/// cannot ship unpinned and a deleted one cannot leave an orphan.
#[test]
fn the_registry_and_the_committed_artifacts_match_one_to_one() {
    let mut registered = BTreeSet::new();
    for (name, _) in REGISTRY {
        assert!(registered.insert(*name), "{name} is registered twice");
    }
    let dir = results_path("x")
        .parent()
        .expect("results dir")
        .to_path_buf();
    let mut on_disk = BTreeSet::new();
    for entry in std::fs::read_dir(&dir).expect("results dir reads") {
        let file = entry.expect("dir entry").file_name();
        let file = file.to_string_lossy();
        let Some(stem) = file.strip_suffix(".json") else {
            continue;
        };
        if stem.starts_with("exp_") || stem == "udc_chaos" || stem == "udc_chaos_net" {
            on_disk.insert(stem.to_string());
        }
    }
    let orphans: Vec<_> = on_disk
        .iter()
        .filter(|f| !registered.contains(f.as_str()))
        .map(|f| format!("results/{f}.json has no registry entry"))
        .collect();
    let unpinned: Vec<_> = registered
        .iter()
        .filter(|n| !on_disk.contains(**n))
        .map(|n| format!("registry entry {n} has no committed results/{n}.json"))
        .collect();
    let problems = [orphans, unpinned].concat();
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn a_difference_is_named_by_its_first_line() {
    assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
    assert_eq!(
        first_difference("a\nb\nc", "a\nB\nc"),
        Some((2, "b".to_string(), "B".to_string()))
    );
    assert_eq!(
        first_difference("a\n", "a\nextra"),
        Some((2, String::new(), "extra".to_string()))
    );
    assert_eq!(
        first_difference("a", "a\n"),
        Some((2, "<end of file>".to_string(), String::new()))
    );
}
