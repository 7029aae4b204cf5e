//! Integration tests for the `udc` CLI binary, driven through the real
//! executable (`CARGO_BIN_EXE_udc`).

use std::process::Command;

fn udc(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_udc"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.success(),
    )
}

const MEDICAL: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/specs/medical.udc");

#[test]
fn check_accepts_the_shipped_spec() {
    let (stdout, stderr, ok) = udc(&["check", MEDICAL]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("10 modules"), "{stdout}");
    assert!(stdout.contains("no conflicts"), "{stdout}");
}

#[test]
fn plan_lists_every_module() {
    let (stdout, _, ok) = udc(&["plan", MEDICAL]);
    assert!(ok);
    for m in ["A1", "A2", "A3", "A4", "B1", "B2", "S1", "S2", "S3", "S4"] {
        assert!(stdout.contains(m), "missing {m} in:\n{stdout}");
    }
    assert!(stdout.contains("tee_enclave"), "{stdout}");
}

#[test]
fn run_reports_and_verifies() {
    let (stdout, _, ok) = udc(&["run", MEDICAL, "--warm-pool=2"]);
    assert!(ok, "verification must pass");
    assert!(stdout.contains("makespan"), "{stdout}");
    assert!(stdout.contains("sealed transfers"), "{stdout}");
    assert!(stdout.contains("verification:"), "{stdout}");
}

#[test]
fn run_json_emits_valid_json() {
    let (stdout, _, ok) = udc(&["run", MEDICAL, "--json"]);
    assert!(ok);
    let v = serde_json::parse_value(&stdout).expect("valid JSON");
    assert!(v.get("makespan_us").is_some());
    assert!(v.get("timings").is_some());
}

/// `udc run --json` on the shipped spec, byte for byte: per-module
/// `[start, end]` timings keyed by module id, the itemized cost with
/// `[kind, micro-dollars]` pairs, then the run's totals.
const RUN_JSON: &str = r#"{
  "timings": {
    "A1": [
      0,
      180349
    ],
    "A2": [
      180349,
      2430349
    ],
    "A3": [
      0,
      3856033
    ],
    "A4": [
      3856033,
      6603732
    ],
    "B1": [
      0,
      5434498
    ],
    "B2": [
      0,
      20669433
    ],
    "S1": [
      0,
      120000
    ],
    "S2": [
      0,
      120000
    ],
    "S3": [
      0,
      120000
    ],
    "S4": [
      0,
      120000
    ]
  },
  "makespan_us": 20669433,
  "cost": {
    "by_kind": [
      [
        "cpu",
        8003
      ],
      [
        "gpu",
        41909
      ],
      [
        "dram",
        0
      ],
      [
        "ssd",
        18060
      ],
      [
        "hdd",
        0
      ]
    ],
    "exclusive_surcharge": 0,
    "total": 67972
  },
  "sealed_messages": 7,
  "sealed_bytes": 3841982464,
  "transfer_us": 62,
  "warm_fraction": 0
}
"#;

/// The same run with two warm instances per environment class.
const RUN_JSON_WARM: &str = r#"{
  "timings": {
    "A1": [
      0,
      40349
    ],
    "A2": [
      40349,
      2290349
    ],
    "A3": [
      0,
      3716033
    ],
    "A4": [
      3716033,
      5763732
    ],
    "B1": [
      0,
      4734498
    ],
    "B2": [
      0,
      20669433
    ],
    "S1": [
      0,
      5000
    ],
    "S2": [
      0,
      5000
    ],
    "S3": [
      0,
      120000
    ],
    "S4": [
      0,
      120000
    ]
  },
  "makespan_us": 20669433,
  "cost": {
    "by_kind": [
      [
        "cpu",
        6509
      ],
      [
        "gpu",
        40043
      ],
      [
        "dram",
        0
      ],
      [
        "ssd",
        18060
      ],
      [
        "hdd",
        0
      ]
    ],
    "exclusive_surcharge": 0,
    "total": 64612
  },
  "sealed_messages": 7,
  "sealed_bytes": 3841982464,
  "transfer_us": 62,
  "warm_fraction": 0.6
}
"#;

#[test]
fn run_json_bytes_are_pinned() {
    let (stdout, stderr, ok) = udc(&["run", MEDICAL, "--json"]);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout, RUN_JSON);
    let (stdout, stderr, ok) = udc(&["run", MEDICAL, "--json", "--warm-pool=2"]);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout, RUN_JSON_WARM);
}

#[test]
fn fmt_round_trips() {
    let (stdout, _, ok) = udc(&["fmt", MEDICAL]);
    assert!(ok);
    // The canonical form must itself parse.
    udc_spec::parse_app(&stdout).expect("canonical output parses");
}

#[test]
fn bad_file_fails_cleanly() {
    let (_, stderr, ok) = udc(&["check", "/nonexistent.udc"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn bad_syntax_reports_line() {
    let dir = std::env::temp_dir().join("udc-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.udc");
    std::fs::write(&bad, "app x {\n  teleport T\n}\n").unwrap();
    let (_, stderr, ok) = udc(&["check", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("line 2"), "{stderr}");
}

#[test]
fn unknown_command_shows_usage() {
    let (_, stderr, ok) = udc(&["frobnicate", MEDICAL]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn work_beyond_the_bound_is_a_typed_refusal() {
    let dir = std::env::temp_dir().join("udc-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let huge = dir.join("huge.udc");
    std::fs::write(
        &huge,
        "app huge {\n  task a { work = 18446744073709551615 }\n  \
         task b { work = 18446744073709551615 }\n  edge a -> b\n}\n",
    )
    .unwrap();
    let bound = udc_spec::validate::MAX_WORK_UNITS.to_string();
    let (_, stderr, ok) = udc(&["check", huge.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains(&bound), "{stderr}");
    let (_, stderr, ok) = udc(&["run", huge.to_str().unwrap()]);
    assert!(!ok && stderr.starts_with("submit failed"), "{stderr}");
    assert!(stderr.contains(&bound), "{stderr}");
}

#[test]
fn warm_pool_beyond_the_ceiling_is_a_usage_error() {
    for size in ["4097", "1000000000000", "18446744073709551615"] {
        let out = Command::new(env!("CARGO_BIN_EXE_udc"))
            .args(["run", MEDICAL, &format!("--warm-pool={size}")])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{size}: {stderr}");
        assert!(stderr.contains("bad warm-pool size"), "{size}: {stderr}");
        assert!(stderr.contains("at most 4096"), "{size}: {stderr}");
    }
    let (_, stderr, ok) = udc(&["run", MEDICAL, "--warm-pool=4096"]);
    assert!(ok, "the ceiling itself is accepted: {stderr}");
}
