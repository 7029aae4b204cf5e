//! A tool whose reader went away stops quietly: `udc-trace` writing
//! into a pipe whose read end is already closed (what `| grep -q` leaves
//! behind after its first match) exits 0 with nothing on stderr, so a
//! CI step under `set -o pipefail` fails only on a real fault.

use std::process::{Command, Stdio};

#[test]
fn udc_trace_into_a_closed_pipe_exits_cleanly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_udc-trace"))
        .arg(udc_bench::results_path("exp_15_economics"))
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("udc-trace runs");
    assert!(
        out.status.success(),
        "{:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
