//! # udc-bench — experiment harness and micro-benchmarks
//!
//! One function per experiment in DESIGN.md's per-experiment index
//! (E1–E17), each regenerating one figure/table/claim of the paper, plus
//! the two chaos sweeps — all listed in one registry, [`exp::REGISTRY`]:
//!
//! ```text
//! cargo run -p udc-bench --release --bin udc-exp -- exp_01_medical
//! cargo run -p udc-bench --release --bin udc-exp -- all
//! ```
//!
//! `tests/artifacts.rs` regenerates every registered artifact in memory
//! and compares it with the committed `results/*.json`. Criterion
//! micro-benchmarks live in `benches/`: `cargo bench -p udc-bench`.
//!
//! This library also provides the shared table-rendering helpers so
//! every experiment prints uniform, paper-style tables, and the
//! artifact reader [`trace`] behind `udc-trace`.
//!
//! Experiments run their trials in order on one telemetry hub. Every
//! trial derives its RNG seed from its index and installs its own clock
//! before it records — a cloud's simulated clock (`set_observer`), or
//! [`trial_ticks`] for a trial without one — so a trial's records are
//! the same whichever trials ran before it.

pub mod exp;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Display;

use udc_telemetry::Telemetry;

/// Installs on `tel` a logical clock of one trial's own: it ticks once
/// per timestamped record, from 1, as a fresh hub's fallback clock
/// does — so a clockless trial stamps its records the same whatever
/// ran on the hub before it.
pub fn trial_ticks(tel: &Telemetry) {
    let ticks = std::cell::Cell::new(0);
    tel.set_clock(move || {
        ticks.set(ticks.get() + 1);
        ticks.get()
    });
}

/// A simple fixed-width table printer for experiment output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Display>(headers: &[S]) -> Self {
        Self {
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds one row (stringified cells).
    pub fn row<S: Display>(&mut self, cells: &[S]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths = vec![0; self.headers.len()];
        for row in std::iter::once(&self.headers).chain(&self.rows) {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let line = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:<w$}"))
                .collect();
            format!("| {} |\n", padded.join(" | "))
        };
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(w + 2)).collect();
        let mut out = line(&self.headers) + &format!("|{}|\n", rule.join("|"));
        for row in &self.rows {
            out += &line(row);
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Makes the calling tool stop quietly, with exit status 0, when the
/// reader of its stdout goes away early — `udc-trace … | grep -q …`
/// closes the pipe at the first match. `print!` panics on a broken
/// pipe; this hook turns exactly that panic into a clean exit and
/// reports every other panic as before. Call it first thing in `main`.
pub fn stop_quietly_on_broken_pipe() {
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if is_broken_pipe_panic(info.payload()) {
            std::process::exit(0);
        }
        report(info);
    }));
}

/// Whether a panic payload is `print!`'s "failed printing to stdout"
/// on a broken pipe.
fn is_broken_pipe_panic(payload: &(dyn std::any::Any + Send)) -> bool {
    let message = match payload.downcast_ref::<String>() {
        Some(s) => s.as_str(),
        None => payload.downcast_ref::<&str>().copied().unwrap_or(""),
    };
    // "Broken pipe (os error 32)" from the OS, "broken pipe" by kind.
    message.starts_with("failed printing to stdout")
        && message.to_ascii_lowercase().contains("broken pipe")
}

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str, claim: &str) {
    println!("=== {id}: {title} ===");
    println!("Paper claim: {claim}");
    println!();
}

/// `results/<name>.json` at the workspace root, independent of the
/// directory the tool is launched from.
pub fn results_path(name: &str) -> std::path::PathBuf {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.canonicalize().unwrap_or(root);
    root.join("results").join(format!("{name}.json"))
}

/// Writes artifact `name` to its [`results_path`] and prints the path.
pub fn export(name: &str, json: &str) {
    let path = results_path(name);
    std::fs::create_dir_all(path.parent().expect("under results/")).expect("results dir");
    std::fs::write(&path, json).expect("artifact writes");
    println!("artifact: {}", path.display());
}

/// Per key, how many alerts fired and the first and last fire time.
pub fn tally_fires<K: Ord>(
    fires: impl IntoIterator<Item = (K, u64)>,
) -> BTreeMap<K, (u64, u64, u64)> {
    let mut out = BTreeMap::new();
    for (key, at_us) in fires {
        let e = out.entry(key).or_insert((0, u64::MAX, 0));
        e.0 += 1;
        e.1 = e.1.min(at_us);
        e.2 = e.2.max(at_us);
    }
    out
}

/// Formats microseconds human-readably.
pub fn fmt_us(us: u64) -> String {
    if us >= 10_000_000 {
        format!("{:.1} s", us as f64 / 1e6)
    } else if us >= 10_000 {
        format!("{:.1} ms", us as f64 / 1e3)
    } else {
        format!("{us} us")
    }
}

/// Formats micro-dollars human-readably.
pub fn fmt_cost(micro_dollars: u64) -> String {
    format!("${:.4}", micro_dollars as f64 / 1e6)
}

/// Formats a fraction as a percentage.
pub fn pct(f: f64) -> String {
    format!("{:.1}%", f * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["alpha", "1"]);
        t.row(&["b", "100000"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        let widths: Vec<usize> = lines.iter().map(|l| l.chars().count()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{r}");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn trial_ticks_stamp_like_a_fresh_hubs_fallback_clock() {
        use udc_telemetry::{EventKind, Labels};
        let record = |tel: &Telemetry| {
            tel.event(EventKind::Placement, Labels::none(), &[]);
            tel.span("work").exit();
            tel.event(EventKind::Measurement, Labels::none(), &[]);
        };
        let fresh = Telemetry::enabled();
        record(&fresh);
        // An earlier trial leaves the shared hub's own ticks advanced.
        let shared = Telemetry::enabled();
        record(&shared);
        trial_ticks(&shared);
        record(&shared);
        let (a, b) = (fresh.snapshot(), shared.snapshot());
        let events = |s: &udc_telemetry::Snapshot, from: usize| -> Vec<u64> {
            s.events[from..].iter().map(|e| e.at_us).collect()
        };
        let spans = |s: &udc_telemetry::Snapshot, from: usize| -> Vec<(u64, Option<u64>)> {
            s.spans[from..]
                .iter()
                .map(|r| (r.start_us, r.end_us))
                .collect()
        };
        assert_eq!(events(&a, 0), vec![1, 4]);
        assert_eq!(events(&a, 0), events(&b, 2));
        assert_eq!(spans(&a, 0), spans(&b, 1));
    }

    #[test]
    fn trial_ticks_restart_for_each_trial() {
        use udc_telemetry::{EventKind, Labels};
        let hub = Telemetry::enabled();
        for _ in 0..3 {
            trial_ticks(&hub);
            hub.event(EventKind::Placement, Labels::none(), &[]);
            hub.event(EventKind::Measurement, Labels::none(), &[]);
        }
        let snap = hub.snapshot();
        let at: Vec<u64> = snap.events.iter().map(|e| e.at_us).collect();
        assert_eq!(at, vec![1, 2, 1, 2, 1, 2]);
        let seq: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seq, (0..6).collect::<Vec<_>>(), "sequence numbers run on");
    }

    #[test]
    fn only_a_broken_pipe_on_stdout_stops_quietly() {
        use std::io::Write;
        struct Closed;
        impl Write for Closed {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let e = write!(Closed, "table").unwrap_err();
        // The message `print!` panics with when stdout's write fails.
        let payload = |text: String| -> Box<dyn std::any::Any + Send> { Box::new(text) };
        assert!(is_broken_pipe_panic(&*payload(format!(
            "failed printing to stdout: {e}"
        ))));
        #[cfg(target_os = "linux")]
        assert!(is_broken_pipe_panic(&*payload(format!(
            "failed printing to stdout: {}",
            std::io::Error::from_raw_os_error(32)
        ))));
        let denied = std::io::Error::from(std::io::ErrorKind::PermissionDenied);
        assert!(!is_broken_pipe_panic(&*payload(format!(
            "failed printing to stdout: {denied}"
        ))));
        assert!(!is_broken_pipe_panic(&*payload(format!("parse: {e}"))));
        let by_str: Box<dyn std::any::Any + Send> = Box::new("index out of bounds");
        assert!(!is_broken_pipe_panic(&*by_str));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_us(500), "500 us");
        assert_eq!(fmt_us(50_000), "50.0 ms");
        assert_eq!(fmt_us(20_000_000), "20.0 s");
        assert_eq!(fmt_cost(1_500_000), "$1.5000");
        assert_eq!(pct(0.351), "35.1%");
    }
}
