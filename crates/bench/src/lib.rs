//! # udc-bench — experiment harness and micro-benchmarks
//!
//! One binary per experiment in DESIGN.md's per-experiment index
//! (E1–E15), each regenerating one figure/table/claim of the paper:
//!
//! ```text
//! cargo run -p udc-bench --release --bin exp_01_medical
//! cargo run -p udc-bench --release --bin exp_03_waste
//! ...
//! ```
//!
//! Criterion micro-benchmarks live in `benches/`:
//! `cargo bench -p udc-bench`.
//!
//! This library provides the shared table-rendering helpers so every
//! experiment prints uniform, paper-style tables.
//!
//! Experiments run their trials in order on one telemetry hub. Every
//! trial derives its RNG seed from its index and installs its own clock
//! before it records — a cloud's simulated clock (`set_observer`), or
//! [`trial_ticks`] for a trial without one — so a trial's records are
//! the same whichever trials ran before it.

pub mod finetune_sim;
pub mod report;

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
        let cols = self.headers.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            out.push_str("| ");
            for (i, c) in cells.iter().enumerate() {
                out.push_str(c);
                for _ in c.chars().count()..widths[i] {
                    out.push(' ');
                }
                out.push_str(" | ");
            }
            out.pop();
            out.push('\n');
        };
        line(&mut out, &self.headers);
        out.push('|');
        for w in &widths {
            out.push_str(&"-".repeat(w + 2));
            out.push('|');
        }
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Prints the table to stderr — for experiments whose stdout is
    /// reserved for machine-readable output.
    pub fn eprint(&self) {
        eprint!("{}", self.render());
    }
}

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str, claim: &str) {
    println!("=== {id}: {title} ===");
    println!("Paper claim: {claim}");
    println!();
}

/// Prints an experiment banner to stderr — the human-facing channel for
/// experiments that write structured JSON to `results/`.
pub fn banner_stderr(id: &str, title: &str, claim: &str) {
    eprintln!("=== {id}: {title} ===");
    eprintln!("Paper claim: {claim}");
    eprintln!();
}

/// Resolves `results/<name>` at the workspace root, independent of the
/// directory the experiment is launched from.
pub fn results_path(name: &str) -> std::path::PathBuf {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.canonicalize().unwrap_or(root);
    root.join("results").join(name)
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
    fn formatting_helpers() {
        assert_eq!(fmt_us(500), "500 us");
        assert_eq!(fmt_us(50_000), "50.0 ms");
        assert_eq!(fmt_us(20_000_000), "20.0 s");
        assert_eq!(fmt_cost(1_500_000), "$1.5000");
        assert_eq!(pct(0.351), "35.1%");
    }
}
