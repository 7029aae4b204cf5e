//! Offline stand-in for the `criterion` crate.
//!
//! Implements the subset the workspace's bench targets use:
//! `Criterion::bench_function`, `benchmark_group` with throughput and
//! `bench_with_input`, `BenchmarkId`, `black_box`, and the
//! `criterion_group!` / `criterion_main!` macros. Measurement is a
//! calibrated wall-clock loop (geometric warm-up until the batch takes
//! long enough to time, then a fixed number of measured batches); it
//! reports median ns/iter and derived throughput, with none of the
//! statistical machinery of the real crate.
//!
//! Two environment knobs support machine consumption in CI:
//!
//! - `UDC_BENCH_QUICK` (any value): shrinks the warm-up target and the
//!   measured batch count so a full bench binary completes in seconds —
//!   noisier numbers, same code paths;
//! - `UDC_BENCH_JSON=<path>`: on exit ([`finalize`], called by
//!   `criterion_main!`), every `(name, ns_per_iter)` pair measured by
//!   this process is written to `<path>` as a small JSON document for
//!   downstream threshold checks.

use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

const WARMUP_TARGET: Duration = Duration::from_millis(10);
const MEASURE_BATCHES: usize = 7;
const QUICK_WARMUP_TARGET: Duration = Duration::from_micros(500);
const QUICK_MEASURE_BATCHES: usize = 3;

/// Every result this process has measured, in execution order.
static RESULTS: Mutex<Vec<(String, f64)>> = Mutex::new(Vec::new());

fn quick_mode() -> bool {
    std::env::var_os("UDC_BENCH_QUICK").is_some()
}

fn record(name: &str, ns_per_iter: f64) {
    RESULTS
        .lock()
        .expect("bench sink poisoned")
        .push((name.to_string(), ns_per_iter));
}

/// Records an arbitrary named value into the bench JSON alongside the
/// timing results (shim extension; no real-criterion equivalent).
///
/// Threshold checks sometimes need a fact about the measuring machine
/// next to the measurements — e.g. a parallel-speedup floor is only
/// meaningful when the artifact says how many CPUs the run actually
/// had. Entries share the `{name, ns_per_iter}` schema so downstream
/// readers need no second parser; use a distinguishing prefix such as
/// `env/` for non-timing entries.
pub fn record_value(name: &str, value: f64) {
    record(name, value);
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the collected results as the bench JSON document.
fn render_results(results: &[(String, f64)]) -> String {
    let mut out = String::from("{\n  \"benches\": [\n");
    for (i, (name, ns)) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_iter\": {ns:.3}}}",
            json_escape(name)
        ));
        if i + 1 < results.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes the machine-readable results to `$UDC_BENCH_JSON`, if set.
/// Called automatically by `criterion_main!` after all groups run.
pub fn finalize() {
    let Some(path) = std::env::var_os("UDC_BENCH_JSON") else {
        return;
    };
    let path = std::path::PathBuf::from(path);
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let results = RESULTS.lock().expect("bench sink poisoned");
    std::fs::write(&path, render_results(&results))
        .unwrap_or_else(|e| panic!("writing bench JSON to {}: {e}", path.display()));
    eprintln!("bench JSON: {}", path.display());
}

/// Benchmark driver; collects and prints results.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Runs a single benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::default();
        f(&mut b);
        b.report(name, None);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _c: self,
            name: name.to_string(),
            throughput: None,
        }
    }
}

/// A related set of benchmarks sharing a name prefix and throughput.
pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declares the volume of work per iteration, enabling derived
    /// throughput in reports.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::default();
        f(&mut b);
        b.report(&format!("{}/{}", self.name, id), self.throughput);
        self
    }

    /// Runs one benchmark with an explicit input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher::default();
        f(&mut b, input);
        b.report(&format!("{}/{}", self.name, id), self.throughput);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Work-per-iteration declaration for throughput reporting.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

/// Identifies one benchmark within a group.
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// Id from a function name and a parameter.
    pub fn new(function: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        Self {
            text: format!("{function}/{parameter}"),
        }
    }

    /// Id from the parameter alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self {
            text: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// Timing loop handed to each benchmark closure.
#[derive(Default)]
pub struct Bencher {
    ns_per_iter: f64,
}

impl Bencher {
    /// Times the routine: geometric warm-up to find a batch size that
    /// runs for at least `WARMUP_TARGET`, then the median of
    /// `MEASURE_BATCHES` timed batches.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let (warmup_target, measure_batches) = if quick_mode() {
            (QUICK_WARMUP_TARGET, QUICK_MEASURE_BATCHES)
        } else {
            (WARMUP_TARGET, MEASURE_BATCHES)
        };
        let batch = Self::warm_up(warmup_target, &mut routine);
        let mut samples: Vec<f64> = (0..measure_batches)
            .map(|_| Self::time_batch(batch, &mut routine))
            .collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        self.ns_per_iter = samples[samples.len() / 2];
    }

    fn warm_up<O, F: FnMut() -> O>(target: Duration, routine: &mut F) -> u64 {
        let mut batch: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= target || batch >= 1 << 24 {
                break;
            }
            batch *= 2;
        }
        batch
    }

    fn time_batch<O, F: FnMut() -> O>(batch: u64, routine: &mut F) -> f64 {
        let start = Instant::now();
        for _ in 0..batch {
            black_box(routine());
        }
        start.elapsed().as_nanos() as f64 / batch as f64
    }

    fn report(&self, name: &str, throughput: Option<Throughput>) {
        record(name, self.ns_per_iter);
        let extra = match throughput {
            Some(Throughput::Bytes(n)) if self.ns_per_iter > 0.0 => {
                let gib = n as f64 / self.ns_per_iter * 1e9 / (1u64 << 30) as f64;
                format!("  thrpt: {gib:>10.3} GiB/s")
            }
            Some(Throughput::Elements(n)) if self.ns_per_iter > 0.0 => {
                let meps = n as f64 / self.ns_per_iter * 1e9 / 1e6;
                format!("  thrpt: {meps:>10.3} Melem/s")
            }
            _ => String::new(),
        };
        println!("{name:<48} time: {:>12.1} ns/iter{extra}", self.ns_per_iter);
    }
}

/// Bundles benchmark functions into a runnable group function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Generates `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            $crate::finalize();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_is_well_formed() {
        let results = vec![
            ("group/simple".to_string(), 12.3456),
            ("needs \"escaping\"\\n".to_string(), 0.5),
        ];
        let json = render_results(&results);
        assert!(json.contains("\"name\": \"group/simple\""));
        assert!(json.contains("\"ns_per_iter\": 12.346"));
        assert!(json.contains("needs \\\"escaping\\\"\\\\n"));
        // Exactly one separator comma between the two entries.
        assert_eq!(json.matches("},\n").count(), 1);
    }

    #[test]
    fn empty_results_render_an_empty_list() {
        assert_eq!(render_results(&[]), "{\n  \"benches\": [\n  ]\n}\n");
    }

    #[test]
    fn recorded_values_land_in_the_results_sink() {
        record_value("env/cpus", 8.0);
        let results = RESULTS.lock().expect("bench sink poisoned");
        assert!(results
            .iter()
            .any(|(name, v)| name == "env/cpus" && *v == 8.0));
    }
}
