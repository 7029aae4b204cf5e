//! `udc-benchmark` — one end-to-end benchmark of the tenant request life
//! and the provider control loop. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! udc-benchmark                         every workload, untraced then traced
//! udc-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                       one run; last stdout line is the result
//! udc-benchmark --check                 small fixed-size runs; sim results must repeat
//! udc-benchmark --repeat N              two sets of N seeds; spreads against bounds
//! udc-benchmark --manifest              print BENCHMARK.json from the metric tables
//! udc-benchmark --gen-corpus            rewrite corpus/*.udc from the generators
//! ```

mod corpus;
mod instrument;
mod report;
mod rng;
mod run;
mod scenario;
mod stats;
mod trace;

use instrument::Instrument;
use report::{MetricDef, Values, END_TO_END, PER_LAYER};
use run::{Budget, Outcome};
use scenario::{Kind, Scenario, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// `run_seconds` of `BENCHMARK.json`, and the default `--seconds`.
pub const RUN_SECONDS: u32 = 24;
/// Rounds per untraced run: set-up happens this many times, and
/// `setup_s` is their median.
const ROUNDS: usize = 3;
/// Spans kept in memory by a traced run, and written to the trace file.
const SPAN_CAPACITY: usize = 2_000_000;
const SPANS_WRITTEN: usize = 200_000;
/// Ticks of the instruments-off twin behind `instrument.attached_over_detached`.
const TWIN_TICKS: u64 = 400;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    repeat: Option<usize>,
    manifest: bool,
    gen_corpus: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        check: false,
        repeat: None,
        manifest: false,
        gen_corpus: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other}")),
                }
            }
            "--repeat" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if n < 2 {
                    return Err("--repeat needs at least 2 runs per set".to_string());
                }
                args.repeat = Some(n);
            }
            "--check" => args.check = true,
            "--manifest" => args.manifest = true,
            "--gen-corpus" => args.gen_corpus = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn print_machine_record() {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let tool = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    println!(
        "machine: nproc {} | cpu {cpu} | {} | commit {}",
        std::thread::available_parallelism().map_or(0, usize::from),
        tool("rustc", &["--version"]),
        tool("git", &["rev-parse", "--short", "HEAD"]),
    );
}

/// One untraced run: the end-to-end metrics.
fn untraced(scn: &Scenario, seed: u64, seconds: f64) -> (Outcome, Values) {
    let out = run::run(
        scn,
        seed,
        Budget::Seconds(seconds / ROUNDS as f64),
        ROUNDS,
        None,
    );
    let values = report::end_to_end_values(scn, &out);
    (out, values)
}

/// One traced run: construction probes, an untraced reference section,
/// the traced section with its probes, and (for an attached fleet) the
/// same fleet with the instruments off.
fn traced(scn: &Scenario, seed: u64, seconds: f64) -> (Outcome, Values) {
    let mut values = Values::new();
    instrument::micro_probes(scn, &mut values);
    // Rounds as long as an untraced run's, so per-operation times compare
    // (a fleet's ticks get dearer as a round goes on): one untraced for
    // reference, two traced.
    let slice = Budget::Seconds(seconds / ROUNDS as f64);
    let reference = run::run(scn, seed, slice, 1, None);
    let mut ins = Instrument::new(scn, SPAN_CAPACITY);
    let mut out = run::run(scn, seed, slice, ROUNDS - 1, Some(&mut ins));

    values.insert(
        "trace.overhead_ratio",
        reference.ops_per_s() / out.ops_per_s().max(f64::MIN_POSITIVE),
    );
    let mut twin_checks = None;
    if scn.attached && scn.kind == Kind::Fleet {
        let twin = run::run(&scn.detached_twin(), seed, Budget::Ops(TWIN_TICKS), 1, None);
        let p50 = |o: &Outcome| stats::median_u64(&mut o.op_ns.clone()) as f64;
        values.insert(
            "instrument.attached_over_detached",
            p50(&reference) / p50(&twin).max(1.0),
        );
        twin_checks = Some(twin.checks);
    }
    for checks in [Some(reference.checks.clone()), twin_checks]
        .into_iter()
        .flatten()
    {
        out.checks.attempted += checks.attempted;
        out.checks.failed += checks.failed;
        out.checks.notes.extend(checks.notes);
    }

    let (values, samples) = report::per_layer_values(scn, &out, &ins, values);
    println!(
        "workload {} traced: {} spans ({} dropped), overhead x{:.3} ({:.2} -> {:.2} ops/s)",
        scn.name,
        ins.tracer.spans().len(),
        ins.tracer.dropped(),
        values["trace.overhead_ratio"],
        reference.ops_per_s(),
        out.ops_per_s()
    );
    report::print_per_layer(&values, &samples);
    report::print_checks(&out);
    let path = out_dir().join(format!("trace_{}.json", scn.name));
    match ins.tracer.write_json(&path, scn.name, SPANS_WRITTEN) {
        Ok(()) => println!("  trace written to {}", path.display()),
        Err(e) => println!("  trace not written ({}): {e}", path.display()),
    }
    (out, values)
}

fn one_run(scn: &Scenario, args: &Args) -> ExitCode {
    let (defs, (out, values)): (&[MetricDef], _) = if args.trace {
        (&PER_LAYER, traced(scn, args.seed, args.seconds))
    } else {
        let result = untraced(scn, args.seed, args.seconds);
        report::print_end_to_end(scn, &result.0, &result.1);
        (&END_TO_END, result)
    };
    println!("{}", report::result_line(defs, &values, &out));
    if out.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs this program again for one workload and returns its result line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quiet: bool,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    if !quiet {
        println!("{report}");
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} (seed {seed}, trace {}) exited with {}:\n{stdout}",
            trace as u8, output.status
        ));
    }
    Ok(line.to_string())
}

fn all_workloads(seconds: f64) -> ExitCode {
    print_machine_record();
    let mut failed = false;
    for w in &WORKLOADS {
        for trace in [false, true] {
            match child(w.name, 1, seconds, trace, false) {
                Ok(line) => println!("{line}\n"),
                Err(e) => {
                    eprintln!("{e}");
                    failed = true;
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `--check`: every workload at about a fiftieth of its size, sized by
/// operation count so sim results are exact. Twice with one seed, once
/// with another.
fn check() -> ExitCode {
    let mut problems = Vec::new();
    for w in &WORKLOADS {
        let scn = w.check_sized();
        let go = |seed| run::run(&scn, seed, Budget::Ops(scn.check_ops), 1, None);
        let (a, b, c) = (go(1), go(1), go(2));
        println!(
            "check {:<15} ops {:>6}  digests {:016x} {:016x} {:016x}  failed {}/{}",
            scn.name,
            a.ops,
            a.digest.0,
            b.digest.0,
            c.digest.0,
            a.checks.failed,
            a.checks.attempted
        );
        if a.digest != b.digest {
            problems.push(format!("{}: same seed, different sim_digest", scn.name));
        }
        if a.digest == c.digest {
            problems.push(format!("{}: different seed, same sim_digest", scn.name));
        }
        if (
            a.ops,
            a.counts.runs,
            a.counts.makespan_us,
            a.counts.cost_microdollars,
        ) != (
            b.ops,
            b.counts.runs,
            b.counts.makespan_us,
            b.counts.cost_microdollars,
        ) {
            problems.push(format!("{}: same seed, different sim totals", scn.name));
        }
        for out in [&a, &b, &c] {
            // failed_ratio is expected to be exactly 0: refusals of the
            // infeasible ask are correct outcomes, not failures.
            if out.checks.failed != 0 || out.checks.attempted == 0 {
                problems.push(format!("{}: {:?}", scn.name, out.checks.notes));
            }
        }
        if scn.kind == Kind::Churn && a.counts.refused == 0 {
            problems.push(format!("{}: no infeasible ask was exercised", scn.name));
        }
        if scn.kind == Kind::Fleet && a.counts.repaired == 0 {
            problems.push(format!("{}: no repair was exercised", scn.name));
        }
    }
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    if problems.is_empty() {
        println!("check passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn metric_value(line: &str, name: &str) -> Option<f64> {
    serde_json::parse_value(line)
        .ok()?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// `--repeat N`: two sets of N untraced runs per workload, a new seed for
/// every run. Passes when, for every end-to-end metric × workload, each
/// set's quartile distance stays within the metric's bound (`setup_s`
/// excepted, as in the acceptance rule) and the second set's median is
/// not worse than the first's by more than the bound.
fn repeat(n: usize, seconds: f64) -> ExitCode {
    print_machine_record();
    let mut bad = 0;
    for w in &WORKLOADS {
        let mut sets: [Vec<String>; 2] = [Vec::new(), Vec::new()];
        for (s, lines) in sets.iter_mut().enumerate() {
            for i in 0..n {
                let seed = (s * n + i + 1) as u64;
                match child(w.name, seed, seconds, false, true) {
                    Ok(line) => lines.push(line),
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        println!("workload {}", w.name);
        println!(
            "  {:<22} {:>14} {:>14} {:>14} {:>8} {:>14} {:>8} {:>9} {:>6}  verdict",
            "metric",
            "median A",
            "q1 A",
            "q3 A",
            "spread A",
            "median B",
            "spread B",
            "worsened",
            "bound"
        );
        for d in &END_TO_END {
            let series = |lines: &[String]| -> Vec<f64> {
                lines
                    .iter()
                    .filter_map(|l| metric_value(l, d.name))
                    .collect()
            };
            let (a, b) = (series(&sets[0]), series(&sets[1]));
            let (med_a, med_b) = (stats::median_f64(&a), stats::median_f64(&b));
            let (q1, q3) = stats::quartiles(&a);
            let (spread_a, spread_b) = (stats::relative_spread(&a), stats::relative_spread(&b));
            let worsened = match d.better {
                "higher" => (med_a - med_b) / med_a,
                _ => (med_b - med_a) / med_a,
            };
            let steady = d.name == "setup_s" || (spread_a <= d.bound && spread_b <= d.bound);
            let ok = steady && worsened <= d.bound && a.len() == n && b.len() == n;
            bad += usize::from(!ok);
            println!(
                "  {:<22} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {:>14.4} {:>8.4} {:>9.4} {:>6}  {}",
                d.name,
                med_a,
                q1,
                q3,
                spread_a,
                med_b,
                spread_b,
                worsened,
                d.bound,
                if ok { "ok" } else { "OUTSIDE BOUND" }
            );
        }
    }
    if bad == 0 {
        println!("repeat passed: every end-to-end metric x workload within its bound");
        ExitCode::SUCCESS
    } else {
        println!("repeat failed: {bad} metric x workload pairs outside their bound");
        ExitCode::FAILURE
    }
}

fn gen_corpus() -> ExitCode {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus"));
    for (name, content) in corpus::generate() {
        if let Err(e) = std::fs::write(dir.join(&name), content) {
            eprintln!("{name}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("udc-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.gen_corpus {
        return gen_corpus();
    }
    if args.manifest {
        print!("{}", report::manifest(RUN_SECONDS));
        return ExitCode::SUCCESS;
    }
    if args.check {
        return check();
    }
    if let Some(n) = args.repeat {
        return repeat(n, args.seconds);
    }
    match &args.workload {
        None => all_workloads(args.seconds),
        Some(name) => match Scenario::named(name) {
            Some(scn) => one_run(&scn, &args),
            None => {
                eprintln!("udc-benchmark: no workload named {name}");
                ExitCode::from(2)
            }
        },
    }
}
