//! The `udc` command-line tool: work with `.udc` application specs
//! against a simulated User-Defined Cloud.
//!
//! ```text
//! udc check  <app.udc>   validate + conflict-check a spec
//! udc plan   <app.udc>   show the placement the cloud would produce
//! udc run    <app.udc>   deploy, execute, bill, and verify
//! udc fmt    <app.udc>   print the canonical form of a spec
//! ```
//!
//! Flags: `--conflicts=error|strictest` (default strictest),
//! `--warm-pool=N` (default 0, at most 4096), `--json` (machine-readable
//! run report).

use serde_json::{Number, Value};
use std::process::ExitCode;
use udc_core::{CloudConfig, RunReport, UdcCloud};
use udc_isolate::WarmPoolConfig;
use udc_spec::conflict::detect_conflicts;
use udc_spec::{parse_app, print_app, AppSpec, ConflictPolicy};

/// The largest `--warm-pool` size accepted: instances kept warm per
/// environment class, far beyond any app's module count.
const MAX_WARM_POOL: usize = 4096;

struct Options {
    conflict_policy: ConflictPolicy,
    warm_pool: usize,
    json: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: udc <check|plan|run|fmt> <app.udc> \
         [--conflicts=error|strictest] [--warm-pool=N] [--json]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut path = None;
    let mut options = Options {
        conflict_policy: ConflictPolicy::StrictestWins,
        warm_pool: 0,
        json: false,
    };
    for arg in &args {
        if let Some(v) = arg.strip_prefix("--conflicts=") {
            options.conflict_policy = match v {
                "error" => ConflictPolicy::Error,
                "strictest" => ConflictPolicy::StrictestWins,
                other => {
                    eprintln!("unknown conflict policy `{other}`");
                    return usage();
                }
            };
        } else if let Some(v) = arg.strip_prefix("--warm-pool=") {
            options.warm_pool = match v.parse() {
                Ok(n) if n <= MAX_WARM_POOL => n,
                _ => {
                    eprintln!("bad warm-pool size `{v}` (at most {MAX_WARM_POOL})");
                    return usage();
                }
            };
        } else if arg == "--json" {
            options.json = true;
        } else if command.is_none() {
            command = Some(arg.clone());
        } else if path.is_none() {
            path = Some(arg.clone());
        } else {
            eprintln!("unexpected argument `{arg}`");
            return usage();
        }
    }
    let (Some(command), Some(path)) = (command, path) else {
        return usage();
    };

    let source = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("udc: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let app = match parse_app(&source) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("udc: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    match command.as_str() {
        "check" => cmd_check(&app, &options),
        "plan" => cmd_plan(&app, &options),
        "run" => cmd_run(&app, &options),
        "fmt" => {
            print!("{}", print_app(&app));
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command `{other}`");
            usage()
        }
    }
}

fn cmd_check(app: &AppSpec, options: &Options) -> ExitCode {
    if let Err(e) = app.validate() {
        eprintln!("invalid: {e}");
        return ExitCode::FAILURE;
    }
    let report = detect_conflicts(app);
    if report.is_clean() {
        println!(
            "ok: {} modules ({} tasks, {} data), {} edges, {} hints, no conflicts",
            app.len(),
            app.tasks().count(),
            app.data().count(),
            app.edges.len(),
            app.hints.len()
        );
        return ExitCode::SUCCESS;
    }
    println!("{} conflict(s):", report.len());
    for c in &report.conflicts {
        println!("  - {c}");
    }
    match options.conflict_policy {
        ConflictPolicy::StrictestWins => {
            println!("policy strictest-wins: the cloud would upgrade and accept");
            ExitCode::SUCCESS
        }
        ConflictPolicy::Error => {
            println!("policy error: the cloud would reject this app");
            ExitCode::FAILURE
        }
    }
}

fn cloud_for(options: &Options) -> UdcCloud {
    UdcCloud::new(CloudConfig {
        conflict_policy: options.conflict_policy,
        warm_pool: if options.warm_pool > 0 {
            WarmPoolConfig::uniform(options.warm_pool)
        } else {
            WarmPoolConfig::disabled()
        },
        ..Default::default()
    })
}

fn cmd_plan(app: &AppSpec, options: &Options) -> ExitCode {
    let mut cloud = cloud_for(options);
    let mut dep = match cloud.submit(app) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("placement failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{:<14} {:>6} {:>8} {:<18} {:>8} {:>8}",
        "module", "kind", "units", "environment", "tenancy", "replicas"
    );
    for (id, p) in &dep.placement.modules {
        println!(
            "{:<14} {:>6} {:>8} {:<18} {:>8} {:>8}",
            id.to_string(),
            p.placed_kind.to_string(),
            p.allocations[0].total_units(),
            p.env.kind.to_string(),
            if p.env.single_tenant {
                "single"
            } else {
                "shared"
            },
            p.replica_devices.len(),
        );
    }
    cloud.teardown(&mut dep);
    ExitCode::SUCCESS
}

fn cmd_run(app: &AppSpec, options: &Options) -> ExitCode {
    let mut cloud = cloud_for(options);
    let mut dep = match cloud.submit(app) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("submit failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = cloud.run(&dep);
    let verification = cloud.verify_deployment(&dep);
    if options.json {
        println!("{}", serde_json::to_string_pretty(&report_json(&report)));
    } else {
        println!(
            "makespan {:.1} ms; cost ${:.6}; {} sealed transfers ({} MiB protected)",
            report.makespan_us as f64 / 1e3,
            report.cost.total as f64 / 1e6,
            report.sealed_messages,
            report.sealed_bytes >> 20,
        );
        for (id, (start, end)) in &report.timings {
            println!(
                "  {id:<14} [{:>10.1} ms .. {:>10.1} ms]",
                *start as f64 / 1e3,
                *end as f64 / 1e3
            );
        }
        println!(
            "verification: {} verified, {} provider-trusted, {} FAILED",
            verification.verified(),
            verification.not_verifiable(),
            verification.failed()
        );
    }
    cloud.teardown(&mut dep);
    if verification.all_fulfilled() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `--json` form of a run report: timings as `[start, end]` per
/// module id, the cost with `[kind, micro-dollars]` pairs, then totals.
fn report_json(report: &RunReport) -> Value {
    let uint = |v: u64| Value::Number(Number::U(v));
    let field = |key: &str, v: Value| (key.to_string(), v);
    let timings = report
        .timings
        .iter()
        .map(|(id, &(start, end))| field(id.as_str(), Value::Array(vec![uint(start), uint(end)])));
    let by_kind = report.cost.by_kind.iter().map(|&(kind, micros)| {
        Value::Array(vec![Value::String(kind.name().to_string()), uint(micros)])
    });
    Value::Object(vec![
        field("timings", Value::Object(timings.collect())),
        field("makespan_us", uint(report.makespan_us)),
        field(
            "cost",
            Value::Object(vec![
                field("by_kind", Value::Array(by_kind.collect())),
                field("exclusive_surcharge", uint(report.cost.exclusive_surcharge)),
                field("total", uint(report.cost.total)),
            ]),
        ),
        field("sealed_messages", uint(report.sealed_messages)),
        field("sealed_bytes", uint(report.sealed_bytes)),
        field("transfer_us", uint(report.transfer_us)),
        field(
            "warm_fraction",
            Value::Number(Number::F(report.warm_fraction)),
        ),
    ])
}
