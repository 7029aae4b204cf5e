//! `udc-chaos` — runs one of the chaos sweeps in `udc_bench::exp::chaos`
//! and writes its artifact.
//!
//! ```text
//! udc-chaos                      # full 54-trial crash sweep
//! udc-chaos --smoke              # small fixed sweep for CI
//! udc-chaos --explain A2         # repair decision audit for a module
//! udc-chaos --full-artifact      # dump the whole telemetry snapshot
//! udc-chaos --net                # partition/gray sweep (lease detector)
//! ```
//!
//! The artifact goes to `results/udc_chaos.json` (`--net`:
//! `results/udc_chaos_net.json`). It is the compact per-trial summary
//! unless `--full-artifact` asks for the complete hub snapshot, which
//! trace tooling like `udc-trace` reads. A `--smoke` run overwrites the
//! committed full-sweep artifact with a smaller one.

use udc_bench::exp::chaos;

fn main() {
    udc_bench::stop_quietly_on_broken_pipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let smoke = flag("--smoke");
    let sweep = if flag("--net") {
        chaos::net_sweep(smoke)
    } else {
        chaos::crash_sweep(smoke)
    };
    let explain = args.iter().position(|a| a == "--explain");
    if let Some(module) = explain.and_then(|i| args.get(i + 1)) {
        sweep.explain(module);
    }
    let artifact = if flag("--full-artifact") {
        sweep.hub.snapshot().to_json()
    } else {
        sweep.compact_json()
    };
    udc_bench::export(sweep.name, &artifact);
}
