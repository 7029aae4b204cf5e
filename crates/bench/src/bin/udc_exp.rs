//! `udc-exp` — regenerates registered experiment artifacts.
//!
//! ```text
//! udc-exp exp_01_medical     # one artifact: results/exp_01_medical.json
//! udc-exp all                # every registered artifact, in order
//! ```
//!
//! Each experiment prints its tables to stdout; its artifact is written
//! to `results/<name>.json`. The names are the registry's
//! (`udc_bench::exp::REGISTRY`): the 17 `exp_NN_*` experiments and the
//! default compact chaos sweeps `udc_chaos` and `udc_chaos_net`.

use std::process::ExitCode;

use udc_bench::exp::REGISTRY;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted = match args.as_slice() {
        [name] => name.as_str(),
        _ => "",
    };
    let runs: Vec<_> = REGISTRY
        .iter()
        .filter(|(name, _)| wanted == "all" || wanted == *name)
        .collect();
    if runs.is_empty() {
        let names: Vec<&str> = REGISTRY.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: udc-exp <name|all>; names: {}", names.join(", "));
        return ExitCode::from(2);
    }
    for (name, run) in runs {
        udc_bench::export(name, &run());
        println!();
    }
    ExitCode::SUCCESS
}
