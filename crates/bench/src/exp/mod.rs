//! The experiments, one function each, and the registry that names them.
//!
//! Every experiment prints its human-readable tables to stdout and
//! returns its artifact: the exact bytes committed as
//! `results/<name>.json`. `udc-exp <name|all>` writes them;
//! `tests/artifacts.rs` regenerates them in memory and compares them
//! with the committed files.

pub mod chaos;
pub mod e01;
pub mod e02;
pub mod e03;
pub mod e04;
pub mod e05;
pub mod e06;
pub mod e07;
pub mod e08;
pub mod e09;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e16;
pub mod e17;
pub mod finetune_sim;

/// An experiment: prints its tables, returns its artifact's bytes.
pub type Run = fn() -> String;

/// Every registered artifact: its name (the file stem under
/// `results/`) and the function that regenerates it.
pub const REGISTRY: &[(&str, Run)] = &[
    ("exp_01_medical", e01::run),
    ("exp_02_schemes", e02::run),
    ("exp_03_waste", e03::run),
    ("exp_04_utilization", e04::run),
    ("exp_05_matrix", e05::run),
    ("exp_06_coldstart", e06::run),
    ("exp_07_tenancy", e07::run),
    ("exp_08_consistency", e08::run),
    ("exp_09_recovery", e09::run),
    ("exp_10_conflicts", e10::run),
    ("exp_11_attest", e11::run),
    ("exp_12_finetune", e12::run),
    ("exp_13_locality", e13::run),
    ("exp_14_extvm", e14::run),
    ("exp_15_economics", e15::run),
    ("exp_16_legacy", e16::run),
    ("exp_17_serving", e17::run),
    ("udc_chaos", || chaos::crash_sweep(false).compact_json()),
    ("udc_chaos_net", || chaos::net_sweep(false).compact_json()),
];
