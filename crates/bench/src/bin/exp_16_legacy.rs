//! E16 — §4's "Supporting legacy software": a monolithic ETL+ML program
//! run as-is versus semi-automatically partitioned into UDC modules.
//!
//! "Without splitting these programs into smaller modules, their
//! executions would not benefit from the fine-grained treatments UDC
//! enables at each layer, leading to suboptimal performance and/or
//! resource utilization."

use udc_bench::{banner, fmt_cost, fmt_us, pct, Table};
use udc_core::{BillingModel, CloudConfig, UdcCloud};
use udc_legacy::{etl_ml_monolith_program, partition, to_app_spec, Hint, PartitionConfig};
use udc_spec::prelude::*;
use udc_telemetry::{EventKind, FieldValue, Labels, Telemetry};

const HOUR_US: u64 = 3_600_000_000;

/// The monolith as a single UDC module: it must reserve its PEAK needs
/// across all phases for the whole run (1 GPU + 8 cores + the 16 GiB
/// working set), exactly the over-provisioning §4 predicts.
fn monolith_app() -> AppSpec {
    let program = etl_ml_monolith_program();
    let total_work: u64 = program.blocks.iter().map(|b| b.work).sum();
    let peak_ws = program
        .blocks
        .iter()
        .map(|b| b.working_set_mib)
        .max()
        .unwrap_or(1);
    let mut app = AppSpec::new("monolith");
    app.add_task(
        TaskSpec::new("everything")
            .with_resource(
                ResourceAspect::default()
                    .with_demand(ResourceKind::Gpu, 1)
                    .with_demand(ResourceKind::Cpu, 8)
                    .with_demand(ResourceKind::Dram, peak_ws),
            )
            .with_work(total_work),
    );
    app
}

fn run(app: &AppSpec) -> (u64, u64, u64) {
    let mut cloud = UdcCloud::new(CloudConfig::default());
    let mut dep = cloud.submit(app).expect("fits the default datacenter");
    let report = cloud.run(&dep);
    let hourly = BillingModel::default()
        .price(cloud.datacenter(), &dep.placement, |_| HOUR_US)
        .total;
    let run_cost = report.cost.total;
    let makespan = report.makespan_us;
    cloud.teardown(&mut dep);
    (makespan, run_cost, hourly)
}

fn main() {
    banner(
        "E16",
        "Legacy software: monolith vs semi-automated partitioning",
        "static analysis + profiler + developer hints cut a program into \
         modules so each phase pays only for what it uses",
    );

    let program = etl_ml_monolith_program();
    // The developer contributes one semantic hint: featurize belongs
    // with the GPU embedding (they share the feature tensors).
    let hints = [Hint::KeepWithPrevious(udc_legacy::BlockId(6))];
    let part = partition(&program, &hints, PartitionConfig::default());
    let partitioned = to_app_spec(&program, &part, "etl-ml", 2 << 30).expect("valid app");

    println!(
        "partitioner: {} blocks -> {} modules, {} GiB of flows kept internal, \
         {} GiB crossing module boundaries",
        program.len(),
        part.segments,
        (program.flows.iter().map(|f| f.bytes).sum::<u64>() - part.cut_bytes) >> 30,
        part.cut_bytes >> 30,
    );
    println!();
    println!("emitted modules:");
    let mut m = Table::new(&["module", "inferred resources", "work"]);
    for module in partitioned.iter_modules() {
        let mut res = Vec::new();
        for (k, v) in module.resource.demand.iter() {
            res.push(format!("{v}{k}"));
        }
        if let Some(g) = module.resource.goal {
            res.push(format!("goal={}", g.name()));
        }
        m.row(&[
            module.id.to_string(),
            res.join("+"),
            module.work_units.unwrap_or(0).to_string(),
        ]);
    }
    m.print();

    let (mono_span, mono_cost, mono_hourly) = run(&monolith_app());
    let (part_span, part_cost, part_hourly) = run(&partitioned);

    let tel = Telemetry::enabled();
    tel.event(
        EventKind::Measurement,
        Labels::tenant("etl-ml"),
        &[
            ("modules", FieldValue::from(part.segments as u64)),
            ("cut_bytes", FieldValue::from(part.cut_bytes)),
            ("mono_makespan_us", FieldValue::from(mono_span)),
            ("part_makespan_us", FieldValue::from(part_span)),
            ("mono_run_cost", FieldValue::from(mono_cost)),
            ("part_run_cost", FieldValue::from(part_cost)),
            ("mono_hourly", FieldValue::from(mono_hourly)),
            ("part_hourly", FieldValue::from(part_hourly)),
        ],
    );

    println!();
    let mut t = Table::new(&[
        "deployment",
        "makespan",
        "run cost",
        "hourly reservation",
        "GPU held for",
    ]);
    t.row(&[
        "monolith (peak-reserved)".to_string(),
        fmt_us(mono_span),
        fmt_cost(mono_cost),
        fmt_cost(mono_hourly),
        "the whole run".to_string(),
    ]);
    t.row(&[
        format!("partitioned ({} modules)", part.segments),
        fmt_us(part_span),
        fmt_cost(part_cost),
        fmt_cost(part_hourly),
        "the GPU phase only".to_string(),
    ]);
    t.print();

    println!();
    println!(
        "cost saving from partitioning: {} (the monolith holds 1 GPU + 16 GiB \
         through its I/O and CPU phases; the modules release them)",
        pct(1.0 - part_cost as f64 / mono_cost.max(1) as f64)
    );
    let gpu_work: u64 = program
        .blocks
        .iter()
        .filter(|b| b.phase == udc_legacy::ResourcePhase::GpuAble)
        .map(|b| b.work)
        .sum();
    let total_work: u64 = program.blocks.iter().map(|b| b.work).sum();
    println!(
        "Shape: §4 predicts partitioned legacy programs gain utilization and \
         cost; only {}% of the profiled work can use the GPU, so the \
         monolith's whole-run GPU reservation is mostly idle capacity.",
        gpu_work * 100 / total_work
    );
    udc_bench::report::export("exp_16_legacy", &tel);
}
