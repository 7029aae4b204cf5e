//! Migrating a legacy monolith to UDC (§4): the profiler + static
//! analysis produce a block graph, the developer adds one hint, the
//! partitioner cuts it into modules, and the emitted app deploys on the
//! cloud with per-phase resources.
//!
//! ```sh
//! cargo run --example legacy_migration
//! ```

use udc::core::{CloudConfig, UdcCloud};
use udc::legacy::{
    etl_ml_monolith_program, partition, to_app_spec, BlockId, Hint, PartitionConfig,
};

fn main() {
    // 1. What the tooling produced: 12 profiled blocks with phases and
    //    dataflow weights.
    let program = etl_ml_monolith_program();
    println!("profiled monolith ({} blocks):", program.len());
    for b in &program.blocks {
        println!(
            "  [{:>2}] {:<14} {:<12} work={:<5} ws={} MiB",
            b.id.0,
            b.label,
            format!("{:?}", b.phase),
            b.work,
            b.working_set_mib
        );
    }

    // 2. The developer-in-the-loop hint: featurize belongs with the GPU
    //    embedding stage (they share the feature tensors).
    let hints = [Hint::KeepWithPrevious(BlockId(6))];
    let part = partition(&program, &hints, PartitionConfig::default());
    println!(
        "\npartitioned into {} modules; {} MiB of flows still cross boundaries:",
        part.segments,
        part.cut_bytes >> 20
    );
    for (i, (s, e)) in part.ranges().iter().enumerate() {
        let labels: Vec<&str> = program.blocks[*s..=*e]
            .iter()
            .map(|b| b.label.as_str())
            .collect();
        println!("  module {i}: {}", labels.join(" + "));
    }

    // 3. Emit the UDC app (aspects inferred from profiles) and deploy.
    let app = to_app_spec(&program, &part, "etl-ml", 2 << 30).expect("valid app");
    println!("\nemitted .udc spec:\n");
    let text = udc::spec::print_app(&app);
    for line in text.lines().take(22) {
        println!("  {line}");
    }
    println!("  ... (elided)");

    let mut cloud = UdcCloud::new(CloudConfig::default());
    let mut dep = cloud.submit(&app).expect("fits the default datacenter");
    let report = cloud.run(&dep);
    println!(
        "\ndeployed and ran: makespan {:.1} s, cost ${:.4} — each phase paid \
         only for its own hardware (the monolith would hold the GPU and the \
         16 GiB working set for the whole run; see `udc-exp exp_16_legacy`).",
        report.makespan_us as f64 / 1e6,
        report.cost.total as f64 / 1e6
    );
    cloud.teardown(&mut dep);
}
