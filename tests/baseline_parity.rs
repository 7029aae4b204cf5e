//! Integration tests for the experiment claims: the relationships the
//! paper asserts (waste, consolidation, FaaS gaps, matrix costs) hold in
//! this implementation, so the experiment binaries report real effects
//! rather than artifacts.

use udc::baseline::{Catalog, DevOpsMatrix, FaasRuntime, IaasProvisioner};
use udc::sched::{PackAlgo, ServerCluster, ServerShape};
use udc::spec::{ResourceKind, ResourceVector};
use udc::workload::{DemandClass, DemandSampler};

#[test]
fn catalog_waste_is_in_the_papers_band() {
    // §1 cites 35% waste; our synthetic population must land in a
    // credible 25-55% band (shape, not exact number).
    let mut sampler = DemandSampler::new(7);
    let demands = sampler.sample_n(2_000);
    let out = IaasProvisioner::new().provision(&demands);
    assert!(
        out.mean_waste > 0.25 && out.mean_waste < 0.55,
        "waste {} outside the plausible band",
        out.mean_waste
    );
    assert_eq!(out.unplaceable, 0, "the mixture fits the catalog");
}

#[test]
fn papers_gpu_example_forces_oversized_instance() {
    let catalog = Catalog::aws_2021();
    let mut d = ResourceVector::new();
    d.set(ResourceKind::Gpu, 8);
    d.set(ResourceKind::Cpu, 4);
    d.set(ResourceKind::Dram, 64 * 1024);
    let t = catalog.cheapest_fitting(&d).expect("a p3 fits");
    assert!(
        t.name == "p3.16xlarge" || t.name == "p3dn.24xlarge",
        "§1 names exactly these shapes, got {}",
        t.name
    );
    assert!(t.vcpus >= 64, "forced to 64+ vCPUs for a 4-vCPU need");
}

#[test]
fn faas_cannot_serve_gpu_but_udc_can() {
    let faas = FaasRuntime::default();
    let mut gpu_demand = ResourceVector::new();
    gpu_demand.set(ResourceKind::Gpu, 1);
    gpu_demand.set(ResourceKind::Dram, 2048);
    let out = faas.run(&gpu_demand, 5_000).expect("runs, degraded");
    assert!(out.degraded, "FaaS has no GPUs (§1)");

    // UDC serves the same module on a real GPU.
    use udc::hal::Datacenter;
    use udc::sched::{SchedOptions, Scheduler};
    use udc::spec::prelude::*;
    let mut app = AppSpec::new("g");
    app.add_task(
        TaskSpec::new("infer")
            .with_resource(ResourceAspect::default().with_demand(ResourceKind::Gpu, 1))
            .with_work(5_000),
    );
    let mut dc = Datacenter::default();
    let mut sched = Scheduler::new(SchedOptions::default());
    let placement = sched.place_app(&mut dc, &app).expect("GPU pool exists");
    let p = &placement.modules["infer"];
    assert_eq!(p.placed_kind, ResourceKind::Gpu);
    // The GPU run is far faster than the degraded FaaS run.
    assert!(p.est_exec_us.unwrap() * 10 < out.exec_us);
}

#[test]
fn pools_beat_servers_on_skewed_mixes() {
    // The E4 effect must be reproducible: memory-heavy demands strand
    // server CPU.
    let mut sampler = DemandSampler::new(3);
    let demands: Vec<ResourceVector> = (0..500)
        .map(|_| sampler.sample_of(DemandClass::MemoryHeavy))
        .collect();
    let mut cluster = ServerCluster::new(ServerShape::standard(0));
    let outcome = cluster.pack_all(&demands, PackAlgo::BestFit);
    assert_eq!(outcome.unplaceable, 0);
    // CPU utilization of the bought servers is poor.
    let cpu = outcome
        .utilization
        .iter()
        .find(|(k, _, _)| *k == ResourceKind::Cpu)
        .expect("cpu provisioned");
    let cpu_util = cpu.1 as f64 / cpu.2 as f64;
    assert!(
        cpu_util < 0.5,
        "memory-heavy packing strands CPU: {cpu_util}"
    );
}

#[test]
fn matrix_costs_diverge_superlinearly() {
    let m = DevOpsMatrix::new(200, 40);
    assert_eq!(m.coupled_feature_cost(), 200);
    assert_eq!(m.decoupled_feature_cost(), 1);
    let report = udc::baseline::simulate_rollout_report(m, 5, 24, 10, 400.0);
    let (_, c_last, d_last) = *report.by_year.last().unwrap();
    assert!(
        c_last > 50 * d_last,
        "after 5 years the coupled cost must dwarf the decoupled one: {c_last} vs {d_last}"
    );
    assert!(report.decoupled_ttm_weeks < report.coupled_ttm_weeks);
}

#[test]
fn exact_fit_cheaper_than_catalog_for_odd_shapes() {
    // A 3-vCPU/6-GiB module: the catalog rounds up to m5.xlarge
    // (4 vCPU/16 GiB); UDC bills 3 vCPU + 6 GiB exactly.
    let catalog = Catalog::aws_2021();
    let demand = ResourceVector::new()
        .with(ResourceKind::Cpu, 3)
        .with(ResourceKind::Dram, 6 * 1024);
    let instance = catalog.cheapest_fitting(&demand).unwrap();
    let udc_hourly: f64 = demand
        .iter()
        .map(|(k, v)| {
            udc::hal::PerfProfile::default_for(k).micro_dollars_per_unit_hour as f64 * v as f64
        })
        .sum();
    assert!(
        udc_hourly < instance.hourly_micro_dollars as f64,
        "exact fit {udc_hourly} must undercut {} ({})",
        instance.hourly_micro_dollars,
        instance.name
    );
}
