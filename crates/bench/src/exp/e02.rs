//! E2 — Fig. 1: scheme comparison. The same medical pipeline is run (or
//! priced) under a local datacenter, IaaS, FaaS, and UDC, comparing
//! cost, GPU support, control, and IT burden — the four columns of the
//! paper's architecture figure.

use crate::{banner, fmt_cost, fmt_us, Table};
use udc_baseline::{CaasProvisioner, Catalog, FaasRuntime, IaasProvisioner};
use udc_core::{BillingModel, CloudConfig, UdcCloud};
use udc_spec::{ModuleKind, ResourceKind, ResourceVector};
use udc_telemetry::{EventKind, FieldValue, Labels};
use udc_workload::medical_pipeline;

/// One hour, to price a placement as an hourly rate.
const HOUR_US: u64 = 3_600_000_000;

/// Extracts per-module demand vectors the baselines can price. Modules
/// without explicit demands get the defaults UDC would infer (1 CPU for
/// cheapest-goal tasks, etc.).
fn demands() -> Vec<(String, ResourceVector, u64, bool)> {
    let app = medical_pipeline();
    app.iter_modules()
        .map(|m| {
            let mut d = m.resource.demand.clone();
            if m.kind == ModuleKind::Task && !d.iter().any(|(k, _)| k.is_compute()) {
                // Goal-driven tasks: assume the module runs on 1 CPU in
                // the baselines (they have no "fastest" knob). ML tasks
                // keep their GPUs.
                d.set(ResourceKind::Cpu, 1);
            }
            if m.kind == ModuleKind::Data && d.is_zero() {
                d.set(ResourceKind::Ssd, m.bytes.unwrap_or(1 << 20) >> 20);
            }
            // Give every module a little memory (the baselines bill it).
            if d.get(ResourceKind::Dram) == 0 {
                d.set(ResourceKind::Dram, 2048);
            }
            (
                m.id.to_string(),
                d,
                m.work_units.unwrap_or(100),
                m.kind == ModuleKind::Task,
            )
        })
        .collect()
}

pub fn run() -> String {
    banner(
        "E2",
        "Cloud schemes compared on the medical pipeline (Fig. 1)",
        "IaaS/CaaS = more control, heavy IT burden; FaaS = no control \
         (and no GPUs); UDC = great control and flexibility, little IT burden",
    );

    let mods = demands();
    let task_demands: Vec<&(String, ResourceVector, u64, bool)> =
        mods.iter().filter(|(_, _, _, t)| *t).collect();

    // --- IaaS: one instance per module ---
    let iaas = IaasProvisioner::new();
    let all: Vec<ResourceVector> = mods.iter().map(|(_, d, _, _)| d.clone()).collect();
    let iaas_out = iaas.provision(&all);

    // --- Local datacenter: buy the same instances, amortized over 3y at
    //     25% mean utilization (over-provisioned for peak) ---
    let local_hourly = iaas_out.hourly_cost * 4;

    // --- FaaS: each task becomes a function; GPU tasks degrade ---
    let faas = FaasRuntime::default();
    let mut faas_cost_per_run = 0.0;
    let mut faas_latency_us = 0u64;
    let mut degraded = 0;
    let mut faas_unservable = 0;
    for (_, d, work, _) in &task_demands {
        match faas.run(d, *work) {
            Some(out) => {
                faas_cost_per_run += out.cost_per_invocation;
                faas_latency_us += out.exec_us + faas.cold_start_us;
                if out.degraded {
                    degraded += 1;
                }
            }
            None => faas_unservable += 1,
        }
    }

    // --- UDC: exact placement, real run, under full causal tracing ---
    let mut cloud = UdcCloud::new(CloudConfig::default());
    let obs = cloud.enable_telemetry();
    let mut dep = cloud.submit(&medical_pipeline()).expect("places");
    let report = cloud.run(&dep);
    let hourly = |cloud: &UdcCloud, dep: &udc_core::Deployment| {
        BillingModel::default()
            .price(cloud.datacenter(), &dep.placement, |_| HOUR_US)
            .total
    };
    let udc_hourly = hourly(&cloud, &dep);

    let mut t = Table::new(&[
        "scheme",
        "hourly cost",
        "pipeline latency",
        "GPU support",
        "user-managed layers",
        "user control",
    ]);
    t.row(&[
        "local datacenter".to_string(),
        fmt_cost(local_hourly),
        fmt_us(report.makespan_us),
        "yes (self-built)".to_string(),
        "6 (all of Fig. 1 col 1)".to_string(),
        "full".to_string(),
    ]);
    t.row(&[
        "IaaS (VM per module)".to_string(),
        fmt_cost(iaas_out.hourly_cost),
        fmt_us(report.makespan_us + 8_000_000), // VM boot on the critical path.
        "yes (fixed shapes)".to_string(),
        "4 (app, sys sw, VM, net cfg)".to_string(),
        "partial".to_string(),
    ]);
    // CaaS: bin-pack the modules onto m5.4xlarge Kubernetes nodes.
    let caas = CaasProvisioner::new(
        Catalog::aws_2021()
            .by_name("m5.4xlarge")
            .expect("catalog shape")
            .clone(),
    );
    let caas_out = caas.provision(&all);
    t.row(&[
        "CaaS (k8s node group)".to_string(),
        format!("{} (+GPU unservable)", fmt_cost(caas_out.hourly_cost)),
        fmt_us(report.makespan_us + 400_000), // Sandboxed-container start.
        format!("NO ({} modules unplaceable)", caas_out.unplaceable),
        "3 (app, containers, cluster cfg)".to_string(),
        "partial".to_string(),
    ]);
    t.row(&[
        "FaaS (function per task)".to_string(),
        format!("{} /run", fmt_cost(faas_cost_per_run as u64)),
        fmt_us(faas_latency_us),
        format!("NO ({degraded} tasks degraded 25x)"),
        "1 (code only)".to_string(),
        "none".to_string(),
    ]);
    t.row(&[
        "UDC (Table 1 security)".to_string(),
        fmt_cost(udc_hourly),
        fmt_us(report.makespan_us),
        "yes (exact amount)".to_string(),
        "0 (definitions only)".to_string(),
        "full (declarative)".to_string(),
    ]);

    // The same pipeline with security definitions relaxed to weak:
    // shows what exact-fit alone costs (the single-tenant devices of
    // Table 1 are what make the secure variant expensive — §1: strong
    // isolation "comes at the cost of reduced resource utilization").
    let mut relaxed = medical_pipeline();
    for m in relaxed.modules.values_mut() {
        m.exec_env.isolation = None;
        m.exec_env.tenancy = None;
        m.exec_env.tee_if_cpu = false;
    }
    let mut cloud2 = UdcCloud::new(CloudConfig::default());
    let mut dep2 = cloud2.submit(&relaxed).expect("places");
    let report2 = cloud2.run(&dep2);
    let udc_relaxed_hourly = hourly(&cloud2, &dep2);
    t.row(&[
        "UDC (security relaxed)".to_string(),
        fmt_cost(udc_relaxed_hourly),
        fmt_us(report2.makespan_us),
        "yes (exact amount)".to_string(),
        "0 (definitions only)".to_string(),
        "full (declarative)".to_string(),
    ]);
    t.print();
    cloud2.teardown(&mut dep2);

    println!();
    println!(
        "IaaS mean paid-but-unused fraction : {:.1}%",
        iaas_out.mean_waste * 100.0
    );
    println!("FaaS tasks it cannot serve at all  : {faas_unservable}");
    println!(
        "UDC security: {} protected accesses sealed; single-tenant + TEE \
         placements attested (see E1)",
        report.sealed_messages
    );

    cloud.teardown(&mut dep);

    obs.event(
        EventKind::Measurement,
        Labels::none(),
        &[
            ("local_hourly", FieldValue::from(local_hourly)),
            ("iaas_hourly", FieldValue::from(iaas_out.hourly_cost)),
            ("caas_hourly", FieldValue::from(caas_out.hourly_cost)),
            ("faas_cost_per_run", FieldValue::from(faas_cost_per_run)),
            ("udc_hourly", FieldValue::from(udc_hourly)),
            ("udc_relaxed_hourly", FieldValue::from(udc_relaxed_hourly)),
            ("iaas_mean_waste", FieldValue::from(iaas_out.mean_waste)),
            ("faas_unservable", FieldValue::from(faas_unservable as u64)),
        ],
    );
    obs.snapshot().to_json()
}
