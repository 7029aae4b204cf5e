//! E7 — §3.3's single-tenant waste challenge: "single-tenant
//! environments could cause large resource wastes as a module is not
//! likely to occupy the entire hardware unit."
//!
//! Sweep module size (cores) on 64-core devices, shared vs single-
//! tenant: stranded capacity and how many tenants a fixed cluster can
//! host.

use crate::{banner, pct, Table};
use udc_hal::pool::AllocConstraints;
use udc_hal::{Datacenter, DatacenterConfig, FabricConfig, PoolConfig};
use udc_spec::{ResourceKind, ResourceVector};
use udc_telemetry::{EventKind, FieldValue, Labels, Telemetry};

fn cluster() -> Datacenter {
    Datacenter::new(DatacenterConfig {
        pools: vec![PoolConfig {
            kind: ResourceKind::Cpu,
            devices: 32,
            capacity_per_device: 64,
        }],
        racks: 4,
        fabric: FabricConfig::default(),
    })
}

/// Hosts `demand`-sized tenants on a fresh cluster until one is
/// refused; returns the cluster and how many it hosted.
fn fill(demand: &ResourceVector, exclusive: bool) -> (Datacenter, usize) {
    let mut dc = cluster();
    let constraints = AllocConstraints {
        exclusive,
        ..Default::default()
    };
    let mut hosted = 0;
    while dc
        .allocate_vector(&format!("t{hosted}"), demand, &constraints)
        .is_ok()
    {
        hosted += 1;
    }
    (dc, hosted)
}

pub fn run() -> String {
    banner(
        "E7",
        "Single-tenant placement waste at module granularity",
        "single-tenant isolation defends hardware side channels but \
         strands the rest of the device",
    );

    let tel = Telemetry::enabled();
    let mut t = Table::new(&[
        "module size (cores)",
        "tenants hosted (shared)",
        "tenants hosted (single-tenant)",
        "stranded capacity (single-tenant)",
        "capacity cost of isolation",
    ]);
    for size in [1u64, 2, 4, 8, 16, 32, 64] {
        let demand = ResourceVector::new().with(ResourceKind::Cpu, size);

        let (_, shared) = fill(&demand, false);
        let (excl_dc, excl) = fill(&demand, true);
        let pool = excl_dc.pool(ResourceKind::Cpu).expect("cpu pool");
        let stranded = 1.0 - pool.total_used() as f64 / pool.total_capacity() as f64;
        tel.event(
            EventKind::Measurement,
            Labels::tenant(format!("cores{size}")),
            &[
                ("shared_tenants", FieldValue::from(shared as u64)),
                ("exclusive_tenants", FieldValue::from(excl as u64)),
                ("stranded_fraction", FieldValue::from(stranded)),
            ],
        );
        t.row(&[
            size.to_string(),
            shared.to_string(),
            excl.to_string(),
            pct(stranded),
            format!("{:.0}x", shared as f64 / excl.max(1) as f64),
        ]);
    }
    t.print();

    println!();
    println!(
        "Shape: a 1-core single-tenant module strands 63/64 of its device — \
         64x fewer tenants per cluster; the waste vanishes as modules approach \
         device size. This is why UDC prices exclusivity as the whole device \
         (see udc-core billing) and why the paper calls it out as a challenge."
    );
    tel.snapshot().to_json()
}
