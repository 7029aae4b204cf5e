//! E4 — the 2× utilization claim: "deploying fine-grained application
//! modules on disaggregated clusters would largely improve resource
//! utilization (by 2x as shown by \[36\])".
//!
//! Equal total capacity is provisioned two ways — as whole servers
//! (bin-packing) and as disaggregated pools (exact fit) — and the same
//! demand stream is admitted until each side saturates. The pool side
//! runs with a `udc-telemetry` observer installed on the HAL, so the
//! admitted count comes from the real `hal.allocations` counter; every
//! trial's outcome is recorded as gauges and measurement events, the
//! tables are rendered *from* the registry, and the snapshot is the
//! artifact.
//!
//! The seed trials and the skew sweep run in order on one telemetry
//! hub: every trial seeds its own sampler and installs its own clock
//! (the pools' simulated clock, or logical ticks for a skew trial).

use crate::{banner, pct, trial_ticks, Table};
use udc_hal::pool::AllocConstraints;
use udc_hal::{Datacenter, DatacenterConfig, FabricConfig, PoolConfig};
use udc_sched::{PackAlgo, ServerCluster, ServerShape};
use udc_spec::{ResourceKind, ResourceVector};
use udc_telemetry::{EventKind, FieldValue, Labels, Telemetry};
use udc_workload::DemandSampler;

const SERVERS: u64 = 64;

/// The disaggregated datacenter holding exactly the same total capacity
/// as `SERVERS` standard GPU servers.
fn matched_pools() -> Datacenter {
    // ServerShape::standard(2): 64 cpu, 256 GiB dram, 2 TiB ssd, 2 gpus.
    Datacenter::new(DatacenterConfig {
        pools: vec![
            PoolConfig {
                kind: ResourceKind::Cpu,
                devices: SERVERS as usize,
                capacity_per_device: 64,
            },
            PoolConfig {
                kind: ResourceKind::Gpu,
                devices: (SERVERS / 4) as usize,
                capacity_per_device: 8,
            },
            PoolConfig {
                kind: ResourceKind::Dram,
                devices: SERVERS as usize,
                capacity_per_device: 256 * 1024,
            },
            PoolConfig {
                kind: ResourceKind::Ssd,
                devices: (SERVERS / 4) as usize,
                capacity_per_device: 8 * 1024 * 1024,
            },
        ],
        racks: 8,
        fabric: FabricConfig::default(),
    })
}

/// Admits the same demand stream into a server fleet and into
/// matched-capacity pools, recording every outcome under the trial's
/// tenant label.
fn run_trial(tel: &Telemetry, skew_seed: u64) {
    let tenant = format!("seed{skew_seed}");
    let labels = Labels::tenant(&tenant);
    let mut sampler = DemandSampler::new(skew_seed);
    let demands: Vec<ResourceVector> = sampler.sample_n(4_000);

    // Servers: a fixed fleet of SERVERS machines; every demand that
    // fits neither an open server nor a new one within the cap is
    // rejected.
    let shape = ServerShape::standard(2);
    let mut cluster = ServerCluster::new(shape.clone());
    for d in &demands {
        if cluster
            .place_bounded(d, PackAlgo::BestFit, SERVERS as usize)
            .is_some()
        {
            tel.incr("exp4.server.admitted", labels.clone(), 1);
        }
    }
    let srv_util = cluster.outcome().mean_utilization();
    tel.gauge_set(
        "exp4.server.util_bp",
        labels.clone(),
        (srv_util * 10_000.0).round() as i64,
    );

    // Pools: admit the same stream into matched-capacity pools. The
    // observer makes every successful allocation show up on the real
    // `hal.allocations` counter under this trial's tenant.
    let mut dc = matched_pools();
    dc.set_observer(tel.clone());
    for d in &demands {
        let _ = dc.allocate_vector(&tenant, d, &AllocConstraints::default());
    }
    let pool_util = {
        let report = dc.utilization_report();
        let fracs: Vec<f64> = report
            .iter()
            .filter(|(_, _, cap)| *cap > 0)
            .map(|(_, used, cap)| *used as f64 / *cap as f64)
            .collect();
        fracs.iter().sum::<f64>() / fracs.len() as f64
    };
    tel.gauge_set(
        "exp4.pool.util_bp",
        labels.clone(),
        (pool_util * 10_000.0).round() as i64,
    );

    let a_srv = tel.counter("exp4.server.admitted", &labels);
    let a_pool = tel.counter("hal.allocations", &labels);
    tel.event(
        EventKind::Measurement,
        labels,
        &[
            ("demands", FieldValue::from(demands.len())),
            ("server_admitted", FieldValue::from(a_srv)),
            ("pool_admitted", FieldValue::from(a_pool)),
            ("server_util", FieldValue::from(srv_util)),
            ("pool_util", FieldValue::from(pool_util)),
            (
                "admission_gain",
                FieldValue::from(a_pool as f64 / a_srv.max(1) as f64),
            ),
            (
                "util_gain",
                FieldValue::from(pool_util / srv_util.max(1e-9)),
            ),
        ],
    );
}

pub fn run() -> String {
    banner(
        "E4",
        "Consolidation: server bin-packing vs disaggregated pools",
        "fine-grained disaggregated deployment improves utilization ~2x [36]",
    );

    let tel = Telemetry::enabled();
    for seed in 1..=5u64 {
        run_trial(&tel, seed);
    }

    // Human summary, rendered from the registry alone.
    let mut t = Table::new(&[
        "trial",
        "servers admitted",
        "server util",
        "pools admitted",
        "pool util",
        "admission gain",
        "util gain",
    ]);
    let mut gains = Vec::new();
    for seed in 1..=5u64 {
        let labels = Labels::tenant(format!("seed{seed}"));
        let a_srv = tel.counter("exp4.server.admitted", &labels);
        let a_pool = tel.counter("hal.allocations", &labels);
        let u_srv = tel.gauge("exp4.server.util_bp", &labels).unwrap().0 as f64 / 10_000.0;
        let u_pool = tel.gauge("exp4.pool.util_bp", &labels).unwrap().0 as f64 / 10_000.0;
        let util_gain = u_pool / u_srv.max(1e-9);
        gains.push(util_gain);
        t.row(&[
            format!("seed {seed}"),
            a_srv.to_string(),
            pct(u_srv),
            a_pool.to_string(),
            pct(u_pool),
            format!("{:.2}x", a_pool as f64 / a_srv.max(1) as f64),
            format!("{util_gain:.2}x"),
        ]);
    }
    t.print();
    let mean_gain = gains.iter().sum::<f64>() / gains.len() as f64;
    println!();
    println!(
        "Mean utilization gain on the balanced mix: {mean_gain:.2}x. The gain \
         comes from dimension decoupling: a server is full when ANY dimension \
         fills; a pool is full only when ITS dimension fills."
    );

    // Skew sweep — the LegoOS-style metric: to SERVE the whole workload,
    // how well is the provisioned hardware utilized? Servers must be
    // bought in bundled shapes, so a skewed demand ratio strands the
    // other dimensions; pools are provisioned per kind (device-granular)
    // and strand almost nothing.
    println!();
    println!("Skew sweep — provision-to-serve (fraction of memory-heavy vs CPU-heavy batch):");
    let skews = [0u64, 25, 50, 75, 100];
    for pct_mem in skews {
        trial_ticks(&tel);
        let labels = Labels::tenant(format!("mem{pct_mem}"));
        let mut sampler = DemandSampler::new(100 + pct_mem);
        let demands: Vec<ResourceVector> = (0..2_000)
            .map(|i| {
                if (i as u64 * 100 / 2_000) < pct_mem {
                    sampler.sample_of(udc_workload::DemandClass::MemoryHeavy)
                } else {
                    sampler.sample_of(udc_workload::DemandClass::Batch)
                }
            })
            .collect();
        // Servers: open as many as the workload needs (the provider buys
        // whole machines); utilization over the demanded dimensions.
        let mut cluster = ServerCluster::new(ServerShape::standard(0));
        let outcome = cluster.pack_all(&demands, PackAlgo::BestFit);
        let demanded_dims: Vec<f64> = outcome
            .utilization
            .iter()
            .filter(|(_, used, _)| *used > 0)
            .map(|(_, used, cap)| *used as f64 / *cap as f64)
            .collect();
        let srv_util = demanded_dims.iter().sum::<f64>() / demanded_dims.len().max(1) as f64;

        // Pools: the provider buys devices of each kind to cover the
        // aggregate demand (device-granular rounding only).
        let total: ResourceVector = demands
            .iter()
            .fold(ResourceVector::new(), |acc, d| acc.saturating_add(d));
        let mut pool_fracs = Vec::new();
        for (kind, units) in total.iter() {
            let device_cap = match kind {
                ResourceKind::Cpu => 64,
                ResourceKind::Dram => 256 * 1024,
                _ => 1024,
            };
            let devices = units.div_ceil(device_cap);
            pool_fracs.push(units as f64 / (devices * device_cap) as f64);
        }
        let pool_util = pool_fracs.iter().sum::<f64>() / pool_fracs.len().max(1) as f64;

        tel.gauge_set(
            "exp4.skew.servers_bought",
            labels.clone(),
            outcome.servers_used as i64,
        );
        tel.gauge_set(
            "exp4.skew.server_util_bp",
            labels.clone(),
            (srv_util * 10_000.0).round() as i64,
        );
        tel.gauge_set(
            "exp4.skew.pool_util_bp",
            labels.clone(),
            (pool_util * 10_000.0).round() as i64,
        );
        tel.event(
            EventKind::Measurement,
            labels,
            &[
                (
                    "mem_heavy_fraction",
                    FieldValue::from(pct_mem as f64 / 100.0),
                ),
                ("servers_bought", FieldValue::from(outcome.servers_used)),
                ("server_util", FieldValue::from(srv_util)),
                ("pool_util", FieldValue::from(pool_util)),
                (
                    "util_gain",
                    FieldValue::from(pool_util / srv_util.max(1e-9)),
                ),
            ],
        );
    }
    let mut s = Table::new(&[
        "mem-heavy fraction",
        "servers bought",
        "server util",
        "pool util",
        "util gain",
    ]);
    for pct_mem in skews {
        let labels = Labels::tenant(format!("mem{pct_mem}"));
        let bought = tel.gauge("exp4.skew.servers_bought", &labels).unwrap().0;
        let srv_util = tel.gauge("exp4.skew.server_util_bp", &labels).unwrap().0 as f64 / 10_000.0;
        let pool_util = tel.gauge("exp4.skew.pool_util_bp", &labels).unwrap().0 as f64 / 10_000.0;
        s.row(&[
            format!("{pct_mem}%"),
            bought.to_string(),
            pct(srv_util),
            pct(pool_util),
            format!("{:.2}x", pool_util / srv_util.max(1e-9)),
        ]);
    }
    s.print();
    println!();
    println!(
        "Expected shape (paper, via LegoOS [36]): ~2x when demand ratios are \
         skewed away from the server shape; the gain shrinks when the mix \
         happens to match the bundle."
    );

    tel.snapshot().to_json()
}
