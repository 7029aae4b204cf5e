//! E17 — event-triggered ML inference serving (§1's motivating niche
//! workload): Poisson and bursty request streams served by (a) FaaS
//! (sandboxed containers, no GPU) and (b) UDC (GPU modules with a warm
//! pool). Reports latency percentiles and cost per 1 000 requests.
//!
//! "Many ML inference tasks are event-triggered and could benefit from
//! serverless computing and GPU acceleration. Despite the high demand
//! for such applications, no cloud provider has yet supported GPU in
//! their serverless computing offerings."

use crate::{banner, fmt_us, Table};
use udc_baseline::FaasRuntime;
use udc_isolate::{EnvKind, WarmPool, WarmPoolConfig};
use udc_spec::{ResourceKind, ResourceVector};
use udc_telemetry::{EventKind, FieldValue, Labels, Telemetry};
use udc_workload::{bursty_arrivals, poisson_arrivals};

const WORK_UNITS: u64 = 2_000; // One inference.
const GPU_RATE: f64 = 2_500.0; // Work units/s on one GPU (HAL profile).
const IDLE_EXPIRY_US: u64 = 60_000_000; // Instances cool down after 60 s idle.

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Serves a request stream on UDC: a pool of warm GPU module instances;
/// a request reuses a warm instance when one is idle, else cold-starts a
/// new lightweight-VM + GPU attach. Deterministic single-queue model.
fn serve_udc(arrivals: &[u64], warm_target: usize) -> (Vec<u64>, f64) {
    let exec_us = (WORK_UNITS as f64 / GPU_RATE * 1e6) as u64;
    let mut pool =
        WarmPool::new(WarmPoolConfig::disabled().with(EnvKind::LightweightVm, warm_target));
    // (busy_until, last_used) per live instance.
    let mut instances: Vec<(u64, u64)> = Vec::new();
    let mut latencies = Vec::with_capacity(arrivals.len());
    let mut gpu_busy_us = 0u64;
    for &t in arrivals {
        // Expire idle instances (the provider reclaims them).
        instances.retain(|&(busy_until, last)| busy_until > t || t - last < IDLE_EXPIRY_US);
        // Pick an idle instance if any.
        let start = if let Some(slot) = instances.iter_mut().find(|(busy, _)| *busy <= t) {
            slot.0 = t + exec_us;
            slot.1 = t;
            0
        } else {
            let startup = pool.acquire(EnvKind::LightweightVm);
            instances.push((t + startup + exec_us, t));
            startup
        };
        latencies.push(start + exec_us);
        gpu_busy_us += exec_us;
        // The provider refills the warm pool in the background.
        pool.refill();
    }
    // Cost: GPU-time actually billed (pay per use) at $3/GPU-hour.
    let cost_per_1k = gpu_busy_us as f64 / 3_600e6 * 3.0 / arrivals.len() as f64 * 1_000.0;
    latencies.sort_unstable();
    (latencies, cost_per_1k)
}

/// Serves the stream on FaaS: per-request sandboxed container with a
/// cold-start probability from idle expiry, CPU-only (degraded) compute.
fn serve_faas(arrivals: &[u64]) -> (Vec<u64>, f64) {
    let faas = FaasRuntime::default();
    let mut demand = ResourceVector::new();
    demand.set(ResourceKind::Gpu, 1);
    demand.set(ResourceKind::Dram, 4096);
    let out = faas.run(&demand, WORK_UNITS).expect("fits the ladder");
    let mut warm_until = 0u64;
    let mut latencies = Vec::with_capacity(arrivals.len());
    let mut cost = 0.0;
    for &t in arrivals {
        let cold = t >= warm_until;
        let startup = if cold { faas.cold_start_us } else { 5_000 };
        latencies.push(startup + out.exec_us);
        warm_until = t + out.exec_us + IDLE_EXPIRY_US;
        cost += out.cost_per_invocation;
    }
    latencies.sort_unstable();
    // cost_per_invocation is in micro-dollars.
    (latencies, cost / 1e6 / arrivals.len() as f64 * 1_000.0)
}

pub fn run() -> String {
    banner(
        "E17",
        "Event-triggered ML inference serving: FaaS vs UDC",
        "serverless cannot attach GPUs; UDC serves the same events on \
         real GPUs with warm-pooled fine-grained modules",
    );

    let tel = Telemetry::enabled();
    let mut t = Table::new(&[
        "stream",
        "scheme",
        "p50 latency",
        "p99 latency",
        "cost / 1k requests",
    ]);
    let streams: Vec<(&str, Vec<u64>)> = vec![
        ("poisson 2/s", poisson_arrivals(2.0, 2_000, 1)),
        ("poisson 20/s", poisson_arrivals(20.0, 2_000, 2)),
        (
            "bursty 100/s x100ms",
            bursty_arrivals(100.0, 100, 2_000, 2_000, 3),
        ),
    ];
    for (name, arrivals) in &streams {
        let (faas_lat, faas_cost) = serve_faas(arrivals);
        let (udc_cold_lat, udc_cold_cost) = serve_udc(arrivals, 0);
        let (udc_lat, udc_cost) = serve_udc(arrivals, 4);
        tel.event(
            EventKind::Measurement,
            Labels::tenant(*name),
            &[
                ("faas_p50_us", FieldValue::from(percentile(&faas_lat, 0.5))),
                ("faas_p99_us", FieldValue::from(percentile(&faas_lat, 0.99))),
                ("faas_cost_per_1k", FieldValue::from(faas_cost)),
                (
                    "udc_cold_p99_us",
                    FieldValue::from(percentile(&udc_cold_lat, 0.99)),
                ),
                ("udc_cold_cost_per_1k", FieldValue::from(udc_cold_cost)),
                ("udc_p50_us", FieldValue::from(percentile(&udc_lat, 0.5))),
                ("udc_p99_us", FieldValue::from(percentile(&udc_lat, 0.99))),
                ("udc_cost_per_1k", FieldValue::from(udc_cost)),
            ],
        );
        for (scheme, lat, cost) in [
            ("FaaS (CPU degraded)", &faas_lat, faas_cost),
            ("UDC (GPU, no warm pool)", &udc_cold_lat, udc_cold_cost),
            ("UDC (GPU, warm pool 4)", &udc_lat, udc_cost),
        ] {
            t.row(&[
                name.to_string(),
                scheme.to_string(),
                fmt_us(percentile(lat, 0.5)),
                fmt_us(percentile(lat, 0.99)),
                format!("${cost:.3}"),
            ]);
        }
    }
    t.print();

    println!();
    println!(
        "Shape: FaaS p50 is dominated by degraded CPU inference (the 25x GPU \
         gap §1 implies); UDC's p50 is GPU-bound (~{}), with p99 showing the \
         cold-start tail that the warm pool caps. UDC also bills GPU-seconds \
         actually used — the serverless pay-per-use model on hardware \
         serverless does not offer.",
        fmt_us((WORK_UNITS as f64 / GPU_RATE * 1e6) as u64)
    );
    tel.snapshot().to_json()
}
