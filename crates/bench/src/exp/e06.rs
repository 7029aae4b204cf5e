//! E6 — §3.3's cold-start challenge: "As secure environments are usually
//! slower to start up, (cold) starting many environments for many
//! modules can significantly slow down the entire application."
//!
//! Sweep: application fan-out (modules started in parallel) × isolation
//! class, cold versus warm-pooled. Reported: per-module startup and the
//! aggregate startup work.

use crate::{banner, fmt_us, pct, Table};
use udc_isolate::{EnvKind, WarmPool, WarmPoolConfig};
use udc_telemetry::{EventKind, FieldValue, Labels, Telemetry};

pub fn run() -> String {
    banner(
        "E6",
        "Cold starts at fine granularity, and warm pools as mitigation",
        "secure environments start slowly; fine-grained modules multiply \
         the penalty; provider-side warm pools recover it",
    );

    let mut t = Table::new(&["environment", "cold start", "warm start", "speedup"]);
    for kind in EnvKind::ALL {
        let m = kind.cost_model();
        t.row(&[
            kind.to_string(),
            fmt_us(m.cold_start_us),
            fmt_us(m.warm_start_us),
            format!("{:.0}x", m.cold_start_us as f64 / m.warm_start_us as f64),
        ]);
    }
    t.print();

    println!();
    println!("Fan-out sweep (total startup work per app, TEE enclave modules):");
    let mut t = Table::new(&[
        "modules",
        "all cold",
        "warm pool (8)",
        "warm pool (64)",
        "hit rate (64)",
    ]);
    let tel = Telemetry::enabled();
    for fanout in [1usize, 4, 16, 64, 256] {
        let cold_total = EnvKind::TeeEnclave.cost_model().cold_start_us * fanout as u64;
        let run_pool = |size: usize| -> (u64, f64) {
            let mut pool =
                WarmPool::new(WarmPoolConfig::disabled().with(EnvKind::TeeEnclave, size));
            let mut total = 0;
            for _ in 0..fanout {
                total += pool.acquire(EnvKind::TeeEnclave);
            }
            (total, pool.stats().hit_rate())
        };
        let (warm8, _) = run_pool(8);
        let (warm64, hit64) = run_pool(64);
        tel.event(
            EventKind::Measurement,
            Labels::tenant(format!("fanout{fanout}")),
            &[
                ("all_cold_us", FieldValue::from(cold_total)),
                ("warm8_us", FieldValue::from(warm8)),
                ("warm64_us", FieldValue::from(warm64)),
                ("warm64_hit_rate", FieldValue::from(hit64)),
            ],
        );
        t.row(&[
            fanout.to_string(),
            fmt_us(cold_total),
            fmt_us(warm8),
            fmt_us(warm64),
            pct(hit64),
        ]);
    }
    t.print();

    println!();
    println!(
        "Shape: cold-start work grows linearly with fan-out and is dominated \
         by the secure classes (TEE 30x container warm start); a warm pool \
         sized to the fan-out flattens the curve until it drains."
    );
    tel.snapshot().to_json()
}
