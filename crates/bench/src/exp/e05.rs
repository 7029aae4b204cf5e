//! E5 — the "cloud DevOps matrix from hell" (§1): integration work when
//! every feature must be wired into every service (coupled, today) vs
//! once into a decoupled layer (UDC).

use crate::{banner, Table};
use udc_baseline::{simulate_rollout_report, DevOpsMatrix};
use udc_telemetry::{EventKind, FieldValue, Labels, Telemetry};

pub fn run() -> String {
    banner(
        "E5",
        "DevOps matrix from hell: M x N vs M + N",
        "providers incur exceedingly high development costs and slow \
         time-to-market; UDC decouples layers so each change lands once",
    );

    // AWS-scale starting point: ~200 services, ~40 hardware/software/
    // security feature classes; 5-year horizon.
    let report = simulate_rollout_report(DevOpsMatrix::new(200, 40), 5, 24, 10, 400.0);

    let mut t = Table::new(&[
        "year",
        "coupled cells (cumulative)",
        "decoupled cells (cumulative)",
        "ratio",
    ]);
    for (year, coupled, decoupled) in &report.by_year {
        t.row(&[
            year.to_string(),
            coupled.to_string(),
            decoupled.to_string(),
            format!("{:.0}x", *coupled as f64 / (*decoupled).max(1) as f64),
        ]);
    }
    t.print();

    println!();
    println!(
        "Feature time-to-market: coupled {:.0} weeks vs decoupled {:.1} weeks",
        report.coupled_ttm_weeks, report.decoupled_ttm_weeks
    );
    println!(
        "Standing compatibility surface after 5y: {} cells (coupled) vs {} (decoupled)",
        DevOpsMatrix::new(200 + 5 * 24, 40 + 5 * 10).matrix_cells(),
        (200 + 5 * 24) + (40 + 5 * 10)
    );

    let tel = Telemetry::enabled();
    for (year, coupled, decoupled) in &report.by_year {
        tel.event(
            EventKind::Measurement,
            Labels::tenant(format!("year{year}")),
            &[
                ("coupled_cells", FieldValue::from(*coupled)),
                ("decoupled_cells", FieldValue::from(*decoupled)),
            ],
        );
    }
    tel.event(
        EventKind::Measurement,
        Labels::none(),
        &[
            (
                "coupled_ttm_weeks",
                FieldValue::from(report.coupled_ttm_weeks),
            ),
            (
                "decoupled_ttm_weeks",
                FieldValue::from(report.decoupled_ttm_weeks),
            ),
        ],
    );
    tel.snapshot().to_json()
}
