//! E13 — §3.1's locality hints: "developers (or a compiler) can specify
//! computation tasks that should be executed together on the same
//! hardware unit ... Such information will be used to guide our runtime
//! scheduler to make intelligent compute/data placement."
//!
//! The same applications are placed with hints honoured vs ignored;
//! reported: access-edge transfer time and cross-rack bytes.

use crate::{banner, fmt_us, Table};
use udc_hal::Datacenter;
use udc_sched::{data_movement, SchedOptions, Scheduler};
use udc_spec::AppSpec;
use udc_telemetry::{EventKind, FieldValue, Labels, Telemetry};
use udc_workload::{medical_pipeline, microservice_chain, ml_serving_chain};

fn place_and_measure(app: &AppSpec, use_hints: bool) -> (u64, u64) {
    let mut dc = Datacenter::default();
    let mut sched = Scheduler::new(SchedOptions {
        use_locality_hints: use_hints,
        ..Default::default()
    });
    let placement = sched.place_app(&mut dc, app).expect("placement fits");
    dc.fabric().reset_traffic();
    data_movement(&dc, app, &placement)
}

pub fn run() -> String {
    banner(
        "E13",
        "Locality hints: colocate and task-data affinity",
        "locality information guides compute/data placement; without it, \
         fine-grained modules scatter and the fabric pays",
    );

    let apps: Vec<(&str, AppSpec)> = vec![
        ("medical (Fig. 2)", medical_pipeline()),
        ("ml-serving", ml_serving_chain(2)),
        ("microservices x8", microservice_chain(8)),
    ];

    let tel = Telemetry::enabled();
    let mut t = Table::new(&[
        "application",
        "transfer time (hints on)",
        "transfer time (hints off)",
        "cross-rack bytes (on)",
        "cross-rack bytes (off)",
        "improvement",
    ]);
    for (name, app) in &apps {
        let (us_on, xrack_on) = place_and_measure(app, true);
        let (us_off, xrack_off) = place_and_measure(app, false);
        tel.event(
            EventKind::Measurement,
            Labels::tenant(*name),
            &[
                ("transfer_us_hints_on", FieldValue::from(us_on)),
                ("transfer_us_hints_off", FieldValue::from(us_off)),
                ("xrack_bytes_on", FieldValue::from(xrack_on)),
                ("xrack_bytes_off", FieldValue::from(xrack_off)),
            ],
        );
        t.row(&[
            name.to_string(),
            fmt_us(us_on),
            fmt_us(us_off),
            format!("{} MiB", xrack_on >> 20),
            format!("{} MiB", xrack_off >> 20),
            format!("{:.2}x", us_off as f64 / us_on.max(1) as f64),
        ]);
    }
    t.print();

    println!();
    println!(
        "Shape: hints keep affine task/data pairs in one rack, cutting \
         cross-rack bytes; the win grows with data size (medical's 1 GiB \
         record store dominates). Placement without hints still works — \
         hints are advisory, exactly as §3.1 describes."
    );
    tel.snapshot().to_json()
}
