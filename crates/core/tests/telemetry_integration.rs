//! End-to-end observability: run the paper's medical pipeline (Fig. 2)
//! with telemetry enabled and check the whole substrate lights up —
//! per-module utilization counters, cold-start histograms, a nested
//! span tree, flight events, and a parseable JSON export.

use udc_core::{CloudConfig, UdcCloud};
use udc_telemetry::{EventKind, Labels};
use udc_workload::medical_pipeline;

#[test]
fn medical_pipeline_produces_full_telemetry_export() {
    let mut cloud = UdcCloud::new(CloudConfig::default());
    let tel = cloud.enable_telemetry();

    let dep = cloud.submit(&medical_pipeline()).expect("placement fits");
    let report = cloud.run(&dep);
    assert!(report.makespan_us > 0);

    // Per-module utilization counters exist for every placed module.
    for id in dep.placement.modules.keys() {
        let labels = Labels::module("tenant", id.as_str());
        assert!(
            tel.counter("core.module_window_us", &labels) > 0,
            "{id} has no holding window recorded"
        );
        assert!(
            tel.counter("core.module_unit_us", &labels) > 0,
            "{id} has no unit-time recorded"
        );
    }
    // Tiny modules can legitimately round to a zero bill; in aggregate
    // the run must have billed something.
    let billed_total: u64 = dep
        .placement
        .modules
        .keys()
        .map(|id| {
            tel.counter(
                "core.billed_microdollars",
                &Labels::module("tenant", id.as_str()),
            )
        })
        .sum();
    assert!(billed_total > 0);

    // The warm pool is disabled by default, so every start was cold and
    // the cold-start histogram must be populated.
    let cold = tel
        .histogram("isolate.cold_start_us", &Labels::none())
        .expect("cold-start histogram exists");
    assert_eq!(cold.count, dep.placement.modules.len() as u64);
    assert!(cold.min > 0 && cold.p50 <= cold.p99 && cold.p99 <= cold.max);

    let snap = tel.snapshot();

    // Span tree: sched.place nests under cloud.submit; cloud.run is a
    // separate root; all spans are closed.
    let submit = snap
        .spans
        .iter()
        .find(|s| s.name == "cloud.submit")
        .expect("submit span");
    let place = snap
        .spans
        .iter()
        .find(|s| s.name == "sched.place")
        .expect("place span");
    assert_eq!(place.parent, Some(submit.id));
    assert!(snap
        .spans
        .iter()
        .any(|s| s.name == "cloud.run" && s.parent.is_none()));
    assert!(snap.spans.iter().all(|s| s.end_us.is_some()));

    // Flight recorder captured the control-plane decisions.
    assert!(snap.events.iter().any(|e| e.kind == EventKind::Submit));
    assert!(snap.events.iter().any(|e| e.kind == EventKind::Placement));
    assert!(snap.events.iter().any(|e| e.kind == EventKind::ColdStart));

    // The export is valid JSON with every section present.
    let path = std::env::temp_dir().join("udc_medical_telemetry_test.json");
    let written = cloud.export_telemetry(&path).expect("export writes");
    let text = std::fs::read_to_string(&written).expect("file exists");
    let v = serde_json::parse_value(&text).expect("export parses");
    for section in ["counters", "gauges", "histograms", "spans", "events"] {
        let arr = v.get(section).and_then(|s| s.as_array());
        assert!(
            arr.map(|a| !a.is_empty()).unwrap_or(false),
            "export section {section} empty or missing"
        );
    }
    let _ = std::fs::remove_file(written);
}

#[test]
fn fabric_and_pool_series_populate_during_run() {
    let mut cloud = UdcCloud::new(CloudConfig::default());
    let tel = cloud.enable_telemetry();
    let dep = cloud.submit(&medical_pipeline()).expect("placement fits");
    cloud.run(&dep);

    // Access edges moved bytes over the fabric.
    assert!(tel.counter("hal.fabric.transfers", &Labels::none()) > 0);
    let moved = tel.counter("hal.fabric.intra_rack_bytes", &Labels::none())
        + tel.counter("hal.fabric.cross_rack_bytes", &Labels::none());
    assert!(moved > 0);

    // Pool watermarks: the SSD pool held S1's replicated records.
    let (current, high_water) = tel
        .gauge("hal.pool.ssd.used_units", &Labels::none())
        .expect("ssd watermark gauge");
    assert!(high_water > 0 && current <= high_water);
}
