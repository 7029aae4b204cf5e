//! The deploy path allocates only what its result keeps: ceilings on
//! the allocations one lifecycle makes — parse the app's canonical text,
//! `submit`, `run`, `teardown` — after one warm-up lifecycle has filled
//! the cloud's one-time caches (device keys, warm pools, fence entries).
//! Counted with a thread-local counting allocator (the harness runs
//! tests on parallel threads); hub detached, nothing else attached.
//!
//! A ceiling that fails means the request path grew an allocation: find
//! it before raising the number.

use udc_core::{CloudConfig, UdcCloud};
use udc_spec::{parse_app, print_app, AppSpec};

#[global_allocator]
static A: udc_alloc_count::CountingAlloc = udc_alloc_count::CountingAlloc;

/// Allocations made by each stage of one lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    parse: u64,
    submit: u64,
    run: u64,
    teardown: u64,
}

/// One warm-up lifecycle, then one counted lifecycle of `app`.
fn lifecycle_counts(app: &AppSpec) -> Counts {
    let text = print_app(app);
    let mut cloud = UdcCloud::new(CloudConfig::default());
    let mut counted = None;
    for _ in 0..2 {
        let mut parsed = None;
        let parse = udc_alloc_count::allocs_during(|| parsed = Some(parse_app(&text)));
        let parsed = parsed.unwrap().expect("canonical text parses");
        assert_eq!(&parsed, app, "the parsed app equals the source app");
        let mut dep = None;
        let submit = udc_alloc_count::allocs_during(|| dep = Some(cloud.submit(&parsed)));
        let mut dep = dep.unwrap().expect("fits the default datacenter");
        let run = udc_alloc_count::allocs_during(|| {
            std::hint::black_box(cloud.run(&dep));
        });
        let teardown = udc_alloc_count::allocs_during(|| cloud.teardown(&mut dep));
        counted = Some(Counts {
            parse,
            submit,
            run,
            teardown,
        });
    }
    counted.unwrap()
}

fn assert_within(name: &str, got: Counts, ceiling: Counts) {
    eprintln!("{name}: {got:?}");
    assert!(
        got.parse <= ceiling.parse
            && got.submit <= ceiling.submit
            && got.run <= ceiling.run
            && got.teardown <= ceiling.teardown,
        "{name}: {got:?} exceeds the ceilings {ceiling:?}"
    );
}

#[test]
fn a_medical_pipeline_lifecycle_stays_under_its_ceilings() {
    let got = lifecycle_counts(&udc_workload::medical_pipeline());
    assert_within(
        "medical_pipeline",
        got,
        Counts {
            parse: 100,
            submit: 300,
            run: 20,
            teardown: 14,
        },
    );
}

#[test]
fn a_microservice_chain_lifecycle_stays_under_its_ceilings() {
    let got = lifecycle_counts(&udc_workload::microservice_chain(3));
    assert_within(
        "microservice_chain(3)",
        got,
        Counts {
            parse: 60,
            submit: 160,
            run: 12,
            teardown: 14,
        },
    );
}
