//! Criterion micro-benchmarks for the control plane's indexed fast
//! paths, each run next to the seed implementation it replaced.
//!
//! The `pool_churn` and `binpack_10k` groups are before/after pairs: the
//! retained seed implementations (`LinearPool`, `NaiveServerCluster`)
//! run the identical operation sequence next to their indexed
//! replacements, so one bench run quantifies the speedup — and
//! `bench_check --suite=control` enforces it from the `UDC_BENCH_JSON`
//! export. Request-path costs (placement, admission, allocation, policy
//! scoring) are measured end to end by `udc-benchmark` instead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use udc_hal::linear::LinearPool;
use udc_hal::pool::AllocConstraints;
use udc_hal::{Device, DeviceId, ResourcePool};
use udc_sched::{NaiveServerCluster, PackAlgo, ServerCluster, ServerShape};
use udc_spec::{ResourceKind, ResourceVector};
use udc_workload::DemandSampler;

/// Mixed allocation sizes exercised per churn iteration: spill-y large
/// asks next to small exact fits, like a real admission stream.
const CHURN_SIZES: [u64; 8] = [1, 3, 7, 12, 18, 25, 31, 40];

fn churn_devices(n: u32) -> impl Iterator<Item = Device> {
    (0..n).map(|i| Device::new(DeviceId(i), ResourceKind::Cpu, 16 + (i as u64 % 64), i % 32))
}

/// Allocate/release churn on the seed linear allocator vs the indexed
/// pool, on identical device sets, at 1k/4k/16k devices. The linear
/// side re-scans (and re-sorts) every device per allocation; the
/// indexed side walks the free-capacity index.
fn bench_pool_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_churn");
    for devices in [1_000u32, 4_000, 16_000] {
        let mut linear = LinearPool::new(ResourceKind::Cpu);
        let mut indexed = ResourcePool::new(ResourceKind::Cpu);
        for d in churn_devices(devices) {
            linear.add_device(d.clone());
            indexed.add_device(d);
        }
        group.bench_with_input(BenchmarkId::new("linear", devices), &(), |b, ()| {
            b.iter(|| {
                let allocs: Vec<_> = CHURN_SIZES
                    .iter()
                    .map(|&u| {
                        linear
                            .allocate("t", black_box(u), &AllocConstraints::default())
                            .unwrap()
                    })
                    .collect();
                for a in &allocs {
                    linear.release(a);
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("indexed", devices), &(), |b, ()| {
            b.iter(|| {
                let allocs: Vec<_> = CHURN_SIZES
                    .iter()
                    .map(|&u| {
                        indexed
                            .allocate("t", black_box(u), &AllocConstraints::default())
                            .unwrap()
                    })
                    .collect();
                for a in &allocs {
                    indexed.release(a);
                }
            })
        });
    }
    group.finish();
}

/// Packing 10k sampled demands into standard servers: the seed
/// linear-scan cluster vs the indexed one, for both algorithms.
fn bench_binpack(c: &mut Criterion) {
    let demands: Vec<ResourceVector> = DemandSampler::new(7).sample_n(10_000);
    let shape = ServerShape::standard(2);
    let mut group = c.benchmark_group("binpack_10k");
    let algos = [
        ("ffd", PackAlgo::FirstFitDecreasing),
        ("bestfit", PackAlgo::BestFit),
    ];
    for (name, algo) in algos {
        group.bench_with_input(BenchmarkId::new("naive", name), &algo, |b, &algo| {
            b.iter(|| NaiveServerCluster::new(shape.clone()).pack_all(black_box(&demands), algo))
        });
        group.bench_with_input(BenchmarkId::new("indexed", name), &algo, |b, &algo| {
            b.iter(|| ServerCluster::new(shape.clone()).pack_all(black_box(&demands), algo))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pool_churn, bench_binpack);
criterion_main!(benches);
