//! Serverless (FaaS) baseline.
//!
//! Lambda-style: functions pick a memory size from a fixed ladder, CPU
//! scales with memory, billing is per-request plus GB-seconds — and
//! there are **no GPUs** (§1: event-triggered ML inference "could
//! benefit from serverless computing and GPU acceleration. Despite the
//! high demand ... no cloud provider has yet supported GPU in their
//! serverless computing offerings").

use udc_spec::{ResourceKind, ResourceVector};

/// A FaaS memory size (the provider's fixed ladder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaasSize {
    /// Memory in MiB.
    pub memory_mib: u64,
    /// vCPU fraction ×1000 (Lambda allocates CPU proportional to
    /// memory: 1769 MiB = 1 vCPU).
    pub milli_vcpu: u64,
}

/// The FaaS runtime model.
#[derive(Debug, Clone)]
pub struct FaasRuntime {
    sizes: Vec<FaasSize>,
    /// Price per GB-second in micro-dollars (Lambda 2021:
    /// $0.0000166667/GB-s).
    pub micro_dollars_per_gb_s: f64,
    /// Price per million requests in micro-dollars ($0.20/M).
    pub micro_dollars_per_request: f64,
    /// Cold-start latency (sandboxed container class).
    pub cold_start_us: u64,
}

impl Default for FaasRuntime {
    fn default() -> Self {
        let ladder = [128u64, 256, 512, 1024, 2048, 3072, 4096, 6144, 8192, 10240];
        Self {
            sizes: ladder
                .iter()
                .map(|&m| FaasSize {
                    memory_mib: m,
                    milli_vcpu: m * 1000 / 1769,
                })
                .collect(),
            micro_dollars_per_gb_s: 16.6667,
            micro_dollars_per_request: 0.2,
            cold_start_us: 400_000,
        }
    }
}

/// The outcome of running one module as a function.
#[derive(Debug, Clone, PartialEq)]
pub struct FaasOutcome {
    /// The chosen memory size.
    pub size: FaasSize,
    /// Execution time per invocation (microseconds) — inflated when the
    /// module wanted a GPU it cannot have.
    pub exec_us: u64,
    /// Cost per invocation in micro-dollars.
    pub cost_per_invocation: f64,
    /// True when the module wanted an accelerator and had to run
    /// CPU-only.
    pub degraded: bool,
}

impl FaasRuntime {
    /// All ladder sizes.
    pub fn sizes(&self) -> &[FaasSize] {
        &self.sizes
    }

    /// Runs a module demanding `demand` with `work_units` of compute per
    /// invocation. GPU/FPGA demands are *degraded* to CPU execution at
    /// the accelerator-to-CPU speed ratio (25× slower for GPU work in
    /// the HAL profiles).
    ///
    /// Returns `None` when the demand's memory exceeds the ladder.
    pub fn run(&self, demand: &ResourceVector, work_units: u64) -> Option<FaasOutcome> {
        let mem_needed = demand.get(ResourceKind::Dram).max(128);
        let size = *self.sizes.iter().find(|s| s.memory_mib >= mem_needed)?;
        let wants_accel = demand.get(ResourceKind::Gpu) > 0 || demand.get(ResourceKind::Fpga) > 0;
        // CPU work rate: 100 wu/s per vCPU (matching HAL's CPU profile).
        let vcpus = size.milli_vcpu as f64 / 1000.0;
        let rate = 100.0 * vcpus.max(0.05);
        // Accelerator work on CPUs runs at the CPU's rate — i.e. 25×
        // slower than the GPU that was asked for.
        let exec_s = work_units as f64 / rate;
        let exec_us = (exec_s * 1_000_000.0).ceil() as u64;
        let gb = size.memory_mib as f64 / 1024.0;
        let cost = gb * exec_s * self.micro_dollars_per_gb_s + self.micro_dollars_per_request;
        Some(FaasOutcome {
            size,
            exec_us,
            cost_per_invocation: cost,
            degraded: wants_accel,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(dram_mib: u64, gpu: u64) -> ResourceVector {
        let mut v = ResourceVector::new();
        v.set(ResourceKind::Dram, dram_mib);
        v.set(ResourceKind::Gpu, gpu);
        v
    }

    #[test]
    fn picks_smallest_fitting_size() {
        let f = FaasRuntime::default();
        let out = f.run(&demand(900, 0), 100).unwrap();
        assert_eq!(out.size.memory_mib, 1024);
        assert!(!out.degraded);
    }

    #[test]
    fn oversized_memory_unplaceable() {
        let f = FaasRuntime::default();
        assert!(f.run(&demand(20 * 1024, 0), 100).is_none());
    }

    #[test]
    fn gpu_demand_degraded_not_refused() {
        let f = FaasRuntime::default();
        let gpu_out = f.run(&demand(2048, 1), 10_000).unwrap();
        assert!(gpu_out.degraded);
        // The same work on a real GPU (2500 wu/s) would take 4 s; the
        // degraded CPU run is dramatically slower.
        let gpu_time_us = (10_000f64 / 2_500.0 * 1e6) as u64;
        assert!(
            gpu_out.exec_us > 10 * gpu_time_us,
            "{} vs {gpu_time_us}",
            gpu_out.exec_us
        );
    }

    #[test]
    fn cost_scales_with_memory_and_time() {
        let f = FaasRuntime::default();
        let small = f.run(&demand(128, 0), 1000).unwrap();
        let large = f.run(&demand(8192, 0), 1000).unwrap();
        // Bigger memory = more vCPU = faster, but the GB-s product still
        // differs; both must be positive.
        assert!(small.cost_per_invocation > 0.0);
        assert!(large.cost_per_invocation > 0.0);
        // More work costs more at the same size.
        let more_work = f.run(&demand(128, 0), 10_000).unwrap();
        assert!(more_work.cost_per_invocation > small.cost_per_invocation);
    }

    #[test]
    fn cpu_scales_with_memory() {
        let f = FaasRuntime::default();
        let sizes = f.sizes();
        for w in sizes.windows(2) {
            assert!(w[0].milli_vcpu <= w[1].milli_vcpu);
        }
        let small = f.run(&demand(128, 0), 10_000).unwrap();
        let large = f.run(&demand(10_000, 0), 10_000).unwrap();
        assert!(
            large.exec_us < small.exec_us,
            "more memory = more CPU = faster"
        );
    }
}
