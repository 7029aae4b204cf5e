//! A realistic mixture of tenant resource demands (experiment E3).
//!
//! The population mirrors public-cloud usage studies: mostly small web/
//! API services, a batch tier, a memory-heavy tier, and an ML tier whose
//! GPU jobs need few CPUs — the exact shape §1's p3.16xlarge example
//! complains about.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use udc_spec::{ResourceKind, ResourceVector};

/// Demand classes in the mixture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemandClass {
    /// Small web/API service: 1–4 vCPU, 1–8 GiB.
    Web,
    /// Batch compute: 4–32 vCPU, 8–64 GiB.
    Batch,
    /// Memory-heavy: 2–8 vCPU, 32–256 GiB.
    MemoryHeavy,
    /// ML training/inference: 1–8 GPUs, 2–8 vCPU of orchestration.
    Ml,
    /// Storage-heavy: 100–1800 GiB SSD, 2–8 vCPU.
    StorageHeavy,
}

impl DemandClass {
    /// Mixture weights (sum to 100).
    pub fn weight(self) -> u32 {
        match self {
            DemandClass::Web => 45,
            DemandClass::Batch => 20,
            DemandClass::MemoryHeavy => 12,
            DemandClass::Ml => 13,
            DemandClass::StorageHeavy => 10,
        }
    }

    const ALL: [DemandClass; 5] = [
        DemandClass::Web,
        DemandClass::Batch,
        DemandClass::MemoryHeavy,
        DemandClass::Ml,
        DemandClass::StorageHeavy,
    ];
}

/// Seeded sampler over the demand mixture.
#[derive(Debug)]
pub struct DemandSampler {
    rng: StdRng,
}

impl DemandSampler {
    /// Creates a sampler.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Samples a class according to the mixture weights.
    pub fn sample_class(&mut self) -> DemandClass {
        let total: u32 = DemandClass::ALL.iter().map(|c| c.weight()).sum();
        let mut roll = self.rng.gen_range(0..total);
        for c in DemandClass::ALL {
            if roll < c.weight() {
                return c;
            }
            roll -= c.weight();
        }
        DemandClass::Web
    }

    /// Samples one demand vector.
    pub fn sample(&mut self) -> (DemandClass, ResourceVector) {
        let class = self.sample_class();
        let v = self.sample_of(class);
        (class, v)
    }

    /// Samples a demand of a specific class.
    pub fn sample_of(&mut self, class: DemandClass) -> ResourceVector {
        let gib = 1024u64;
        match class {
            DemandClass::Web => ResourceVector::new()
                .with(ResourceKind::Cpu, self.rng.gen_range(1..=4))
                .with(ResourceKind::Dram, self.rng.gen_range(1..=8) * gib),
            DemandClass::Batch => ResourceVector::new()
                .with(ResourceKind::Cpu, self.rng.gen_range(4..=32))
                .with(ResourceKind::Dram, self.rng.gen_range(8..=64) * gib),
            DemandClass::MemoryHeavy => ResourceVector::new()
                .with(ResourceKind::Cpu, self.rng.gen_range(2..=8))
                .with(ResourceKind::Dram, self.rng.gen_range(32..=256) * gib),
            DemandClass::Ml => ResourceVector::new()
                .with(ResourceKind::Gpu, self.rng.gen_range(1..=8))
                .with(ResourceKind::Cpu, self.rng.gen_range(2..=8))
                .with(ResourceKind::Dram, self.rng.gen_range(16..=128) * gib),
            DemandClass::StorageHeavy => ResourceVector::new()
                .with(ResourceKind::Cpu, self.rng.gen_range(2..=8))
                .with(ResourceKind::Dram, self.rng.gen_range(4..=32) * gib)
                .with(ResourceKind::Ssd, self.rng.gen_range(100..=1800) * gib),
        }
    }

    /// Samples `n` demands.
    pub fn sample_n(&mut self, n: usize) -> Vec<ResourceVector> {
        (0..n).map(|_| self.sample().1).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = DemandSampler::new(7).sample_n(50);
        let b = DemandSampler::new(7).sample_n(50);
        assert_eq!(a, b);
    }

    #[test]
    fn mixture_roughly_matches_weights() {
        let mut s = DemandSampler::new(1);
        let mut web = 0;
        let n = 2_000;
        for _ in 0..n {
            if s.sample_class() == DemandClass::Web {
                web += 1;
            }
        }
        let frac = web as f64 / n as f64;
        assert!(frac > 0.38 && frac < 0.52, "web fraction {frac}");
    }

    #[test]
    fn ml_demands_have_gpus_few_cpus() {
        let mut s = DemandSampler::new(2);
        for _ in 0..100 {
            let v = s.sample_of(DemandClass::Ml);
            assert!(v.get(ResourceKind::Gpu) >= 1);
            assert!(v.get(ResourceKind::Cpu) <= 8, "orchestration CPUs only");
        }
    }

    #[test]
    fn demands_nonzero() {
        let mut s = DemandSampler::new(3);
        for v in s.sample_n(200) {
            assert!(!v.is_zero());
        }
    }
}
