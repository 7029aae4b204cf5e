//! The EC2-like instance catalog.
//!
//! §1's motivating numbers come from shape quantization: "to use 8 GPUs
//! in a VM to run a big machine-learning workload, AWS users must select
//! an EC2 p3.16xlarge or p3dn.24xlarge instance, which come with 64 and
//! 96 vCPUs, respectively, even if they need only a small number of
//! vCPUs to run the GPU orchestration software." The catalog reproduces
//! those shapes and 2021-era on-demand prices (micro-dollars per hour).

use udc_spec::{ResourceKind, ResourceVector};

/// One instance type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceType {
    /// Name, e.g. `m5.xlarge`.
    pub name: &'static str,
    /// vCPUs.
    pub vcpus: u64,
    /// Memory in MiB.
    pub memory_mib: u64,
    /// GPUs.
    pub gpus: u64,
    /// Local storage in MiB.
    pub storage_mib: u64,
    /// On-demand price, micro-dollars per hour.
    pub hourly_micro_dollars: u64,
}

impl InstanceType {
    /// The instance's capacity as a resource vector.
    pub fn capacity(&self) -> ResourceVector {
        let mut v = ResourceVector::new()
            .with(ResourceKind::Cpu, self.vcpus)
            .with(ResourceKind::Dram, self.memory_mib);
        if self.gpus > 0 {
            v.set(ResourceKind::Gpu, self.gpus);
        }
        if self.storage_mib > 0 {
            v.set(ResourceKind::Ssd, self.storage_mib);
        }
        v
    }

    /// Whether this instance covers `demand` in every dimension the
    /// catalog models (CPU, DRAM, GPU, SSD).
    pub fn covers(&self, demand: &ResourceVector) -> bool {
        demand.get(ResourceKind::Cpu) <= self.vcpus
            && demand.get(ResourceKind::Dram) <= self.memory_mib
            && demand.get(ResourceKind::Gpu) <= self.gpus
            && demand.get(ResourceKind::Ssd) <= self.storage_mib
            // Kinds the catalog cannot provide at all.
            && demand.get(ResourceKind::Fpga) == 0
            && demand.get(ResourceKind::Nvm) == 0
            && demand.get(ResourceKind::Hdd) == 0
            && demand.get(ResourceKind::Soc) == 0
    }

    /// Paid-but-unused fraction when running `demand` on this instance:
    /// the price-weighted share of capacity the tenant pays for but does
    /// not use. Dimensions are weighted by their contribution to the
    /// instance price (approximated by the UDC unit-price profile).
    pub fn waste_fraction(&self, demand: &ResourceVector) -> f64 {
        let dims = [
            (ResourceKind::Cpu, self.vcpus, 40_000.0),
            (ResourceKind::Dram, self.memory_mib, 5.0),
            (ResourceKind::Gpu, self.gpus, 3_000_000.0),
            (ResourceKind::Ssd, self.storage_mib, 1.0),
        ];
        let mut paid = 0.0;
        let mut wasted = 0.0;
        for (kind, cap, unit_price) in dims {
            if cap == 0 {
                continue;
            }
            let value = cap as f64 * unit_price;
            let used = demand.get(kind).min(cap) as f64 * unit_price;
            paid += value;
            wasted += value - used;
        }
        if paid == 0.0 {
            0.0
        } else {
            wasted / paid
        }
    }
}

/// The catalog: a fixed set of provider-defined shapes.
#[derive(Debug, Clone)]
pub struct Catalog {
    types: Vec<InstanceType>,
}

impl Default for Catalog {
    fn default() -> Self {
        Self::aws_2021()
    }
}

impl Catalog {
    /// A 2021-era AWS-like on-demand catalog (us-east-1 prices).
    pub fn aws_2021() -> Self {
        let t = |name, vcpus, mem_gib: u64, gpus, storage_gib: u64, dollars_h: f64| InstanceType {
            name,
            vcpus,
            memory_mib: mem_gib * 1024,
            gpus,
            storage_mib: storage_gib * 1024,
            hourly_micro_dollars: (dollars_h * 1_000_000.0) as u64,
        };
        Self {
            types: vec![
                t("t3.medium", 2, 4, 0, 0, 0.0416),
                t("m5.large", 2, 8, 0, 0, 0.096),
                t("m5.xlarge", 4, 16, 0, 0, 0.192),
                t("m5.2xlarge", 8, 32, 0, 0, 0.384),
                t("m5.4xlarge", 16, 64, 0, 0, 0.768),
                t("m5.12xlarge", 48, 192, 0, 0, 2.304),
                t("m5.24xlarge", 96, 384, 0, 0, 4.608),
                t("c5.2xlarge", 8, 16, 0, 0, 0.34),
                t("r5.2xlarge", 8, 64, 0, 0, 0.504),
                t("i3.2xlarge", 8, 61, 0, 1900, 0.624),
                t("p3.2xlarge", 8, 61, 1, 0, 3.06),
                t("p3.8xlarge", 32, 244, 4, 0, 12.24),
                t("p3.16xlarge", 64, 488, 8, 0, 24.48),
                t("p3dn.24xlarge", 96, 768, 8, 1800, 31.212),
            ],
        }
    }

    /// All types.
    pub fn types(&self) -> &[InstanceType] {
        &self.types
    }

    /// The cheapest instance that covers `demand`, or `None` when no
    /// shape fits (the paper's "niche domain users are unable to run
    /// their workloads as desired").
    pub fn cheapest_fitting(&self, demand: &ResourceVector) -> Option<&InstanceType> {
        self.types
            .iter()
            .filter(|t| t.covers(demand))
            .min_by_key(|t| t.hourly_micro_dollars)
    }

    /// Looks up a type by name.
    pub fn by_name(&self, name: &str) -> Option<&InstanceType> {
        self.types.iter().find(|t| t.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(cpu: u64, dram_mib: u64, gpu: u64) -> ResourceVector {
        let mut v = ResourceVector::new();
        v.set(ResourceKind::Cpu, cpu);
        v.set(ResourceKind::Dram, dram_mib);
        v.set(ResourceKind::Gpu, gpu);
        v
    }

    #[test]
    fn papers_8_gpu_example() {
        // 8 GPUs + 4 vCPUs of orchestration: the only fitting shapes are
        // p3.16xlarge (64 vCPU) and p3dn.24xlarge (96 vCPU).
        let c = Catalog::aws_2021();
        let d = demand(4, 32 * 1024, 8);
        let chosen = c.cheapest_fitting(&d).unwrap();
        assert_eq!(chosen.name, "p3.16xlarge");
        // The tenant pays for 64 vCPUs but uses 4 — waste is large.
        let waste = chosen.waste_fraction(&d);
        assert!(waste > 0.1, "waste = {waste}");
    }

    #[test]
    fn small_demand_gets_small_instance() {
        let c = Catalog::aws_2021();
        let d = demand(2, 3 * 1024, 0);
        assert_eq!(c.cheapest_fitting(&d).unwrap().name, "t3.medium");
    }

    #[test]
    fn fpga_demand_unfittable() {
        // No catalog shape offers FPGAs: the niche-user problem.
        let c = Catalog::aws_2021();
        let mut d = demand(2, 1024, 0);
        d.set(ResourceKind::Fpga, 1);
        assert!(c.cheapest_fitting(&d).is_none());
    }

    #[test]
    fn oversized_demand_unfittable() {
        let c = Catalog::aws_2021();
        assert!(c.cheapest_fitting(&demand(200, 1024, 0)).is_none());
    }

    #[test]
    fn exact_fit_wastes_nothing() {
        let c = Catalog::aws_2021();
        let t = c.by_name("m5.xlarge").unwrap();
        let exact = demand(4, 16 * 1024, 0);
        assert!(t.waste_fraction(&exact) < 1e-9);
    }

    #[test]
    fn waste_decreases_with_utilization() {
        let c = Catalog::aws_2021();
        let t = c.by_name("m5.2xlarge").unwrap();
        let low = t.waste_fraction(&demand(1, 1024, 0));
        let high = t.waste_fraction(&demand(7, 28 * 1024, 0));
        assert!(low > high);
    }

    #[test]
    fn catalog_prices_monotone_in_family() {
        let c = Catalog::aws_2021();
        let m5: Vec<&InstanceType> = c
            .types()
            .iter()
            .filter(|t| t.name.starts_with("m5."))
            .collect();
        for w in m5.windows(2) {
            assert!(w[0].hourly_micro_dollars < w[1].hourly_micro_dollars);
        }
    }

    #[test]
    fn capacity_vector_round_trip() {
        let c = Catalog::aws_2021();
        let t = c.by_name("p3.2xlarge").unwrap();
        let cap = t.capacity();
        assert_eq!(cap.get(ResourceKind::Gpu), 1);
        assert_eq!(cap.get(ResourceKind::Cpu), 8);
        assert!(t.covers(&cap));
    }
}
