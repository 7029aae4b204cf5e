//! IaaS and CaaS provisioning against the instance catalog.

use crate::catalog::{Catalog, InstanceType};
use udc_sched::{PackAlgo, ServerCluster, ServerShape};
use udc_spec::ResourceVector;

/// The outcome of provisioning a workload the IaaS/CaaS way.
#[derive(Debug, Clone, PartialEq)]
pub struct IaasOutcome {
    /// Instances launched (name, count).
    pub instances: Vec<(String, usize)>,
    /// Total hourly cost in micro-dollars.
    pub hourly_cost: u64,
    /// Demands no catalog shape could satisfy.
    pub unplaceable: usize,
    /// Mean paid-but-unused fraction across placed demands.
    pub mean_waste: f64,
}

/// Classic IaaS: one instance per module demand, smallest shape that
/// covers it.
#[derive(Debug, Clone, Default)]
pub struct IaasProvisioner {
    catalog: Catalog,
}

impl IaasProvisioner {
    /// Uses the default 2021 catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Provisions every demand on its own instance.
    pub fn provision(&self, demands: &[ResourceVector]) -> IaasOutcome {
        let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
        let mut hourly_cost = 0u64;
        let mut unplaceable = 0usize;
        let mut waste_sum = 0.0;
        let mut placed = 0usize;
        for d in demands {
            match self.catalog.cheapest_fitting(d) {
                Some(t) => {
                    *counts.entry(t.name).or_insert(0) += 1;
                    hourly_cost += t.hourly_micro_dollars;
                    waste_sum += t.waste_fraction(d);
                    placed += 1;
                }
                None => unplaceable += 1,
            }
        }
        IaasOutcome {
            instances: counts
                .into_iter()
                .map(|(n, c)| (n.to_string(), c))
                .collect(),
            hourly_cost,
            unplaceable,
            mean_waste: if placed == 0 {
                0.0
            } else {
                waste_sum / placed as f64
            },
        }
    }
}

/// CaaS: containers bin-packed onto a homogeneous fleet of one instance
/// type (the Kubernetes node-group pattern). Better packing than IaaS,
/// but still bounded by the node shape.
#[derive(Debug, Clone)]
pub struct CaasProvisioner {
    node_type: InstanceType,
}

impl CaasProvisioner {
    /// Uses `node_type` as the cluster's node shape.
    pub fn new(node_type: InstanceType) -> Self {
        Self { node_type }
    }

    /// Packs the demands, returning (nodes used, hourly cost,
    /// unplaceable count, mean node utilization).
    pub fn provision(&self, demands: &[ResourceVector]) -> IaasOutcome {
        let shape = ServerShape {
            capacity: self.node_type.capacity(),
        };
        let mut cluster = ServerCluster::new(shape);
        let outcome = cluster.pack_all(demands, PackAlgo::FirstFitDecreasing);
        let hourly_cost = self.node_type.hourly_micro_dollars * outcome.servers_used as u64;
        IaasOutcome {
            instances: vec![(self.node_type.name.to_string(), outcome.servers_used)],
            hourly_cost,
            unplaceable: outcome.unplaceable,
            mean_waste: 1.0 - outcome.mean_utilization(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udc_spec::ResourceKind;

    fn demand(cpu: u64, dram_mib: u64) -> ResourceVector {
        ResourceVector::new()
            .with(ResourceKind::Cpu, cpu)
            .with(ResourceKind::Dram, dram_mib)
    }

    #[test]
    fn iaas_one_instance_per_demand() {
        let p = IaasProvisioner::new();
        let out = p.provision(&[demand(2, 4096), demand(2, 4096), demand(16, 65536)]);
        let total: usize = out.instances.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 3);
        assert_eq!(out.unplaceable, 0);
        assert!(out.hourly_cost > 0);
    }

    #[test]
    fn iaas_waste_positive_for_odd_shapes() {
        let p = IaasProvisioner::new();
        // 3 vCPU / 5 GiB fits nothing exactly.
        let out = p.provision(&[demand(3, 5 * 1024)]);
        assert!(out.mean_waste > 0.2, "{}", out.mean_waste);
    }

    #[test]
    fn iaas_counts_unplaceable() {
        let p = IaasProvisioner::new();
        let mut d = demand(2, 1024);
        d.set(ResourceKind::Soc, 1);
        let out = p.provision(&[d]);
        assert_eq!(out.unplaceable, 1);
        assert_eq!(out.hourly_cost, 0);
    }

    #[test]
    fn caas_packs_denser_than_iaas() {
        let iaas = IaasProvisioner::new();
        let caas = CaasProvisioner::new(Catalog::aws_2021().by_name("m5.4xlarge").unwrap().clone());
        // 16 small containers.
        let demands: Vec<ResourceVector> = (0..16).map(|_| demand(1, 2048)).collect();
        let iaas_out = iaas.provision(&demands);
        let caas_out = caas.provision(&demands);
        let caas_nodes: usize = caas_out.instances.iter().map(|(_, c)| c).sum();
        assert!(caas_nodes < 16, "CaaS shares nodes: {caas_nodes}");
        assert!(caas_out.hourly_cost < iaas_out.hourly_cost * 2);
    }

    #[test]
    fn caas_unplaceable_when_bigger_than_node() {
        let caas = CaasProvisioner::new(Catalog::aws_2021().by_name("m5.large").unwrap().clone());
        let out = caas.provision(&[demand(8, 1024)]);
        assert_eq!(out.unplaceable, 1);
    }
}
