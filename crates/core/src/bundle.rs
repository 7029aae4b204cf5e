//! Vertical bundling (Design Principle 3).
//!
//! "We propose to vertically bundle layers of fine-grained pieces into a
//! self-sustained resource unit. For example, we can combine some amount
//! of compute resources (e.g., a CPU core), an execution environment
//! (e.g., a container), and some distributed API library into one
//! low-level resource unit for allocation, scheduling, and failure
//! handling. We also propose to bundle a fine-grained code/data module
//! and its aspects into a high-level object, which can be executed on
//! one or more resource units."

use udc_hal::DeviceId;
use udc_isolate::EnvironmentPlan;
use udc_spec::{DistributedAspect, ModuleId, ResourceKind};

/// The low-level bundle: resources + environment + distributed endpoint,
/// managed as one unit for allocation, scheduling and failure handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceUnit {
    /// Stable unit id.
    pub id: u64,
    /// Hosting device.
    pub device: DeviceId,
    /// Resource kind and amount bundled in.
    pub kind: ResourceKind,
    /// Units of the resource.
    pub units: u64,
    /// The execution environment bundled in.
    pub env: EnvironmentPlan,
    /// The distributed-API endpoint tag (actor address).
    pub endpoint: String,
}

/// The high-level bundle: one module plus its aspects, executable on one
/// or more resource units.
#[derive(Debug, Clone, PartialEq)]
pub struct HighLevelObject {
    /// The module.
    pub module: ModuleId,
    /// The module's distributed aspect (carried with the object so
    /// failure handling travels with it).
    pub dist: DistributedAspect,
    /// The resource units executing this object (one per replica for
    /// data modules).
    pub units: Vec<ResourceUnit>,
}

impl HighLevelObject {
    /// The unit count (replicas for data, 1 for tasks).
    pub fn fan_out(&self) -> usize {
        self.units.len()
    }

    /// Devices this object touches.
    pub fn devices(&self) -> Vec<DeviceId> {
        self.units.iter().map(|u| u.device).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udc_isolate::EnvKind;

    fn unit(id: u64, device: u32) -> ResourceUnit {
        ResourceUnit {
            id,
            device: DeviceId(device),
            kind: ResourceKind::Cpu,
            units: 2,
            env: EnvironmentPlan {
                kind: EnvKind::Container,
                single_tenant: false,
                user_verifiable: false,
            },
            endpoint: format!("unit-{id}"),
        }
    }

    #[test]
    fn object_tracks_units_and_devices() {
        let obj = HighLevelObject {
            module: "S1".into(),
            dist: DistributedAspect::default().replication(3),
            units: vec![unit(0, 10), unit(1, 11), unit(2, 12)],
        };
        assert_eq!(obj.fan_out(), 3);
        assert_eq!(
            obj.devices(),
            vec![DeviceId(10), DeviceId(11), DeviceId(12)]
        );
    }
}
