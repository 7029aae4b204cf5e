//! Realizing a declarative exec-env aspect as a concrete environment
//! plan (Design Principle 2: specification is the user's, realization is
//! the provider's).
//!
//! Encodes §3.3's selection taxonomy and its hardware constraint: "One
//! new challenge is the goal of allowing users to freely combine
//! security/execution features with other aspects such as the resource
//! aspect. For example, today's TEEs only work with CPUs, but with UDC,
//! TEEs need to work with other hardware like GPUs and FPGAs. ...
//! Another possibility is to create physically-isolated (disaggregated)
//! device clusters that can only be occupied by one tenant at a time."

use crate::env::EnvKind;
use std::fmt;
use udc_spec::{ExecEnvAspect, IsolationLevel, ResourceKind, Tenancy};

/// The provider's concrete realization of an exec-env aspect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvironmentPlan {
    /// Which environment class to launch.
    pub kind: EnvKind,
    /// Whether the hosting device must be reserved single-tenant.
    pub single_tenant: bool,
    /// Whether the environment is user-verifiable via attestation
    /// (§3.3: strongest and strong "can enable verification by the
    /// user"; medium and weak "require trust in the provider").
    pub user_verifiable: bool,
}

/// Selection failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectError {
    /// The isolation level cannot be realized on the requested hardware
    /// kind at all (should not occur with the current rules; kept for
    /// forward compatibility with devices that cannot be isolated).
    Unrealizable {
        /// The requested level.
        level: IsolationLevel,
        /// The hardware kind.
        on: ResourceKind,
    },
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectError::Unrealizable { level, on } => {
                write!(f, "isolation `{}` unrealizable on {on}", level.name())
            }
        }
    }
}

impl std::error::Error for SelectError {}

/// Chooses an environment for a module given its exec-env aspect and the
/// hardware kind it was placed on.
///
/// Rules (from §3.3):
/// - `Strongest` = TEE **and** single-tenant. On CPUs: enclave +
///   exclusive device. On accelerators (no TEE exists): a
///   physically-isolated single-tenant device running a lightweight VM
///   monitor — the paper's "physically-isolated device clusters" option.
/// - `Strong` = TEE **or** single-tenant. On CPUs: enclave (shared
///   device OK). The `tee_if_cpu` refinement from Table 1 forces the
///   enclave choice on CPUs. On accelerators: single-tenant.
/// - `Medium` = provider's choice among unikernel / lightweight VM /
///   sandboxed container; we pick the cheapest cold-start (unikernel)
///   for compute and a lightweight VM for I/O-heavy kinds.
/// - `Weak` (or unspecified) = container.
/// - An explicit `tenancy = single_tenant` upgrades any plan to an
///   exclusive device.
pub fn select_env(
    aspect: &ExecEnvAspect,
    on: ResourceKind,
) -> Result<EnvironmentPlan, SelectError> {
    let level = aspect.isolation.unwrap_or(IsolationLevel::Weak);
    let tee_possible = on == ResourceKind::Cpu;
    let forced_single = aspect.tenancy == Some(Tenancy::SingleTenant);

    let mut plan = match level {
        IsolationLevel::Strongest => {
            if tee_possible {
                EnvironmentPlan {
                    kind: EnvKind::TeeEnclave,
                    single_tenant: true,
                    user_verifiable: true,
                }
            } else {
                // No TEE on accelerators: physically-isolated device.
                EnvironmentPlan {
                    kind: EnvKind::LightweightVm,
                    single_tenant: true,
                    user_verifiable: true,
                }
            }
        }
        IsolationLevel::Strong => {
            if tee_possible && (aspect.tee_if_cpu || !forced_single) {
                EnvironmentPlan {
                    kind: EnvKind::TeeEnclave,
                    single_tenant: forced_single,
                    user_verifiable: true,
                }
            } else {
                EnvironmentPlan {
                    kind: EnvKind::LightweightVm,
                    single_tenant: true,
                    user_verifiable: true,
                }
            }
        }
        IsolationLevel::Medium => {
            let kind = if on.is_compute() {
                EnvKind::Unikernel
            } else {
                EnvKind::LightweightVm
            };
            EnvironmentPlan {
                kind,
                single_tenant: false,
                user_verifiable: false,
            }
        }
        IsolationLevel::Weak => EnvironmentPlan {
            kind: EnvKind::Container,
            single_tenant: false,
            user_verifiable: false,
        },
    };

    if aspect.tee_if_cpu && tee_possible {
        plan.kind = EnvKind::TeeEnclave;
        plan.user_verifiable = true;
    }
    if forced_single {
        plan.single_tenant = true;
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aspect(level: IsolationLevel) -> ExecEnvAspect {
        ExecEnvAspect::isolation(level)
    }

    #[test]
    fn strongest_on_cpu_is_tee_single_tenant() {
        let p = select_env(&aspect(IsolationLevel::Strongest), ResourceKind::Cpu).unwrap();
        assert_eq!(p.kind, EnvKind::TeeEnclave);
        assert!(p.single_tenant);
        assert!(p.user_verifiable);
    }

    #[test]
    fn strongest_on_gpu_is_physically_isolated() {
        let p = select_env(&aspect(IsolationLevel::Strongest), ResourceKind::Gpu).unwrap();
        assert_ne!(p.kind, EnvKind::TeeEnclave, "no TEE on GPUs (§3.3)");
        assert!(p.single_tenant, "accelerator security = exclusive device");
        assert!(p.user_verifiable);
    }

    #[test]
    fn strong_on_cpu_prefers_tee_shared() {
        let p = select_env(&aspect(IsolationLevel::Strong), ResourceKind::Cpu).unwrap();
        assert_eq!(p.kind, EnvKind::TeeEnclave);
        assert!(!p.single_tenant, "strong = TEE *or* single-tenant");
    }

    #[test]
    fn strong_on_fpga_is_single_tenant() {
        let p = select_env(&aspect(IsolationLevel::Strong), ResourceKind::Fpga).unwrap();
        assert!(p.single_tenant);
        assert!(p.user_verifiable);
    }

    #[test]
    fn medium_is_provider_choice_not_verifiable() {
        let p = select_env(&aspect(IsolationLevel::Medium), ResourceKind::Cpu).unwrap();
        assert!(matches!(
            p.kind,
            EnvKind::Unikernel | EnvKind::LightweightVm | EnvKind::SandboxedContainer
        ));
        assert!(!p.user_verifiable, "medium requires trusting the provider");
    }

    #[test]
    fn weak_is_container() {
        let p = select_env(&aspect(IsolationLevel::Weak), ResourceKind::Cpu).unwrap();
        assert_eq!(p.kind, EnvKind::Container);
        assert!(!p.single_tenant);
    }

    #[test]
    fn unspecified_falls_back_to_weak() {
        let p = select_env(&ExecEnvAspect::default(), ResourceKind::Cpu).unwrap();
        assert_eq!(p.kind, EnvKind::Container);
    }

    #[test]
    fn tee_if_cpu_forces_enclave_on_cpu_only() {
        let a = ExecEnvAspect::isolation(IsolationLevel::Strong).with_tee_if_cpu();
        let on_cpu = select_env(&a, ResourceKind::Cpu).unwrap();
        assert_eq!(on_cpu.kind, EnvKind::TeeEnclave);
        let on_gpu = select_env(&a, ResourceKind::Gpu).unwrap();
        assert_ne!(on_gpu.kind, EnvKind::TeeEnclave);
    }

    #[test]
    fn explicit_single_tenant_upgrades_plan() {
        let a = ExecEnvAspect::isolation(IsolationLevel::Weak).with_tenancy(Tenancy::SingleTenant);
        let p = select_env(&a, ResourceKind::Cpu).unwrap();
        assert!(p.single_tenant);
        assert_eq!(p.kind, EnvKind::Container);
    }

    #[test]
    fn table1_a1_fastest_with_tee_if_cpu() {
        // Table 1, A1: "Single-tenant (or SGX enclave if CPU)".
        let a = ExecEnvAspect::isolation(IsolationLevel::Strong)
            .with_tee_if_cpu()
            .with_tenancy(Tenancy::SingleTenant);
        let p = select_env(&a, ResourceKind::Cpu).unwrap();
        assert_eq!(p.kind, EnvKind::TeeEnclave);
        assert!(p.single_tenant);
    }
}
