//! Environment classes, their cost models, and their threat models.

use std::collections::BTreeSet;
use std::fmt;

/// The execution-environment classes named in §3.3 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EnvKind {
    /// Plain container (weak isolation).
    Container,
    /// Sandboxed container, gVisor-like (medium).
    SandboxedContainer,
    /// Unikernel / library OS (medium).
    Unikernel,
    /// Lightweight VM, Firecracker-like (medium).
    LightweightVm,
    /// Full virtual machine.
    FullVm,
    /// Trusted execution environment (SGX-enclave-like). CPU only.
    TeeEnclave,
}

impl EnvKind {
    /// All kinds, cheapest-to-start first.
    pub const ALL: [EnvKind; 6] = [
        EnvKind::Unikernel,
        EnvKind::Container,
        EnvKind::LightweightVm,
        EnvKind::SandboxedContainer,
        EnvKind::TeeEnclave,
        EnvKind::FullVm,
    ];

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            EnvKind::Container => "container",
            EnvKind::SandboxedContainer => "sandboxed_container",
            EnvKind::Unikernel => "unikernel",
            EnvKind::LightweightVm => "lightweight_vm",
            EnvKind::FullVm => "full_vm",
            EnvKind::TeeEnclave => "tee_enclave",
        }
    }

    /// The cost model of this class.
    ///
    /// Calibrated to the relative magnitudes of 2021 systems: unikernels
    /// boot in tens of milliseconds [Madhavapeddy et al.], Firecracker in
    /// ~125 ms [Agache et al.], gVisor adds syscall-interception
    /// overhead [gVisor docs], SGX enclave creation is slow and EPC
    /// paging costs runtime [Brasser et al.]. Absolute values are
    /// simulation constants; experiments compare shapes.
    pub fn cost_model(self) -> CostModel {
        match self {
            EnvKind::Container => CostModel {
                cold_start_us: 120_000,
                warm_start_us: 5_000,
                runtime_overhead: 1.02,
                teardown_us: 10_000,
            },
            EnvKind::SandboxedContainer => CostModel {
                cold_start_us: 400_000,
                warm_start_us: 15_000,
                runtime_overhead: 1.15,
                teardown_us: 20_000,
            },
            EnvKind::Unikernel => CostModel {
                cold_start_us: 30_000,
                warm_start_us: 4_000,
                runtime_overhead: 1.01,
                teardown_us: 2_000,
            },
            EnvKind::LightweightVm => CostModel {
                cold_start_us: 150_000,
                warm_start_us: 10_000,
                runtime_overhead: 1.05,
                teardown_us: 15_000,
            },
            EnvKind::FullVm => CostModel {
                cold_start_us: 8_000_000,
                warm_start_us: 500_000,
                runtime_overhead: 1.08,
                teardown_us: 300_000,
            },
            EnvKind::TeeEnclave => CostModel {
                cold_start_us: 900_000,
                warm_start_us: 200_000,
                runtime_overhead: 1.25,
                teardown_us: 50_000,
            },
        }
    }

    /// Whether this environment is a TEE.
    pub fn is_tee(self) -> bool {
        self == EnvKind::TeeEnclave
    }

    /// Attack vectors this environment defends against *by itself*
    /// (single-tenant placement adds [`AttackVector::HardwareSideChannel`]
    /// defense on top — see [`defends`]).
    pub fn intrinsic_defenses(self) -> BTreeSet<AttackVector> {
        let mut s = BTreeSet::new();
        match self {
            EnvKind::Container => {
                s.insert(AttackVector::CoTenantProcess);
            }
            EnvKind::SandboxedContainer
            | EnvKind::Unikernel
            | EnvKind::LightweightVm
            | EnvKind::FullVm => {
                s.insert(AttackVector::CoTenantProcess);
                s.insert(AttackVector::CoTenantKernel);
            }
            EnvKind::TeeEnclave => {
                s.insert(AttackVector::CoTenantProcess);
                s.insert(AttackVector::CoTenantKernel);
                // TEEs "provide protection against system software and
                // physical attacks" (§3.3).
                s.insert(AttackVector::SystemSoftware);
                s.insert(AttackVector::Physical);
            }
        }
        s
    }
}

impl fmt::Display for EnvKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Attack vectors in the paper's threat discussion (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AttackVector {
    /// Another tenant's process on the same OS.
    CoTenantProcess,
    /// Another tenant exploiting the shared host kernel.
    CoTenantKernel,
    /// A malicious or compromised provider software stack
    /// (hypervisor/OS).
    SystemSoftware,
    /// Physical access to the machine (bus snooping, cold boot).
    Physical,
    /// Hardware-based side channels (cache attacks, §3.3's cites
    /// \[8, 21, 28, 29, 41\]).
    HardwareSideChannel,
}

/// Startup/runtime cost model of an environment class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cold-start latency in microseconds.
    pub cold_start_us: u64,
    /// Start latency when taken from a warm pool.
    pub warm_start_us: u64,
    /// Multiplier on module execution time (>= 1.0).
    pub runtime_overhead: f64,
    /// Teardown latency.
    pub teardown_us: u64,
}

/// The full defense set of an environment given its tenancy placement.
///
/// "Single-tenant execution (where the entire hardware is dedicated to
/// one tenant) protects against hardware-based side-channel attacks."
pub fn defends(kind: EnvKind, single_tenant: bool) -> BTreeSet<AttackVector> {
    let mut s = kind.intrinsic_defenses();
    if single_tenant {
        s.insert(AttackVector::HardwareSideChannel);
        // With no co-tenant on the hardware at all, co-tenant vectors
        // are moot as well.
        s.insert(AttackVector::CoTenantProcess);
        s.insert(AttackVector::CoTenantKernel);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unikernel_fastest_cold_start() {
        let uni = EnvKind::Unikernel.cost_model().cold_start_us;
        for k in EnvKind::ALL {
            assert!(k.cost_model().cold_start_us >= uni, "{k}");
        }
    }

    #[test]
    fn full_vm_slowest_cold_start() {
        let vm = EnvKind::FullVm.cost_model().cold_start_us;
        for k in EnvKind::ALL {
            assert!(k.cost_model().cold_start_us <= vm, "{k}");
        }
    }

    #[test]
    fn warm_always_faster_than_cold() {
        for k in EnvKind::ALL {
            let m = k.cost_model();
            assert!(m.warm_start_us < m.cold_start_us, "{k}");
        }
    }

    #[test]
    fn overhead_at_least_one() {
        for k in EnvKind::ALL {
            assert!(k.cost_model().runtime_overhead >= 1.0, "{k}");
        }
    }

    #[test]
    fn tee_defends_system_software_and_physical() {
        let d = EnvKind::TeeEnclave.intrinsic_defenses();
        assert!(d.contains(&AttackVector::SystemSoftware));
        assert!(d.contains(&AttackVector::Physical));
        assert!(!d.contains(&AttackVector::HardwareSideChannel));
    }

    #[test]
    fn container_defends_least() {
        let c = EnvKind::Container.intrinsic_defenses();
        assert_eq!(c.len(), 1);
        for k in EnvKind::ALL {
            assert!(k.intrinsic_defenses().is_superset(&c), "{k}");
        }
    }

    #[test]
    fn single_tenant_adds_side_channel_defense() {
        let without = defends(EnvKind::TeeEnclave, false);
        let with = defends(EnvKind::TeeEnclave, true);
        assert!(!without.contains(&AttackVector::HardwareSideChannel));
        assert!(with.contains(&AttackVector::HardwareSideChannel));
        // Strongest = TEE + single-tenant defends everything we model.
        assert_eq!(with.len(), 5);
    }

    #[test]
    fn tee_plus_single_tenant_is_strictly_strongest() {
        let strongest = defends(EnvKind::TeeEnclave, true);
        for k in EnvKind::ALL {
            for st in [false, true] {
                if k == EnvKind::TeeEnclave && st {
                    continue;
                }
                assert!(
                    strongest.is_superset(&defends(k, st)),
                    "{k} single_tenant={st}"
                );
            }
        }
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<&str> = EnvKind::ALL.iter().map(|k| k.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), EnvKind::ALL.len());
    }
}
