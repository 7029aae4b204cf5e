//! The three UDC aspects: resource (§3.2), execution environment &
//! security (§3.3), and distributed semantics (§3.4).
//!
//! All aspect types are plain data ("declarative", Design Principle 2):
//! they say *what* the user wants, never *how* to realize it. Realization
//! lives in `udc-sched`, `udc-isolate` and `udc-dist`.

use std::collections::BTreeMap;
use std::fmt;

// ---------------------------------------------------------------------------
// Resource aspect (§3.2)
// ---------------------------------------------------------------------------

/// A kind of disaggregated hardware resource.
///
/// Mirrors the device classes in Fig. 1 of the paper (CPU, GPU, FPGA,
/// DRAM, NVM, SSD, HDD, SoC). Compute kinds are counted in discrete units
/// (cores / devices); memory and storage kinds in mebibytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceKind {
    /// General-purpose CPU cores.
    Cpu,
    /// GPU devices.
    Gpu,
    /// FPGA devices.
    Fpga,
    /// Volatile DRAM, in MiB.
    Dram,
    /// Non-volatile memory (e.g. Optane), in MiB.
    Nvm,
    /// Flash storage, in MiB.
    Ssd,
    /// Magnetic storage, in MiB.
    Hdd,
    /// SmartNIC / SoC offload engines.
    Soc,
}

impl ResourceKind {
    /// All resource kinds, in canonical order.
    pub const ALL: [ResourceKind; 8] = [
        ResourceKind::Cpu,
        ResourceKind::Gpu,
        ResourceKind::Fpga,
        ResourceKind::Dram,
        ResourceKind::Nvm,
        ResourceKind::Ssd,
        ResourceKind::Hdd,
        ResourceKind::Soc,
    ];

    /// Canonical lower-case name, as used in the `.udc` text format.
    pub fn name(self) -> &'static str {
        match self {
            ResourceKind::Cpu => "cpu",
            ResourceKind::Gpu => "gpu",
            ResourceKind::Fpga => "fpga",
            ResourceKind::Dram => "dram",
            ResourceKind::Nvm => "nvm",
            ResourceKind::Ssd => "ssd",
            ResourceKind::Hdd => "hdd",
            ResourceKind::Soc => "soc",
        }
    }

    /// Parses a canonical name back into a kind.
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Whether this kind executes code (compute) rather than holding bytes.
    pub fn is_compute(self) -> bool {
        matches!(
            self,
            ResourceKind::Cpu | ResourceKind::Gpu | ResourceKind::Fpga | ResourceKind::Soc
        )
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A multi-dimensional resource quantity: units of each [`ResourceKind`].
///
/// Used both for demands ("this module needs 4 CPU cores and 8192 MiB
/// DRAM") and capacities. Arithmetic saturates rather than wrapping so
/// capacity math can never silently overflow.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResourceVector {
    amounts: BTreeMap<ResourceKind, u64>,
}

impl ResourceVector {
    /// The empty (all-zero) vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style: sets `kind` to `amount` (a zero amount removes the
    /// entry, keeping the representation canonical).
    pub fn with(mut self, kind: ResourceKind, amount: u64) -> Self {
        self.set(kind, amount);
        self
    }

    /// Sets `kind` to `amount`; zero removes the entry.
    pub fn set(&mut self, kind: ResourceKind, amount: u64) {
        if amount == 0 {
            self.amounts.remove(&kind);
        } else {
            self.amounts.insert(kind, amount);
        }
    }

    /// Returns the amount for `kind` (zero if absent).
    pub fn get(&self, kind: ResourceKind) -> u64 {
        self.amounts.get(&kind).copied().unwrap_or(0)
    }

    /// True when every dimension is zero.
    pub fn is_zero(&self) -> bool {
        self.amounts.is_empty()
    }

    /// Iterates over the non-zero `(kind, amount)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceKind, u64)> + '_ {
        self.amounts.iter().map(|(&k, &v)| (k, v))
    }

    /// Component-wise saturating addition.
    pub fn saturating_add(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.saturating_add_assign(other);
        out
    }

    /// Component-wise saturating addition in place — the allocation-free
    /// form for accumulation loops.
    pub fn saturating_add_assign(&mut self, other: &Self) {
        for (k, v) in other.iter() {
            let cur = self.get(k);
            self.set(k, cur.saturating_add(v));
        }
    }

    /// Component-wise saturating subtraction (clamping at zero).
    pub fn saturating_sub(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.saturating_sub_assign(other);
        out
    }

    /// Component-wise saturating subtraction in place (clamping at zero).
    pub fn saturating_sub_assign(&mut self, other: &Self) {
        for (k, v) in other.iter() {
            let cur = self.get(k);
            self.set(k, cur.saturating_sub(v));
        }
    }

    /// True when `self` fits inside `other` in every dimension.
    pub fn fits_in(&self, other: &Self) -> bool {
        self.iter().all(|(k, v)| v <= other.get(k))
    }

    /// True when the two vectors demand at least one common kind.
    pub fn overlaps(&self, other: &Self) -> bool {
        self.iter().any(|(k, _)| other.get(k) > 0)
    }

    /// Scales every dimension by `factor` (saturating).
    pub fn scaled(&self, factor: u64) -> Self {
        let mut out = Self::new();
        for (k, v) in self.iter() {
            out.set(k, v.saturating_mul(factor));
        }
        out
    }

    /// Sum of all dimensions — a crude scalar "size" used only for
    /// ordering heuristics, never for correctness.
    pub fn scalar_size(&self) -> u64 {
        self.amounts
            .values()
            .fold(0u64, |a, &b| a.saturating_add(b))
    }
}

impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("∅");
        }
        let mut first = true;
        for (k, v) in self.iter() {
            if !first {
                f.write_str("+")?;
            }
            write!(f, "{v}{k}")?;
            first = false;
        }
        Ok(())
    }
}

/// Optimization goal when the user does not pin exact resources (§3.2:
/// "if users only provide a performance/cost goal, then UDC will select
/// resources based on load and available hardware at run time").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Goal {
    /// Minimize end-to-end latency ("Fastest" in Table 1).
    Fastest,
    /// Minimize monetary cost ("Cheapest" in Table 1).
    Cheapest,
}

impl Goal {
    /// Canonical text-format name.
    pub fn name(self) -> &'static str {
        match self {
            Goal::Fastest => "fastest",
            Goal::Cheapest => "cheapest",
        }
    }

    /// Parses a canonical name.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "fastest" => Some(Goal::Fastest),
            "cheapest" => Some(Goal::Cheapest),
            _ => None,
        }
    }
}

/// The resource aspect of a module (§3.2).
///
/// Users may specify any combination of:
/// - `demand` — exact amounts per resource kind (possibly from a dry-run
///   profile),
/// - `candidates` — a set of compute kinds the module *could* run on
///   (developer knowledge; the runtime picks one),
/// - `goal` — an optimization goal used when demand is absent or a
///   candidate must be chosen.
///
/// An entirely empty aspect means "provider decides" (the paper's
/// fall-back to today's cloud).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResourceAspect {
    /// Exact demand per resource kind; empty = unspecified.
    pub demand: ResourceVector,
    /// Candidate compute kinds the module may execute on.
    pub candidates: Vec<ResourceKind>,
    /// Optimization goal.
    pub goal: Option<Goal>,
}

impl ResourceAspect {
    /// Aspect consisting only of an optimization goal.
    pub fn goal(goal: Goal) -> Self {
        Self {
            goal: Some(goal),
            ..Self::default()
        }
    }

    /// Aspect with an exact demand vector.
    pub fn demand(demand: ResourceVector) -> Self {
        Self {
            demand,
            ..Self::default()
        }
    }

    /// Builder-style: adds a candidate compute kind.
    pub fn with_candidate(mut self, kind: ResourceKind) -> Self {
        if !self.candidates.contains(&kind) {
            self.candidates.push(kind);
        }
        self
    }

    /// Builder-style: sets one demand dimension.
    pub fn with_demand(mut self, kind: ResourceKind, amount: u64) -> Self {
        self.demand.set(kind, amount);
        self
    }

    /// True when the user left the whole aspect unspecified.
    pub fn is_unspecified(&self) -> bool {
        self.demand.is_zero() && self.candidates.is_empty() && self.goal.is_none()
    }
}

// ---------------------------------------------------------------------------
// Execution environment & security aspect (§3.3)
// ---------------------------------------------------------------------------

/// Isolation level for a module's execution environment (§3.3).
///
/// Ordered from weakest to strongest; the derived `Ord` gives the
/// strictness order used by strictest-wins conflict resolution. The
/// paper's taxonomy:
///
/// - *strongest*: single-tenant **and** TEE — defends against system
///   software, physical, and hardware side-channel attacks;
/// - *strong*: TEE **or** single-tenant — a subset of those defenses;
/// - *medium*: provider choice among unikernel / lightweight VM /
///   sandboxed container (requires trusting the provider);
/// - *weak*: plain containers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum IsolationLevel {
    /// Plain containers (weakest).
    #[default]
    Weak,
    /// Provider-chosen unikernel, lightweight VM, or sandboxed container.
    Medium,
    /// TEE *or* single-tenant hardware; user-verifiable.
    Strong,
    /// TEE *and* single-tenant hardware; user-verifiable.
    Strongest,
}

impl IsolationLevel {
    /// Canonical text-format name.
    pub fn name(self) -> &'static str {
        match self {
            IsolationLevel::Weak => "weak",
            IsolationLevel::Medium => "medium",
            IsolationLevel::Strong => "strong",
            IsolationLevel::Strongest => "strongest",
        }
    }

    /// Parses a canonical name.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "weak" => Some(IsolationLevel::Weak),
            "medium" => Some(IsolationLevel::Medium),
            "strong" => Some(IsolationLevel::Strong),
            "strongest" => Some(IsolationLevel::Strongest),
            _ => None,
        }
    }

    /// Whether the user can verify fulfillment without trusting the
    /// provider (§3.3: only the strongest and strong options "can enable
    /// verification by the user").
    pub fn user_verifiable(self) -> bool {
        matches!(self, IsolationLevel::Strong | IsolationLevel::Strongest)
    }
}

/// Tenancy requirement, orthogonal to the TEE requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Tenancy {
    /// Hardware may be shared with other tenants.
    #[default]
    Shared,
    /// The entire hardware unit is dedicated to this tenant
    /// (defends against hardware side channels, §3.3).
    SingleTenant,
}

impl Tenancy {
    /// Canonical text-format name.
    pub fn name(self) -> &'static str {
        match self {
            Tenancy::Shared => "shared",
            Tenancy::SingleTenant => "single_tenant",
        }
    }
}

/// Protection options for data *leaving* the execution environment
/// (§3.3: "encryption, integrity protection, and replay protection").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct DataProtection {
    /// Encrypt data in flight / at rest outside the environment.
    pub confidentiality: bool,
    /// MAC / Merkle-protect data against tampering.
    pub integrity: bool,
    /// Monotonic-counter protection against replay of stale data.
    pub replay: bool,
}

impl DataProtection {
    /// No protection at all.
    pub const NONE: DataProtection = DataProtection {
        confidentiality: false,
        integrity: false,
        replay: false,
    };

    /// Confidentiality + integrity (Table 1's "Encryption & integrity
    /// protection").
    pub const ENCRYPT_AND_INTEGRITY: DataProtection = DataProtection {
        confidentiality: true,
        integrity: true,
        replay: false,
    };

    /// Integrity only (Table 1, S4).
    pub const INTEGRITY_ONLY: DataProtection = DataProtection {
        confidentiality: false,
        integrity: true,
        replay: false,
    };

    /// Full protection including replay defense.
    pub const FULL: DataProtection = DataProtection {
        confidentiality: true,
        integrity: true,
        replay: true,
    };

    /// Component-wise union — the strictest combination of two
    /// requirements (used by strictest-wins resolution).
    pub fn union(self, other: Self) -> Self {
        DataProtection {
            confidentiality: self.confidentiality || other.confidentiality,
            integrity: self.integrity || other.integrity,
            replay: self.replay || other.replay,
        }
    }

    /// True when `self` demands no more than `other` in every component.
    pub fn subsumed_by(self, other: Self) -> bool {
        (!self.confidentiality || other.confidentiality)
            && (!self.integrity || other.integrity)
            && (!self.replay || other.replay)
    }
}

/// The execution-environment & security aspect of a module (§3.3).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecEnvAspect {
    /// Requested isolation level; `None` = provider default.
    pub isolation: Option<IsolationLevel>,
    /// Tenancy requirement; `None` = provider default.
    pub tenancy: Option<Tenancy>,
    /// Require a TEE *when the module runs on a CPU* — Table 1's
    /// "SGX enclave if CPU" refinement for hardware-candidate modules.
    pub tee_if_cpu: bool,
    /// Protection for data leaving the environment.
    pub protection: Option<DataProtection>,
}

impl ExecEnvAspect {
    /// Aspect requesting a specific isolation level.
    pub fn isolation(level: IsolationLevel) -> Self {
        Self {
            isolation: Some(level),
            ..Self::default()
        }
    }

    /// Builder-style: sets tenancy.
    pub fn with_tenancy(mut self, t: Tenancy) -> Self {
        self.tenancy = Some(t);
        self
    }

    /// Builder-style: requires a TEE when placed on a CPU.
    pub fn with_tee_if_cpu(mut self) -> Self {
        self.tee_if_cpu = true;
        self
    }

    /// Builder-style: sets data protection.
    pub fn with_protection(mut self, p: DataProtection) -> Self {
        self.protection = Some(p);
        self
    }

    /// True when the user left the whole aspect unspecified.
    pub fn is_unspecified(&self) -> bool {
        self.isolation.is_none()
            && self.tenancy.is_none()
            && !self.tee_if_cpu
            && self.protection.is_none()
    }
}

// ---------------------------------------------------------------------------
// Distributed aspect (§3.4)
// ---------------------------------------------------------------------------

/// Consistency level for concurrent access to a data module (§3.4).
///
/// Ordered weakest → strictest; the derived `Ord` is the strictness order
/// used by conflict resolution ("UDC needs to detect such conflicts and
/// either chooses the strictest specification or returns an error").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum ConsistencyLevel {
    /// Replicas converge eventually; reads may be arbitrarily stale.
    #[default]
    Eventual,
    /// Writes become visible at release (synchronization) points only.
    Release,
    /// Causally related operations are observed in order.
    Causal,
    /// All clients observe one total order of operations.
    Sequential,
    /// Sequential plus real-time ordering (the strictest we model).
    Linearizable,
}

impl ConsistencyLevel {
    /// Canonical text-format name.
    pub fn name(self) -> &'static str {
        match self {
            ConsistencyLevel::Eventual => "eventual",
            ConsistencyLevel::Release => "release",
            ConsistencyLevel::Causal => "causal",
            ConsistencyLevel::Sequential => "sequential",
            ConsistencyLevel::Linearizable => "linearizable",
        }
    }

    /// Parses a canonical name.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "eventual" => Some(ConsistencyLevel::Eventual),
            "release" => Some(ConsistencyLevel::Release),
            "causal" => Some(ConsistencyLevel::Causal),
            "sequential" => Some(ConsistencyLevel::Sequential),
            "linearizable" => Some(ConsistencyLevel::Linearizable),
            _ => None,
        }
    }
}

/// Which operation class gets scheduling preference on a data module
/// (§3.4: "what type of operations they want to give preferences to
/// (e.g., read preference over write)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OpPreference {
    /// No preference.
    #[default]
    None,
    /// Prefer readers (Table 1, S2: "Reader preference").
    Reader,
    /// Prefer writers.
    Writer,
}

impl OpPreference {
    /// Canonical text-format name.
    pub fn name(self) -> &'static str {
        match self {
            OpPreference::None => "none",
            OpPreference::Reader => "reader",
            OpPreference::Writer => "writer",
        }
    }

    /// Parses a canonical name.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "none" => Some(OpPreference::None),
            "reader" => Some(OpPreference::Reader),
            "writer" => Some(OpPreference::Writer),
            _ => None,
        }
    }
}

/// How failures of a module's failure domain are handled (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FailureHandling {
    /// Re-run the module from its inputs.
    #[default]
    Reexecute,
    /// Restore from the most recent checkpoint; `interval_ms` is the
    /// user-requested checkpoint cadence.
    Checkpoint {
        /// Checkpoint cadence in simulated milliseconds.
        interval_ms: u64,
    },
}

impl FailureHandling {
    /// Canonical text-format name of the strategy (without the
    /// checkpoint interval).
    pub fn name(self) -> &'static str {
        match self {
            FailureHandling::Reexecute => "reexecute",
            FailureHandling::Checkpoint { .. } => "checkpoint",
        }
    }
}

/// The distributed-semantics aspect of a module (§3.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistributedAspect {
    /// Number of replicas (1 = no replication). Table 1 uses 1–3.
    pub replication: u32,
    /// Consistency level for concurrent access (data modules).
    pub consistency: Option<ConsistencyLevel>,
    /// Operation-class preference.
    pub preference: OpPreference,
    /// Failure-handling strategy.
    pub failure: Option<FailureHandling>,
    /// User-assigned failure domain: modules sharing a domain fail as a
    /// whole; distinct domains fail independently. `None` = own domain.
    pub failure_domain: Option<String>,
}

impl Default for DistributedAspect {
    fn default() -> Self {
        Self {
            replication: 1,
            consistency: None,
            preference: OpPreference::None,
            failure: None,
            failure_domain: None,
        }
    }
}

impl DistributedAspect {
    /// Builder-style: sets the replication factor.
    pub fn replication(mut self, n: u32) -> Self {
        self.replication = n;
        self
    }

    /// Builder-style: sets the consistency level.
    pub fn consistency(mut self, c: ConsistencyLevel) -> Self {
        self.consistency = Some(c);
        self
    }

    /// Builder-style: sets the operation preference.
    pub fn preference(mut self, p: OpPreference) -> Self {
        self.preference = p;
        self
    }

    /// Builder-style: sets the failure-handling strategy.
    pub fn failure(mut self, f: FailureHandling) -> Self {
        self.failure = Some(f);
        self
    }

    /// Builder-style: assigns the module to a named failure domain.
    pub fn failure_domain(mut self, d: impl Into<String>) -> Self {
        self.failure_domain = Some(d.into());
        self
    }

    /// True when the aspect is entirely the provider default.
    pub fn is_unspecified(&self) -> bool {
        *self == Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_vector_arithmetic() {
        let a = ResourceVector::new()
            .with(ResourceKind::Cpu, 4)
            .with(ResourceKind::Dram, 1024);
        let b = ResourceVector::new()
            .with(ResourceKind::Cpu, 2)
            .with(ResourceKind::Gpu, 1);
        let sum = a.saturating_add(&b);
        assert_eq!(sum.get(ResourceKind::Cpu), 6);
        assert_eq!(sum.get(ResourceKind::Gpu), 1);
        assert_eq!(sum.get(ResourceKind::Dram), 1024);
        let diff = a.saturating_sub(&b);
        assert_eq!(diff.get(ResourceKind::Cpu), 2);
        assert_eq!(diff.get(ResourceKind::Gpu), 0, "clamped at zero");
    }

    #[test]
    fn resource_vector_zero_canonicalization() {
        let mut v = ResourceVector::new().with(ResourceKind::Cpu, 4);
        v.set(ResourceKind::Cpu, 0);
        assert!(v.is_zero());
        assert_eq!(v, ResourceVector::new());
    }

    #[test]
    fn resource_vector_fits_and_overlap() {
        let small = ResourceVector::new().with(ResourceKind::Cpu, 2);
        let big = ResourceVector::new()
            .with(ResourceKind::Cpu, 8)
            .with(ResourceKind::Gpu, 1);
        assert!(small.fits_in(&big));
        assert!(!big.fits_in(&small));
        assert!(small.overlaps(&big));
        let disjoint = ResourceVector::new().with(ResourceKind::Ssd, 100);
        assert!(!small.overlaps(&disjoint));
        assert!(disjoint.fits_in(&big.saturating_add(&disjoint)));
    }

    #[test]
    fn resource_vector_saturates() {
        let v = ResourceVector::new().with(ResourceKind::Cpu, u64::MAX);
        let sum = v.saturating_add(&v);
        assert_eq!(sum.get(ResourceKind::Cpu), u64::MAX);
        let scaled = v.scaled(3);
        assert_eq!(scaled.get(ResourceKind::Cpu), u64::MAX);
    }

    #[test]
    fn isolation_strictness_order() {
        assert!(IsolationLevel::Weak < IsolationLevel::Medium);
        assert!(IsolationLevel::Medium < IsolationLevel::Strong);
        assert!(IsolationLevel::Strong < IsolationLevel::Strongest);
        assert!(IsolationLevel::Strongest.user_verifiable());
        assert!(IsolationLevel::Strong.user_verifiable());
        assert!(!IsolationLevel::Medium.user_verifiable());
        assert!(!IsolationLevel::Weak.user_verifiable());
    }

    #[test]
    fn consistency_strictness_order() {
        use ConsistencyLevel::*;
        let mut levels = [Linearizable, Eventual, Sequential, Release, Causal];
        levels.sort();
        assert_eq!(
            levels,
            [Eventual, Release, Causal, Sequential, Linearizable]
        );
    }

    #[test]
    fn protection_union_is_component_wise_or() {
        let a = DataProtection::ENCRYPT_AND_INTEGRITY;
        let b = DataProtection {
            replay: true,
            ..DataProtection::NONE
        };
        assert_eq!(a.union(b), DataProtection::FULL);
        assert!(a.subsumed_by(DataProtection::FULL));
        assert!(!DataProtection::FULL.subsumed_by(a));
        assert!(DataProtection::NONE.subsumed_by(a));
    }

    #[test]
    fn kind_names_round_trip() {
        for k in ResourceKind::ALL {
            assert_eq!(ResourceKind::from_name(k.name()), Some(k));
        }
        assert_eq!(ResourceKind::from_name("tpu"), None);
    }

    #[test]
    fn enum_names_round_trip() {
        for l in [
            IsolationLevel::Weak,
            IsolationLevel::Medium,
            IsolationLevel::Strong,
            IsolationLevel::Strongest,
        ] {
            assert_eq!(IsolationLevel::from_name(l.name()), Some(l));
        }
        for c in [
            ConsistencyLevel::Eventual,
            ConsistencyLevel::Release,
            ConsistencyLevel::Causal,
            ConsistencyLevel::Sequential,
            ConsistencyLevel::Linearizable,
        ] {
            assert_eq!(ConsistencyLevel::from_name(c.name()), Some(c));
        }
        for p in [
            OpPreference::None,
            OpPreference::Reader,
            OpPreference::Writer,
        ] {
            assert_eq!(OpPreference::from_name(p.name()), Some(p));
        }
        for g in [Goal::Fastest, Goal::Cheapest] {
            assert_eq!(Goal::from_name(g.name()), Some(g));
        }
    }

    #[test]
    fn unspecified_aspects_are_detected() {
        assert!(ResourceAspect::default().is_unspecified());
        assert!(!ResourceAspect::goal(Goal::Fastest).is_unspecified());
        assert!(ExecEnvAspect::default().is_unspecified());
        assert!(!ExecEnvAspect::isolation(IsolationLevel::Weak).is_unspecified());
        assert!(DistributedAspect::default().is_unspecified());
        assert!(!DistributedAspect::default().replication(2).is_unspecified());
    }

    #[test]
    fn display_resource_vector() {
        let v = ResourceVector::new()
            .with(ResourceKind::Cpu, 4)
            .with(ResourceKind::Gpu, 2);
        assert_eq!(v.to_string(), "4cpu+2gpu");
        assert_eq!(ResourceVector::new().to_string(), "∅");
    }

    #[test]
    fn compute_kind_classification() {
        assert!(ResourceKind::Cpu.is_compute());
        assert!(ResourceKind::Gpu.is_compute());
        assert!(ResourceKind::Soc.is_compute());
        assert!(!ResourceKind::Dram.is_compute());
        assert!(!ResourceKind::Ssd.is_compute());
    }
}
