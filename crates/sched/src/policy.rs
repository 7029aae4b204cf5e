//! Placement policies: how candidate devices are ranked.
//!
//! The provider ships a native locality-aware policy; tenants may
//! *override* it with their own policy compiled to extension-VM bytecode
//! (Design Principles 1–2: the user defines, the provider executes the
//! definition safely).

use udc_extvm::{CompiledProgram, Host, Program, Vm, VmLimits};
use udc_hal::{Datacenter, DeviceId};

/// Execution counters drained from a policy after a placement pass, so
/// the scheduler can surface `extvm.*` telemetry without knowing the
/// policy's concrete type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Runs served by the compiled register-IR backend.
    pub compiled_runs: u64,
    /// Runs served by the interpreter (including compiled-path deopts).
    pub interp_runs: u64,
    /// Superinstructions fused when the program was compiled (reported
    /// on the first drain only).
    pub fused_ops: u64,
}

impl ExecStats {
    /// True when there is nothing to report.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }
}

/// Context describing one candidate device for one module placement.
#[derive(Debug, Clone, Copy)]
pub struct PolicyCtx {
    /// Candidate device.
    pub device: DeviceId,
    /// Free units on the device (for the tenant).
    pub free_units: u64,
    /// Device capacity.
    pub capacity: u64,
    /// The device's rack.
    pub rack: u32,
    /// Rack preferred by locality hints (u32::MAX = none).
    pub preferred_rack: u32,
    /// Units the module demands.
    pub demand: u64,
}

/// Ranks candidate devices; higher scores win. Returning `None` vetoes
/// the candidate.
pub trait PlacementPolicy {
    /// Scores a candidate.
    fn score(&mut self, ctx: &PolicyCtx) -> Option<i64>;

    /// Human-readable name (for experiment output).
    fn name(&self) -> &str;

    /// Drains execution counters accumulated since the last drain.
    /// Native policies have nothing to report.
    fn take_exec_stats(&mut self) -> ExecStats {
        ExecStats::default()
    }

    /// True when this policy's ranking *is* the pool's best-fit order:
    /// for every candidate list, the lowest-id candidate with the
    /// highest [`PlacementPolicy::score`] is the device
    /// [`ResourcePool::best_fit`](udc_hal::ResourcePool::best_fit) names
    /// under the same demand, preferred rack and exclusion set, and
    /// every candidate is vetoed exactly when `best_fit` finds none. The
    /// scheduler then takes the winner from the pool index in O(log n)
    /// and never calls `score` to decide (only to annotate audit
    /// records when a hub is enabled). The default, `false`, keeps the
    /// scan: every candidate of the kind is scored — the only way to
    /// rank under a policy the scheduler knows nothing about.
    fn ranks_in_pool_order(&self) -> bool {
        false
    }
}

/// What a candidate in the hinted rack scores over one outside it.
const RACK_BONUS: i64 = 1_000_000;

/// The provider's native policy: prefer the hinted rack, then best-fit
/// (least leftover capacity) to keep large holes open.
///
/// Its argmax — highest `rack_bonus − leftover`, lowest id on ties — is
/// the pool's `(rack_penalty, free, id)` best-fit key, so it
/// [ranks in pool order](PlacementPolicy::ranks_in_pool_order). That
/// holds only while the rack bonus dominates any leftover, i.e. while
/// no candidate has 1 000 000 or more units free beyond the demand: the
/// scheduler ranks compute kinds only (4–64 units per device in every
/// shipped configuration), and `score` asserts it in debug builds.
#[derive(Debug, Default, Clone)]
pub struct LocalityPolicy;

impl PlacementPolicy for LocalityPolicy {
    fn score(&mut self, ctx: &PolicyCtx) -> Option<i64> {
        if ctx.free_units < ctx.demand {
            return None;
        }
        let rack_bonus = if ctx.preferred_rack != u32::MAX && ctx.rack == ctx.preferred_rack {
            RACK_BONUS
        } else {
            0
        };
        let leftover = (ctx.free_units - ctx.demand) as i64;
        debug_assert!(
            leftover < RACK_BONUS,
            "a leftover of {leftover} outranks the rack bonus: the policy no longer ranks in pool order"
        );
        // Best-fit: smaller leftover scores higher.
        Some(rack_bonus - leftover)
    }

    fn name(&self) -> &str {
        "native-locality"
    }

    fn ranks_in_pool_order(&self) -> bool {
        true
    }
}

/// A tenant-supplied policy running in the sandboxed extension VM.
///
/// The program receives the candidate as VM arguments
/// `[free, capacity, rack, preferred_rack, demand]` and returns a score;
/// a negative score vetoes the candidate. Any trap (gas exhaustion,
/// memory violation, hostile code) vetoes the candidate and is counted,
/// so a broken or malicious extension degrades *that tenant's* placement
/// quality without affecting the control plane.
pub struct ExtVmPolicy {
    program: Program,
    /// Register-IR translation, built once at registration time.
    /// `None` forces the interpreter (baseline mode for benchmarks).
    compiled: Option<CompiledProgram>,
    vm: Vm,
    name: String,
    /// Traps observed (telemetry for experiment E14).
    pub traps: u64,
    /// Total gas consumed across invocations.
    pub gas_used: u64,
    /// Fusion count not yet drained through [`ExecStats`].
    fused_pending: u64,
}

impl ExtVmPolicy {
    /// Wraps an assembled tenant program, compiling it to the fused
    /// register IR up front (scoring runs on the hot placement path).
    pub fn new(name: impl Into<String>, program: Program, limits: VmLimits) -> Self {
        let compiled = CompiledProgram::compile(&program, limits);
        let fused = compiled.fused_ops();
        Self {
            program,
            compiled: Some(compiled),
            vm: Vm::new(limits),
            name: name.into(),
            traps: 0,
            gas_used: 0,
            fused_pending: u64::from(fused),
        }
    }

    /// Interpreter-only variant: identical observable behaviour, no
    /// compilation. Exists so benchmarks and differential tests can
    /// measure the baseline the compiler is judged against.
    pub fn interpreted(name: impl Into<String>, program: Program, limits: VmLimits) -> Self {
        Self {
            program,
            compiled: None,
            vm: Vm::new(limits),
            name: name.into(),
            traps: 0,
            gas_used: 0,
            fused_pending: 0,
        }
    }

    /// Superinstructions the compiler fused for this program.
    pub fn fused_ops(&self) -> u64 {
        self.compiled
            .as_ref()
            .map_or(0, |c| u64::from(c.fused_ops()))
    }
}

/// Host functions exposed to placement policies. Index 0 returns the
/// absolute difference of its two arguments (a convenience the native
/// ISA lacks); more can be added without breaking old programs.
struct PolicyHost;

impl Host for PolicyHost {
    fn call(&mut self, idx: u8, args: &[i64]) -> Result<i64, String> {
        match idx {
            0 => match args {
                [a, b] => Ok((a - b).abs()),
                _ => Err("host fn 0 wants 2 args".to_string()),
            },
            other => Err(format!("no host function {other}")),
        }
    }
}

impl PlacementPolicy for ExtVmPolicy {
    fn score(&mut self, ctx: &PolicyCtx) -> Option<i64> {
        if ctx.free_units < ctx.demand {
            return None;
        }
        let args = [
            ctx.free_units as i64,
            ctx.capacity as i64,
            ctx.rack as i64,
            if ctx.preferred_rack == u32::MAX {
                -1
            } else {
                ctx.preferred_rack as i64
            },
            ctx.demand as i64,
        ];
        let result = match &self.compiled {
            Some(c) => c.run(&mut self.vm, &args, &mut PolicyHost),
            None => self.vm.run(&self.program, &args, &mut PolicyHost),
        };
        self.gas_used += self.vm.last_gas_used();
        match result {
            Ok(score) if score >= 0 => Some(score),
            Ok(_) => None,
            Err(_) => {
                self.traps += 1;
                None
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn take_exec_stats(&mut self) -> ExecStats {
        let (compiled_runs, interp_runs) = self.vm.take_run_counts();
        let fused_ops = std::mem::take(&mut self.fused_pending);
        ExecStats {
            compiled_runs,
            interp_runs,
            fused_ops,
        }
    }
}

/// Builds the [`PolicyCtx`] list for a demand on one resource pool:
/// every device of the kind, in device-id order.
pub fn candidates_for(
    dc: &Datacenter,
    kind: udc_spec::ResourceKind,
    tenant: &str,
    demand: u64,
    preferred_rack: Option<u32>,
) -> Vec<PolicyCtx> {
    let mut out = Vec::new();
    fill_candidates(&mut out, dc, kind, tenant, demand, preferred_rack);
    out
}

/// [`candidates_for`] into a buffer the caller reuses.
pub(crate) fn fill_candidates(
    out: &mut Vec<PolicyCtx>,
    dc: &Datacenter,
    kind: udc_spec::ResourceKind,
    tenant: &str,
    demand: u64,
    preferred_rack: Option<u32>,
) {
    out.clear();
    let Some(pool) = dc.pool(kind) else {
        return;
    };
    out.extend(pool.devices().map(|d| PolicyCtx {
        device: d.id,
        free_units: d.free_for(tenant),
        capacity: d.capacity,
        rack: d.rack,
        preferred_rack: preferred_rack.unwrap_or(u32::MAX),
        demand,
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use udc_extvm::assemble;

    fn ctx(free: u64, rack: u32, preferred: u32, demand: u64) -> PolicyCtx {
        PolicyCtx {
            device: DeviceId(0),
            free_units: free,
            capacity: 64,
            rack,
            preferred_rack: preferred,
            demand,
        }
    }

    #[test]
    fn native_policy_prefers_hinted_rack() {
        let mut p = LocalityPolicy;
        let hinted = p.score(&ctx(32, 1, 1, 4)).unwrap();
        let other = p.score(&ctx(32, 0, 1, 4)).unwrap();
        assert!(hinted > other);
    }

    #[test]
    fn native_policy_best_fit() {
        let mut p = LocalityPolicy;
        let tight = p.score(&ctx(5, 0, u32::MAX, 4)).unwrap();
        let loose = p.score(&ctx(60, 0, u32::MAX, 4)).unwrap();
        assert!(tight > loose, "best-fit prefers the snug device");
    }

    #[test]
    fn native_policy_vetoes_insufficient() {
        let mut p = LocalityPolicy;
        assert!(p.score(&ctx(3, 0, u32::MAX, 4)).is_none());
    }

    #[test]
    fn extvm_policy_scores() {
        // Tenant policy: score = free - demand (worst-fit: prefer the
        // emptiest device — a policy the provider does NOT offer).
        let prog = assemble("arg 0\narg 4\nsub\nret").unwrap();
        let mut p = ExtVmPolicy::new("tenant-worst-fit", prog, VmLimits::default());
        let empty = p.score(&ctx(60, 0, u32::MAX, 4)).unwrap();
        let snug = p.score(&ctx(5, 0, u32::MAX, 4)).unwrap();
        assert!(empty > snug, "tenant policy inverts the provider default");
        assert!(p.gas_used > 0);
    }

    #[test]
    fn extvm_negative_score_vetoes() {
        let prog = assemble("push -1\nret").unwrap();
        let mut p = ExtVmPolicy::new("veto-all", prog, VmLimits::default());
        assert!(p.score(&ctx(60, 0, u32::MAX, 4)).is_none());
        assert_eq!(p.traps, 0, "a clean negative return is not a trap");
    }

    #[test]
    fn hostile_extension_contained() {
        // An infinite loop: every invocation traps on gas, vetoing the
        // candidate, but the control plane survives.
        let prog = assemble("spin: jmp spin").unwrap();
        let mut p = ExtVmPolicy::new(
            "hostile",
            prog,
            VmLimits {
                max_gas: 10_000,
                ..Default::default()
            },
        );
        for _ in 0..5 {
            assert!(p.score(&ctx(60, 0, u32::MAX, 4)).is_none());
        }
        assert_eq!(p.traps, 5);
    }

    #[test]
    fn extvm_compiled_matches_interpreted() {
        // Every canned policy shape scores identically under the
        // compiled backend and the interpreter baseline, including
        // gas accounting and veto decisions.
        for src in [
            "arg 0\narg 4\nsub\nret",
            "arg 0\narg 4\nsub\nneg\nret",
            "push 100\narg 2\narg 3\nhostcall 0.2\nsub\nret",
            "push -1\nret",
        ] {
            let prog = assemble(src).unwrap();
            let mut pc = ExtVmPolicy::new("c", prog.clone(), VmLimits::default());
            let mut pi = ExtVmPolicy::interpreted("i", prog, VmLimits::default());
            for c in [
                ctx(60, 0, u32::MAX, 4),
                ctx(5, 2, 2, 4),
                ctx(32, 9, 2, 1),
                ctx(3, 0, u32::MAX, 4),
            ] {
                assert_eq!(pc.score(&c), pi.score(&c), "{src:?}");
            }
            assert_eq!(pc.gas_used, pi.gas_used, "{src:?}");
            assert_eq!(pc.traps, pi.traps, "{src:?}");
        }
    }

    #[test]
    fn exec_stats_drain_and_reset() {
        let prog = assemble("arg 0\narg 4\nsub\nret").unwrap();
        let mut p = ExtVmPolicy::new("drain", prog, VmLimits::default());
        for _ in 0..3 {
            p.score(&ctx(60, 0, u32::MAX, 4)).unwrap();
        }
        let stats = p.take_exec_stats();
        assert_eq!(stats.compiled_runs, 3);
        assert_eq!(stats.interp_runs, 0);
        assert_eq!(stats.fused_ops, 1, "Arg+Arg+Sub fuses once");
        assert!(p.take_exec_stats().is_empty(), "drain resets counters");
        // Native policies report nothing.
        let mut n = LocalityPolicy;
        n.score(&ctx(60, 0, u32::MAX, 4)).unwrap();
        assert!(n.take_exec_stats().is_empty());
    }

    #[test]
    fn extvm_host_function_usable() {
        // score = 100 - |rack - preferred| via host fn 0.
        let prog = assemble("push 100\narg 2\narg 3\nhostcall 0.2\nsub\nret").unwrap();
        let mut p = ExtVmPolicy::new("rack-distance", prog, VmLimits::default());
        let near = p.score(&ctx(32, 2, 2, 1)).unwrap();
        let far = p.score(&ctx(32, 9, 2, 1)).unwrap();
        assert!(near > far);
    }
}
