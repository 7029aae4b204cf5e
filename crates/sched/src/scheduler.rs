//! Placing an application DAG onto the disaggregated datacenter.

use crate::policy::{fill_candidates, LocalityPolicy, PlacementPolicy, PolicyCtx};
use std::collections::BTreeMap;
use std::fmt;
use udc_economics::{demand_of_app, AdmissionVerdict, SharedQuotaGate};
use udc_hal::pool::AllocConstraints;
use udc_hal::{AllocError, Allocation, Datacenter, DeviceId, ResourcePool};
use udc_isolate::{select_env, EnvKind, EnvironmentPlan, WarmPool, WarmPoolConfig};
use udc_spec::{
    AppSpec, ConflictPolicy, Goal, ModuleId, ModuleKind, ResolvedApp, ResourceKind, ResourceVector,
    SpecError,
};
use udc_telemetry::{Decision, EventKind, FieldValue, Labels, ReasonCode, Telemetry, TraceCtx};

/// How a module's environment was started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartMode {
    /// Started from scratch.
    Cold,
    /// Served from the warm pool.
    Warm,
}

/// The placement of one module.
#[derive(Debug, Clone)]
pub struct ModulePlacement {
    /// The module.
    pub module: ModuleId,
    /// All resource allocations held (compute + memory for tasks; one
    /// per replica for data).
    pub allocations: Vec<Allocation>,
    /// The device hosting the module's execution (tasks) or primary
    /// replica (data).
    pub primary_device: DeviceId,
    /// Devices hosting data replicas (data modules; `[primary]` for
    /// replication = 1).
    pub replica_devices: Vec<DeviceId>,
    /// The concrete execution environment chosen.
    pub env: EnvironmentPlan,
    /// Cold or warm start.
    pub start_mode: StartMode,
    /// Startup latency paid (environment launch).
    pub startup_us: u64,
    /// Estimated execution time (tasks with known work), including the
    /// environment's runtime overhead.
    pub est_exec_us: Option<u64>,
    /// The compute/storage kind the module landed on.
    pub placed_kind: ResourceKind,
    /// Fencing epoch minted by the control plane once the placement
    /// commits (0 until stamped). Every re-placement of the same module
    /// gets a strictly higher epoch; writes and relaunches presenting an
    /// older one are zombies and get rejected.
    pub epoch: u64,
}

/// The placement of a whole application.
#[derive(Debug, Clone, Default)]
pub struct AppPlacement {
    /// Per-module placements, in module-id order.
    pub modules: BTreeMap<ModuleId, ModulePlacement>,
    /// What the scheduler committed against the tenant's quota for this
    /// placement (empty without a gate); the holder releases it.
    pub admitted_demand: ResourceVector,
}

impl AppPlacement {
    /// Total startup latency across modules (they start in parallel per
    /// DAG level, but the sum is the provider-side work metric).
    pub fn total_startup_us(&self) -> u64 {
        self.modules.values().map(|m| m.startup_us).sum()
    }

    /// Warm-start fraction.
    pub fn warm_fraction(&self) -> f64 {
        if self.modules.is_empty() {
            return 0.0;
        }
        let warm = self
            .modules
            .values()
            .filter(|m| m.start_mode == StartMode::Warm)
            .count();
        warm as f64 / self.modules.len() as f64
    }

    /// Total units allocated, per kind.
    pub fn allocated_vector(&self) -> ResourceVector {
        let mut v = ResourceVector::new();
        for m in self.modules.values() {
            for a in &m.allocations {
                let cur = v.get(a.kind);
                v.set(a.kind, cur + a.total_units());
            }
        }
        v
    }
}

/// Scheduling failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The spec failed [`ResolvedApp::new`], or lacks the module named.
    Spec(SpecError),
    /// A module's resources could not be allocated.
    Alloc {
        /// The module that failed.
        module: String,
        /// The underlying allocator error.
        cause: AllocError,
    },
    /// Replicas could not be spread over distinct devices.
    NotEnoughFailureIndependence {
        /// The data module.
        module: String,
        /// Replicas requested.
        requested: u32,
        /// Distinct devices available.
        distinct_devices: usize,
    },
    /// The tenant economics quota gate refused admission (quota
    /// exhausted or account suspended) before placement began.
    QuotaDenied {
        /// The application that was refused.
        app: String,
        /// The gate's verdict (failing dimension or suspension).
        verdict: AdmissionVerdict,
    },
    /// A resize found the module's slice lost to a failure of its device
    /// since it was carved; the module must be healed, not resized.
    SliceLost {
        /// The module whose allocation is stale.
        module: String,
        /// The device that failed under it.
        device: DeviceId,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::Spec(e) => write!(f, "spec error: {e}"),
            SchedError::Alloc { module, cause } => {
                write!(f, "allocation failed for `{module}`: {cause}")
            }
            SchedError::NotEnoughFailureIndependence {
                module,
                requested,
                distinct_devices,
            } => write!(
                f,
                "data module `{module}` wants {requested} replicas but only \
                 {distinct_devices} distinct devices exist"
            ),
            SchedError::QuotaDenied { app, verdict } => match verdict {
                AdmissionVerdict::QuotaExceeded {
                    kind,
                    requested,
                    in_use,
                    limit,
                } => write!(
                    f,
                    "app `{app}` denied: {} quota exceeded \
                     (in use {in_use} + requested {requested} > limit {limit})",
                    kind.name()
                ),
                AdmissionVerdict::Suspended => {
                    write!(f, "app `{app}` denied: tenant account is suspended")
                }
                AdmissionVerdict::Admit => write!(f, "app `{app}` denied (spurious)"),
            },
            SchedError::SliceLost { module, device } => write!(
                f,
                "`{module}`'s slice on {device} was lost to a device failure"
            ),
        }
    }
}

impl std::error::Error for SchedError {}

impl From<SpecError> for SchedError {
    fn from(e: SpecError) -> Self {
        SchedError::Spec(e)
    }
}

/// Scheduler options.
pub struct SchedOptions {
    /// Tenant tag used for allocation ownership.
    pub tenant: String,
    /// Honour colocate/affinity hints (experiment E13 toggles this).
    pub use_locality_hints: bool,
    /// Warm-pool configuration (experiment E6 sweeps this).
    pub warm_pool: WarmPoolConfig,
    /// Candidate-ranking policy (native or tenant extension).
    pub policy: Box<dyn PlacementPolicy>,
    /// Tenant economics admission gate. `None` (the default) is the
    /// ungated seed path; the same handle is shared with the control
    /// plane, which drives renewals and the suspend lifecycle.
    pub quota_gate: Option<SharedQuotaGate>,
}

impl Default for SchedOptions {
    fn default() -> Self {
        Self {
            tenant: "tenant".to_string(),
            use_locality_hints: true,
            warm_pool: WarmPoolConfig::disabled(),
            policy: Box::new(LocalityPolicy),
            quota_gate: None,
        }
    }
}

/// Disjoint-set structure for colocation groups.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// The UDC runtime scheduler.
pub struct Scheduler {
    options: SchedOptions,
    warm_pool: WarmPool,
    obs: Telemetry,
    /// Scratch candidate list, refilled by every task placement that
    /// walks the pool (a scanning policy, or the audit of an enabled
    /// hub) and kept only so that walk allocates nothing after the
    /// first.
    cands: Vec<PolicyCtx>,
    /// The classes of the warm instances the placement in progress
    /// drew: a refused app hands them back.
    drawn: Vec<EnvKind>,
}

impl Scheduler {
    /// Creates a scheduler with the given options.
    pub fn new(options: SchedOptions) -> Self {
        let warm_pool = WarmPool::new(options.warm_pool.clone());
        Self {
            options,
            warm_pool,
            obs: Telemetry::disabled(),
            cands: Vec::new(),
            drawn: Vec::new(),
        }
    }

    /// Installs the observability hub on the scheduler and its warm
    /// pool: placements become spans, events, and latency histograms.
    pub fn set_observer(&mut self, obs: Telemetry) {
        self.warm_pool.set_observer(obs.clone());
        self.obs = obs;
    }

    /// The warm pool (for stats and refills between apps).
    pub fn warm_pool_mut(&mut self) -> &mut WarmPool {
        &mut self.warm_pool
    }

    /// The active placement policy.
    pub fn policy_name(&self) -> &str {
        self.options.policy.name()
    }

    /// Installs (or clears) the shared economics admission gate after
    /// construction — the control plane attaches economics to an
    /// already-built scheduler this way.
    pub fn set_quota_gate(&mut self, gate: Option<SharedQuotaGate>) {
        self.options.quota_gate = gate;
    }

    /// [`Scheduler::place`] for a caller holding a raw spec: takes it
    /// through the front door under strictest-wins, untraced.
    pub fn place_app(
        &mut self,
        dc: &mut Datacenter,
        app: &AppSpec,
    ) -> Result<AppPlacement, SchedError> {
        let app = ResolvedApp::new(app, ConflictPolicy::StrictestWins)?;
        self.place(dc, &app, None)
    }

    /// Places an application: data modules first (so tasks can follow
    /// their affinity hints), then tasks in dependency order. Given a
    /// trace context, the `sched.place` span and everything beneath it
    /// join the caller's trace: one `Cloud::submit`, one span DAG.
    pub fn place(
        &mut self,
        dc: &mut Datacenter,
        app: &ResolvedApp,
        ctx: Option<TraceCtx>,
    ) -> Result<AppPlacement, SchedError> {
        let span = self.obs.span_opt(ctx.as_ref(), "sched.place");
        let pctx = span.ctx().or(ctx);
        // Economic admission runs before any placement work: a tenant
        // over quota (or suspended) is refused up front, with one audit
        // record per module so `udc-trace --explain` answers "why is my
        // module not running" for economic denials exactly like
        // capacity ones. Usage is committed only after placement
        // succeeds (see below), so a failed placement never leaks quota.
        let gate = self.options.quota_gate.clone();
        let admission = gate.map(|gate| (gate, demand_of_app(app)));
        if let Some((gate, demand)) = &admission {
            let verdict = gate
                .lock()
                .expect("quota gate poisoned")
                .admit(&self.options.tenant, demand);
            if !verdict.is_admit() {
                let (reason, detail) = match &verdict {
                    AdmissionVerdict::QuotaExceeded {
                        kind,
                        requested,
                        in_use,
                        limit,
                    } => (
                        ReasonCode::QuotaExceeded,
                        format!(
                            "{}: in use {in_use} + requested {requested} > limit {limit}",
                            kind.name()
                        ),
                    ),
                    AdmissionVerdict::Suspended => (
                        ReasonCode::Suspended,
                        "tenant account suspended; pay to reinstate".to_string(),
                    ),
                    AdmissionVerdict::Admit => unreachable!("checked above"),
                };
                for id in app.modules.keys() {
                    self.obs.decide(Decision {
                        ctx: pctx,
                        stage: "sched.admit",
                        module: id.as_str(),
                        candidate: self.options.tenant.as_str(),
                        accepted: false,
                        reason,
                        score: None,
                        detail: detail.clone(),
                    });
                }
                return Err(SchedError::QuotaDenied {
                    app: app.name.to_string(),
                    verdict,
                });
            }
        }
        if self.obs.is_enabled() {
            // A conflict that got this far was resolved strictest-wins:
            // the other policy refuses the app at the front door.
            for c in &app.conflicts().conflicts {
                self.obs.event(
                    EventKind::ConflictResolution,
                    Labels::tenant(self.options.tenant.as_str()),
                    &[
                        ("app", FieldValue::from(app.name.as_str())),
                        ("conflict", FieldValue::from(c.to_string())),
                        ("policy", FieldValue::from("StrictestWins")),
                    ],
                );
            }
        }
        let colocate_rack = self.colocation_racks(app);

        self.drawn.clear();
        let mut placement = AppPlacement::default();
        // Data modules first (they are sources of affinity).
        let of_kind = |kind| {
            app.order()
                .iter()
                .filter(move |id| app.module(id).map(|m| m.kind) == Some(kind))
        };
        let data_first = of_kind(ModuleKind::Data).chain(of_kind(ModuleKind::Task));

        for id in data_first {
            let module = app.module(id).expect("ordered ids exist");
            let mspan = self.obs.span_opt(pctx.as_ref(), "sched.place_module");
            let mctx = mspan.ctx().or(pctx);
            let placed = match module.kind {
                ModuleKind::Data => self.place_data(dc, module, &[], mctx),
                ModuleKind::Task => {
                    self.place_task(dc, app, module, &placement, &colocate_rack, &[], mctx)
                }
            };
            // A refused app holds nothing: hand back the capacity and the
            // warm instances the earlier modules took.
            let placed = placed.inspect_err(|_| {
                self.release_app(dc, &placement);
                for kind in self.drawn.drain(..) {
                    self.warm_pool.restore(kind);
                }
            })?;
            mspan.exit();
            placement.modules.insert(id.clone(), placed);
        }
        if self.obs.is_enabled() {
            let tenant = self.options.tenant.as_str();
            for (id, m) in &placement.modules {
                let labels = Labels::module(tenant, id.as_str());
                self.obs
                    .observe("sched.module_startup_us", labels.clone(), m.startup_us);
                self.obs.event(
                    EventKind::Placement,
                    labels,
                    &[
                        ("device", FieldValue::from(m.primary_device.0)),
                        ("kind", FieldValue::from(m.placed_kind.name())),
                        ("warm", FieldValue::from(m.start_mode == StartMode::Warm)),
                        ("startup_us", FieldValue::from(m.startup_us)),
                    ],
                );
            }
            self.obs.observe(
                "sched.place.startup_us",
                Labels::tenant(tenant),
                placement.total_startup_us(),
            );
            // Bin-pack fill after this placement, in basis points.
            self.obs.gauge_set(
                "sched.binpack.fill_bp",
                Labels::none(),
                (dc.compute_utilization() * 10_000.0).round() as i64,
            );
            // Placement carves pools directly, bypassing the vector
            // allocator's watermark updates — refresh them here.
            dc.observe_pool_levels();
            // Extension-VM execution counters from the ranking policy
            // (compiled-backend vs interpreter split, fusion count).
            let stats = self.options.policy.take_exec_stats();
            if !stats.is_empty() {
                self.obs
                    .incr("extvm.compiled_runs", Labels::none(), stats.compiled_runs);
                self.obs
                    .incr("extvm.interp_runs", Labels::none(), stats.interp_runs);
                self.obs
                    .incr("extvm.fused_ops", Labels::none(), stats.fused_ops);
            }
        }
        // Placement held: the admission estimate now counts against the
        // tenant's quota until the control plane releases it at
        // teardown.
        if let Some((gate, demand)) = admission {
            gate.lock()
                .expect("quota gate poisoned")
                .commit(&self.options.tenant, &demand);
            placement.admitted_demand = demand;
        }
        Ok(placement)
    }

    /// Re-places a single module of a placed app — the repair loop's
    /// *re-place* step (§3.4). `exclude` lists devices
    /// that must not host the module (typically the currently-crashed
    /// set): excluded candidates are rejected with
    /// [`ReasonCode::CrashExcluded`] audit records, and replica
    /// anti-affinity applies exactly as in the original placement, so a
    /// module never heals onto the failure domain it must avoid.
    ///
    /// `so_far` is the surviving placement (used for locality hints).
    pub fn replace_module(
        &mut self,
        dc: &mut Datacenter,
        app: &ResolvedApp,
        module_id: &ModuleId,
        so_far: &AppPlacement,
        exclude: &[DeviceId],
        ctx: Option<TraceCtx>,
    ) -> Result<ModulePlacement, SchedError> {
        let module = app
            .module(module_id)
            .ok_or_else(|| SchedError::Spec(SpecError::UnknownModule(module_id.to_string())))?;
        let span = self.obs.span_opt(ctx.as_ref(), "sched.replace_module");
        let mctx = span.ctx().or(ctx);
        self.drawn.clear();
        let colocate_rack = self.colocation_racks(app);
        let placed = match module.kind {
            ModuleKind::Data => self.place_data(dc, module, exclude, mctx),
            ModuleKind::Task => {
                self.place_task(dc, app, module, so_far, &colocate_rack, exclude, mctx)
            }
        }?;
        if self.obs.is_enabled() {
            self.obs.event(
                EventKind::Placement,
                Labels::module(self.options.tenant.as_str(), module_id.as_str()),
                &[
                    ("device", FieldValue::from(placed.primary_device.0)),
                    ("kind", FieldValue::from(placed.placed_kind.name())),
                    ("action", FieldValue::from("replace")),
                    ("excluded_devices", FieldValue::from(exclude.len())),
                ],
            );
        }
        Ok(placed)
    }

    /// Releases every allocation of a placement.
    pub fn release_app(&mut self, dc: &mut Datacenter, placement: &AppPlacement) {
        for m in placement.modules.values() {
            for a in &m.allocations {
                dc.release(a);
            }
        }
    }

    /// Precomputed colocation-group keys: module -> group leader index.
    fn colocation_racks(&self, app: &AppSpec) -> BTreeMap<ModuleId, usize> {
        let ids: Vec<ModuleId> = app.modules.keys().cloned().collect();
        let index: BTreeMap<&ModuleId, usize> =
            ids.iter().enumerate().map(|(i, id)| (id, i)).collect();
        let mut dsu = Dsu::new(ids.len());
        if self.options.use_locality_hints {
            for h in &app.hints {
                if let udc_spec::LocalityHint::Colocate(a, b) = h {
                    if let (Some(&ia), Some(&ib)) = (index.get(a), index.get(b)) {
                        dsu.union(ia, ib);
                    }
                }
            }
        }
        ids.iter()
            .enumerate()
            .map(|(i, id)| (id.clone(), dsu.find(i)))
            .collect()
    }

    /// Chooses the compute kind for a task from demand, candidates and
    /// goal (§3.2's "if users only provide a performance/cost goal, then
    /// UDC will select resources based on load and available hardware").
    fn choose_compute_kind(&self, dc: &Datacenter, module: &udc_spec::ModuleSpec) -> ResourceKind {
        // Explicit compute demand wins.
        for (kind, _) in module.resource.demand.iter() {
            if kind.is_compute() {
                return kind;
            }
        }
        let candidates: Vec<ResourceKind> = if module.resource.candidates.is_empty() {
            vec![
                ResourceKind::Cpu,
                ResourceKind::Gpu,
                ResourceKind::Fpga,
                ResourceKind::Soc,
            ]
        } else {
            module.resource.candidates.clone()
        };
        let available = |k: &ResourceKind| {
            dc.pool(*k)
                .map(|p| p.total_capacity() > p.total_used())
                .unwrap_or(false)
        };
        match module.resource.goal {
            Some(Goal::Fastest) => candidates
                .iter()
                .filter(|k| available(k))
                .max_by(|a, b| {
                    let pa = udc_hal::PerfProfile::default_for(**a).work_units_per_sec;
                    let pb = udc_hal::PerfProfile::default_for(**b).work_units_per_sec;
                    pa.partial_cmp(&pb).expect("profiles are finite")
                })
                .copied()
                .unwrap_or(ResourceKind::Cpu),
            Some(Goal::Cheapest) | None => candidates
                .iter()
                .filter(|k| available(k))
                .min_by(|a, b| {
                    // Cost per delivered work unit.
                    let cost = |k: ResourceKind| {
                        let p = udc_hal::PerfProfile::default_for(k);
                        p.micro_dollars_per_unit_hour as f64 / p.work_units_per_sec
                    };
                    cost(**a).partial_cmp(&cost(**b)).expect("finite")
                })
                .copied()
                .unwrap_or(ResourceKind::Cpu),
        }
    }

    /// Chooses the storage kind for a data module.
    fn choose_storage_kind(&self, dc: &Datacenter, module: &udc_spec::ModuleSpec) -> ResourceKind {
        for (kind, _) in module.resource.demand.iter() {
            if !kind.is_compute() {
                return kind;
            }
        }
        let exists = |k: ResourceKind| dc.pool(k).map(|p| !p.is_empty()).unwrap_or(false);
        match module.resource.goal {
            Some(Goal::Fastest) if exists(ResourceKind::Dram) => ResourceKind::Dram,
            Some(Goal::Cheapest) if exists(ResourceKind::Hdd) => ResourceKind::Hdd,
            _ if exists(ResourceKind::Ssd) => ResourceKind::Ssd,
            _ => ResourceKind::Dram,
        }
    }

    fn place_data(
        &mut self,
        dc: &mut Datacenter,
        module: &udc_spec::ModuleSpec,
        exclude: &[DeviceId],
        ctx: Option<TraceCtx>,
    ) -> Result<ModulePlacement, SchedError> {
        let kind = self.choose_storage_kind(dc, module);
        // Capacity: explicit demand, else bytes rounded up to MiB.
        let explicit = module.resource.demand.get(kind);
        let units = if explicit > 0 {
            explicit
        } else {
            module.bytes.unwrap_or(1 << 20).div_ceil(1 << 20).max(1)
        };
        let replicas = module.dist.replication;
        let mut allocations = Vec::new();
        let mut replica_devices: Vec<DeviceId> = Vec::new();
        for _ in 0..replicas {
            // Replica anti-affinity plus crash exclusion: a healing
            // replica must avoid both its surviving siblings and every
            // currently-dead device.
            let mut avoid = replica_devices.clone();
            avoid.extend_from_slice(exclude);
            let constraints = AllocConstraints {
                single_device: true,
                avoid,
                ..Default::default()
            };
            let pool = dc.pool_mut(kind).ok_or(SchedError::Alloc {
                module: module.id.to_string(),
                cause: AllocError::Insufficient {
                    kind,
                    requested: units,
                    available: 0,
                },
            })?;
            match self.allocate_audited(pool, &module.id, units, &constraints, ctx) {
                Ok(a) => {
                    replica_devices.push(a.slices[0].device);
                    allocations.push(a);
                }
                Err(_) => {
                    // Roll back and report missing failure independence
                    // or capacity.
                    for a in &allocations {
                        dc.release(a);
                    }
                    let distinct = dc.pool(kind).map(|p| p.len()).unwrap_or(0);
                    return if (replicas as usize) > distinct {
                        if self.obs.is_enabled() {
                            self.obs.decide(Decision {
                                ctx,
                                stage: "sched.place_data",
                                module: module.id.as_str(),
                                candidate: "-",
                                accepted: false,
                                reason: ReasonCode::FailureDomain,
                                score: None,
                                detail: format!("replicas={replicas} distinct_devices={distinct}"),
                            });
                        }
                        Err(SchedError::NotEnoughFailureIndependence {
                            module: module.id.to_string(),
                            requested: replicas,
                            distinct_devices: distinct,
                        })
                    } else {
                        Err(SchedError::Alloc {
                            module: module.id.to_string(),
                            cause: AllocError::Insufficient {
                                kind,
                                requested: units,
                                available: dc
                                    .pool(kind)
                                    .map(|p| p.total_capacity() - p.total_used())
                                    .unwrap_or(0),
                            },
                        })
                    };
                }
            }
        }
        // Data modules live in storage service environments; isolation
        // maps to the storage-side env (no TEE on storage devices).
        let env = select_env(&module.exec_env, kind).expect("selection is total");
        let (start_mode, startup_us) = self.start_env(env, ctx);
        Ok(ModulePlacement {
            module: module.id.clone(),
            primary_device: replica_devices[0],
            replica_devices,
            allocations,
            env,
            start_mode,
            startup_us,
            est_exec_us: None,
            placed_kind: kind,
            epoch: 0,
        })
    }

    #[allow(clippy::too_many_arguments)] // internal: placement context + crash-exclusion set
    fn place_task(
        &mut self,
        dc: &mut Datacenter,
        app: &AppSpec,
        module: &udc_spec::ModuleSpec,
        so_far: &AppPlacement,
        colocate_group: &BTreeMap<ModuleId, usize>,
        exclude: &[DeviceId],
        ctx: Option<TraceCtx>,
    ) -> Result<ModulePlacement, SchedError> {
        let kind = self.choose_compute_kind(dc, module);
        let explicit = module.resource.demand.get(kind);
        let units = if explicit > 0 { explicit } else { 1 };

        // Locality: prefer the rack of an affinity data module, else the
        // rack where a colocation-group member already landed.
        let preferred_rack = if self.options.use_locality_hints {
            self.preferred_rack_for(app, module, so_far, colocate_group, dc)
        } else {
            None
        };

        let env = select_env(&module.exec_env, kind).expect("selection is total");

        // Where the module would go if it may share a device. For every
        // module that may, this is the decision; for a single-tenant one
        // it is only what the audit reports, and the allocator finds a
        // vacant device itself below.
        let mut constraints = AllocConstraints {
            exclusive: false,
            prefer_rack: preferred_rack,
            single_device: true,
            require_device: None,
            avoid: exclude.to_vec(),
        };
        let tenant = self.options.tenant.as_str();
        let pool_ordered = self.options.policy.ranks_in_pool_order();
        // Only a scanning policy and the audit below walk the pool's
        // devices: in device-id order (`candidates_for`), which is what
        // makes a scan's tie-breaks reproducible at any harness thread
        // count.
        let cands: &[PolicyCtx] = if self.obs.is_enabled() || !pool_ordered {
            fill_candidates(&mut self.cands, dc, kind, tenant, units, preferred_rack);
            &self.cands
        } else {
            &[]
        };
        // The winner and its score; the score only reaches audit records.
        let best: Option<(i64, DeviceId)> = if pool_ordered {
            // The policy ranks in the pool's best-fit order, so the pool
            // index names its winner without scoring anything. The audit
            // wants the winner's score too: `cands` is sorted by id, and
            // empty (no score call) when nothing audits.
            let winner = dc
                .pool(kind)
                .and_then(|p| p.best_fit(tenant, units, &constraints));
            winner.map(|d| {
                let score = cands
                    .binary_search_by_key(&d, |c| c.device)
                    .ok()
                    .and_then(|i| self.options.policy.score(&cands[i]));
                (score.unwrap_or(0), d)
            })
        } else {
            let mut best: Option<(i64, DeviceId)> = None;
            for c in cands {
                if exclude.contains(&c.device) {
                    continue;
                }
                if let Some(score) = self.options.policy.score(c) {
                    if best.is_none_or(|(s, d)| score > s || (score == s && c.device < d)) {
                        best = Some((score, c.device));
                    }
                }
            }
            best
        };
        if self.obs.is_enabled() {
            // Audit pass: one decision record per candidate, classifying
            // why each lost to the winner (crash exclusion, capacity,
            // locality, policy score). The one place that walks every
            // candidate whatever the policy — it is the explain feature,
            // and runs only with an enabled hub.
            for c in cands {
                let excluded = exclude.contains(&c.device);
                let score = if excluded {
                    None
                } else {
                    self.options.policy.score(c)
                };
                let accepted = score.is_some() && best.map(|(_, d)| d) == Some(c.device);
                let reason = if accepted {
                    ReasonCode::Accepted
                } else if excluded {
                    ReasonCode::CrashExcluded
                } else if score.is_none() {
                    ReasonCode::Policy
                } else if c.free_units < c.demand {
                    ReasonCode::Capacity
                } else if preferred_rack.is_some_and(|r| r != c.rack) {
                    ReasonCode::Locality
                } else {
                    ReasonCode::Policy
                };
                let detail = match reason {
                    ReasonCode::Accepted => format!("won with score {}", score.unwrap_or(0)),
                    ReasonCode::CrashExcluded => {
                        "device crashed; excluded from healing".to_string()
                    }
                    ReasonCode::Policy if score.is_none() => "policy declined".to_string(),
                    ReasonCode::Capacity => {
                        format!("free={} needed={}", c.free_units, c.demand)
                    }
                    ReasonCode::Locality => format!(
                        "rack={} preferred={}",
                        c.rack,
                        preferred_rack.unwrap_or(u32::MAX)
                    ),
                    _ => format!(
                        "scored {} below winner {}",
                        score.unwrap_or(0),
                        best.map(|(s, _)| s).unwrap_or(0)
                    ),
                };
                self.obs.decide(Decision {
                    ctx,
                    stage: "sched.place_task",
                    module: module.id.as_str(),
                    candidate: &format!("dev{}", c.device.0),
                    accepted,
                    reason,
                    score,
                    detail,
                });
            }
        }
        constraints.exclusive = env.single_tenant;
        // Exclusive placement overrides the pick: the policy ranked by
        // free space, but exclusivity needs a vacant device, which the
        // allocator finds itself.
        let pinned = best.filter(|_| !env.single_tenant).map(|(_, d)| d);
        constraints.require_device = pinned;
        let pool = dc.pool_mut(kind).ok_or(SchedError::Alloc {
            module: module.id.to_string(),
            cause: AllocError::Insufficient {
                kind,
                requested: units,
                available: 0,
            },
        })?;
        let alloc = self
            .allocate_audited(pool, &module.id, units, &constraints, ctx)
            .or_else(|refused| {
                if pinned.is_none() {
                    // Nothing was pinned: the index itself said no.
                    return Err(refused);
                }
                // A scanning policy may pick a device the allocator's own
                // filters reject: let the allocator choose instead.
                constraints.require_device = None;
                self.allocate_audited(pool, &module.id, units, &constraints, ctx)
            })
            .map_err(|cause| SchedError::Alloc {
                module: module.id.to_string(),
                cause,
            })?;
        let device = alloc.slices[0].device;

        // Side-allocations for every other demanded kind (memory,
        // storage, and secondary compute — a module may need GPU *and*
        // orchestration CPUs, §1's example).
        let mut allocations = vec![alloc];
        for (mem_kind, mem_units) in module.resource.demand.iter() {
            if mem_kind == kind {
                continue;
            }
            let mem_constraints = AllocConstraints {
                prefer_rack: dc.fabric().rack_of(device),
                avoid: exclude.to_vec(),
                ..Default::default()
            };
            match dc
                .pool_mut(mem_kind)
                .map(|p| p.allocate(&self.options.tenant, mem_units, &mem_constraints))
            {
                Some(Ok(a)) => allocations.push(a),
                Some(Err(cause)) => {
                    for a in &allocations {
                        dc.release(a);
                    }
                    return Err(SchedError::Alloc {
                        module: module.id.to_string(),
                        cause,
                    });
                }
                None => {
                    for a in &allocations {
                        dc.release(a);
                    }
                    return Err(SchedError::Alloc {
                        module: module.id.to_string(),
                        cause: AllocError::Insufficient {
                            kind: mem_kind,
                            requested: mem_units,
                            available: 0,
                        },
                    });
                }
            }
        }

        // Hot-standby replicas for replicated tasks (Table 1's A4:
        // "Rep 2x"): extra allocations on distinct devices so the
        // domain can fail over.
        let mut replica_devices = vec![device];
        for _ in 1..module.dist.replication {
            let mut avoid = replica_devices.clone();
            avoid.extend_from_slice(exclude);
            let standby_constraints = AllocConstraints {
                exclusive: env.single_tenant,
                prefer_rack: preferred_rack,
                single_device: true,
                require_device: None,
                avoid,
            };
            match dc
                .pool_mut(kind)
                .map(|p| self.allocate_audited(p, &module.id, units, &standby_constraints, ctx))
            {
                Some(Ok(a)) => {
                    replica_devices.push(a.slices[0].device);
                    allocations.push(a);
                }
                _ => {
                    for a in &allocations {
                        dc.release(a);
                    }
                    return Err(SchedError::NotEnoughFailureIndependence {
                        module: module.id.to_string(),
                        requested: module.dist.replication,
                        distinct_devices: dc.pool(kind).map(|p| p.len()).unwrap_or(0),
                    });
                }
            }
        }

        let (start_mode, startup_us) = self.start_env(env, ctx);
        let est_exec_us = module.work_units.map(|w| {
            let base = dc
                .device(device)
                .map(|d| d.exec_time_us(w, units))
                .unwrap_or(u64::MAX);
            (base as f64 * env.kind.cost_model().runtime_overhead).ceil() as u64
        });

        Ok(ModulePlacement {
            module: module.id.clone(),
            primary_device: device,
            replica_devices,
            allocations,
            env,
            start_mode,
            startup_us,
            est_exec_us,
            placed_kind: kind,
            epoch: 0,
        })
    }

    fn preferred_rack_for(
        &self,
        app: &AppSpec,
        module: &udc_spec::ModuleSpec,
        so_far: &AppPlacement,
        colocate_group: &BTreeMap<ModuleId, usize>,
        dc: &Datacenter,
    ) -> Option<u32> {
        // Affinity to a data module placed earlier.
        for h in &app.hints {
            if let udc_spec::LocalityHint::Affinity { task, data } = h {
                if task == &module.id {
                    if let Some(p) = so_far.modules.get(data) {
                        if let Some(rack) = dc.fabric().rack_of(p.primary_device) {
                            return Some(rack);
                        }
                    }
                }
            }
        }
        // Same rack as an already-placed colocation-group member.
        let my_group = colocate_group.get(&module.id)?;
        for (other, group) in colocate_group {
            if group == my_group && other != &module.id {
                if let Some(p) = so_far.modules.get(other) {
                    return dc.fabric().rack_of(p.primary_device);
                }
            }
        }
        None
    }

    /// Resizes a placed module's primary allocation to `new_units`
    /// in place (§3.2 fine-tuning: "enlarging or shrinking the amount of
    /// resources for a module"). Grows on the same device when it has
    /// headroom; otherwise falls back to [`Scheduler::migrate`].
    ///
    /// Returns the device the module ends up on. A slice its device lost
    /// in a failure (see [`udc_hal::Slice::lost_on`]) is refused with
    /// [`SchedError::SliceLost`] and no device is touched: what the
    /// tenant holds there now belongs to later allocations.
    pub fn resize(
        &mut self,
        dc: &mut Datacenter,
        placement: &mut ModulePlacement,
        new_units: u64,
    ) -> Result<DeviceId, SchedError> {
        let kind = placement.placed_kind;
        let device = placement.primary_device;
        let old_units = placement.allocations[0].total_units();
        if new_units == old_units {
            return Ok(device);
        }
        let slice = &placement.allocations[0].slices[0];
        if dc
            .pool(kind)
            .and_then(|p| p.device(slice.device))
            .is_some_and(|d| slice.lost_on(d))
        {
            return Err(SchedError::SliceLost {
                module: placement.module.to_string(),
                device: slice.device,
            });
        }
        if new_units < old_units {
            // Shrink: release the difference on the same device.
            let delta = old_units - new_units;
            if let Some(pool) = dc.pool_mut(kind) {
                if let Some(mut d) = pool.device_mut(device) {
                    d.release(&self.options.tenant, delta);
                }
            }
            placement.allocations[0].slices[0].units = new_units;
            return Ok(device);
        }
        // Grow: try to extend on the same device first.
        let delta = new_units - old_units;
        let exclusive = placement.allocations[0].slices[0].exclusive;
        let grew = dc
            .pool_mut(kind)
            .and_then(|p| p.device_mut(device))
            .map(|mut d| d.allocate(&self.options.tenant, delta, exclusive))
            .unwrap_or(false);
        if grew {
            placement.allocations[0].slices[0].units = new_units;
            return Ok(device);
        }
        self.migrate(dc, placement, new_units)
    }

    /// Migrates a module to a device that can host `new_units`
    /// ("migrating modules across hardware units", §3.2). Allocates at
    /// the destination before releasing the source (make-before-break),
    /// and pays the module's state-transfer cost on the fabric.
    pub fn migrate(
        &mut self,
        dc: &mut Datacenter,
        placement: &mut ModulePlacement,
        new_units: u64,
    ) -> Result<DeviceId, SchedError> {
        let kind = placement.placed_kind;
        let old_device = placement.primary_device;
        let exclusive = placement.allocations[0].slices[0].exclusive;
        let constraints = AllocConstraints {
            exclusive,
            prefer_rack: dc.fabric().rack_of(old_device),
            single_device: true,
            require_device: None,
            avoid: vec![old_device],
        };
        let new_alloc = dc
            .pool_mut(kind)
            .ok_or(SchedError::Alloc {
                module: placement.module.to_string(),
                cause: AllocError::Insufficient {
                    kind,
                    requested: new_units,
                    available: 0,
                },
            })?
            .allocate(&self.options.tenant, new_units, &constraints)
            .map_err(|cause| SchedError::Alloc {
                module: placement.module.to_string(),
                cause,
            })?;
        let new_device = new_alloc.slices[0].device;
        // Release the source only after the destination is secured.
        let old_alloc = std::mem::replace(&mut placement.allocations[0], new_alloc);
        dc.release(&old_alloc);
        placement.primary_device = new_device;
        if let Some(slot) = placement
            .replica_devices
            .iter_mut()
            .find(|d| **d == old_device)
        {
            *slot = new_device;
        }
        Ok(new_device)
    }

    fn start_env(&mut self, env: EnvironmentPlan, ctx: Option<TraceCtx>) -> (StartMode, u64) {
        let got = {
            let _span = self.obs.span_opt(ctx.as_ref(), "isolate.acquire");
            self.warm_pool.acquire_detailed(env.kind)
        };
        let mode = if got.warm {
            self.drawn.push(env.kind);
            StartMode::Warm
        } else {
            StartMode::Cold
        };
        (mode, got.latency_us)
    }

    /// [`ResourcePool::allocate`] as the audit sees it: a
    /// `hal.pool.allocate` span under `ctx`, then one `hal.alloc`
    /// decision record per slice granted, or one naming why the pool
    /// refused. With a disabled hub this is exactly `allocate`.
    fn allocate_audited(
        &self,
        pool: &mut ResourcePool,
        module: &ModuleId,
        units: u64,
        constraints: &AllocConstraints,
        ctx: Option<TraceCtx>,
    ) -> Result<Allocation, AllocError> {
        let (obs, tenant) = (&self.obs, self.options.tenant.as_str());
        if !obs.is_enabled() {
            return pool.allocate(tenant, units, constraints);
        }
        let span = obs.span_opt(ctx.as_ref(), "hal.pool.allocate");
        let ctx = span.ctx().or(ctx);
        let result = pool.allocate(tenant, units, constraints);
        let decide = |candidate: &str, accepted, reason, detail| {
            obs.decide(Decision {
                ctx,
                stage: "hal.alloc",
                module: module.as_str(),
                candidate,
                accepted,
                reason,
                score: None,
                detail,
            })
        };
        match &result {
            Ok(a) => {
                for s in &a.slices {
                    let device = format!("dev{}", s.device.0);
                    let exclusive = if s.exclusive { " exclusive" } else { "" };
                    let detail = format!("kind={} units={}{exclusive}", a.kind, s.units);
                    decide(&device, true, ReasonCode::Accepted, detail);
                }
            }
            Err(e) => {
                let (reason, detail) = match e {
                    AllocError::Insufficient {
                        requested,
                        available,
                        ..
                    } => (
                        ReasonCode::Capacity,
                        format!("requested={requested} available={available}"),
                    ),
                    AllocError::ZeroRequest => {
                        (ReasonCode::Policy, "zero-unit request".to_string())
                    }
                    AllocError::NoExclusiveDevice { requested, .. } => (
                        ReasonCode::Exclusivity,
                        format!("no vacant device fits {requested} units single-tenant"),
                    ),
                };
                decide("-", false, reason, detail);
            }
        }
        result
    }
}

/// Computes the total data-movement cost of a placement: for every
/// access edge, the bytes of the data module cross the fabric between
/// the task's device and the data's primary device. Returns
/// (total transfer microseconds, total bytes moved cross-rack).
pub fn data_movement(dc: &Datacenter, app: &AppSpec, placement: &AppPlacement) -> (u64, u64) {
    let before = dc.fabric().traffic_bytes();
    let mut total_us = 0u64;
    for e in &app.edges {
        if e.kind != udc_spec::EdgeKind::Access {
            continue;
        }
        let (task_id, data_id) = {
            let from_is_data = app.module(&e.from).map(|m| m.kind) == Some(ModuleKind::Data);
            if from_is_data {
                (&e.to, &e.from)
            } else {
                (&e.from, &e.to)
            }
        };
        let (Some(tp), Some(dp)) = (
            placement.modules.get(task_id),
            placement.modules.get(data_id),
        ) else {
            continue;
        };
        let bytes = app.module(data_id).and_then(|m| m.bytes).unwrap_or(1 << 20);
        total_us += dc
            .fabric()
            .transfer_us(tp.primary_device, dp.primary_device, bytes);
    }
    let after = dc.fabric().traffic_bytes();
    (total_us, after.1 - before.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use udc_spec::{
        DataSpec, DistributedAspect, EdgeKind, ExecEnvAspect, IsolationLevel, ResourceAspect,
        TaskSpec,
    };

    fn dc() -> Datacenter {
        Datacenter::default()
    }

    fn simple_app() -> AppSpec {
        let mut app = AppSpec::new("t");
        app.add_task(
            TaskSpec::new("A1")
                .with_resource(ResourceAspect::default().with_demand(ResourceKind::Cpu, 4))
                .with_work(100),
        );
        app.add_data(DataSpec::new("S1").with_bytes(16 << 20));
        app.add_edge("A1", "S1", EdgeKind::Access).unwrap();
        app.affinity("A1", "S1").unwrap();
        app
    }

    #[test]
    fn quota_gate_denies_and_audits_then_admits_after_release() {
        use udc_economics::{PlanSpec, QuotaGate};

        let mut gate = QuotaGate::new();
        let plan = PlanSpec {
            // simple_app needs 4 cpu + 16 MiB ssd; cap cpu at 6 so the
            // second copy is refused.
            quota: ResourceVector::new().with(ResourceKind::Cpu, 6),
            ..PlanSpec::unlimited("capped")
        };
        gate.open_account("tenant", plan, 0);
        let shared = udc_economics::shared(gate);
        let mut sched = Scheduler::new(SchedOptions {
            quota_gate: Some(shared.clone()),
            ..Default::default()
        });
        let obs = Telemetry::enabled();
        sched.set_observer(obs.clone());
        let mut dc = dc();

        let first = sched
            .place_app(&mut dc, &simple_app())
            .expect("4 of 6 cpu fits");
        let second = sched.place_app(&mut dc, &simple_app());
        match second {
            Err(SchedError::QuotaDenied { app, verdict }) => {
                assert_eq!(app, "t");
                assert_eq!(
                    verdict,
                    AdmissionVerdict::QuotaExceeded {
                        kind: ResourceKind::Cpu,
                        requested: 4,
                        in_use: 4,
                        limit: 6,
                    }
                );
            }
            other => panic!("expected quota denial, got {other:?}"),
        }
        // One audit record per module of the denied app.
        let denials: Vec<_> = obs
            .decisions()
            .into_iter()
            .filter(|d| d.stage == "sched.admit")
            .collect();
        assert_eq!(denials.len(), 2);
        assert!(denials
            .iter()
            .all(|d| d.reason == ReasonCode::QuotaExceeded && !d.accepted));
        // Releasing the first app's footprint re-opens admission.
        assert_eq!(first.admitted_demand, demand_of_app(&simple_app()));
        shared
            .lock()
            .unwrap()
            .release("tenant", &first.admitted_demand);
        assert!(sched.place_app(&mut dc, &simple_app()).is_ok());
    }

    #[test]
    fn refusal_at_a_later_module_releases_the_earlier_ones() {
        use udc_economics::{PlanSpec, QuotaGate};

        let mut gate = QuotaGate::new();
        gate.open_account("tenant", PlanSpec::unlimited("open"), 0);
        let shared = udc_economics::shared(gate);
        let mut sched = Scheduler::new(SchedOptions {
            quota_gate: Some(shared.clone()),
            ..Default::default()
        });
        let mut dc = dc();
        // A standing app, so the baseline is not all zeros.
        sched.place_app(&mut dc, &simple_app()).unwrap();
        let in_use = |shared: &udc_economics::SharedQuotaGate| {
            shared
                .lock()
                .unwrap()
                .account("tenant")
                .unwrap()
                .in_use
                .clone()
        };
        let (capacity_before, quota_before) = (dc.utilization_report(), in_use(&shared));

        // S1 and A1 place; A2, last in dependency order, cannot.
        let mut app = simple_app();
        app.add_task(
            TaskSpec::new("A2")
                .with_resource(ResourceAspect::default().with_demand(ResourceKind::Gpu, 1 << 40)),
        );
        app.add_edge("A1", "A2", EdgeKind::Dependency).unwrap();
        match sched.place_app(&mut dc, &app) {
            Err(SchedError::Alloc { module, .. }) => assert_eq!(module, "A2"),
            other => panic!("expected A2 to be refused, got {other:?}"),
        }
        assert_eq!(dc.utilization_report(), capacity_before);
        assert_eq!(in_use(&shared), quota_before);
    }

    #[test]
    fn audited_allocations_join_the_callers_trace_with_one_record_per_slice() {
        let mut dc = dc();
        let mut sched = Scheduler::new(SchedOptions::default());
        let obs = Telemetry::enabled();
        sched.set_observer(obs.clone());
        let app = ResolvedApp::new(&simple_app(), ConflictPolicy::StrictestWins).unwrap();
        let root = obs.trace_root("test.root");
        let ctx = root.ctx().expect("enabled root span carries a ctx");
        let placement = sched.place(&mut dc, &app, Some(ctx)).unwrap();
        drop(root);

        // One `hal.pool.allocate` span per allocation and one
        // `isolate.acquire` span per module, all closed, all in the
        // caller's trace.
        let spans = obs.snapshot().spans;
        let named = |name: &str| spans.iter().filter(|s| s.name == name).count();
        let allocations: usize = placement
            .modules
            .values()
            .map(|m| m.allocations.len())
            .sum();
        assert_eq!(named("hal.pool.allocate"), allocations);
        assert_eq!(named("isolate.acquire"), placement.modules.len());
        assert!(spans
            .iter()
            .all(|s| s.trace == Some(ctx.trace_id) && s.end_us.is_some()));

        // One accepted `hal.alloc` record per granted slice, naming the
        // device and the units it holds.
        let mut expected: Vec<(String, String, String)> = Vec::new();
        for m in placement.modules.values() {
            for a in &m.allocations {
                for s in &a.slices {
                    let exclusive = if s.exclusive { " exclusive" } else { "" };
                    expected.push((
                        m.module.to_string(),
                        format!("dev{}", s.device.0),
                        format!("kind={} units={}{exclusive}", a.kind, s.units),
                    ));
                }
            }
        }
        let mut recorded: Vec<(String, String, String)> = obs
            .decisions()
            .iter()
            .filter(|d| d.stage == "hal.alloc")
            .map(|d| {
                assert!(d.accepted && d.reason == ReasonCode::Accepted);
                assert_eq!(d.trace, Some(ctx.trace_id));
                (d.module.clone(), d.candidate.clone(), d.detail.clone())
            })
            .collect();
        expected.sort();
        recorded.sort();
        assert_eq!(recorded, expected);
    }

    #[test]
    fn a_refused_allocation_records_why() {
        let mut app = AppSpec::new("big");
        app.add_task(
            TaskSpec::new("A2")
                .with_resource(ResourceAspect::default().with_demand(ResourceKind::Gpu, 1 << 40)),
        );
        let mut dc = dc();
        let mut sched = Scheduler::new(SchedOptions::default());
        let obs = Telemetry::enabled();
        sched.set_observer(obs.clone());
        let err = sched.place_app(&mut dc, &app).unwrap_err();
        assert!(matches!(err, SchedError::Alloc { ref module, .. } if module == "A2"));
        let refusals: Vec<_> = obs
            .decisions()
            .into_iter()
            .filter(|d| d.stage == "hal.alloc")
            .collect();
        assert!(!refusals.is_empty());
        for d in &refusals {
            assert!(!d.accepted);
            assert_eq!(d.reason, ReasonCode::Capacity);
            assert_eq!((d.module.as_str(), d.candidate.as_str()), ("A2", "-"));
            assert!(
                d.detail
                    .starts_with(&format!("requested={} available=", 1u64 << 40)),
                "{}",
                d.detail
            );
        }
    }

    #[test]
    fn the_hub_does_not_change_where_modules_land() {
        // With the hub off the audit is skipped entirely; on or off, the
        // allocator makes the same choices.
        let devices = |obs: Telemetry| {
            let mut dc = dc();
            let mut sched = Scheduler::new(SchedOptions::default());
            sched.set_observer(obs);
            let placement = sched.place_app(&mut dc, &simple_app()).unwrap();
            placement
                .modules
                .values()
                .flat_map(|m| m.allocations.iter())
                .flat_map(|a| a.slices.iter().map(|s| (s.device, s.units)))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            devices(Telemetry::enabled()),
            devices(Telemetry::disabled())
        );
    }

    #[test]
    fn places_simple_app_exactly() {
        let mut dc = dc();
        let mut sched = Scheduler::new(SchedOptions::default());
        let placement = sched.place_app(&mut dc, &simple_app()).unwrap();
        assert_eq!(placement.modules.len(), 2);
        let a1 = &placement.modules[&ModuleId::from("A1")];
        assert_eq!(a1.placed_kind, ResourceKind::Cpu);
        assert_eq!(a1.allocations[0].total_units(), 4, "exact fit, no rounding");
        let s1 = &placement.modules[&ModuleId::from("S1")];
        assert_eq!(s1.allocations[0].total_units(), 16, "16 MiB on storage");
        assert!(a1.est_exec_us.is_some());
    }

    #[test]
    fn affinity_places_task_near_data() {
        let mut dc = dc();
        let mut sched = Scheduler::new(SchedOptions::default());
        let placement = sched.place_app(&mut dc, &simple_app()).unwrap();
        let a1 = &placement.modules[&ModuleId::from("A1")];
        let s1 = &placement.modules[&ModuleId::from("S1")];
        let ra = dc.fabric().rack_of(a1.primary_device);
        let rs = dc.fabric().rack_of(s1.primary_device);
        assert_eq!(ra, rs, "affinity hint should colocate racks");
    }

    #[test]
    fn hints_off_ignores_affinity_sometimes_cheaper() {
        // With hints off placement still succeeds.
        let mut dc = dc();
        let mut sched = Scheduler::new(SchedOptions {
            use_locality_hints: false,
            ..Default::default()
        });
        assert!(sched.place_app(&mut dc, &simple_app()).is_ok());
    }

    #[test]
    fn colocated_tasks_share_rack() {
        let mut app = AppSpec::new("co");
        app.add_task(
            TaskSpec::new("A1")
                .with_resource(ResourceAspect::default().with_demand(ResourceKind::Cpu, 2)),
        );
        app.add_task(
            TaskSpec::new("A2")
                .with_resource(ResourceAspect::default().with_demand(ResourceKind::Cpu, 2)),
        );
        app.colocate("A1", "A2").unwrap();
        let mut dc = dc();
        let mut sched = Scheduler::new(SchedOptions::default());
        let placement = sched.place_app(&mut dc, &app).unwrap();
        let r1 = dc
            .fabric()
            .rack_of(placement.modules[&ModuleId::from("A1")].primary_device);
        let r2 = dc
            .fabric()
            .rack_of(placement.modules[&ModuleId::from("A2")].primary_device);
        assert_eq!(r1, r2);
    }

    #[test]
    fn replicas_on_distinct_devices() {
        let mut app = AppSpec::new("rep");
        app.add_data(
            DataSpec::new("S1")
                .with_bytes(4 << 20)
                .with_dist(DistributedAspect::default().replication(3)),
        );
        let mut dc = dc();
        let mut sched = Scheduler::new(SchedOptions::default());
        let placement = sched.place_app(&mut dc, &app).unwrap();
        let s1 = &placement.modules[&ModuleId::from("S1")];
        assert_eq!(s1.replica_devices.len(), 3);
        let mut devs = s1.replica_devices.clone();
        devs.sort();
        devs.dedup();
        assert_eq!(devs.len(), 3, "replicas must not share devices");
    }

    #[test]
    fn too_many_replicas_reported() {
        let mut app = AppSpec::new("rep");
        app.add_data(
            DataSpec::new("S1")
                .with_bytes(1 << 20)
                .with_dist(DistributedAspect::default().replication(16)),
        );
        // Datacenter with only 2 SSD shelves.
        let mut dc = Datacenter::new(udc_hal::DatacenterConfig {
            pools: vec![udc_hal::PoolConfig {
                kind: ResourceKind::Ssd,
                devices: 2,
                capacity_per_device: 1024,
            }],
            racks: 4,
            fabric: Default::default(),
        });
        let mut sched = Scheduler::new(SchedOptions::default());
        let err = sched.place_app(&mut dc, &app).unwrap_err();
        assert!(matches!(
            err,
            SchedError::NotEnoughFailureIndependence {
                requested: 16,
                distinct_devices: 2,
                ..
            }
        ));
        assert_eq!(
            dc.pool(ResourceKind::Ssd).unwrap().total_used(),
            0,
            "failed placement must roll back"
        );
    }

    #[test]
    fn single_tenant_isolation_gets_exclusive_device() {
        let mut app = AppSpec::new("iso");
        app.add_task(
            TaskSpec::new("A1")
                .with_resource(ResourceAspect::default().with_demand(ResourceKind::Cpu, 2))
                .with_exec_env(ExecEnvAspect::isolation(IsolationLevel::Strongest)),
        );
        let mut dc = dc();
        let mut sched = Scheduler::new(SchedOptions::default());
        let placement = sched.place_app(&mut dc, &app).unwrap();
        let a1 = &placement.modules[&ModuleId::from("A1")];
        assert!(a1.env.single_tenant);
        assert!(a1.allocations[0].slices[0].exclusive);
        let dev = dc.device(a1.primary_device).unwrap();
        assert!(dev.is_exclusive());
    }

    #[test]
    fn goal_fastest_picks_accelerator() {
        let mut app = AppSpec::new("fast");
        app.add_task(
            TaskSpec::new("A1")
                .with_resource(ResourceAspect::goal(Goal::Fastest))
                .with_work(1000),
        );
        let mut dc = dc();
        let mut sched = Scheduler::new(SchedOptions::default());
        let placement = sched.place_app(&mut dc, &app).unwrap();
        assert_eq!(
            placement.modules[&ModuleId::from("A1")].placed_kind,
            ResourceKind::Gpu,
            "fastest available compute is the GPU pool"
        );
    }

    #[test]
    fn goal_cheapest_picks_cpu() {
        let mut app = AppSpec::new("cheap");
        app.add_task(TaskSpec::new("B2").with_resource(ResourceAspect::goal(Goal::Cheapest)));
        let mut dc = dc();
        let mut sched = Scheduler::new(SchedOptions::default());
        let placement = sched.place_app(&mut dc, &app).unwrap();
        let kind = placement.modules[&ModuleId::from("B2")].placed_kind;
        // CPU has the best $-per-work-unit in the default profiles.
        assert_eq!(kind, ResourceKind::Cpu);
    }

    #[test]
    fn warm_pool_reduces_startup() {
        let app = {
            let mut a = AppSpec::new("w");
            a.add_task(TaskSpec::new("A1"));
            a
        };
        let mut dc_cold = dc();
        let mut cold = Scheduler::new(SchedOptions::default());
        let p_cold = cold.place_app(&mut dc_cold, &app).unwrap();

        let mut dc_warm = dc();
        let mut warm = Scheduler::new(SchedOptions {
            warm_pool: udc_isolate::WarmPoolConfig::uniform(4),
            ..Default::default()
        });
        let p_warm = warm.place_app(&mut dc_warm, &app).unwrap();
        assert!(p_warm.total_startup_us() < p_cold.total_startup_us());
        assert_eq!(p_warm.warm_fraction(), 1.0);
        assert_eq!(p_cold.warm_fraction(), 0.0);
    }

    #[test]
    fn a_pool_of_one_starts_one_module_warm_and_the_rest_cold() {
        let mut app = AppSpec::new("w");
        for id in ["A1", "A2", "A3"] {
            app.add_task(TaskSpec::new(id));
        }
        let mut sched = Scheduler::new(SchedOptions {
            warm_pool: WarmPoolConfig::uniform(1),
            ..Default::default()
        });
        let placed = sched.place_app(&mut dc(), &app).unwrap();
        let modes: Vec<StartMode> = placed.modules.values().map(|m| m.start_mode).collect();
        assert_eq!(modes, [StartMode::Warm, StartMode::Cold, StartMode::Cold]);
        let stats = sched.warm_pool_mut().stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
    }

    #[test]
    fn a_refused_replacement_draws_no_warm_instance() {
        let mut sched = Scheduler::new(SchedOptions {
            warm_pool: WarmPoolConfig::uniform(1),
            ..Default::default()
        });
        let mut dc = dc();
        let app = ResolvedApp::new(&simple_app(), ConflictPolicy::StrictestWins).unwrap();
        let placed = sched.place(&mut dc, &app, None).unwrap();
        let before = sched.warm_pool_mut().stats();
        let everywhere = dc.device_ids();
        let id = ModuleId::from("A1");
        let refused = sched.replace_module(&mut dc, &app, &id, &placed, &everywhere, None);
        assert!(refused.is_err(), "every device is excluded");
        assert_eq!(sched.warm_pool_mut().stats(), before);
    }

    #[test]
    fn a_refused_app_hands_back_the_warm_instances_it_drew() {
        // Regression: a-ok drew a warm instance before z-hog was refused,
        // and the refusal released its capacity but kept the instance.
        let mut sched = Scheduler::new(SchedOptions {
            warm_pool: udc_isolate::WarmPoolConfig::uniform(2),
            ..Default::default()
        });
        let ready = |sched: &mut Scheduler| -> usize {
            let pool = sched.warm_pool_mut();
            EnvKind::ALL.iter().map(|&k| pool.ready(k)).sum()
        };
        assert_eq!(ready(&mut sched), 12);
        let mut app = AppSpec::new("refused");
        for (id, kind, units) in [
            ("a-ok", ResourceKind::Cpu, 1),
            ("z-hog", ResourceKind::Gpu, 1_000_000),
        ] {
            app.add_task(
                TaskSpec::new(id).with_resource(ResourceAspect::default().with_demand(kind, units)),
            );
        }
        let mut dc = dc();
        match sched.place_app(&mut dc, &app) {
            Err(SchedError::Alloc { module, .. }) => assert_eq!(module, "z-hog"),
            other => panic!("expected z-hog to be refused, got {other:?}"),
        }
        assert_eq!(ready(&mut sched), 12);
        // The next launch draws the instance a-ok drew, warm.
        app.modules.remove(&ModuleId::from("z-hog"));
        let placed = sched.place_app(&mut dc, &app).unwrap();
        assert_eq!(placed.warm_fraction(), 1.0);
        assert_eq!(ready(&mut sched), 11);
    }

    #[test]
    fn release_returns_all_capacity() {
        let mut dc = dc();
        let used_before: u64 = ResourceKind::ALL
            .iter()
            .filter_map(|k| dc.pool(*k).map(|p| p.total_used()))
            .sum();
        let mut sched = Scheduler::new(SchedOptions::default());
        let placement = sched.place_app(&mut dc, &simple_app()).unwrap();
        sched.release_app(&mut dc, &placement);
        let used_after: u64 = ResourceKind::ALL
            .iter()
            .filter_map(|k| dc.pool(*k).map(|p| p.total_used()))
            .sum();
        assert_eq!(used_before, used_after);
    }

    #[test]
    fn data_movement_smaller_with_hints() {
        let app = simple_app();
        let mut dc1 = dc();
        let mut with_hints = Scheduler::new(SchedOptions::default());
        let p1 = with_hints.place_app(&mut dc1, &app).unwrap();
        let (us_hints, _) = data_movement(&dc1, &app, &p1);

        let mut dc2 = dc();
        let mut without = Scheduler::new(SchedOptions {
            use_locality_hints: false,
            ..Default::default()
        });
        let p2 = without.place_app(&mut dc2, &app).unwrap();
        let (us_plain, _) = data_movement(&dc2, &app, &p2);
        assert!(us_hints <= us_plain, "{us_hints} vs {us_plain}");
    }
}

#[cfg(test)]
mod resize_tests {
    use super::*;
    use udc_spec::{ResourceAspect, TaskSpec};

    fn one_task_app(cores: u64) -> AppSpec {
        let mut app = AppSpec::new("r");
        app.add_task(
            TaskSpec::new("T")
                .with_resource(ResourceAspect::default().with_demand(ResourceKind::Cpu, cores)),
        );
        app
    }

    #[test]
    fn shrink_returns_capacity_in_place() {
        let mut dc = Datacenter::default();
        let mut sched = Scheduler::new(SchedOptions::default());
        let mut placement = sched.place_app(&mut dc, &one_task_app(16)).unwrap();
        let used_before = dc.pool(ResourceKind::Cpu).unwrap().total_used();
        let m = placement.modules.get_mut(&ModuleId::from("T")).unwrap();
        let old_device = m.primary_device;
        let device = sched.resize(&mut dc, m, 4).unwrap();
        assert_eq!(device, old_device, "shrink stays in place");
        assert_eq!(
            dc.pool(ResourceKind::Cpu).unwrap().total_used(),
            used_before - 12
        );
        assert_eq!(m.allocations[0].total_units(), 4);
    }

    #[test]
    fn grow_in_place_when_headroom_exists() {
        let mut dc = Datacenter::default();
        let mut sched = Scheduler::new(SchedOptions::default());
        let mut placement = sched.place_app(&mut dc, &one_task_app(4)).unwrap();
        let m = placement.modules.get_mut(&ModuleId::from("T")).unwrap();
        let old_device = m.primary_device;
        let device = sched.resize(&mut dc, m, 8).unwrap();
        assert_eq!(device, old_device, "64-core device has headroom");
        assert_eq!(m.allocations[0].total_units(), 8);
    }

    #[test]
    fn grow_migrates_when_device_full() {
        // A tiny datacenter: two 8-core devices. Fill the module's
        // device with a second tenant, then grow past its capacity.
        let mut dc = Datacenter::new(udc_hal::DatacenterConfig {
            pools: vec![udc_hal::PoolConfig {
                kind: ResourceKind::Cpu,
                devices: 2,
                capacity_per_device: 8,
            }],
            racks: 2,
            fabric: Default::default(),
        });
        let mut sched = Scheduler::new(SchedOptions::default());
        let mut placement = sched.place_app(&mut dc, &one_task_app(4)).unwrap();
        let m = placement.modules.get_mut(&ModuleId::from("T")).unwrap();
        let old_device = m.primary_device;
        // Fill the rest of the old device.
        dc.pool_mut(ResourceKind::Cpu)
            .unwrap()
            .device_mut(old_device)
            .unwrap()
            .allocate("other", 4, false);
        let device = sched.resize(&mut dc, m, 6).unwrap();
        assert_ne!(device, old_device, "must migrate");
        assert_eq!(m.primary_device, device);
        assert_eq!(m.allocations[0].total_units(), 6);
        // The old allocation was released.
        let old = dc
            .pool(ResourceKind::Cpu)
            .unwrap()
            .device(old_device)
            .unwrap();
        assert_eq!(old.used(), 4, "only the other tenant remains");
        let new = dc.pool(ResourceKind::Cpu).unwrap().device(device).unwrap();
        assert_eq!(new.used(), 6, "the module's whole allocation moved");
    }

    #[test]
    fn migration_is_make_before_break() {
        // When no destination exists, the module keeps its old home.
        let mut dc = Datacenter::new(udc_hal::DatacenterConfig {
            pools: vec![udc_hal::PoolConfig {
                kind: ResourceKind::Cpu,
                devices: 1,
                capacity_per_device: 8,
            }],
            racks: 1,
            fabric: Default::default(),
        });
        let mut sched = Scheduler::new(SchedOptions::default());
        let mut placement = sched.place_app(&mut dc, &one_task_app(8)).unwrap();
        let m = placement.modules.get_mut(&ModuleId::from("T")).unwrap();
        let err = sched.migrate(&mut dc, m, 8);
        assert!(err.is_err(), "single-device pool has no destination");
        assert_eq!(m.allocations[0].total_units(), 8, "old allocation intact");
        assert_eq!(dc.pool(ResourceKind::Cpu).unwrap().total_used(), 8);
    }

    /// One 16-core device: module `T` (8 units) on dev0, dev0 crashes and
    /// is repaired, then a second app of the same tenant takes 4 units
    /// there. `T`'s slice is stale; the device's 4 used units are not its.
    fn flapped_under_a_module() -> (Datacenter, Scheduler, AppPlacement, AppPlacement) {
        let mut dc = Datacenter::new(udc_hal::DatacenterConfig {
            pools: vec![udc_hal::PoolConfig {
                kind: ResourceKind::Cpu,
                devices: 1,
                capacity_per_device: 16,
            }],
            racks: 1,
            fabric: Default::default(),
        });
        let mut sched = Scheduler::new(SchedOptions::default());
        let stale = sched.place_app(&mut dc, &one_task_app(8)).unwrap();
        let pool = dc.pool_mut(ResourceKind::Cpu).unwrap();
        pool.device_mut(DeviceId(0)).unwrap().fail();
        pool.device_mut(DeviceId(0)).unwrap().repair();
        let fresh = sched.place_app(&mut dc, &one_task_app(4)).unwrap();
        assert_eq!(dc.pool(ResourceKind::Cpu).unwrap().total_used(), 4);
        (dc, sched, stale, fresh)
    }

    #[test]
    fn shrinking_a_slice_lost_to_a_flap_frees_nothing() {
        let (mut dc, mut sched, mut stale, _fresh) = flapped_under_a_module();
        let m = stale.modules.get_mut(&ModuleId::from("T")).unwrap();
        let result = sched.resize(&mut dc, m, 2);
        assert_eq!(
            dc.pool(ResourceKind::Cpu).unwrap().total_used(),
            4,
            "the newer module keeps its units"
        );
        assert_eq!(
            result,
            Err(SchedError::SliceLost {
                module: "T".to_string(),
                device: DeviceId(0),
            })
        );
        assert_eq!(m.allocations[0].total_units(), 8, "slice untouched");
    }

    #[test]
    fn growing_a_slice_lost_to_a_flap_leaks_nothing() {
        let (mut dc, mut sched, mut stale, fresh) = flapped_under_a_module();
        let m = stale.modules.get_mut(&ModuleId::from("T")).unwrap();
        let result = sched.resize(&mut dc, m, 10);
        sched.release_app(&mut dc, &stale);
        sched.release_app(&mut dc, &fresh);
        assert_eq!(
            dc.pool(ResourceKind::Cpu).unwrap().total_used(),
            0,
            "no grown units outlive both modules"
        );
        assert!(matches!(result, Err(SchedError::SliceLost { .. })));
    }

    #[test]
    fn resize_noop_when_equal() {
        let mut dc = Datacenter::default();
        let mut sched = Scheduler::new(SchedOptions::default());
        let mut placement = sched.place_app(&mut dc, &one_task_app(4)).unwrap();
        let m = placement.modules.get_mut(&ModuleId::from("T")).unwrap();
        let before = dc.pool(ResourceKind::Cpu).unwrap().total_used();
        sched.resize(&mut dc, m, 4).unwrap();
        assert_eq!(dc.pool(ResourceKind::Cpu).unwrap().total_used(), before);
    }

    #[test]
    fn candidate_order_is_deterministic() {
        // A scanning policy's placement is only reproducible bit-for-bit
        // (including across parallel experiment trials), and the audit
        // can only look its winner up by binary search, because
        // candidates come in a deterministic order: strictly increasing
        // device id, the natural iteration order of the pool.
        let dc = Datacenter::default();
        let cands = crate::policy::candidates_for(&dc, ResourceKind::Cpu, "t", 4, Some(1));
        assert!(!cands.is_empty());
        assert!(
            cands.windows(2).all(|w| w[0].device < w[1].device),
            "candidates_for must yield strictly increasing device ids"
        );
    }
}
