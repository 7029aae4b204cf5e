//! The UDC control plane: submit → place → run → verify → teardown.

use crate::billing::{BillingModel, CostBreakdown};
use crate::bundle::{HighLevelObject, ResourceUnit};
use crate::ir::{AppIr, ModuleIr};
use crate::verify::{
    check_quote, policy_for_module, BillingCheck, BillingReconciliation, ModuleVerification,
    VerificationReport,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use udc_crypto::aead::{seal, Key, Nonce};
use udc_crypto::attest::Verifier;
use udc_crypto::derive_key;
use udc_economics::SharedQuotaGate;
use udc_failure::{DetectorConfig, FenceRegistry, LeaseDetector, NetPlan};
use udc_hal::{Datacenter, DatacenterConfig, DeviceId};
use udc_isolate::{EnvState, Environment, InstanceId, WarmPoolConfig};
use udc_sched::{data_movement, AppPlacement, SchedError, SchedOptions, Scheduler, StartMode};
use udc_spec::{AppSpec, ConflictPolicy, EdgeKind, ModuleId, ModuleKind, SpecError};
use udc_telemetry::{EventKind, FieldValue, Labels, Micros, Telemetry};

/// Cloud-wide configuration.
pub struct CloudConfig {
    /// Datacenter shape.
    pub datacenter: DatacenterConfig,
    /// Tenant tag.
    pub tenant: String,
    /// Warm-pool sizing.
    pub warm_pool: WarmPoolConfig,
    /// Conflict handling (§3.4).
    pub conflict_policy: ConflictPolicy,
    /// Billing model.
    pub billing: BillingModel,
    /// Honour locality hints.
    pub use_locality_hints: bool,
    /// Master secret all per-module data keys derive from (the tenant's
    /// root key, provisioned out of band).
    pub tenant_secret: Vec<u8>,
}

impl Default for CloudConfig {
    fn default() -> Self {
        Self {
            datacenter: DatacenterConfig::default(),
            tenant: "tenant".to_string(),
            warm_pool: WarmPoolConfig::disabled(),
            conflict_policy: ConflictPolicy::StrictestWins,
            billing: BillingModel::default(),
            use_locality_hints: true,
            tenant_secret: b"udc-tenant-secret".to_vec(),
        }
    }
}

/// Control-plane errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloudError {
    /// Spec rejected.
    Spec(SpecError),
    /// Placement failed.
    Sched(SchedError),
}

impl fmt::Display for CloudError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CloudError::Spec(e) => write!(f, "spec: {e}"),
            CloudError::Sched(e) => write!(f, "sched: {e}"),
        }
    }
}

impl std::error::Error for CloudError {}

impl From<SpecError> for CloudError {
    fn from(e: SpecError) -> Self {
        CloudError::Spec(e)
    }
}

impl From<SchedError> for CloudError {
    fn from(e: SchedError) -> Self {
        CloudError::Sched(e)
    }
}

/// A live deployment: IR + placement + started environments + keys.
pub struct Deployment {
    /// Compiled IR.
    pub ir: AppIr,
    /// The placement.
    pub placement: AppPlacement,
    /// Started execution environments, one per module.
    pub environments: BTreeMap<ModuleId, Environment>,
    /// The vertical bundles (Design Principle 3).
    pub objects: Vec<HighLevelObject>,
    /// Per-data-module sealing keys (derived from the tenant secret).
    pub data_keys: BTreeMap<ModuleId, Key>,
    /// The billing model advertised when the deployment was accepted —
    /// the contract billing reconciliation checks charges against, even
    /// if the provider later changes its prices.
    pub billing: BillingModel,
    /// Per-module repair state (driven by [`UdcCloud::advance`]).
    pub health: crate::heal::HealthState,
    /// Recoverable state: message log + checkpoints the repair loop
    /// replays/restores after a crash.
    pub recovery: udc_dist::RecoveryModel,
    /// Modules evicted because the tenant's account is suspended; they
    /// stay out of the device-repair re-heal path until payment
    /// reinstates the account.
    pub econ_suspended: std::collections::BTreeSet<ModuleId>,
    /// The cloud's sense epoch at this deployment's last `advance`.
    pub(crate) seen_epoch: u64,
    /// The attached query engine's [`HEAL_DEGRADED_GAUGE`] series, one
    /// per module in module order — resolved at the first barrier that
    /// finds them missing or another engine's.
    pub(crate) degraded_series: Vec<udc_query::SeriesId>,
    /// Every slice and replica device of the placement, sorted and
    /// deduplicated — known only while the last full look found the
    /// deployment converged and no placement change has happened since.
    pub(crate) footprint: Option<Vec<DeviceId>>,
    /// What `run` metered for this deployment while the hub was
    /// enabled, one entry per module in placement order (empty if it
    /// never was): the bill [`UdcCloud::verify_deployment`] checks.
    meter: RefCell<Vec<Metered>>,
    /// Released flag (idempotent teardown).
    released: bool,
}

/// One module's metered usage, summed over a deployment's runs.
#[derive(Clone, Copy, Debug, Default)]
struct Metered {
    /// Holding time.
    window_us: u64,
    /// What the provider billed, at its prices when it ran.
    billed: u64,
    /// What the tenant's ledger was debited, at the prices agreed at
    /// submit.
    debited: u64,
}

/// The result of running a deployment end to end.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Per-module (start_us, finish_us) on the virtual clock.
    pub timings: BTreeMap<ModuleId, (u64, u64)>,
    /// End-to-end makespan (critical path) in microseconds.
    pub makespan_us: u64,
    /// Itemized cost of holding the resources for the makespan.
    pub cost: CostBreakdown,
    /// Messages sealed (confidentiality/integrity applied on data
    /// leaving environments, §3.3).
    pub sealed_messages: u64,
    /// Bytes of payload protected.
    pub sealed_bytes: u64,
    /// Total fabric transfer time across access edges.
    pub transfer_us: u64,
    /// Fraction of modules started from the warm pool.
    pub warm_fraction: f64,
}

/// The User-Defined Cloud.
pub struct UdcCloud {
    pub(crate) dc: Datacenter,
    pub(crate) scheduler: Scheduler,
    billing: BillingModel,
    pub(crate) tenant: String,
    tenant_secret: Vec<u8>,
    conflict_policy: ConflictPolicy,
    /// Per-device attestation keys, derived the first time a device
    /// hosts a launch (see [`device_key`]).
    pub(crate) device_keys: BTreeMap<DeviceId, [u8; 32]>,
    pub(crate) next_instance: u64,
    pub(crate) next_unit: u64,
    /// Sequence number of the next sealed message. A data key is derived
    /// from the tenant secret and the data-module id alone, so the same
    /// key seals in every run of a deployment and in every deployment
    /// with that module id; nonces come from this one counter, which
    /// never restarts, so no (key, nonce) pair is ever used twice.
    next_seal: u64,
    /// Every (key, nonce) pair `run` has sealed under.
    #[cfg(test)]
    sealed_under: Vec<([u8; 32], Nonce)>,
    pub(crate) obs: Telemetry,
    /// What [`UdcCloud::advance`] has sensed: belief about dead devices
    /// and every fact a deployment's next look reconciles against.
    pub(crate) sensed: crate::heal::Sensed,
    /// How [`UdcCloud::advance`] learns about device failures. `None` is
    /// omniscient detection, the retained oracle: ground-truth events
    /// straight off the datacenter tick, believed at once. A lease
    /// detector infers failure from heartbeat silence instead, so belief
    /// lags ground truth by up to `lease_us × confirm_misses`.
    pub(crate) detector: Option<LeaseDetector>,
    /// Deterministic network fault plan (partitions, gray devices, link
    /// faults) consulted by the lease detector's heartbeat path.
    pub(crate) net: NetPlan,
    /// Fencing epochs, one monotone counter per module: minted at every
    /// placement, checked on writes and relaunches so superseded
    /// replicas cannot act after a partition heals.
    pub(crate) fences: FenceRegistry,
    /// Tenant economics gate shared with the scheduler (admission) and
    /// the caller (payments, market). `None` = ungated seed behavior.
    pub(crate) econ_gate: Option<SharedQuotaGate>,
    /// Continuous-query engine fed at every [`UdcCloud::advance`]
    /// barrier. `None` = no queries attached (zero overhead).
    pub(crate) queries: Option<AttachedQueries>,
}

/// An attached query engine and what feeds it at every barrier.
pub(crate) struct AttachedQueries {
    pub(crate) engine: udc_query::QueryEngine,
    /// The engine's cursors over `obs`, reading only what it reads.
    pub(crate) feed: udc_query::HubFeed,
    /// The engine's [`RING_DROPPED_GAUGE`] series.
    pub(crate) dropped: udc_query::SeriesId,
}

/// Gauge the heal loop feeds the attached query engine: 1.0 while a
/// module is unhealthy (`Repairing` or `Degraded` — exactly the span
/// whose start the health map records as `detected_us`), 0.0 once
/// healthy. Labeled `Labels::module(tenant, module)`.
pub const HEAL_DEGRADED_GAUGE: &str = "heal.degraded";

/// Sustained rule auto-loaded by [`UdcCloud::attach_queries`]:
/// `sustained(gauge:heal.degraded >= 1) for <degraded_alert_after_us>`.
/// [`UdcCloud::degraded_for_us`] reads its held-since state.
pub const HEAL_DEGRADED_RULE: &str = "heal.module_degraded";

/// Gauge sampled into the attached query engine at every barrier: how
/// many records the hub's bounded stores (event, decision and alert
/// rings, span store) have evicted so far.
pub const RING_DROPPED_GAUGE: &str = "telemetry.dropped";

/// Sustained rule auto-loaded by [`UdcCloud::attach_queries`]:
/// `sustained(gauge:telemetry.dropped >= 1) for 0us` — fires once, at
/// the first barrier that finds any bounded store has lost a record, so
/// an audit trail that is no longer complete says so itself.
pub const RING_DROPPED_RULE: &str = "telemetry.ring_dropped";

/// Counter of events and decisions the hub's rings evicted before the
/// attached engine's feed read them (see `HubFeed::missed`).
pub const FEED_MISSED_COUNTER: &str = "query.feed_missed";

/// The payload `UdcCloud::run` seals for a protected access edge: the
/// edge's first `min(bytes, 4 KiB)` bytes, all `0x5a`, sliced from one
/// static array instead of allocated per edge.
static SEAL_SAMPLE: [u8; 4096] = [0x5a; 4096];

/// The attestation key fused into `device` at build time: a pure
/// function of the device id, so it can be derived whenever a device
/// first hosts a launch — including one enrolled after the cloud was
/// built — instead of for the whole datacenter up front.
pub(crate) fn device_key(device: DeviceId) -> [u8; 32] {
    derive_key(
        b"udc-hardware-root",
        b"device-key",
        format!("{device}").as_bytes(),
    )
}

impl UdcCloud {
    /// Builds the cloud: datacenter and scheduler.
    pub fn new(config: CloudConfig) -> Self {
        let dc = Datacenter::new(config.datacenter);
        let tenant = config.tenant.clone();
        let scheduler = Scheduler::new(SchedOptions {
            tenant: config.tenant,
            use_locality_hints: config.use_locality_hints,
            warm_pool: config.warm_pool,
            ..Default::default()
        });
        Self {
            dc,
            scheduler,
            billing: config.billing,
            tenant,
            tenant_secret: config.tenant_secret,
            conflict_policy: config.conflict_policy,
            device_keys: BTreeMap::new(),
            next_instance: 0,
            next_unit: 0,
            next_seal: 1,
            #[cfg(test)]
            sealed_under: Vec::new(),
            obs: Telemetry::disabled(),
            sensed: Default::default(),
            detector: None,
            net: NetPlan::none(),
            fences: FenceRegistry::new(),
            econ_gate: None,
            queries: None,
        }
    }

    /// Attaches the tenant economics subsystem: the scheduler starts
    /// consulting `gate` at admission, `run` meters usage into the
    /// tenant's ledger at the submit-time prices, billing
    /// reconciliation checks against the ledger, and
    /// [`UdcCloud::advance`] drives the overdue → degrade → suspend →
    /// reinstate lifecycle. The caller keeps a clone of the handle for
    /// payments and the spot market.
    pub fn attach_economics(&mut self, gate: SharedQuotaGate) {
        self.scheduler.set_quota_gate(Some(gate.clone()));
        self.econ_gate = Some(gate);
    }

    /// The attached economics gate, if any.
    pub fn economics(&self) -> Option<&SharedQuotaGate> {
        self.econ_gate.as_ref()
    }

    /// Switches [`UdcCloud::advance`] from omniscient failure knowledge
    /// to a deterministic heartbeat/lease detector: every device emits a
    /// heartbeat per lease on the sim clock, arrivals pass through the
    /// installed [`NetPlan`], and the control plane evicts only on
    /// *confirmed* silence (`lease_us × confirm_misses`). The omniscient
    /// path stays available as the oracle — simply never call this.
    ///
    /// Attach before the first `advance` so the detector's view starts
    /// at the same epoch as the ground truth it shadows.
    pub fn attach_failure_detection(&mut self, config: DetectorConfig) {
        let now = self.dc.clock().now();
        self.detector = Some(LeaseDetector::new(config, self.dc.device_ids(), now));
    }

    /// The lease detector, when failure detection is attached.
    pub fn detector(&self) -> Option<&LeaseDetector> {
        self.detector.as_ref()
    }

    /// Installs the deterministic network fault plan (partitions and
    /// gray devices). Consulted by the lease detector's
    /// heartbeat delivery; [`NetPlan::none`] (the default) is a perfect
    /// network.
    pub fn set_net_plan(&mut self, net: NetPlan) {
        self.net = net;
    }

    /// The installed network fault plan.
    pub fn net_plan(&self) -> &NetPlan {
        &self.net
    }

    /// The fencing-epoch registry (inspection; epochs are minted by
    /// `submit` and the repair loop).
    pub fn fences(&self) -> &FenceRegistry {
        &self.fences
    }

    /// The current fencing epoch for `module` (0 = never placed).
    pub fn module_epoch(&self, module: &str) -> u64 {
        self.fences.current(module)
    }

    /// Attaches a continuous-query engine. Every [`UdcCloud::advance`]
    /// barrier then feeds it: the hub's new records that its queries
    /// and rules read (via a feed reading the engine's
    /// [`interest`](udc_query::QueryEngine::interest), so a barrier
    /// costs per name the engine reads, not per hub series), one
    /// [`HEAL_DEGRADED_GAUGE`] sample per placed module, one
    /// [`RING_DROPPED_GAUGE`] sample, an `advance_to(now)` watermark,
    /// and a flush of any fired alerts into the hub's alert ring.
    /// Attach *before* the first `advance` so the engine sees every
    /// health transition from its entry time.
    ///
    /// Register queries and rules (and subscribe) before attaching:
    /// the attached engine is read-only apart from
    /// [`UdcCloud::poll_query`], because its feed diffs counters and
    /// histograms only for the names read at attach time.
    ///
    /// If the engine doesn't already carry a rule named
    /// [`HEAL_DEGRADED_RULE`], one is loaded firing after
    /// `degraded_alert_after_us` of sustained unhealth; its held-since
    /// state backs [`UdcCloud::degraded_for_us`]. Likewise for
    /// [`RING_DROPPED_RULE`].
    pub fn attach_queries(
        &mut self,
        mut engine: udc_query::QueryEngine,
        degraded_alert_after_us: Micros,
    ) {
        for (name, gauge, for_us) in [
            (
                HEAL_DEGRADED_RULE,
                HEAL_DEGRADED_GAUGE,
                degraded_alert_after_us,
            ),
            (RING_DROPPED_RULE, RING_DROPPED_GAUGE, 0),
        ] {
            if !engine.has_rule(name) {
                let text = format!("{name}: sustained(gauge:{gauge} >= 1) for {for_us}us");
                let parsed = udc_query::parse_rule(&text).expect("built-in rule parses");
                engine
                    .add_rule(parsed.rule)
                    .expect("built-in rule is fresh");
            }
        }
        self.queries = Some(AttachedQueries {
            feed: udc_query::HubFeed::reading(engine.interest()),
            dropped: engine.gauge_series(RING_DROPPED_GAUGE, Labels::none()),
            engine,
        });
    }

    /// The attached query engine, if any.
    pub fn queries(&self) -> Option<&udc_query::QueryEngine> {
        self.queries.as_ref().map(|q| &q.engine)
    }

    /// Outputs the attached engine emitted for `sub`'s query since the
    /// subscription's previous poll (empty with no engine attached).
    pub fn poll_query(&mut self, sub: udc_query::SubId) -> Vec<udc_query::QueryOutput> {
        self.queries
            .as_mut()
            .map_or_else(Vec::new, |q| q.engine.poll(sub))
    }

    /// How long `module` has been continuously unhealthy, read from the
    /// query subscription ([`HEAL_DEGRADED_RULE`]'s held-since state)
    /// rather than the health map — `None` when healthy or when no
    /// engine is attached. Equals `now - detected_us` exactly, because
    /// the gauge sample that opens the run is stamped with the same
    /// barrier time the health transition used.
    pub fn degraded_for_us(&self, module: &str, now: Micros) -> Option<Micros> {
        let engine = self.queries()?;
        let labels = Labels::module(self.tenant.as_str(), module);
        engine
            .condition_held_since(HEAL_DEGRADED_RULE, &labels)
            .map(|since| now.saturating_sub(since))
    }

    /// Installs an observability hub across the whole control plane:
    /// the datacenter (which points the hub's clock at the simulated
    /// clock and wires the fabric), the scheduler and its warm pool, and
    /// the control plane itself. An attached query engine follows: its
    /// feed's cursors belong to the hub they were read from, so they
    /// start over on the new one.
    pub fn set_observer(&mut self, obs: Telemetry) {
        self.dc.set_observer(obs.clone());
        self.scheduler.set_observer(obs.clone());
        self.obs = obs;
        if let Some(q) = &mut self.queries {
            q.feed = udc_query::HubFeed::reading(q.engine.interest());
        }
    }

    /// Convenience: creates an enabled hub, installs it everywhere, and
    /// returns a handle for reading metrics and exporting snapshots.
    pub fn enable_telemetry(&mut self) -> Telemetry {
        let obs = Telemetry::enabled();
        self.set_observer(obs.clone());
        obs
    }

    /// The installed observability hub (disabled no-op by default).
    pub fn observer(&self) -> &Telemetry {
        &self.obs
    }

    /// Writes the current telemetry snapshot as JSON to `path`
    /// (typically under `results/`), creating parent directories.
    pub fn export_telemetry(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<std::path::PathBuf> {
        self.obs.snapshot().write_to(path)
    }

    /// The underlying datacenter (inspection and experiments).
    pub fn datacenter(&self) -> &Datacenter {
        &self.dc
    }

    /// Mutable datacenter access (failure injection).
    pub fn datacenter_mut(&mut self) -> &mut Datacenter {
        &mut self.dc
    }

    /// The scheduler (warm-pool stats, etc.).
    pub fn scheduler_mut(&mut self) -> &mut Scheduler {
        &mut self.scheduler
    }

    /// Submits an application: compile to IR, place, start environments,
    /// derive data keys, build bundles.
    pub fn submit(&mut self, app: &AppSpec) -> Result<Deployment, CloudError> {
        // Every submit mints one causal trace; the context threads
        // explicitly through validation, placement, allocation, and
        // launch so the whole deployment reconstructs as a single span
        // DAG (core → sched → hal → isolate).
        let span = self.obs.trace_root("cloud.submit");
        let ctx = span.ctx();
        let ir = {
            let _validate = self.obs.span_opt(ctx.as_ref(), "spec.validate");
            AppIr::compile(app, self.conflict_policy)?
        };
        let mut placement = self.scheduler.place(&mut self.dc, &ir.app, ctx)?;
        if self.obs.is_enabled() {
            self.obs
                .incr("core.submits", Labels::tenant(self.tenant.as_str()), 1);
            self.obs.event(
                EventKind::Submit,
                Labels::tenant(self.tenant.as_str()),
                &[
                    ("app", FieldValue::from(ir.app.name.as_str())),
                    ("modules", FieldValue::from(placement.modules.len())),
                    ("warm_fraction", FieldValue::from(placement.warm_fraction())),
                ],
            );
        }

        let mut environments = BTreeMap::new();
        let mut objects = Vec::new();
        let mut data_keys = BTreeMap::new();
        for m in ir.modules.iter() {
            let id = &m.spec.id;
            let p = placement
                .modules
                .get_mut(id)
                .expect("placement covers every module");
            let (env, units) = self.launch(m, p, ctx);
            environments.insert(id.clone(), env);

            if m.spec.kind == ModuleKind::Data {
                data_keys.insert(
                    id.clone(),
                    Key::derive(&self.tenant_secret, id.as_str().as_bytes()),
                );
            }
            objects.push(HighLevelObject {
                module: id.clone(),
                dist: m.spec.dist.clone(),
                units,
            });
        }
        Ok(Deployment {
            placement,
            environments,
            objects,
            data_keys,
            billing: self.billing,
            health: crate::heal::HealthState::default(),
            recovery: udc_dist::RecoveryModel::new(),
            econ_suspended: std::collections::BTreeSet::new(),
            seen_epoch: self.sensed.epoch,
            degraded_series: Vec::new(),
            footprint: None,
            meter: RefCell::default(),
            released: false,
            ir,
        })
    }

    /// Brings a committed placement `p` of `m` to life: mints its
    /// fencing epoch (it travels with the environment, so later writes
    /// and relaunches can prove they come from the placement in force),
    /// launches a fresh instance attested under the device's key, and
    /// lists the resource units backing it, one per replica device.
    pub(crate) fn launch(
        &mut self,
        m: &ModuleIr,
        p: &mut udc_sched::ModulePlacement,
        ctx: Option<udc_telemetry::TraceCtx>,
    ) -> (Environment, Vec<ResourceUnit>) {
        let id = &m.spec.id;
        p.epoch = self.fences.mint(id.as_str());
        let device_key = *self
            .device_keys
            .entry(p.primary_device)
            .or_insert_with(|| device_key(p.primary_device));
        let mut env = Environment::new(InstanceId(self.next_instance), p.env, device_key);
        env.set_epoch(p.epoch);
        self.next_instance += 1;
        let identity = format!("{}@{}", id, m.identity_hex());
        {
            let _launch = self.obs.span_opt(ctx.as_ref(), "isolate.launch");
            env.start(p.start_mode == StartMode::Warm, &identity);
        }
        let units = p
            .replica_devices
            .iter()
            .map(|&device| {
                let unit = ResourceUnit {
                    id: self.next_unit,
                    device,
                    kind: p.placed_kind,
                    units: p.allocations.first().map(|a| a.total_units()).unwrap_or(0),
                    env: p.env,
                    endpoint: format!("{}#{}", id, self.next_unit),
                };
                self.next_unit += 1;
                unit
            })
            .collect();
        (env, units)
    }

    /// Runs a deployment end to end on the virtual clock.
    ///
    /// Task timing: `finish = max(pred finishes, 0) + startup + access
    /// transfers (+ sealing) + execution`. Data modules are ready after
    /// their own startup. The makespan is the DAG's critical path; all
    /// resources are billed for the makespan (they are held for the
    /// run).
    pub fn run(&mut self, dep: &Deployment) -> RunReport {
        let _span = self.obs.span("cloud.run");
        let app = &dep.ir.app;
        let mut report = RunReport::default();
        let mut finish: BTreeMap<ModuleId, u64> = BTreeMap::new();

        for id in app.order() {
            let module = app.module(id).expect("ordered ids exist");
            let p = &dep.placement.modules[id];
            match module.kind {
                ModuleKind::Data => {
                    let start = 0u64;
                    let end = start + p.startup_us;
                    finish.insert(id.clone(), end);
                    report.timings.insert(id.clone(), (start, end));
                }
                ModuleKind::Task => {
                    let ready = app
                        .edges_to(id)
                        .filter(|e| e.kind == EdgeKind::Dependency)
                        .filter_map(|e| finish.get(&e.from).copied())
                        .max()
                        .unwrap_or(0);
                    let start = ready;
                    let mut elapsed = p.startup_us;

                    // Access edges: move the data over the fabric and
                    // apply the user's data protection.
                    for e in app.edges.iter().filter(|e| e.kind == EdgeKind::Access) {
                        let data_id = if &e.from == id
                            && app.module(&e.to).map(|m| m.kind) == Some(ModuleKind::Data)
                        {
                            &e.to
                        } else if &e.to == id
                            && app.module(&e.from).map(|m| m.kind) == Some(ModuleKind::Data)
                        {
                            &e.from
                        } else {
                            continue;
                        };
                        let data_module = app.module(data_id).expect("edge checked");
                        let dp = &dep.placement.modules[data_id];
                        let bytes = data_module.bytes.unwrap_or(1 << 20);
                        elapsed += self.dc.fabric().transfer_us(
                            p.primary_device,
                            dp.primary_device,
                            bytes,
                        );
                        report.transfer_us +=
                            self.dc
                                .fabric()
                                .transfer_us(p.primary_device, dp.primary_device, 0);

                        // Apply data protection when the data leaves its
                        // environment (§3.3): seal a representative
                        // payload, charging crypto time per byte.
                        let prot = data_module
                            .exec_env
                            .protection
                            .unwrap_or(udc_spec::DataProtection::NONE);
                        if prot.confidentiality || prot.integrity {
                            if let Some(key) = dep.data_keys.get(data_id) {
                                let sample = &SEAL_SAMPLE[..bytes.min(4096) as usize];
                                let nonce = Nonce::from_sequence(self.next_seal);
                                self.next_seal += 1;
                                let boxed = seal(key, nonce, id.as_str().as_bytes(), sample);
                                debug_assert!(!boxed.ciphertext.is_empty());
                                #[cfg(test)]
                                self.sealed_under.push((key.0, boxed.nonce));
                                report.sealed_messages += 1;
                                report.sealed_bytes += bytes;
                                // ~1 us per 4 KiB sealed (ChaCha20 +
                                // HMAC at ~4 GB/s equivalent).
                                elapsed += bytes.div_ceil(4096);
                            }
                        }
                    }

                    elapsed += p.est_exec_us.unwrap_or(1_000);
                    let end = start + elapsed;
                    finish.insert(id.clone(), end);
                    report.timings.insert(id.clone(), (start, end));
                }
            }
        }

        report.makespan_us = finish.values().copied().max().unwrap_or(0);
        report.warm_fraction = dep.placement.warm_fraction();
        // Each module's holding time, derived once for the bill, the
        // ledger and the counters: a task holds its resources for its
        // own execution window, a data module for the whole run ("pay
        // only for what is used", at time granularity too).
        let held_us: BTreeMap<&ModuleId, u64> = report
            .timings
            .iter()
            .map(|(id, (start, end))| {
                let held = match app.module(id).map(|m| m.kind) {
                    Some(ModuleKind::Task) => end.saturating_sub(*start),
                    _ => report.makespan_us,
                };
                (id, held)
            })
            .collect();
        report.cost = self
            .billing
            .price(&self.dc, &dep.placement, |id| held_us[id]);
        // With the hub enabled the deployment meters itself too, one
        // entry per module in placement order.
        let mut meter = self.obs.is_enabled().then(|| dep.meter.borrow_mut());
        if let Some(meter) = &mut meter {
            meter.resize(dep.placement.modules.len(), Metered::default());
        }
        // Tenant-side metering: debit the ledger at the prices *agreed
        // at submit* (`dep.billing`), never the provider's current
        // model. The provider-side counters below use `self.billing`,
        // which is exactly what lets ledger-based reconciliation catch
        // a provider that silently raises prices mid-flight.
        if let Some(gate) = &self.econ_gate {
            let now = self.dc.clock().now();
            let mut g = gate.lock().expect("quota gate poisoned");
            if let Some(acct) = g.account_mut(&self.tenant) {
                for (i, (id, m)) in dep.placement.modules.iter().enumerate() {
                    let owed = dep.billing.price_module(&self.dc, m, held_us[id]);
                    acct.charge(now, owed, Some(id.as_str()), "usage window");
                    if let Some(meter) = &mut meter {
                        meter[i].debited += owed;
                    }
                }
            }
        }
        if let Some(meter) = &mut meter {
            self.obs
                .incr("core.runs", Labels::tenant(self.tenant.as_str()), 1);
            for (i, (id, m)) in dep.placement.modules.iter().enumerate() {
                let held = held_us[id];
                let labels = Labels::module(self.tenant.as_str(), id.as_str());
                let units: u64 = m.allocations.iter().map(|a| a.total_units()).sum();
                self.obs.incr("core.module_window_us", labels.clone(), held);
                self.obs.incr(
                    "core.module_unit_us",
                    labels.clone(),
                    units.saturating_mul(held),
                );
                let billed = self.billing.price_module(&self.dc, m, held);
                self.obs.incr("core.billed_microdollars", labels, billed);
                meter[i].window_us += held;
                meter[i].billed += billed;
            }
        }
        self.dc.clock().advance(report.makespan_us);
        report
    }

    /// Verifies a deployment the way a tenant would (§4): challenge each
    /// user-verifiable environment with a fresh nonce and check its
    /// quote against a policy derived from the module's own aspects.
    pub fn verify_deployment(&self, dep: &Deployment) -> VerificationReport {
        let _span = self.obs.span("cloud.verify");
        // The tenant's verifier trusts the hardware keys (manufacturer
        // chain), not the provider.
        let mut verifier = Verifier::new();
        for (id, env) in dep.environments.iter() {
            if let Some(rot) = env.root_of_trust() {
                let device = dep.placement.modules[id].primary_device;
                let key = self
                    .device_keys
                    .get(&device)
                    .copied()
                    .unwrap_or_else(|| device_key(device));
                verifier.trust_device(rot.device_id(), key);
            }
        }

        let mut report = VerificationReport::default();
        for m in &dep.ir.modules {
            let id = &m.spec.id;
            let p = &dep.placement.modules[id];
            let env = &dep.environments[id];
            if !p.env.user_verifiable {
                report
                    .modules
                    .insert(id.clone(), ModuleVerification::NotVerifiable);
                continue;
            }
            let Some(rot) = env.root_of_trust() else {
                // Verifiable plan without a TEE: physically-isolated
                // single-tenant devices attest via the device's own root
                // of trust; we model that as verified-by-exclusivity
                // when the allocation is exclusive.
                let exclusive = p
                    .allocations
                    .iter()
                    .any(|a| a.slices.iter().any(|s| s.exclusive));
                report.modules.insert(
                    id.clone(),
                    if exclusive {
                        ModuleVerification::Verified
                    } else {
                        ModuleVerification::Failed(
                            "single-tenant promised but device is shared".to_string(),
                        )
                    },
                );
                continue;
            };
            // Challenge-response with a fresh nonce derived from the
            // clock (deterministic in simulation, unique per challenge).
            let nonce = derive_key(
                b"udc-nonce",
                &self.dc.clock().now().to_be_bytes(),
                id.as_str().as_bytes(),
            );
            let mut claims = BTreeMap::new();
            let isolation = m
                .spec
                .exec_env
                .isolation
                .unwrap_or_default()
                .name()
                .to_string();
            claims.insert("isolation".to_string(), isolation.clone());
            claims.insert(
                "tenancy".to_string(),
                if p.env.single_tenant {
                    "single_tenant"
                } else {
                    "shared"
                }
                .to_string(),
            );
            let mut resources = Vec::new();
            for a in &p.allocations {
                let units = a.total_units();
                claims.insert(format!("resources.{}", a.kind), units.to_string());
                resources.push((a.kind.to_string(), units));
            }
            // Replication fulfillment is also claimable (§4: features
            // "cannot be verified with today's remote attestation
            // primitives" — UDC's extended quotes cover them).
            claims.insert("replicas".to_string(), p.replica_devices.len().to_string());
            let quote = rot.quote(nonce, claims);
            let expected_events = vec![
                "boot: udc-runtime v1".to_string(),
                format!("load: {}@{}", id, m.identity_hex()),
            ];
            let mut policy = policy_for_module(
                &expected_events,
                &isolation,
                p.env.single_tenant,
                &resources,
            );
            policy = policy.require("replicas", m.spec.dist.replication.to_string());
            report
                .modules
                .insert(id.clone(), check_quote(&verifier, &quote, &nonce, &policy));
        }
        if self.obs.is_enabled() {
            report.billing = Some(self.reconcile_billing(dep));
            self.obs.event(
                EventKind::Verification,
                Labels::tenant(self.tenant.as_str()),
                &[
                    ("verified", FieldValue::from(report.verified())),
                    ("failed", FieldValue::from(report.failed())),
                    ("not_verifiable", FieldValue::from(report.not_verifiable())),
                    (
                        "billing_consistent",
                        FieldValue::from(
                            report
                                .billing
                                .as_ref()
                                .map(|b| b.consistent())
                                .unwrap_or(true),
                        ),
                    ),
                ],
            );
        }
        report
    }

    /// Cross-checks what the provider billed this deployment (what
    /// `run` metered at the provider's prices of the moment) against the
    /// tenant's own record of what it owes.
    ///
    /// With economics attached, the expected number is what `run` debited
    /// the tenant ledger for the module — the append-only entries metered
    /// at the prices agreed at submit — so verification audits the
    /// actual system of record instead of recomputing costs from
    /// scratch. Without economics the seed behavior remains: the tenant
    /// recomputes from the metered holding windows at the submit-time
    /// prices. Per-slice rounding means recomputation is not bit-exact,
    /// so bills within 1% (or 2 micro-dollars absolute) pass either way.
    ///
    /// Both sides come from the deployment's own meter, never from the
    /// hub's counters or the ledger's per-module totals: those are keyed
    /// by module name and sum every deployment that ever used it.
    fn reconcile_billing(&self, dep: &Deployment) -> BillingReconciliation {
        let mut rec = BillingReconciliation {
            tolerance: 0.01,
            ..Default::default()
        };
        let ledgered = self.econ_gate.as_ref().is_some_and(|g| {
            let g = g.lock().expect("quota gate poisoned");
            g.account(&self.tenant).is_some()
        });
        let meter = dep.meter.borrow();
        // Empty when the deployment never ran with telemetry on: nothing
        // to check.
        for ((id, m), metered) in dep.placement.modules.iter().zip(meter.iter()) {
            let expected = if ledgered {
                metered.debited
            } else {
                dep.billing.price_module(&self.dc, m, metered.window_us)
            };
            let slack = (expected as f64 * rec.tolerance).max(2.0);
            rec.modules.insert(
                id.clone(),
                BillingCheck {
                    billed: metered.billed,
                    expected,
                    within_tolerance: metered.billed.abs_diff(expected) as f64 <= slack,
                },
            );
        }
        rec
    }

    /// One round of §3.2 runtime fine-tuning over a live deployment:
    /// feeds each module's usage (`observed_usage` maps module →
    /// fraction of its allocation actually used) to the tuner, lets it
    /// decide, and applies resizes/migrations to the live allocations.
    ///
    /// Returns the number of adjustments applied. Call repeatedly as
    /// telemetry arrives; the tuner's EWMA smooths noisy samples. The
    /// scheduler refuses to resize a module whose device failed since it
    /// was placed; the next [`UdcCloud::advance`] heals it instead.
    pub fn autoscale(
        &mut self,
        dep: &mut Deployment,
        tuner: &mut udc_sched::FineTuner,
        observed_usage: &BTreeMap<ModuleId, f64>,
    ) -> usize {
        let _span = self.obs.span("cloud.autoscale");
        for (id, usage) in observed_usage {
            tuner.observe(id.as_str(), *usage);
        }
        let mut applied = 0;
        let ids: Vec<ModuleId> = dep.placement.modules.keys().cloned().collect();
        for id in ids {
            let (current_units, device, kind) = {
                let p = &dep.placement.modules[&id];
                (
                    p.allocations[0].total_units(),
                    p.primary_device,
                    p.placed_kind,
                )
            };
            let headroom = self
                .dc
                .pool(kind)
                .and_then(|pool| pool.device(device))
                .map(|d| d.free_for(&self.tenant))
                .unwrap_or(0);
            let Some(action) = tuner.evaluate(id.as_str(), current_units, headroom) else {
                continue;
            };
            let (action_name, action_units) = match &action {
                udc_sched::TuneAction::Resize { to_units, .. } => ("resize", *to_units),
                udc_sched::TuneAction::Migrate { units, .. } => ("migrate", *units),
            };
            dep.footprint = None;
            let p = dep.placement.modules.get_mut(&id).expect("module placed");
            let result = match action {
                udc_sched::TuneAction::Resize { to_units, .. } => {
                    self.scheduler.resize(&mut self.dc, p, to_units)
                }
                udc_sched::TuneAction::Migrate { units, .. } => {
                    self.scheduler.migrate(&mut self.dc, p, units)
                }
            };
            if result.is_ok() {
                applied += 1;
                self.obs.incr(
                    "core.autoscale_actions",
                    Labels::tenant(self.tenant.as_str()),
                    1,
                );
                self.obs.event(
                    EventKind::Autoscale,
                    Labels::module(self.tenant.as_str(), id.as_str()),
                    &[
                        ("action", FieldValue::from(action_name)),
                        ("from_units", FieldValue::from(current_units)),
                        ("to_units", FieldValue::from(action_units)),
                    ],
                );
            }
        }
        applied
    }

    /// Tears down a deployment: stops environments and releases every
    /// allocation. Idempotent.
    pub fn teardown(&mut self, dep: &mut Deployment) {
        if dep.released {
            return;
        }
        for env in dep.environments.values_mut() {
            if env.state == EnvState::Running {
                env.stop();
            }
        }
        self.scheduler.release_app(&mut self.dc, &dep.placement);
        dep.footprint = None;
        // Return the admission footprint to the tenant's quota (the
        // scheduler committed it when placement succeeded).
        if let Some(gate) = &self.econ_gate {
            gate.lock()
                .expect("quota gate poisoned")
                .release(&self.tenant, &dep.placement.admitted_demand);
        }
        dep.released = true;
        if self.obs.is_enabled() {
            self.obs.event(
                EventKind::Teardown,
                Labels::tenant(self.tenant.as_str()),
                &[
                    ("app", FieldValue::from(dep.ir.app.name.as_str())),
                    ("modules", FieldValue::from(dep.placement.modules.len())),
                ],
            );
        }
    }

    /// Data-movement metric for a deployment (experiment E13).
    pub fn movement(&self, dep: &Deployment) -> (u64, u64) {
        data_movement(&self.dc, &dep.ir.app, &dep.placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udc_spec::{
        DataProtection, DataSpec, DistributedAspect, ExecEnvAspect, IsolationLevel, ResourceAspect,
        ResourceKind, TaskSpec,
    };

    fn small_app() -> AppSpec {
        let mut app = AppSpec::new("demo");
        app.add_task(
            TaskSpec::new("A1")
                .with_resource(ResourceAspect::default().with_demand(ResourceKind::Cpu, 2))
                .with_work(100),
        );
        app.add_task(
            TaskSpec::new("A2")
                .with_resource(ResourceAspect::default().with_demand(ResourceKind::Cpu, 2))
                .with_work(200),
        );
        app.add_data(
            DataSpec::new("S1")
                .with_bytes(8 << 20)
                .with_exec_env(
                    ExecEnvAspect::default().with_protection(DataProtection::ENCRYPT_AND_INTEGRITY),
                )
                .with_dist(DistributedAspect::default().replication(2)),
        );
        app.add_edge("A1", "A2", EdgeKind::Dependency).unwrap();
        app.add_edge("A2", "S1", EdgeKind::Access).unwrap();
        app
    }

    #[test]
    fn submit_run_teardown_cycle() {
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let mut dep = cloud.submit(&small_app()).unwrap();
        assert_eq!(dep.environments.len(), 3);
        assert_eq!(dep.objects.len(), 3);
        let report = cloud.run(&dep);
        assert!(report.makespan_us > 0);
        assert!(report.cost.total > 0);
        assert_eq!(report.timings.len(), 3);
        cloud.teardown(&mut dep);
        // All capacity returned.
        for kind in ResourceKind::ALL {
            if let Some(pool) = cloud.datacenter().pool(kind) {
                assert_eq!(pool.total_used(), 0, "{kind} leaked");
            }
        }
        // Idempotent.
        cloud.teardown(&mut dep);
    }

    #[test]
    fn dependencies_serialize_execution() {
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let dep = cloud.submit(&small_app()).unwrap();
        let report = cloud.run(&dep);
        let (a1_start, a1_end) = report.timings[&ModuleId::from("A1")];
        let (a2_start, _) = report.timings[&ModuleId::from("A2")];
        assert!(a2_start >= a1_end, "A2 must wait for A1");
        assert_eq!(a1_start, 0);
    }

    #[test]
    fn protected_data_is_sealed() {
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let dep = cloud.submit(&small_app()).unwrap();
        let report = cloud.run(&dep);
        assert_eq!(report.sealed_messages, 1, "one protected access edge");
        assert_eq!(report.sealed_bytes, 8 << 20);
    }

    #[test]
    fn nonces_never_repeat_under_one_key() {
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let first = cloud.submit(&small_app()).unwrap();
        // A second deployment whose data module has the same id, so its
        // data key is the same as the first deployment's.
        let second = cloud.submit(&small_app()).unwrap();
        assert_eq!(first.data_keys, second.data_keys);
        for dep in [&first, &first, &second] {
            assert_eq!(cloud.run(dep).sealed_messages, 1);
        }
        let pairs = &cloud.sealed_under;
        assert_eq!(pairs.len(), 3);
        let distinct: std::collections::BTreeSet<_> =
            pairs.iter().map(|(key, nonce)| (key, nonce.0)).collect();
        assert_eq!(distinct.len(), pairs.len(), "a (key, nonce) pair repeated");
    }

    #[test]
    fn unprotected_data_not_sealed() {
        let mut app = AppSpec::new("plain");
        app.add_task(TaskSpec::new("A1").with_work(10));
        app.add_data(DataSpec::new("S1").with_bytes(1024));
        app.add_edge("A1", "S1", EdgeKind::Access).unwrap();
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let dep = cloud.submit(&app).unwrap();
        let report = cloud.run(&dep);
        assert_eq!(report.sealed_messages, 0);
    }

    #[test]
    fn verification_of_strongest_isolation() {
        let mut app = AppSpec::new("secure");
        app.add_task(
            TaskSpec::new("A1")
                .with_resource(ResourceAspect::default().with_demand(ResourceKind::Cpu, 4))
                .with_exec_env(ExecEnvAspect::isolation(IsolationLevel::Strongest))
                .with_work(50),
        );
        app.add_task(TaskSpec::new("B1").with_work(10)); // Weak: not verifiable.
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let dep = cloud.submit(&app).unwrap();
        let report = cloud.verify_deployment(&dep);
        assert_eq!(
            report.modules[&ModuleId::from("A1")],
            ModuleVerification::Verified
        );
        assert_eq!(
            report.modules[&ModuleId::from("B1")],
            ModuleVerification::NotVerifiable
        );
        assert!(report.all_fulfilled());
    }

    #[test]
    fn a_late_enrolled_device_attests_under_its_own_key() {
        use udc_crypto::attest::AttestationPolicy;

        // A TEE module only the late device can host: every CPU device
        // the default datacenter was built with has 64 cores.
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let late = cloud.datacenter_mut().add_device(ResourceKind::Cpu, 128);
        let mut app = AppSpec::new("late");
        app.add_task(
            TaskSpec::new("A1")
                .with_resource(ResourceAspect::default().with_demand(ResourceKind::Cpu, 100))
                .with_exec_env(ExecEnvAspect::isolation(IsolationLevel::Strongest)),
        );
        let dep = cloud.submit(&app).unwrap();
        let id = ModuleId::from("A1");
        assert_eq!(dep.placement.modules[&id].primary_device, late);
        assert_eq!(
            cloud.verify_deployment(&dep).modules[&id],
            ModuleVerification::Verified
        );

        // The quote is signed with the key fused into that device — a
        // tenant trusting the manufacturer's key for it accepts the
        // quote, one trusting the all-zero key does not.
        let rot = dep.environments[&id].root_of_trust().expect("a TEE");
        let nonce = [7u8; 32];
        let quote = rot.quote(nonce, BTreeMap::new());
        let verdict = |key: [u8; 32]| {
            let mut verifier = Verifier::new();
            verifier.trust_device(rot.device_id(), key);
            verifier.verify(&quote, &nonce, &AttestationPolicy::default())
        };
        assert_eq!(verdict(device_key(late)), Ok(()));
        assert!(verdict([0u8; 32]).is_err());
    }

    #[test]
    fn exact_fit_allocation_matches_demand() {
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let dep = cloud.submit(&small_app()).unwrap();
        let allocated = dep.placement.allocated_vector();
        assert_eq!(allocated.get(ResourceKind::Cpu), 4, "2 + 2 cores exactly");
        // 8 MiB × 2 replicas on storage.
        assert_eq!(allocated.get(ResourceKind::Ssd), 16);
    }

    #[test]
    fn conflict_error_policy_rejects_at_submit() {
        use udc_spec::ConsistencyLevel;
        let mut app = AppSpec::new("c");
        app.add_task(TaskSpec::new("A"));
        app.add_task(TaskSpec::new("B"));
        app.add_data(DataSpec::new("S"));
        app.add_access_with("A", "S", Some(ConsistencyLevel::Sequential), None)
            .unwrap();
        app.add_access_with("B", "S", Some(ConsistencyLevel::Release), None)
            .unwrap();
        let mut cloud = UdcCloud::new(CloudConfig {
            conflict_policy: ConflictPolicy::Error,
            ..Default::default()
        });
        assert!(matches!(
            cloud.submit(&app),
            Err(CloudError::Spec(SpecError::Conflict(_)))
        ));
    }

    #[test]
    fn replicated_data_has_fanned_out_object() {
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let dep = cloud.submit(&small_app()).unwrap();
        let s1 = dep
            .objects
            .iter()
            .find(|o| o.module == ModuleId::from("S1"))
            .unwrap();
        assert_eq!(s1.fan_out(), 2);
        let devices = s1.devices();
        assert_ne!(devices[0], devices[1]);
    }

    #[test]
    fn telemetry_reconciles_over_indexed_pools() {
        // Regression guard for the indexed-pool rewrite: pool-level
        // gauges and held slices must still reconcile exactly with the
        // (now O(1)) pool accounting, through verification and teardown.
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let obs = cloud.enable_telemetry();
        let mut dep = cloud.submit(&small_app()).unwrap();
        cloud.run(&dep);
        cloud.datacenter().observe_pool_levels();

        let held: u64 = dep
            .placement
            .modules
            .values()
            .flat_map(|m| m.allocations.iter())
            .map(|a| a.total_units())
            .sum();
        let mut used_total = 0;
        for kind in ResourceKind::ALL {
            let Some(pool) = cloud.datacenter().pool(kind) else {
                continue;
            };
            let used = pool.total_used();
            used_total += used;
            let name = format!("hal.pool.{}.used_units", kind.name());
            match obs.gauge(&name, &Labels::none()) {
                Some((value, hwm)) => {
                    assert_eq!(value as u64, used, "{kind} gauge out of sync");
                    assert!(hwm >= value);
                }
                None => assert_eq!(used, 0, "{kind} used but never observed"),
            }
        }
        assert_eq!(held, used_total, "held slices must equal pool accounting");

        let report = cloud.verify_deployment(&dep);
        assert!(report.all_fulfilled());

        cloud.teardown(&mut dep);
        cloud.datacenter().observe_pool_levels();
        for kind in ResourceKind::ALL {
            let name = format!("hal.pool.{}.used_units", kind.name());
            if let Some((value, _)) = obs.gauge(&name, &Labels::none()) {
                assert_eq!(value, 0, "{kind} gauge must drain on teardown");
            }
        }
    }

    #[test]
    fn honest_billing_reconciles_within_tolerance() {
        let mut cloud = UdcCloud::new(CloudConfig::default());
        cloud.enable_telemetry();
        let dep = cloud.submit(&small_app()).unwrap();
        cloud.run(&dep);
        let report = cloud.verify_deployment(&dep);
        let rec = report.billing.as_ref().expect("reconciliation ran");
        assert!(!rec.modules.is_empty());
        assert!(rec.consistent(), "honest bill flagged: {rec:?}");
        assert!(report.all_fulfilled());
    }

    #[test]
    fn injected_overbilling_is_flagged() {
        let mut cloud = UdcCloud::new(CloudConfig::default());
        cloud.enable_telemetry();
        let dep = cloud.submit(&small_app()).unwrap();
        // The provider silently raises prices after the deployment was
        // accepted: run-time charges use the inflated model while the
        // deployment still carries the advertised one.
        cloud.billing.price_multiplier = 1.5;
        cloud.run(&dep);
        let report = cloud.verify_deployment(&dep);
        let rec = report.billing.as_ref().expect("reconciliation ran");
        assert!(!rec.consistent());
        assert!(!rec.flagged().is_empty(), "over-billed modules flagged");
        assert!(!report.all_fulfilled(), "verification must flag the bill");
    }

    #[test]
    fn a_refused_multi_module_submit_holds_no_capacity_or_quota() {
        use udc_economics::{PlanSpec, QuotaGate};
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let mut gate = QuotaGate::new();
        gate.open_account("tenant", PlanSpec::unlimited("open"), 0);
        let gate = udc_economics::shared(gate);
        cloud.attach_economics(gate.clone());
        // A standing deployment, so the baseline is not all zeros.
        cloud.submit(&small_app()).unwrap();
        let in_use = || {
            gate.lock()
                .unwrap()
                .account("tenant")
                .unwrap()
                .in_use
                .clone()
        };
        let (capacity_before, quota_before) = (cloud.datacenter().utilization_report(), in_use());

        // The weights and the two CPU stages place; the GPU stage cannot.
        let mut app = udc_workload::ml_serving_chain(1);
        let infer = app.modules.get_mut(&ModuleId::from("infer")).unwrap();
        infer.resource.demand.set(ResourceKind::Gpu, 1 << 40);
        match cloud.submit(&app) {
            Err(CloudError::Sched(SchedError::Alloc { module, .. })) => assert_eq!(module, "infer"),
            other => panic!(
                "expected the GPU stage to be refused, got {:?}",
                other.err()
            ),
        }
        assert_eq!(cloud.datacenter().utilization_report(), capacity_before);
        assert_eq!(in_use(), quota_before);
    }

    #[test]
    fn teardown_releases_exactly_the_quota_submit_held() {
        use udc_economics::{PlanSpec, QuotaGate};
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let mut gate = QuotaGate::new();
        gate.open_account("tenant", PlanSpec::unlimited("open"), 0);
        let gate = udc_economics::shared(gate);
        cloud.attach_economics(gate.clone());
        let in_use = || {
            gate.lock()
                .unwrap()
                .account("tenant")
                .unwrap()
                .in_use
                .clone()
        };
        let before = in_use();

        // Strictest-wins raises S2 to S1's three replicas, so the
        // admitted footprint is larger than the raw spec's.
        let mut app = AppSpec::new("leak");
        app.add_task(TaskSpec::new("A"));
        for (id, replicas) in [("S1", 3), ("S2", 2)] {
            app.add_data(
                DataSpec::new(id).with_dist(
                    DistributedAspect::default()
                        .replication(replicas)
                        .failure_domain("d0"),
                ),
            );
        }
        let mut dep = cloud.submit(&app).unwrap();
        let held = in_use();
        assert_eq!(held.get(ResourceKind::Ssd), 6);
        assert_eq!(dep.placement.admitted_demand, held);
        cloud.teardown(&mut dep);
        assert_eq!(in_use(), before);
    }

    #[test]
    fn ledger_reconciliation_matches_honest_billing_exactly() {
        use udc_economics::{PlanSpec, QuotaGate};
        let mut cloud = UdcCloud::new(CloudConfig::default());
        cloud.enable_telemetry();
        let mut gate = QuotaGate::new();
        gate.open_account("tenant", PlanSpec::unlimited("open"), 0);
        let gate = udc_economics::shared(gate);
        cloud.attach_economics(gate.clone());

        let dep = cloud.submit(&small_app()).unwrap();
        cloud.run(&dep);
        let report = cloud.verify_deployment(&dep);
        let rec = report.billing.as_ref().expect("reconciliation ran");
        assert!(!rec.modules.is_empty());
        // With a ledger attached the reconciler compares against posted
        // debits rather than recomputing, so honest billing matches to
        // the micro-dollar.
        assert!(rec.consistent(), "ledger-reconciled bill flagged: {rec:?}");
        let g = gate.lock().unwrap();
        let acct = g.account("tenant").unwrap();
        assert!(
            acct.ledger.total_debits() > 0,
            "usage windows were metered into the ledger"
        );
        assert!(acct.ledger.conservation_holds());
    }

    #[test]
    fn ledger_reconciliation_flags_post_agreement_price_raise() {
        use udc_economics::{PlanSpec, QuotaGate};
        let mut cloud = UdcCloud::new(CloudConfig::default());
        cloud.enable_telemetry();
        let mut gate = QuotaGate::new();
        gate.open_account("tenant", PlanSpec::unlimited("open"), 0);
        cloud.attach_economics(udc_economics::shared(gate));

        let dep = cloud.submit(&small_app()).unwrap();
        // Silent price raise after agreement: provider-side counters
        // bill at the new model, but the ledger debits at the prices
        // the deployment was accepted under — the mismatch is fraud.
        cloud.billing.price_multiplier = 2.0;
        cloud.run(&dep);
        let report = cloud.verify_deployment(&dep);
        let rec = report.billing.as_ref().expect("reconciliation ran");
        assert!(!rec.consistent(), "price raise must be flagged");
        assert!(!rec.flagged().is_empty());
        assert!(!report.all_fulfilled());
    }

    /// The same module name deployed twice on one cloud: the second
    /// deployment's bill is checked against its own windows and prices,
    /// not against what the hub has metered under that name in total.
    #[test]
    fn a_redeployed_module_name_reconciles_only_its_own_bill() {
        let one_task = |cpus: u64| {
            let mut app = AppSpec::new("probe");
            app.add_task(
                TaskSpec::new("A1")
                    .with_resource(ResourceAspect::default().with_demand(ResourceKind::Cpu, cpus))
                    .with_work(30),
            );
            app
        };
        let mut cloud = UdcCloud::new(CloudConfig::default());
        cloud.enable_telemetry();
        let mut first = cloud.submit(&one_task(2)).unwrap();
        cloud.run(&first);
        cloud.teardown(&mut first);
        let second = cloud.submit(&one_task(8)).unwrap();
        cloud.run(&second);
        let report = cloud.verify_deployment(&second);
        let rec = report.billing.as_ref().expect("reconciliation ran");
        assert_eq!(rec.modules.len(), 1);
        assert!(rec.consistent(), "honest bill flagged: {rec:?}");
    }

    /// Two live deployments with the same module names and one ledger: a
    /// price raise around the second one's `run` is flagged on the
    /// second deployment and on no module of the first.
    #[test]
    fn a_price_raise_is_flagged_only_on_the_deployment_it_hit() {
        use udc_economics::{PlanSpec, QuotaGate};
        let mut cloud = UdcCloud::new(CloudConfig::default());
        cloud.enable_telemetry();
        let mut gate = QuotaGate::new();
        gate.open_account("tenant", PlanSpec::unlimited("open"), 0);
        cloud.attach_economics(udc_economics::shared(gate));

        let first = cloud.submit(&small_app()).unwrap();
        cloud.run(&first);
        let second = cloud.submit(&small_app()).unwrap();
        let agreed = cloud.billing.price_multiplier;
        cloud.billing.price_multiplier = 2.0;
        cloud.run(&second);
        cloud.billing.price_multiplier = agreed;

        let first_rec = cloud.verify_deployment(&first).billing.unwrap();
        assert!(first_rec.consistent(), "honest bill flagged: {first_rec:?}");
        let second_rec = cloud.verify_deployment(&second).billing.unwrap();
        assert!(!second_rec.consistent(), "price raise not flagged");
    }

    #[test]
    fn work_that_would_overflow_a_run_is_refused_at_submit() {
        let app = udc_spec::parse_app(
            "app huge {
               task a { work = 18446744073709551615 }
               task b { work = 18446744073709551615 }
               edge a -> b
             }",
        )
        .unwrap();
        let mut cloud = UdcCloud::new(CloudConfig::default());
        match cloud.submit(&app) {
            Err(CloudError::Spec(SpecError::InvalidModule { module, reason })) => {
                assert_eq!(module, "a");
                assert!(reason.contains("exceeds maximum"), "{reason}");
            }
            other => panic!("expected a refusal, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn the_bill_the_ledger_and_the_counters_share_one_holding_time() {
        use udc_economics::{PlanSpec, QuotaGate};
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let hub = cloud.enable_telemetry();
        let mut gate = QuotaGate::new();
        gate.open_account("tenant", PlanSpec::unlimited("open"), 0);
        let gate = udc_economics::shared(gate);
        cloud.attach_economics(gate.clone());
        let dep = cloud.submit(&small_app()).unwrap();
        let report = cloud.run(&dep);
        let g = gate.lock().unwrap();
        let ledger = &g.account("tenant").unwrap().ledger;
        let mut billed = 0;
        for (id, m) in &dep.placement.modules {
            // Tasks hold for their own window, the data module for the run.
            let held = match id.as_str() {
                "S1" => report.makespan_us,
                _ => report.timings[id].1 - report.timings[id].0,
            };
            let labels = Labels::module("tenant", id.as_str());
            assert_eq!(hub.counter("core.module_window_us", &labels), held, "{id}");
            let price = cloud.billing.price_module(&cloud.dc, m, held);
            assert_eq!(hub.counter("core.billed_microdollars", &labels), price);
            assert_eq!(ledger.debits_for_module(id.as_str()), price);
            billed += price;
        }
        assert_eq!(report.cost.total, billed);
    }

    #[test]
    fn billing_reflects_price_multiplier() {
        let mut base_cloud = UdcCloud::new(CloudConfig::default());
        let dep = base_cloud.submit(&small_app()).unwrap();
        let base = base_cloud.run(&dep);

        let mut pricey_cloud = UdcCloud::new(CloudConfig {
            billing: BillingModel {
                price_multiplier: 1.4,
                ..Default::default()
            },
            ..Default::default()
        });
        let dep2 = pricey_cloud.submit(&small_app()).unwrap();
        let pricey = pricey_cloud.run(&dep2);
        assert!(pricey.cost.total > base.cost.total);
    }
}

#[cfg(test)]
mod autoscale_tests {
    use super::*;
    use udc_sched::FineTuner;
    use udc_spec::{AppSpec, ResourceAspect, ResourceKind, TaskSpec};

    fn one_task(cores: u64) -> AppSpec {
        let mut app = AppSpec::new("a");
        app.add_task(
            TaskSpec::new("T")
                .with_resource(ResourceAspect::default().with_demand(ResourceKind::Cpu, cores)),
        );
        app
    }

    #[test]
    fn autoscale_grows_starved_module() {
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let mut dep = cloud.submit(&one_task(4)).unwrap();
        let mut tuner = FineTuner::default();
        let mut usage = BTreeMap::new();
        // The module is saturated: needs more than its 4 cores.
        usage.insert(ModuleId::from("T"), 1.5f64);
        let applied = cloud.autoscale(&mut dep, &mut tuner, &usage);
        assert_eq!(applied, 1);
        let units = dep.placement.modules[&ModuleId::from("T")].allocations[0].total_units();
        assert!(units > 4, "grown to {units}");
        cloud.teardown(&mut dep);
    }

    #[test]
    fn autoscale_shrinks_idle_module_over_rounds() {
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let mut dep = cloud.submit(&one_task(32)).unwrap();
        let mut tuner = FineTuner::default();
        for _ in 0..6 {
            let units = dep.placement.modules[&ModuleId::from("T")].allocations[0].total_units();
            let mut usage = BTreeMap::new();
            usage.insert(ModuleId::from("T"), 4.0 / units as f64);
            cloud.autoscale(&mut dep, &mut tuner, &usage);
        }
        let final_units = dep.placement.modules[&ModuleId::from("T")].allocations[0].total_units();
        assert!(final_units < 16, "shrunk from 32 to {final_units}");
        // Usage of the true need (4 cores) is now inside the band.
        assert!(4.0 / final_units as f64 >= 0.4);
        cloud.teardown(&mut dep);
    }

    #[test]
    fn autoscale_between_a_flap_and_the_heal_frees_nothing() {
        use udc_hal::{FailureEvent, FailurePlan};
        let cpu_used = |cloud: &UdcCloud| {
            cloud
                .datacenter()
                .pool(ResourceKind::Cpu)
                .unwrap()
                .total_used()
        };
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let mut dep = cloud.submit(&one_task(8)).unwrap();
        let mut other = cloud.submit(&one_task(4)).unwrap();
        let device = dep.placement.modules[&ModuleId::from("T")].primary_device;
        let now = cloud.datacenter().clock().now();
        cloud
            .datacenter_mut()
            .set_failure_plan(FailurePlan::from_events(
                [(1, true), (2, false)]
                    .map(|(dt, crash)| FailureEvent {
                        at_us: now + dt,
                        device,
                        crash,
                    })
                    .to_vec(),
            ));
        // `other` sees the flap and heals; `dep` has not looked yet.
        cloud.advance(&mut other, 10);
        let before = cpu_used(&cloud);
        let mut tuner = FineTuner::default();
        let usage = BTreeMap::from([(ModuleId::from("T"), 0.1f64)]);
        assert_eq!(cloud.autoscale(&mut dep, &mut tuner, &usage), 0);
        assert_eq!(cpu_used(&cloud), before, "no other module's units freed");
        cloud.advance(&mut dep, 0);
        cloud.teardown(&mut dep);
        cloud.teardown(&mut other);
        assert_eq!(cpu_used(&cloud), 0);
    }

    #[test]
    fn autoscale_in_band_module_untouched() {
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let mut dep = cloud.submit(&one_task(8)).unwrap();
        let mut tuner = FineTuner::default();
        let mut usage = BTreeMap::new();
        usage.insert(ModuleId::from("T"), 0.7f64);
        let applied = cloud.autoscale(&mut dep, &mut tuner, &usage);
        assert_eq!(applied, 0);
        cloud.teardown(&mut dep);
    }
}
