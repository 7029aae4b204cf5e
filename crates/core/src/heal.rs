//! The self-healing repair loop (§3.4).
//!
//! Users "define how failures are handled for each domain (e.g.,
//! whether to re-execute a module or recover from a user-defined
//! checkpoint)" — but a definition is worthless unless the provider
//! closes the loop from an injected hardware failure back to a
//! converged, verifiable deployment. [`UdcCloud::advance`] is that
//! loop: it drains crash/repair events from the datacenter and drives
//! every impacted module through a traced state machine:
//!
//! ```text
//!            device crash
//!                 │
//!                 ▼
//!   Healthy ──► detect ──► evict ──► re-place ──► re-launch ──► recover ──► Healthy
//!                 │                     │
//!                 │              alloc fails: bounded retries,
//!                 │              exponential backoff + seeded jitter
//!                 │                     │ retries exhausted
//!                 │                     ▼
//!                 └────────────────► Degraded ──(capacity repaired)──► re-place …
//! ```
//!
//! Every transition is observable: repairs run under `heal.detect` /
//! `heal.replace` / `heal.recover` spans joined to one `cloud.heal`
//! trace, candidate rejections carry the `evicted` / `crash_excluded` /
//! `degraded` reason codes, and the hub records an MTTR histogram plus
//! eviction / retry / replayed-message counters.

use std::collections::{BTreeMap, BTreeSet};

use crate::cloud::{Deployment, UdcCloud};
use udc_dist::{RecoveryOutcome, RecoveryStrategy};
use udc_economics::LifecycleEvent;
use udc_failure::mix64;
use udc_hal::DeviceId;
use udc_sched::ModulePlacement;
use udc_spec::{FailureHandling, ModuleId};
use udc_telemetry::{Decision, EventKind, FieldValue, Labels, Micros, ReasonCode};

/// Modelled cost of re-processing one replayed message (matches E9).
pub const MSG_COST_US: u64 = 1_000;
/// Modelled cost of restoring a checkpoint snapshot (matches E9).
pub const RESTORE_COST_US: u64 = 50_000;

/// First re-placement retry delay; attempt `n` waits `BASE << (n-1)`
/// (capped at [`MAX_BACKOFF_US`]).
const BASE_BACKOFF_US: Micros = 10_000;
/// Ceiling on the exponential retry backoff.
const MAX_BACKOFF_US: Micros = 5_000_000;
/// Seed for the deterministic retry jitter (same seed → identical
/// schedules, which keeps chaos artifacts byte-reproducible).
const JITTER_SEED: u64 = 0x75dc_c0de;

/// The audit's account of a newly suspected device, and of a cleared one.
const SILENT: &str = "heartbeats silent past one lease; no eviction";
const BEAT: &str = "false suspect: beat again before confirmation; returned to service";

/// Where a module stands in the repair state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModuleHealth {
    /// Placed, launched, allocations all on live devices.
    Healthy,
    /// Lost to a crash; a re-placement attempt is scheduled.
    Repairing {
        /// Failed re-placement attempts so far.
        attempt: u32,
        /// Sim-clock time of the next attempt.
        next_retry_us: Micros,
        /// When the crash was detected (MTTR epoch).
        detected_us: Micros,
    },
    /// Retries exhausted, or the tenant suspended: the module runs nowhere
    /// until capacity returns, or the tenant pays, and healing resumes.
    Degraded {
        /// When the crash was detected (MTTR epoch, preserved across
        /// the degraded interval so MTTR stays honest).
        detected_us: Micros,
    },
}

/// Per-deployment repair state: one [`ModuleHealth`] per module that
/// has ever been impacted (absent = healthy).
#[derive(Debug, Clone)]
pub struct HealthState {
    /// Retries a module gets after a failed re-placement: the failure
    /// past them declares it [`ModuleHealth::Degraded`] (default 5, so
    /// the sixth failed attempt; public so harnesses can tighten it).
    pub max_retries: u32,
    modules: BTreeMap<ModuleId, ModuleHealth>,
}

impl Default for HealthState {
    fn default() -> Self {
        Self {
            max_retries: 5,
            modules: BTreeMap::new(),
        }
    }
}

impl HealthState {
    /// The module's current health (absent entries are healthy).
    pub fn module(&self, id: &ModuleId) -> ModuleHealth {
        self.modules
            .get(id)
            .copied()
            .unwrap_or(ModuleHealth::Healthy)
    }

    /// True when every module is healthy.
    pub fn is_converged(&self) -> bool {
        self.modules.is_empty()
    }

    /// Modules currently degraded, in id order.
    pub fn degraded_modules(&self) -> Vec<ModuleId> {
        self.modules
            .iter()
            .filter(|(_, h)| matches!(h, ModuleHealth::Degraded { .. }))
            .map(|(id, _)| id.clone())
            .collect()
    }

    /// Modules with an in-flight repair, in id order.
    pub fn repairing_modules(&self) -> Vec<ModuleId> {
        self.modules
            .iter()
            .filter(|(_, h)| matches!(h, ModuleHealth::Repairing { .. }))
            .map(|(id, _)| id.clone())
            .collect()
    }

    fn due_repairs(&self, now: Micros) -> Vec<ModuleId> {
        self.modules
            .iter()
            .filter(|(_, h)| matches!(h, ModuleHealth::Repairing { next_retry_us, .. } if *next_retry_us <= now))
            .map(|(id, _)| id.clone())
            .collect()
    }

    /// When an unhealthy module's repair began: its MTTR epoch.
    fn detected_us(&self, id: &ModuleId) -> Option<Micros> {
        match self.modules.get(id)? {
            ModuleHealth::Repairing { detected_us, .. }
            | ModuleHealth::Degraded { detected_us } => Some(*detected_us),
            ModuleHealth::Healthy => None,
        }
    }

    /// Schedules re-placement attempt `attempt` at `at`. A healthy
    /// module is detected lost at `at`; an unhealthy one — retrying, or
    /// degraded until capacity came back or its tenant paid — keeps its
    /// MTTR epoch, so MTTR spans the whole outage.
    fn schedule(&mut self, id: &ModuleId, attempt: u32, at: Micros) {
        let detected_us = self.detected_us(id).unwrap_or(at);
        let health = ModuleHealth::Repairing {
            attempt,
            next_retry_us: at,
            detected_us,
        };
        self.modules.insert(id.clone(), health);
    }

    /// Parks the module, holding nothing, until capacity returns (its
    /// retries ran out) or its tenant pays (it was suspended). It keeps
    /// its MTTR epoch, or starts one `now`.
    fn degrade(&mut self, id: &ModuleId, now: Micros) {
        let detected_us = self.detected_us(id).unwrap_or(now);
        self.modules
            .insert(id.clone(), ModuleHealth::Degraded { detected_us });
    }

    /// Marks the module healthy again (forgetting it), returning
    /// (attempts, detected_us).
    fn repair_complete(&mut self, id: &ModuleId) -> (u32, Micros) {
        match self.modules.remove(id) {
            Some(ModuleHealth::Repairing {
                attempt,
                detected_us,
                ..
            }) => (attempt, detected_us),
            _ => (0, 0),
        }
    }
}

/// One completed module repair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleRepair {
    /// The healed module.
    pub module: ModuleId,
    /// Failed attempts before this one succeeded.
    pub attempts: u32,
    /// The device the module healed onto.
    pub new_device: DeviceId,
    /// Detection-to-recovered time, including the modelled replay /
    /// restore cost (the sim clock is tick-driven; recovery work is
    /// costed, not advanced).
    pub mttr_us: Micros,
    /// State recovery outcome (None when the module had no recoverable
    /// state seeded in the deployment's [`udc_dist::RecoveryModel`]).
    pub recovery: Option<RecoveryOutcome>,
}

/// What one [`UdcCloud::advance`] call did.
///
/// The device fields and `false_suspects` are
/// cloud-wide: what this call *sensed*, so only the call that moved the
/// clock (or drained newly due events) carries them. The module fields
/// and `evicted_allocations` describe the deployment passed in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealReport {
    /// Devices that crashed this interval.
    pub crashed_devices: Vec<DeviceId>,
    /// Devices that came back this interval.
    pub repaired_devices: Vec<DeviceId>,
    /// Modules newly detected as lost.
    pub detected: Vec<ModuleId>,
    /// Allocations freed during eviction.
    pub evicted_allocations: u64,
    /// Modules healed to completion this interval.
    pub repaired: Vec<ModuleRepair>,
    /// Modules whose re-placement failed and was rescheduled.
    pub retried: Vec<ModuleId>,
    /// Modules that exhausted retries and entered degraded mode.
    pub degraded: Vec<ModuleId>,
    /// Modules evicted because the tenant's account was suspended.
    pub suspended: Vec<ModuleId>,
    /// Modules scheduled for re-placement after payment reinstated the
    /// account (they then show up in `repaired` as healing completes).
    pub reinstated: Vec<ModuleId>,
    /// Devices newly suspected by the lease detector this interval
    /// (empty under omniscient detection).
    pub suspected: Vec<DeviceId>,
    /// Devices whose failure the lease detector newly confirmed this
    /// interval — these (and only these) drive eviction in lease mode.
    pub confirmed: Vec<DeviceId>,
    /// Devices that returned to service after suspicion or confirmation
    /// (a fresh heartbeat arrived).
    pub resurrected: Vec<DeviceId>,
    /// Devices whose heartbeats came back from a new boot without any
    /// confirmation covering the crash: alive, but what they held is
    /// lost, so their modules are evicted and re-placed.
    pub restarted: Vec<DeviceId>,
    /// Devices that were suspected but turned out alive (resurrected
    /// without ever being confirmed) — the cost of gray faults.
    pub false_suspects: u64,
}

impl HealReport {
    /// True when the interval needed no repair work at all.
    pub fn is_quiet(&self) -> bool {
        self.crashed_devices.is_empty()
            && self.repaired_devices.is_empty()
            && self.detected.is_empty()
            && self.repaired.is_empty()
            && self.retried.is_empty()
            && self.degraded.is_empty()
            && self.suspended.is_empty()
            && self.reinstated.is_empty()
            && self.suspected.is_empty()
            && self.confirmed.is_empty()
            && self.resurrected.is_empty()
            && self.restarted.is_empty()
            && self.false_suspects == 0
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Exponential backoff with deterministic jitter: attempt `n` waits
/// `min(base << (n-1), max)` plus a seeded jitter of up to a quarter of
/// that, so concurrent repairs don't thundering-herd while identical
/// seeds still produce identical schedules.
pub fn backoff_delay_us(module: &ModuleId, attempt: u32) -> Micros {
    let shift = attempt.saturating_sub(1).min(32);
    let raw = BASE_BACKOFF_US
        .saturating_mul(1u64 << shift)
        .min(MAX_BACKOFF_US);
    let jitter_space = raw / 4 + 1;
    let h = mix64(JITTER_SEED ^ fnv1a(module.as_str().as_bytes()) ^ attempt as u64);
    raw + h % jitter_space
}

/// Every device a module's placement touches: its slices' and its
/// replicas' (with repeats).
fn module_devices(p: &ModulePlacement) -> impl Iterator<Item = DeviceId> + '_ {
    let slices = p.allocations.iter().flat_map(|a| a.devices());
    slices.chain(p.replica_devices.iter().copied())
}

/// `dep`'s footprint: every device of its placement, sorted, once.
fn footprint_of(dep: &Deployment) -> Vec<DeviceId> {
    let mut devices: Vec<DeviceId> = dep
        .placement
        .modules
        .values()
        .flat_map(module_devices)
        .collect();
    devices.sort_unstable();
    devices.dedup();
    devices
}

/// The placed modules no repair has in hand, in id order.
fn healthy_modules(dep: &Deployment) -> Vec<ModuleId> {
    let placed = dep.placement.modules.keys();
    let healthy = placed.filter(|id| dep.health.module(id) == ModuleHealth::Healthy);
    healthy.cloned().collect()
}

/// The cloud's belief, and every fact `UdcCloud::sense` recorded,
/// stamped with one monotone epoch. A deployment keeps the epoch of its
/// own last look, so "what changed since I looked" is a comparison, and
/// no deployment consumes a fact another one still needs.
#[derive(Debug, Default)]
pub(crate) struct Sensed {
    /// Devices believed down: ground truth under omniscient detection,
    /// detector-confirmed ones (lagging by up to the bound) under lease.
    pub(crate) dead: BTreeSet<DeviceId>,
    /// Facts recorded so far.
    pub(crate) epoch: u64,
    /// The latest loss: a device joined `dead`, or lost what it held
    /// (even one that is back within the tick).
    lost: u64,
    /// The latest return of capacity: a repair, resurrection or restart.
    returned: u64,
    /// The latest suspicion or exoneration.
    verdict: u64,
    /// The latest crossing of the account's degrade threshold.
    degraded: u64,
    /// Whether the account is suspended: a level, read at every sense.
    suspended: bool,
    /// The latest end of a suspension.
    reinstated: u64,
    /// Per device id, when it was last wiped (0 = never). Kept apart from
    /// `verdicts`: a loss makes every converged deployment check its
    /// footprint against this, so it stays dense.
    wiped: Vec<u64>,
    /// Per device id, when it was last suspected and last cleared.
    verdicts: Vec<[u64; 2]>,
}

/// `stamps[d]`, grown with zeros (never stamped) to reach it.
fn stamp_of<T: Default + Clone>(stamps: &mut Vec<T>, d: DeviceId) -> &mut T {
    let i = d.0 as usize;
    if stamps.len() <= i {
        stamps.resize(i + 1, T::default());
    }
    &mut stamps[i]
}

impl Sensed {
    fn next(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// `d` lost whatever it held — a crash, or under lease detection a
    /// restart no confirmation covered — so every deployment's next look
    /// counts it lost, even once it is back.
    fn wipe(&mut self, d: DeviceId) {
        self.lost = self.next();
        *stamp_of(&mut self.wiped, d) = self.lost;
    }

    /// The detector newly suspected `d`, or (`suspected` false) cleared
    /// it of suspicion without a confirmation.
    fn record_verdict(&mut self, d: DeviceId, suspected: bool) {
        self.verdict = self.next();
        let [suspected_at, cleared_at] = stamp_of(&mut self.verdicts, d);
        *if suspected { suspected_at } else { cleared_at } = self.verdict;
    }

    /// When `d` was last suspected, and last cleared.
    fn verdicts_on(&self, d: DeviceId) -> [u64; 2] {
        self.verdicts.get(d.0 as usize).copied().unwrap_or_default()
    }

    /// Whether a look at epoch `seen` must count `d` as lost: believed
    /// dead now, or wiped at any moment since (a device that crashed and
    /// came back in between lost its allocations all the same).
    fn is_lost(&self, d: DeviceId, seen: u64) -> bool {
        self.dead.contains(&d) || self.wiped.get(d.0 as usize).is_some_and(|&at| at > seen)
    }
}

impl UdcCloud {
    /// True when `dep` is converged, has a footprint, and no footprint
    /// device is lost to a look at epoch `seen` — trivially so when
    /// nothing was lost since. Such a deployment has no module to
    /// detect, re-heal or retry. Exact: the footprint was taken by a
    /// look that found every device alive and no placement has changed
    /// since (every change drops it), and a device can only have become
    /// lost by a loss recorded after that look.
    fn untouched_since(&self, dep: &Deployment, seen: u64) -> bool {
        let Some(footprint) = &dep.footprint else {
            return false;
        };
        let s = &self.sensed;
        dep.health.is_converged()
            && (s.lost <= seen || footprint.iter().all(|&d| !s.is_lost(d, seen)))
    }

    /// Advances virtual time, applying failure events and driving the
    /// repair loop over `dep`: *detect → evict → re-place → re-launch →
    /// recover*. Call repeatedly (e.g. from a chaos harness) until
    /// [`HealthState::is_converged`]; degraded modules re-heal on their
    /// own once repair events return capacity.
    ///
    /// The cloud senses first, then `dep` reconciles against everything
    /// sensed since its own last look. So when a caller advances several
    /// deployments per tick, neither their order nor which call carries
    /// the time changes what any of them does.
    pub fn advance(&mut self, dep: &mut Deployment, delta_us: u64) -> HealReport {
        let mut report = HealReport::default();
        let now = self.sense(delta_us, &mut report);
        self.reconcile(dep, now, &mut report);
        self.observe_queries(dep, now);
        report
    }

    /// Sense: drains the tick, folds ground truth (omniscient) or lease
    /// verdicts into the cloud's belief and settles the account,
    /// recording every fact in `self.sensed`. The
    /// one place the two detection modes differ. Fills in the report's
    /// cloud-wide half — a second call at the same instant finds an
    /// empty tick and a detector with nothing new — and returns the
    /// instant it sensed.
    fn sense(&mut self, delta_us: u64, report: &mut HealReport) -> Micros {
        let tick = self.dc.tick_events(delta_us);
        let now = self.dc.clock().now();
        report.crashed_devices = tick.crashed;
        report.repaired_devices = tick.repaired;
        let s = &mut self.sensed;
        let returned = match &mut self.detector {
            None => {
                // Ground truth, replayed in event order so a flap within
                // one tick (repair → crash, or crash → repair → crash)
                // lands on the device's *final* state.
                for e in &tick.events {
                    if e.crash {
                        s.dead.insert(e.device);
                        s.wipe(e.device);
                    } else {
                        s.dead.remove(&e.device);
                    }
                }
                !report.repaired_devices.is_empty()
            }
            Some(det) => {
                // The detector sees only heartbeat arrivals (ground truth
                // gates emission; the net plan gates delivery).
                let dr = det.observe(now, &tick.events, &self.net);
                for &d in &dr.newly_suspected {
                    s.record_verdict(d, true);
                }
                for &d in &dr.false_suspects {
                    s.record_verdict(d, false);
                }
                for &d in &dr.resurrected {
                    s.dead.remove(&d);
                }
                for &d in &dr.newly_confirmed {
                    // Dead by belief, not known wiped: no stamp, so a
                    // deployment that first looks after the device is
                    // back (a healed partition) keeps what it holds.
                    s.dead.insert(d);
                    s.lost = s.next();
                }
                for &d in &dr.restarted {
                    s.wipe(d);
                }
                report.false_suspects = dr.false_suspects.len() as u64;
                report.suspected = dr.newly_suspected;
                report.confirmed = dr.newly_confirmed;
                report.resurrected = dr.resurrected;
                report.restarted = dr.restarted;
                // Capacity is back when the detector saw a device return,
                // not on the raw repair event.
                !report.resurrected.is_empty() || !report.restarted.is_empty()
            }
        };
        if returned {
            s.returned = s.next();
        }
        if report.false_suspects > 0 {
            self.obs
                .incr("heal.false_suspects", Labels::none(), report.false_suspects);
        }
        self.settle(now);
        now
    }

    /// Settles the tenant's account against the sim clock: counts its
    /// lifecycle transitions, stamps a degrade, and reads whether it is
    /// suspended, stamping the end of a suspension.
    fn settle(&mut self, now: Micros) {
        let Some(gate) = &self.econ_gate else {
            return;
        };
        let (events, suspended) = {
            let mut g = gate.lock().expect("quota gate poisoned");
            let Some(acct) = g.account_mut(&self.tenant) else {
                return;
            };
            (acct.settle(now), acct.is_suspended())
        };
        if std::mem::replace(&mut self.sensed.suspended, suspended) && !suspended {
            self.sensed.reinstated = self.sensed.next();
        }
        for ev in events {
            let counter = match ev {
                LifecycleEvent::Renewed { .. } => "econ.renewals",
                LifecycleEvent::BecameOverdue { .. } => "econ.overdue",
                LifecycleEvent::Degraded { .. } => {
                    self.sensed.degraded = self.sensed.next();
                    "econ.degradations"
                }
                LifecycleEvent::Suspended { .. } => "econ.suspensions",
                LifecycleEvent::Reinstated { .. } => "econ.reinstatements",
            };
            self.obs.incr(counter, Labels::none(), 1);
        }
    }

    /// Reconcile: brings `dep` in line with what was sensed since its
    /// own last look, read from `self.sensed` alone — never from a
    /// per-call tick or verdict list — and fills in the report's
    /// per-deployment half.
    fn reconcile(&mut self, dep: &mut Deployment, now: Micros, report: &mut HealReport) {
        let seen = std::mem::replace(&mut dep.seen_epoch, self.sensed.epoch);
        if self.sensed.verdict > seen && self.obs.is_enabled() {
            self.audit_suspicion(dep, seen);
        }
        self.reconcile_account(dep, seen, now, report);
        // A suspended tenant heals nothing until it pays. A converged
        // deployment whose footprint no loss touched since its last look
        // is skipped without a module scan.
        if self.sensed.suspended || self.untouched_since(dep, seen) {
            return;
        }

        // A module is impacted when any of its slices or replica
        // devices sits on a device the control plane believes dead — or
        // on one wiped since the deployment's last look, even if the
        // (now empty) device is back. Lease mode acts strictly on what
        // heartbeats show: a crash the detector hasn't confirmed yet is,
        // to the control plane, not a crash until the device is
        // confirmed or beats again from a new boot — that lag is the
        // price of dropping the oracle, and the property suite bounds it
        // at `lease × confirm_misses`.
        let impacted: Vec<ModuleId> = dep
            .placement
            .modules
            .iter()
            .filter(|(id, _)| dep.health.module(id) == ModuleHealth::Healthy)
            .filter(|(_, p)| module_devices(p).any(|d| self.sensed.is_lost(d, seen)))
            .map(|(id, _)| id.clone())
            .collect();

        // Capacity that came back since the last look re-heals the
        // capacity-degraded modules (suspension-evicted ones were handed
        // back above, or wait for payment).
        if self.sensed.returned > seen {
            for id in dep.health.degraded_modules() {
                dep.health.schedule(&id, 0, now);
            }
        }
        if impacted.is_empty() && dep.health.due_repairs(now).is_empty() {
            // Quiet interval. A converged deployment found clean gets its
            // footprint back, so later looks can skip it.
            if dep.footprint.is_none() && dep.health.is_converged() {
                dep.footprint = Some(footprint_of(dep));
            }
            return;
        }

        // Something to do: mint one trace for the whole repair round.
        let root = self.obs.trace_root("cloud.heal");
        let ctx = root.ctx();

        // detect + evict.
        if !impacted.is_empty() {
            let dspan = self.obs.span_opt(ctx.as_ref(), "heal.detect");
            let dctx = dspan.ctx().or(ctx);
            for id in &impacted {
                let dead_here: BTreeSet<DeviceId> = module_devices(&dep.placement.modules[id])
                    .filter(|&d| self.sensed.is_lost(d, seen))
                    .collect();
                if self.obs.is_enabled() {
                    for d in &dead_here {
                        self.obs.decide(Decision {
                            ctx: dctx,
                            stage: "heal.detect",
                            module: id.as_str(),
                            candidate: &format!("dev{}", d.0),
                            accepted: false,
                            reason: ReasonCode::Evicted,
                            score: None,
                            detail: "device crashed; allocation lost".to_string(),
                        });
                    }
                }
                let evicted = self.evict(dep, id);
                report.evicted_allocations += evicted;
                self.obs.incr(
                    "heal.evictions",
                    Labels::module(self.tenant.as_str(), id.as_str()),
                    evicted,
                );
                dep.health.schedule(id, 0, now);
                report.detected.push(id.clone());
                self.obs.event(
                    EventKind::Failure,
                    Labels::module(self.tenant.as_str(), id.as_str()),
                    &[
                        ("action", FieldValue::from("detect")),
                        ("dead_devices", FieldValue::from(dead_here.len())),
                        ("evicted_allocations", FieldValue::from(evicted)),
                    ],
                );
            }
        }

        // re-place + re-launch + recover every due module, in id order.
        for id in dep.health.due_repairs(now) {
            self.repair_module(dep, &id, now, ctx, report);
        }
    }

    /// Audits the suspicion lifecycle of `dep`'s modules since its last
    /// look: a gray device's story — suspected, exonerated without
    /// eviction — must be explainable from the artifact just
    /// like a real eviction, for every deployment on the device.
    fn audit_suspicion(&self, dep: &Deployment, seen: u64) {
        for (id, p) in &dep.placement.modules {
            let d = p.primary_device;
            let [suspected, cleared] = self.sensed.verdicts_on(d);
            for (at, accepted, detail) in [(suspected, false, SILENT), (cleared, true, BEAT)] {
                if at > seen {
                    self.obs.decide(Decision {
                        ctx: None,
                        stage: "heal.suspect",
                        module: id.as_str(),
                        candidate: &format!("dev{}", d.0),
                        accepted,
                        reason: ReasonCode::Suspected,
                        score: None,
                        detail: detail.to_string(),
                    });
                }
            }
        }
    }

    /// Applies the tenant's account to `dep`, level-triggered. A degrade
    /// since its last look gets every healthy module an audit record
    /// (advisory: they keep running, but the trail explains later
    /// throttling or suspension). While the account is suspended, every
    /// healthy module is evicted into the degraded state through the
    /// same machinery as a capacity failure, with a zero-amount debit
    /// recording the eviction, and waits for payment, never for
    /// hardware. Once it is active again — a suspension ended since its
    /// last look — every suspension-evicted module is scheduled for
    /// immediate re-placement.
    fn reconcile_account(
        &mut self,
        dep: &mut Deployment,
        seen: u64,
        now: Micros,
        report: &mut HealReport,
    ) {
        let audited = self.obs.is_enabled();
        if self.sensed.degraded > seen && audited {
            for id in healthy_modules(dep) {
                self.obs.decide(Decision {
                    ctx: None,
                    stage: "econ.degrade",
                    module: id.as_str(),
                    candidate: self.tenant.as_str(),
                    accepted: false,
                    reason: ReasonCode::Degraded,
                    score: None,
                    detail: "account overdue past degrade threshold; service degraded".to_string(),
                });
            }
        }
        if self.sensed.suspended {
            let evicted = healthy_modules(dep);
            for id in &evicted {
                report.evicted_allocations += self.evict(dep, id);
                dep.health.degrade(id, now);
                dep.econ_suspended.insert(id.clone());
                if audited {
                    self.obs.decide(Decision {
                        ctx: None,
                        stage: "econ.suspend",
                        module: id.as_str(),
                        candidate: self.tenant.as_str(),
                        accepted: false,
                        reason: ReasonCode::Suspended,
                        score: None,
                        detail: "account overdue past grace; module evicted".to_string(),
                    });
                }
            }
            if let Some(gate) = &self.econ_gate {
                let mut g = gate.lock().expect("quota gate poisoned");
                if let Some(acct) = g.account_mut(&self.tenant) {
                    for id in &evicted {
                        acct.charge(now, 0, Some(id.as_str()), "suspension eviction");
                    }
                }
            }
            report.suspended.extend(evicted);
        } else if self.sensed.reinstated > seen {
            for id in std::mem::take(&mut dep.econ_suspended) {
                dep.health.schedule(&id, 0, now);
                if audited {
                    self.obs.decide(Decision {
                        ctx: None,
                        stage: "econ.reinstate",
                        module: id.as_str(),
                        candidate: self.tenant.as_str(),
                        accepted: true,
                        reason: ReasonCode::Accepted,
                        score: None,
                        detail: "payment cleared; re-placement scheduled".to_string(),
                    });
                }
                report.reinstated.push(id);
            }
        }
    }

    /// Evicts `id`: retires its isolate and frees every allocation it
    /// holds, returning how many. Slices a crash took were already
    /// wiped by `Device::fail`, and releasing them is a no-op even once
    /// the device is back and holds the tenant's newer slices; the rest
    /// return real capacity. The placement entry is left empty, so
    /// a later teardown or a second crash can never double-free.
    fn evict(&mut self, dep: &mut Deployment, id: &ModuleId) -> u64 {
        let Some(p) = dep.placement.modules.get_mut(id) else {
            return 0;
        };
        dep.footprint = None;
        let allocations = std::mem::take(&mut p.allocations);
        for a in &allocations {
            self.dc.release(a);
        }
        if let Some(env) = dep.environments.get_mut(id).filter(|env| env.is_running()) {
            env.stop();
        }
        allocations.len() as u64
    }

    /// The single-threaded query barrier at the end of every `advance`:
    /// drains the hub's new records into the attached engine, samples
    /// one [`HEAL_DEGRADED_GAUGE`](crate::cloud::HEAL_DEGRADED_GAUGE)
    /// observation per placed module *at this barrier's `now`* (health
    /// transitions above used the same `now`, which is what makes the
    /// subscription's held-since equal `detected_us` exactly) and the
    /// hub's [`RING_DROPPED_GAUGE`](crate::cloud::RING_DROPPED_GAUGE),
    /// advances the watermark, and flushes fired alerts into the hub's
    /// ring.
    fn observe_queries(&mut self, dep: &mut Deployment, now: Micros) {
        let Some(q) = self.queries.as_mut() else {
            return;
        };
        let missed = q.feed.missed();
        q.engine.ingest(q.feed.poll(&self.obs, now));
        let missed = q.feed.missed() - missed;
        if missed > 0 {
            self.obs
                .incr(crate::cloud::FEED_MISSED_COUNTER, Labels::none(), missed);
        }
        let series = &mut dep.degraded_series;
        if series.len() != dep.placement.modules.len()
            || series.first().is_some_and(|&s| !q.engine.owns(s))
        {
            *series = dep
                .placement
                .modules
                .keys()
                .map(|id| {
                    let labels = Labels::module(self.tenant.as_str(), id.as_str());
                    q.engine
                        .gauge_series(crate::cloud::HEAL_DEGRADED_GAUGE, labels)
                })
                .collect();
        }
        for (id, &s) in dep.placement.modules.keys().zip(series.iter()) {
            let unhealthy = dep.health.module(id) != ModuleHealth::Healthy;
            q.engine.sample(s, now, if unhealthy { 1.0 } else { 0.0 });
        }
        q.engine.sample(q.dropped, now, q.feed.hub_dropped() as f64);
        q.engine.advance_to(now);
        q.engine.fire_into(&self.obs);
    }

    /// Fencing check for a launch (or write) claim: `true` only when
    /// `epoch` is the module's current epoch. A stale epoch means the
    /// presenter was superseded by a re-placement — the canonical zombie
    /// is an instance isolated by a partition, healed around, and now
    /// back online. Rejections are audited with
    /// [`ReasonCode::Fenced`] and counted in `fence.rejected_launches`.
    pub fn authorize_launch(&mut self, module: &str, device: DeviceId, epoch: u64) -> bool {
        match self.fences.check(module, epoch) {
            Ok(()) => true,
            Err(e) => {
                self.obs.incr("fence.rejected_launches", Labels::none(), 1);
                if self.obs.is_enabled() {
                    self.obs.decide(Decision {
                        ctx: None,
                        stage: "fence.check",
                        module,
                        candidate: &format!("dev{}", device.0),
                        accepted: false,
                        reason: ReasonCode::Fenced,
                        score: None,
                        detail: e.to_string(),
                    });
                }
                false
            }
        }
    }

    /// One re-place → re-launch → recover pass for `id`.
    fn repair_module(
        &mut self,
        dep: &mut Deployment,
        id: &ModuleId,
        now: Micros,
        ctx: Option<udc_telemetry::TraceCtx>,
        report: &mut HealReport,
    ) {
        let rspan = self.obs.span_opt(ctx.as_ref(), "heal.replace");
        let rctx = rspan.ctx().or(ctx);

        // Exclude every dead device, plus — failure-domain independence
        // — devices hosting modules of *other* explicit failure domains:
        // distinct domains must fail independently, so a healing module
        // never lands on hardware another domain already occupies.
        let mut exclude: BTreeSet<DeviceId> = self.sensed.dead.clone();
        let domain = |m: &ModuleId| dep.ir.app.module(m)?.dist.failure_domain.as_ref();
        if let Some(mine) = domain(id) {
            for (other, p) in &dep.placement.modules {
                if domain(other).is_some_and(|d| d != mine) {
                    exclude.extend(&p.replica_devices);
                }
            }
        }
        let exclude: Vec<DeviceId> = exclude.into_iter().collect();

        match self.scheduler.replace_module(
            &mut self.dc,
            &dep.ir.app,
            id,
            &dep.placement,
            &exclude,
            rctx,
        ) {
            Ok(mut placed) => {
                // Re-launch: a crashed environment cannot restart, so a
                // fresh instance is measured against the same identity
                // under the next fencing epoch — the old replica, maybe
                // still running beyond a partition, now presents a stale one.
                let m_ir = dep.ir.module(id).expect("module exists in ir");
                let (env, units) = self.launch(m_ir, &mut placed, rctx);
                dep.environments.insert(id.clone(), env);
                if let Some(obj) = dep.objects.iter_mut().find(|o| &o.module == id) {
                    obj.units = units;
                }
                let new_device = placed.primary_device;
                dep.placement.modules.insert(id.clone(), placed);
                dep.footprint = None;

                // Recover state with the module's spec'd strategy.
                let strategy = match m_ir.spec.dist.failure.unwrap_or_default() {
                    FailureHandling::Reexecute => RecoveryStrategy::Reexecute,
                    FailureHandling::Checkpoint { .. } => RecoveryStrategy::FromCheckpoint,
                };
                let recovery = {
                    let _rec = self.obs.span_opt(rctx.as_ref(), "heal.recover");
                    dep.recovery.recover_module(id, strategy)
                };
                let mut recovery_us = 0;
                if let Some(o) = &recovery {
                    let restored = o.strategy == RecoveryStrategy::FromCheckpoint;
                    recovery_us = o.replayed as u64 * MSG_COST_US
                        + if restored { RESTORE_COST_US } else { 0 };
                    self.obs.incr(
                        "heal.replayed_messages",
                        Labels::module(self.tenant.as_str(), id.as_str()),
                        o.replayed as u64,
                    );
                }

                let (attempts, detected_us) = dep.health.repair_complete(id);
                let mttr_us = now.saturating_sub(detected_us) + recovery_us;
                self.obs.observe("heal.mttr_us", Labels::none(), mttr_us);
                self.obs.incr("heal.repairs", Labels::none(), 1);
                self.obs.event(
                    EventKind::Failure,
                    Labels::module(self.tenant.as_str(), id.as_str()),
                    &[
                        ("action", FieldValue::from("healed")),
                        ("device", FieldValue::from(new_device.0)),
                        ("attempts", FieldValue::from(attempts)),
                        ("mttr_us", FieldValue::from(mttr_us)),
                    ],
                );
                report.repaired.push(ModuleRepair {
                    module: id.clone(),
                    attempts,
                    new_device,
                    mttr_us,
                    recovery,
                });
            }
            Err(e) => {
                let attempt = match dep.health.module(id) {
                    ModuleHealth::Repairing { attempt, .. } => attempt + 1,
                    _ => 1,
                };
                if attempt > dep.health.max_retries {
                    dep.health.degrade(id, now);
                    self.obs.decide(Decision {
                        ctx: rctx,
                        stage: "heal.replace",
                        module: id.as_str(),
                        candidate: "-",
                        accepted: false,
                        reason: ReasonCode::Degraded,
                        score: None,
                        detail: format!("retries exhausted ({attempt}): {e}"),
                    });
                    self.obs.incr("heal.degraded", Labels::none(), 1);
                    self.obs.event(
                        EventKind::Failure,
                        Labels::module(self.tenant.as_str(), id.as_str()),
                        &[
                            ("action", FieldValue::from("degraded")),
                            ("attempts", FieldValue::from(attempt)),
                        ],
                    );
                    report.degraded.push(id.clone());
                } else {
                    let delay = backoff_delay_us(id, attempt);
                    dep.health.schedule(id, attempt, now + delay);
                    self.obs.incr("heal.retries", Labels::none(), 1);
                    report.retried.push(id.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::{CloudConfig, UdcCloud};
    use udc_hal::{DatacenterConfig, FailureEvent, FailurePlan, PoolConfig};
    use udc_spec::{AppSpec, DistributedAspect, ResourceAspect, ResourceKind, TaskSpec};

    fn one_task_app(dist: Option<DistributedAspect>) -> AppSpec {
        let mut app = AppSpec::new("heal-demo");
        let mut t = TaskSpec::new("T")
            .with_resource(ResourceAspect::default().with_demand(ResourceKind::Cpu, 2))
            .with_work(100);
        if let Some(d) = dist {
            t = t.with_dist(d);
        }
        app.add_task(t);
        app
    }

    fn crash(at_us: u64, device: DeviceId) -> FailureEvent {
        FailureEvent {
            at_us,
            device,
            crash: true,
        }
    }

    fn repair(at_us: u64, device: DeviceId) -> FailureEvent {
        FailureEvent {
            at_us,
            device,
            crash: false,
        }
    }

    #[test]
    fn crash_detect_evict_replace_converges() {
        let mut cloud = UdcCloud::new(CloudConfig::default());
        cloud.enable_telemetry();
        let mut dep = cloud.submit(&one_task_app(None)).unwrap();
        let id = ModuleId::from("T");
        let dead = dep.placement.modules[&id].primary_device;

        cloud
            .datacenter_mut()
            .set_failure_plan(FailurePlan::from_events(vec![crash(5, dead)]));
        let report = cloud.advance(&mut dep, 10);

        assert_eq!(report.crashed_devices, vec![dead]);
        assert_eq!(report.detected, vec![id.clone()]);
        assert_eq!(report.repaired.len(), 1, "healed in the same interval");
        let healed = &report.repaired[0];
        assert_ne!(healed.new_device, dead, "must not heal onto the corpse");
        assert!(dep.health.is_converged());

        // No live allocation touches the dead device.
        for p in dep.placement.modules.values() {
            for a in &p.allocations {
                assert!(a.slices.iter().all(|s| s.device != dead));
            }
        }
        // The replacement environment is running and verifiable.
        assert!(dep.environments[&id].is_running());
        assert!(cloud.verify_deployment(&dep).all_fulfilled());
        cloud.teardown(&mut dep);
    }

    #[test]
    fn a_healed_module_leaves_no_health_entry_behind() {
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let tel = cloud.enable_telemetry();
        let mut dep = cloud.submit(&one_task_app(None)).unwrap();
        let id = ModuleId::from("T");
        let dead = dep.placement.modules[&id].primary_device;
        cloud
            .datacenter_mut()
            .set_failure_plan(FailurePlan::from_events(vec![crash(5, dead)]));
        let report = cloud.advance(&mut dep, 10);

        assert_eq!(report.repaired.len(), 1);
        assert!(dep.health.modules.is_empty(), "absent = healthy");
        assert!(matches!(dep.health.module(&id), ModuleHealth::Healthy));
        assert!(dep.health.is_converged());
        assert!(dep.health.due_repairs(u64::MAX).is_empty());
        // The repair is still reported once, report and hub agreeing.
        let healed = &report.repaired[0];
        assert_eq!(healed.attempts, 0);
        let mttr = tel.histogram("heal.mttr_us", &Labels::none()).unwrap();
        assert_eq!((mttr.count, mttr.max), (1, healed.mttr_us));
        cloud.teardown(&mut dep);
    }

    #[test]
    fn crash_excluded_candidate_is_audited_during_replacement() {
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let tel = cloud.enable_telemetry();
        let mut dep = cloud.submit(&one_task_app(None)).unwrap();
        let id = ModuleId::from("T");
        let dead = dep.placement.modules[&id].primary_device;

        cloud
            .datacenter_mut()
            .set_failure_plan(FailurePlan::from_events(vec![crash(5, dead)]));
        let report = cloud.advance(&mut dep, 10);
        assert_eq!(report.repaired.len(), 1);

        // The re-placement audit must show the corpse as a rejected
        // candidate — `udc-trace --explain` depends on this record.
        let snap = tel.snapshot();
        let excluded: Vec<_> = snap
            .decisions
            .iter()
            .filter(|d| d.reason == ReasonCode::CrashExcluded)
            .collect();
        assert!(
            !excluded.is_empty(),
            "expected a crash_excluded audit record for dev{}",
            dead.0
        );
        assert!(excluded
            .iter()
            .any(|d| d.candidate == format!("dev{}", dead.0) && !d.accepted));
        cloud.teardown(&mut dep);
    }

    #[test]
    fn quiet_interval_is_a_noop() {
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let mut dep = cloud.submit(&one_task_app(None)).unwrap();
        let report = cloud.advance(&mut dep, 1_000);
        assert!(report.is_quiet());
        assert!(dep.health.is_converged());
    }

    /// One 8-core CPU device and one memory sled: a crash leaves
    /// nowhere to heal to.
    fn one_cpu_device() -> CloudConfig {
        let pool = |kind, capacity_per_device| PoolConfig {
            kind,
            devices: 1,
            capacity_per_device,
        };
        CloudConfig {
            datacenter: DatacenterConfig {
                pools: vec![pool(ResourceKind::Cpu, 8), pool(ResourceKind::Dram, 4096)],
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn capacity_exhaustion_degrades_then_reheals_on_repair() {
        let mut cloud = UdcCloud::new(one_cpu_device());
        cloud.enable_telemetry();
        let mut dep = cloud.submit(&one_task_app(None)).unwrap();
        dep.health.max_retries = 0; // degrade on the first failed attempt
        let id = ModuleId::from("T");
        let dead = dep.placement.modules[&id].primary_device;

        cloud
            .datacenter_mut()
            .set_failure_plan(FailurePlan::from_events(vec![
                crash(5, dead),
                repair(1_000, dead),
            ]));

        let report = cloud.advance(&mut dep, 10);
        assert_eq!(report.degraded, vec![id.clone()]);
        assert_eq!(dep.health.degraded_modules(), vec![id.clone()]);
        assert!(!dep.health.is_converged());

        // Capacity returns: the degraded module re-heals automatically.
        let report = cloud.advance(&mut dep, 2_000);
        assert_eq!(report.repaired_devices, vec![dead]);
        assert_eq!(report.repaired.len(), 1);
        assert!(dep.health.is_converged());
        assert!(dep.health.modules.is_empty(), "forgotten once healed");
        // MTTR spans the whole degraded interval, not just the last try.
        assert!(report.repaired[0].mttr_us >= 2_000);
        cloud.teardown(&mut dep);
    }

    #[test]
    fn degraded_duration_subscription_matches_health_map_exactly() {
        // Same one-CPU-device shape as above: the crash degrades the
        // module with nowhere to heal until the device repairs at 10ms.
        let mut cloud = UdcCloud::new(one_cpu_device());
        let tel = cloud.enable_telemetry();
        cloud.attach_queries(udc_query::QueryEngine::new(), 1_500);
        let mut dep = cloud.submit(&one_task_app(None)).unwrap();
        dep.health.max_retries = 0;
        let id = ModuleId::from("T");
        let dead = dep.placement.modules[&id].primary_device;
        cloud
            .datacenter_mut()
            .set_failure_plan(FailurePlan::from_events(vec![
                crash(5, dead),
                repair(10_000, dead),
            ]));

        // Advance in 1ms barriers; at every barrier the subscription's
        // held-since answer must equal the health map's detected_us
        // arithmetic — byte-for-byte, no off-by-one-barrier slack.
        for step in 1..=12u64 {
            cloud.advance(&mut dep, 1_000);
            let now = step * 1_000;
            let expected = match dep.health.module(&id) {
                ModuleHealth::Repairing { detected_us, .. }
                | ModuleHealth::Degraded { detected_us } => Some(now - detected_us),
                ModuleHealth::Healthy => None,
            };
            assert_eq!(
                cloud.degraded_for_us(id.as_str(), now),
                expected,
                "barrier at {}us",
                now
            );
        }
        assert!(dep.health.is_converged(), "device repair re-healed it");
        assert_eq!(cloud.degraded_for_us(id.as_str(), 12_000), None);

        // The auto-loaded sustained rule fired exactly once, at the
        // exact crossing (detection at 1ms + the 1.5ms for-duration) —
        // during a *quiet* advance, which is what pins the early-return
        // path feeding the engine too.
        let snap = tel.snapshot();
        let fires: Vec<_> = snap
            .alerts
            .iter()
            .filter(|a| a.rule == crate::cloud::HEAL_DEGRADED_RULE)
            .collect();
        assert_eq!(fires.len(), 1);
        assert_eq!(fires[0].at_us, 2_500);
        assert_eq!(fires[0].reason, udc_telemetry::AlertReason::Sustained);
        assert_eq!(fires[0].labels.module.as_deref(), Some("T"));
    }

    #[test]
    fn a_newly_attached_engine_gets_every_deployment_series() {
        let mut cloud = UdcCloud::new(one_cpu_device());
        cloud.enable_telemetry();
        cloud.attach_queries(udc_query::QueryEngine::new(), 1_500);
        let mut dep = cloud.submit(&one_task_app(None)).unwrap();
        dep.health.max_retries = 0;
        cloud.advance(&mut dep, 1_000);
        // The deployment's series belong to the first engine now; the
        // second must be fed all the same.
        cloud.attach_queries(udc_query::QueryEngine::new(), 1_500);
        let id = ModuleId::from("T");
        let dead = dep.placement.modules[&id].primary_device;
        cloud
            .datacenter_mut()
            .set_failure_plan(FailurePlan::from_events(vec![crash(1_500, dead)]));
        for now in [2_000, 3_000] {
            cloud.advance(&mut dep, 1_000);
            let ModuleHealth::Degraded { detected_us } = dep.health.module(&id) else {
                panic!("nowhere to heal");
            };
            assert_eq!(
                cloud.degraded_for_us(id.as_str(), now),
                Some(now - detected_us)
            );
        }
    }

    #[test]
    fn a_hub_that_lost_records_says_so_once() {
        // Rings of two: the submit alone overflows them, before the
        // engine's feed has polled even once.
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let tel = udc_telemetry::Telemetry::with_capacities(2, 2);
        cloud.set_observer(tel.clone());
        cloud.attach_queries(udc_query::QueryEngine::new(), 1_000_000);
        let mut dep = cloud.submit(&one_task_app(None)).unwrap();
        for _ in 0..3 {
            cloud.advance(&mut dep, 1_000);
        }
        let snap = tel.snapshot();
        assert!(snap.dropped_events + snap.dropped_decisions > 0);
        // The built-in rule fired at the first barrier and stays fired:
        // one alert, however long the hub keeps dropping.
        let fires: Vec<_> = snap
            .alerts
            .iter()
            .filter(|a| a.rule == crate::cloud::RING_DROPPED_RULE)
            .collect();
        assert_eq!(fires.len(), 1);
        assert_eq!(fires[0].at_us, 1_000);
        // What the rings evicted before the feed read it never reached
        // the engine, and is counted where the operator will look.
        let missed = tel.counter(crate::cloud::FEED_MISSED_COUNTER, &Labels::none());
        assert_eq!(
            missed,
            snap.dropped_events + snap.dropped_decisions,
            "nothing was evicted after the first poll"
        );
    }

    #[test]
    fn a_replaced_hub_keeps_feeding_the_attached_engine() {
        use udc_query::{Aggregation, LabelFilter, QuerySpec, Source, WindowSpec};

        let mut cloud = UdcCloud::new(CloudConfig::default());
        cloud.enable_telemetry();
        let mut engine = udc_query::QueryEngine::new();
        for (name, source, agg) in [
            (
                "submits",
                Source::Counter {
                    name: "core.submits".to_string(),
                    labels: LabelFilter::any(),
                },
                Aggregation::Sum,
            ),
            (
                "submit_events",
                Source::Event {
                    kind: Some("submit".to_string()),
                    labels: LabelFilter::any(),
                },
                Aggregation::Count,
            ),
        ] {
            engine
                .register(QuerySpec {
                    name: name.to_string(),
                    source,
                    agg,
                    window: WindowSpec::tumbling(1_000),
                })
                .unwrap();
        }
        let submits = engine.subscribe("submits").unwrap();
        let submit_events = engine.subscribe("submit_events").unwrap();
        cloud.attach_queries(engine, 1_000_000);

        // The first hub out-writes anything its replacement will have
        // seen by the time the feed looks again: cursors carried over
        // would point past the end of every new series and ring.
        let mut old: Vec<Deployment> = (0..4)
            .map(|_| cloud.submit(&one_task_app(None)).unwrap())
            .collect();
        for _ in 0..3 {
            cloud.advance(&mut old[0], 1_000);
        }
        let total = |cloud: &mut UdcCloud, sub| -> f64 {
            cloud.poll_query(sub).iter().map(|o| o.value).sum()
        };
        assert_eq!(total(&mut cloud, submits), 4.0);
        assert_eq!(total(&mut cloud, submit_events), 4.0);

        let fresh = cloud.enable_telemetry();
        let mut dep = cloud.submit(&one_task_app(None)).unwrap();
        for _ in 0..3 {
            cloud.advance(&mut dep, 1_000);
        }
        assert_eq!(total(&mut cloud, submits), 1.0, "the new hub's delta");
        assert_eq!(total(&mut cloud, submit_events), 1.0, "the new hub's event");
        assert_eq!(cloud.queries.as_ref().unwrap().feed.missed(), 0);
        assert_eq!(
            fresh.counter(crate::cloud::FEED_MISSED_COUNTER, &Labels::none()),
            0
        );
    }

    #[test]
    fn recovery_restores_seeded_state_from_checkpoint() {
        let app = one_task_app(Some(
            DistributedAspect::default().failure(FailureHandling::Checkpoint { interval_ms: 10 }),
        ));
        let mut cloud = UdcCloud::new(CloudConfig::default());
        cloud.enable_telemetry();
        let mut dep = cloud.submit(&app).unwrap();
        dep.recovery.seed_app(&app, 25);
        let id = ModuleId::from("T");
        let dead = dep.placement.modules[&id].primary_device;

        cloud
            .datacenter_mut()
            .set_failure_plan(FailurePlan::from_events(vec![crash(5, dead)]));
        let report = cloud.advance(&mut dep, 10);
        let healed = &report.repaired[0];
        let outcome = healed.recovery.as_ref().expect("state was seeded");
        assert_eq!(outcome.strategy, RecoveryStrategy::FromCheckpoint);
        // Checkpoint at message 20 of 25: only the suffix replays.
        assert_eq!(outcome.replayed, 5);
        assert_eq!(
            dep.recovery.recovered_state(&id),
            dep.recovery.expected_state(&id),
            "recovered state must match pre-crash state"
        );
        // MTTR includes the modelled restore + replay cost.
        assert!(healed.mttr_us >= RESTORE_COST_US + 5 * MSG_COST_US);
        cloud.teardown(&mut dep);
    }

    #[test]
    fn recovery_reexecutes_full_log_without_checkpoint() {
        let app = one_task_app(None); // default failure handling: Reexecute
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let mut dep = cloud.submit(&app).unwrap();
        dep.recovery.seed_app(&app, 12);
        let id = ModuleId::from("T");
        let dead = dep.placement.modules[&id].primary_device;

        cloud
            .datacenter_mut()
            .set_failure_plan(FailurePlan::from_events(vec![crash(1, dead)]));
        let report = cloud.advance(&mut dep, 10);
        let outcome = report.repaired[0].recovery.as_ref().unwrap();
        assert_eq!(outcome.strategy, RecoveryStrategy::Reexecute);
        assert_eq!(outcome.replayed, 12);
        assert_eq!(
            dep.recovery.recovered_state(&id),
            dep.recovery.expected_state(&id)
        );
    }

    #[test]
    fn failure_domains_stay_disjoint_through_healing() {
        let mut app = AppSpec::new("domains");
        app.add_task(
            TaskSpec::new("A")
                .with_resource(ResourceAspect::default().with_demand(ResourceKind::Cpu, 2))
                .with_dist(DistributedAspect::default().failure_domain("east")),
        );
        app.add_task(
            TaskSpec::new("B")
                .with_resource(ResourceAspect::default().with_demand(ResourceKind::Cpu, 2))
                .with_dist(DistributedAspect::default().failure_domain("west")),
        );
        let mut cloud = UdcCloud::new(CloudConfig::default());
        cloud.enable_telemetry();
        let mut dep = cloud.submit(&app).unwrap();
        let a = ModuleId::from("A");
        let b = ModuleId::from("B");
        let dead = dep.placement.modules[&a].primary_device;

        cloud
            .datacenter_mut()
            .set_failure_plan(FailurePlan::from_events(vec![crash(5, dead)]));
        let report = cloud.advance(&mut dep, 10);
        // The scheduler may have co-placed both tasks on the crashed
        // device, in which case both heal; either way the loop must
        // converge with the domains on disjoint hardware.
        assert!(report.detected.contains(&a));
        assert!(dep.health.is_converged());
        let a_dev = dep.placement.modules[&a].primary_device;
        let b_devs = &dep.placement.modules[&b].replica_devices;
        assert!(
            !b_devs.contains(&a_dev),
            "east must not heal onto west's hardware ({a_dev})"
        );
        cloud.teardown(&mut dep);
    }

    #[test]
    fn omniscient_repair_then_crash_flap_keeps_device_dead() {
        // Regression: the seed applied `tick.crashed` then
        // `tick.repaired` as two sets, so a repair→crash flap inside one
        // interval ended with the device wrongly marked alive. Replaying
        // `tick.events` in order fixes the final state.
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let mut dep = cloud.submit(&one_task_app(None)).unwrap();
        let dead = dep.placement.modules[&ModuleId::from("T")].primary_device;
        cloud
            .datacenter_mut()
            .set_failure_plan(FailurePlan::from_events(vec![
                crash(5, dead),
                repair(100, dead),
                crash(200, dead),
            ]));
        let report = cloud.advance(&mut dep, 1_000);
        assert!(
            cloud.sensed.dead.contains(&dead),
            "crash→repair→crash in one tick must leave the device dead"
        );
        assert_eq!(report.crashed_devices, vec![dead, dead]);
        assert_eq!(report.repaired_devices, vec![dead]);
        // The module still healed, onto live hardware.
        assert!(dep.health.is_converged());
        assert_ne!(
            dep.placement.modules[&ModuleId::from("T")].primary_device,
            dead
        );
        cloud.teardown(&mut dep);
    }

    /// One CPU task named `module`, two cores.
    fn task_app(module: &str) -> AppSpec {
        let mut app = AppSpec::new(module);
        app.add_task(
            TaskSpec::new(module)
                .with_resource(ResourceAspect::default().with_demand(ResourceKind::Cpu, 2)),
        );
        app
    }

    fn cpu_used(cloud: &UdcCloud) -> u64 {
        cloud
            .datacenter()
            .pool(ResourceKind::Cpu)
            .unwrap()
            .total_used()
    }

    #[test]
    fn a_crash_and_repair_inside_one_tick_is_seen_by_every_deployment() {
        // Regression: only the advance that drained the tick counted its
        // crashes, so a second deployment on a device that crashed and
        // came back within the tick kept a "healthy" module whose slice
        // the crash had wiped — and releasing that slice later freed
        // units the tenant's newer module held on the repaired device.
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let mut a = cloud.submit(&task_app("A")).unwrap();
        let mut b = cloud.submit(&task_app("B")).unwrap();
        let (ida, idb) = (ModuleId::from("A"), ModuleId::from("B"));
        let dev = a.placement.modules[&ida].primary_device;
        assert_eq!(b.placement.modules[&idb].primary_device, dev, "packed");
        cloud
            .datacenter_mut()
            .set_failure_plan(FailurePlan::from_events(vec![
                crash(5, dev),
                repair(7, dev),
            ]));

        let ra = cloud.advance(&mut a, 10);
        assert_eq!(ra.detected, vec![ida]);
        let rb = cloud.advance(&mut b, 0);
        assert_eq!(rb.detected, vec![idb], "the flap wiped B's slice too");
        assert_eq!(rb.repaired.len(), 1, "and B was re-placed");
        assert!(a.health.is_converged() && b.health.is_converged());
        assert_eq!(cpu_used(&cloud), 4, "two 2-core modules run");

        cloud.teardown(&mut a);
        cloud.teardown(&mut b);
        assert_eq!(cpu_used(&cloud), 0);
    }

    #[test]
    fn a_repair_reheals_the_degraded_module_of_a_later_deployment() {
        // Regression: only the advance that drained a repair counted it as
        // capacity back, so a deployment advanced after it in the repair
        // tick stayed degraded for good. The control run advances B first.
        for b_first in [false, true] {
            let mut cloud = UdcCloud::new(one_cpu_device());
            let mut a = cloud.submit(&task_app("A")).unwrap();
            let mut b = cloud.submit(&task_app("B")).unwrap();
            let dev = a.placement.modules[&ModuleId::from("A")].primary_device;
            cloud
                .datacenter_mut()
                .set_failure_plan(FailurePlan::from_events(vec![
                    crash(5, dev),
                    repair(20, dev),
                ]));
            for (dep, delta) in [(&mut a, 10), (&mut b, 0)] {
                dep.health.max_retries = 0;
                cloud.advance(dep, delta);
                assert_eq!(dep.health.degraded_modules().len(), 1);
            }
            let (first, second) = if b_first {
                (&mut b, &mut a)
            } else {
                (&mut a, &mut b)
            };
            cloud.advance(first, 10);
            cloud.advance(second, 0);
            assert!(a.health.is_converged(), "b_first={b_first}");
            assert!(b.health.is_converged(), "b_first={b_first}");
            assert_eq!(cpu_used(&cloud), 4);
        }
    }

    /// A cloud whose tenant owes 500 µ$ from t=0, on a plan that degrades
    /// it 10 µs after it is found overdue and suspends it 20 µs after.
    fn overdue_cloud() -> (UdcCloud, udc_economics::SharedQuotaGate) {
        let plan = udc_economics::PlanSpec {
            name: "starter".to_string(),
            window_us: u64::MAX,
            credit_per_window: 0,
            quota: udc_spec::ResourceVector::new(),
            degrade_after_us: 10,
            suspend_after_us: 20,
        };
        let mut gate = udc_economics::QuotaGate::new();
        gate.open_account("tenant", plan, 0);
        let acct = gate.account_mut("tenant").unwrap();
        acct.charge(0, 500, None, "overage");
        let gate = udc_economics::shared(gate);
        let mut cloud = UdcCloud::new(CloudConfig::default());
        cloud.attach_economics(gate.clone());
        (cloud, gate)
    }

    /// Two 2-core deployments, `A` and `B`, on an [`overdue_cloud`],
    /// advanced to its suspension at t=30 with `A` carrying the time.
    fn two_suspended() -> (
        UdcCloud,
        udc_economics::SharedQuotaGate,
        Deployment,
        Deployment,
    ) {
        let (mut cloud, gate) = overdue_cloud();
        let mut a = cloud.submit(&task_app("A")).unwrap();
        let mut b = cloud.submit(&task_app("B")).unwrap();
        // Overdue at t=5, degraded at t=15, suspended at t=30.
        for step in [5, 10, 15] {
            cloud.advance(&mut a, step);
            cloud.advance(&mut b, 0);
        }
        (cloud, gate, a, b)
    }

    #[test]
    fn suspension_evicts_every_deployment_of_the_tenant() {
        // Regression: only the advance whose settle saw the suspension
        // evicted, so B kept running on a suspended account.
        let (cloud, _gate, a, b) = two_suspended();
        for dep in [&a, &b] {
            assert!(healthy_modules(dep).is_empty());
            assert_eq!(dep.econ_suspended.len(), 1);
        }
        assert_eq!(cpu_used(&cloud), 0);
    }

    #[test]
    fn reinstatement_reaches_the_deployment_that_was_suspended() {
        // Regression: only the advance whose settle saw the payment
        // re-placed, so A, advanced second in that tick, stayed degraded
        // on a paid-up account.
        let (mut cloud, gate, mut a, mut b) = two_suspended();
        gate.lock()
            .unwrap()
            .account_mut("tenant")
            .unwrap()
            .pay(35, 1_000);
        let rb = cloud.advance(&mut b, 5);
        let ra = cloud.advance(&mut a, 0);
        assert_eq!(rb.reinstated, vec![ModuleId::from("B")]);
        assert_eq!(ra.reinstated, vec![ModuleId::from("A")]);
        assert!(a.health.is_converged() && b.health.is_converged());
        assert!(a.econ_suspended.is_empty() && b.econ_suspended.is_empty());
        assert_eq!(cpu_used(&cloud), 4);
    }

    #[test]
    fn suspicion_is_audited_for_every_deployment_on_the_device() {
        // Regression: only the advance that polled the detector audited
        // its verdicts, so B's module on the same gray device had none.
        use udc_failure::{DetectorConfig, GrayFault};
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let obs = cloud.enable_telemetry();
        cloud.attach_failure_detection(DetectorConfig {
            lease_us: 1_000,
            confirm_misses: 3,
            seed: 7,
        });
        let mut a = cloud.submit(&task_app("A")).unwrap();
        let mut b = cloud.submit(&task_app("B")).unwrap();
        let gray = a.placement.modules[&ModuleId::from("A")].primary_device;
        assert_eq!(
            b.placement.modules[&ModuleId::from("B")].primary_device,
            gray
        );
        cloud.set_net_plan(NetPlan {
            grays: vec![GrayFault {
                device: gray,
                from_us: 0,
                until_us: 2_500,
                delay_us: 2_000,
                drop_per_mille: 0,
            }],
            ..NetPlan::none()
        });
        for _ in 0..10 {
            cloud.advance(&mut a, 500);
            cloud.advance(&mut b, 0);
        }
        let audited = |module: &str, accepted| {
            let decisions = obs.decisions();
            let of = |d: &&std::rc::Rc<udc_telemetry::DecisionRecord>| {
                d.stage == "heal.suspect" && d.module == module && d.accepted == accepted
            };
            decisions.iter().filter(of).count()
        };
        for accepted in [false, true] {
            assert!(audited("A", accepted) >= 1, "accepted={accepted}");
            assert_eq!(audited("B", accepted), audited("A", accepted));
        }
    }

    #[test]
    fn lease_detection_heals_a_restart_inside_the_bound() {
        // Regression: a device that crashed and was back before three
        // leases of silence was never confirmed, so its module stayed
        // "converged" on units the crash had wiped and the pool counted
        // free — free to hand to another module.
        let mut cloud = UdcCloud::new(CloudConfig::default());
        cloud.attach_failure_detection(udc_failure::DetectorConfig {
            lease_us: 1_000,
            confirm_misses: 3,
            seed: 7,
        });
        let mut app = AppSpec::new("restart");
        app.add_task(
            TaskSpec::new("T")
                .with_resource(ResourceAspect::default().with_demand(ResourceKind::Cpu, 8)),
        );
        let mut dep = cloud.submit(&app).unwrap();
        let dev = dep.placement.modules[&ModuleId::from("T")].primary_device;
        cloud
            .datacenter_mut()
            .set_failure_plan(FailurePlan::from_events(vec![
                crash(5, dev),
                repair(1_200, dev),
            ]));

        let (mut detected, mut restarted) = (0, Vec::new());
        for _ in 0..40 {
            let r = cloud.advance(&mut dep, 500);
            assert!(r.confirmed.is_empty(), "back inside the bound");
            detected += r.detected.len();
            restarted.extend(r.restarted);
        }
        assert_eq!(detected, 1, "the restart evicted and re-placed T");
        assert_eq!(restarted, vec![dev]);
        assert!(dep.health.is_converged());
        let held: u64 = dep.placement.modules[&ModuleId::from("T")]
            .allocations
            .iter()
            .map(|a| a.total_units())
            .sum();
        assert_eq!((held, cpu_used(&cloud)), (8, 8), "held = pool used");
        cloud.teardown(&mut dep);
        assert_eq!(cpu_used(&cloud), 0);
    }

    /// A cloud and the fleet it supervises, for the fast-path property.
    struct Lane {
        cloud: UdcCloud,
        deps: Vec<Deployment>,
    }

    impl Lane {
        fn new(apps: &[AppSpec], lease: Option<&(udc_failure::DetectorConfig, NetPlan)>) -> Self {
            let mut cloud = UdcCloud::new(CloudConfig::default());
            if let Some((config, net)) = lease {
                cloud.attach_failure_detection(*config);
                cloud.set_net_plan(net.clone());
            }
            let deps = apps.iter().filter_map(|a| cloud.submit(a).ok()).collect();
            Self { cloud, deps }
        }

        /// One tick: every deployment advanced once, `mover`'s call
        /// carrying the time. `full_scan` forgets every footprint first.
        fn tick(&mut self, mover: usize, step_us: u64, full_scan: bool) -> Vec<HealReport> {
            let mut reports = Vec::new();
            for (i, dep) in self.deps.iter_mut().enumerate() {
                if full_scan {
                    dep.footprint = None;
                }
                let delta = if i == mover { step_us } else { 0 };
                reports.push(self.cloud.advance(dep, delta));
            }
            reports
        }
    }

    fn fleet_app(kind: u32) -> AppSpec {
        match kind % 8 {
            0..=3 => udc_workload::microservice_chain(1 + kind % 4),
            4 | 5 => udc_workload::analytics_fanout(2 + kind % 3),
            6 => udc_workload::ml_serving_chain(1),
            _ => udc_workload::medical_pipeline(),
        }
    }

    use proptest::prelude::*;
    use udc_failure::{GrayFault, NetPlan, Partition};

    const LANE_STEP_US: u64 = 100_000;
    const LANE_STEPS: u64 = 16;

    /// Where the fleet properties inject faults: every device `deps`
    /// use, plus a few idle ones.
    fn fault_domain(deps: &[Deployment]) -> Vec<DeviceId> {
        let mut domain: Vec<DeviceId> = deps.iter().flat_map(footprint_of).collect();
        domain.extend([DeviceId(1), DeviceId(40), DeviceId(90)]);
        domain.sort_unstable();
        domain.dedup();
        domain
    }

    /// Each fault `(at_us, i, down_us)` crashes a device of `domain` and
    /// repairs it `down_us` later; in time order.
    fn fault_events(domain: &[DeviceId], faults: &[(u64, usize, u64)]) -> Vec<FailureEvent> {
        let pick = |i: usize| domain[i % domain.len()];
        let mut events: Vec<FailureEvent> = faults
            .iter()
            .flat_map(|&(at_us, i, down_us)| {
                [crash(at_us, pick(i)), repair(at_us + down_us, pick(i))]
            })
            .collect();
        events.sort_by_key(|e| e.at_us);
        events
    }

    /// Lease detection over `domain`'s network: one-device partitions
    /// `(i, from_us, len)` and gray faults `(i, from_us, len, delay_us,
    /// drop_per_mille)`.
    fn lease_detection(
        domain: &[DeviceId],
        cuts: &[(usize, u64, u64)],
        grays: &[(usize, u64, u64, u64, u16)],
        seed: u64,
    ) -> (udc_failure::DetectorConfig, NetPlan) {
        let pick = |i: usize| domain[i % domain.len()];
        let config = udc_failure::DetectorConfig {
            lease_us: 40_000,
            confirm_misses: 2,
            seed,
        };
        let net = NetPlan {
            partitions: cuts
                .iter()
                .map(|&(i, from_us, len)| Partition {
                    island: vec![pick(i)],
                    from_us,
                    until_us: from_us + len,
                })
                .collect(),
            grays: grays
                .iter()
                .map(|&(i, from_us, len, delay_us, drop_per_mille)| GrayFault {
                    device: pick(i),
                    from_us,
                    until_us: from_us + len,
                    delay_us,
                    drop_per_mille,
                })
                .collect(),
            seed,
        };
        (config, net)
    }

    /// `0..n` in a seeded order, different at every `step`.
    fn shuffled(n: usize, seed: u64, step: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = mix64(seed ^ step << 32 ^ i as u64) % (i as u64 + 1);
            order.swap(i, j as usize);
        }
        order
    }

    /// At most three devices per pool of the default datacenter: tight
    /// enough that a crash can leave a module nowhere to heal to.
    fn tight_datacenter() -> DatacenterConfig {
        let mut dc = DatacenterConfig::default();
        for pool in &mut dc.pools {
            pool.devices = pool.devices.min(3);
        }
        dc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The quiet-advance fast path is exact: a fleet whose footprints
        /// are dropped before every `advance` — so every call runs the
        /// full per-module scan — reports, places, believes and holds
        /// exactly what the normal fleet does, step by step, under crash
        /// schedules with same-tick flaps, in both detection modes.
        #[test]
        fn skipping_untouched_deployments_changes_nothing(
            kinds in prop::collection::vec(0u32..64, 2..=6),
            faults in prop::collection::vec(
                (1..LANE_STEPS * LANE_STEP_US, 0usize..64, 0..2 * LANE_STEP_US),
                0..10,
            ),
            lease in any::<bool>(),
            (cuts, grays, net_seed) in (
                prop::collection::vec((0usize..64, 0..LANE_STEPS * LANE_STEP_US, 1..500_000u64), 0..3),
                prop::collection::vec(
                    (0usize..64, 0..LANE_STEPS * LANE_STEP_US, 1..800_000u64, 0..120_000u64, 0u16..600),
                    0..3,
                ),
                any::<u64>(),
            ),
            movers in prop::collection::vec(0usize..6, LANE_STEPS as usize),
        ) {
            let apps: Vec<AppSpec> = kinds.iter().map(|&k| fleet_app(k)).collect();
            let domain = fault_domain(&Lane::new(&apps, None).deps);
            let events = fault_events(&domain, &faults);
            let detection = lease.then(|| lease_detection(&domain, &cuts, &grays, net_seed));

            let mut fast = Lane::new(&apps, detection.as_ref());
            let mut full = Lane::new(&apps, detection.as_ref());
            for lane in [&mut fast, &mut full] {
                lane.cloud
                    .datacenter_mut()
                    .set_failure_plan(FailurePlan::from_events(events.clone()));
            }
            let mut skippable = 0;
            for (step, &mover) in movers.iter().enumerate() {
                let mover = mover % fast.deps.len();
                skippable += fast.deps.iter().filter(|d| d.footprint.is_some()).count();
                let a = fast.tick(mover, LANE_STEP_US, false);
                let b = full.tick(mover, LANE_STEP_US, true);
                prop_assert_eq!(&a, &b, "reports diverged at step {}", step);
                for (x, y) in fast.deps.iter().zip(&full.deps) {
                    prop_assert_eq!(format!("{:?}", x.placement), format!("{:?}", y.placement));
                    prop_assert_eq!(format!("{:?}", x.health), format!("{:?}", y.health));
                }
                prop_assert_eq!(&fast.cloud.sensed.dead, &full.cloud.sensed.dead);
                prop_assert_eq!(
                    fast.cloud.datacenter().utilization_report(),
                    full.cloud.datacenter().utilization_report()
                );
            }
            prop_assert!(skippable > 0, "the fast path never ran");
        }

        /// Every deployment reconciles against what changed since its own
        /// last look, whatever order the caller advances them in and
        /// whichever call carries the time: random fleets on a tight
        /// datacenter, crash schedules with same-tick flaps, both detection
        /// modes (lease with partitions and gray faults), and an account
        /// that goes overdue, is suspended and pays. After every tick:
        /// (a) a suspended account leaves no deployment a healthy module,
        /// and an active one no suspension-evicted module; (b) in a tick
        /// that returned a device, every deployment's capacity-degraded
        /// modules get a re-placement attempt; (c) every module whose
        /// primary device was newly suspected or cleared gets exactly one
        /// `heal.suspect` record per verdict.
        #[test]
        fn every_deployment_reconciles_whatever_the_advance_order(
            kinds in prop::collection::vec(0u32..64, 2..=6),
            faults in prop::collection::vec(
                (1..LANE_STEPS * LANE_STEP_US, 0usize..64, 0..2 * LANE_STEP_US),
                0..10,
            ),
            lease in any::<bool>(),
            (cuts, grays, net_seed) in (
                prop::collection::vec((0usize..64, 0..LANE_STEPS * LANE_STEP_US, 1..500_000u64), 0..3),
                prop::collection::vec(
                    (0usize..64, 0..LANE_STEPS * LANE_STEP_US, 1..800_000u64, 0..120_000u64, 0u16..600),
                    0..3,
                ),
                any::<u64>(),
            ),
            (owe_at, pay_after, degrade_steps, suspend_steps) in (0..LANE_STEPS, 1..8u64, 0..3u64, 0..4u64),
            order_seed in any::<u64>(),
        ) {
            use udc_economics::{PlanSpec, QuotaGate};
            let apps: Vec<AppSpec> = kinds.iter().map(|&k| fleet_app(k)).collect();
            let mut cloud = UdcCloud::new(CloudConfig { datacenter: tight_datacenter(), ..Default::default() });
            let obs = cloud.enable_telemetry();
            let mut gate = QuotaGate::new();
            let plan = PlanSpec {
                degrade_after_us: degrade_steps * LANE_STEP_US,
                suspend_after_us: (degrade_steps + suspend_steps) * LANE_STEP_US,
                ..PlanSpec::unlimited("overdraft")
            };
            gate.open_account("tenant", plan, 0);
            let gate = udc_economics::shared(gate);
            cloud.attach_economics(gate.clone());
            let mut deps: Vec<Deployment> = apps.iter().filter_map(|a| cloud.submit(a).ok()).collect();
            prop_assume!(deps.len() >= 2);
            for dep in &mut deps {
                dep.health.max_retries = 0;
            }
            let domain = fault_domain(&deps);
            let events = fault_events(&domain, &faults);
            cloud.datacenter_mut().set_failure_plan(FailurePlan::from_events(events));
            if lease {
                let (config, net) = lease_detection(&domain, &cuts, &grays, net_seed);
                cloud.attach_failure_detection(config);
                cloud.set_net_plan(net);
            }

            for step in 0..LANE_STEPS {
                let now = cloud.datacenter().clock().now();
                {
                    let mut g = gate.lock().unwrap();
                    let acct = g.account_mut("tenant").unwrap();
                    if step == owe_at {
                        acct.charge(now, 500, None, "overage");
                    }
                    if step == owe_at + pay_after {
                        acct.pay(now, 1_000);
                    }
                }
                // Each deployment's capacity-degraded modules and its
                // modules' primary devices, before the tick.
                let degraded: Vec<Vec<ModuleId>> = deps
                    .iter()
                    .map(|d| d.health.degraded_modules().into_iter().filter(|id| !d.econ_suspended.contains(id)).collect())
                    .collect();
                let primaries: Vec<(ModuleId, DeviceId)> = deps
                    .iter()
                    .flat_map(|d| d.placement.modules.iter().map(|(id, p)| (id.clone(), p.primary_device)))
                    .collect();
                let was_suspected: Vec<DeviceId> = cloud.detector().map_or_else(Vec::new, |det| {
                    let suspected = |&d: &DeviceId| matches!(det.suspicion(d), udc_failure::Suspicion::Suspected { .. });
                    domain.iter().copied().filter(suspected).collect()
                });
                let seq_before = obs.decisions().last().map_or(0, |d| d.seq);

                let mut reports = vec![HealReport::default(); deps.len()];
                for (k, i) in shuffled(deps.len(), order_seed, step).into_iter().enumerate() {
                    let delta = if k == 0 { LANE_STEP_US } else { 0 };
                    reports[i] = cloud.advance(&mut deps[i], delta);
                }

                // (a) The account's state reaches every deployment.
                let suspended = gate.lock().unwrap().account("tenant").unwrap().is_suspended();
                for (i, dep) in deps.iter().enumerate() {
                    if suspended {
                        prop_assert!(healthy_modules(dep).is_empty(), "step {}: dep {} runs while suspended", step, i);
                    } else {
                        prop_assert!(dep.econ_suspended.is_empty(), "step {}: dep {} still suspended", step, i);
                    }
                }
                // (b) Returned capacity reaches every deployment.
                let returned = reports.iter().any(|r| {
                    let seen = if lease { r.resurrected.len() + r.restarted.len() } else { r.repaired_devices.len() };
                    seen > 0
                });
                if returned && !suspended {
                    for (i, (ids, r)) in degraded.iter().zip(&reports).enumerate() {
                        for id in ids {
                            let tried = r.repaired.iter().any(|m| &m.module == id)
                                || r.retried.contains(id)
                                || r.degraded.contains(id);
                            prop_assert!(tried, "step {}: dep {}'s {} never retried", step, i, id);
                        }
                    }
                }
                // (c) One audit record per verdict per hosted module. A
                // device suspected before the tick and alive after it,
                // without a restart, was cleared.
                let mut verdicts = BTreeSet::new();
                for r in &reports {
                    verdicts.extend(r.suspected.iter().map(|&d| (d, false)));
                }
                if let Some(det) = cloud.detector() {
                    let restarted = |d| reports.iter().any(|r| r.restarted.contains(&d));
                    let alive = |d| det.suspicion(d) == udc_failure::Suspicion::Alive;
                    let cleared = was_suspected.iter().filter(|&&d| alive(d) && !restarted(d));
                    verdicts.extend(cleared.map(|&d| (d, true)));
                }
                let mut expected: Vec<(String, String, bool)> = primaries
                    .iter()
                    .flat_map(|(id, d)| [false, true].map(|accepted| (id, *d, accepted)))
                    .filter(|&(_, d, accepted)| verdicts.contains(&(d, accepted)))
                    .map(|(id, d, accepted)| (id.to_string(), format!("dev{}", d.0), accepted))
                    .collect();
                let mut audited: Vec<(String, String, bool)> = obs
                    .decisions()
                    .iter()
                    .filter(|d| d.seq > seq_before && d.stage == "heal.suspect")
                    .map(|d| (d.module.clone(), d.candidate.clone(), d.accepted))
                    .collect();
                expected.sort();
                audited.sort();
                prop_assert_eq!(audited, expected, "step {}", step);
            }
            for dep in &mut deps {
                cloud.teardown(dep);
            }
            for kind in ResourceKind::ALL {
                let used = cloud.datacenter().pool(kind).map_or(0, |p| p.total_used());
                prop_assert_eq!(used, 0, "{} leaked", kind);
            }
        }
    }

    #[test]
    fn lease_detector_confirms_crash_within_bound_and_heals() {
        use udc_failure::DetectorConfig;
        let mut cloud = UdcCloud::new(CloudConfig::default());
        cloud.enable_telemetry();
        let cfg = DetectorConfig {
            lease_us: 1_000,
            confirm_misses: 3,
            seed: 7,
        };
        cloud.attach_failure_detection(cfg);
        let mut dep = cloud.submit(&one_task_app(None)).unwrap();
        let id = ModuleId::from("T");
        let dead = dep.placement.modules[&id].primary_device;
        cloud
            .datacenter_mut()
            .set_failure_plan(FailurePlan::from_events(vec![crash(5, dead)]));

        const STEP: u64 = 500;
        let mut confirmed_at = None;
        for _ in 0..20 {
            let r = cloud.advance(&mut dep, STEP);
            if r.confirmed.contains(&dead) {
                // Eviction happens on the confirming interval itself.
                assert_eq!(r.detected, vec![id.clone()]);
                confirmed_at = Some(cloud.datacenter().clock().now());
                break;
            }
            // Until confirmation the control plane must not evict: the
            // lag between ground truth and belief is the detection bound.
            assert!(r.detected.is_empty());
            assert!(r.repaired.is_empty());
        }
        let t = confirmed_at.expect("crash must be confirmed");
        assert!(
            t <= 5 + cfg.detection_bound_us() + STEP,
            "confirmed at {t}us, past lease×misses+poll"
        );
        assert!(dep.health.is_converged(), "healed on the confirming tick");
        assert_ne!(dep.placement.modules[&id].primary_device, dead);
        assert!(cloud.verify_deployment(&dep).all_fulfilled());
        cloud.teardown(&mut dep);
    }

    #[test]
    fn lease_detector_never_confirms_live_devices_on_a_clean_network() {
        use udc_failure::DetectorConfig;
        let mut cloud = UdcCloud::new(CloudConfig::default());
        cloud.attach_failure_detection(DetectorConfig::default());
        let mut dep = cloud.submit(&one_task_app(None)).unwrap();
        for _ in 0..50 {
            let r = cloud.advance(&mut dep, 997);
            assert!(r.suspected.is_empty(), "no gray faults → no suspicion");
            assert!(r.confirmed.is_empty(), "live devices never confirmed");
            assert!(r.is_quiet());
        }
        assert!(dep.health.is_converged());
        cloud.teardown(&mut dep);
    }

    #[test]
    fn gray_delay_false_suspect_returns_to_service_without_eviction() {
        use udc_failure::{DetectorConfig, GrayFault, NetPlan};
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let obs = cloud.enable_telemetry();
        let cfg = DetectorConfig {
            lease_us: 1_000,
            confirm_misses: 3,
            seed: 7,
        };
        cloud.attach_failure_detection(cfg);
        let mut dep = cloud.submit(&one_task_app(None)).unwrap();
        let gray = dep.placement.modules[&ModuleId::from("T")].primary_device;
        // The device is up the whole time, but its heartbeats arrive two
        // leases late for a while — a gray failure, not a crash.
        cloud.set_net_plan(NetPlan {
            grays: vec![GrayFault {
                device: gray,
                from_us: 0,
                until_us: 2_500,
                delay_us: 2_000,
                drop_per_mille: 0,
            }],
            ..NetPlan::none()
        });

        let mut was_suspected = false;
        let mut came_back = false;
        for _ in 0..10 {
            let r = cloud.advance(&mut dep, 500);
            was_suspected |= r.suspected.contains(&gray);
            came_back |= r.false_suspects > 0;
            // Suspicion alone must never evict: no detection, no
            // confirmation, no repair traffic.
            assert!(r.confirmed.is_empty(), "delay below bound must not confirm");
            assert!(r.detected.is_empty());
            assert!(r.repaired.is_empty());
        }
        assert!(was_suspected, "2-lease delay must raise suspicion");
        assert!(came_back, "suspected-but-alive device returns to service");
        assert_eq!(obs.counter("heal.false_suspects", &Labels::none()), 1);
        assert_eq!(
            cloud.detector().unwrap().suspicion(gray),
            udc_failure::Suspicion::Alive
        );
        assert!(dep.health.is_converged(), "module never left Healthy");
        assert_eq!(
            dep.placement.modules[&ModuleId::from("T")].primary_device,
            gray,
            "no needless re-placement"
        );
        cloud.teardown(&mut dep);
    }

    #[test]
    fn partition_replace_heal_fences_the_zombie_replica() {
        use udc_dist::{ReplicatedStore, ReplicationParams, StoreError};
        use udc_failure::{DetectorConfig, NetPlan, Partition};
        use udc_spec::ConsistencyLevel;

        let mut cloud = UdcCloud::new(CloudConfig::default());
        let obs = cloud.enable_telemetry();
        cloud.attach_failure_detection(DetectorConfig {
            lease_us: 1_000,
            confirm_misses: 2,
            seed: 3,
        });
        let mut dep = cloud.submit(&one_task_app(None)).unwrap();
        let id = ModuleId::from("T");
        let old_dev = dep.placement.modules[&id].primary_device;
        let old_epoch = cloud.module_epoch("T");
        assert_eq!(old_epoch, 1, "submit minted the first epoch");
        assert_eq!(dep.environments[&id].epoch(), 1);

        // Partition the device away from the control plane. It is UP —
        // no failure events — just unreachable until t=10ms.
        cloud.set_net_plan(NetPlan {
            partitions: vec![Partition {
                island: vec![old_dev],
                from_us: 0,
                until_us: 10_000,
            }],
            ..NetPlan::none()
        });

        // The detector confirms the silent device and the loop re-places
        // the module under a fresh epoch.
        let mut replaced = false;
        for _ in 0..10 {
            let r = cloud.advance(&mut dep, 500);
            if !r.repaired.is_empty() {
                replaced = true;
                break;
            }
        }
        assert!(replaced, "partitioned device must be healed around");
        let new_dev = dep.placement.modules[&id].primary_device;
        assert_ne!(new_dev, old_dev);
        assert_eq!(cloud.module_epoch("T"), 2, "re-placement minted epoch 2");
        assert_eq!(dep.placement.modules[&id].epoch, 2);
        assert_eq!(dep.environments[&id].epoch(), 2);

        // Heal the partition and let the old replica resurface.
        let mut resurrected = false;
        while cloud.datacenter().clock().now() < 13_000 {
            let r = cloud.advance(&mut dep, 1_000);
            resurrected |= r.resurrected.contains(&old_dev);
        }
        assert!(resurrected, "healed partition brings the device back");

        // The zombie presents its pre-partition epoch: launch fenced.
        assert!(!cloud.authorize_launch("T", old_dev, old_epoch));
        assert!(cloud.authorize_launch("T", new_dev, 2));
        assert_eq!(obs.counter("fence.rejected_launches", &Labels::none()), 1);
        let fenced: Vec<_> = obs
            .decisions()
            .into_iter()
            .filter(|d| d.reason == ReasonCode::Fenced)
            .collect();
        assert_eq!(fenced.len(), 1);
        assert_eq!(fenced[0].module, "T");
        assert!(!fenced[0].accepted);

        // Store-side fencing: the module's store carries the current
        // epoch; the zombie's write bounces, leaving no trace.
        let mut store = ReplicatedStore::new(
            3,
            ConsistencyLevel::Sequential,
            ReplicationParams::default(),
        )
        .unwrap();
        store.set_fence(cloud.module_epoch("T"));
        assert!(matches!(
            store.write_fenced("k", b"zombie", old_epoch),
            Err(StoreError::Fenced {
                presented: 1,
                fence: 2
            })
        ));
        assert_eq!(store.read("k").value, None, "zero post-fence writes");
        assert!(store
            .write_fenced("k", b"fresh", cloud.module_epoch("T"))
            .is_ok());
        cloud.teardown(&mut dep);
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let id = ModuleId::from("T");
        let d1 = backoff_delay_us(&id, 1);
        assert_eq!(d1, backoff_delay_us(&id, 1), "same seed, same delay");
        // Raw doubling with jitter < raw/4 + 1 keeps attempts ordered.
        for attempt in 1..12u32 {
            let d = backoff_delay_us(&id, attempt);
            let raw = (BASE_BACKOFF_US << (attempt - 1).min(32)).min(MAX_BACKOFF_US);
            assert!(d >= raw && d <= raw + raw / 4 + 1, "attempt {attempt}: {d}");
        }
        // Different modules jitter differently (herd avoidance).
        let other = ModuleId::from("U");
        assert_ne!(backoff_delay_us(&id, 3), backoff_delay_us(&other, 3));
    }

    #[test]
    fn a_crash_leaves_the_warm_pool_whole_and_the_heal_draws_from_it() {
        // Warm instances are provider-global: losing a device loses none
        // of them, and the re-launch starts warm.
        let mut cloud = UdcCloud::new(CloudConfig {
            warm_pool: udc_isolate::WarmPoolConfig::uniform(2),
            ..Default::default()
        });
        let mut dep = cloud.submit(&one_task_app(None)).unwrap();
        let id = ModuleId::from("T");
        let kind = dep.placement.modules[&id].env.kind;
        assert_eq!(cloud.scheduler_mut().warm_pool_mut().ready(kind), 1);
        let dead = dep.placement.modules[&id].primary_device;
        let plan = FailurePlan::from_events(vec![crash(5, dead)]);
        cloud.datacenter_mut().set_failure_plan(plan);
        assert_eq!(cloud.advance(&mut dep, 10).repaired.len(), 1);
        assert_eq!(
            dep.placement.modules[&id].start_mode,
            udc_sched::StartMode::Warm
        );
        let pool = cloud.scheduler_mut().warm_pool_mut();
        assert_eq!((pool.ready(kind), pool.stats().hits), (0, 2));
        cloud.teardown(&mut dep);
    }

    #[test]
    fn backoff_saturates_at_any_attempt() {
        let id = ModuleId::from("T");
        for attempt in [33, 64, 1_000, u32::MAX] {
            let d = backoff_delay_us(&id, attempt);
            assert!((MAX_BACKOFF_US..=MAX_BACKOFF_US * 5 / 4 + 1).contains(&d));
        }
    }

    #[test]
    fn the_default_budget_degrades_after_six_failed_attempts_on_schedule() {
        let mut cloud = UdcCloud::new(one_cpu_device());
        let mut dep = cloud.submit(&one_task_app(None)).unwrap();
        assert_eq!(dep.health.max_retries, 5);
        let id = ModuleId::from("T");
        let dead = dep.placement.modules[&id].primary_device;
        let plan = FailurePlan::from_events(vec![crash(5, dead)]);
        cloud.datacenter_mut().set_failure_plan(plan);
        // Attempt 1 fails at detection, with nowhere to go; attempt
        // k + 1 is due exactly `backoff_delay_us(k)` after attempt k.
        assert_eq!(cloud.advance(&mut dep, 10).retried, vec![id.clone()]);
        for attempt in 1..=5 {
            let early = cloud.advance(&mut dep, backoff_delay_us(&id, attempt) - 1);
            assert!(early.retried.is_empty() && early.degraded.is_empty());
            let due = cloud.advance(&mut dep, 1);
            let (retried, degraded) = if attempt < 5 { (1, 0) } else { (0, 1) };
            assert_eq!((due.retried.len(), due.degraded.len()), (retried, degraded));
        }
        assert_eq!(dep.health.degraded_modules(), vec![id]);
    }

    #[test]
    fn heal_telemetry_counters_and_mttr_are_exported() {
        let mut cloud = UdcCloud::new(CloudConfig::default());
        let obs = cloud.enable_telemetry();
        let mut dep = cloud.submit(&one_task_app(None)).unwrap();
        dep.recovery.seed_app(&one_task_app(None), 8);
        let id = ModuleId::from("T");
        let dead = dep.placement.modules[&id].primary_device;
        cloud
            .datacenter_mut()
            .set_failure_plan(FailurePlan::from_events(vec![crash(5, dead)]));
        cloud.advance(&mut dep, 10);

        let snap = obs.snapshot();
        let json = snap.to_json();
        assert!(json.contains("heal.repairs"));
        assert!(json.contains("heal.mttr_us"));
        assert!(json.contains("heal.evictions"));
        assert!(json.contains("heal.replayed_messages"));
        assert_eq!(obs.counter("heal.repairs", &Labels::none()), 1);
    }

    #[test]
    fn overdue_account_degrades_suspends_and_reinstates_on_payment() {
        // The tenant is in debt from the start; the lifecycle escalates:
        // overdue at t=5, degraded at t=15, suspended at t=30.
        let (mut cloud, gate) = overdue_cloud();
        let obs = cloud.enable_telemetry();
        let mut dep = cloud.submit(&one_task_app(None)).unwrap();
        let id = ModuleId::from("T");

        let r1 = cloud.advance(&mut dep, 5);
        assert!(r1.suspended.is_empty(), "overdue alone must not evict");
        assert!(dep.environments[&id].is_running());

        let r2 = cloud.advance(&mut dep, 10);
        assert!(r2.suspended.is_empty(), "degrade is advisory");
        assert!(dep.environments[&id].is_running());
        assert_eq!(obs.counter("econ.degradations", &Labels::none()), 1);

        let r3 = cloud.advance(&mut dep, 15);
        assert_eq!(r3.suspended, vec![id.clone()], "past grace: evicted");
        assert!(!dep.environments[&id].is_running());
        assert!(!dep.health.is_converged());
        assert!(dep.econ_suspended.contains(&id));
        {
            let g = gate.lock().unwrap();
            let acct = g.account("tenant").unwrap();
            assert!(acct.is_suspended());
            // The eviction itself is ledger-auditable.
            assert!(acct
                .ledger
                .entries()
                .iter()
                .any(|e| e.module.as_deref() == Some("T") && e.memo == "suspension eviction"));
        }

        // A device-repair tick must NOT re-heal the suspended module.
        cloud
            .datacenter_mut()
            .set_failure_plan(FailurePlan::from_events(vec![
                crash(32, DeviceId(0)),
                repair(33, DeviceId(0)),
            ]));
        let r4 = cloud.advance(&mut dep, 5);
        assert!(r4.repaired.is_empty(), "payment, not hardware, reinstates");
        assert!(!dep.health.is_converged());

        // Payment clears the balance; the next settle reinstates and
        // the same advance re-places the module.
        gate.lock()
            .unwrap()
            .account_mut("tenant")
            .unwrap()
            .pay(35, 1_000);
        let r5 = cloud.advance(&mut dep, 5);
        assert_eq!(r5.reinstated, vec![id.clone()]);
        assert_eq!(r5.repaired.len(), 1, "re-placed in the same interval");
        assert!(dep.health.is_converged());
        assert!(dep.environments[&id].is_running());
        assert!(dep.econ_suspended.is_empty());
        assert!(cloud.verify_deployment(&dep).all_fulfilled());

        // The audit trail explains the whole lifecycle.
        let decisions = obs.decisions();
        let stages: Vec<&str> = decisions.iter().map(|d| d.stage.as_str()).collect();
        assert!(stages.contains(&"econ.degrade"));
        assert!(stages.contains(&"econ.suspend"));
        assert!(stages.contains(&"econ.reinstate"));
        assert!(decisions
            .iter()
            .filter(|d| d.stage == "econ.suspend")
            .all(|d| d.reason == ReasonCode::Suspended && !d.accepted));
        assert_eq!(obs.counter("econ.suspensions", &Labels::none()), 1);
        assert_eq!(obs.counter("econ.reinstatements", &Labels::none()), 1);

        cloud.teardown(&mut dep);
        // Teardown released the admitted footprint back to the gate.
        assert!(gate
            .lock()
            .unwrap()
            .account("tenant")
            .unwrap()
            .in_use
            .is_zero());
    }
}
