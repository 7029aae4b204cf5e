//! The two closed loops — tenant lives and control-loop ticks — and what
//! they record: wall-clock samples, sim-clock totals, layer counts from
//! the public reports, and a check on every operation's outcome.

use crate::corpus::{self, Ask, Draw};
use crate::instrument::{is_heal, Instrument};
use crate::scenario::{self, Kind, Scenario, MAX_TICKS_PER_ROUND, SEED_MESSAGES, TICK_US};
use std::collections::BTreeSet;
use std::time::Instant;
use udc_core::{CloudError, Deployment, HealReport, RunReport, UdcCloud};
use udc_economics::SharedQuotaGate;
use udc_failure::NetPlan;
use udc_hal::{DeviceId, FailureEvent, FailurePlan};
use udc_sched::{AppPlacement, SchedError};
use udc_spec::{parse_app, AppSpec, ModuleKind, ResourceKind};

/// How a round's timed section is sized.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Wall-clock seconds: what the contract's `--seconds` asks for.
    Seconds(f64),
    /// A fixed number of lives or ticks, so sim results repeat exactly.
    Ops(u64),
}

/// At most this many rounds; more than asked for are only started when a
/// fleet round ran out of plan before it ran out of time.
const MAX_ROUNDS: usize = 12;
/// After the timed ticks, tick on (untimed, faults switched off) until
/// every repair has landed — or give up after this many ticks.
const MAX_DRAIN_TICKS: u64 = 200;
/// When the median of the rounds' set-ups is below `CHEAP_SETUP_S` seconds,
/// a run keeps setting up (build, time, drop) until that has taken
/// `EXTRA_SETUP_S` seconds or it has `SETUP_SAMPLES` samples: a set-up of a
/// millisecond read a few times back to back reads the host's mood of that
/// instant.
const SETUP_SAMPLES: usize = 1_000;
const CHEAP_SETUP_S: f64 = 0.05;
const EXTRA_SETUP_S: f64 = 1.0;
/// Keep at most this many failure descriptions.
const MAX_NOTES: usize = 8;

/// FNV-1a over the sim-side results of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        self.u64(s.len() as u64);
    }

    fn run_report(&mut self, r: &RunReport) {
        self.u64(r.makespan_us);
        self.u64(r.cost.total);
        self.u64(r.sealed_messages);
        self.u64(r.sealed_bytes);
        self.u64(r.transfer_us);
        self.u64(r.warm_fraction.to_bits());
        for (id, (start, end)) in &r.timings {
            self.str(id.as_str());
            self.u64(*start);
            self.u64(*end);
        }
    }

    fn heal_report(&mut self, r: &HealReport) {
        for d in r.crashed_devices.iter().chain(&r.repaired_devices) {
            self.u64(d.0 as u64);
        }
        for d in r.suspected.iter().chain(&r.confirmed).chain(&r.resurrected) {
            self.u64(d.0 as u64);
        }
        for id in r.detected.iter().chain(&r.retried).chain(&r.degraded) {
            self.str(id.as_str());
        }
        for m in &r.repaired {
            self.str(m.module.as_str());
            self.u64(m.new_device.0 as u64);
            self.u64(m.mttr_us);
            self.u64(m.attempts as u64);
        }
        self.u64(r.evicted_allocations);
        self.u64(r.false_suspects);
    }

    fn placement(&mut self, p: &AppPlacement) {
        for (id, m) in &p.modules {
            self.str(id.as_str());
            self.u64(m.primary_device.0 as u64);
            self.u64(m.startup_us);
            for a in &m.allocations {
                for s in &a.slices {
                    self.u64(s.device.0 as u64);
                    self.u64(s.units);
                }
            }
        }
    }
}

/// Outcome checks: every operation is attempted once and fails at most
/// once, whatever the number of things wrong with it.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Records one operation; `problem` says what was wrong, if anything.
    pub fn operation(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(note) = problem {
            self.failed += 1;
            if self.notes.len() < MAX_NOTES {
                self.notes.push(note);
            }
        }
    }
}

/// Counts read off the public reports, per layer.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub lives: u64,
    pub refused: u64,
    pub modules_placed: u64,
    pub allocations: u64,
    pub slices: u64,
    pub sealed_messages: u64,
    pub runs: u64,
    pub makespan_us: u64,
    pub cost_microdollars: u64,
    pub ticks: u64,
    pub advances: u64,
    pub heal_advances: u64,
    pub detected: u64,
    pub repaired: u64,
    pub retried: u64,
    pub degraded: u64,
    pub evicted_allocations: u64,
    pub suspected: u64,
    pub confirmed: u64,
    pub false_suspects: u64,
    pub mttr_us: u64,
    pub messages_replayed: u64,
    pub warm_hits: u64,
    pub warm_misses: u64,
    pub hub_records: u64,
    pub hub_dropped: u64,
    pub alerts_fired: u64,
    pub ledger_entries: u64,
    /// Compute utilization after pre-fill, last round.
    pub utilization: f64,
}

/// Wall-clock totals per stage of a life, for the printed breakdown.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageNs {
    pub lives: u64,
    pub parse: u64,
    pub submit: u64,
    pub run: u64,
    pub verify: u64,
    pub teardown: u64,
}

impl StageNs {
    fn add(&mut self, at: &[Instant; 6]) {
        let ns = |a: usize, b: usize| (at[b] - at[a]).as_nanos() as u64;
        self.lives += 1;
        self.parse += ns(0, 1);
        self.submit += ns(1, 2);
        self.run += ns(2, 3);
        self.verify += ns(3, 4);
        self.teardown += ns(4, 5);
    }
}

#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// One set-up time per round (and per extra set-up, when cheap).
    pub setup_s: Vec<f64>,
    /// `RecoveryModel::seed_app` wall time per deployment, fleet set-up only.
    pub seed_app_ns: Vec<u64>,
    /// Wall time inside the timed sections.
    pub timed_ns: u64,
    /// Lives completed, or `advance` calls completed.
    pub ops: u64,
    /// Deploy latency per life (spec text → live deployment), or the
    /// barrier time per tick.
    pub op_ns: Vec<u64>,
    pub stage_ns: StageNs,
    /// The same for the medical pipeline alone (the paper's example).
    pub medical_ns: StageNs,
    /// `(ticks, median tick ns, hub records)` per fleet round.
    pub round_ticks: Vec<(u64, u64, u64)>,
    pub rounds: usize,
    pub checks: Checks,
    pub counts: Counts,
    pub digest: Digest,
}

impl Outcome {
    /// Operations over wall time, the whole timed section. (A median over
    /// windows of identical work was tried and repeats worse: the host
    /// flips between two speeds for seconds at a time, and a median picks
    /// one of them where a mean averages both.)
    pub fn ops_per_s(&self) -> f64 {
        if self.timed_ns == 0 {
            0.0
        } else {
            self.ops as f64 / (self.timed_ns as f64 / 1e9)
        }
    }
}

/// Runs `rounds` rounds of `scn` (more if fleet rounds exhaust their
/// fault plan early), each with its own set-up and a timed section of
/// `budget`.
pub fn run(
    scn: &Scenario,
    seed: u64,
    budget: Budget,
    rounds: usize,
    mut instrument: Option<&mut Instrument>,
) -> Outcome {
    let mut out = Outcome::default();
    let round_seed = |round: usize| seed.wrapping_mul(1_000_003).wrapping_add(round as u64);
    loop {
        let slice = match budget {
            Budget::Seconds(s) => {
                // A fleet round that ran out of fault plan leaves time over.
                let left = s * rounds as f64 - out.timed_ns as f64 / 1e9;
                Budget::Seconds(left.min(s))
            }
            ops => ops,
        };
        let stage = set_up(scn, round_seed(out.rounds), &mut out);
        let round = match scn.kind {
            Kind::Churn => churn_round,
            Kind::Fleet => fleet_round,
        };
        round(scn, stage, slice, &mut out, instrument.as_deref_mut());
        out.rounds += 1;
        let more = match budget {
            Budget::Seconds(s) => {
                out.timed_ns as f64 / 1e9 < s * (rounds as f64 - 0.1) && out.rounds < MAX_ROUNDS
            }
            Budget::Ops(_) => out.rounds < rounds,
        };
        if !more {
            break;
        }
    }
    if matches!(budget, Budget::Seconds(_))
        && instrument.is_none()
        && crate::stats::median_f64(&out.setup_s) < CHEAP_SETUP_S
    {
        let mut scratch = Outcome::default();
        let started = Instant::now();
        while out.setup_s.len() < SETUP_SAMPLES && started.elapsed().as_secs_f64() < EXTRA_SETUP_S {
            drop(set_up(scn, round_seed(out.setup_s.len()), &mut scratch));
            out.setup_s.append(&mut scratch.setup_s);
        }
    }
    out
}

fn budget_left(budget: Budget, started: Instant, ops: u64) -> bool {
    match budget {
        Budget::Seconds(s) => started.elapsed().as_secs_f64() < s,
        Budget::Ops(n) => ops < n,
    }
}

fn count_placement(counts: &mut Counts, placement: &AppPlacement) {
    counts.modules_placed += placement.modules.len() as u64;
    for m in placement.modules.values() {
        counts.allocations += m.allocations.len() as u64;
        counts.slices += m
            .allocations
            .iter()
            .map(|a| a.slices.len() as u64)
            .sum::<u64>();
    }
}

fn count_run(out: &mut Outcome, report: &RunReport) {
    out.counts.runs += 1;
    out.counts.makespan_us += report.makespan_us;
    out.counts.cost_microdollars += report.cost.total;
    out.counts.sealed_messages += report.sealed_messages;
    out.digest.run_report(report);
}

/// Everything a round's timed section starts from.
struct Stage {
    seed: u64,
    cloud: UdcCloud,
    gate: Option<SharedQuotaGate>,
    /// The standing population as the tenant sent it, and as deployed.
    apps: Vec<AppSpec>,
    deps: Vec<Deployment>,
    /// Pool levels before anything was placed.
    empty: Vec<(ResourceKind, u64, u64)>,
    /// Fleets: the fault plans installed, and the sim time they start at.
    events: Vec<FailureEvent>,
    net: NetPlan,
    t0_us: u64,
}

/// Set-up, timed as one `setup_s` sample: load the corpus (parse, prefix
/// and print the standing population's specs), build the cloud with its
/// attachments, pre-fill; for a fleet also seed recoverable state and
/// install the fault plans.
fn set_up(scn: &Scenario, seed: u64, out: &mut Outcome) -> Stage {
    let started = Instant::now();
    let tag = match scn.kind {
        Kind::Churn => "s",
        Kind::Fleet => "d",
    };
    let apps: Vec<AppSpec> = scn
        .standing_specs(seed)
        .iter()
        .enumerate()
        .map(|(slot, spec)| {
            parse_app(&corpus::prefixed_text(spec, tag, slot)).expect("prefixed corpus text parses")
        })
        .collect();
    let (mut cloud, gate) = scenario::build_cloud(scn, seed, &apps);
    let empty = cloud.datacenter().utilization_report();
    let mut deps = Vec::with_capacity(apps.len());
    for app in &apps {
        match cloud.submit(app) {
            Ok(dep) => {
                count_placement(&mut out.counts, &dep.placement);
                out.checks.operation(None);
                deps.push(dep);
            }
            Err(e) => out
                .checks
                .operation(Some(format!("standing deployment refused: {e}"))),
        }
    }
    let mut stage = Stage {
        seed,
        cloud,
        gate,
        apps,
        deps,
        empty,
        events: Vec::new(),
        net: NetPlan::none(),
        t0_us: 0,
    };
    if scn.kind == Kind::Fleet {
        for (dep, app) in stage.deps.iter_mut().zip(&stage.apps) {
            let t = Instant::now();
            dep.recovery.seed_app(app, SEED_MESSAGES);
            out.seed_app_ns.push(t.elapsed().as_nanos() as u64);
        }
        let occupied = fault_domain(&stage.deps);
        stage.t0_us = stage.cloud.datacenter().clock().now();
        stage.events = scenario::failure_events(&occupied, stage.t0_us, seed);
        stage
            .cloud
            .datacenter_mut()
            .set_failure_plan(FailurePlan::from_events(stage.events.clone()));
        if scn.attached {
            stage.net = scenario::net_plan(&occupied, stage.t0_us, seed);
            stage.cloud.set_net_plan(stage.net.clone());
        }
    }
    out.setup_s.push(started.elapsed().as_secs_f64());
    out.counts.utilization = stage.cloud.datacenter().compute_utilization();
    stage
}

fn churn_round(
    scn: &Scenario,
    stage: Stage,
    budget: Budget,
    out: &mut Outcome,
    mut instrument: Option<&mut Instrument>,
) {
    let Stage {
        seed,
        mut cloud,
        apps,
        deps: mut standing,
        empty,
        ..
    } = stage;
    if let Some(ins) = instrument.as_deref_mut() {
        ins.begin_round(scn, seed, &apps, &[], 0, NetPlan::none());
    }

    let mut draw = Draw::new(seed);
    let started = Instant::now();
    let mut done = 0u64;
    while budget_left(budget, started, done) {
        let ask = draw.next().expect("draws never end");
        let before = cloud.datacenter().utilization_report();
        match ask {
            Ask::Deploy(i) => {
                let spec = &corpus::FEASIBLE[i];
                let t0 = Instant::now();
                let app = parse_app(spec.text).expect("corpus spec parses");
                let t1 = Instant::now();
                let submitted = cloud.submit(&app);
                let t2 = Instant::now();
                let mut dep = match submitted {
                    Ok(dep) => dep,
                    Err(e) => {
                        out.checks.operation(Some(format!(
                            "{}: feasible submit refused: {e}",
                            spec.name
                        )));
                        done += 1;
                        continue;
                    }
                };
                let report = cloud.run(&dep);
                let t3 = Instant::now();
                let verification = cloud.verify_deployment(&dep);
                let t4 = Instant::now();
                cloud.teardown(&mut dep);
                let t5 = Instant::now();
                let at = [t0, t1, t2, t3, t4, t5];
                // Teardown releases the placement's resources, not its record.
                count_placement(&mut out.counts, &dep.placement);
                out.digest.placement(&dep.placement);

                let problem = if !verification.all_fulfilled() {
                    Some(format!("{}: verification not fulfilled", spec.name))
                } else if cloud.datacenter().utilization_report() != before {
                    Some(format!("{}: capacity differs after teardown", spec.name))
                } else {
                    None
                };
                out.checks.operation(problem);
                count_run(out, &report);
                out.counts.lives += 1;
                out.ops += 1;
                out.op_ns.push((t2 - t0).as_nanos() as u64);
                out.stage_ns.add(&at);
                if i == 0 {
                    out.medical_ns.add(&at);
                }
                if let Some(ins) = instrument.as_deref_mut() {
                    ins.life(done as u32, at, &app, &report);
                }
            }
            Ask::Refuse => {
                let t0 = Instant::now();
                let app = parse_app(corpus::REFUSED.text).expect("corpus spec parses");
                let refused = cloud.submit(&app);
                let t1 = Instant::now();
                let problem = match refused {
                    Err(CloudError::Sched(SchedError::Alloc { .. })) => {
                        (cloud.datacenter().utilization_report() != before)
                            .then(|| "refusal left capacity held".to_string())
                    }
                    Err(e) => Some(format!("infeasible ask refused with the wrong error: {e}")),
                    Ok(_) => Some("infeasible ask was accepted".to_string()),
                };
                out.checks.operation(problem);
                out.counts.refused += 1;
                out.digest.str("refused");
                if let Some(ins) = instrument.as_deref_mut() {
                    ins.refusal(done as u32, t0, t1);
                }
            }
        }
        done += 1;
    }
    out.timed_ns += started.elapsed().as_nanos() as u64;

    for dep in &mut standing {
        cloud.teardown(dep);
    }
    let leftover = cloud.datacenter().utilization_report() != empty;
    out.checks
        .operation(leftover.then(|| "capacity held after the last teardown".to_string()));
}

/// The devices faults are drawn from: those running the fleet's task
/// modules, in id order. Storage shelves are left out: one holds hundreds
/// of data modules, so a crash there is a different and far rarer event
/// whose blast radius would decide a whole run's numbers.
fn fault_domain(deps: &[Deployment]) -> Vec<DeviceId> {
    let mut set = BTreeSet::new();
    for dep in deps {
        for (id, m) in &dep.placement.modules {
            if dep.ir.app.module(id).map(|m| m.kind) == Some(ModuleKind::Task) {
                set.insert(m.primary_device);
            }
        }
    }
    set.into_iter().collect()
}

/// Takes in a report that was not quiet.
fn absorb(out: &mut Outcome, r: &HealReport) {
    let c = &mut out.counts;
    c.heal_advances += u64::from(is_heal(r));
    c.detected += r.detected.len() as u64;
    c.repaired += r.repaired.len() as u64;
    c.retried += r.retried.len() as u64;
    c.degraded += r.degraded.len() as u64;
    c.evicted_allocations += r.evicted_allocations;
    c.suspected += r.suspected.len() as u64;
    c.confirmed += r.confirmed.len() as u64;
    c.false_suspects += r.false_suspects;
    for m in &r.repaired {
        c.mttr_us += m.mttr_us;
        c.messages_replayed += m.recovery.as_ref().map_or(0, |o| o.replayed as u64);
    }
    out.digest.heal_report(r);
}

/// One barrier: `advance` over every deployment, the first call carrying
/// the tick's simulated time. Returns the barrier's wall time in ns.
fn tick(
    cloud: &mut UdcCloud,
    deps: &mut [Deployment],
    out: &mut Outcome,
    tick_no: u32,
    instrument: Option<&mut Instrument>,
) -> u64 {
    let start = Instant::now();
    let mut ins = instrument;
    // A traced tick times its first advance always, and the rest only in
    // sampled ticks: two clock reads cost a tenth of a quiet advance.
    let time_all = ins
        .as_deref_mut()
        .is_some_and(|ins| ins.tick_begin(tick_no, start));
    for (i, dep) in deps.iter_mut().enumerate() {
        let delta = if i == 0 { TICK_US } else { 0 };
        match ins.as_deref_mut() {
            Some(ins) if time_all || i == 0 => {
                let t0 = Instant::now();
                let report = cloud.advance(dep, delta);
                let t1 = Instant::now();
                if !report.is_quiet() {
                    absorb(out, &report);
                    ins.believe(&report);
                }
                ins.advance(tick_no, i, t0, t1, cloud, dep, &report);
            }
            other => {
                let report = cloud.advance(dep, delta);
                if !report.is_quiet() {
                    absorb(out, &report);
                    if let Some(ins) = other {
                        ins.believe(&report);
                    }
                }
            }
        }
    }
    let end = Instant::now();
    if let Some(ins) = ins {
        ins.tick_end(end);
    }
    (end - start).as_nanos() as u64
}

fn fleet_round(
    scn: &Scenario,
    stage: Stage,
    budget: Budget,
    out: &mut Outcome,
    mut instrument: Option<&mut Instrument>,
) {
    let Stage {
        seed,
        mut cloud,
        gate,
        apps,
        mut deps,
        empty,
        events,
        net,
        t0_us,
    } = stage;
    if let Some(ins) = instrument.as_deref_mut() {
        ins.begin_round(scn, seed, &apps, &events, t0_us, net);
    }

    // Warm up, untimed and untraced (the faults in these ticks are real:
    // their repairs are counted and checked like any other).
    let warmup = match budget {
        Budget::Seconds(_) => scn.warmup_ticks,
        Budget::Ops(_) => 0,
    };
    for _ in 0..warmup {
        tick(&mut cloud, &mut deps, out, u32::MAX, None);
    }

    // Timed: ticks.
    let first_sample = out.op_ns.len();
    let started = Instant::now();
    let mut ticks = 0u64;
    while budget_left(budget, started, ticks) && warmup + ticks < MAX_TICKS_PER_ROUND {
        let tick_no = (out.counts.ticks + ticks) as u32;
        let ns = tick(
            &mut cloud,
            &mut deps,
            out,
            tick_no,
            instrument.as_deref_mut(),
        );
        out.op_ns.push(ns);
        ticks += 1;
    }
    out.timed_ns += started.elapsed().as_nanos() as u64;
    out.ops += ticks * deps.len() as u64;
    out.counts.ticks += ticks;
    out.counts.advances += ticks * deps.len() as u64;

    // Drain, untimed: no new faults, only the repairs already owed, until
    // every deployment has settled. `failure_events` emits each crash
    // directly followed by its repair.
    let now = cloud.datacenter().clock().now();
    let owed: Vec<FailureEvent> = events
        .chunks(2)
        .filter(|pair| pair[0].at_us <= now && pair[1].at_us > now)
        .map(|pair| pair[1])
        .collect();
    cloud
        .datacenter_mut()
        .set_failure_plan(FailurePlan::from_events(owed));
    cloud.set_net_plan(NetPlan::none());
    let mut calm_ticks = 0;
    for _ in 0..MAX_DRAIN_TICKS {
        let before = out.counts.heal_advances;
        tick(&mut cloud, &mut deps, out, u32::MAX, None);
        let settled = deps.iter().all(|d| d.health.repairing_modules().is_empty());
        calm_ticks = if settled && out.counts.heal_advances == before {
            calm_ticks + 1
        } else {
            0
        };
        // Two simulated seconds with nothing to do: every owed repair has
        // fired and no device is left suspected or awaiting resurrection.
        if calm_ticks >= 8 {
            break;
        }
    }

    let mut sorted: Vec<u64> = out.op_ns[first_sample..].to_vec();
    let snapshot = cloud.observer().snapshot();
    let records =
        (snapshot.counters.len() + snapshot.events.len() + snapshot.decisions.len()) as u64;
    out.round_ticks
        .push((ticks, crate::stats::median_u64(&mut sorted), records));
    out.counts.hub_records = records;
    out.counts.hub_dropped +=
        snapshot.dropped_events + snapshot.dropped_decisions + snapshot.dropped_alerts;
    out.counts.alerts_fired += snapshot.alerts.len() as u64 + snapshot.dropped_alerts;

    // Every deployment ends converged (then it must still run, verify and
    // bill correctly) or explicitly degraded.
    for dep in &mut deps {
        let problem = if dep.health.is_converged() {
            let report = cloud.run(dep);
            count_run(out, &report);
            let verification = cloud.verify_deployment(dep);
            if !verification.all_fulfilled() {
                Some("post-heal verification not fulfilled".to_string())
            } else if verification
                .billing
                .as_ref()
                .is_some_and(|b| !b.consistent())
            {
                Some("post-heal bill does not reconcile".to_string())
            } else {
                None
            }
        } else if dep.health.degraded_modules().is_empty() {
            Some("neither converged nor degraded at the end".to_string())
        } else {
            None
        };
        out.checks.operation(problem);
        out.digest.placement(&dep.placement);
        cloud.teardown(dep);
    }
    let stats = cloud.scheduler_mut().warm_pool_mut().stats();
    out.counts.warm_hits += stats.hits;
    out.counts.warm_misses += stats.misses;

    let mut leftover = None;
    if cloud.datacenter().utilization_report() != empty {
        leftover = Some("capacity held after the last teardown".to_string());
    }
    if let Some(gate) = &gate {
        let gate = gate.lock().expect("quota gate poisoned");
        let account = gate.account("tenant").expect("account was opened");
        out.counts.ledger_entries += account.ledger.entries().len() as u64;
        if account.in_use.iter().any(|(_, units)| units > 0) {
            leftover = Some("quota held after the last teardown".to_string());
        }
        if !account.ledger.conservation_holds() {
            leftover = Some("ledger conservation broken".to_string());
        }
    }
    out.checks.operation(leftover);
}
