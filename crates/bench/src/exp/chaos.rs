//! The chaos sweeps behind `udc-chaos`: a deterministic harness for
//! the self-healing control plane (§3.4).
//!
//! [`crash_sweep`] sweeps crash rate × repair delay × checkpoint cadence
//! over the medical pipeline. Each trial injects a seeded
//! [`FailurePlan`] into a fresh cloud, drives [`UdcCloud::advance`]
//! until the failure schedule drains, and asserts the convergence
//! invariants after every interval:
//!
//! - no live allocation references a dead device;
//! - no orphaned isolates (healthy ⇔ running environment with
//!   allocations; repairing/degraded ⇔ stopped, fully evicted);
//! - once converged, `verify_deployment` passes and the bill
//!   reconciles post-heal;
//! - every deployment ends converged or explicitly Degraded.
//!
//! Trials are independent: each derives its RNG seed from its index,
//! builds its own cloud (whose simulated clock stamps its records) and
//! runs in trial order on one telemetry hub — so the exported artifact
//! is byte-identical run to run.
//!
//! [`net_sweep`] switches from crash chaos to *network* chaos: every
//! trial attaches the lease-based failure detector and injects a
//! partition (width × lease length × gray-slowdown sweep) instead of
//! crashes. The devices are **up the whole time** — only their
//! heartbeats are cut or delayed — so the sweep exercises exactly the
//! gap between belief and ground truth: confirmation within the
//! detection bound, suspicion without eviction for gray devices, fresh
//! fencing epochs on re-placement, and zombie replicas whose launches
//! and writes bounce (`fenced`) after the partition heals.
//!
//! The registered artifacts (`udc_chaos`, `udc_chaos_net`) are the full
//! sweeps' *compact* per-trial summaries, distilled from the trial
//! Measurement rows (a few hundred lines); a [`Sweep`]'s hub holds the
//! complete snapshot — every span, decision, and metric series — for trace
//! tooling like `udc-trace`.

use std::collections::{BTreeMap, BTreeSet};

use crate::{banner, fmt_us, pct, tally_fires, Table};
use udc_core::{CloudConfig, Deployment, ModuleHealth, UdcCloud};
use udc_dist::{ReplicatedStore, ReplicationParams, StoreError};
use udc_failure::{DetectorConfig, GrayFault, NetPlan, Partition};
use udc_hal::{DeviceId, FailurePlan};
use udc_isolate::WarmPoolConfig;
use udc_spec::{ConsistencyLevel, FailureHandling, ModuleId};
use udc_telemetry::{EventKind, FieldValue, Labels, ReasonCode, Telemetry};
use udc_workload::medical_pipeline;

use serde_json::{Number, Value};

/// Per alert rule: (fire count, first fire, last fire).
type Fires = BTreeMap<String, (u64, u64, u64)>;

/// Crash window: every crash lands inside the first simulated second.
const HORIZON_US: u64 = 1_000_000;
/// Interval between repair-loop invocations.
const STEP_US: u64 = 250_000;
/// Messages seeded per module (the recoverable state).
const MESSAGES_PER_MODULE: u64 = 40;

/// One trial's Measurement row, as the compact artifact lists it: the
/// sweep cell and the event's fields.
struct TrialRow {
    cell: String,
    fields: Vec<(&'static str, FieldValue)>,
}

impl TrialRow {
    /// Records the row as the trial's Measurement event and returns it.
    fn record(tel: &Telemetry, labels: Labels, fields: Vec<(&'static str, FieldValue)>) -> Self {
        let cell = labels.tenant.clone().unwrap_or_default();
        tel.event(EventKind::Measurement, labels, &fields);
        Self { cell, fields }
    }
}

/// One cell of the sweep.
#[derive(Clone, Copy)]
struct Combo {
    crash_prob: f64,
    repair_delay_us: u64,
    /// 0 = re-execute everywhere; otherwise checkpoint every N messages
    /// (1 message models 1 ms of work, so this is also `interval_ms`).
    checkpoint_every: u64,
    rep: usize,
}

impl Combo {
    /// The sweep cell, without the repetition.
    fn cell(&self) -> (u32, u64, u64) {
        (
            (self.crash_prob * 100.0) as u32,
            self.repair_delay_us,
            self.checkpoint_every,
        )
    }

    fn label(&self) -> Labels {
        Labels::tenant(format!(
            "c{:02}-r{}-k{:02}-{}",
            (self.crash_prob * 100.0) as u32,
            self.repair_delay_us / 1_000,
            self.checkpoint_every,
            self.rep
        ))
    }
}

fn crash_cells(smoke: bool) -> Vec<Combo> {
    let (crash_probs, repair_delays, cadences, reps): (&[f64], &[u64], &[u64], usize) = if smoke {
        (&[0.20], &[250_000], &[0, 8], 1)
    } else {
        (&[0.08, 0.20, 0.40], &[250_000, 2_000_000], &[0, 8, 32], 3)
    };
    let mut combos = Vec::new();
    for &crash_prob in crash_probs {
        for &repair_delay_us in repair_delays {
            for &checkpoint_every in cadences {
                for rep in 0..reps {
                    combos.push(Combo {
                        crash_prob,
                        repair_delay_us,
                        checkpoint_every,
                        rep,
                    });
                }
            }
        }
    }
    combos
}

/// The cloud a trial runs: the trial's sweep cell is its tenant, so the
/// per-module series each trial leaves on the shared hub stay apart.
fn trial_config(labels: &Labels) -> CloudConfig {
    CloudConfig {
        tenant: labels.tenant.clone().expect("a sweep cell names a tenant"),
        warm_pool: WarmPoolConfig::uniform(2),
        ..Default::default()
    }
}

/// Asserts the structural invariants that must hold after *every*
/// repair interval, not just at the end.
fn assert_interval_invariants(dep: &Deployment, dead: &BTreeSet<DeviceId>, trial: usize) {
    for (id, p) in &dep.placement.modules {
        let health = dep.health.module(id);
        let env = &dep.environments[id];
        match health {
            ModuleHealth::Healthy => {
                assert!(
                    !p.allocations.is_empty(),
                    "trial {trial}: healthy module {id} holds no allocation"
                );
                assert!(
                    env.is_running(),
                    "trial {trial}: healthy module {id} has no running isolate"
                );
                for a in &p.allocations {
                    for s in &a.slices {
                        assert!(
                            !dead.contains(&s.device),
                            "trial {trial}: {id} allocation references dead device {}",
                            s.device
                        );
                    }
                }
            }
            ModuleHealth::Repairing { .. } | ModuleHealth::Degraded { .. } => {
                // Fully evicted: no allocation survives, no isolate runs
                // detached from resources (an orphan).
                assert!(
                    p.allocations.is_empty(),
                    "trial {trial}: lost module {id} still holds allocations"
                );
                assert!(
                    !env.is_running(),
                    "trial {trial}: orphaned isolate for lost module {id}"
                );
            }
        }
    }
}

/// Runs one trial, recording into `tel`; returns its Measurement row.
fn run_trial(tel: &Telemetry, trial: usize, combo: Combo) -> TrialRow {
    let seed = 0xC4A0_5000u64 + trial as u64;
    let labels = combo.label();

    // The user's failure-handling choice is the sweep's third axis:
    // override every module to the cadence under test (0 = re-execute).
    let mut app = medical_pipeline();
    for m in app.modules.values_mut() {
        m.dist.failure = Some(if combo.checkpoint_every == 0 {
            FailureHandling::Reexecute
        } else {
            FailureHandling::Checkpoint {
                interval_ms: combo.checkpoint_every,
            }
        });
    }

    let mut cloud = UdcCloud::new(trial_config(&labels));
    cloud.set_observer(tel.clone());
    let mut dep = cloud.submit(&app).expect("pipeline places");
    cloud.run(&dep); // meter the bill the post-heal reconciliation audits
    dep.recovery.seed_app(&app, MESSAGES_PER_MODULE);

    // Anchor the failure window to the post-run clock: `run` advanced
    // simulated time by the workload's execution, and a plan left on
    // `[0, HORIZON_US)` would fire entirely inside the first tick —
    // crash and repair collapsing into one interval, so no repair ever
    // races a still-dead device.
    let t0 = cloud.datacenter().clock().now();
    let devices = cloud.datacenter().device_ids();
    cloud.datacenter_mut().set_failure_plan(
        FailurePlan::random(
            &devices,
            combo.crash_prob,
            HORIZON_US,
            combo.repair_delay_us,
            seed,
        )
        .shifted(t0),
    );

    // Drive the repair loop past the last possible event (crash window +
    // repair delay) plus the worst-case retry backoff tail.
    let deadline = HORIZON_US + combo.repair_delay_us + 12_000_000;
    let mut dead: BTreeSet<DeviceId> = BTreeSet::new();
    let mut elapsed = 0u64;
    let (mut crashes, mut repairs, mut retries) = (0u64, 0u64, 0u64);
    let mut mttr_sum_us = 0u64;
    while elapsed < deadline {
        let report = cloud.advance(&mut dep, STEP_US);
        elapsed += STEP_US;
        for d in &report.crashed_devices {
            dead.insert(*d);
        }
        for d in &report.repaired_devices {
            dead.remove(d);
        }
        crashes += report.crashed_devices.len() as u64;
        repairs += report.repaired.len() as u64;
        mttr_sum_us += report.repaired.iter().map(|r| r.mttr_us).sum::<u64>();
        retries += report.retried.len() as u64;
        assert_interval_invariants(&dep, &dead, trial);
        if elapsed > HORIZON_US + combo.repair_delay_us
            && report.is_quiet()
            && dep.health.repairing_modules().is_empty()
        {
            break;
        }
    }
    assert!(
        dead.is_empty(),
        "trial {trial}: failure plan left dead devices"
    );

    // Terminal invariant: converged, or *explicitly* degraded — never a
    // silent in-between.
    let degraded = dep.health.degraded_modules();
    let converged = dep.health.is_converged();
    assert!(
        converged || !degraded.is_empty(),
        "trial {trial}: neither converged nor degraded"
    );
    assert!(
        dep.health.repairing_modules().is_empty(),
        "trial {trial}: repair still in flight at the deadline"
    );
    if converged {
        let verification = cloud.verify_deployment(&dep);
        assert!(
            verification.all_fulfilled(),
            "trial {trial}: post-heal verification failed"
        );
        let billing = verification.billing.expect("telemetry enabled");
        assert!(
            billing.consistent(),
            "trial {trial}: bill does not reconcile post-heal: {billing:?}"
        );
    }

    tel.incr("chaos.trials", labels.clone(), 1);
    tel.incr("chaos.converged", labels.clone(), converged as u64);
    tel.incr(
        "chaos.degraded_modules",
        labels.clone(),
        degraded.len() as u64,
    );
    tel.incr("chaos.device_crashes", labels.clone(), crashes);
    tel.incr("chaos.module_repairs", labels.clone(), repairs);
    tel.incr("chaos.replace_retries", labels.clone(), retries);
    // The trial's repairs are the observations it added to the hub's
    // `heal.mttr_us` histogram.
    let mttr_mean_us = if repairs == 0 {
        0.0
    } else {
        mttr_sum_us as f64 / repairs as f64
    };
    let row = TrialRow::record(
        tel,
        labels,
        vec![
            ("trial", FieldValue::from(trial)),
            ("crash_prob", FieldValue::from(combo.crash_prob)),
            ("repair_delay_us", FieldValue::from(combo.repair_delay_us)),
            ("checkpoint_every", FieldValue::from(combo.checkpoint_every)),
            ("device_crashes", FieldValue::from(crashes)),
            ("module_repairs", FieldValue::from(repairs)),
            ("converged", FieldValue::from(converged)),
            ("degraded_modules", FieldValue::from(degraded.len())),
            ("mttr_mean_us", FieldValue::from(mttr_mean_us)),
        ],
    );

    cloud.teardown(&mut dep);
    row
}

/// Partition window: long enough that every lease in the sweep crosses
/// its detection bound with room to re-place before the heal.
const NET_PARTITION_US: u64 = 4_000_000;
/// Gray-fault window (heartbeats delayed, never cut).
const NET_GRAY_US: u64 = 2_000_000;

/// One cell of the `--net` sweep.
#[derive(Clone, Copy)]
struct NetCombo {
    /// Devices isolated from the control plane (island size).
    partition_width: usize,
    /// Heartbeat lease under test.
    lease_us: u64,
    /// Gray slowdown in leases (0 = no gray device; 2 = beats arrive
    /// two leases late — suspicion territory, below the confirm bound).
    gray_x: u64,
    rep: usize,
}

impl NetCombo {
    fn label(&self) -> Labels {
        Labels::tenant(format!(
            "p{}-l{}-g{}-{}",
            self.partition_width,
            self.lease_us / 1_000,
            self.gray_x,
            self.rep
        ))
    }
}

fn net_cells(smoke: bool) -> Vec<NetCombo> {
    let (widths, leases, grays): (&[usize], &[u64], &[u64]) = if smoke {
        (&[1, 2], &[100_000], &[0, 2])
    } else {
        (&[1, 2, 3], &[100_000, 250_000, 500_000], &[0, 2])
    };
    let mut combos = Vec::new();
    for &partition_width in widths {
        for &lease_us in leases {
            for &gray_x in grays {
                combos.push(NetCombo {
                    partition_width,
                    lease_us,
                    gray_x,
                    rep: 0,
                });
            }
        }
    }
    combos
}

/// Runs one `--net` trial, recording into `tel`; returns its
/// Measurement row. The devices never crash — a partition cuts the island's
/// heartbeats and an optional gray fault delays one mainland device's —
/// so every invariant here is about *belief*: the detector must confirm
/// the island within its bound and nothing else, re-placement must mint
/// fresh fencing epochs, and the pre-partition replicas must be fenced
/// out of launches and writes once the partition heals.
fn run_net_trial(tel: &Telemetry, trial: usize, combo: NetCombo) -> TrialRow {
    let seed = 0xD15C_0000u64 + trial as u64;
    let labels = combo.label();

    let app = medical_pipeline();
    let mut cloud = UdcCloud::new(trial_config(&labels));
    cloud.set_observer(tel.clone());
    cloud.attach_failure_detection(DetectorConfig {
        lease_us: combo.lease_us,
        confirm_misses: 3,
        seed,
    });
    let mut dep = cloud.submit(&app).expect("pipeline places");
    cloud.run(&dep); // the metered bill for the post-heal reconciliation
    let t0 = cloud.datacenter().clock().now();

    // The island: the first `partition_width` distinct devices the
    // placement actually uses (module-id order, so deterministic). One
    // further in-use device goes gray when the cell asks for it.
    let mut used: Vec<DeviceId> = Vec::new();
    for p in dep.placement.modules.values() {
        if !used.contains(&p.primary_device) {
            used.push(p.primary_device);
        }
    }
    let width = combo.partition_width.min(used.len() - 1).max(1);
    let island: Vec<DeviceId> = used[..width].to_vec();
    let gray_dev = if combo.gray_x > 0 {
        used.get(width).copied()
    } else {
        None
    };
    let mut net = NetPlan {
        partitions: vec![Partition {
            island: island.clone(),
            from_us: t0,
            until_us: t0 + NET_PARTITION_US,
        }],
        ..NetPlan::none()
    };
    if let Some(g) = gray_dev {
        net.grays.push(GrayFault {
            device: g,
            from_us: t0,
            until_us: t0 + NET_GRAY_US,
            delay_us: combo.gray_x * combo.lease_us,
            drop_per_mille: 0,
        });
    }
    cloud.set_net_plan(net);

    // Pre-partition placements: these epochs become stale the moment the
    // heal loop re-places their modules.
    let pre: Vec<(ModuleId, DeviceId, u64)> = dep
        .placement
        .modules
        .iter()
        .filter(|(_, p)| island.contains(&p.primary_device))
        .map(|(id, p)| (id.clone(), p.primary_device, p.epoch))
        .collect();
    assert!(
        !pre.is_empty(),
        "trial {trial}: island carries no module — sweep is vacuous"
    );

    let bound = cloud
        .detector()
        .expect("detector attached")
        .config()
        .detection_bound_us();
    // Poll at half the lease: the detector only sees silence at poll
    // time, so a poll grid coarser than the gray delay would let the
    // delayed beats land before anyone looks — the fault would be
    // *correctly* invisible, but the sweep is here to observe it.
    let step = (combo.lease_us / 2).clamp(50_000, STEP_US);
    let deadline = NET_PARTITION_US + bound + 8_000_000;
    let mut elapsed = 0u64;
    let (mut suspects, mut confirms, mut false_suspects, mut repairs) = (0u64, 0u64, 0u64, 0u64);
    while elapsed < deadline {
        let r = cloud.advance(&mut dep, step);
        elapsed += step;
        // Soundness: suspicion only ever lands on the island or the gray
        // device; confirmation only on the island — never the mainland.
        for d in &r.suspected {
            assert!(
                island.contains(d) || Some(*d) == gray_dev,
                "trial {trial}: suspected mainland device {d}"
            );
        }
        for d in &r.confirmed {
            assert!(
                island.contains(d),
                "trial {trial}: confirmed device {d} outside the island"
            );
            // Liveness: confirmation within the provable bound of the
            // partition start, plus the poll grid.
            assert!(
                elapsed <= bound + 2 * step,
                "trial {trial}: {d} confirmed at +{elapsed}us, bound {bound}us"
            );
        }
        suspects += r.suspected.len() as u64;
        confirms += r.confirmed.len() as u64;
        false_suspects += r.false_suspects;
        repairs += r.repaired.len() as u64;
        // Structural invariants hold against the *believed* dead set.
        let believed: BTreeSet<DeviceId> =
            cloud.detector().unwrap().confirmed().into_iter().collect();
        assert_interval_invariants(&dep, &believed, trial);
        if elapsed > NET_PARTITION_US + bound
            && r.is_quiet()
            && dep.health.repairing_modules().is_empty()
        {
            break;
        }
    }

    // The partition healed: belief drains back to ground truth.
    assert!(
        cloud.detector().unwrap().confirmed().is_empty(),
        "trial {trial}: confirmed set not drained after the heal"
    );
    assert!(
        dep.health.is_converged(),
        "trial {trial}: not converged after partition heal"
    );
    assert!(confirms >= 1, "trial {trial}: island was never confirmed");
    if gray_dev.is_some() {
        assert!(
            false_suspects >= 1,
            "trial {trial}: gray device never exonerated as a false suspect"
        );
    }

    // Zombie check: every pre-partition replica presents its stale epoch
    // and must bounce — no launch authorization, no store write.
    let mut fenced_launches = 0u64;
    for (id, old_dev, old_epoch) in &pre {
        let cur = cloud.module_epoch(id.as_str());
        assert!(
            cur > *old_epoch,
            "trial {trial}: {id} kept its pre-partition epoch {old_epoch}"
        );
        assert!(
            !cloud.authorize_launch(id.as_str(), *old_dev, *old_epoch),
            "trial {trial}: zombie launch for {id} authorized"
        );
        fenced_launches += 1;
        let mut store = ReplicatedStore::new(
            3,
            ConsistencyLevel::Sequential,
            ReplicationParams::default(),
        )
        .expect("store builds");
        store.set_fence(cur);
        assert!(
            matches!(
                store.write_fenced("zombie", b"stale", *old_epoch),
                Err(StoreError::Fenced { .. })
            ),
            "trial {trial}: post-fence write accepted for {id}"
        );
        assert_eq!(store.stats().fenced_writes, 1);
        assert!(
            store.read("zombie").value.is_none(),
            "trial {trial}: zombie write left a trace"
        );
    }

    let verification = cloud.verify_deployment(&dep);
    assert!(
        verification.all_fulfilled(),
        "trial {trial}: post-heal verification failed"
    );
    let billing = verification.billing.expect("telemetry enabled");
    assert!(
        billing.consistent(),
        "trial {trial}: bill does not reconcile post-heal: {billing:?}"
    );

    tel.incr("chaos.net.trials", labels.clone(), 1);
    tel.incr("chaos.net.confirms", labels.clone(), confirms);
    tel.incr("chaos.net.false_suspects", labels.clone(), false_suspects);
    tel.incr("chaos.net.fenced_launches", labels.clone(), fenced_launches);
    tel.incr("chaos.net.module_repairs", labels.clone(), repairs);
    let row = TrialRow::record(
        tel,
        labels,
        vec![
            ("trial", FieldValue::from(trial)),
            ("partition_width", FieldValue::from(width as u64)),
            ("lease_us", FieldValue::from(combo.lease_us)),
            ("gray_x", FieldValue::from(combo.gray_x)),
            ("suspects", FieldValue::from(suspects)),
            ("confirms", FieldValue::from(confirms)),
            ("false_suspects", FieldValue::from(false_suspects)),
            ("fenced_launches", FieldValue::from(fenced_launches)),
            ("module_repairs", FieldValue::from(repairs)),
            ("converged", FieldValue::from(true)),
        ],
    );

    cloud.teardown(&mut dep);
    row
}

/// Runs the default alert ruleset over the hub's recorded
/// events/decisions and flushes the fires into its alert ring (so both
/// artifact shapes carry them). Returns per-rule (count, first, last)
/// fire times, keyed by rule name.
fn evaluate_alerts(tel: &Telemetry) -> Fires {
    let mut engine = udc_query::QueryEngine::new();
    for parsed in udc_query::default_ruleset() {
        for q in parsed.queries {
            engine.register(q).expect("preset query registers");
        }
        engine.add_rule(parsed.rule).expect("preset rule loads");
    }
    // Trial clocks all start near zero, so the hub's stream is only
    // time-ordered after the feed's sort; the barrier time just has to
    // sit past the last record (next full second, like replay).
    let snap = tel.snapshot();
    let max_at = snap
        .events
        .iter()
        .map(|e| e.at_us)
        .chain(snap.decisions.iter().map(|d| d.at_us))
        .max()
        .unwrap_or(0);
    let horizon = (max_at / 1_000_000 + 1) * 1_000_000;
    let mut feed = udc_query::HubFeed::new();
    engine.ingest(feed.poll(tel, horizon));
    engine.advance_to(horizon);
    let out = tally_fires(engine.alerts().iter().map(|a| (a.rule.clone(), a.at_us)));
    engine.fire_into(tel);
    out
}

/// A finished sweep: the hub its trials recorded into, one Measurement
/// row per trial, and the default ruleset's fires over the hub.
pub struct Sweep {
    /// The artifact the sweep's compact summary is registered as.
    pub name: &'static str,
    /// The hub every trial recorded into (the `--full-artifact` dump).
    pub hub: Telemetry,
    schema: &'static str,
    totals: &'static [&'static str],
    smoke: bool,
    rows: Vec<TrialRow>,
    alerts: Fires,
}

/// Prints the sweep's size and runs its trials in order on one hub,
/// then one alert pass over it.
fn run_sweep<C: Copy>(
    smoke: bool,
    combos: &[C],
    trial: fn(&Telemetry, usize, C) -> TrialRow,
) -> (Telemetry, Vec<TrialRow>, Fires) {
    println!(
        "{} trials ({} mode)",
        combos.len(),
        if smoke { "smoke" } else { "full" },
    );
    let tel = Telemetry::enabled();
    let rows: Vec<TrialRow> = combos
        .iter()
        .enumerate()
        .map(|(i, &combo)| trial(&tel, i, combo))
        .collect();
    // Continuous-query pass once every trial has run: the default
    // ruleset reads the hub's event/decision stream.
    let alerts = evaluate_alerts(&tel);
    (tel, rows, alerts)
}

/// The crash sweep (`smoke` = the small fixed CI subset): runs every
/// trial and prints the per-cell summary.
pub fn crash_sweep(smoke: bool) -> Sweep {
    banner(
        "udc-chaos",
        "Self-healing under deterministic chaos",
        "user-defined failure handling only matters if the provider closes \
         the loop: crash → detect → evict → re-place → re-launch → recover",
    );
    let combos = crash_cells(smoke);
    let (tel, rows, alerts) = run_sweep(smoke, &combos, run_trial);

    // Human summary per sweep cell (rep 0 shown; all reps counted).
    let mut t = Table::new(&[
        "crash prob",
        "repair delay",
        "ckpt every",
        "trials",
        "converged",
        "degraded mods",
        "crashes",
        "repairs",
        "retries",
    ]);
    const COUNTERS: [&str; 6] = [
        "chaos.trials",
        "chaos.converged",
        "chaos.degraded_modules",
        "chaos.device_crashes",
        "chaos.module_repairs",
        "chaos.replace_retries",
    ];
    let mut cells: BTreeMap<_, (Combo, [u64; 6])> = BTreeMap::new();
    for combo in &combos {
        let (_, sums) = cells.entry(combo.cell()).or_insert((*combo, [0; 6]));
        for (sum, name) in sums.iter_mut().zip(COUNTERS) {
            *sum += tel.counter(name, &combo.label());
        }
    }
    for (combo, sums) in cells.values() {
        let mut row = vec![
            pct(combo.crash_prob),
            fmt_us(combo.repair_delay_us),
            if combo.checkpoint_every == 0 {
                "reexec".to_string()
            } else {
                combo.checkpoint_every.to_string()
            },
        ];
        row.extend(sums.iter().map(u64::to_string));
        t.row(&row);
    }
    t.print();
    println!();
    if let Some(h) = tel.histogram("heal.mttr_us", &Labels::none()) {
        println!(
            "MTTR over {} repairs: mean {}, p95 {}",
            h.count,
            fmt_us(h.mean as u64),
            fmt_us(h.p95),
        );
    }
    let total = |i: usize| cells.values().map(|(_, sums)| sums[i]).sum::<u64>();
    println!(
        "convergence: {}/{} trials healed fully (the rest ended explicitly Degraded)",
        total(1),
        total(0),
    );
    print_alerts(&alerts);
    Sweep {
        name: "udc_chaos",
        hub: tel,
        schema: "udc.chaos.compact.v1",
        totals: &[
            "trials",
            "converged",
            "device_crashes",
            "module_repairs",
            "degraded_modules",
        ],
        smoke,
        rows,
        alerts,
    }
}

/// The partition/gray sweep under the lease detector (`udc-chaos
/// --net`). Same execution model as the crash sweep — independent
/// seeded trials in trial order on one hub, then one alert pass over
/// it.
pub fn net_sweep(smoke: bool) -> Sweep {
    banner(
        "udc-chaos --net",
        "Lease detection under partitions and gray failures",
        "the detector sees only heartbeat arrivals: partitions are \
         indistinguishable from crashes, so eviction must come with a \
         fencing epoch that locks the old replica out after the heal",
    );
    let combos = net_cells(smoke);
    let (tel, rows, alerts) = run_sweep(smoke, &combos, run_net_trial);

    let mut t = Table::new(&[
        "island",
        "lease",
        "gray",
        "trials",
        "confirms",
        "false suspects",
        "fenced launches",
        "repairs",
    ]);
    for combo in &combos {
        let l = combo.label();
        t.row(&[
            combo.partition_width.to_string(),
            fmt_us(combo.lease_us),
            if combo.gray_x == 0 {
                "—".to_string()
            } else {
                format!("{}× lease", combo.gray_x)
            },
            tel.counter("chaos.net.trials", &l).to_string(),
            tel.counter("chaos.net.confirms", &l).to_string(),
            tel.counter("chaos.net.false_suspects", &l).to_string(),
            tel.counter("chaos.net.fenced_launches", &l).to_string(),
            tel.counter("chaos.net.module_repairs", &l).to_string(),
        ]);
    }
    t.print();
    println!();
    println!(
        "every trial healed, reconciled its bill, and fenced all zombie \
         launches and writes (0 accepted)"
    );
    print_alerts(&alerts);
    Sweep {
        name: "udc_chaos_net",
        hub: tel,
        schema: "udc.chaos.net.compact.v1",
        totals: &[
            "trials",
            "converged",
            "confirms",
            "false_suspects",
            "fenced_launches",
            "module_repairs",
        ],
        smoke,
        rows,
        alerts,
    }
}

fn print_alerts(alerts: &Fires) {
    if !alerts.is_empty() {
        let parts: Vec<String> = alerts
            .iter()
            .map(|(rule, (count, _, _))| format!("{count} {rule}"))
            .collect();
        println!("alerts (default ruleset): {}", parts.join(", "));
    }
}

impl Sweep {
    /// The compact per-trial artifact: one object per trial Measurement
    /// row (in trial order) plus sweep totals, the hub's MTTR summary
    /// and the alert fires. A 54-trial sweep exports a few hundred lines
    /// instead of the ~200k-line full snapshot. Rows come from the
    /// trials themselves, not from the hub's flight recorder, so its
    /// ring eviction can never drop one.
    pub fn compact_json(&self) -> String {
        fn field(v: &FieldValue) -> Value {
            match v {
                FieldValue::U64(u) => Value::Number(Number::U(*u)),
                FieldValue::I64(i) => Value::Number(Number::I(*i)),
                FieldValue::F64(f) => Value::Number(Number::F(*f)),
                FieldValue::Str(s) => Value::String(s.clone()),
                FieldValue::Bool(b) => Value::Bool(*b),
            }
        }
        let mut trials = Vec::new();
        let mut totals: Vec<(&str, u64)> = self.totals.iter().map(|&k| (k, 0)).collect();
        for row in &self.rows {
            let mut obj = vec![("cell".to_string(), Value::String(row.cell.clone()))];
            for (k, v) in &row.fields {
                obj.push((k.to_string(), field(v)));
            }
            for (name, total) in totals.iter_mut() {
                match row.fields.iter().find(|(k, _)| k == name) {
                    Some((_, FieldValue::U64(u))) => *total += u,
                    Some((_, FieldValue::Bool(b))) => *total += *b as u64,
                    _ => *total += (*name == "trials") as u64,
                }
            }
            trials.push(Value::Object(obj));
        }
        let mttr = self
            .hub
            .histogram("heal.mttr_us", &Labels::none())
            .map(|h| {
                Value::Object(vec![
                    ("count".to_string(), Value::Number(Number::U(h.count))),
                    ("mean".to_string(), Value::Number(Number::F(h.mean))),
                    ("p50".to_string(), Value::Number(Number::U(h.p50))),
                    ("p95".to_string(), Value::Number(Number::U(h.p95))),
                    ("max".to_string(), Value::Number(Number::U(h.max))),
                ])
            })
            .unwrap_or(Value::Null);
        let doc = Value::Object(vec![
            ("schema".to_string(), Value::String(self.schema.to_string())),
            (
                "mode".to_string(),
                Value::String(if self.smoke { "smoke" } else { "full" }.to_string()),
            ),
            (
                "totals".to_string(),
                Value::Object(
                    totals
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), Value::Number(Number::U(v))))
                        .collect(),
                ),
            ),
            ("mttr_us".to_string(), mttr),
            (
                "alerts".to_string(),
                Value::Array(
                    self.alerts
                        .iter()
                        .map(|(rule, (count, first, last))| {
                            Value::Object(vec![
                                ("rule".to_string(), Value::String(rule.clone())),
                                ("count".to_string(), Value::Number(Number::U(*count))),
                                ("first_us".to_string(), Value::Number(Number::U(*first))),
                                ("last_us".to_string(), Value::Number(Number::U(*last))),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("trials".to_string(), Value::Array(trials)),
        ]);
        serde_json::to_string_pretty(&doc) + "\n"
    }

    /// Prints the repair/fencing decision audit for one module.
    pub fn explain(&self, module: &str) {
        let snapshot = self.hub.snapshot();
        let picked: Vec<_> = snapshot
            .decisions
            .iter()
            .filter(|d| {
                // The repair story for a module spans three stages: the
                // heal loop's own records (detect/degraded), the
                // re-placement audit, where rejected candidates carry
                // the crash_excluded code, and the fence check, where a
                // zombie replica's stale epoch is turned away. Plain
                // submit-time placement records never use these reason
                // codes, so this picks out exactly the healing trail.
                d.module == module
                    && (d.stage.starts_with("heal.")
                        || d.stage.starts_with("fence.")
                        || matches!(
                            d.reason,
                            ReasonCode::CrashExcluded
                                | ReasonCode::Evicted
                                | ReasonCode::Degraded
                                | ReasonCode::Fenced
                        ))
            })
            .collect();
        println!();
        if picked.is_empty() {
            println!("no repair decisions recorded for module `{module}`");
            return;
        }
        println!("repair audit for `{module}` ({} records):", picked.len());
        let mut t = Table::new(&["at", "stage", "candidate", "verdict", "reason", "detail"]);
        for d in picked {
            t.row(&[
                fmt_us(d.at_us),
                d.stage.clone(),
                d.candidate.clone(),
                if d.accepted { "accepted" } else { "rejected" }.to_string(),
                d.reason.as_str().to_string(),
                d.detail.clone(),
            ]);
        }
        t.print();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udc_telemetry::{Histogram, SeriesName};

    /// The hub's `heal.mttr_us` histogram (one unlabelled series).
    fn mttr_histogram(tel: &Telemetry) -> Histogram {
        let view = tel.view().expect("enabled hub");
        let found = view
            .histograms_named(&SeriesName::new("heal.mttr_us"), 0)
            .map(|(_, h)| h.clone())
            .next();
        found.unwrap_or_default()
    }

    fn field<'r>(row: &'r TrialRow, name: &str) -> &'r FieldValue {
        let (_, value) = row.fields.iter().find(|(k, _)| *k == name).expect("field");
        value
    }

    #[test]
    fn a_trials_mttr_mean_is_its_share_of_the_hub_histogram() {
        let tel = Telemetry::enabled();
        let mut repaired = 0;
        for (trial, combo) in crash_cells(true).into_iter().enumerate() {
            let before = mttr_histogram(&tel);
            let row = run_trial(&tel, trial, combo);
            let share = mttr_histogram(&tel).diff(&before);
            let mean = if share.count() == 0 {
                0.0
            } else {
                share.sum() as f64 / share.count() as f64
            };
            assert_eq!(
                field(&row, "module_repairs"),
                &FieldValue::from(share.count())
            );
            assert_eq!(field(&row, "mttr_mean_us"), &FieldValue::from(mean));
            assert_eq!(row.cell, combo.label().tenant.unwrap());
            repaired += share.count();
        }
        assert!(repaired > 0, "the smoke sweep repairs something");
    }

    #[test]
    fn a_trial_measures_the_same_whatever_ran_before_it() {
        let combos = crash_cells(true);
        let alone = run_trial(&Telemetry::enabled(), 1, combos[1]);
        let shared = Telemetry::enabled();
        run_trial(&shared, 0, combos[0]);
        let after = run_trial(&shared, 1, combos[1]);
        assert_eq!(alone.cell, after.cell);
        assert_eq!(alone.fields, after.fields);
    }
}
