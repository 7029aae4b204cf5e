//! Metric definitions (the single source `BENCHMARK.json` is printed
//! from), and how an [`Outcome`] becomes values, a table and the result
//! line.

use crate::instrument::Instrument;
use crate::run::Outcome;
use crate::scenario::{Kind, Scenario, WORKLOADS};
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
    pub meaning: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    meaning: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        meaning,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    meaning: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        meaning,
    }
}

/// What a user of the system sees. Every workload reports every one, and
/// none is ever zero. An *operation* is what the workload's caller waits
/// for: a tenant life on `churn_*`, an `advance` call on `fleet_*`; its
/// *latency* is spec text → live deployment on `churn_*`, one control-loop
/// barrier on `fleet_*`.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", "lower", 0.25, "wall: build cloud + attachments, load corpus, pre-fill the standing population; median of the run's rounds"),
    e2e("ops_per_s", "1/s", "higher", 0.25, "wall: lives completed per second (churn_*: lifecycles_per_s) or advance calls per second (fleet_*: advances_per_s), heal work included"),
    e2e("op_p50_us", "us", "lower", 0.25, "wall: median of parse_app + submit per life (churn_*: deploy_p50_us) or of one barrier over every deployment (fleet_*: tick_p50_ms x 1000)"),
    e2e("op_tail_us", "us", "lower", 0.25, "wall: same, at p95 over all samples (deploy_p95_us; tick_p95_ms x 1000: the ticks that carry detection and repair); on fleet_attached, whose ticks have no tail of their own, p80 of each 10 consecutive ticks, median of those windows (tick_p80_ms x 1000)"),
    e2e("sim_makespan_ms", "sim_ms", "lower", 0.10, "sim: mean RunReport.makespan_us per run (placement quality)"),
    e2e("sim_cost_microdollars", "microdollar", "lower", 0.15, "sim: mean RunReport.cost.total per run (pay for what you use)"),
    e2e("peak_rss_mb", "MiB", "lower", 0.15, "VmHWM of the workload's process at exit"),
];

/// Single layers, from the traced run. A layer a workload bypasses reads 0.
pub const PER_LAYER: [MetricDef; 67] = [
    layer("spec.parse_us", "us", "lower", "parse_app per spec text"),
    layer(
        "spec.compile_us",
        "us",
        "lower",
        "AppIr::compile: validate + conflict resolution",
    ),
    layer(
        "sched.place_app_us",
        "us",
        "lower",
        "Scheduler::place_app per app",
    ),
    layer(
        "sched.place_ns_per_device",
        "ns",
        "lower",
        "place_app time over devices in the datacenter",
    ),
    layer(
        "sched.place_app_extvm_us",
        "us",
        "lower",
        "place_app ranked by a compiled ExtVmPolicy (best-fit bytecode)",
    ),
    layer(
        "sched.release_app_us",
        "us",
        "lower",
        "Scheduler::release_app per app",
    ),
    layer(
        "sched.replace_module_us",
        "us",
        "lower",
        "Scheduler::replace_module with the dead devices excluded",
    ),
    layer(
        "sched.modules_placed",
        "count",
        "higher",
        "modules in successful placements",
    ),
    layer(
        "sched.refused",
        "count",
        "higher",
        "infeasible asks refused with SchedError::Alloc",
    ),
    layer(
        "sched.warm_hit_ratio",
        "ratio",
        "higher",
        "WarmPoolStats hit rate of the cloud's scheduler",
    ),
    layer(
        "hal.datacenter_new_us",
        "us",
        "lower",
        "Datacenter::new at this workload's size",
    ),
    layer(
        "hal.allocate_vector_us",
        "us",
        "lower",
        "Datacenter::allocate_vector of one app's whole demand",
    ),
    layer(
        "hal.release_us",
        "us",
        "lower",
        "Datacenter::release per allocation",
    ),
    layer(
        "hal.tick_events_us",
        "us",
        "lower",
        "Datacenter::tick_events per advance",
    ),
    layer(
        "hal.slices_per_allocation",
        "ratio",
        "lower",
        "slices per allocation (spill across devices)",
    ),
    layer(
        "hal.utilization",
        "ratio",
        "higher",
        "compute utilization after pre-fill",
    ),
    layer(
        "isolate.start_us",
        "us",
        "lower",
        "Environment::new + start per module",
    ),
    layer(
        "isolate.stop_us",
        "us",
        "lower",
        "Environment::stop per module",
    ),
    layer(
        "isolate.warm_acquire_us",
        "us",
        "lower",
        "WarmPool::acquire + refill",
    ),
    layer(
        "crypto.device_keys_us",
        "us",
        "lower",
        "derive_key for every device key of the datacenter",
    ),
    layer(
        "crypto.key_derive_us",
        "us",
        "lower",
        "Key::derive per data module",
    ),
    layer("crypto.seal_us", "us", "lower", "seal of one 4 KiB message"),
    layer(
        "crypto.attest_us",
        "us",
        "lower",
        "quote + verify per attesting environment",
    ),
    layer(
        "crypto.sealed_messages",
        "count",
        "higher",
        "RunReport.sealed_messages, summed",
    ),
    layer(
        "core.new_us",
        "us",
        "lower",
        "UdcCloud::new at this workload's size",
    ),
    layer("core.submit_us", "us", "lower", "UdcCloud::submit per life"),
    layer("core.run_us", "us", "lower", "UdcCloud::run per life"),
    layer(
        "core.verify_us",
        "us",
        "lower",
        "UdcCloud::verify_deployment per life",
    ),
    layer(
        "core.teardown_us",
        "us",
        "lower",
        "UdcCloud::teardown per life",
    ),
    layer(
        "core.refuse_us",
        "us",
        "lower",
        "parse + submit of an infeasible ask",
    ),
    layer(
        "core.advance_quiet_us",
        "us",
        "lower",
        "UdcCloud::advance with no repair work",
    ),
    layer(
        "core.advance_heal_us",
        "us",
        "lower",
        "UdcCloud::advance that detected, re-placed or retried",
    ),
    layer(
        "core.submit.self_us",
        "us",
        "lower",
        "submit minus its probes (compile, place, start, key derive)",
    ),
    layer(
        "core.run.self_us",
        "us",
        "lower",
        "run minus its seal probe",
    ),
    layer(
        "core.verify.self_us",
        "us",
        "lower",
        "verify minus its attest probe",
    ),
    layer(
        "core.advance.self_us",
        "us",
        "lower",
        "quiet advance minus its barrier probes",
    ),
    layer(
        "core.heal.detected",
        "count",
        "higher",
        "HealReport.detected, summed",
    ),
    layer(
        "core.heal.repaired",
        "count",
        "higher",
        "HealReport.repaired, summed",
    ),
    layer(
        "core.heal.retried",
        "count",
        "lower",
        "HealReport.retried, summed",
    ),
    layer(
        "core.heal.degraded",
        "count",
        "lower",
        "HealReport.degraded, summed",
    ),
    layer(
        "core.heal.evicted_allocations",
        "count",
        "higher",
        "HealReport.evicted_allocations, summed",
    ),
    layer(
        "core.heal.sim_mttr_ms",
        "sim_ms",
        "lower",
        "sim: mean detect -> repaired time per healed module",
    ),
    layer(
        "failure.observe_us",
        "us",
        "lower",
        "LeaseDetector::observe per advance",
    ),
    layer(
        "failure.suspected",
        "count",
        "higher",
        "devices newly suspected",
    ),
    layer(
        "failure.confirmed",
        "count",
        "higher",
        "devices confirmed dead",
    ),
    layer(
        "failure.false_suspects",
        "count",
        "lower",
        "suspected devices that turned out alive",
    ),
    layer("query.poll_us", "us", "lower", "HubFeed::poll per advance"),
    layer(
        "query.ingest_advance_us",
        "us",
        "lower",
        "QueryEngine::ingest + advance_to per advance",
    ),
    layer(
        "query.obs_per_poll",
        "count",
        "lower",
        "observations a poll drains",
    ),
    layer(
        "query.alerts_fired",
        "count",
        "higher",
        "alerts in the hub at the end",
    ),
    layer(
        "telemetry.snapshot_us",
        "us",
        "lower",
        "Telemetry::snapshot of the cloud's hub",
    ),
    layer(
        "telemetry.incr_ns",
        "ns",
        "lower",
        "Telemetry::incr on a hub switched like the workload's",
    ),
    layer(
        "telemetry.hub_records",
        "count",
        "lower",
        "counters + events + decisions in the hub at the end of a round",
    ),
    layer(
        "telemetry.dropped",
        "count",
        "lower",
        "events + decisions + alerts the bounded rings dropped",
    ),
    layer(
        "economics.admit_commit_release_us",
        "us",
        "lower",
        "QuotaGate admit + commit + release",
    ),
    layer(
        "economics.settle_us",
        "us",
        "lower",
        "TenantAccount::settle per advance",
    ),
    layer(
        "economics.charge_us",
        "us",
        "lower",
        "TenantAccount::charge",
    ),
    layer(
        "economics.ledger_entries",
        "count",
        "lower",
        "ledger entries at the end",
    ),
    layer(
        "actor.seed_app_us",
        "us",
        "lower",
        "RecoveryModel::seed_app per deployment",
    ),
    layer(
        "dist.recover_module_us",
        "us",
        "lower",
        "RecoveryModel::recover_module",
    ),
    layer(
        "dist.messages_replayed",
        "count",
        "lower",
        "messages recovery replayed",
    ),
    layer(
        "extvm.policy_score_ns",
        "ns",
        "lower",
        "ExtVmPolicy::score per candidate",
    ),
    layer(
        "instrument.attached_over_detached",
        "ratio",
        "lower",
        "tick p50 of this fleet with instruments on over the same fleet with them off",
    ),
    layer(
        "trace.overhead_ratio",
        "ratio",
        "lower",
        "wall time per operation, traced over untraced",
    ),
    layer("trace.spans", "count", "lower", "spans recorded"),
    layer(
        "trace.dropped_spans",
        "count",
        "lower",
        "spans the bounded recorder dropped",
    ),
    layer(
        "trace.sampled_stages",
        "count",
        "higher",
        "stages that carried probes",
    ),
];

pub type Values = BTreeMap<&'static str, f64>;

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub fn end_to_end_values(scn: &Scenario, out: &Outcome) -> Values {
    let mut sorted = out.op_ns.clone();
    sorted.sort_unstable();
    let mut v = Values::new();
    v.insert("setup_s", stats::median_f64(&out.setup_s));
    v.insert("ops_per_s", out.ops_per_s());
    v.insert("op_p50_us", stats::percentile(&sorted, 500) as f64 / 1e3);
    let tail = match scn.tail_window {
        Some(window) => stats::windowed_percentile(&out.op_ns, window, scn.tail_per_mille),
        None => stats::percentile(&sorted, scn.tail_per_mille),
    };
    v.insert("op_tail_us", tail as f64 / 1e3);
    v.insert(
        "sim_makespan_ms",
        ratio(out.counts.makespan_us, out.counts.runs) / 1e3,
    );
    v.insert(
        "sim_cost_microdollars",
        ratio(out.counts.cost_microdollars, out.counts.runs),
    );
    v.insert("peak_rss_mb", peak_rss_mb());
    v
}

/// Metric ← median per-call time of the spans with that name.
const SPAN_METRICS: [(&str, &str); 27] = [
    ("spec.parse_us", "spec.parse"),
    ("spec.compile_us", "spec.compile"),
    ("sched.place_app_us", "sched.place_app"),
    ("sched.place_app_extvm_us", "sched.place_app_extvm"),
    ("sched.release_app_us", "sched.release_app"),
    ("sched.replace_module_us", "sched.replace_module"),
    ("hal.allocate_vector_us", "hal.allocate_vector"),
    ("hal.release_us", "hal.release"),
    ("hal.tick_events_us", "hal.tick_events"),
    ("isolate.start_us", "isolate.start"),
    ("isolate.stop_us", "isolate.stop"),
    ("crypto.key_derive_us", "crypto.key_derive"),
    ("crypto.seal_us", "crypto.seal"),
    ("crypto.attest_us", "crypto.attest"),
    ("core.submit_us", "core.submit"),
    ("core.run_us", "core.run"),
    ("core.verify_us", "core.verify"),
    ("core.teardown_us", "core.teardown"),
    ("core.refuse_us", "core.refuse"),
    ("core.advance_quiet_us", "core.advance"),
    ("core.advance_heal_us", "core.advance.heal"),
    ("failure.observe_us", "failure.observe"),
    ("query.poll_us", "query.poll"),
    ("query.ingest_advance_us", "query.ingest_advance"),
    ("telemetry.snapshot_us", "telemetry.snapshot"),
    ("economics.settle_us", "economics.settle"),
    ("dist.recover_module_us", "dist.recover_module"),
];

/// Metric ← median self time of the sampled spans with that name.
const SELF_METRICS: [(&str, &str); 4] = [
    ("core.submit.self_us", "core.submit"),
    ("core.run.self_us", "core.run"),
    ("core.verify.self_us", "core.verify"),
    ("core.advance.self_us", "core.advance"),
];

/// Per-layer values of a traced run. `micro` already holds the
/// construction and single-call probes.
pub fn per_layer_values(
    scn: &Scenario,
    out: &Outcome,
    ins: &Instrument,
    mut v: Values,
) -> (Values, BTreeMap<&'static str, usize>) {
    let mut samples = BTreeMap::new();
    for (metric, span) in SPAN_METRICS {
        let mut ns = ins.tracer.per_call_ns(span);
        samples.insert(metric, ns.len());
        v.insert(metric, stats::median_u64(&mut ns) as f64 / 1e3);
    }
    let mut sampled = 0;
    for (metric, span) in SELF_METRICS {
        let mut ns = ins.tracer.self_times_ns(span);
        sampled += ns.len();
        samples.insert(metric, ns.len());
        v.insert(metric, stats::median_u64(&mut ns) as f64 / 1e3);
    }
    let c = &out.counts;
    v.insert(
        "sched.place_ns_per_device",
        v["sched.place_app_us"] * 1e3 / scn.devices() as f64,
    );
    v.insert("sched.modules_placed", c.modules_placed as f64);
    v.insert("sched.refused", c.refused as f64);
    v.insert(
        "sched.warm_hit_ratio",
        ratio(c.warm_hits, c.warm_hits + c.warm_misses),
    );
    v.insert("hal.slices_per_allocation", ratio(c.slices, c.allocations));
    v.insert("hal.utilization", c.utilization);
    v.insert("crypto.sealed_messages", c.sealed_messages as f64);
    v.insert("core.heal.detected", c.detected as f64);
    v.insert("core.heal.repaired", c.repaired as f64);
    v.insert("core.heal.retried", c.retried as f64);
    v.insert("core.heal.degraded", c.degraded as f64);
    v.insert(
        "core.heal.evicted_allocations",
        c.evicted_allocations as f64,
    );
    v.insert("core.heal.sim_mttr_ms", ratio(c.mttr_us, c.repaired) / 1e3);
    v.insert("failure.suspected", c.suspected as f64);
    v.insert("failure.confirmed", c.confirmed as f64);
    v.insert("failure.false_suspects", c.false_suspects as f64);
    v.insert("query.obs_per_poll", ratio(ins.polled_obs, ins.polls));
    v.insert("query.alerts_fired", c.alerts_fired as f64);
    v.insert("telemetry.hub_records", c.hub_records as f64);
    v.insert("telemetry.dropped", c.hub_dropped as f64);
    v.insert("economics.ledger_entries", c.ledger_entries as f64);
    let mut seed_ns = out.seed_app_ns.clone();
    samples.insert("actor.seed_app_us", seed_ns.len());
    v.insert(
        "actor.seed_app_us",
        stats::median_u64(&mut seed_ns) as f64 / 1e3,
    );
    v.insert("dist.messages_replayed", c.messages_replayed as f64);
    v.insert("trace.spans", ins.tracer.spans().len() as f64);
    v.insert("trace.dropped_spans", ins.tracer.dropped() as f64);
    v.insert("trace.sampled_stages", sampled as f64);
    (v, samples)
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// The one line the contract reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the metrics being every entry of `defs`.
pub fn result_line(defs: &[MetricDef], values: &Values, out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.checks.failed == 0 && out.checks.attempted > 0,
        out.checks.attempted,
        out.checks.failed
    );
    for (i, d) in defs.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let value = values.get(d.name).copied().unwrap_or(0.0);
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            json_number(value),
            d.unit
        );
    }
    s.push_str("}}");
    s
}

/// The issue's own names for what the workload measured, with sample
/// counts and the percentile the ten-samples-beyond rule would pick.
pub fn print_end_to_end(scn: &Scenario, out: &Outcome, values: &Values) {
    let n = out.op_ns.len();
    let tail = stats::label(scn.tail_per_mille);
    let rule = stats::highest_supported_tail(n).map_or("none".to_string(), stats::label);
    let (beyond, tail_note) = match scn.tail_window {
        None => {
            let beyond = stats::samples_beyond(n, scn.tail_per_mille);
            (beyond, format!("{beyond} beyond"))
        }
        Some(window) => {
            let windows = n / window;
            let beyond = windows * stats::samples_beyond(window, scn.tail_per_mille);
            let note = format!("median of {windows} windows of {window}, {beyond} beyond in all");
            (beyond, note)
        }
    };
    let tail_note = format!("[n={n}, {tail_note}; rule allows up to {rule}]");
    println!(
        "workload {}: {} ({} rounds, {:.2} s timed)",
        scn.name,
        scn.why,
        out.rounds,
        out.timed_ns as f64 / 1e9
    );
    match scn.kind {
        Kind::Churn => {
            println!(
                "  lifecycles_per_s      {:>14.2} 1/s   [{} lives, {} refusals]",
                values["ops_per_s"], out.counts.lives, out.counts.refused
            );
            println!(
                "  deploy_p50_us         {:>14.2} us    [n={n}]",
                values["op_p50_us"]
            );
            println!(
                "  deploy_{tail}_us         {:>14.2} us    {tail_note}",
                values["op_tail_us"]
            );
            for (which, s) in [("all specs", &out.stage_ns), ("medical", &out.medical_ns)] {
                let per = |ns: u64| ns as f64 / s.lives.max(1) as f64 / 1e3;
                println!(
                    "  mean life ({which}): parse {:.1} us | submit {:.1} us | run {:.1} us | verify {:.1} us | teardown {:.1} us  [n={}]",
                    per(s.parse), per(s.submit), per(s.run), per(s.verify), per(s.teardown), s.lives
                );
            }
        }
        Kind::Fleet => {
            println!(
                "  advances_per_s        {:>14.2} 1/s   [{} advances in {} ticks]",
                values["ops_per_s"], out.counts.advances, out.counts.ticks
            );
            println!(
                "  tick_p50_ms           {:>14.4} ms    [n={n}]",
                values["op_p50_us"] / 1e3
            );
            println!(
                "  tick_{tail}_ms           {:>14.4} ms    {tail_note}",
                values["op_tail_us"] / 1e3
            );
            println!(
                "  sim_mttr_ms           {:>14.3} sim ms [{} repairs]",
                ratio(out.counts.mttr_us, out.counts.repaired) / 1e3,
                out.counts.repaired
            );
            for (i, (ticks, p50, records)) in out.round_ticks.iter().enumerate() {
                println!(
                    "  round {i}: {ticks} ticks, tick p50 {:.4} ms, hub records {records}",
                    *p50 as f64 / 1e6
                );
            }
        }
    }
    if beyond < 10 {
        println!("  note: fewer than ten samples beyond {tail}; treat op_tail_us as indicative");
    }
    println!(
        "  sim_makespan_ms       {:>14.3} sim ms [{} runs]",
        values["sim_makespan_ms"], out.counts.runs
    );
    println!(
        "  sim_cost_microdollars {:>14.3} microdollar",
        values["sim_cost_microdollars"]
    );
    println!(
        "  setup_s               {:>14.4} s     [median of {}]",
        values["setup_s"],
        out.setup_s.len()
    );
    println!(
        "  peak_rss_mb           {:>14.2} MiB",
        values["peak_rss_mb"]
    );
    print_checks(out);
}

pub fn print_checks(out: &Outcome) {
    println!(
        "  failed_ratio          {:>14} [{} failed of {} attempted]   sim_digest {:016x}",
        ratio(out.checks.failed, out.checks.attempted),
        out.checks.failed,
        out.checks.attempted,
        out.digest.0
    );
    for note in &out.checks.notes {
        println!("  FAILED: {note}");
    }
}

pub fn print_per_layer(values: &Values, samples: &BTreeMap<&'static str, usize>) {
    println!(
        "  {:<34} {:>14} {:<11} {:<9} meaning",
        "per-layer metric", "value", "unit", "samples"
    );
    for d in &PER_LAYER {
        let n = samples
            .get(d.name)
            .map_or(String::new(), |n| format!("n={n}"));
        println!(
            "  {:<34} {:>14.3} {:<11} {n:<9} {}",
            d.name,
            values.get(d.name).copied().unwrap_or(0.0),
            d.unit,
            d.meaning
        );
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `BENCHMARK.json`, printed from the tables above.
pub fn manifest(run_seconds: u32) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {run_seconds},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"why\": {}}}{}",
            json_string(w.name),
            json_string(w.why),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}",
            json_string(d.name),
            json_string(d.unit),
            json_string(d.better),
            d.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}",
            json_string(d.name),
            json_string(d.unit),
            json_string(d.better),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_tables_meet_the_contract() {
        let mut names = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(names.insert(d.name), "duplicate {}", d.name);
            assert!(d.unit.len() <= 16 && !d.unit.is_empty(), "{}", d.name);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(d.better == "lower" || d.better == "higher");
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && names.insert(w.name));
        }
        for d in &END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{}", d.name);
        }
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", "lower")
        );
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn every_span_metric_is_a_defined_per_layer_metric() {
        for (metric, _) in SPAN_METRICS.iter().chain(&SELF_METRICS) {
            assert!(PER_LAYER.iter().any(|d| d.name == *metric), "{metric}");
        }
    }

    #[test]
    fn the_committed_manifest_is_the_one_the_tables_print() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest(crate::RUN_SECONDS));
        serde_json::parse_value(&committed).expect("manifest is valid JSON");
        assert!(committed.len() < 64 * 1024);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        let mut out = Outcome::default();
        out.checks.operation(None);
        let mut values = Values::new();
        values.insert("setup_s", 0.5);
        values.insert("ops_per_s", f64::NAN);
        let line = result_line(&END_TO_END, &values, &out);
        let parsed = serde_json::parse_value(&line).unwrap();
        let serde_json::Value::Object(top) = parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let serde_json::Value::Object(metrics) = &top[3].1 else {
            panic!("metrics is not an object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"ops_per_s\": {\"value\": 0, \"unit\": \"1/s\"}"));
    }
}
