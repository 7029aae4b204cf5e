//! E14 — user-defined control-plane policies in the sandboxed extension
//! VM (Design Principles 1–2: users define, the provider executes the
//! definition safely).
//!
//! Measures: placement throughput with the native policy vs a
//! tenant-supplied bytecode policy; gas per invocation; and containment
//! of hostile extensions (infinite loops, stack bombs, veto-everything).

use crate::{banner, Table};
use std::time::Instant;
use udc_extvm::{
    assemble, CompiledProgram, NullHost, Vm, VmLimits, BEST_FIT, HALF_EMPTY_ONLY, RACK_AFFINITY,
    WORST_FIT,
};
use udc_hal::Datacenter;
use udc_sched::{ExtVmPolicy, SchedOptions, Scheduler};
use udc_telemetry::{EventKind, FieldValue, Labels, Telemetry};
use udc_workload::{random_app, RandomDagConfig};

fn workload() -> udc_spec::AppSpec {
    let (app, _) = random_app(RandomDagConfig {
        tasks: 40,
        data: 10,
        edge_prob: 0.2,
        conflict_prob: 0.0,
        seed: 3,
    });
    app
}

/// A scheduler that scores candidates with a tenant's VM policy.
fn with_policy(policy: ExtVmPolicy) -> Scheduler {
    Scheduler::new(SchedOptions {
        policy: Box::new(policy),
        ..Default::default()
    })
}

fn time_placements(mut sched: Scheduler, rounds: usize) -> (f64, usize) {
    let app = workload();
    let start = Instant::now();
    let mut placed = 0;
    for _ in 0..rounds {
        let mut dc = Datacenter::default();
        if let Ok(p) = sched.place_app(&mut dc, &app) {
            placed += p.modules.len();
        }
    }
    (start.elapsed().as_secs_f64(), placed)
}

pub fn run() -> String {
    banner(
        "E14",
        "Tenant extensions in the control plane (sandboxed policy VM)",
        "users can define their own placement policies; the provider runs \
         them with hard gas/memory bounds so hostile code cannot hurt the \
         control plane",
    );

    const ROUNDS: usize = 50;

    // Native provider policy.
    let (native_s, native_placed) =
        time_placements(Scheduler::new(SchedOptions::default()), ROUNDS);

    // Tenant policy: worst-fit (prefer the emptiest device) — a policy
    // the provider does not offer, expressed in 4 instructions.
    let worst_fit = assemble("arg 0\narg 4\nsub\nret").expect("valid policy");
    let (vm_s, vm_placed) = time_placements(
        with_policy(ExtVmPolicy::new(
            "tenant-worst-fit",
            worst_fit.clone(),
            VmLimits::default(),
        )),
        ROUNDS,
    );

    // The same bytecode forced through the pure stack interpreter — the
    // pre-register-IR engine — so the table shows the end-to-end cost
    // the compiler removed.
    let (interp_s, interp_placed) = time_placements(
        with_policy(ExtVmPolicy::interpreted(
            "tenant-worst-fit-interp",
            worst_fit,
            VmLimits::default(),
        )),
        ROUNDS,
    );

    // A richer tenant policy with loops (rack-distance scoring).
    let fancy = assemble(
        "
            arg 3
            push 0
            lt
            jnz no_pref
            push 1000
            arg 2
            arg 3
            hostcall 0.2
            push 100
            mul
            sub
            ret
        no_pref:
            arg 0
            arg 4
            sub
            ret
        ",
    )
    .expect("valid policy");
    let (fancy_s, fancy_placed) = time_placements(
        with_policy(ExtVmPolicy::new(
            "tenant-rack-aware",
            fancy,
            VmLimits::default(),
        )),
        ROUNDS,
    );

    let tel = Telemetry::enabled();
    let mut t = Table::new(&[
        "policy",
        "modules placed",
        "total time",
        "per-placement overhead vs native",
    ]);
    let per_native = native_s / native_placed.max(1) as f64;
    for (name, secs, placed) in [
        ("native locality", native_s, native_placed),
        ("tenant worst-fit (compiled VM)", vm_s, vm_placed),
        ("tenant worst-fit (interpreter)", interp_s, interp_placed),
        ("tenant rack-aware (compiled VM)", fancy_s, fancy_placed),
    ] {
        let per = secs / placed.max(1) as f64;
        // Wall times stay out of the artifact (non-deterministic); the
        // placed counts are the reproducible claim.
        tel.event(
            EventKind::Measurement,
            Labels::tenant(name),
            &[("modules_placed", FieldValue::from(placed as u64))],
        );
        t.row(&[
            name.to_string(),
            placed.to_string(),
            format!("{secs:.3} s"),
            format!("{:.2}x", per / per_native),
        ]);
    }
    t.print();

    // — Interpreter vs compiled engine, policy by policy ---------------
    //
    // Wall-clock ns/op is printed for the human but stays out of the
    // artifact; the deterministic claims exported per policy are the
    // fused-superinstruction count and a zero parity-violation count
    // over the argument grid (result AND observable gas must match).
    println!();
    println!("Engine comparison (same bytecode through both backends):");
    let mut e = Table::new(&[
        "policy",
        "fused ops",
        "interp ns/op",
        "compiled ns/op",
        "speedup",
        "parity violations",
    ]);
    let limits = VmLimits::default();
    const ITERS: u32 = 200_000;
    for (name, src) in [
        ("best-fit", BEST_FIT),
        ("worst-fit", WORST_FIT),
        ("rack-affinity", RACK_AFFINITY),
        ("half-empty-only", HALF_EMPTY_ONLY),
    ] {
        let prog = assemble(src).expect("canned policy assembles");
        let compiled = CompiledProgram::compile(&prog, limits);

        let mut violations = 0u64;
        let mut vi = Vm::new(limits);
        let mut vc = Vm::new(limits);
        for free in [0i64, 4, 32, 64] {
            for rack in [0i64, 2, 9] {
                for preferred in [-1i64, 2] {
                    let args = [free, 64, rack, preferred, 4];
                    let ri = vi.run(&prog, &args, &mut NullHost);
                    let rc = compiled.run(&mut vc, &args, &mut NullHost);
                    if ri != rc || vi.last_gas_used() != vc.last_gas_used() {
                        violations += 1;
                    }
                }
            }
        }

        let args = [32i64, 64, 2, 2, 4];
        let start = Instant::now();
        for _ in 0..ITERS {
            let _ = vi.run(&prog, &args, &mut NullHost);
        }
        let interp_ns = start.elapsed().as_nanos() as f64 / f64::from(ITERS);
        let start = Instant::now();
        for _ in 0..ITERS {
            let _ = compiled.run(&mut vc, &args, &mut NullHost);
        }
        let compiled_ns = start.elapsed().as_nanos() as f64 / f64::from(ITERS);

        tel.event(
            EventKind::Measurement,
            Labels::tenant(name),
            &[
                (
                    "fused_ops",
                    FieldValue::from(u64::from(compiled.fused_ops())),
                ),
                ("parity_violations", FieldValue::from(violations)),
                ("engines_agree", FieldValue::from(violations == 0)),
            ],
        );
        e.row(&[
            name.to_string(),
            compiled.fused_ops().to_string(),
            format!("{interp_ns:.1}"),
            format!("{compiled_ns:.1}"),
            format!("{:.2}x", interp_ns / compiled_ns),
            violations.to_string(),
        ]);
    }
    e.print();

    println!();
    println!("Hostile-extension containment:");
    let mut h = Table::new(&["extension", "behaviour", "outcome"]);
    for (name, src) in [
        ("infinite loop", "spin: jmp spin"),
        ("stack bomb", "grow: push 1\njmp grow"),
        ("divide by zero", "push 1\npush 0\ndiv\nret"),
        ("veto everything", "push -1\nret"),
    ] {
        let prog = assemble(src).expect("assembles");
        let mut sched = with_policy(ExtVmPolicy::new(
            name,
            prog,
            VmLimits {
                max_gas: 50_000,
                ..Default::default()
            },
        ));
        let mut dc = Datacenter::default();
        let result = sched.place_app(&mut dc, &workload());
        tel.event(
            EventKind::Measurement,
            Labels::tenant(name),
            &[
                ("contained", FieldValue::from(true)),
                ("placement_succeeded", FieldValue::from(result.is_ok())),
            ],
        );
        h.row(&[
            name.to_string(),
            "traps/vetoes every candidate".to_string(),
            match result {
                Ok(_) => "contained: placement fell back to allocator default".to_string(),
                Err(_) => "contained: placement refused, control plane alive".to_string(),
            },
        ]);
    }
    h.print();

    println!();
    println!(
        "Shape: VM-hosted policies cost a small constant factor per placement \
         (the register-IR backend closes most of the interpreter gap while \
         keeping gas accounting bit-identical); hostile extensions only hurt \
         their own tenant's placement quality — the control plane never \
         crashes or hangs."
    );
    tel.snapshot().to_json()
}
