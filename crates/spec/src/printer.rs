//! Canonical printer for the `.udc` text format.
//!
//! [`print_app`] emits a document that [`crate::parser::parse_app`]
//! parses back to an equal [`AppSpec`] (property-tested round-trip).

use crate::aspect::{
    DataProtection, DistributedAspect, ExecEnvAspect, FailureHandling, OpPreference, ResourceAspect,
};
use crate::dag::{AppSpec, EdgeKind, LocalityHint, ModuleSpec};
use std::fmt::Write as _;

/// Renders an application spec in canonical `.udc` form.
pub fn print_app(app: &AppSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "app {} {{", app.name);
    for m in app.iter_modules() {
        print_module(&mut out, m);
    }
    for e in &app.edges {
        match e.kind {
            EdgeKind::Dependency => {
                let _ = writeln!(out, "  edge {} -> {}", e.from, e.to);
            }
            EdgeKind::Access => {
                let _ = write!(out, "  access {} -> {}", e.from, e.to);
                let mut attrs: Vec<String> = Vec::new();
                if let Some(c) = e.require_consistency {
                    attrs.push(format!("consistency = {}", c.name()));
                }
                if let Some(p) = e.require_protection {
                    attrs.push(format!("protect = {}", protection_str(p)));
                }
                if !attrs.is_empty() {
                    let _ = write!(out, " [{}]", attrs.join("; "));
                }
                out.push('\n');
            }
        }
    }
    for h in &app.hints {
        match h {
            LocalityHint::Colocate(a, b) => {
                let _ = writeln!(out, "  colocate {a} {b}");
            }
            LocalityHint::Affinity { task, data } => {
                let _ = writeln!(out, "  affinity {task} {data}");
            }
        }
    }
    out.push_str("}\n");
    out
}

fn print_module(out: &mut String, m: &ModuleSpec) {
    let _ = write!(out, "  {} {}", m.kind.name(), m.id);
    if let Some(d) = &m.description {
        let _ = write!(out, " \"{d}\"");
    }
    let mut body: Vec<String> = Vec::new();
    if !m.resource.is_unspecified() {
        body.push(resource_str(&m.resource));
    }
    if !m.exec_env.is_unspecified() {
        body.push(exec_str(&m.exec_env));
    }
    if !m.dist.is_unspecified() {
        body.push(dist_str(&m.dist));
    }
    if let Some(w) = m.work_units {
        body.push(format!("work = {w}"));
    }
    if let Some(b) = m.bytes {
        body.push(format!("bytes = {b}"));
    }
    if body.is_empty() {
        out.push('\n');
    } else {
        let _ = writeln!(out, " {{");
        for line in body {
            let _ = writeln!(out, "    {line}");
        }
        out.push_str("  }\n");
    }
}

fn resource_str(r: &ResourceAspect) -> String {
    let mut attrs: Vec<String> = Vec::new();
    if let Some(g) = r.goal {
        attrs.push(format!("goal = {}", g.name()));
    }
    if !r.demand.is_zero() {
        let parts: Vec<String> = r.demand.iter().map(|(k, v)| format!("{v}{k}")).collect();
        attrs.push(format!("demand = {}", parts.join("+")));
    }
    if !r.candidates.is_empty() {
        let names: Vec<&str> = r.candidates.iter().map(|k| k.name()).collect();
        attrs.push(format!("candidates = {}", names.join(", ")));
    }
    format!("resource {{ {} }}", attrs.join("; "))
}

fn exec_str(e: &ExecEnvAspect) -> String {
    let mut attrs: Vec<String> = Vec::new();
    if let Some(i) = e.isolation {
        attrs.push(format!("isolation = {}", i.name()));
    }
    if let Some(t) = e.tenancy {
        attrs.push(format!("tenancy = {}", t.name()));
    }
    if e.tee_if_cpu {
        attrs.push("tee_if_cpu = true".to_string());
    }
    if let Some(p) = e.protection {
        attrs.push(format!("protect = {}", protection_str(p)));
    }
    format!("exec {{ {} }}", attrs.join("; "))
}

fn dist_str(d: &DistributedAspect) -> String {
    let mut attrs: Vec<String> = Vec::new();
    if d.replication != 1 {
        attrs.push(format!("replication = {}", d.replication));
    }
    if let Some(c) = d.consistency {
        attrs.push(format!("consistency = {}", c.name()));
    }
    if d.preference != OpPreference::None {
        attrs.push(format!("preference = {}", d.preference.name()));
    }
    if let Some(f) = d.failure {
        attrs.push(match f {
            FailureHandling::Reexecute => format!("failure = {}", f.name()),
            FailureHandling::Checkpoint { interval_ms } => {
                format!("failure = {}({interval_ms})", f.name())
            }
        });
    }
    if let Some(dom) = &d.failure_domain {
        attrs.push(format!("domain = \"{dom}\""));
    }
    format!("dist {{ {} }}", attrs.join("; "))
}

fn protection_str(p: DataProtection) -> String {
    let mut flags: Vec<&str> = Vec::new();
    if p.confidentiality {
        flags.push("confidentiality");
    }
    if p.integrity {
        flags.push("integrity");
    }
    if p.replay {
        flags.push("replay");
    }
    if flags.is_empty() {
        flags.push("none");
    }
    flags.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aspect::{ConsistencyLevel, Goal, IsolationLevel, ResourceKind, Tenancy};
    use crate::dag::{DataSpec, TaskSpec};
    use crate::parser::parse_app;

    fn rich_app() -> AppSpec {
        let mut app = AppSpec::new("rich");
        app.add_task(
            TaskSpec::new("A1")
                .describe("preprocess")
                .with_resource(
                    ResourceAspect::goal(Goal::Fastest)
                        .with_candidate(ResourceKind::Cpu)
                        .with_candidate(ResourceKind::Gpu),
                )
                .with_exec_env(
                    ExecEnvAspect::isolation(IsolationLevel::Strong)
                        .with_tee_if_cpu()
                        .with_tenancy(Tenancy::SingleTenant),
                )
                .with_work(10),
        );
        app.add_data(
            DataSpec::new("S1")
                .with_resource(ResourceAspect::default().with_demand(ResourceKind::Ssd, 8192))
                .with_exec_env(
                    ExecEnvAspect::default().with_protection(DataProtection::ENCRYPT_AND_INTEGRITY),
                )
                .with_dist(
                    DistributedAspect::default()
                        .replication(3)
                        .consistency(ConsistencyLevel::Sequential)
                        .preference(OpPreference::Reader)
                        .failure(FailureHandling::Checkpoint { interval_ms: 250 })
                        .failure_domain("d0"),
                )
                .with_bytes(1 << 20),
        );
        app.add_access_with(
            "A1",
            "S1",
            Some(ConsistencyLevel::Sequential),
            Some(DataProtection::INTEGRITY_ONLY),
        )
        .unwrap();
        app.affinity("A1", "S1").unwrap();
        app
    }

    #[test]
    fn round_trip_rich_app() {
        let app = rich_app();
        let text = print_app(&app);
        let back = parse_app(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        assert_eq!(back, app, "round-trip mismatch; printed:\n{text}");
    }

    #[test]
    fn round_trip_minimal_app() {
        let mut app = AppSpec::new("min");
        app.add_task(TaskSpec::new("T"));
        let back = parse_app(&print_app(&app)).unwrap();
        assert_eq!(back, app);
    }

    #[test]
    fn printed_form_is_stable() {
        let app = rich_app();
        let once = print_app(&app);
        let twice = print_app(&parse_app(&once).unwrap());
        assert_eq!(once, twice);
    }

    #[test]
    fn protection_none_prints_and_parses() {
        let mut app = AppSpec::new("p");
        app.add_task(TaskSpec::new("T"));
        app.add_data(DataSpec::new("S"));
        app.add_access_with("T", "S", None, Some(DataProtection::NONE))
            .unwrap();
        let text = print_app(&app);
        let back = parse_app(&text).unwrap();
        assert_eq!(back.edges[0].require_protection, Some(DataProtection::NONE));
    }
}
