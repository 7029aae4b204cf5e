//! Dry-run profiling (§3.2).
//!
//! "How can users know their applications' resource usage? ... We
//! believe a viable solution is a combination of developer knowledge,
//! program analysis, and 'dry-run' profiling ... The IT team or the
//! cloud provider will then use tools that UDC provides (e.g.,
//! profilers, cross-platform compilers, etc.) to perform dry runs that
//! execute the program with developer-supplied test inputs on different
//! types of hardware within the developer-defined set. The actual
//! resource usage observed for each task is then used as the resource
//! aspect of the task."
//!
//! [`dry_run`] takes an application whose tasks carry only *candidate
//! sets* and *goals* (developer knowledge) plus a test-input scale, runs
//! every task on every candidate hardware kind in the simulator, and
//! writes the observed best choice back into each task's resource
//! aspect — producing the concrete demands the scheduler then places.

use udc_hal::PerfProfile;
use udc_spec::{AppSpec, Goal, ModuleKind, ResourceKind};

/// One task's measurements on one candidate kind.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialResult {
    /// Candidate hardware kind.
    pub kind: ResourceKind,
    /// Units the trial allocated (the profiling default).
    pub units: u64,
    /// Observed execution time in microseconds.
    pub exec_us: u64,
    /// Cost of the execution at unit prices, in micro-dollars.
    pub cost_micro_dollars: u64,
}

/// The dry-run report for one task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskProfile {
    /// The task.
    pub module: String,
    /// All candidate trials, fastest first.
    pub trials: Vec<TrialResult>,
    /// The trial chosen per the task's goal.
    pub chosen: TrialResult,
}

/// Profiles `app` with `input_scale` (a multiplier on each task's
/// declared work, representing the developer-supplied test input) and
/// returns a copy of the app whose tasks carry concrete demands, plus
/// the per-task report.
///
/// Tasks that already have explicit compute demands are left untouched
/// (the user knew what they wanted); tasks without candidates default to
/// the full compute set, as §3.2's "specify a set of possible hardware
/// (e.g., CPU, GPU) or the type of hardware (e.g., compute)" fallback.
pub fn dry_run(app: &AppSpec, input_scale: f64) -> (AppSpec, Vec<TaskProfile>) {
    let mut out = app.clone();
    let mut reports = Vec::new();
    let ids: Vec<udc_spec::ModuleId> = out.modules.keys().cloned().collect();
    for id in ids {
        let module = out.modules.get(&id).expect("iterating own keys");
        if module.kind != ModuleKind::Task {
            continue;
        }
        if module.resource.demand.iter().any(|(k, _)| k.is_compute()) {
            continue; // Explicit demand: nothing to profile.
        }
        let work = ((module.work_units.unwrap_or(100) as f64) * input_scale).ceil() as u64;
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

        let mut trials: Vec<TrialResult> = candidates
            .iter()
            .map(|&kind| {
                let profile = PerfProfile::default_for(kind);
                // The profiling allocation: one device unit (the dry run
                // measures per-unit behaviour; the demand scales later).
                let units = 1u64;
                let exec_s = work as f64 / (profile.work_units_per_sec * units as f64);
                let exec_us = (exec_s * 1e6).ceil() as u64;
                let cost = (profile.micro_dollars_per_unit_hour as f64 * units as f64 * exec_s
                    / 3600.0)
                    .round() as u64;
                TrialResult {
                    kind,
                    units,
                    exec_us,
                    cost_micro_dollars: cost,
                }
            })
            .collect();
        trials.sort_by_key(|t| t.exec_us);

        let chosen = match module.resource.goal {
            Some(Goal::Fastest) | None => trials[0].clone(),
            Some(Goal::Cheapest) => trials
                .iter()
                .min_by_key(|t| t.cost_micro_dollars)
                .expect("candidates non-empty")
                .clone(),
        };

        let module = out.modules.get_mut(&id).expect("present");
        module.resource.demand.set(chosen.kind, chosen.units);
        // The observed work becomes the calibrated estimate.
        module.work_units = Some(work.max(1));
        reports.push(TaskProfile {
            module: id.to_string(),
            trials,
            chosen,
        });
    }
    (out, reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use udc_spec::{ResourceAspect, TaskSpec};

    fn goal_app(goal: Goal, candidates: &[ResourceKind]) -> AppSpec {
        let mut app = AppSpec::new("p");
        let mut r = ResourceAspect::goal(goal);
        for &c in candidates {
            r = r.with_candidate(c);
        }
        app.add_task(TaskSpec::new("T").with_resource(r).with_work(10_000));
        app
    }

    #[test]
    fn fastest_goal_picks_fastest_candidate() {
        let app = goal_app(Goal::Fastest, &[ResourceKind::Cpu, ResourceKind::Gpu]);
        let (profiled, reports) = dry_run(&app, 1.0);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].chosen.kind, ResourceKind::Gpu, "GPU is fastest");
        let t = profiled.module(&"T".into()).unwrap();
        assert_eq!(t.resource.demand.get(ResourceKind::Gpu), 1);
    }

    #[test]
    fn cheapest_goal_picks_cheapest_per_run() {
        let app = goal_app(Goal::Cheapest, &[ResourceKind::Cpu, ResourceKind::Gpu]);
        let (_, reports) = dry_run(&app, 1.0);
        let chosen = &reports[0].chosen;
        for t in &reports[0].trials {
            assert!(chosen.cost_micro_dollars <= t.cost_micro_dollars);
        }
    }

    #[test]
    fn explicit_demand_untouched() {
        let mut app = AppSpec::new("p");
        app.add_task(
            TaskSpec::new("T")
                .with_resource(ResourceAspect::default().with_demand(ResourceKind::Cpu, 4))
                .with_work(100),
        );
        let (profiled, reports) = dry_run(&app, 2.0);
        assert!(reports.is_empty(), "nothing to profile");
        assert_eq!(profiled, app);
    }

    #[test]
    fn input_scale_calibrates_work() {
        let app = goal_app(Goal::Fastest, &[ResourceKind::Cpu]);
        let (profiled, _) = dry_run(&app, 3.5);
        let t = profiled.module(&"T".into()).unwrap();
        assert_eq!(t.work_units, Some(35_000), "scaled by the test input");
    }

    #[test]
    fn no_candidates_defaults_to_full_compute_set() {
        let mut app = AppSpec::new("p");
        app.add_task(
            TaskSpec::new("T")
                .with_resource(ResourceAspect::goal(Goal::Fastest))
                .with_work(100),
        );
        let (_, reports) = dry_run(&app, 1.0);
        assert_eq!(reports[0].trials.len(), 4, "all compute kinds trialled");
    }

    #[test]
    fn profiled_app_places_end_to_end() {
        // The §3.2 flow: goal-only spec -> dry run -> concrete demands ->
        // placement succeeds with the chosen kinds.
        let app = goal_app(Goal::Fastest, &[ResourceKind::Cpu, ResourceKind::Gpu]);
        let (profiled, _) = dry_run(&app, 1.0);
        let mut cloud = crate::cloud::UdcCloud::new(crate::cloud::CloudConfig::default());
        let mut dep = cloud.submit(&profiled).expect("profiled app places");
        let placement = &dep.placement.modules[&"T".into()];
        assert_eq!(placement.placed_kind, ResourceKind::Gpu);
        cloud.teardown(&mut dep);
    }

    #[test]
    fn trials_sorted_fastest_first() {
        let app = goal_app(
            Goal::Fastest,
            &[ResourceKind::Cpu, ResourceKind::Gpu, ResourceKind::Soc],
        );
        let (_, reports) = dry_run(&app, 1.0);
        for w in reports[0].trials.windows(2) {
            assert!(w[0].exec_us <= w[1].exec_us);
        }
    }
}
