//! Conflict detection and resolution for user definitions (§3.4).
//!
//! "Users may define conflicting specifications for different modules,
//! e.g., two modules sharing data and one specified as sequential
//! consistency and the other as release consistency. UDC needs to detect
//! such conflicts and either chooses the strictest specification or
//! returns an error to the user."
//!
//! We detect four conflict classes:
//! - **consistency**: accessors of a shared data module require different
//!   consistency levels (or stronger than the data module declares);
//! - **protection**: an accessor requires stronger data protection than
//!   the data module declares;
//! - **isolation**: colocated tasks request different isolation levels or
//!   tenancy — they cannot share one hardware unit as specified;
//! - **replication**: modules in the same user-declared failure domain
//!   request different replication factors.
//!
//! [`resolve`] applies the paper's strictest-wins rule, returning a new
//! `AppSpec` whose aspects are the least upper bound of all requirements;
//! with [`ConflictPolicy::Error`] it instead returns
//! [`SpecError::Conflict`] listing every conflict.

use crate::aspect::{ConsistencyLevel, DataProtection, IsolationLevel, Tenancy};
use crate::dag::{AppSpec, EdgeKind, LocalityHint, ModuleKind, ModuleSpec};
use crate::error::{SpecError, SpecResult};
use crate::ids::ModuleId;
use crate::validate::group_by_key;
use std::collections::BTreeMap;
use std::fmt;

/// How detected conflicts are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConflictPolicy {
    /// Upgrade every conflicting aspect to the strictest requirement.
    #[default]
    StrictestWins,
    /// Refuse the application, reporting all conflicts.
    Error,
}

/// One detected conflict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConflictKind {
    /// Accessors disagree on the consistency of a shared data module.
    Consistency {
        /// The shared data module.
        data: ModuleId,
        /// The distinct levels requested (data module's own + accessors').
        levels: Vec<ConsistencyLevel>,
        /// The strictest-wins resolution.
        resolved: ConsistencyLevel,
    },
    /// An accessor requires stronger protection than the data module has.
    Protection {
        /// The shared data module.
        data: ModuleId,
        /// The accessor whose requirement exceeds the declaration.
        accessor: ModuleId,
        /// The strictest-wins resolution (union of all requirements).
        resolved: DataProtection,
    },
    /// Colocated tasks request incompatible isolation or tenancy.
    Isolation {
        /// First task of the colocate hint.
        a: ModuleId,
        /// Second task of the colocate hint.
        b: ModuleId,
        /// Strictest-wins isolation for the shared unit.
        resolved_isolation: Option<IsolationLevel>,
        /// Strictest-wins tenancy for the shared unit.
        resolved_tenancy: Option<Tenancy>,
    },
    /// Modules in one failure domain request different replication.
    Replication {
        /// The failure domain.
        domain: String,
        /// The distinct factors requested.
        factors: Vec<u32>,
        /// The strictest-wins resolution (maximum).
        resolved: u32,
    },
}

impl fmt::Display for ConflictKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConflictKind::Consistency {
                data,
                levels,
                resolved,
            } => {
                let names: Vec<&str> = levels.iter().map(|l| l.name()).collect();
                write!(
                    f,
                    "data `{data}` accessed with conflicting consistency [{}], strictest = {}",
                    names.join(", "),
                    resolved.name()
                )
            }
            ConflictKind::Protection { data, accessor, .. } => write!(
                f,
                "accessor `{accessor}` requires stronger protection than data `{data}` declares"
            ),
            ConflictKind::Isolation { a, b, .. } => write!(
                f,
                "colocated tasks `{a}` and `{b}` request incompatible isolation/tenancy"
            ),
            ConflictKind::Replication {
                domain,
                factors,
                resolved,
            } => write!(
                f,
                "failure domain `{domain}` has conflicting replication factors {factors:?}, \
                 strictest = {resolved}"
            ),
        }
    }
}

/// The full set of conflicts found in an application.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConflictReport {
    /// All conflicts, in deterministic order.
    pub conflicts: Vec<ConflictKind>,
}

impl ConflictReport {
    /// True when no conflicts were found.
    pub fn is_clean(&self) -> bool {
        self.conflicts.is_empty()
    }

    /// Number of conflicts.
    pub fn len(&self) -> usize {
        self.conflicts.len()
    }

    /// True when the report is empty.
    pub fn is_empty(&self) -> bool {
        self.conflicts.is_empty()
    }
}

/// Scans an application for aspect conflicts (§3.4).
///
/// Detection is pure: the app is not modified. Use [`resolve`] to apply
/// a [`ConflictPolicy`].
pub fn detect_conflicts(app: &AppSpec) -> ConflictReport {
    let mut conflicts = Vec::new();

    // Consistency + protection conflicts on shared data modules. One
    // pass files each access edge under the data module(s) it touches
    // (both ends of an ill-kinded data–data edge), in edge order.
    let modules: Vec<&ModuleSpec> = app.modules.values().collect();
    let data_index = |id: &ModuleId| {
        modules
            .binary_search_by(|m| m.id.cmp(id))
            .ok()
            .filter(|&i| modules[i].kind == ModuleKind::Data)
    };
    // `(data module, accessor, edge)`.
    let mut touches = Vec::new();
    for e in app.edges.iter().filter(|e| e.kind == EdgeKind::Access) {
        if let Some(d) = data_index(&e.to) {
            touches.push((d, &e.from, e));
        }
        if e.from != e.to {
            if let Some(d) = data_index(&e.from) {
                touches.push((d, &e.to, e));
            }
        }
    }
    let (first, by_data) = group_by_key(modules.len(), touches.iter().map(|t| t.0));
    for (d, data) in modules.iter().enumerate() {
        let mut levels: Vec<ConsistencyLevel> = Vec::new();
        if let Some(own) = data.dist.consistency {
            levels.push(own);
        }
        let declared_prot = data.exec_env.protection.unwrap_or(DataProtection::NONE);
        let mut union_prot = declared_prot;
        for &t in &by_data[first[d]..first[d + 1]] {
            let (_, accessor, e) = touches[t];
            if let Some(req) = e.require_consistency {
                if !levels.contains(&req) {
                    levels.push(req);
                }
            }
            if let Some(req) = e.require_protection {
                if !req.subsumed_by(declared_prot) {
                    union_prot = union_prot.union(req);
                    conflicts.push(ConflictKind::Protection {
                        data: data.id.clone(),
                        accessor: accessor.clone(),
                        resolved: union_prot,
                    });
                }
            }
        }
        if levels.len() > 1 {
            let resolved = *levels.iter().max().expect("levels non-empty");
            levels.sort();
            conflicts.push(ConflictKind::Consistency {
                data: data.id.clone(),
                levels,
                resolved,
            });
        }
    }

    // Isolation conflicts on colocated tasks.
    for h in &app.hints {
        let LocalityHint::Colocate(a, b) = h else {
            continue;
        };
        let (Some(ma), Some(mb)) = (app.module(a), app.module(b)) else {
            continue;
        };
        let iso_conflict = match (ma.exec_env.isolation, mb.exec_env.isolation) {
            (Some(x), Some(y)) => x != y,
            _ => false,
        };
        let ten_conflict = match (ma.exec_env.tenancy, mb.exec_env.tenancy) {
            (Some(x), Some(y)) => x != y,
            _ => false,
        };
        if iso_conflict || ten_conflict {
            conflicts.push(ConflictKind::Isolation {
                a: a.clone(),
                b: b.clone(),
                resolved_isolation: ma.exec_env.isolation.max(mb.exec_env.isolation),
                resolved_tenancy: ma.exec_env.tenancy.max(mb.exec_env.tenancy),
            });
        }
    }

    // Replication conflicts within failure domains.
    let mut domains: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
    for m in app.iter_modules() {
        if let Some(d) = &m.dist.failure_domain {
            domains
                .entry(d.as_str())
                .or_default()
                .push(m.dist.replication);
        }
    }
    for (domain, mut factors) in domains {
        factors.sort_unstable();
        factors.dedup();
        if factors.len() > 1 {
            let resolved = *factors.last().expect("non-empty");
            conflicts.push(ConflictKind::Replication {
                domain: domain.to_string(),
                factors,
                resolved,
            });
        }
    }

    ConflictReport { conflicts }
}

/// Applies a [`ConflictPolicy`] to an application.
///
/// With [`ConflictPolicy::StrictestWins`], returns a copy of the app in
/// which every conflicting aspect has been upgraded to the strictest
/// requirement (the paper's first option). With
/// [`ConflictPolicy::Error`], returns [`SpecError::Conflict`] describing
/// every conflict (the paper's second option). A conflict-free app is
/// returned unchanged under either policy.
pub fn resolve(app: &AppSpec, policy: ConflictPolicy) -> SpecResult<AppSpec> {
    apply(&detect_conflicts(app), app, policy)
}

/// [`resolve`], given the report [`detect_conflicts`] made of `app`.
pub(crate) fn apply(
    report: &ConflictReport,
    app: &AppSpec,
    policy: ConflictPolicy,
) -> SpecResult<AppSpec> {
    if report.is_clean() {
        return Ok(app.clone());
    }
    match policy {
        ConflictPolicy::Error => {
            let msgs: Vec<String> = report.conflicts.iter().map(|c| c.to_string()).collect();
            Err(SpecError::Conflict(msgs.join("; ")))
        }
        ConflictPolicy::StrictestWins => {
            let mut out = app.clone();
            for c in &report.conflicts {
                match c {
                    ConflictKind::Consistency { data, resolved, .. } => {
                        if let Some(m) = out.modules.get_mut(data) {
                            m.dist.consistency = Some(*resolved);
                        }
                    }
                    ConflictKind::Protection { data, resolved, .. } => {
                        if let Some(m) = out.modules.get_mut(data) {
                            let cur = m.exec_env.protection.unwrap_or(DataProtection::NONE);
                            m.exec_env.protection = Some(cur.union(*resolved));
                        }
                    }
                    ConflictKind::Isolation {
                        a,
                        b,
                        resolved_isolation,
                        resolved_tenancy,
                    } => {
                        for id in [a, b] {
                            if let Some(m) = out.modules.get_mut(id) {
                                if resolved_isolation.is_some() {
                                    m.exec_env.isolation =
                                        m.exec_env.isolation.max(*resolved_isolation);
                                }
                                if resolved_tenancy.is_some() {
                                    m.exec_env.tenancy = m.exec_env.tenancy.max(*resolved_tenancy);
                                }
                            }
                        }
                    }
                    ConflictKind::Replication {
                        domain, resolved, ..
                    } => {
                        for m in out.modules.values_mut() {
                            if m.dist.failure_domain.as_deref() == Some(domain.as_str()) {
                                m.dist.replication = m.dist.replication.max(*resolved);
                            }
                        }
                    }
                }
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aspect::{DistributedAspect, ExecEnvAspect};
    use crate::dag::{DataSpec, TaskSpec};

    fn shared_data_app(a_level: ConsistencyLevel, b_level: ConsistencyLevel) -> AppSpec {
        let mut app = AppSpec::new("x");
        app.add_task(TaskSpec::new("A"));
        app.add_task(TaskSpec::new("B"));
        app.add_data(DataSpec::new("S"));
        app.add_access_with("A", "S", Some(a_level), None).unwrap();
        app.add_access_with("B", "S", Some(b_level), None).unwrap();
        app
    }

    #[test]
    fn papers_example_sequential_vs_release() {
        let app = shared_data_app(ConsistencyLevel::Sequential, ConsistencyLevel::Release);
        let report = detect_conflicts(&app);
        assert_eq!(report.len(), 1);
        match &report.conflicts[0] {
            ConflictKind::Consistency { data, resolved, .. } => {
                assert_eq!(data.as_str(), "S");
                assert_eq!(*resolved, ConsistencyLevel::Sequential);
            }
            other => panic!("unexpected conflict {other:?}"),
        }
    }

    #[test]
    fn agreeing_accessors_no_conflict() {
        let app = shared_data_app(ConsistencyLevel::Sequential, ConsistencyLevel::Sequential);
        assert!(detect_conflicts(&app).is_clean());
    }

    #[test]
    fn strictest_wins_upgrades_data_module() {
        let app = shared_data_app(ConsistencyLevel::Release, ConsistencyLevel::Sequential);
        let resolved = resolve(&app, ConflictPolicy::StrictestWins).unwrap();
        let s = resolved.module(&"S".into()).unwrap();
        assert_eq!(s.dist.consistency, Some(ConsistencyLevel::Sequential));
        // Resolution is idempotent: re-detection finds the same conflict
        // (accessors still disagree) but the resolved level stays fixed.
        let again = resolve(&resolved, ConflictPolicy::StrictestWins).unwrap();
        let s2 = again.module(&"S".into()).unwrap();
        assert_eq!(s2.dist.consistency, Some(ConsistencyLevel::Sequential));
    }

    #[test]
    fn error_policy_reports_all_conflicts() {
        let app = shared_data_app(ConsistencyLevel::Sequential, ConsistencyLevel::Release);
        let err = resolve(&app, ConflictPolicy::Error).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("sequential"), "{msg}");
        assert!(msg.contains("release"), "{msg}");
    }

    #[test]
    fn protection_conflict_detected_and_unioned() {
        let mut app = AppSpec::new("x");
        app.add_task(TaskSpec::new("A"));
        app.add_data(DataSpec::new("S")); // No declared protection.
        app.add_access_with("A", "S", None, Some(DataProtection::ENCRYPT_AND_INTEGRITY))
            .unwrap();
        let report = detect_conflicts(&app);
        assert_eq!(report.len(), 1);
        let resolved = resolve(&app, ConflictPolicy::StrictestWins).unwrap();
        let s = resolved.module(&"S".into()).unwrap();
        assert_eq!(
            s.exec_env.protection,
            Some(DataProtection::ENCRYPT_AND_INTEGRITY)
        );
    }

    #[test]
    fn protection_subsumed_no_conflict() {
        let mut app = AppSpec::new("x");
        app.add_task(TaskSpec::new("A"));
        app.add_data(
            DataSpec::new("S")
                .with_exec_env(ExecEnvAspect::default().with_protection(DataProtection::FULL)),
        );
        app.add_access_with("A", "S", None, Some(DataProtection::INTEGRITY_ONLY))
            .unwrap();
        assert!(detect_conflicts(&app).is_clean());
    }

    #[test]
    fn isolation_conflict_on_colocated_tasks() {
        let mut app = AppSpec::new("x");
        app.add_task(
            TaskSpec::new("A").with_exec_env(ExecEnvAspect::isolation(IsolationLevel::Weak)),
        );
        app.add_task(
            TaskSpec::new("B").with_exec_env(ExecEnvAspect::isolation(IsolationLevel::Strongest)),
        );
        app.colocate("A", "B").unwrap();
        let report = detect_conflicts(&app);
        assert_eq!(report.len(), 1);
        let resolved = resolve(&app, ConflictPolicy::StrictestWins).unwrap();
        for id in ["A", "B"] {
            assert_eq!(
                resolved.module(&id.into()).unwrap().exec_env.isolation,
                Some(IsolationLevel::Strongest)
            );
        }
    }

    #[test]
    fn colocated_without_explicit_isolation_no_conflict() {
        let mut app = AppSpec::new("x");
        app.add_task(TaskSpec::new("A"));
        app.add_task(
            TaskSpec::new("B").with_exec_env(ExecEnvAspect::isolation(IsolationLevel::Strong)),
        );
        app.colocate("A", "B").unwrap();
        // `A` left its isolation to the provider; it adopts B's choice
        // without this being a user-visible conflict.
        assert!(detect_conflicts(&app).is_clean());
    }

    #[test]
    fn replication_conflict_within_failure_domain() {
        let mut app = AppSpec::new("x");
        app.add_data(
            DataSpec::new("S1").with_dist(
                DistributedAspect::default()
                    .replication(3)
                    .failure_domain("d0"),
            ),
        );
        app.add_data(
            DataSpec::new("S2").with_dist(
                DistributedAspect::default()
                    .replication(2)
                    .failure_domain("d0"),
            ),
        );
        let report = detect_conflicts(&app);
        assert_eq!(report.len(), 1);
        let resolved = resolve(&app, ConflictPolicy::StrictestWins).unwrap();
        assert_eq!(resolved.module(&"S1".into()).unwrap().dist.replication, 3);
        assert_eq!(resolved.module(&"S2".into()).unwrap().dist.replication, 3);
    }

    #[test]
    fn distinct_domains_do_not_conflict() {
        let mut app = AppSpec::new("x");
        app.add_data(
            DataSpec::new("S1").with_dist(
                DistributedAspect::default()
                    .replication(3)
                    .failure_domain("d0"),
            ),
        );
        app.add_data(
            DataSpec::new("S2").with_dist(
                DistributedAspect::default()
                    .replication(2)
                    .failure_domain("d1"),
            ),
        );
        assert!(detect_conflicts(&app).is_clean());
    }

    #[test]
    fn clean_app_returned_unchanged() {
        let app = shared_data_app(ConsistencyLevel::Causal, ConsistencyLevel::Causal);
        let resolved = resolve(&app, ConflictPolicy::Error).unwrap();
        assert_eq!(resolved, app);
    }

    #[test]
    fn multiple_conflicts_all_reported() {
        let mut app = shared_data_app(ConsistencyLevel::Sequential, ConsistencyLevel::Release);
        app.add_data(
            DataSpec::new("S1").with_dist(
                DistributedAspect::default()
                    .replication(3)
                    .failure_domain("d0"),
            ),
        );
        app.add_data(
            DataSpec::new("S2").with_dist(
                DistributedAspect::default()
                    .replication(1)
                    .failure_domain("d0"),
            ),
        );
        let report = detect_conflicts(&app);
        assert_eq!(report.len(), 2);
    }

    #[test]
    fn conflict_display_is_readable() {
        let app = shared_data_app(ConsistencyLevel::Sequential, ConsistencyLevel::Release);
        let report = detect_conflicts(&app);
        let text = report.conflicts[0].to_string();
        assert!(text.contains('S'), "{text}");
        assert!(text.contains("strictest"), "{text}");
    }
}
