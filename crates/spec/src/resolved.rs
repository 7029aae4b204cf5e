//! The front door (§3.1): one pass, and a type that carries the proof.

use crate::conflict::{apply, detect_conflicts, ConflictPolicy, ConflictReport};
use crate::dag::AppSpec;
use crate::error::SpecResult;
use crate::ids::ModuleId;
use crate::validate::validate;
use std::ops::Deref;

/// An application that passed the control plane's front door: conflicts
/// detected and resolved, the result validated, its modules ordered.
/// [`ResolvedApp::new`] is the only constructor and nothing hands out
/// `&mut`, so a function taking `&ResolvedApp` re-checks nothing. The
/// resolved [`AppSpec`] is reachable through `Deref`.
///
/// Resolution rewrites module aspects, never edge requirements, so
/// [`detect_conflicts`] on a resolved app still reports the conflicts:
/// "clean after resolve" is *not* an invariant, and
/// [`ResolvedApp::conflicts`] is the record of what was resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedApp {
    app: AppSpec,
    order: Vec<ModuleId>,
    conflicts: ConflictReport,
}

impl ResolvedApp {
    /// Detect → resolve → validate → order, each exactly once; fails
    /// as [`crate::conflict::resolve`] then [`AppSpec::validate`] would.
    pub fn new(app: &AppSpec, policy: ConflictPolicy) -> SpecResult<Self> {
        let conflicts = detect_conflicts(app);
        let app = apply(&conflicts, app, policy)?;
        let order = validate(&app)?;
        Ok(Self {
            app,
            order,
            conflicts,
        })
    }

    /// [`AppSpec::topo_order`] of the resolved app.
    pub fn order(&self) -> &[ModuleId] {
        &self.order
    }

    /// What [`detect_conflicts`] found in the source spec.
    pub fn conflicts(&self) -> &ConflictReport {
        &self.conflicts
    }
}

impl Deref for ResolvedApp {
    type Target = AppSpec;

    fn deref(&self) -> &AppSpec {
        &self.app
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aspect::ConsistencyLevel;
    use crate::dag::{DataSpec, EdgeKind, TaskSpec};
    use crate::error::SpecError;

    fn conflicting_app() -> AppSpec {
        let mut app = AppSpec::new("c");
        app.add_task(TaskSpec::new("A"));
        app.add_task(TaskSpec::new("B"));
        app.add_data(DataSpec::new("S"));
        app.add_edge("A", "B", EdgeKind::Dependency).unwrap();
        app.add_access_with("A", "S", Some(ConsistencyLevel::Sequential), None)
            .unwrap();
        app.add_access_with("B", "S", Some(ConsistencyLevel::Release), None)
            .unwrap();
        app
    }

    #[test]
    fn error_policy_refuses_what_strictest_wins_resolves() {
        let app = conflicting_app();
        assert!(matches!(
            ResolvedApp::new(&app, ConflictPolicy::Error),
            Err(SpecError::Conflict(_))
        ));
        let resolved = ResolvedApp::new(&app, ConflictPolicy::StrictestWins).unwrap();
        assert_eq!(
            resolved.module(&"S".into()).unwrap().dist.consistency,
            Some(ConsistencyLevel::Sequential)
        );
        assert_eq!(resolved.conflicts(), &detect_conflicts(&app));
        assert_eq!(resolved.order(), app.topo_order().unwrap());
    }

    #[test]
    fn the_stored_report_is_the_record_not_a_clean_rescan() {
        let resolved = ResolvedApp::new(&conflicting_app(), ConflictPolicy::StrictestWins).unwrap();
        // The accessors' edge requirements still disagree.
        assert!(!detect_conflicts(&resolved).is_clean());
        assert_eq!(resolved.conflicts().len(), 1);
    }

    #[test]
    fn invalid_apps_do_not_get_through() {
        assert!(matches!(
            ResolvedApp::new(&AppSpec::new("empty"), ConflictPolicy::StrictestWins),
            Err(SpecError::InvalidApp(_))
        ));
        let mut cyclic = conflicting_app();
        cyclic.add_edge("B", "A", EdgeKind::Dependency).unwrap();
        assert!(matches!(
            ResolvedApp::new(&cyclic, ConflictPolicy::StrictestWins),
            Err(SpecError::Cycle(_))
        ));
    }
}
