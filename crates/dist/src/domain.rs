//! User-defined failure domains (§3.4).
//!
//! "Users (developers) can define the failure domains in their programs,
//! with the understanding that different domains could fail
//! independently while code and data within a domain will fail as a
//! whole."

use std::collections::{BTreeMap, BTreeSet};

/// Tracks module → failure-domain assignments and answers blast-radius
/// queries.
#[derive(Debug, Clone, Default)]
pub struct DomainTracker {
    /// module -> domain. Modules without an entry are their own
    /// implicit singleton domain.
    assignment: BTreeMap<String, String>,
}

impl DomainTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns `module` to `domain`.
    pub fn assign(&mut self, module: impl Into<String>, domain: impl Into<String>) {
        self.assignment.insert(module.into(), domain.into());
    }

    /// The domain of `module` (its own name when unassigned — the
    /// implicit singleton domain).
    pub fn domain_of(&self, module: &str) -> String {
        self.assignment
            .get(module)
            .cloned()
            .unwrap_or_else(|| format!("~{module}"))
    }

    /// All modules that fail together with `module` (including itself).
    pub fn blast_radius(&self, module: &str) -> BTreeSet<String> {
        let domain = self.domain_of(module);
        let mut out: BTreeSet<String> = self
            .assignment
            .iter()
            .filter(|(_, d)| **d == domain)
            .map(|(m, _)| m.clone())
            .collect();
        out.insert(module.to_string());
        out
    }

    /// All modules in `domain`.
    pub fn members(&self, domain: &str) -> BTreeSet<String> {
        self.assignment
            .iter()
            .filter(|(_, d)| d.as_str() == domain)
            .map(|(m, _)| m.clone())
            .collect()
    }

    /// Whether two modules fail independently (different domains).
    pub fn independent(&self, a: &str, b: &str) -> bool {
        self.domain_of(a) != self.domain_of(b)
    }

    /// Distinct domains in use.
    pub fn domains(&self) -> BTreeSet<String> {
        self.assignment.values().cloned().collect()
    }

    /// Number of explicit assignments.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// True when nothing is assigned.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_domain_fails_together() {
        let mut t = DomainTracker::new();
        t.assign("A1", "front");
        t.assign("A2", "front");
        t.assign("S1", "storage");
        let radius = t.blast_radius("A1");
        assert!(radius.contains("A1"));
        assert!(radius.contains("A2"));
        assert!(!radius.contains("S1"));
    }

    #[test]
    fn different_domains_independent() {
        let mut t = DomainTracker::new();
        t.assign("A1", "front");
        t.assign("S1", "storage");
        assert!(t.independent("A1", "S1"));
        assert!(!t.independent("A1", "A1"));
    }

    #[test]
    fn unassigned_modules_are_singletons() {
        let t = DomainTracker::new();
        assert!(t.independent("X", "Y"));
        let radius = t.blast_radius("X");
        assert_eq!(radius.len(), 1);
        assert!(radius.contains("X"));
    }

    #[test]
    fn members_and_domains() {
        let mut t = DomainTracker::new();
        t.assign("A1", "d0");
        t.assign("A2", "d0");
        t.assign("A3", "d1");
        assert_eq!(t.members("d0").len(), 2);
        assert_eq!(t.domains().len(), 2);
        assert!(t.members("missing").is_empty());
    }

    #[test]
    fn reassignment_moves_module() {
        let mut t = DomainTracker::new();
        t.assign("A1", "d0");
        t.assign("A1", "d1");
        assert_eq!(t.domain_of("A1"), "d1");
        assert!(t.members("d0").is_empty());
    }
}
