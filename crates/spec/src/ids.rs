//! Identifier newtypes shared across the spec.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// Name of a module (task or data) inside an application DAG.
///
/// Module ids are user-chosen strings such as `A1` or `S3` (Fig. 2 of the
/// paper). They must be non-empty and consist of ASCII alphanumerics,
/// `_` or `-`; [`ModuleId::new`] enforces this.
///
/// The name is allocated once and shared: a clone is a reference-count
/// bump, so the copies every layer keeps (the IR, the placement, the
/// environments, the data keys) cost no allocation. Equality, order and
/// hashing are the string's.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModuleId(Arc<str>);

impl ModuleId {
    /// Creates a module id, returning `None` when `name` is not a valid
    /// identifier (empty, or containing characters outside
    /// `[A-Za-z0-9_-]`).
    pub fn new(name: impl AsRef<str>) -> Option<Self> {
        let name = name.as_ref();
        is_identifier(name).then(|| Self(Arc::from(name)))
    }

    /// Returns the identifier as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ModuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Lets a map keyed by [`ModuleId`] be searched with a `&str`.
impl Borrow<str> for ModuleId {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for ModuleId {
    /// Converts from a string literal.
    ///
    /// # Panics
    ///
    /// Panics when `s` is not a valid identifier. Use [`ModuleId::new`]
    /// for fallible construction.
    fn from(s: &str) -> Self {
        ModuleId::new(s).unwrap_or_else(|| panic!("invalid module id: {s:?}"))
    }
}

/// Name of an application (the DAG as a whole).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AppName(String);

impl AppName {
    /// Creates an application name; same identifier rules as [`ModuleId`].
    pub fn new(name: impl Into<String>) -> Option<Self> {
        let name = name.into();
        is_identifier(&name).then_some(Self(name))
    }

    /// Returns the name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for AppName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Non-empty, and only `[A-Za-z0-9_-]`.
fn is_identifier(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_module_ids() {
        for ok in ["A1", "S3", "pre-process", "nlp_infer", "x"] {
            assert!(ModuleId::new(ok).is_some(), "{ok} should be valid");
        }
    }

    #[test]
    fn invalid_module_ids() {
        for bad in ["", "a b", "A1!", "é", "x.y"] {
            assert!(ModuleId::new(bad).is_none(), "{bad:?} should be invalid");
        }
    }

    #[test]
    fn display_round_trip() {
        let id = ModuleId::new("A1").unwrap();
        assert_eq!(id.to_string(), "A1");
        assert_eq!(id.as_str(), "A1");
        assert_eq!(format!("{id:?}"), "ModuleId(\"A1\")");
    }

    #[test]
    fn a_clone_shares_the_name() {
        let id = ModuleId::new(String::from("A1")).unwrap();
        let copy = id.clone();
        assert!(std::ptr::eq(id.as_str(), copy.as_str()));
        assert_eq!(copy, ModuleId::from("A1"));
    }

    #[test]
    fn app_name_rules_match_module_rules() {
        assert!(AppName::new("medical").is_some());
        assert!(AppName::new("").is_none());
        assert!(AppName::new("a b").is_none());
    }
}
