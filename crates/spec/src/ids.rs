//! Identifier newtypes shared across the spec.

use std::fmt;

/// Name of a module (task or data) inside an application DAG.
///
/// Module ids are user-chosen strings such as `A1` or `S3` (Fig. 2 of the
/// paper). They must be non-empty and consist of ASCII alphanumerics,
/// `_` or `-`; [`ModuleId::new`] enforces this.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModuleId(String);

impl ModuleId {
    /// Creates a module id, returning `None` when `name` is not a valid
    /// identifier (empty, or containing characters outside
    /// `[A-Za-z0-9_-]`).
    pub fn new(name: impl Into<String>) -> Option<Self> {
        let name = name.into();
        if name.is_empty()
            || !name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
        {
            return None;
        }
        Some(Self(name))
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
        if name.is_empty()
            || !name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
        {
            return None;
        }
        Some(Self(name))
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
    }

    #[test]
    fn app_name_rules_match_module_rules() {
        assert!(AppName::new("medical").is_some());
        assert!(AppName::new("").is_none());
        assert!(AppName::new("a b").is_none());
    }
}
