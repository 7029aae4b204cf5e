//! Fencing epochs for zombie isolation.
//!
//! An imperfect detector means the control plane will sometimes declare
//! a device dead that is merely partitioned. When the partition heals,
//! the old replica — a *zombie* — may still try to write or relaunch.
//! The classic remedy is a fencing token: every placement of a module
//! mints the next **monotone epoch for that module**; downstream writes
//! and isolate launches carry the epoch of the placement that spawned
//! them, and anything presenting an epoch older than the module's
//! current one is rejected. The registry is the single source of truth;
//! epochs only move forward, so a zombie can never race its replacement.

use std::collections::BTreeMap;

/// A stale-epoch rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FenceError {
    /// The module whose fence was violated.
    pub module: String,
    /// The epoch the caller presented.
    pub presented: u64,
    /// The module's current epoch.
    pub current: u64,
}

impl std::fmt::Display for FenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fenced: module {} presented epoch {} but current is {}",
            self.module, self.presented, self.current
        )
    }
}

impl std::error::Error for FenceError {}

/// Monotone per-module fencing epochs.
#[derive(Debug, Clone, Default)]
pub struct FenceRegistry {
    /// Highest epoch minted per module (0 = never placed).
    epochs: BTreeMap<String, u64>,
}

impl FenceRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mints the next epoch for `module`. Epochs start at 1 and only
    /// ever increase.
    pub fn mint(&mut self, module: &str) -> u64 {
        let e = self.epochs.entry(module.to_string()).or_insert(0);
        *e += 1;
        *e
    }

    /// The module's current epoch (0 = never placed).
    pub fn current(&self, module: &str) -> u64 {
        self.epochs.get(module).copied().unwrap_or(0)
    }

    /// Validates a claim: only the module's *current* epoch passes. A
    /// stale epoch is a zombie (fenced); a future epoch was never
    /// minted here and is equally invalid.
    pub fn check(&self, module: &str, presented: u64) -> Result<(), FenceError> {
        let current = self.current(module);
        if presented == current && current != 0 {
            Ok(())
        } else {
            Err(FenceError {
                module: module.to_string(),
                presented,
                current,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_are_monotone_per_module_and_independent_across_modules() {
        let mut reg = FenceRegistry::new();
        assert_eq!(reg.current("a"), 0);
        assert_eq!(reg.mint("a"), 1);
        assert_eq!(reg.mint("a"), 2);
        assert_eq!(reg.mint("b"), 1);
        assert_eq!(reg.current("a"), 2);
        assert_eq!(reg.current("b"), 1);
    }

    #[test]
    fn only_the_current_epoch_passes_check() {
        let mut reg = FenceRegistry::new();
        // Nothing minted yet: every claim is invalid.
        assert!(reg.check("m", 0).is_err());
        assert!(reg.check("m", 1).is_err());
        let e1 = reg.mint("m");
        assert!(reg.check("m", e1).is_ok());
        let e2 = reg.mint("m");
        assert!(reg.check("m", e2).is_ok());
        let err = reg.check("m", e1).unwrap_err();
        assert_eq!(err.presented, e1);
        assert_eq!(err.current, e2);
        // A forged future epoch is invalid too.
        assert!(reg.check("m", e2 + 1).is_err());
    }
}
