//! Supervision: what the system does when an actor's handler fails.

/// Failure-handling policy for actors, the local analogue of §3.4's
/// per-module failure handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SupervisionPolicy {
    /// Reset the actor to its initial state and continue (the failed
    /// message is dropped).
    #[default]
    Restart,
    /// Reset the actor and redeliver the failed message once; if it
    /// fails again, drop it (poison-message protection).
    RestartAndRetry,
    /// Remove the actor from the system; further messages to it are
    /// counted as dead letters.
    Stop,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_restart() {
        assert_eq!(SupervisionPolicy::default(), SupervisionPolicy::Restart);
    }
}
