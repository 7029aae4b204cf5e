//! Replay protection via monotonic sequence numbers (§3.3: users "could
//! also specify protection options for their data (e.g., ... replay
//! protection) when these data leave the execution environment").
//!
//! Each (sender, receiver) channel carries a strictly increasing sequence
//! number that is bound into the AEAD tag via the nonce; the receiver's
//! [`ReplayGuard`] rejects any message whose sequence number is not
//! strictly greater than the highest accepted so far.

use std::fmt;

/// A message with a sequence number attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequencedMessage<T> {
    /// Strictly increasing per-channel sequence number.
    pub seq: u64,
    /// Payload.
    pub payload: T,
}

/// Errors from replay checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayError {
    /// The message's sequence number was already accepted (or older):
    /// a replayed or reordered-too-late message.
    Replayed {
        /// Sequence number observed.
        seq: u64,
        /// Highest sequence accepted so far.
        high_water: u64,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Replayed { seq, high_water } => write!(
                f,
                "replayed message: seq {seq} <= high-water mark {high_water}"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Receiver-side replay detector: accepts strictly increasing sequence
/// numbers only.
#[derive(Debug, Clone, Default)]
pub struct ReplayGuard {
    high_water: u64,
    accepted: u64,
    rejected: u64,
}

impl ReplayGuard {
    /// Creates a guard that accepts any sequence number >= 1.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks and records a sequence number.
    pub fn check(&mut self, seq: u64) -> Result<(), ReplayError> {
        if seq <= self.high_water {
            self.rejected += 1;
            return Err(ReplayError::Replayed {
                seq,
                high_water: self.high_water,
            });
        }
        self.high_water = seq;
        self.accepted += 1;
        Ok(())
    }

    /// Highest accepted sequence number.
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Counts of accepted / rejected messages (telemetry).
    pub fn stats(&self) -> (u64, u64) {
        (self.accepted, self.rejected)
    }
}

/// Sender-side sequence allocator.
#[derive(Debug, Clone, Default)]
pub struct SequenceSource {
    next: u64,
}

impl SequenceSource {
    /// Creates a source starting at sequence 1.
    pub fn new() -> Self {
        Self { next: 0 }
    }

    /// Allocates the next sequence number (starting from 1).
    pub fn next_seq(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    /// Wraps a payload with the next sequence number.
    pub fn wrap<T>(&mut self, payload: T) -> SequencedMessage<T> {
        SequencedMessage {
            seq: self.next_seq(),
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_accepted() {
        let mut g = ReplayGuard::new();
        for seq in 1..=10 {
            g.check(seq).unwrap();
        }
        assert_eq!(g.high_water(), 10);
        assert_eq!(g.stats(), (10, 0));
    }

    #[test]
    fn exact_replay_rejected() {
        let mut g = ReplayGuard::new();
        g.check(5).unwrap();
        let err = g.check(5).unwrap_err();
        assert!(matches!(
            err,
            ReplayError::Replayed {
                seq: 5,
                high_water: 5
            }
        ));
    }

    #[test]
    fn stale_message_rejected() {
        let mut g = ReplayGuard::new();
        g.check(10).unwrap();
        assert!(g.check(3).is_err());
        assert_eq!(g.stats(), (1, 1));
    }

    #[test]
    fn gaps_allowed() {
        // Lost messages must not wedge the channel.
        let mut g = ReplayGuard::new();
        g.check(1).unwrap();
        g.check(100).unwrap();
        assert_eq!(g.high_water(), 100);
    }

    #[test]
    fn zero_rejected() {
        let mut g = ReplayGuard::new();
        assert!(g.check(0).is_err());
    }

    #[test]
    fn source_produces_strictly_increasing() {
        let mut s = SequenceSource::new();
        let a = s.wrap("x");
        let b = s.wrap("y");
        assert_eq!(a.seq, 1);
        assert_eq!(b.seq, 2);
        let mut g = ReplayGuard::new();
        g.check(a.seq).unwrap();
        g.check(b.seq).unwrap();
        assert!(g.check(a.seq).is_err());
    }
}
