//! Discrete-event virtual time.
//!
//! All simulator components share one [`SimClock`]; time only moves when
//! `advance`/`advance_to` is called, which makes every experiment fully
//! deterministic and lets a laptop simulate hours of datacenter time in
//! milliseconds.

use std::cell::Cell;
use std::rc::Rc;

/// Virtual time in microseconds since simulation start.
pub type Micros = u64;

/// One microsecond.
pub const US: Micros = 1;
/// One millisecond in microseconds.
pub const MS: Micros = 1_000;
/// One second in microseconds.
pub const SEC: Micros = 1_000_000;

/// A shared, cheaply clonable virtual clock.
///
/// Cloning yields a handle onto the *same* clock (a shared `Rc<Cell>`),
/// so a datacenter and its pools all observe one timeline, and a handle
/// doubles as the timestamp source for `udc-telemetry` spans. The
/// simulator is single-threaded by design — determinism, not
/// parallelism, is the goal — so handles stay on one thread.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Rc<Cell<u64>>,
}

impl SimClock {
    /// Creates a clock at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> Micros {
        self.now.get()
    }

    /// Advances time by `delta` microseconds and returns the new time.
    pub fn advance(&self, delta: Micros) -> Micros {
        let t = self.now().saturating_add(delta);
        self.now.set(t);
        t
    }

    /// Advances time to an absolute instant. Time never goes backwards;
    /// an earlier target leaves the clock unchanged.
    pub fn advance_to(&self, t: Micros) -> Micros {
        let cur = self.now();
        if t > cur {
            self.now.set(t);
            t
        } else {
            cur
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(SimClock::new().now(), 0);
    }

    #[test]
    fn advance_accumulates() {
        let c = SimClock::new();
        c.advance(5 * MS);
        c.advance(SEC);
        assert_eq!(c.now(), 1_005_000);
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(10);
        assert_eq!(b.now(), 10);
        b.advance(5);
        assert_eq!(a.now(), 15);
    }

    #[test]
    fn advance_to_never_rewinds() {
        let c = SimClock::new();
        c.advance_to(100);
        c.advance_to(50);
        assert_eq!(c.now(), 100);
    }

    #[test]
    fn advance_saturates() {
        let c = SimClock::new();
        c.advance(u64::MAX);
        c.advance(10);
        assert_eq!(c.now(), u64::MAX);
    }
}
