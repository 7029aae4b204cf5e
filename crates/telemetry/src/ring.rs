//! The bounded, sequence-numbered ring behind the flight recorder, the
//! decision log and the alert log.
//!
//! Records are held as `Rc`s so a [`Snapshot`](crate::Snapshot) shares
//! them instead of deep-copying the ring, and sequence numbers are
//! *dense*: the retained records are exactly `next_seq - len .. next_seq`
//! (eviction pops the front, `next_seq` never goes back). That is what
//! lets a cursor reader skip to "everything since seq N" in O(1) and
//! learn how many records it missed.

use std::collections::vec_deque;
use std::collections::VecDeque;
use std::rc::Rc;

pub(crate) struct Ring<T> {
    records: VecDeque<Rc<T>>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

/// The records of one ring at or after a sequence number, by reference
/// (see [`HubView`](crate::HubView)).
pub struct RingTail<'a, T> {
    /// Records with a sequence number at or after the one asked for
    /// that the ring had already evicted.
    pub missed: u64,
    /// The sequence number the ring's next record will get: pass it
    /// back as the cursor to read each record exactly once.
    pub next_seq: u64,
    /// The retained records from the cursor on, oldest first.
    pub records: vec_deque::Iter<'a, Rc<T>>,
}

impl<T> Ring<T> {
    /// A ring retaining at most `capacity` records (0 drops everything).
    pub fn new(capacity: usize) -> Self {
        Self {
            records: VecDeque::new(),
            capacity,
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Appends the record `make` builds for the next sequence number,
    /// evicting (and counting) the oldest record when full.
    pub fn push_with(&mut self, make: impl FnOnce(u64) -> T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(Rc::new(make(seq)));
    }

    pub fn records(&self) -> vec_deque::Iter<'_, Rc<T>> {
        self.records.iter()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Everything at or after sequence number `seq`: an O(1) skip into
    /// the dense ring.
    pub fn since(&self, seq: u64) -> RingTail<'_, T> {
        let len = self.records.len();
        let front = self.next_seq - len as u64;
        let skip = seq.saturating_sub(front).min(len as u64) as usize;
        RingTail {
            missed: front.saturating_sub(seq),
            next_seq: self.next_seq,
            records: self.records.range(skip..),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_skips_to_the_cursor_and_counts_what_was_evicted() {
        let mut r = Ring::new(3);
        for _ in 0..5 {
            r.push_with(|seq| seq);
        }
        // Retained: 2, 3, 4.
        let tail = r.since(0);
        assert_eq!((tail.missed, tail.next_seq), (2, 5));
        assert_eq!(tail.records.map(|s| **s).collect::<Vec<_>>(), [2, 3, 4]);
        let tail = r.since(3);
        assert_eq!(tail.missed, 0);
        assert_eq!(tail.records.map(|s| **s).collect::<Vec<_>>(), [3, 4]);
        assert_eq!(r.since(5).records.count(), 0);
        assert_eq!(
            r.since(99).records.count(),
            0,
            "a cursor ahead reads nothing"
        );
    }
}
