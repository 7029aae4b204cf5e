//! Operation-preference scheduling (§3.4, Table 1's "Reader
//! preference"): when reads and writes contend for a data module, the
//! user chooses which class is served first.

use std::collections::VecDeque;
use udc_spec::OpPreference;

/// The class of a queued operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A read.
    Read,
    /// A write.
    Write,
}

/// A queued operation with its arrival time (for wait accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Operation class.
    pub kind: OpKind,
    /// Arrival time (microseconds, caller-defined epoch).
    pub arrived_us: u64,
    /// Caller-assigned tag (e.g. request id).
    pub tag: u64,
}

/// A two-class queue honouring an [`OpPreference`].
///
/// `Reader` drains all reads before any write (and vice versa for
/// `Writer`); `None` is plain FIFO. A starvation bound prevents complete
/// lock-out: after `starvation_bound` consecutive preferred operations,
/// one non-preferred operation is served.
#[derive(Debug, Clone)]
pub struct PreferenceQueue {
    preference: OpPreference,
    reads: VecDeque<Op>,
    writes: VecDeque<Op>,
    fifo: VecDeque<Op>,
    starvation_bound: u32,
    preferred_streak: u32,
}

impl PreferenceQueue {
    /// Creates a queue with the given preference and starvation bound.
    pub fn new(preference: OpPreference, starvation_bound: u32) -> Self {
        Self {
            preference,
            reads: VecDeque::new(),
            writes: VecDeque::new(),
            fifo: VecDeque::new(),
            starvation_bound: starvation_bound.max(1),
            preferred_streak: 0,
        }
    }

    /// Enqueues an operation.
    pub fn push(&mut self, op: Op) {
        match self.preference {
            OpPreference::None => self.fifo.push_back(op),
            _ => match op.kind {
                OpKind::Read => self.reads.push_back(op),
                OpKind::Write => self.writes.push_back(op),
            },
        }
    }

    /// Dequeues the next operation to serve.
    pub fn pop(&mut self) -> Option<Op> {
        match self.preference {
            OpPreference::None => self.fifo.pop_front(),
            OpPreference::Reader => self.pop_pref(true),
            OpPreference::Writer => self.pop_pref(false),
        }
    }

    fn pop_pref(&mut self, prefer_reads: bool) -> Option<Op> {
        let (pref, other) = if prefer_reads {
            (&mut self.reads, &mut self.writes)
        } else {
            (&mut self.writes, &mut self.reads)
        };
        // Anti-starvation: yield to the other class periodically.
        if self.preferred_streak >= self.starvation_bound {
            if let Some(op) = other.pop_front() {
                self.preferred_streak = 0;
                return Some(op);
            }
        }
        if let Some(op) = pref.pop_front() {
            self.preferred_streak += 1;
            Some(op)
        } else {
            self.preferred_streak = 0;
            other.pop_front()
        }
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.reads.len() + self.writes.len() + self.fifo.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(kind: OpKind, tag: u64) -> Op {
        Op {
            kind,
            arrived_us: tag,
            tag,
        }
    }

    #[test]
    fn fifo_when_no_preference() {
        let mut q = PreferenceQueue::new(OpPreference::None, 8);
        q.push(op(OpKind::Write, 1));
        q.push(op(OpKind::Read, 2));
        q.push(op(OpKind::Write, 3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|o| o.tag).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn reader_preference_serves_reads_first() {
        let mut q = PreferenceQueue::new(OpPreference::Reader, 100);
        q.push(op(OpKind::Write, 1));
        q.push(op(OpKind::Read, 2));
        q.push(op(OpKind::Write, 3));
        q.push(op(OpKind::Read, 4));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|o| o.tag).collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
    }

    #[test]
    fn writer_preference_serves_writes_first() {
        let mut q = PreferenceQueue::new(OpPreference::Writer, 100);
        q.push(op(OpKind::Read, 1));
        q.push(op(OpKind::Write, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|o| o.tag).collect();
        assert_eq!(order, vec![2, 1]);
    }

    #[test]
    fn starvation_bound_lets_other_class_through() {
        let mut q = PreferenceQueue::new(OpPreference::Reader, 2);
        for i in 0..5 {
            q.push(op(OpKind::Read, i));
        }
        q.push(op(OpKind::Write, 100));
        // Reads 0,1 then the starving write must be served.
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|o| o.tag).collect();
        let write_pos = order.iter().position(|&t| t == 100).unwrap();
        assert!(write_pos <= 2, "write served at {write_pos} in {order:?}");
        assert_eq!(order.len(), 6);
    }

    #[test]
    fn empty_pops_none() {
        let mut q = PreferenceQueue::new(OpPreference::Reader, 4);
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn falls_back_to_other_class_when_preferred_empty() {
        let mut q = PreferenceQueue::new(OpPreference::Reader, 4);
        q.push(op(OpKind::Write, 1));
        assert_eq!(q.pop().unwrap().tag, 1);
    }
}
