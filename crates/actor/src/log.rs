//! The reliable message log (§3.1: "messages could be reliably recorded
//! for faster recovery").
//!
//! Records every *delivered* message in delivery order. Appends move
//! the message in (payloads are refcounted `Bytes`, ids are refcounted
//! `ActorId`s — nothing is deep-copied). Recovery replays a per-actor
//! suffix: a lazily-built per-actor index makes [`MessageLog::replay_for`]
//! O(log n + suffix) instead of a full-log scan, and
//! [`MessageLog::truncate_through`] drops the prefix made obsolete by a
//! checkpoint so long-running systems stop growing the log unboundedly.

use crate::actor::{ActorId, Message};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Per-actor replay index over a `MessageLog`'s entries.
///
/// Extended lazily (and rebuilt after a truncation), so an append stays
/// a compare and a `Vec::push`.
#[derive(Debug, Clone, Default)]
struct LogIndex {
    /// Positions into `entries`, ascending, per destination actor.
    per_actor: BTreeMap<ActorId, Vec<u32>>,
    /// `entries[..upto]` have been indexed.
    upto: usize,
}

impl LogIndex {
    fn extend(&mut self, entries: &[Message]) {
        for (pos, m) in entries.iter().enumerate().skip(self.upto) {
            self.per_actor
                .entry(m.to.clone())
                .or_default()
                .push(pos as u32);
        }
        self.upto = entries.len();
    }
}

/// The reliable message log.
#[derive(Debug, Clone, Default)]
pub struct MessageLog {
    entries: Vec<Message>,
    /// Messages dropped off the front by [`MessageLog::truncate_through`].
    truncated: u64,
    /// The highest seq ever recorded (0 before the first).
    last_seq: u64,
    /// Interior mutability keeps `replay_for(&self)` — the index is a
    /// cache over `entries`, not part of the log's logical state.
    index: RefCell<LogIndex>,
}

impl MessageLog {
    /// Number of logged messages still retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Retained entries, in delivery order.
    pub fn entries(&self) -> &[Message] {
        &self.entries
    }

    /// Messages dropped so far by truncation.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// Entries addressed to `to` with `seq > after_seq` — the replay
    /// suffix used for recovery from a checkpoint. O(log n + suffix):
    /// the per-actor index is extended to cover any new appends, then
    /// binary-searched for the first sequence past `after_seq`
    /// (per-actor positions carry ascending seqs because
    /// [`MessageLog::record`] refuses any other order).
    pub fn replay_for(&self, to: &ActorId, after_seq: u64) -> Vec<Message> {
        let mut idx = self.index.borrow_mut();
        idx.extend(&self.entries);
        let Some(positions) = idx.per_actor.get(to) else {
            return Vec::new();
        };
        let start = positions.partition_point(|&p| self.entries[p as usize].seq <= after_seq);
        positions[start..]
            .iter()
            .map(|&p| self.entries[p as usize].clone())
            .collect()
    }

    /// Drops every entry with `seq <= seq` (the prefix a completed
    /// checkpoint makes unnecessary for recovery). Returns how many
    /// entries were dropped. The replay index is rebuilt on the next
    /// `replay_for` — truncation is a rare, checkpoint-cadence event.
    pub fn truncate_through(&mut self, seq: u64) -> usize {
        let k = self.entries.partition_point(|m| m.seq <= seq);
        if k == 0 {
            return 0;
        }
        self.entries.drain(..k);
        self.truncated += k as u64;
        *self.index.borrow_mut() = LogIndex::default();
        k
    }

    /// Appends a message. Takes it by value — the caller is done with
    /// it, so nothing is cloned.
    ///
    /// # Panics
    ///
    /// When `msg.seq` does not exceed every seq recorded before it,
    /// truncated ones included: replay's binary search and truncation's
    /// prefix cut both rely on seqs ascending through the log.
    #[inline]
    pub fn record(&mut self, msg: Message) {
        assert!(
            msg.seq > self.last_seq,
            "log seq {} does not exceed the last recorded, {}",
            msg.seq,
            self.last_seq
        );
        self.last_seq = msg.seq;
        self.entries.push(msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn msg(to: &str, seq: u64) -> Message {
        Message {
            seq,
            ..Message::external(to, Bytes::from_static(b"m"))
        }
    }

    fn naive_replay(log: &MessageLog, to: &ActorId, after_seq: u64) -> Vec<Message> {
        log.entries()
            .iter()
            .filter(|m| &m.to == to && m.seq > after_seq)
            .cloned()
            .collect()
    }

    #[test]
    fn indexed_replay_matches_full_scan() {
        let mut log = MessageLog::default();
        for seq in 1..=30u64 {
            let to = ["a", "b", "c"][(seq % 3) as usize];
            log.record(msg(to, seq));
        }
        for who in ["a", "b", "c", "ghost"] {
            let id = ActorId::new(who);
            for after in [0, 1, 7, 29, 30] {
                assert_eq!(log.replay_for(&id, after), naive_replay(&log, &id, after));
            }
        }
    }

    #[test]
    fn index_extends_over_appends_after_a_read() {
        let mut log = MessageLog::default();
        log.record(msg("a", 1));
        assert_eq!(log.replay_for(&ActorId::new("a"), 0).len(), 1);
        // Appends after the index was built must still be visible.
        log.record(msg("a", 2));
        log.record(msg("b", 3));
        assert_eq!(log.replay_for(&ActorId::new("a"), 0).len(), 2);
        assert_eq!(log.replay_for(&ActorId::new("b"), 0).len(), 1);
    }

    #[test]
    fn truncate_through_drops_prefix_and_keeps_replay_correct() {
        let mut log = MessageLog::default();
        for seq in 1..=10u64 {
            log.record(msg(if seq % 2 == 0 { "a" } else { "b" }, seq));
        }
        // Warm the index, then truncate: the index must rebuild.
        assert_eq!(log.replay_for(&ActorId::new("a"), 0).len(), 5);
        assert_eq!(log.truncate_through(6), 6);
        assert_eq!(log.len(), 4);
        assert_eq!(log.truncated(), 6);
        let a = log.replay_for(&ActorId::new("a"), 0);
        assert_eq!(a.iter().map(|m| m.seq).collect::<Vec<_>>(), vec![8, 10]);
        // Truncating at or before the current front is a no-op.
        assert_eq!(log.truncate_through(6), 0);
        assert_eq!(log.truncate_through(0), 0);
        // Truncating everything empties the log.
        assert_eq!(log.truncate_through(u64::MAX), 4);
        assert!(log.is_empty());
        assert_eq!(log.truncated(), 10);
    }

    #[test]
    #[should_panic(expected = "does not exceed")]
    fn record_refuses_a_seq_that_does_not_ascend() {
        let mut log = MessageLog::default();
        log.record(msg("a", 5));
        log.record(msg("b", 5));
    }

    #[test]
    #[should_panic(expected = "does not exceed")]
    fn record_refuses_a_seq_at_or_below_a_truncated_one() {
        let mut log = MessageLog::default();
        log.record(msg("a", 3));
        log.truncate_through(3);
        log.record(msg("a", 2));
    }

    #[test]
    fn recording_resumes_past_a_truncation() {
        let mut log = MessageLog::default();
        for seq in 1..=4u64 {
            log.record(msg(if seq % 2 == 0 { "a" } else { "b" }, seq));
        }
        assert_eq!(log.replay_for(&ActorId::new("a"), 0).len(), 2);
        assert_eq!(log.truncate_through(4), 4);
        log.record(msg("a", 7));
        log.record(msg("b", 9));
        assert_eq!(log.truncated(), 4);
        let a = log.replay_for(&ActorId::new("a"), 0);
        assert_eq!(a.iter().map(|m| m.seq).collect::<Vec<_>>(), vec![7]);
        assert_eq!(log.replay_for(&ActorId::new("b"), 7).len(), 1);
        assert!(log.replay_for(&ActorId::new("b"), 9).is_empty());
    }

    #[test]
    fn clone_carries_entries_and_stays_consistent() {
        let mut log = MessageLog::default();
        log.record(msg("a", 1));
        let _ = log.replay_for(&ActorId::new("a"), 0);
        let copy = log.clone();
        log.record(msg("a", 2));
        assert_eq!(copy.len(), 1);
        assert_eq!(copy.replay_for(&ActorId::new("a"), 0).len(), 1);
        assert_eq!(log.replay_for(&ActorId::new("a"), 0).len(), 2);
    }
}
