//! The deterministic actor system: FIFO mailboxes, round-robin
//! scheduling, reliable message logging, supervision.
//!
//! This is the optimized runtime (the seed implementation survives as
//! [`crate::naive::NaiveSystem`], the equivalence oracle). Two changes
//! make the hot path run at memory speed while keeping the observable
//! behaviour bit-for-bit identical:
//!
//! - **Interned slots.** Each [`ActorId`] is interned once at spawn
//!   into a dense `u32` slot backed by a slab (`Vec<Slot>`); the
//!   `BTreeMap` is consulted only at spawn/inject boundaries, never
//!   per delivery.
//! - **Ready bitmap.** Instead of cloning every id each round, a
//!   two-level bitmap tracks which *ranks* (id-order positions) have
//!   pending mail. A round walks set bits in ascending rank order with
//!   a strictly increasing cursor, which reproduces the seed contract
//!   exactly: one message per actor per round, and a message enqueued
//!   mid-round to an actor later in id order fires in the same round.
//!   `step()` is O(actors with pending mail) and allocation-free in
//!   steady state.
//!
//! Nothing on the per-message path touches the telemetry hub: a
//! delivery only bumps [`SystemStats`], and each `step` hands the hub
//! what the stats gained in one `incr` per counter that moved (see
//! [`System::set_observer`]).

use crate::actor::{Actor, ActorId, Ctx, Message};
pub use crate::log::MessageLog;
use crate::readiness::ReadySet;
use crate::slab::{SlotTable, SpawnEffect};
use crate::supervise::SupervisionPolicy;
use bytes::Bytes;
use udc_telemetry::{Labels, Telemetry};

/// A resolve-once injection handle: the dense slot an [`ActorId`] was
/// interned into. Callers on a hot injection path look the id up a
/// single time with [`System::resolve`] and then inject through the
/// handle, skipping the per-message index probe.
///
/// Slots are never deallocated, so a handle stays valid for the life of
/// the system; it keeps addressing the same id even across a re-spawn
/// (the slot is reused) or a stop (injections dead-letter, exactly as
/// they would by id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActorRef(pub(crate) u32);

/// Execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SystemStats {
    /// Messages successfully handled.
    pub delivered: u64,
    /// Handler failures observed.
    pub failures: u64,
    /// Actor restarts performed by supervision.
    pub restarts: u64,
    /// Messages addressed to unknown/stopped actors.
    pub dead_letters: u64,
}

/// The deterministic single-threaded actor system.
///
/// Delivery order is deterministic: actors are polled in id order, one
/// message per turn, so every run with the same inputs produces the same
/// message log (property-tested against [`crate::naive::NaiveSystem`]).
#[derive(Default)]
pub struct System {
    /// Interned slots + rank order (shared layout — see [`crate::slab`]).
    table: SlotTable,
    ready: ReadySet,
    /// Messages queued in non-stopped mailboxes (O(1) `has_pending`).
    queued: usize,
    log: MessageLog,
    next_seq: u64,
    stats: SystemStats,
    obs: Telemetry,
    /// Deepest mailbox seen; gates gauge updates to high-water
    /// candidates so steady-state enqueues skip the gauge entirely.
    mailbox_hw: i64,
}

impl System {
    /// Creates an empty system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs the observability hub: deliveries, failures, restarts
    /// and dead letters become `actor.*` counters, and the deepest
    /// mailbox seen is tracked as a gauge high-water mark. The counters
    /// are [`SystemStats`]' own numbers: each `step` reports what they
    /// gained, and a dead letter outside a step is reported at once, so
    /// no message costs a hub lock and the hub never lags the stats
    /// between calls.
    pub fn set_observer(&mut self, obs: Telemetry) {
        self.obs = obs;
    }

    /// Registers an actor under `id` with a supervision policy.
    /// Replaces any existing registration with the same id.
    pub fn spawn(
        &mut self,
        id: impl Into<ActorId>,
        actor: Box<dyn Actor>,
        policy: SupervisionPolicy,
    ) {
        let dirty_before = self.table.ranks_dirty();
        match self.table.spawn(id.into(), actor, policy) {
            SpawnEffect::Reused { cleared, rank } => {
                // Same id: the slot was reused (rank order unchanged)
                // with a fresh mailbox — exactly the seed's map-insert
                // replacement semantics.
                self.queued -= cleared;
                if !dirty_before {
                    self.ready.clear(rank);
                }
            }
            SpawnEffect::Fresh => {}
        }
    }

    /// Enqueues an external message.
    pub fn inject(&mut self, to: impl Into<ActorId>, payload: impl Into<Bytes>) {
        if !self.enqueue(Message::external(to, payload)) {
            // Outside a step: no round will report this dead letter.
            self.obs.incr("actor.dead_letters", Labels::none(), 1);
        }
    }

    /// Resolves an id to its injection handle, if the id was ever
    /// spawned. A stopped actor still resolves (its slot persists);
    /// injecting at it dead-letters, same as injecting by id.
    pub fn resolve(&self, id: &ActorId) -> Option<ActorRef> {
        self.table.lookup(id).map(ActorRef)
    }

    /// Enqueues an external message through a pre-resolved handle:
    /// identical semantics to [`System::inject`] minus the id lookup.
    pub fn inject_at(&mut self, at: ActorRef, payload: impl Into<Bytes>) {
        // One slot borrow end to end: the handle already paid for the
        // lookup, so the hot path is a stopped check, an id refcount
        // bump, and the mailbox push.
        let s = self.table.slot_mut(at.0);
        if s.stopped {
            self.stats.dead_letters += 1;
            self.obs.incr("actor.dead_letters", Labels::none(), 1);
            return;
        }
        let msg = Message {
            from: None,
            to: s.id.clone(),
            payload: payload.into(),
            seq: 0,
        };
        if s.mailbox.capacity() == 0 {
            s.mailbox.reserve(16);
        }
        s.mailbox.push_back(msg);
        let (depth, rank) = (s.mailbox.len(), s.rank);
        self.note_enqueued(depth, rank);
    }

    /// Queues `msg` at its recipient, or counts a dead letter (returning
    /// false) when the recipient is unknown or stopped.
    #[inline]
    fn enqueue(&mut self, msg: Message) -> bool {
        let slot = match self.table.lookup(&msg.to) {
            Some(s) if !self.table.slot(s).stopped => s,
            _ => {
                self.stats.dead_letters += 1;
                return false;
            }
        };
        self.enqueue_at(slot, msg);
        true
    }

    #[inline]
    fn enqueue_at(&mut self, slot: u32, msg: Message) {
        let s = self.table.slot_mut(slot);
        if s.mailbox.capacity() == 0 {
            // First mail for this slot: size the buffer for a burst up
            // front, so a storm does one allocation per mailbox instead
            // of a realloc-and-copy ladder.
            s.mailbox.reserve(16);
        }
        s.mailbox.push_back(msg);
        let (depth, rank) = (s.mailbox.len(), s.rank);
        self.note_enqueued(depth, rank);
    }

    /// Shared post-push bookkeeping for every enqueue path.
    #[inline]
    fn note_enqueued(&mut self, depth: usize, rank: u32) {
        self.queued += 1;
        if depth == 1 && !self.table.ranks_dirty() {
            self.ready.set(rank);
        }
        // Only a new high-water candidate touches the gauge; the
        // steady-state enqueue path costs a compare.
        if depth as i64 > self.mailbox_hw {
            self.mailbox_hw = depth as i64;
            self.obs
                .gauge_set("actor.mailbox_depth", Labels::none(), self.mailbox_hw);
        }
    }

    /// Rebuilds rank order (and the ready bitmap) after new spawns.
    /// Runs at most once per batch of spawns, not per round.
    fn refresh_ranks(&mut self) {
        if !self.table.ranks_dirty() {
            return;
        }
        self.ready.reset(self.table.len());
        let ready = &mut self.ready;
        self.table.refresh_ranks(|rank| ready.set(rank));
    }

    /// Delivers at most one message to each actor (in id order).
    /// Returns the number of messages handled.
    ///
    /// Walks only ready ranks: the cursor is strictly increasing, so an
    /// actor fires at most once per round, and mail enqueued mid-round
    /// lands in the same round exactly when its rank is still ahead of
    /// the cursor — the seed's id-order snapshot semantics.
    pub fn step(&mut self) -> usize {
        self.refresh_ranks();
        let before = self.stats;
        self.log.reserve(self.queued);
        let mut handled = 0;
        let mut cursor: u32 = 0;
        while let Some(rank) = self.ready.next_at_or_after(cursor) {
            cursor = rank + 1;
            let slot = self.table.slot_of_rank(rank);
            let s = self.table.slot_mut(slot);
            debug_assert!(!s.stopped, "stopped actors are never ready");
            let Some(front) = s.mailbox.front_mut() else {
                debug_assert!(false, "ready rank with empty mailbox");
                self.ready.clear(rank);
                continue;
            };
            // The sequence number is assigned in place in the ring; the
            // message then moves mailbox -> log in one step.
            self.next_seq += 1;
            front.seq = self.next_seq;
            if s.mailbox.len() == 1 {
                self.ready.clear(rank);
            }
            self.queued -= 1;
            handled += 1;
            self.deliver_front(slot, true);
        }
        self.report_since(before);
        handled
    }

    /// Hands the hub what the stats gained since `before`: one `incr`
    /// per counter that moved, so a round takes at most four hub locks
    /// however many messages it delivered.
    fn report_since(&self, before: SystemStats) {
        if !self.obs.is_enabled() {
            return;
        }
        let now = self.stats;
        for (name, was, is) in [
            ("actor.delivered", before.delivered, now.delivered),
            ("actor.failures", before.failures, now.failures),
            ("actor.restarts", before.restarts, now.restarts),
            ("actor.dead_letters", before.dead_letters, now.dead_letters),
        ] {
            if is > was {
                self.obs.incr(name, Labels::none(), is - was);
            }
        }
    }

    /// Delivers the front of `slot`'s mailbox.
    #[inline]
    fn deliver_front(&mut self, slot: u32, allow_retry: bool) {
        let s = self.table.slot_mut(slot);
        let msg = s
            .mailbox
            .pop_front()
            .expect("deliver_front on empty mailbox");
        self.deliver(slot, msg, allow_retry);
    }

    /// Delivers `msg` to `slot`'s actor with a speculative append:
    /// success is the overwhelmingly common case, so the message is
    /// recorded up front (by move — payload and ids are refcounted) and
    /// the handler reads it in place in the log, saving a Message-sized
    /// move per delivery. A failed delivery pops it back out: failures
    /// are never logged, as in the seed.
    #[inline]
    fn deliver(&mut self, slot: u32, msg: Message, allow_retry: bool) {
        self.log.record(msg);
        let mut ctx = Ctx::default();
        let result = {
            let m = self.log.last().expect("entry just recorded");
            self.table.slot_mut(slot).actor.on_message(&mut ctx, m)
        };
        match result {
            Ok(()) => {
                self.stats.delivered += 1;
                if !ctx.outbox.is_empty() {
                    let from = self.table.slot(slot).id.clone();
                    for (to, payload) in ctx.outbox {
                        self.enqueue(Message {
                            from: Some(from.clone()),
                            to,
                            payload,
                            seq: 0,
                        });
                    }
                }
            }
            Err(_) => self.deliver_failed(slot, allow_retry),
        }
    }

    /// Supervision for a failed delivery; out of line, off the hot path.
    #[cold]
    fn deliver_failed(&mut self, slot: u32, allow_retry: bool) {
        let msg = self.log.pop_last().expect("entry just recorded");
        self.stats.failures += 1;
        match self.table.slot(slot).policy {
            SupervisionPolicy::Restart => {
                self.table.slot_mut(slot).actor.reset();
                self.stats.restarts += 1;
            }
            SupervisionPolicy::RestartAndRetry => {
                self.table.slot_mut(slot).actor.reset();
                self.stats.restarts += 1;
                if allow_retry {
                    // The retry keeps the message's seq: it is the same
                    // delivery attempt, not a new one.
                    self.deliver(slot, msg, false);
                }
            }
            SupervisionPolicy::Stop => {
                let dirty = self.table.ranks_dirty();
                let s = self.table.slot_mut(slot);
                s.stopped = true;
                let (cleared, rank) = (s.mailbox.len(), s.rank);
                s.mailbox.clear();
                self.queued -= cleared;
                if !dirty {
                    self.ready.clear(rank);
                }
            }
        }
    }

    /// Runs until no mailbox has messages, or `max_steps` rounds elapse.
    /// Returns the total number of messages handled and whether the
    /// system reached quiescence.
    pub fn run_until_quiescent(&mut self, max_steps: usize) -> (u64, bool) {
        let mut total = 0u64;
        for _ in 0..max_steps {
            let handled = self.step();
            if handled == 0 {
                return (total, true);
            }
            total += handled as u64;
        }
        (total, !self.has_pending())
    }

    /// True when any mailbox still has messages. O(1): queued messages
    /// in non-stopped mailboxes are counted as they move.
    pub fn has_pending(&self) -> bool {
        self.queued > 0
    }

    /// The reliable message log.
    pub fn log(&self) -> &MessageLog {
        &self.log
    }

    /// Drops log entries made obsolete by a checkpoint at `seq` (see
    /// [`MessageLog::truncate_through`]). Returns how many entries were
    /// dropped.
    pub fn truncate_log_through(&mut self, seq: u64) -> usize {
        self.log.truncate_through(seq)
    }

    /// Execution statistics.
    pub fn stats(&self) -> SystemStats {
        self.stats
    }

    /// Immutable access to an actor (for inspecting state in tests and
    /// experiments). Returns `None` for unknown ids.
    pub fn actor(&self, id: &ActorId) -> Option<&dyn Actor> {
        self.table
            .lookup(id)
            .map(|s| self.table.slot(s).actor.as_ref())
    }

    /// Mutable access to an actor (checkpoint/restore flows).
    pub fn actor_mut(&mut self, id: &ActorId) -> Option<&mut (dyn Actor + 'static)> {
        self.table
            .lookup(id)
            .map(|s| self.table.slot_mut(s).actor.as_mut())
    }

    /// Ids of all registered (non-stopped) actors, in id order.
    pub fn actor_ids(&self) -> Vec<ActorId> {
        self.table.live_ids()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::ActorError;

    /// Counts messages; replies "ack" to an optional reply-to encoded as
    /// the payload.
    #[derive(Default)]
    struct Counter {
        seen: u64,
    }

    impl Actor for Counter {
        fn on_message(&mut self, _ctx: &mut Ctx, _msg: &Message) -> Result<(), ActorError> {
            self.seen += 1;
            Ok(())
        }

        fn reset(&mut self) {
            self.seen = 0;
        }

        fn snapshot(&self) -> Vec<u8> {
            self.seen.to_be_bytes().to_vec()
        }

        fn restore(&mut self, snapshot: &[u8]) {
            let mut b = [0u8; 8];
            b.copy_from_slice(snapshot);
            self.seen = u64::from_be_bytes(b);
        }
    }

    /// Forwards every message to a fixed next hop.
    struct Forwarder {
        next: ActorId,
    }

    impl Actor for Forwarder {
        fn on_message(&mut self, ctx: &mut Ctx, msg: &Message) -> Result<(), ActorError> {
            ctx.send(self.next.clone(), msg.payload.clone());
            Ok(())
        }
    }

    /// Fails on payloads equal to "poison".
    #[derive(Default)]
    struct Fragile {
        handled: u64,
    }

    impl Actor for Fragile {
        fn on_message(&mut self, _ctx: &mut Ctx, msg: &Message) -> Result<(), ActorError> {
            if msg.payload.as_ref() == b"poison" {
                return Err(ActorError("poisoned".into()));
            }
            self.handled += 1;
            Ok(())
        }

        fn reset(&mut self) {
            self.handled = 0;
        }
    }

    #[test]
    fn delivery_and_stats() {
        let mut sys = System::new();
        sys.spawn(
            "c",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        sys.inject("c", Bytes::from_static(b"1"));
        sys.inject("c", Bytes::from_static(b"2"));
        let (n, quiescent) = sys.run_until_quiescent(100);
        assert_eq!(n, 2);
        assert!(quiescent);
        assert_eq!(sys.stats().delivered, 2);
        assert_eq!(sys.log().len(), 2);
    }

    #[test]
    fn observer_counts_deliveries_and_mailbox_high_water() {
        let mut sys = System::new();
        let obs = Telemetry::enabled();
        sys.set_observer(obs.clone());
        sys.spawn(
            "c",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        sys.inject("c", Bytes::from_static(b"1"));
        sys.inject("c", Bytes::from_static(b"2"));
        sys.inject("c", Bytes::from_static(b"3"));
        sys.inject("nobody", Bytes::from_static(b"x"));
        sys.run_until_quiescent(100);
        assert_eq!(obs.counter("actor.delivered", &Labels::none()), 3);
        assert_eq!(obs.counter("actor.dead_letters", &Labels::none()), 1);
        // Three messages were queued before any was drained.
        assert_eq!(
            obs.gauge("actor.mailbox_depth", &Labels::none())
                .map(|g| g.1),
            Some(3)
        );
    }

    #[test]
    fn gauge_guard_skips_non_high_water_enqueues() {
        // Satellite: the gauge is only touched when depth sets a new
        // high-water candidate; the high-water mark itself must be
        // unchanged from seed semantics (deepest mailbox ever seen).
        let mut sys = System::new();
        let obs = Telemetry::enabled();
        sys.set_observer(obs.clone());
        sys.spawn(
            "c",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        for _ in 0..4 {
            sys.inject("c", Bytes::from_static(b"m"));
        }
        sys.run_until_quiescent(100);
        // Shallower waves afterwards never touch the gauge.
        for _ in 0..3 {
            sys.inject("c", Bytes::from_static(b"m"));
            sys.run_until_quiescent(100);
        }
        assert_eq!(
            obs.gauge("actor.mailbox_depth", &Labels::none()),
            Some((4, 4))
        );
    }

    #[test]
    fn dead_letters_outside_a_step_reach_the_hub_at_once() {
        // No round follows to report them: both injection paths count
        // the dead letter into the hub as it happens.
        let mut sys = System::new();
        let obs = Telemetry::enabled();
        sys.set_observer(obs.clone());
        sys.spawn("f", Box::new(Fragile::default()), SupervisionPolicy::Stop);
        let at = sys.resolve(&ActorId::new("f")).expect("spawned");
        sys.inject("f", Bytes::from_static(b"poison"));
        sys.run_until_quiescent(100);
        sys.inject("ghost", Bytes::from_static(b"x"));
        sys.inject("f", Bytes::from_static(b"ok"));
        sys.inject_at(at, Bytes::from_static(b"ok"));
        assert_eq!(sys.stats().dead_letters, 3);
        assert_eq!(obs.counter("actor.dead_letters", &Labels::none()), 3);
    }

    #[test]
    fn each_step_reports_what_its_stats_gained() {
        // Failures, restarts, retries and dead letters sent from inside
        // a handler reach the hub with their round, each counted once.
        let mut sys = System::new();
        let obs = Telemetry::enabled();
        sys.set_observer(obs.clone());
        sys.spawn(
            "a",
            Box::new(Forwarder {
                next: ActorId::new("ghost"),
            }),
            SupervisionPolicy::Restart,
        );
        sys.spawn(
            "f",
            Box::new(Fragile::default()),
            SupervisionPolicy::RestartAndRetry,
        );
        sys.inject("a", Bytes::from_static(b"x"));
        sys.inject("f", Bytes::from_static(b"poison"));
        sys.inject("f", Bytes::from_static(b"ok"));
        let counters = |obs: &Telemetry| {
            [
                "actor.delivered",
                "actor.failures",
                "actor.restarts",
                "actor.dead_letters",
            ]
            .map(|name| obs.counter(name, &Labels::none()))
        };
        while sys.step() > 0 {
            let s = sys.stats();
            assert_eq!(
                counters(&obs),
                [s.delivered, s.failures, s.restarts, s.dead_letters]
            );
        }
        // The poison message fails twice (delivery and its one retry).
        assert_eq!(counters(&obs), [2, 2, 2, 1]);
    }

    #[test]
    fn untraced_injection_emits_no_spans() {
        let mut sys = System::new();
        let obs = Telemetry::enabled();
        sys.set_observer(obs.clone());
        sys.spawn(
            "c",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        sys.inject("c", Bytes::from_static(b"x"));
        sys.run_until_quiescent(100);
        assert!(obs.snapshot().spans.is_empty());
    }

    #[test]
    fn pipeline_forwards() {
        let mut sys = System::new();
        sys.spawn(
            "a",
            Box::new(Forwarder {
                next: ActorId::new("b"),
            }),
            SupervisionPolicy::Restart,
        );
        sys.spawn(
            "b",
            Box::new(Forwarder {
                next: ActorId::new("c"),
            }),
            SupervisionPolicy::Restart,
        );
        sys.spawn(
            "c",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        sys.inject("a", Bytes::from_static(b"x"));
        let (n, quiescent) = sys.run_until_quiescent(100);
        assert!(quiescent);
        assert_eq!(n, 3, "one hop per actor");
        // The log shows delivery order a -> b -> c.
        let tos: Vec<&str> = sys.log().entries().iter().map(|m| m.to.as_str()).collect();
        assert_eq!(tos, vec!["a", "b", "c"]);
    }

    #[test]
    fn sequences_monotonic() {
        let mut sys = System::new();
        sys.spawn(
            "c",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        for _ in 0..5 {
            sys.inject("c", Bytes::from_static(b"m"));
        }
        sys.run_until_quiescent(100);
        let seqs: Vec<u64> = sys.log().entries().iter().map(|m| m.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn dead_letters_counted() {
        let mut sys = System::new();
        sys.inject("ghost", Bytes::from_static(b"x"));
        assert_eq!(sys.stats().dead_letters, 1);
    }

    #[test]
    fn restart_supervision_resets_state() {
        let mut sys = System::new();
        sys.spawn(
            "f",
            Box::new(Fragile::default()),
            SupervisionPolicy::Restart,
        );
        sys.inject("f", Bytes::from_static(b"ok"));
        sys.inject("f", Bytes::from_static(b"poison"));
        sys.inject("f", Bytes::from_static(b"ok"));
        sys.run_until_quiescent(100);
        assert_eq!(sys.stats().failures, 1);
        assert_eq!(sys.stats().restarts, 1);
        // The poison message is not logged (delivery failed).
        assert_eq!(sys.log().len(), 2);
    }

    #[test]
    fn stop_supervision_removes_actor() {
        let mut sys = System::new();
        sys.spawn("f", Box::new(Fragile::default()), SupervisionPolicy::Stop);
        sys.inject("f", Bytes::from_static(b"poison"));
        sys.run_until_quiescent(100);
        assert_eq!(sys.stats().failures, 1);
        sys.inject("f", Bytes::from_static(b"ok"));
        assert_eq!(sys.stats().dead_letters, 1);
        assert!(sys.actor_ids().is_empty());
    }

    #[test]
    fn respawn_after_stop_revives_actor() {
        // Slot reuse: re-spawning a stopped id must clear the stop flag
        // and deliver again (the seed replaced the whole map entry).
        let mut sys = System::new();
        sys.spawn("f", Box::new(Fragile::default()), SupervisionPolicy::Stop);
        sys.inject("f", Bytes::from_static(b"poison"));
        sys.run_until_quiescent(100);
        assert!(sys.actor_ids().is_empty());
        sys.spawn(
            "f",
            Box::new(Fragile::default()),
            SupervisionPolicy::Restart,
        );
        sys.inject("f", Bytes::from_static(b"ok"));
        let (n, _) = sys.run_until_quiescent(100);
        assert_eq!(n, 1);
        assert_eq!(sys.stats().delivered, 1);
        assert_eq!(sys.actor_ids(), vec![ActorId::new("f")]);
    }

    #[test]
    fn retry_policy_retries_once() {
        /// Fails on the first delivery of each payload, succeeds on retry.
        #[derive(Default)]
        struct FlakyOnce {
            attempts: u64,
        }
        impl Actor for FlakyOnce {
            fn on_message(&mut self, _ctx: &mut Ctx, _msg: &Message) -> Result<(), ActorError> {
                self.attempts += 1;
                if self.attempts % 2 == 1 {
                    Err(ActorError("flaky".into()))
                } else {
                    Ok(())
                }
            }
        }
        let mut sys = System::new();
        sys.spawn(
            "f",
            Box::new(FlakyOnce::default()),
            SupervisionPolicy::RestartAndRetry,
        );
        sys.inject("f", Bytes::from_static(b"x"));
        sys.run_until_quiescent(100);
        assert_eq!(sys.stats().failures, 1);
        assert_eq!(sys.stats().delivered, 1, "retry succeeded");
    }

    #[test]
    fn retry_is_attempted_at_most_once() {
        /// Always fails.
        struct AlwaysFails;
        impl Actor for AlwaysFails {
            fn on_message(&mut self, _ctx: &mut Ctx, _msg: &Message) -> Result<(), ActorError> {
                Err(ActorError("nope".into()))
            }
        }
        let mut sys = System::new();
        sys.spawn(
            "f",
            Box::new(AlwaysFails),
            SupervisionPolicy::RestartAndRetry,
        );
        sys.inject("f", Bytes::from_static(b"x"));
        sys.run_until_quiescent(100);
        // First attempt + exactly one retry, then the message is dropped.
        assert_eq!(sys.stats().failures, 2);
        assert_eq!(sys.stats().restarts, 2);
        assert_eq!(sys.stats().delivered, 0);
        assert!(sys.log().is_empty(), "failed deliveries are never logged");
    }

    #[test]
    fn retried_message_keeps_its_seq() {
        /// Fails on the first delivery of each payload, succeeds on retry.
        #[derive(Default)]
        struct FlakyOnce {
            attempts: u64,
        }
        impl Actor for FlakyOnce {
            fn on_message(&mut self, _ctx: &mut Ctx, _msg: &Message) -> Result<(), ActorError> {
                self.attempts += 1;
                if self.attempts % 2 == 1 {
                    Err(ActorError("flaky".into()))
                } else {
                    Ok(())
                }
            }
        }
        let mut sys = System::new();
        sys.spawn(
            "f",
            Box::new(FlakyOnce::default()),
            SupervisionPolicy::RestartAndRetry,
        );
        sys.inject("f", Bytes::from_static(b"first"));
        sys.inject("f", Bytes::from_static(b"second"));
        sys.run_until_quiescent(100);
        // The retried delivery is the same attempt: it keeps seq 1, and
        // the next message still gets seq 2.
        let seqs: Vec<u64> = sys.log().entries().iter().map(|m| m.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
        assert_eq!(sys.stats().failures, 2);
        assert_eq!(sys.stats().delivered, 2);
    }

    #[test]
    fn replay_suffix_filters_by_actor_and_seq() {
        let mut sys = System::new();
        sys.spawn(
            "a",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        sys.spawn(
            "b",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        sys.inject("a", Bytes::from_static(b"1"));
        sys.inject("b", Bytes::from_static(b"2"));
        sys.inject("a", Bytes::from_static(b"3"));
        sys.run_until_quiescent(100);
        let all_a = sys.log().replay_for(&ActorId::new("a"), 0);
        assert_eq!(all_a.len(), 2);
        let after_first = sys.log().replay_for(&ActorId::new("a"), all_a[0].seq);
        assert_eq!(after_first.len(), 1);
    }

    #[test]
    fn truncate_log_through_bounds_memory() {
        let mut sys = System::new();
        sys.spawn(
            "c",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        for _ in 0..10 {
            sys.inject("c", Bytes::from_static(b"m"));
        }
        sys.run_until_quiescent(100);
        assert_eq!(sys.log().len(), 10);
        assert_eq!(sys.truncate_log_through(7), 7);
        assert_eq!(sys.log().len(), 3);
        assert_eq!(sys.log().truncated(), 7);
        // Replay still sees the retained suffix.
        let tail = sys.log().replay_for(&ActorId::new("c"), 0);
        assert_eq!(
            tail.iter().map(|m| m.seq).collect::<Vec<_>>(),
            vec![8, 9, 10]
        );
        // Sequence numbering continues from where it was.
        sys.inject("c", Bytes::from_static(b"m"));
        sys.run_until_quiescent(100);
        assert_eq!(sys.log().entries().last().unwrap().seq, 11);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut sys = System::new();
        sys.spawn(
            "c",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        for _ in 0..3 {
            sys.inject("c", Bytes::from_static(b"m"));
        }
        sys.run_until_quiescent(100);
        let snap = sys.actor(&ActorId::new("c")).unwrap().snapshot();
        let fresh = &mut Counter::default();
        fresh.restore(&snap);
        assert_eq!(fresh.seen, 3);
    }

    #[test]
    fn non_quiescent_reported() {
        // A two-actor ping-pong never quiesces.
        let mut sys = System::new();
        sys.spawn(
            "a",
            Box::new(Forwarder {
                next: ActorId::new("b"),
            }),
            SupervisionPolicy::Restart,
        );
        sys.spawn(
            "b",
            Box::new(Forwarder {
                next: ActorId::new("a"),
            }),
            SupervisionPolicy::Restart,
        );
        sys.inject("a", Bytes::from_static(b"ball"));
        let (n, quiescent) = sys.run_until_quiescent(10);
        assert!(!quiescent);
        // Each round lets both actors handle one message: a receives the
        // ball and forwards it within the same round, so b also fires.
        assert_eq!(n, 20);
    }

    #[test]
    fn spawns_between_rounds_keep_id_order() {
        // Spawning out of lexicographic order must still schedule in id
        // order once ranks refresh, including actors added after a run.
        let mut sys = System::new();
        sys.spawn(
            "m",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        sys.inject("m", Bytes::from_static(b"1"));
        sys.run_until_quiescent(100);
        sys.spawn(
            "a",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        sys.spawn(
            "z",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        sys.inject("z", Bytes::from_static(b"2"));
        sys.inject("a", Bytes::from_static(b"3"));
        sys.inject("m", Bytes::from_static(b"4"));
        sys.run_until_quiescent(100);
        let tos: Vec<&str> = sys.log().entries().iter().map(|m| m.to.as_str()).collect();
        assert_eq!(tos, vec!["m", "a", "m", "z"], "id order within each round");
    }

    #[test]
    fn sparse_readiness_only_visits_active_ranks() {
        // 1000 idle actors around one busy chain: the round must still
        // deliver correctly (and in order) — the O(active) walk is the
        // point of the ready bitmap.
        let mut sys = System::new();
        for i in 0..1000 {
            sys.spawn(
                format!("idle{i:04}"),
                Box::new(Counter::default()),
                SupervisionPolicy::Restart,
            );
        }
        sys.spawn(
            "zz-head",
            Box::new(Forwarder {
                next: ActorId::new("zz-tail"),
            }),
            SupervisionPolicy::Restart,
        );
        sys.spawn(
            "zz-tail",
            Box::new(Counter::default()),
            SupervisionPolicy::Restart,
        );
        sys.inject("zz-head", Bytes::from_static(b"x"));
        let (n, quiescent) = sys.run_until_quiescent(100);
        assert!(quiescent);
        assert_eq!(n, 2);
        let tos: Vec<&str> = sys.log().entries().iter().map(|m| m.to.as_str()).collect();
        assert_eq!(tos, vec!["zz-head", "zz-tail"]);
    }
}
