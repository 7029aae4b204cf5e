//! The actor abstraction: one module, message-driven, no shared state.

use bytes::Bytes;
use std::fmt;
use std::sync::Arc;

/// Identifier of an actor (module instance) within a system.
///
/// Backed by a refcounted `Arc<String>` so the id travels through
/// messages, logs, and checkpoints as a pointer bump instead of a heap
/// copy — the hot delivery path clones ids once per outbox message. The
/// thin (one-word) pointer keeps [`Message`] a single cache line;
/// string content is only dereferenced at the by-id edges (spawn,
/// lookup, ordering), never on the per-message path. Ordering,
/// equality, and hashing all go by string content, so a rebuilt id
/// compares equal to an interned one.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(Arc<String>);

impl ActorId {
    /// Creates an id from any string-like value.
    pub fn new(s: impl Into<String>) -> Self {
        Self(Arc::new(s.into()))
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ActorId {
    fn from(s: &str) -> Self {
        ActorId::new(s)
    }
}

impl From<String> for ActorId {
    fn from(s: String) -> Self {
        ActorId::new(s)
    }
}

/// A message between actors. Payloads are opaque bytes: actors serialize
/// their own protocols (no shared state, per §3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sender (None for external injections).
    pub from: Option<ActorId>,
    /// Recipient.
    pub to: ActorId,
    /// Opaque payload.
    pub payload: Bytes,
    /// Delivery sequence number, assigned by the system at delivery
    /// time; 0 before delivery.
    pub seq: u64,
}

impl Message {
    /// Builds an external message (no sender).
    pub fn external(to: impl Into<ActorId>, payload: impl Into<Bytes>) -> Self {
        Self {
            from: None,
            to: to.into(),
            payload: payload.into(),
            seq: 0,
        }
    }
}

/// An error raised by an actor's handler; triggers supervision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActorError(pub String);

impl fmt::Display for ActorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor error: {}", self.0)
    }
}

impl std::error::Error for ActorError {}

/// Context handed to an actor while handling one message.
///
/// Collects outgoing messages; the system delivers them after the
/// handler returns (no re-entrancy, deterministic ordering).
#[derive(Debug, Default)]
pub struct Ctx {
    /// Messages queued by the current handler invocation.
    pub(crate) outbox: Vec<(ActorId, Bytes)>,
}

impl Ctx {
    /// Queues a message to another actor.
    pub fn send(&mut self, to: impl Into<ActorId>, payload: impl Into<Bytes>) {
        self.outbox.push((to.into(), payload.into()));
    }

    /// Number of messages queued so far in this invocation.
    pub fn pending(&self) -> usize {
        self.outbox.len()
    }
}

/// The behaviour of one module.
pub trait Actor {
    /// Handles one message. Errors trigger the supervision policy.
    fn on_message(&mut self, ctx: &mut Ctx, msg: &Message) -> Result<(), ActorError>;

    /// Resets the actor to its initial state (used by restart
    /// supervision and replay recovery). Default: no-op, for stateless
    /// actors.
    fn reset(&mut self) {}

    /// Serializes the actor's state for checkpointing. Default: empty
    /// (stateless). `udc-dist` layers checkpoint/restore on this.
    fn snapshot(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state from a checkpoint produced by [`Actor::snapshot`].
    fn restore(&mut self, _snapshot: &[u8]) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_collects_sends_in_order() {
        let mut ctx = Ctx::default();
        ctx.send(ActorId::new("a"), Bytes::from_static(b"1"));
        ctx.send(ActorId::new("b"), Bytes::from_static(b"2"));
        assert_eq!(ctx.pending(), 2);
        assert_eq!(ctx.outbox[0].0.as_str(), "a");
        assert_eq!(ctx.outbox[1].0.as_str(), "b");
    }

    #[test]
    fn external_message_has_no_sender() {
        let m = Message::external(ActorId::new("x"), Bytes::from_static(b"hi"));
        assert!(m.from.is_none());
        assert_eq!(m.seq, 0);
    }

    #[test]
    fn actor_id_display() {
        assert_eq!(ActorId::new("A1").to_string(), "A1");
    }

    #[test]
    fn actor_id_clone_is_cheap_and_content_ordered() {
        let a = ActorId::new("alpha");
        let b = a.clone();
        assert_eq!(a, b);
        // Content ordering, independent of allocation identity.
        assert!(ActorId::new("a") < ActorId::new("b"));
        assert_eq!(ActorId::new("alpha"), a);
    }
}
