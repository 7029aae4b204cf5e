//! Actors and generators shared by the executor's test programs.

// Each test binary uses its own subset.
#![allow(dead_code)]

use udc_actor::{Actor, ActorError, ActorId, Ctx, Message, SupervisionPolicy};

/// Actor ids the programs address: `m0` … `m7`.
pub const SLOTS: u8 = 8;

pub fn id_for(slot: u8) -> ActorId {
    ActorId::new(format!("m{}", slot % SLOTS))
}

/// Counts deliveries; snapshot exposes the count.
#[derive(Default)]
pub struct Sink {
    seen: u64,
}

impl Actor for Sink {
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
}

/// Forwards every payload to a fixed next hop.
struct Forwarder {
    next: ActorId,
}

impl Actor for Forwarder {
    fn on_message(&mut self, ctx: &mut Ctx, msg: &Message) -> Result<(), ActorError> {
        ctx.send(self.next.clone(), msg.payload.clone());
        Ok(())
    }
}

/// Sends to two targets per delivery (message amplification).
struct FanOut {
    left: ActorId,
    right: ActorId,
}

impl Actor for FanOut {
    fn on_message(&mut self, ctx: &mut Ctx, msg: &Message) -> Result<(), ActorError> {
        ctx.send(self.left.clone(), msg.payload.clone());
        ctx.send(self.right.clone(), msg.payload.clone());
        Ok(())
    }
}

/// Fails deterministically by attempt count (attempt 1, 4, 7, … fail),
/// so a failed first attempt succeeds on retry under RestartAndRetry.
/// The attempt counter deliberately survives `reset()` — it scripts the
/// failure pattern; `seen` is the state supervision wipes.
#[derive(Default)]
pub struct Flaky {
    attempts: u64,
    seen: u64,
}

impl Actor for Flaky {
    fn on_message(&mut self, _ctx: &mut Ctx, _msg: &Message) -> Result<(), ActorError> {
        self.attempts += 1;
        if self.attempts % 3 == 1 {
            return Err(ActorError("scripted failure".into()));
        }
        self.seen += 1;
        Ok(())
    }

    fn reset(&mut self) {
        self.seen = 0;
    }

    fn snapshot(&self) -> Vec<u8> {
        self.seen.to_be_bytes().to_vec()
    }
}

/// The payload for the next hop: TTL (byte 0) decremented, or `None`
/// when the cascade has run out.
fn next_hop(msg: &Message) -> Option<Vec<u8>> {
    let ttl = *msg.payload.first()?;
    let mut body = msg.payload.to_vec();
    body[0] = ttl.checked_sub(1)?;
    Some(body)
}

/// Forwards with a decremented TTL; the cascade dies at TTL 0.
struct TtlForwarder {
    next: ActorId,
}

impl Actor for TtlForwarder {
    fn on_message(&mut self, ctx: &mut Ctx, msg: &Message) -> Result<(), ActorError> {
        if let Some(body) = next_hop(msg) {
            ctx.send(self.next.clone(), body);
        }
        Ok(())
    }
}

/// Amplifies ×2 per hop with a decremented TTL, so amplification is
/// bounded by 2^TTL.
struct TtlFanOut {
    left: ActorId,
    right: ActorId,
}

impl Actor for TtlFanOut {
    fn on_message(&mut self, ctx: &mut Ctx, msg: &Message) -> Result<(), ActorError> {
        if let Some(body) = next_hop(msg) {
            ctx.send(self.left.clone(), body.clone());
            ctx.send(self.right.clone(), body);
        }
        Ok(())
    }
}

/// One behaviour instance at `slot`: a sink, a forwarder, a ×2 fan-out
/// or a flaky actor. Forwarders and fan-outs cascade without end.
pub fn behavior(kind: u8, slot: u8) -> Box<dyn Actor> {
    match kind % 4 {
        0 => Box::new(Sink::default()),
        1 => Box::new(Forwarder {
            next: id_for(slot.wrapping_add(1 + kind / 4)),
        }),
        2 => Box::new(FanOut {
            left: id_for(slot.wrapping_add(1)),
            right: id_for(slot.wrapping_add(3)),
        }),
        _ => Box::new(Flaky::default()),
    }
}

/// [`behavior`] with the unbounded forwarders swapped for TTL ones, so
/// every cascade is finite.
pub fn ttl_behavior(kind: u8, slot: u8) -> Box<dyn Actor> {
    match kind % 4 {
        1 => Box::new(TtlForwarder {
            next: id_for(slot.wrapping_add(1 + kind / 4)),
        }),
        2 => Box::new(TtlFanOut {
            left: id_for(slot.wrapping_add(1)),
            right: id_for(slot.wrapping_add(3)),
        }),
        _ => behavior(kind, slot),
    }
}

/// Any of the three policies.
pub fn policy(p: u8) -> SupervisionPolicy {
    match p % 3 {
        0 => SupervisionPolicy::Restart,
        1 => SupervisionPolicy::RestartAndRetry,
        _ => SupervisionPolicy::Stop,
    }
}

/// A policy under which no actor ever stops.
pub fn restarting_policy(p: u8) -> SupervisionPolicy {
    if p.is_multiple_of(2) {
        SupervisionPolicy::Restart
    } else {
        SupervisionPolicy::RestartAndRetry
    }
}
