//! The interned actor slab under [`crate::system::System`]: dense `u32`
//! slots behind an FNV-hashed id index, plus the id-order *rank*
//! assignment that scheduling walks.

use crate::actor::{Actor, ActorId, Message};
use crate::supervise::SupervisionPolicy;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a: ids are short strings, so a multiply-per-byte hash beats
/// SipHash by a wide margin on the per-enqueue index probe. The map is
/// only mutated single-threaded and keys are trusted (no DoS surface).
#[derive(Default)]
pub(crate) struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.0 = h;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// One interned actor: the slab record behind a dense `u32` slot.
pub(crate) struct Slot {
    pub id: ActorId,
    pub actor: Box<dyn Actor>,
    pub mailbox: VecDeque<Message>,
    pub policy: SupervisionPolicy,
    pub stopped: bool,
    /// Position in id order; the scheduling key. Recomputed lazily
    /// after a spawn of a new id.
    pub rank: u32,
}

/// What a spawn did to the slab, so the executor can fix up its own
/// readiness/queue bookkeeping (which lives outside the slab).
pub(crate) enum SpawnEffect {
    /// A brand-new id was interned; ranks are now dirty.
    Fresh,
    /// An existing id was replaced in place: the mailbox was cleared
    /// (`cleared` messages dropped) and the slot's rank is unchanged.
    Reused { cleared: usize, rank: u32 },
}

/// The interned slot table: id index, slot slab, and rank order.
///
/// Deliberately bookkeeping-free: it does not track readiness or queued
/// counts — [`crate::system::System`] layers its ready bitmap over the
/// rank space this table defines.
#[derive(Default)]
pub(crate) struct SlotTable {
    /// Id → slot. Touched at spawn/enqueue, never per scheduler round.
    index: FnvMap<ActorId, u32>,
    slots: Vec<Slot>,
    /// Rank → slot, in id order. Rebuilt lazily when `ranks_dirty`.
    order: Vec<u32>,
    /// Set when a new id was spawned since the last rank refresh.
    ranks_dirty: bool,
}

impl SlotTable {
    /// Registers an actor under `id`, replacing any existing
    /// registration with the same id (the seed's map-insert semantics).
    pub fn spawn(
        &mut self,
        id: ActorId,
        actor: Box<dyn Actor>,
        policy: SupervisionPolicy,
    ) -> SpawnEffect {
        match self.index.get(&id) {
            Some(&slot) => {
                // Same id: reuse the slot (rank order is unchanged),
                // with a fresh mailbox and cleared stop flag.
                let s = &mut self.slots[slot as usize];
                let cleared = s.mailbox.len();
                s.actor = actor;
                s.mailbox.clear();
                s.policy = policy;
                s.stopped = false;
                SpawnEffect::Reused {
                    cleared,
                    rank: s.rank,
                }
            }
            None => {
                let slot = self.slots.len() as u32;
                self.index.insert(id.clone(), slot);
                self.slots.push(Slot {
                    id,
                    actor,
                    mailbox: VecDeque::new(),
                    policy,
                    stopped: false,
                    rank: 0,
                });
                self.ranks_dirty = true;
                SpawnEffect::Fresh
            }
        }
    }

    /// Dense slot of `id`, if it was ever spawned.
    pub fn lookup(&self, id: &ActorId) -> Option<u32> {
        self.index.get(id).copied()
    }

    /// Number of interned slots (spawned ids, including stopped ones).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when a new id was spawned since the last rank refresh.
    pub fn ranks_dirty(&self) -> bool {
        self.ranks_dirty
    }

    pub fn slot(&self, slot: u32) -> &Slot {
        &self.slots[slot as usize]
    }

    pub fn slot_mut(&mut self, slot: u32) -> &mut Slot {
        &mut self.slots[slot as usize]
    }

    /// Slot interned at `rank` (panics if ranks are dirty — refresh
    /// first).
    pub fn slot_of_rank(&self, rank: u32) -> u32 {
        debug_assert!(!self.ranks_dirty, "rank lookup with dirty ranks");
        self.order[rank as usize]
    }

    /// Rebuilds rank order after new spawns; runs at most once per
    /// batch of spawns, not per round. Calls `on_ready(rank)` for every
    /// rank whose mailbox has pending mail (and is not stopped), so the
    /// caller can rebuild its readiness structure in the same pass.
    /// Returns true when a refresh actually happened.
    pub fn refresh_ranks(&mut self, mut on_ready: impl FnMut(u32)) -> bool {
        if !self.ranks_dirty {
            return false;
        }
        self.order.clear();
        self.order.extend(0..self.slots.len() as u32);
        let slots = &self.slots;
        self.order
            .sort_unstable_by(|&a, &b| slots[a as usize].id.cmp(&slots[b as usize].id));
        for (rank, &slot) in self.order.iter().enumerate() {
            self.slots[slot as usize].rank = rank as u32;
        }
        for (rank, &slot) in self.order.iter().enumerate() {
            let s = &self.slots[slot as usize];
            if !s.stopped && !s.mailbox.is_empty() {
                on_ready(rank as u32);
            }
        }
        self.ranks_dirty = false;
        true
    }

    /// Ids of all registered (non-stopped) actors, in id order.
    pub fn live_ids(&self) -> Vec<ActorId> {
        let mut ids: Vec<ActorId> = self
            .slots
            .iter()
            .filter(|s| !s.stopped)
            .map(|s| s.id.clone())
            .collect();
        ids.sort_unstable();
        ids
    }
}
