//! Arena-backed, addressable 4-ary index min-heap for event storage.
//!
//! The engine's event queue orders *large* payloads (an engine event is tens
//! of bytes) by a *small* totally-ordered key `(at, seq)`, and it needs to
//! move or cancel an event it already scheduled: a task's completion is
//! re-timed every time contention on its server changes. [`EventHeap`]
//! splits the concerns:
//!
//! * a **slab** (`slots` + free list) stores each payload exactly once — a
//!   payload is written at push, read at pop or remove, and never moved in
//!   between;
//! * a **4-ary index heap** (`keys`) orders 24-byte `(at, seq, slot)`
//!   entries. Four-way branching halves the tree depth of a binary heap,
//!   and the four children of a node share one or two cache lines, so a
//!   sift touches about half as many lines for the same comparison count;
//! * a **position index** (`pos`) maps each slot to its entry in `keys`, so
//!   [`EventHeap::update`] and [`EventHeap::remove`] find an event in O(1)
//!   and re-sift it in O(log n) — no tombstone is ever left behind.
//!
//! Pop order is exactly `BinaryHeap`'s min order on `(at, seq)`: the key is
//! unique (`seq` is unique per queue), so the heap arity and the slab layout
//! cannot change which entry is the minimum.

use crate::SimTime;

/// Heap key: timestamp, sequence number, and the slab slot of the payload.
/// Ordered by `(at, seq)`; `seq` uniqueness means the slot index never
/// participates in an ordering decision.
type Key = (SimTime, u64, u32);

/// Children per node. Four keeps sift-down comparisons per level cheap
/// (three extra compares against one swap) while halving tree depth.
const ARITY: usize = 4;

/// `pos` value of a free slot.
const FREE: u32 = u32::MAX;

/// Handle to one pending event of an [`EventHeap`], returned by
/// [`EventHeap::push`]. It stays valid until the event is popped or removed;
/// the slot generation makes any later use of it panic instead of touching
/// whichever event reused the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventHandle {
    slot: u32,
    gen: u32,
}

/// Min-heap of `(at, seq)`-keyed events whose payloads live in a slab and
/// never move after insertion; pending events can be re-keyed or removed
/// through their [`EventHandle`].
pub struct EventHeap<E> {
    /// The index heap, in implicit d-ary layout.
    keys: Vec<Key>,
    /// Payload slab; `None` marks a free slot awaiting reuse.
    slots: Vec<Option<E>>,
    /// Per slot: index of its entry in `keys`, or [`FREE`].
    pos: Vec<u32>,
    /// Per slot: generation, bumped each time the slot is freed.
    gens: Vec<u32>,
    /// Free slots, reused LIFO so hot slots stay cache-resident.
    free: Vec<u32>,
}

impl<E> Default for EventHeap<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventHeap<E> {
    /// Empty heap.
    pub fn new() -> Self {
        Self {
            keys: Vec::new(),
            slots: Vec::new(),
            pos: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The minimum `(at, seq)` key, without popping.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.keys.first().map(|&(at, seq, _)| (at, seq))
    }

    /// Whether `h` still names a pending event.
    fn contains(&self, h: EventHandle) -> bool {
        let s = h.slot as usize;
        s < self.pos.len() && self.pos[s] != FREE && self.gens[s] == h.gen
    }

    /// Insert an event. The payload is written into its slab slot once; only
    /// the 24-byte key moves during the sift.
    pub fn push(&mut self, at: SimTime, seq: u64, event: E) -> EventHandle {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(event);
                s
            }
            None => {
                let s = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&s| s != FREE)
                    .expect("event arena overflow");
                self.slots.push(Some(event));
                self.pos.push(FREE);
                self.gens.push(0);
                s
            }
        };
        self.keys.push((at, seq, slot));
        self.sift_up(self.keys.len() - 1);
        EventHandle {
            slot,
            gen: self.gens[slot as usize],
        }
    }

    /// Re-key a pending event in place. Panics if `h` is no longer pending.
    pub fn update(&mut self, h: EventHandle, at: SimTime, seq: u64) {
        let i = self.position(h);
        let old = self.keys[i];
        self.keys[i] = (at, seq, h.slot);
        if key_lt(self.keys[i], old) {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    /// Remove a pending event, returning its payload. Panics if `h` is no
    /// longer pending.
    pub fn remove(&mut self, h: EventHandle) -> E {
        let i = self.position(h);
        let last = self.keys.pop().expect("pending event implies a key");
        if i < self.keys.len() {
            let removed = self.keys[i];
            self.keys[i] = last;
            if key_lt(last, removed) {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
        self.release(h.slot)
    }

    /// Pop the minimum-keyed event.
    pub fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        let &(at, seq, slot) = self.keys.first()?;
        let last = self.keys.pop().expect("non-empty heap has a last key");
        if !self.keys.is_empty() {
            self.keys[0] = last;
            self.sift_down(0);
        }
        Some((at, seq, self.release(slot)))
    }

    /// Move every event out in arbitrary order (used to hand a whole heap
    /// to a worker mailbox, which re-keys on absorb). Every handle into the
    /// heap goes stale; the allocations are kept for reuse.
    pub fn drain_unordered(&mut self, out: &mut Vec<(SimTime, u64, E)>) {
        out.reserve(self.keys.len());
        let keys = std::mem::take(&mut self.keys);
        for &(at, seq, slot) in &keys {
            out.push((at, seq, self.release(slot)));
        }
        self.keys = keys;
        self.keys.clear();
    }

    /// Index of `h`'s entry in `keys`, asserting the handle is current.
    fn position(&self, h: EventHandle) -> usize {
        assert!(self.contains(h), "stale event handle {h:?}");
        self.pos[h.slot as usize] as usize
    }

    /// Free a slot whose key has already left `keys`, returning its payload.
    fn release(&mut self, slot: u32) -> E {
        let s = slot as usize;
        self.pos[s] = FREE;
        self.gens[s] = self.gens[s].wrapping_add(1);
        self.free.push(slot);
        self.slots[s]
            .take()
            .expect("heap key pointed at a live slot")
    }

    /// Write `key` at heap index `i` and record the slot's new position.
    #[inline]
    fn place(&mut self, i: usize, key: Key) {
        self.keys[i] = key;
        self.pos[key.2 as usize] = i as u32;
    }

    fn sift_up(&mut self, mut i: usize) {
        let key = self.keys[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if key_lt(key, self.keys[parent]) {
                self.place(i, self.keys[parent]);
                i = parent;
            } else {
                break;
            }
        }
        self.place(i, key);
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.keys.len();
        let key = self.keys[i];
        loop {
            let first = ARITY * i + 1;
            if first >= len {
                break;
            }
            let mut best = first;
            for c in (first + 1)..(first + ARITY).min(len) {
                if key_lt(self.keys[c], self.keys[best]) {
                    best = c;
                }
            }
            if key_lt(self.keys[best], key) {
                self.place(i, self.keys[best]);
                i = best;
            } else {
                break;
            }
        }
        self.place(i, key);
    }
}

/// Strict `(at, seq)` order; the slot component is deliberately excluded so
/// slab reuse can never influence heap order (it could not anyway — `seq`
/// is unique — but excluding it makes that structural, not incidental).
#[inline]
fn key_lt(a: Key, b: Key) -> bool {
    (a.0, a.1) < (b.0, b.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_key_order_with_fifo_ties() {
        let mut h = EventHeap::new();
        h.push(SimTime(30), 0, "c");
        h.push(SimTime(10), 1, "a");
        h.push(SimTime(10), 2, "a2");
        h.push(SimTime(20), 3, "b");
        assert_eq!(h.peek_key(), Some((SimTime(10), 1)));
        assert_eq!(h.pop(), Some((SimTime(10), 1, "a")));
        assert_eq!(h.pop(), Some((SimTime(10), 2, "a2")));
        assert_eq!(h.pop(), Some((SimTime(20), 3, "b")));
        assert_eq!(h.pop(), Some((SimTime(30), 0, "c")));
        assert_eq!(h.pop(), None);
        assert!(h.is_empty());
    }

    #[test]
    fn matches_binary_heap_under_random_interleaved_ops() {
        // Differential test: random push/pop interleavings must pop the
        // exact sequence a std BinaryHeap (min on (at, seq)) pops.
        let mut rng = SimRng::new(7);
        let mut h = EventHeap::new();
        let mut model: BinaryHeap<std::cmp::Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        for _ in 0..5_000 {
            if model.is_empty() || rng.f64() < 0.6 {
                let at = rng.next_u64() % 1_000;
                h.push(SimTime(at), seq, seq * 3);
                model.push(std::cmp::Reverse((at, seq)));
                seq += 1;
            } else {
                let got = h.pop().expect("model non-empty");
                let std::cmp::Reverse((at, s)) = model.pop().expect("non-empty");
                assert_eq!((got.0, got.1, got.2), (SimTime(at), s, s * 3));
            }
            assert_eq!(h.len(), model.len());
        }
        while let Some(std::cmp::Reverse((at, s))) = model.pop() {
            assert_eq!(h.pop(), Some((SimTime(at), s, s * 3)));
        }
        assert!(h.pop().is_none());
    }

    #[test]
    fn slab_slots_are_reused_not_grown() {
        let mut h = EventHeap::new();
        for round in 0..100u64 {
            for i in 0..8 {
                h.push(SimTime(round * 10 + i), round * 8 + i, i);
            }
            for _ in 0..8 {
                h.pop();
            }
        }
        assert!(
            h.slots.len() <= 8,
            "slab grew to {} slots for a working set of 8",
            h.slots.len()
        );
    }

    #[test]
    fn update_and_remove_keep_the_heap_ordered() {
        let mut h = EventHeap::new();
        let a = h.push(SimTime(10), 0, "a");
        let b = h.push(SimTime(20), 1, "b");
        let c = h.push(SimTime(30), 2, "c");
        h.update(c, SimTime(5), 3); // earlier: sifts up to the root
        h.update(a, SimTime(40), 4); // later: sifts down
        assert_eq!(h.remove(b), "b");
        assert_eq!(h.len(), 2);
        assert!(!h.contains(b));
        assert_eq!(h.pop(), Some((SimTime(5), 3, "c")));
        assert_eq!(h.pop(), Some((SimTime(40), 4, "a")));
        assert!(h.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "stale event handle")]
    fn handle_of_a_popped_event_is_rejected_after_slot_reuse() {
        let mut h = EventHeap::new();
        let old = h.push(SimTime(1), 0, 'x');
        h.pop();
        let _reused = h.push(SimTime(2), 1, 'y'); // same slot, new generation
        h.update(old, SimTime(3), 2);
    }

    #[test]
    fn drain_unordered_moves_everything_out() {
        let mut h = EventHeap::new();
        for i in 0..50u64 {
            h.push(SimTime(i * 17 % 13), i, i);
        }
        let mut out = Vec::new();
        h.drain_unordered(&mut out);
        assert!(h.is_empty());
        assert_eq!(out.len(), 50);
        let mut seqs: Vec<u64> = out.iter().map(|&(_, s, _)| s).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..50).collect::<Vec<_>>());
    }
}
