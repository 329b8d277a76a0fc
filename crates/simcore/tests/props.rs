//! Property-based tests for the simulation substrate.
//!
//! The differential event-queue test drives its own seeded random
//! interleavings and always runs. The `proptest!` suites need the crates.io
//! `proptest` crate, which this offline workspace cannot fetch; they are
//! compiled only when the crate's `proptest` feature is enabled (see
//! Cargo.toml).

use simcore::{EventHandle, EventHeap, EventQueue, SimRng, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The tombstone queue the keyed queue replaced: re-timing an event pushes a
/// fresh `(at, seq)` entry and bumps the event's token, so the old entry
/// stays in the heap until it is popped and skipped as stale.
struct TombstoneModel {
    heap: BinaryHeap<Reverse<(u64, u64, u32, u64)>>,
    tokens: Vec<u64>,
    live: Vec<bool>,
}

impl TombstoneModel {
    fn push(&mut self, at: u64, seq: u64, id: u32) {
        let i = id as usize;
        self.tokens[i] += 1;
        self.live[i] = true;
        self.heap.push(Reverse((at, seq, id, self.tokens[i])));
    }

    fn cancel(&mut self, id: u32) {
        self.tokens[id as usize] += 1;
        self.live[id as usize] = false;
    }

    fn pop_live(&mut self) -> Option<(u64, u64, u32)> {
        while let Some(Reverse((at, seq, id, token))) = self.heap.pop() {
            if self.tokens[id as usize] == token {
                self.live[id as usize] = false;
                return Some((at, seq, id));
            }
        }
        None
    }

    fn live_count(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }
}

/// Random schedule/update/remove/pop interleavings over a small id space
/// (so ids are re-scheduled, re-timed and cancelled many times, and equal
/// timestamps are common): the keyed [`EventHeap`] and [`EventQueue`] pop
/// exactly the live entries of the tombstone model, in the same
/// `(at, seq, payload)` order, and their length is the live count.
#[test]
fn keyed_queue_pops_the_live_sequence_of_the_tombstone_queue() {
    const IDS: usize = 64;
    for seed in 0..20u64 {
        let mut rng = SimRng::new(seed);
        let mut model = TombstoneModel {
            heap: BinaryHeap::new(),
            tokens: vec![0; IDS],
            live: vec![false; IDS],
        };
        let mut heap: EventHeap<u32> = EventHeap::new();
        let mut queue: EventQueue<u32> = EventQueue::new();
        let mut heap_handles: Vec<Option<EventHandle>> = vec![None; IDS];
        let mut queue_handles: Vec<Option<EventHandle>> = vec![None; IDS];
        let mut seq = 0u64;
        let mut now = 0u64;
        for _ in 0..4_000 {
            let id = rng.index(IDS);
            let at = now + rng.next_u64() % 40;
            let roll = rng.f64();
            if roll < 0.55 {
                // Schedule, or re-time in place if `id` is already pending.
                model.push(at, seq, id as u32);
                match heap_handles[id] {
                    Some(h) => heap.update(h, SimTime(at), seq),
                    None => heap_handles[id] = Some(heap.push(SimTime(at), seq, id as u32)),
                }
                match queue_handles[id] {
                    Some(h) => queue.reschedule(h, SimTime(at)),
                    None => queue_handles[id] = Some(queue.schedule(SimTime(at), id as u32)),
                }
                seq += 1;
            } else if roll < 0.7 {
                if let (Some(hh), Some(qh)) = (heap_handles[id].take(), queue_handles[id].take()) {
                    model.cancel(id as u32);
                    assert_eq!(heap.remove(hh), id as u32);
                    assert_eq!(queue.cancel(qh), id as u32);
                }
            } else {
                let want = model.pop_live();
                let got = heap.pop().map(|(t, s, p)| (t.0, s, p));
                assert_eq!(got, want, "seed {seed}: heap pop diverged");
                let got_q = queue.pop().map(|(t, p)| (t.0, p));
                assert_eq!(
                    got_q,
                    want.map(|(t, _, p)| (t, p)),
                    "seed {seed}: queue pop diverged"
                );
                if let Some((t, _, p)) = want {
                    now = t;
                    heap_handles[p as usize] = None;
                    queue_handles[p as usize] = None;
                }
            }
            assert_eq!(heap.len(), model.live_count(), "seed {seed}: heap len");
            assert_eq!(queue.len(), model.live_count(), "seed {seed}: queue len");
        }
        while let Some(want) = model.pop_live() {
            assert_eq!(heap.pop().map(|(t, s, p)| (t.0, s, p)), Some(want));
            assert_eq!(queue.pop().map(|(t, p)| (t.0, p)), Some((want.0, want.2)));
        }
        assert!(heap.is_empty() && queue.is_empty());
    }
}

#[cfg(feature = "proptest")]
mod proptests {
    use proptest::prelude::*;
    use simcore::stats::{percentile, Cdf, OnlineStats};
    use simcore::{EventQueue, SimRng, SimTime};

    proptest! {
        #[test]
        fn percentile_bounded_by_extremes(
            mut v in prop::collection::vec(-1e6f64..1e6, 1..200),
            p in 0.0f64..100.0,
        ) {
            let q = percentile(&v, p);
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assert!(q >= v[0] - 1e-9);
            prop_assert!(q <= v[v.len() - 1] + 1e-9);
        }

        #[test]
        fn percentile_monotone_in_p(
            v in prop::collection::vec(-1e6f64..1e6, 1..100),
            p1 in 0.0f64..100.0,
            p2 in 0.0f64..100.0,
        ) {
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(percentile(&v, lo) <= percentile(&v, hi) + 1e-9);
        }

        #[test]
        fn online_stats_merge_equals_sequential(
            a in prop::collection::vec(-1e3f64..1e3, 0..100),
            b in prop::collection::vec(-1e3f64..1e3, 0..100),
        ) {
            let mut whole = OnlineStats::new();
            for &x in a.iter().chain(&b) {
                whole.push(x);
            }
            let mut left = OnlineStats::new();
            for &x in &a {
                left.push(x);
            }
            let mut right = OnlineStats::new();
            for &x in &b {
                right.push(x);
            }
            left.merge(&right);
            prop_assert_eq!(left.count(), whole.count());
            prop_assert!((left.mean() - whole.mean()).abs() < 1e-6);
            prop_assert!((left.variance() - whole.variance()).abs() < 1e-4);
        }

        #[test]
        fn cdf_is_monotone_and_normalised(
            v in prop::collection::vec(-1e6f64..1e6, 1..200),
            probes in prop::collection::vec(-1e6f64..1e6, 2..20),
        ) {
            let cdf = Cdf::new(v);
            let mut sorted = probes.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut prev = 0.0;
            for &x in &sorted {
                let f = cdf.at(x);
                prop_assert!((0.0..=1.0).contains(&f));
                prop_assert!(f >= prev - 1e-12);
                prev = f;
            }
        }

        #[test]
        fn rng_index_always_in_range(seed in any::<u64>(), n in 1usize..10_000) {
            let mut rng = SimRng::new(seed);
            for _ in 0..100 {
                prop_assert!(rng.index(n) < n);
            }
        }

        #[test]
        fn rng_sample_indices_distinct(seed in any::<u64>(), n in 1usize..500, k in 0usize..500) {
            let mut rng = SimRng::new(seed);
            let s = rng.sample_indices(n, k);
            prop_assert_eq!(s.len(), k.min(n));
            let mut d = s.clone();
            d.sort_unstable();
            d.dedup();
            prop_assert_eq!(d.len(), s.len());
        }

        #[test]
        fn event_queue_pops_sorted(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime(t), i);
            }
            let mut prev = SimTime::ZERO;
            while let Some((at, _)) = q.pop() {
                prop_assert!(at >= prev);
                prev = at;
            }
        }

        #[test]
        fn simtime_roundtrip(us in 0u64..u64::MAX / 2) {
            let t = SimTime::from_micros(us);
            prop_assert_eq!(t.as_micros(), us);
            prop_assert!((t.as_secs() - us as f64 / 1e6).abs() < 1e-9 * (1.0 + us as f64 / 1e6));
        }
    }
}
