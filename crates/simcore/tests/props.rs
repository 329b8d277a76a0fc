//! Property-based tests for the simulation substrate. Each property runs on
//! a fixed number of cases; case `c` draws its inputs from `SimRng::new(c)`,
//! so a failure names the case that reproduces it.

use simcore::stats::{percentile, Cdf, OnlineStats};
use simcore::{EventHandle, EventHeap, EventQueue, SimRng, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

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

/// Cases per property.
const CASES: u64 = 256;

/// A length drawn uniformly from `len`.
fn len_in(rng: &mut SimRng, len: Range<usize>) -> usize {
    len.start + rng.index(len.end - len.start)
}

/// A vector of `len_in(len)` values drawn uniformly from `[lo, hi)`.
fn vec_in(rng: &mut SimRng, len: Range<usize>, lo: f64, hi: f64) -> Vec<f64> {
    let n = len_in(rng, len);
    (0..n).map(|_| rng.range_f64(lo, hi)).collect()
}

#[test]
fn percentile_bounded_by_extremes() {
    for case in 0..CASES {
        let mut rng = SimRng::new(case);
        let mut v = vec_in(&mut rng, 1..200, -1e6, 1e6);
        let p = rng.range_f64(0.0, 100.0);
        let q = percentile(&v, p);
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(q >= v[0] - 1e-9, "case {case}");
        assert!(q <= v[v.len() - 1] + 1e-9, "case {case}");
    }
}

#[test]
fn percentile_monotone_in_p() {
    for case in 0..CASES {
        let mut rng = SimRng::new(case);
        let v = vec_in(&mut rng, 1..100, -1e6, 1e6);
        let p1 = rng.range_f64(0.0, 100.0);
        let p2 = rng.range_f64(0.0, 100.0);
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        assert!(
            percentile(&v, lo) <= percentile(&v, hi) + 1e-9,
            "case {case}"
        );
    }
}

#[test]
fn online_stats_merge_equals_sequential() {
    for case in 0..CASES {
        let mut rng = SimRng::new(case);
        let a = vec_in(&mut rng, 0..100, -1e3, 1e3);
        let b = vec_in(&mut rng, 0..100, -1e3, 1e3);
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
        assert_eq!(left.count(), whole.count(), "case {case}");
        assert!((left.mean() - whole.mean()).abs() < 1e-6, "case {case}");
        assert!(
            (left.variance() - whole.variance()).abs() < 1e-4,
            "case {case}"
        );
    }
}

#[test]
fn cdf_is_monotone_and_normalised() {
    for case in 0..CASES {
        let mut rng = SimRng::new(case);
        let v = vec_in(&mut rng, 1..200, -1e6, 1e6);
        let mut probes = vec_in(&mut rng, 2..20, -1e6, 1e6);
        let cdf = Cdf::new(v);
        probes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for &x in &probes {
            let f = cdf.at(x);
            assert!((0.0..=1.0).contains(&f), "case {case}: F({x}) = {f}");
            assert!(f >= prev - 1e-12, "case {case}: F not monotone at {x}");
            prev = f;
        }
    }
}

#[test]
fn rng_index_always_in_range() {
    for case in 0..CASES {
        let mut rng = SimRng::new(case);
        let seed = rng.next_u64();
        let n = len_in(&mut rng, 1..10_000);
        let mut under_test = SimRng::new(seed);
        for _ in 0..100 {
            assert!(under_test.index(n) < n, "case {case}");
        }
    }
}

#[test]
fn rng_sample_indices_distinct() {
    for case in 0..CASES {
        let mut rng = SimRng::new(case);
        let seed = rng.next_u64();
        let n = len_in(&mut rng, 1..500);
        let k = len_in(&mut rng, 0..500);
        let s = SimRng::new(seed).sample_indices(n, k);
        assert_eq!(s.len(), k.min(n), "case {case}");
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), s.len(), "case {case}");
    }
}

#[test]
fn event_queue_pops_sorted() {
    for case in 0..CASES {
        let mut rng = SimRng::new(case);
        let n = len_in(&mut rng, 1..200);
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(SimTime(rng.next_u64() % 1_000_000), i);
        }
        let mut prev = SimTime::ZERO;
        while let Some((at, _)) = q.pop() {
            assert!(at >= prev, "case {case}");
            prev = at;
        }
    }
}

#[test]
fn simtime_roundtrip() {
    for case in 0..CASES {
        let us = SimRng::new(case).next_u64() % (u64::MAX / 2);
        let t = SimTime::from_micros(us);
        assert_eq!(t.as_micros(), us, "case {case}");
        assert!(
            (t.as_secs() - us as f64 / 1e6).abs() < 1e-9 * (1.0 + us as f64 / 1e6),
            "case {case}"
        );
    }
}
