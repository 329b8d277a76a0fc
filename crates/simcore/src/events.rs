//! Discrete-event simulation primitives: a microsecond-resolution clock and
//! the one event queue, [`EventQueue`]. It pops in stable `(time, seq)`
//! order (FIFO among events due at the same instant), and its pending
//! events can be re-timed or cancelled in place through their handles.
//!
//! Simulation time is an integer number of microseconds. Integer time makes
//! event ordering exact and platform-independent, which matters because the
//! reproduction promises bit-for-bit repeatable experiments.

use crate::arena::{EventHandle, EventHeap};

/// A point in simulated time, in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole seconds.
    pub fn from_secs(s: f64) -> SimTime {
        debug_assert!(s >= 0.0, "negative sim time");
        SimTime((s * 1e6).round() as u64)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: f64) -> SimTime {
        debug_assert!(ms >= 0.0, "negative sim time");
        SimTime((ms * 1e3).round() as u64)
    }

    /// Construct from microseconds.
    pub fn from_micros(us: u64) -> SimTime {
        SimTime(us)
    }

    /// Value in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Value in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Value in microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Saturating difference (`self - earlier`), clamped at zero.
    pub fn since(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }

    /// Add a duration.
    pub fn plus(self, d: SimTime) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}s", self.as_secs())
    }
}

/// Priority queue of timestamped events with stable FIFO tie-breaking.
///
/// Every [`EventQueue::schedule`] and [`EventQueue::reschedule`] draws the
/// next value of one sequence counter, and events pop in `(at, seq)` order:
/// events due at the same instant pop in the order they were last
/// (re)scheduled. A re-timed event is therefore indistinguishable from a
/// fresh one scheduled at the same point of the run, and a cancelled one
/// leaves nothing behind.
pub struct EventQueue<E> {
    heap: EventHeap<E>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue at time zero.
    pub fn new() -> Self {
        Self {
            heap: EventHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Draw the next sequence number for an event due at `at`.
    ///
    /// Panics if `at` is in the past — scheduling backwards in time is
    /// always a logic error in a discrete-event simulation.
    fn next_seq(&mut self, at: SimTime) -> u64 {
        assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < now {:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Schedule `event` at absolute time `at`. The handle stays valid until
    /// the event is popped or cancelled.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventHandle {
        let seq = self.next_seq(at);
        self.heap.push(at, seq, event)
    }

    /// Schedule `event` after a delay relative to the current time.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) -> EventHandle {
        self.schedule(self.now.plus(delay), event)
    }

    /// Move a pending event to `at`, drawing a fresh sequence number exactly
    /// as [`EventQueue::schedule`] would. Panics if `h` is no longer pending.
    pub fn reschedule(&mut self, h: EventHandle, at: SimTime) {
        let seq = self.next_seq(at);
        self.heap.update(h, at, seq);
    }

    /// Remove a pending event, returning its payload. Panics if `h` is no
    /// longer pending.
    pub fn cancel(&mut self, h: EventHandle) -> E {
        self.heap.remove(h)
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|(at, _, event)| {
            self.now = at;
            (at, event)
        })
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek_key().map(|(at, _)| at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_conversions() {
        assert_eq!(SimTime::from_secs(1.5).as_micros(), 1_500_000);
        assert_eq!(SimTime::from_millis(2.0).as_micros(), 2_000);
        assert!((SimTime::from_micros(500).as_millis() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn simtime_since_saturates() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(b.since(a), SimTime::from_secs(1.0));
        assert_eq!(a.since(b), SimTime::ZERO);
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        assert_eq!(q.pop().unwrap(), (SimTime(10), "a"));
        assert_eq!(q.pop().unwrap(), (SimTime(20), "b"));
        assert_eq!(q.pop().unwrap(), (SimTime(30), "c"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(SimTime(5), i);
        }
        for i in 0..10 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(100));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(50), 1);
        q.pop();
        q.schedule_in(SimTime(25), 2);
        assert_eq!(q.pop().unwrap(), (SimTime(75), 2));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), ());
        q.pop();
        q.schedule(SimTime(50), ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(42), ());
        assert_eq!(q.peek_time(), Some(SimTime(42)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn reschedule_draws_a_fresh_sequence_number() {
        // A re-timed event ties like an event scheduled at that moment: it
        // pops after everything (re)scheduled before it for the same instant.
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        q.reschedule(a, SimTime(20));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap(), (SimTime(20), "b"));
        assert_eq!(q.pop().unwrap(), (SimTime(20), "a"));
    }

    #[test]
    fn cancel_leaves_no_tombstone() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        assert_eq!(q.cancel(a), "a");
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime(20)));
        assert_eq!(q.pop().unwrap(), (SimTime(20), "b"));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rescheduling_into_past_panics() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime(100), "a");
        q.schedule(SimTime(50), "b");
        q.pop();
        q.reschedule(a, SimTime(10));
    }
}
