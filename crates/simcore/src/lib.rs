//! `simcore` — deterministic simulation substrate shared by every crate in
//! the workspace.
//!
//! Provides:
//!
//! * [`rng`] — a seedable, splittable `xoshiro256**` generator so that every
//!   experiment in the reproduction is bit-for-bit repeatable.
//! * [`dist`] — the handful of distributions the simulator needs (normal,
//!   log-normal, exponential, Poisson, Zipf) implemented directly on top of
//!   the local RNG to keep the dependency surface small.
//! * [`stats`] — summary statistics (Welford online moments, percentiles,
//!   CDFs, coefficient of variation) used both by the metric collector and by
//!   the experiment harness.
//! * [`events`] — the one discrete-event queue, with stable FIFO
//!   tie-breaking and a microsecond-resolution simulation clock; pending
//!   events can be re-timed or cancelled in place through their handles.
//! * [`arena`] — the slab-backed, addressable 4-ary index heap the queue
//!   stores events in: payloads never move after insertion, only 24-byte
//!   keys sift, and a slot→position index finds any pending event in O(1).
//! * [`par`] — order-preserving parallel maps on scoped threads for the
//!   embarrassingly parallel experiment sweeps.
//! * [`table`] — plain-text table rendering for regenerated paper tables.
//!
//! # Examples
//!
//! ```
//! use simcore::{EventQueue, SimRng, SimTime, Summary};
//!
//! // Deterministic RNG: same seed, same stream.
//! let mut rng = SimRng::new(42);
//! let a = rng.f64();
//! assert_eq!(SimRng::new(42).f64(), a);
//!
//! // Discrete-event queue with FIFO tie-breaking.
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_millis(2.0), "late");
//! q.schedule(SimTime::from_millis(1.0), "early");
//! assert_eq!(q.pop().unwrap().1, "early");
//!
//! // One-shot sample summaries.
//! let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
//! assert_eq!(s.mean, 2.5);
//! ```

pub mod arena;
pub mod dist;
pub mod events;
pub mod par;
pub mod rng;
pub mod stats;
pub mod table;

pub use arena::{EventHandle, EventHeap};
pub use events::{EventQueue, SimTime};
pub use rng::{seed_stream, SimRng};
pub use stats::{percentile, percentile_sorted, Cdf, OnlineStats, Reservoir, Summary};
