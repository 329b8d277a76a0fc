//! Discrete-event simulation primitives: a microsecond-resolution clock and
//! a stable (FIFO tie-broken) event queue whose pending events can be
//! re-timed or cancelled in place, plus a sharded queue set
//! ([`ShardedEventQueue`]: conservative windows batched into drain epochs,
//! optionally on worker threads). The engine runs on [`EventQueue`] alone;
//! the sharded set is a standalone primitive that no engine path uses.
//!
//! Simulation time is an integer number of microseconds. Integer time makes
//! event ordering exact and platform-independent, which matters because the
//! reproduction promises bit-for-bit repeatable experiments.

use crate::arena::{EventHandle, EventHeap};
use crate::shard_pool::{Keyed, ShardPool, SyncProfile};

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

/// Buckets of the adaptive epoch-width histogram: bucket `i` counts epochs
/// whose width rounded down to whole milliseconds satisfies
/// `2^i <= ms < 2^(i+1)` (bucket 0 also takes sub-millisecond widths, the
/// last bucket everything wider).
pub const WIDTH_BUCKETS: usize = 16;

/// Counters describing one sharded run's epoch protocol, for the
/// conformance suite's barrier-ordering property and the throughput bench's
/// scaling report. Deliberately free of wall-clock state: these counters
/// are part of the byte-identity contract across thread counts (see
/// [`SyncProfile`] for the wall-clock side).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BarrierStats {
    /// Drain epochs opened — each one is a worker rendezvous in threaded
    /// mode, so `delivered / epochs` is the events-per-barrier amortization.
    pub epochs: u64,
    /// Conservative delivery windows opened. Epochs batch windows: many
    /// windows (and their cross-shard truncations) run inside one epoch
    /// without touching the workers, so `windows >= epochs`.
    pub windows: u64,
    /// Events delivered through [`ShardedEventQueue::pop_in_window`].
    pub delivered: u64,
    /// Cross-shard events published while a delivery window was open.
    pub crossed: u64,
    /// The subset of `crossed` that already lay at or beyond the window
    /// bound when routed (no window shrink needed); the remainder closed
    /// the window early at their own timestamp.
    pub published: u64,
    /// Minimum observed slack of a cross-shard event against its sender's
    /// window close, in microseconds: `event.at - window_end` at publish
    /// time — a lower bound on the true slack, since the window can only
    /// shrink further, and exactly `0` for an event that shrank the window
    /// to its own timestamp. The conservative protocol guarantees this is
    /// `>= 0`: no cross-shard event executes before its sender's delivery
    /// window closes. `i64::MAX` until the first cross-shard event.
    pub min_slack_us: i64,
    /// Histogram of adaptive epoch widths (`bound - global head` at open),
    /// log2-bucketed in milliseconds — see [`WIDTH_BUCKETS`].
    pub width_hist: [u64; WIDTH_BUCKETS],
    /// Sum of adaptive epoch widths in whole milliseconds (the histogram's
    /// `_sum` in Prometheus terms; `width_sum_ms / epochs` is the mean
    /// adaptive width).
    pub width_sum_ms: u64,
}

impl BarrierStats {
    fn new() -> Self {
        Self {
            min_slack_us: i64::MAX,
            ..Self::default()
        }
    }

    /// Mean events delivered per drain epoch (per worker rendezvous).
    pub fn events_per_epoch(&self) -> f64 {
        self.delivered as f64 / (self.epochs.max(1)) as f64
    }
}

/// Head-cache sentinel for an empty shard heap: compares greater than every
/// real `(at, seq)` key, so `argmin` needs no emptiness branch.
const EMPTY_HEAD: (SimTime, u64) = (SimTime(u64::MAX), u64::MAX);

/// Coordinator-side state of the threaded backing: the shard heaps live in
/// a [`ShardPool`]'s workers, and the coordinator keeps only what one epoch
/// of serial dispatch needs.
///
/// Determinism argument, in one place: every decision that affects the
/// simulation — sequence assignment, window truncation, the `(at, seq)`
/// merge order of delivery — is taken on the coordinator thread, in the
/// same code and the same order as the single-threaded backing. Workers
/// only maintain heaps whose contents are fully determined by the posted
/// items, and every hand-off (mailbox post, drain stream, head slot) is
/// sequenced by a rendezvous. A different thread interleaving can change
/// when a heap absorbs a batch, never what the coordinator observes at the
/// next rendezvous — so the delivered event stream is byte-identical to the
/// single-threaded backing, which is byte-identical to the serial engine.
struct PoolBacking<E> {
    pool: ShardPool<E>,
    /// Per-shard sorted runs of the open epoch's staged events, as drained
    /// by the workers, stored in *descending* `(at, seq)` order so the
    /// epoch consumes each run from the back with O(1) moves.
    streams: Vec<Vec<Keyed<E>>>,
    /// Reused per-shard drain buffers: each epoch the workers swap fresh
    /// runs into these, and the coordinator splices any unconsumed stream
    /// tail behind them — no allocation on the per-epoch merge path.
    scratch: Vec<Vec<Keyed<E>>>,
    /// Events scheduled *during* dispatch that are still deliverable in the
    /// open epoch (timestamp below the epoch bound). They never reach a
    /// worker: the coordinator merges them with the drained runs directly.
    overlay: EventHeap<(u32, E)>,
    /// Per-shard batches awaiting a mailbox flush, accumulated so a flush
    /// costs one lock per shard per epoch (plus early flushes past
    /// [`FLUSH_BATCH`], which overlap worker heap pushes with dispatch).
    outbox: Vec<Vec<Keyed<E>>>,
    /// Per-shard pending-event counts (heap + mailbox + outbox + stream
    /// tail + overlay), mirroring the single-threaded backing's heap sizes
    /// exactly at every dispatch point — `shard_len` feeds checkpoints.
    lens: Vec<usize>,
}

/// Flush an outbox batch to its worker mailbox once it reaches this size,
/// so workers absorb (and heap-push) most routed events while the
/// coordinator is still dispatching the epoch.
const FLUSH_BATCH: usize = 64;

/// A set of per-shard event queues sharing one global clock and one global
/// sequence counter, synchronized by conservative time windows batched into
/// drain epochs.
///
/// The determinism contract: because `seq` is global and assigned in schedule
/// order, popping the global minimum `(at, seq)` across shard heaps
/// reproduces the pop order of a single [`EventQueue`] fed by the same
/// schedule calls — bit for bit, at any shard count.
///
/// Two nested horizons drive the protocol:
///
/// * **Epochs** ([`Self::open_epoch`]) bound how far ahead events are
///   *staged*. In threaded mode this is the drain rendezvous — the only
///   worker synchronization point: every worker pops its events below the
///   epoch bound into coordinator-side streams and republishes its heap
///   head. Anything routed below the bound of the open epoch afterwards
///   stays coordinator-side in the overlay, so between epochs the workers
///   are never consulted — that is what amortizes the rendezvous cost when
///   the caller widens the bound adaptively.
/// * **Windows** ([`Self::begin_window`]) bound what may be *delivered*,
///   exactly as in the classic conservative protocol. While a window is
///   open, a *cross-shard* schedule splits on the window bound: an event at
///   or beyond `end_excl` is published immediately — the bound already
///   proves it cannot become due this window — while an event that would
///   land *inside* the open window first shrinks the window to its own
///   timestamp and is then published. Either way the event sits at or
///   beyond the (possibly shrunk) window end, so [`Self::pop_in_window`]
///   cannot reach it until the window closes and a later window re-opens at
///   it: every cross-shard event executes at or after its sender's window
///   close — the barrier-ordering property the conformance suite checks —
///   and delivered events interleave in canonical `(at, seq)` merge order
///   because those are the heap keys.
///
/// Windows never outgrow their epoch (`begin_window` opens a fresh epoch
/// first if the requested bound lies beyond the current one), so staged
/// completeness — *everything below the epoch bound is coordinator-side* —
/// makes window delivery exact without touching a worker.
pub struct ShardedEventQueue<E> {
    shards: Vec<EventHeap<E>>,
    /// Cached `(at, seq)` minimum per shard heap ([`EMPTY_HEAD`] = empty).
    /// In threaded mode this tracks the *worker-side* minimum exactly: the
    /// drain rendezvous publishes each post-drain heap head, and every
    /// outbox route merges its key in coordinator-side.
    heads: Vec<(SimTime, u64)>,
    seq: u64,
    now: SimTime,
    /// Exclusive end of the open delivery window; `None` outside any window
    /// (setup phases route everything directly).
    window_end_excl: Option<SimTime>,
    /// Exclusive staging bound of the open drain epoch; `None` outside any
    /// epoch. Always at or beyond the window bound while both are open.
    epoch_bound: Option<SimTime>,
    /// Shard of the most recently popped event — the sender for routing.
    current_shard: usize,
    stats: BarrierStats,
    /// Configured worker-thread count (1 = single-threaded reference path).
    threads: usize,
    /// Threaded backing, active once [`Self::start_threads`] ran with
    /// `threads > 1`; the inline `shards` heaps are empty while active.
    pool: Option<PoolBacking<E>>,
}

impl<E> ShardedEventQueue<E> {
    /// Empty queue set at time zero. `shards` must be at least 1.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        Self {
            shards: (0..shards).map(|_| EventHeap::new()).collect(),
            heads: vec![EMPTY_HEAD; shards],
            seq: 0,
            now: SimTime::ZERO,
            window_end_excl: None,
            epoch_bound: None,
            current_shard: 0,
            stats: BarrierStats::new(),
            threads: 1,
            pool: None,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Select the worker-thread count for epoch execution, clamped to the
    /// shard count. `1` (the default) keeps the single-threaded reference
    /// path; `t > 1` makes the next [`Self::start_threads`] move the shard
    /// heaps into a persistent [`ShardPool`]. Must be called before
    /// `start_threads`; the delivered event stream is bit-identical either
    /// way.
    pub fn set_threads(&mut self, threads: usize) {
        assert!(threads >= 1, "need at least one thread");
        assert!(
            self.pool.is_none(),
            "set_threads must precede start_threads"
        );
        self.threads = threads.min(self.shards.len());
    }

    /// Worker threads configured for epoch execution (1 = single-threaded).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Spawn the worker pool and hand each worker its shards' heaps.
    /// Idempotent; a no-op on the single-threaded path (`threads == 1`).
    pub fn start_threads(&mut self)
    where
        E: Send + 'static,
    {
        if self.threads <= 1 || self.pool.is_some() {
            return;
        }
        let k = self.shards.len();
        let pool = ShardPool::start(k, self.threads);
        let mut lens = vec![0usize; k];
        let mut items: Vec<Keyed<E>> = Vec::new();
        for (s, heap) in self.shards.iter_mut().enumerate() {
            lens[s] = heap.len();
            heap.drain_unordered(&mut items);
            pool.post(s, &mut items);
        }
        pool.absorb_heads(&mut self.heads);
        self.pool = Some(PoolBacking {
            pool,
            streams: (0..k).map(|_| Vec::new()).collect(),
            scratch: (0..k).map(|_| Vec::new()).collect(),
            overlay: EventHeap::new(),
            outbox: (0..k).map(|_| Vec::new()).collect(),
            lens,
        });
    }

    /// Enable worker scheduling-jitter injection (test aid; threaded mode
    /// only). See [`ShardPool::set_jitter`].
    pub fn set_thread_jitter(&self, seed: u64) {
        if let Some(p) = &self.pool {
            p.pool.set_jitter(seed);
        }
    }

    /// Current simulation time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total pending events.
    pub fn len(&self) -> usize {
        match &self.pool {
            Some(p) => p.lens.iter().sum(),
            None => self.shards.iter().map(EventHeap::len).sum(),
        }
    }

    /// Whether no events are pending anywhere.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pending events homed on one shard — the per-shard checkpoint depth.
    /// In threaded mode this is the coordinator's mirror count (worker
    /// heap plus mailbox, outbox, stream tail and overlay), which equals
    /// the single-threaded backing's heap size at every dispatch point.
    pub fn shard_len(&self, shard: usize) -> usize {
        match &self.pool {
            Some(p) => p.lens[shard],
            None => self.shards[shard].len(),
        }
    }

    /// Epoch-protocol counters so far.
    pub fn stats(&self) -> BarrierStats {
        self.stats
    }

    /// Wall-clock rendezvous profile of the threaded backing (zero on the
    /// single-threaded path). Kept out of [`BarrierStats`] on purpose:
    /// stats are compared bit-for-bit across thread counts, wall time is
    /// not comparable.
    pub fn sync_profile(&self) -> SyncProfile {
        match &self.pool {
            Some(p) => p.pool.sync_profile(),
            None => SyncProfile::default(),
        }
    }

    /// Route `event` (homed on `shard`) at absolute time `at`.
    ///
    /// Same-shard events — and any event routed outside an open window — go
    /// straight toward the owning heap. A cross-shard event inside a window
    /// is published directly when it lies at or beyond the window bound
    /// ([`Self::pop_in_window`] cannot reach it this window, so the early
    /// visibility is unobservable); one inside the window first shrinks the
    /// window to its own timestamp — restoring that same bound — and is
    /// then published. The global sequence number is assigned here, in
    /// call order, regardless of path — that is what keeps the sharded pop
    /// order identical to the serial engine's.
    ///
    /// In threaded mode the *epoch* bound (not the window bound) decides
    /// where the event lands: below it the event stays coordinator-side in
    /// the overlay — it may become deliverable by a later window of this
    /// same epoch without any worker round-trip — at or beyond it the event
    /// is batched toward its worker's mailbox, with its key merged into the
    /// head cache so [`Self::peek_time`] stays exact between rendezvous.
    pub fn route(&mut self, shard: usize, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < now {:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        if shard != self.current_shard {
            if let Some(w) = self.window_end_excl {
                self.stats.crossed += 1;
                if at < w {
                    // Close the window at this event's timestamp: with the
                    // bound restored to `at`, the event cannot execute
                    // before its sender's window ends. Slack is exactly 0.
                    self.window_end_excl = Some(at);
                    self.stats.min_slack_us = self.stats.min_slack_us.min(0);
                } else {
                    // Beyond the open window: the bound already proves the
                    // event cannot execute this window.
                    self.stats.published += 1;
                    let slack = at.as_micros() as i64 - w.as_micros() as i64;
                    self.stats.min_slack_us = self.stats.min_slack_us.min(slack);
                }
            }
        }
        if let Some(p) = &mut self.pool {
            p.lens[shard] += 1;
            if self.epoch_bound.is_some_and(|b| at < b) {
                p.overlay.push(at, seq, (shard as u32, event));
            } else {
                let key = (at, seq);
                if key < self.heads[shard] {
                    self.heads[shard] = key;
                }
                p.outbox[shard].push((at, seq, event));
                if p.outbox[shard].len() >= FLUSH_BATCH {
                    p.pool.post(shard, &mut p.outbox[shard]);
                }
            }
        } else {
            let key = (at, seq);
            if key < self.heads[shard] {
                self.heads[shard] = key;
            }
            self.shards[shard].push(at, seq, event);
        }
    }

    /// Open a drain epoch with staging bound `bound` (exclusive): after this
    /// call, *every* pending event below `bound` is coordinator-side.
    ///
    /// In threaded mode this is the one worker rendezvous of the protocol:
    /// unposted outbox batches are flushed first (workers absorb their
    /// mailboxes before draining, so a posted event cannot miss its own
    /// epoch), every worker pops its below-bound run into the coordinator's
    /// streams and republishes its exact post-drain heap head. Unconsumed
    /// tails of a previous epoch's streams are spliced behind the fresh
    /// runs — their keys are strictly older, because an epoch only opens
    /// beyond the previous bound while staged events remain.
    pub fn open_epoch(&mut self, bound: SimTime) {
        if let Some(t0) = self.peek_time() {
            let ms = bound.0.saturating_sub(t0.0) / 1_000;
            let bucket = if ms <= 1 {
                0
            } else {
                (ms.ilog2() as usize).min(WIDTH_BUCKETS - 1)
            };
            self.stats.width_hist[bucket] += 1;
            self.stats.width_sum_ms = self.stats.width_sum_ms.saturating_add(ms);
        }
        self.stats.epochs += 1;
        self.epoch_bound = Some(bound);
        if let Some(p) = &mut self.pool {
            for s in 0..p.outbox.len() {
                if !p.outbox[s].is_empty() {
                    p.pool.post(s, &mut p.outbox[s]);
                }
            }
            p.pool.drain_epoch(bound, &mut p.scratch, &mut self.heads);
            for s in 0..p.scratch.len() {
                // Workers hand back ascending runs; the epoch consumes runs
                // from the back, so flip to descending and splice any
                // unconsumed older tail behind the fresh run.
                p.scratch[s].reverse();
                if !p.streams[s].is_empty() {
                    debug_assert!(
                        match (p.scratch[s].last(), p.streams[s].first()) {
                            (Some(&(n_at, n_seq, _)), Some(&(t_at, t_seq, _))) =>
                                (t_at, t_seq) < (n_at, n_seq),
                            _ => true,
                        },
                        "stream tail must be strictly older than the fresh run"
                    );
                    let mut tail = std::mem::take(&mut p.streams[s]);
                    p.scratch[s].append(&mut tail);
                    p.streams[s] = tail; // retain the (now empty) allocation
                }
                std::mem::swap(&mut p.scratch[s], &mut p.streams[s]);
            }
        }
    }

    /// Open a conservative delivery window ending (exclusively) at
    /// `end_excl`. If the requested bound lies beyond the current epoch (or
    /// no epoch is open), a drain epoch is opened at that bound first, so a
    /// caller that never touches [`Self::open_epoch`] gets the classic
    /// one-rendezvous-per-window protocol.
    pub fn begin_window(&mut self, end_excl: SimTime) {
        if self.epoch_bound.is_none_or(|b| end_excl > b) {
            self.open_epoch(end_excl);
        }
        self.window_end_excl = Some(end_excl);
        self.stats.windows += 1;
    }

    /// Close the delivery window: lift the window bound, making every
    /// cross-shard event published during it poppable by the next window.
    /// All delivery already happened at publish time; the bound was what
    /// kept it invisible. No worker interaction — window turnover inside an
    /// epoch is pure coordinator-side bookkeeping.
    pub fn end_window(&mut self) {
        self.window_end_excl = None;
    }

    /// Close the drain epoch (the engine does this once per `run_until`,
    /// after the event loop exhausts the horizon). Subsequent routes are
    /// batched toward the workers again.
    pub fn close_epoch(&mut self) {
        self.window_end_excl = None;
        self.epoch_bound = None;
    }

    /// Timestamp of the globally next event, ignoring window and epoch
    /// bounds. Exact in both backings at every point: the threaded backing
    /// tracks staged events directly and merges every outbox key into the
    /// worker head cache.
    pub fn peek_time(&self) -> Option<SimTime> {
        let mut min = self.heads[self.argmin()];
        if let Some(p) = &self.pool {
            for stream in &p.streams {
                if let Some(&(at, seq, _)) = stream.last() {
                    min = min.min((at, seq));
                }
            }
            if let Some(key) = p.overlay.peek_key() {
                min = min.min(key);
            }
        }
        let (at, _) = min;
        (at.0 != u64::MAX).then_some(at)
    }

    /// Pop the globally earliest in-window event, advancing the clock and
    /// marking its shard as the current sender. Returns `None` when the open
    /// window (or the whole queue set) is exhausted.
    pub fn pop_in_window(&mut self) -> Option<(SimTime, usize, E)> {
        if self.pool.is_some() {
            return self.pop_in_window_pooled();
        }
        let shard = self.argmin();
        let (at, _) = self.heads[shard];
        // One bound covers both exits: an empty queue set (`at` is the
        // sentinel) and an exhausted window.
        let bound = self.window_end_excl.unwrap_or(SimTime(u64::MAX));
        if at >= bound && (at.0 == u64::MAX || self.window_end_excl.is_some()) {
            return None;
        }
        let (at, _, event) = self.shards[shard].pop().expect("head pointed at an entry");
        self.heads[shard] = self.shards[shard].peek_key().unwrap_or(EMPTY_HEAD);
        self.now = at;
        self.current_shard = shard;
        self.stats.delivered += 1;
        Some((at, shard, event))
    }

    /// Threaded-backing pop: the globally earliest `(at, seq)` among the
    /// per-shard drained runs and the overlay of same-epoch schedules —
    /// exactly the candidates the single-threaded backing's `argmin` would
    /// surface inside this window, in the same canonical merge order.
    /// Staged completeness makes the window check sufficient: every event
    /// below the epoch bound is in a stream or the overlay, and the window
    /// bound never exceeds the epoch bound.
    fn pop_in_window_pooled(&mut self) -> Option<(SimTime, usize, E)> {
        let p = self.pool.as_mut().expect("pooled pop without a pool");
        let mut best_key = (SimTime(u64::MAX), u64::MAX);
        let mut best_shard = usize::MAX;
        for (s, stream) in p.streams.iter().enumerate() {
            if let Some(&(at, seq, _)) = stream.last() {
                if (at, seq) < best_key {
                    best_key = (at, seq);
                    best_shard = s;
                }
            }
        }
        let overlay_first = p.overlay.peek_key().is_some_and(|key| key < best_key);
        let at = if overlay_first {
            p.overlay.peek_key().expect("peeked overlay entry").0
        } else {
            best_key.0
        };
        if at.0 == u64::MAX {
            return None; // nothing staged for this epoch
        }
        if self.window_end_excl.is_some_and(|b| at >= b) {
            return None; // the window shrank below the staged minimum
        }
        self.stats.delivered += 1;
        if overlay_first {
            let (at, _, (shard, event)) = p.overlay.pop().expect("peeked overlay entry");
            let shard = shard as usize;
            p.lens[shard] -= 1;
            self.now = at;
            self.current_shard = shard;
            Some((at, shard, event))
        } else {
            let (at, _, event) = p.streams[best_shard].pop().expect("non-empty stream");
            p.lens[best_shard] -= 1;
            self.now = at;
            self.current_shard = best_shard;
            Some((at, best_shard, event))
        }
    }

    /// Shard index holding the globally smallest `(at, seq)` head (an empty
    /// shard's head is the always-greater [`EMPTY_HEAD`] sentinel).
    fn argmin(&self) -> usize {
        let mut best = 0usize;
        for s in 1..self.heads.len() {
            if self.heads[s] < self.heads[best] {
                best = s;
            }
        }
        best
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

    #[test]
    fn sharded_pop_order_matches_serial_queue() {
        // Same schedule-call sequence into a serial queue and a 4-shard set
        // (arbitrary homing) must pop identically: the global seq counter is
        // the whole determinism argument.
        let plan: Vec<(u64, u64)> = (0..200).map(|i: u64| (i * 7919 % 97, i)).collect();
        let mut serial = EventQueue::new();
        let mut sharded = ShardedEventQueue::new(4);
        for &(at, id) in &plan {
            serial.schedule(SimTime(at), id);
            sharded.route((id % 4) as usize, SimTime(at), id);
        }
        loop {
            let a = serial.pop();
            let b = sharded.pop_in_window().map(|(t, _, e)| (t, e));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn cross_shard_events_wait_for_the_window_close() {
        let mut q = ShardedEventQueue::new(2);
        q.route(0, SimTime(10), "a");
        assert_eq!(q.pop_in_window(), Some((SimTime(10), 0, "a"))); // sender = shard 0
        q.begin_window(SimTime(1000));
        q.route(1, SimTime(500), "cross"); // cross-shard: window shrinks to 500
        q.route(0, SimTime(200), "local"); // same-shard: direct
        assert_eq!(q.pop_in_window(), Some((SimTime(200), 0, "local")));
        // "cross" sits at the shrunk window bound: nothing poppable.
        assert_eq!(q.pop_in_window(), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.shard_len(1), 1);
        q.end_window();
        q.begin_window(SimTime(2000));
        assert_eq!(q.pop_in_window(), Some((SimTime(500), 1, "cross")));
        let stats = q.stats();
        assert_eq!(stats.crossed, 1);
        assert_eq!(stats.windows, 2);
        assert_eq!(stats.epochs, 2); // both windows outgrew the epoch bound
        assert_eq!(stats.min_slack_us, 0); // shrunk window closed exactly at 500
    }

    #[test]
    fn windows_inside_one_epoch_share_a_single_drain() {
        // An epoch opened wide enough covers several windows: only one
        // epoch (= one rendezvous in threaded mode) is recorded.
        let mut q = ShardedEventQueue::new(2);
        q.route(0, SimTime(10), 1u64);
        q.route(1, SimTime(700), 2u64);
        q.open_epoch(SimTime(1000));
        q.begin_window(SimTime(300));
        assert_eq!(q.pop_in_window(), Some((SimTime(10), 0, 1)));
        assert_eq!(q.pop_in_window(), None);
        q.end_window();
        q.begin_window(SimTime(900));
        assert_eq!(q.pop_in_window(), Some((SimTime(700), 1, 2)));
        q.end_window();
        let stats = q.stats();
        assert_eq!(stats.epochs, 1);
        assert_eq!(stats.windows, 2);
        assert_eq!(stats.delivered, 2);
    }

    #[test]
    fn zero_delay_cross_shard_event_closes_the_window_immediately() {
        let mut q = ShardedEventQueue::new(2);
        q.route(0, SimTime(100), 0u64);
        q.route(1, SimTime(100), 1u64);
        q.begin_window(SimTime(5000));
        assert_eq!(q.pop_in_window(), Some((SimTime(100), 0, 0))); // sender shard 0
        q.route(1, SimTime(100), 2); // zero-delay cross-shard: seq 2
                                     // Window shrank to 100 (exclusive): even the already-pending shard-1
                                     // event at t=100 must wait so global (at, seq) order survives.
        assert_eq!(q.pop_in_window(), None);
        q.end_window();
        q.begin_window(SimTime(5000));
        assert_eq!(q.pop_in_window(), Some((SimTime(100), 1, 1)));
        assert_eq!(q.pop_in_window(), Some((SimTime(100), 1, 2)));
        assert!(q.stats().min_slack_us >= 0);
    }

    #[test]
    fn sharded_len_counts_cross_shard_events_inside_a_window() {
        let mut q = ShardedEventQueue::new(3);
        q.route(0, SimTime(1), ());
        q.pop_in_window();
        q.begin_window(SimTime(100));
        q.route(1, SimTime(50), ());
        q.route(2, SimTime(60), ());
        q.route(0, SimTime(70), ());
        assert_eq!(q.len(), 3);
        q.end_window();
        assert_eq!(q.len(), 3);
        assert_eq!(q.shard_len(1), 1);
        assert_eq!(q.shard_len(2), 1);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn sharded_route_into_past_panics() {
        let mut q = ShardedEventQueue::new(2);
        q.route(0, SimTime(100), ());
        q.pop_in_window();
        q.route(1, SimTime(50), ());
    }

    /// Deterministic mini-simulation driving the epoch protocol the way the
    /// engine does: open an adaptively-widened drain epoch, run windows
    /// inside it until the staged events are exhausted, repeat — with each
    /// popped event deterministically spawning follow-ups (same-shard,
    /// cross-shard, and zero-delay cross-shard included). Returns the
    /// delivered stream; any two backings must produce it byte-for-byte.
    fn drive(
        q: &mut ShardedEventQueue<u64>,
        horizon: u64,
        lookahead: u64,
    ) -> Vec<(u64, usize, u64)> {
        let shards = q.shards() as u64;
        for i in 0..64u64 {
            q.route((i % shards) as usize, SimTime(i * 13 % 293), i);
        }
        let mut out = Vec::new();
        let mut mult = 1u64;
        while let Some(t0) = q.peek_time() {
            if t0.0 > horizon {
                break;
            }
            let bound = SimTime((t0.0 + lookahead * mult).min(horizon + 1));
            q.open_epoch(bound);
            let staged0 = q.stats().delivered;
            while let Some(w0) = q.peek_time() {
                if w0 >= bound || w0.0 > horizon {
                    break;
                }
                q.begin_window(SimTime((w0.0 + lookahead).min(horizon + 1).min(bound.0)));
                while let Some((at, shard, v)) = q.pop_in_window() {
                    out.push((at.0, shard, v));
                    let h = v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ at.0;
                    if h % 3 != 0 {
                        let delta = h % 41;
                        let nv = h % 10_000;
                        // Zero-delay spawns must strictly shrink the value so
                        // same-instant chains terminate deterministically.
                        if at.0 + delta <= horizon && (delta > 0 || nv < v) {
                            q.route((h / 7 % shards) as usize, SimTime(at.0 + delta), nv);
                        }
                    }
                }
                q.end_window();
            }
            // Adaptive width controller, on delivered-event counts only —
            // byte-identical across backings by construction.
            let delivered = q.stats().delivered - staged0;
            if delivered < 8 {
                mult = (mult * 2).min(64);
            } else if delivered > 32 {
                mult = (mult / 2).max(1);
            }
        }
        q.close_epoch();
        out
    }

    #[test]
    fn threaded_backing_matches_single_threaded_backing_bit_for_bit() {
        let horizon = 400;
        for shards in [1usize, 2, 4, 8] {
            let mut reference = ShardedEventQueue::new(shards);
            let expect = drive(&mut reference, horizon, 20);
            assert!(!expect.is_empty());
            assert!(reference.stats().windows >= reference.stats().epochs);
            for threads in [2usize, 4] {
                let mut q = ShardedEventQueue::new(shards);
                q.set_threads(threads);
                q.start_threads();
                let got = drive(&mut q, horizon, 20);
                assert_eq!(got, expect, "shards {shards} threads {threads}");
                assert_eq!(q.stats(), reference.stats(), "stats diverged");
                assert_eq!(q.len(), reference.len(), "pending counts diverged");
                for s in 0..shards {
                    assert_eq!(q.shard_len(s), reference.shard_len(s), "shard {s} depth");
                }
            }
        }
    }

    #[test]
    fn outbox_drain_order_is_independent_of_thread_scheduling_jitter() {
        // The satellite property: injected worker scheduling jitter (random
        // pre-ack sleeps, seeded per run) must not change the delivered
        // stream, the epoch counters, or the pending depths — the
        // coordinator's rendezvous protocol, not thread timing, fixes the
        // drain order.
        let horizon = 400;
        let mut reference = ShardedEventQueue::new(8);
        let expect = drive(&mut reference, horizon, 20);
        for seed in 1..=5u64 {
            let mut q = ShardedEventQueue::new(8);
            q.set_threads(4);
            q.start_threads();
            q.set_thread_jitter(seed);
            let got = drive(&mut q, horizon, 20);
            assert_eq!(got, expect, "jitter seed {seed} changed the stream");
            assert_eq!(q.stats(), reference.stats(), "jitter seed {seed} stats");
        }
    }

    #[test]
    fn adaptive_epochs_batch_windows_between_rendezvous() {
        // The perf property behind the tentpole: with adaptive widening the
        // drive harness must run fewer epochs than windows (the threaded
        // backing pays one rendezvous per epoch, not per window), and the
        // width histogram must show widened epochs.
        let mut q = ShardedEventQueue::new(4);
        drive(&mut q, 4000, 20);
        let stats = q.stats();
        assert!(
            stats.windows > stats.epochs,
            "expected batched windows: {stats:?}"
        );
        assert_eq!(
            stats.width_hist.iter().sum::<u64>(),
            stats.epochs,
            "every epoch lands in exactly one width bucket"
        );
    }

    #[test]
    fn width_histogram_buckets_by_log2_milliseconds() {
        let mut q = ShardedEventQueue::new(2);
        q.route(0, SimTime(0), 0u64);
        q.open_epoch(SimTime::from_millis(5.0)); // 5 ms  -> bucket 2
        q.begin_window(SimTime::from_millis(5.0));
        while q.pop_in_window().is_some() {}
        q.end_window();
        q.route(0, SimTime::from_millis(6.0), 1u64);
        q.open_epoch(SimTime::from_millis(46.0)); // 40 ms -> bucket 5
        q.begin_window(SimTime::from_millis(46.0));
        while q.pop_in_window().is_some() {}
        q.end_window();
        q.close_epoch();
        let hist = q.stats().width_hist;
        assert_eq!(hist[2], 1, "5 ms epoch: {hist:?}");
        assert_eq!(hist[5], 1, "40 ms epoch: {hist:?}");
        assert_eq!(hist.iter().sum::<u64>(), 2);
    }

    /// Satellite property test: fuzz the adaptive epoch/window protocol
    /// across seeds and widths against (a) the serial reference stream and
    /// (b) the conservative-delivery invariant — no event is delivered at
    /// or beyond the bound its window published when it opened (shrinks
    /// only lower the bound, so the opening bound is the weakest claim).
    #[test]
    fn fuzz_adaptive_lookahead_never_delivers_past_the_published_bound() {
        for seed in 0..24u64 {
            let horizon = 500 + (seed % 7) * 130;
            let shards = 1 + (seed as usize % 8);
            let mut rng = crate::SimRng::new(seed);

            // Serial reference: one EventQueue fed by the same spawn rule.
            let mut serial = EventQueue::new();
            let mut sharded = ShardedEventQueue::new(shards);
            for i in 0..48u64 {
                let at = (i * 29 + seed * 13) % 211;
                serial.schedule(SimTime(at), i);
                sharded.route((i as usize) % shards, SimTime(at), i);
            }
            let spawn = |at: u64, v: u64| -> Option<(u64, u64, usize)> {
                let h = v
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(21)
                    .wrapping_add(at);
                if h.is_multiple_of(4) {
                    return None;
                }
                let delta = h % 67;
                let nv = h % 9_973;
                (delta > 0 || nv < v).then_some((at + delta, nv, (h / 11) as usize % shards))
            };

            let mut expect = Vec::new();
            while let Some((at, v)) = serial.pop() {
                if at.0 > horizon {
                    break;
                }
                expect.push((at.0, v));
                if let Some((nat, nv, _)) = spawn(at.0, v) {
                    if nat <= horizon {
                        serial.schedule(SimTime(nat), nv);
                    }
                }
            }

            let mut got = Vec::new();
            while let Some(t0) = sharded.peek_time() {
                if t0.0 > horizon {
                    break;
                }
                // Random (but seeded) epoch width: 1..=512 lookahead units.
                let width = 1 + rng.next_u64() % 512;
                let bound = SimTime((t0.0 + width).min(horizon + 1));
                sharded.open_epoch(bound);
                while let Some(w0) = sharded.peek_time() {
                    if w0 >= bound || w0.0 > horizon {
                        break;
                    }
                    let window = 1 + rng.next_u64() % 64;
                    let end_excl = SimTime((w0.0 + window).min(horizon + 1).min(bound.0));
                    sharded.begin_window(end_excl);
                    while let Some((at, _, v)) = sharded.pop_in_window() {
                        assert!(
                            at < end_excl,
                            "seed {seed}: delivered {at:?} at/past the published bound {end_excl:?}"
                        );
                        got.push((at.0, v));
                        if let Some((nat, nv, ns)) = spawn(at.0, v) {
                            if nat <= horizon {
                                sharded.route(ns, SimTime(nat), nv);
                            }
                        }
                    }
                    sharded.end_window();
                }
            }
            sharded.close_epoch();
            assert_eq!(got, expect, "seed {seed}: stream diverged from serial");
            let stats = sharded.stats();
            assert!(
                stats.crossed == 0 || stats.min_slack_us >= 0,
                "seed {seed}: cross-shard event beat its window close: {stats:?}"
            );
        }
    }

    /// Satellite regression test: an in-window cross-shard event must
    /// shrink an adaptively *widened* window down to its own timestamp —
    /// on both backings — and be delivered only by a later window.
    #[test]
    fn widened_window_shrinks_on_in_window_cross_shard_event() {
        let run = |threads: usize| -> (Vec<(u64, usize, u64)>, BarrierStats) {
            let mut q = ShardedEventQueue::new(2);
            if threads > 1 {
                q.set_threads(threads);
                q.start_threads();
            }
            q.route(0, SimTime(100), 1u64);
            q.route(0, SimTime(9_000), 2u64);
            let mut out = Vec::new();
            // Adaptively widened epoch + window covering both events.
            q.open_epoch(SimTime(10_000));
            q.begin_window(SimTime(10_000));
            while let Some((at, shard, v)) = q.pop_in_window() {
                out.push((at.0, shard, v));
                if v == 1 {
                    // Cross-shard spawn inside the wide-open window: the
                    // window must shrink to 4_000; event 2 (t=9_000) must
                    // NOT deliver in this window anymore.
                    q.route(1, SimTime(4_000), 3u64);
                }
            }
            q.end_window();
            q.begin_window(SimTime(10_000));
            while let Some((at, shard, v)) = q.pop_in_window() {
                out.push((at.0, shard, v));
            }
            q.end_window();
            q.close_epoch();
            (out, q.stats())
        };
        let (serial, serial_stats) = run(1);
        assert_eq!(
            serial,
            vec![(100, 0, 1), (4_000, 1, 3), (9_000, 0, 2)],
            "the shrunk window must defer both later events"
        );
        assert_eq!(serial_stats.min_slack_us, 0);
        assert_eq!(serial_stats.crossed, 1);
        let (threaded, threaded_stats) = run(2);
        assert_eq!(threaded, serial, "backings diverged on the shrink path");
        assert_eq!(threaded_stats, serial_stats);
    }

    #[test]
    fn threads_are_clamped_to_shard_count() {
        let mut q = ShardedEventQueue::<u64>::new(2);
        q.set_threads(16);
        assert_eq!(q.threads(), 2);
        let mut single = ShardedEventQueue::new(1);
        single.set_threads(8);
        assert_eq!(single.threads(), 1);
        single.start_threads(); // clamped to 1: stays on the local backing
        single.route(0, SimTime(5), 1u64);
        assert_eq!(single.pop_in_window(), Some((SimTime(5), 0, 1)));
    }

    #[test]
    fn sync_profile_counts_rendezvous_only_in_threaded_mode() {
        let mut single = ShardedEventQueue::new(4);
        drive(&mut single, 400, 20);
        assert_eq!(single.sync_profile().rendezvous, 0);
        let mut q = ShardedEventQueue::new(4);
        q.set_threads(2);
        q.start_threads();
        drive(&mut q, 400, 20);
        let sync = q.sync_profile();
        // One absorb at start_threads + one drain per epoch.
        assert_eq!(sync.rendezvous, q.stats().epochs + 1);
    }
}
