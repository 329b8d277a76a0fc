//! Engine-throughput bench (extension; not a paper figure).
//!
//! Measures the discrete-event engine's dispatch rate on the chaos workload
//! mix: the quick (or full) `fault_sweep` chaos point (crash 2/min, slowdown
//! 4/min, seed 42) — collect-heavy (1 Hz × 8 servers), fault-heavy and
//! retry-heavy — plus three scaled topologies of 64, 256 and 1024 servers
//! with proportionally scaled workload mixes (same per-server load, quick
//! horizon). The topology, not the duration, is the scaled dimension: it
//! grows the number of co-running tasks whose completions every contention
//! change re-times.
//!
//! Each leg runs [`REPS`] times and reports the median wall time. Event
//! counts are exact and host-independent; requests/s is the number to
//! compare across engine versions, since events/s also moves with how many
//! events the engine needs per request.

use crate::fault_sweep::{chaos_run_scaled, SweepPoint};
use crate::registry::{ExperimentResult, RunOpts};
use obs::Obs;
use simcore::table::{fnum, TextTable};

/// Scaled bench topologies as `(scale, servers)`: the paper's 8-node
/// testbed multiplied, workload mix scaled along.
pub const SCALED_TOPOLOGIES: [(usize, usize); 3] = [(8, 64), (32, 256), (128, 1024)];

/// Timed runs per leg; the median wall time is reported.
pub const REPS: usize = 3;

/// Chaos seed pinned for the bench (same as the CI chaos-smoke golden).
const SEED: u64 = 42;

const POINT: SweepPoint = SweepPoint {
    crash_per_min: 2.0,
    slowdown_per_min: 4.0,
};

/// One measured leg.
#[derive(Debug, Clone)]
pub struct EngineLeg {
    /// Cluster size.
    pub servers: usize,
    /// Events dispatched by one run.
    pub events: u64,
    /// Requests completed by one run.
    pub completions: u64,
    /// Median wall seconds of one run.
    pub wall_s: f64,
    /// `events / wall_s`.
    pub events_per_s: f64,
    /// `completions / wall_s`.
    pub requests_per_s: f64,
}

/// The base chaos point plus the scaled topologies.
#[derive(Debug, Clone)]
pub struct EngineThroughput {
    /// The 8-server chaos point at the requested horizon.
    pub base: EngineLeg,
    /// The scaled topologies, in [`SCALED_TOPOLOGIES`] order.
    pub scaled: Vec<EngineLeg>,
}

/// Time [`REPS`] runs of one leg and keep the median.
fn measure_leg(quick: bool, scale: usize) -> EngineLeg {
    let mut walls = Vec::with_capacity(REPS);
    let mut counts = (0, 0);
    for _ in 0..REPS {
        let t0 = std::time::Instant::now();
        let (out, _) = chaos_run_scaled(
            POINT,
            SEED,
            quick,
            Obs::telemetry_only().with_fault_log(),
            scale,
        );
        walls.push(t0.elapsed().as_secs_f64());
        let completions = out.report.workloads.iter().map(|w| w.completions).sum();
        counts = (out.events_processed, completions);
    }
    let wall_s = simcore::percentile(&walls, 50.0).max(1e-12);
    let (events, completions) = counts;
    EngineLeg {
        servers: 8 * scale,
        events,
        completions,
        wall_s,
        events_per_s: events as f64 / wall_s,
        requests_per_s: completions as f64 / wall_s,
    }
}

/// Measure [`EngineThroughput`] — once per process and mode, so the
/// experiment table and the `BENCH_repro.json` section report the same runs.
pub fn engine_throughput(quick: bool) -> EngineThroughput {
    use std::sync::OnceLock;
    static CACHE: [OnceLock<EngineThroughput>; 2] = [OnceLock::new(), OnceLock::new()];
    CACHE[quick as usize]
        .get_or_init(|| EngineThroughput {
            base: measure_leg(quick, 1),
            scaled: SCALED_TOPOLOGIES
                .iter()
                .map(|&(scale, _)| measure_leg(true, scale))
                .collect(),
        })
        .clone()
}

/// Entry point.
pub fn run(opts: &RunOpts) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "engine_throughput",
        "event-engine throughput on the chaos point (extension)",
    );
    let tp = engine_throughput(opts.quick);
    let mut t = TextTable::new(vec![
        "servers",
        "events",
        "completions",
        "wall ms",
        "events/s",
        "requests/s",
    ]);
    for leg in std::iter::once(&tp.base).chain(&tp.scaled) {
        t.row(vec![
            leg.servers.to_string(),
            leg.events.to_string(),
            leg.completions.to_string(),
            fnum(leg.wall_s * 1e3, 1),
            fnum(leg.events_per_s, 0),
            fnum(leg.requests_per_s, 0),
        ]);
    }
    result.table(format!(
        "serial engine on the chaos point (median of {REPS} runs; scaled \
         topologies at the quick horizon, per-server load held constant)\n{}",
        t.render()
    ));
    result
        .metric("events", tp.base.events as f64)
        .metric("events_per_s_serial", tp.base.events_per_s)
        .metric("requests_per_s", tp.base.requests_per_s);
    for leg in &tp.scaled {
        let n = leg.servers;
        result
            .metric(format!("events_{n}srv"), leg.events as f64)
            .metric(format!("events_per_s_{n}srv_serial"), leg.events_per_s)
            .metric(format!("requests_per_s_{n}srv"), leg.requests_per_s);
    }
    result
}
