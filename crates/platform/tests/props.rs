//! Property-based tests of the platform engine: conservation, monotone
//! time, and determinism over randomly generated single-function workloads
//! and arrival patterns. Each property runs on a fixed number of cases;
//! case `c` draws its inputs from `SimRng::new(c)`, so a failure names the
//! case that reproduces it.

use platform::scale::PlacementDecision;
use platform::{ArrivalSpec, Deployment, PlatformConfig, Simulation};
use simcore::{SimRng, SimTime};
use workloads::dag::CallGraph;
use workloads::function::{FunctionSpec, PhaseSpec, Workload};
use workloads::WorkloadClass;

/// Cases per property.
const CASES: u64 = 32;

fn workload(duration_ms: u64, cpu: f64, concurrency: u32) -> Workload {
    let phase = PhaseSpec {
        duration: SimTime::from_micros(duration_ms * 1000),
        demand: cluster::Demand::new(cpu, cpu * 4.0, cpu * 2.0, 0.0, 0.0, 0.25),
        bounded: cluster::Boundedness::cpu_bound(),
        sens: cluster::Sensitivity::new(1.0, 1.0, 0.5),
        micro: cluster::microarch::MicroarchBaseline::generic(),
    };
    let mut f = FunctionSpec::single_phase("f", phase);
    f.concurrency = concurrency;
    Workload::new("w", WorkloadClass::LatencySensitive, CallGraph::single(f))
}

/// A `u64` drawn uniformly from `[lo, hi)`.
fn u64_in(rng: &mut SimRng, lo: u64, hi: u64) -> u64 {
    lo + rng.next_u64() % (hi - lo)
}

/// Between `lo` and `hi - 1` arrival times in `[0, horizon_us)` µs, sorted.
fn arrivals(rng: &mut SimRng, lo: usize, hi: usize, horizon_us: u64) -> Vec<SimTime> {
    let n = lo + rng.index(hi - lo);
    let mut times: Vec<SimTime> = (0..n)
        .map(|_| SimTime(u64_in(rng, 0, horizon_us)))
        .collect();
    times.sort();
    times
}

#[test]
fn conservation_and_positive_latencies() {
    for case in 0..CASES {
        let mut rng = SimRng::new(case);
        let duration_ms = u64_in(&mut rng, 1, 200);
        let cpu = rng.range_f64(0.1, 4.0);
        let concurrency = u64_in(&mut rng, 1, 8) as u32;
        let times = arrivals(&mut rng, 1, 40, 20_000_000);
        let seed = rng.next_u64();
        let w = workload(duration_ms, cpu, concurrency);
        let mut sim = Simulation::new(PlatformConfig::paper_testbed(seed));
        let n = times.len() as u64;
        sim.deploy(Deployment {
            workload: w,
            placement: vec![vec![PlacementDecision {
                server: 0,
                socket: 0,
            }]],
            arrivals: ArrivalSpec::OpenLoop(times),
        });
        // Generous horizon: every request must finish.
        sim.run_until(SimTime::from_secs(20.0 + 40.0 * duration_ms as f64));
        let s = &sim.report().workloads[0];
        assert_eq!(s.arrivals, n, "case {case}");
        assert_eq!(s.completions, n, "case {case}: all requests must complete");
        assert_eq!(s.e2e_latencies_ms.len(), n as usize, "case {case}");
        for &l in &s.e2e_latencies_ms {
            // Each latency covers at least the solo service time.
            assert!(
                l >= duration_ms as f64 - 1e-6,
                "case {case}: latency {l} < work {duration_ms}"
            );
        }
    }
}

#[test]
fn engine_deterministic() {
    for case in 0..CASES {
        let mut rng = SimRng::new(case);
        let duration_ms = u64_in(&mut rng, 1, 100);
        let times = arrivals(&mut rng, 1, 20, 5_000_000);
        let seed = rng.next_u64();
        let run = || {
            let w = workload(duration_ms, 1.0, 2);
            let mut sim = Simulation::new(PlatformConfig::paper_testbed(seed));
            sim.deploy(Deployment {
                workload: w,
                placement: vec![vec![PlacementDecision {
                    server: 0,
                    socket: 0,
                }]],
                arrivals: ArrivalSpec::OpenLoop(times.clone()),
            });
            sim.run_until(SimTime::from_secs(60.0));
            sim.report().workloads[0].e2e_latencies_ms.clone()
        };
        assert_eq!(run(), run(), "case {case}");
    }
}

#[test]
fn fifo_within_instance() {
    for case in 0..CASES {
        let mut rng = SimRng::new(case);
        let duration_ms = u64_in(&mut rng, 5, 50);
        let gap_us = u64_in(&mut rng, 0, 30_000);
        let seed = rng.next_u64();
        // Concurrency 1, uniform arrivals: completions must preserve
        // arrival order, so latencies are non-decreasing whenever the
        // queue is backed up and each is >= the service time.
        let w = workload(duration_ms, 0.5, 1);
        let mut sim = Simulation::new(PlatformConfig::paper_testbed(seed));
        let times: Vec<SimTime> = (0..10).map(|i| SimTime(i * gap_us)).collect();
        sim.deploy(Deployment {
            workload: w,
            placement: vec![vec![PlacementDecision {
                server: 0,
                socket: 0,
            }]],
            arrivals: ArrivalSpec::OpenLoop(times),
        });
        sim.run_until(SimTime::from_secs(30.0));
        let lats = &sim.report().workloads[0].e2e_latencies_ms;
        assert_eq!(lats.len(), 10, "case {case}");
        if gap_us as f64 / 1000.0 <= duration_ms as f64 {
            // Saturated: each successive request waits longer.
            for w in lats.windows(2) {
                assert!(
                    w[1] >= w[0] - 1e-6,
                    "case {case}: queue should grow: {lats:?}"
                );
            }
        }
    }
}
