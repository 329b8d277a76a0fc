//! `chaos`: the hostile `fault_sweep` point (crash 2/min, slowdown 4/min)
//! on the 8-server testbed with every `obs` sink attached and no predictor.
//!
//! The simulation is assembled here from public pieces, in the same order
//! as `experiments::fault_sweep::chaos_run_scaled` at scale 1 on the serial
//! engine, so that set-up and `run_until` can be timed apart. The benchmark
//! checks the result against that function byte for byte.

use crate::trace;
use crate::wrap::{JournalTiming, PlaceLog, TimedJournal, TimedPlacer};
use baselines::WorstFit;
use experiments::fault_sweep::{sweep_fault_config, SweepPoint};
use experiments::journal_runs::{fault_sweep_spec, CHECKPOINT_EVERY_US};
use obs::journal::MemoryJournal;
use obs::Obs;
use platform::engine::ScaleConfig;
use platform::report::RunReport;
use platform::scale::PlacementDecision;
use platform::{ArrivalSpec, Deployment, PlatformConfig, ResilienceConfig, Simulation};
use simcore::SimTime;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use workloads::loadgen::uniform_arrivals;

/// The sweep point the workload runs: the hostile end of `fault_sweep`.
pub const POINT: SweepPoint = SweepPoint {
    crash_per_min: 2.0,
    slowdown_per_min: 4.0,
};

/// A chaos simulation ready to run.
pub struct Prepared {
    sim: Simulation,
    horizon: SimTime,
    place: Rc<RefCell<PlaceLog>>,
    journal: Option<Rc<RefCell<JournalTiming>>>,
    /// Host seconds of the set-up: `Simulation::new`, sinks, arrival
    /// generation and `deploy`.
    pub setup_s: f64,
}

/// Everything one chaos run produces.
pub struct Outcome {
    /// The platform report.
    pub report: RunReport,
    /// Journal bytes.
    pub journal: Vec<u8>,
    /// Fault log records.
    pub fault_events: usize,
    /// Engine events dispatched.
    pub events: u64,
    /// Instances deployed at the end.
    pub instances: usize,
    /// Host seconds inside `run_until`.
    pub run_s: f64,
    /// Placement calls the autoscaler made.
    pub place: PlaceLog,
    /// Journal record timing (traced runs only).
    pub journal_timing: Option<JournalTiming>,
}

/// The journal every chaos run writes: the `fault_sweep` header spec, so
/// `experiments::journal_runs` can replay and re-execute it.
pub fn journal_for(seed: u64, quick: bool) -> MemoryJournal {
    MemoryJournal::in_memory(
        &fault_sweep_spec(POINT, seed, quick),
        Some(CHECKPOINT_EVERY_US),
    )
}

/// Build the simulation for `seed`. `quick` selects the 60 s variant of
/// `fault_sweep` (used by the self-tests); the benchmark runs 300 s.
/// `traced` also times every journal record.
pub fn prepare(seed: u64, quick: bool, traced: bool) -> Prepared {
    let _span = trace::span("setup.deploy");
    let t0 = Instant::now();
    let horizon = SimTime::from_secs(if quick { 60.0 } else { 300.0 });
    let mut sim = Simulation::new(PlatformConfig::paper_testbed(seed));
    let journal: Box<dyn obs::JournalSink> = Box::new(journal_for(seed, quick));
    let (journal, journal_timing) = if traced {
        let (j, t) = TimedJournal::new(journal);
        (Box::new(j) as Box<dyn obs::JournalSink>, Some(t))
    } else {
        (journal, None)
    };
    sim.set_obs(Obs::telemetry_only().with_fault_log().with_journal(journal));
    let n = sim.servers().len();
    for (workload, rps) in [
        (workloads::socialnetwork::message_posting(), 30.0),
        (workloads::ecommerce::browse_and_buy(), 20.0),
    ] {
        let placement: Vec<Vec<PlacementDecision>> = workload
            .graph
            .ids()
            .map(|id| {
                vec![PlacementDecision {
                    server: id.0 % n,
                    socket: 0,
                }]
            })
            .collect();
        let arrivals = {
            let _span = trace::span("setup.arrivals");
            uniform_arrivals(rps, horizon)
        };
        sim.deploy(Deployment {
            workload,
            placement,
            arrivals: ArrivalSpec::OpenLoop(arrivals),
        });
    }
    let period = if quick { 20.0 } else { 30.0 };
    let submissions: Vec<SimTime> = (0..)
        .map(|k| SimTime::from_secs(5.0 + k as f64 * period))
        .take_while(|t| *t < horizon)
        .collect();
    sim.deploy(Deployment {
        workload: workloads::functionbench::dd(),
        placement: vec![vec![PlacementDecision {
            server: n - 1,
            socket: 0,
        }]],
        arrivals: ArrivalSpec::Jobs(submissions),
    });
    let (placer, place) = TimedPlacer::new(Box::new(WorstFit));
    sim.set_placer(
        Box::new(placer),
        ScaleConfig {
            queue_per_instance: 1.5,
            busy_fraction: 0.75,
            max_instances_per_node: 24,
        },
    );
    sim.set_resilience(ResilienceConfig {
        request_timeout: None,
        max_retries: 3,
        backoff_base: SimTime::from_millis(200.0),
        backoff_jitter: 0.5,
        shed_queue_depth: Some(256),
    });
    sim.set_faults(sweep_fault_config(POINT, seed));
    Prepared {
        sim,
        horizon,
        place,
        journal: journal_timing,
        setup_s: t0.elapsed().as_secs_f64(),
    }
}

/// Run a prepared simulation to its horizon with one `run_until` call (a
/// journaled run appends its final records at every call).
pub fn run(p: Prepared) -> Outcome {
    let Prepared {
        mut sim,
        horizon,
        place,
        journal,
        ..
    } = p;
    let t = Instant::now();
    {
        let _span = trace::span("engine.run_until");
        sim.run_until(horizon);
    }
    let run_s = t.elapsed().as_secs_f64();
    let mut bundle = sim.take_obs();
    let journal_bytes = bundle
        .journal
        .as_ref()
        .and_then(|j| j.as_any().downcast_ref::<MemoryJournal>())
        .map(|j| j.bytes().to_vec())
        .expect("chaos runs journal to memory");
    let fault_events = bundle.faults.take().map_or(0, |f| f.records().len());
    let events = sim.events_processed();
    let instances = sim.instance_count();
    let place = place.borrow().clone();
    Outcome {
        report: sim.into_report(),
        journal: journal_bytes,
        fault_events,
        events,
        instances,
        run_s,
        place,
        journal_timing: journal.map(|t| *t.borrow()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use experiments::fault_sweep::chaos_run_with_obs;

    /// The wrappers and the re-assembled set-up leave the report and the
    /// journal bytes exactly as the repository's own chaos run writes them.
    #[test]
    fn wrapped_run_matches_fault_sweep_byte_for_byte() {
        let seed = 7;
        let bundle = Obs::telemetry_only()
            .with_fault_log()
            .with_journal(Box::new(journal_for(seed, true)));
        let (reference, post) = chaos_run_with_obs(POINT, seed, true, bundle);
        let reference_journal = post
            .journal
            .as_ref()
            .and_then(|j| j.as_any().downcast_ref::<MemoryJournal>())
            .map(|j| j.bytes().to_vec())
            .expect("memory journal");
        for traced in [false, true] {
            let out = run(prepare(seed, true, traced));
            assert_eq!(out.report.render_json(), reference.report.render_json());
            assert_eq!(out.journal, reference_journal, "traced={traced}");
            assert_eq!(out.events, reference.events_processed);
            assert!(!out.place.ns.is_empty(), "the autoscaler placed nothing");
            assert_eq!(out.journal_timing.is_some(), traced);
        }
    }
}
