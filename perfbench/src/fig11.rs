//! The Gsight(IRFR) set-up shared by `gsight_sched` and `placement`, and
//! the `gsight_sched` run itself.
//!
//! Both mirror `experiments::fig11_12::scheduling_run(Policy::Gsight(Irfr),
//! false, seed)` from public pieces, so that the profile book, corpus,
//! training, deployment and `run_until` can be timed apart. The private
//! `Planner`, `entry_for` and `ipc_threshold_for` of that module are
//! re-created below; the benchmark checks the resulting report against
//! `scheduling_run` byte for byte.

use crate::trace;
use crate::wrap::{PlaceLog, TimedPlacer};
use cluster::ClusterConfig;
use experiments::corpus::{generate_mixed, labeled_for, standard_profile_book, ProfileBook};
use gsight::{GsightConfig, GsightPredictor, LatencyIpcCurve, QosTarget, Scenario};
use platform::engine::ScaleConfig;
use platform::report::RunReport;
use platform::scale::{ClusterView, PlacementDecision, Placer};
use platform::{ArrivalSpec, Deployment, PlatformConfig, Simulation};
use sched::placer::{GsightPlacer, SlaSpec, WorkloadEntry};
use simcore::rng::seed_stream;
use simcore::{SimRng, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use workloads::azure_trace::RateProfile;
use workloads::loadgen::profile_arrivals;

/// Colocations per group in the training corpus (full size).
const CORPUS_PER_GROUP: usize = 120;
/// Simulated horizon of one scheduling run.
const HORIZON_S: f64 = 600.0;
/// The latency-sensitive workloads, with the QPS they are profiled at.
pub const LS: [&str; 2] = ["social-network", "e-commerce"];
/// The recurring SC/BG jobs.
pub const JOBS: [&str; 3] = ["matrix-multiplication", "video-processing", "dd"];

/// Profile book, labelled corpus and SLA thresholds for one seed.
pub struct Trained {
    /// The seed everything derives from.
    pub seed: u64,
    /// Solo profiles.
    pub book: ProfileBook,
    /// IPC-labelled colocation samples.
    pub labeled: Vec<(Scenario, f64)>,
    /// Social-network and e-commerce IPC thresholds.
    pub thresholds: [f64; 2],
    /// Colocation simulations run for the corpus.
    pub corpus_runs: usize,
}

/// Build the profile book and corpus for `seed`, as `scheduling_run` does.
pub fn train(seed: u64) -> Trained {
    let cluster = ClusterConfig::paper_testbed();
    let book = {
        let _span = trace::span("setup.profile");
        standard_profile_book(seed, false)
    };
    let corpus = {
        let _span = trace::span("setup.corpus");
        generate_mixed(
            CORPUS_PER_GROUP,
            &book,
            &cluster,
            seed_stream(seed, 1),
            false,
        )
    };
    let threshold = |name: &str, sla_ms: f64| {
        let points: Vec<(f64, f64)> = corpus
            .iter()
            .filter(|s| s.scenario.target.profile.workload == name)
            .filter(|s| s.ipc.is_finite() && s.p99_ms.is_finite())
            .map(|s| (s.ipc, s.p99_ms))
            .collect();
        LatencyIpcCurve::from_points(&points)
            .ipc_threshold(sla_ms, 8)
            .unwrap_or(book.get(name, 20.0).solo_ipc * 0.85)
    };
    let thresholds = [
        threshold(LS[0], workloads::socialnetwork::SLA_P99_MS),
        threshold(LS[1], workloads::ecommerce::SLA_P99_MS),
    ];
    Trained {
        seed,
        labeled: labeled_for(&corpus, QosTarget::Ipc),
        corpus_runs: corpus.len(),
        book,
        thresholds,
    }
}

impl Trained {
    /// A fresh IRFR bootstrapped on `samples`.
    fn fit(&self, samples: &[(Scenario, f64)]) -> GsightPredictor {
        let _span = trace::span("ml.fit");
        let mut predictor = GsightPredictor::new(GsightConfig::paper(QosTarget::Ipc, self.seed));
        predictor.bootstrap(samples);
        predictor
    }

    /// A Gsight placer around an IRFR trained on the whole corpus, with the
    /// fig11 workload mix and SLA thresholds registered.
    pub fn placer(&self) -> GsightPlacer {
        let mut placer = GsightPlacer::new(self.fit(&self.labeled));
        for (name, thr) in LS.iter().zip(self.thresholds) {
            placer.register(self.entry(name, 20.0, Some(thr)));
        }
        for name in JOBS {
            placer.register(self.entry(name, 0.0, None));
        }
        placer
    }

    fn entry(&self, name: &str, qps: f64, min_ipc: Option<f64>) -> WorkloadEntry {
        let pw = self.book.get(name, qps);
        WorkloadEntry {
            name: name.into(),
            class: pw.workload.class,
            profile: pw.profile.clone(),
            demands: pw.demands.clone(),
            sla: SlaSpec { min_ipc },
            instances: Vec::new(),
        }
    }

    /// Mean relative error (%) of an IRFR trained on four fifths of the
    /// corpus and tested on the held-out fifth (every fifth sample).
    pub fn pred_err_pct(&self) -> f64 {
        let (mut train, mut test) = (Vec::new(), Vec::new());
        for (i, s) in self.labeled.iter().enumerate() {
            if i % 5 == 4 {
                test.push(s.clone());
            } else {
                train.push(s.clone());
            }
        }
        experiments::fig9::mean_error(&self.fit(&train), &test) * 100.0
    }
}

/// Reservation-aware planning view for initial placement: each placed
/// instance is charged its mean demand as a phantom load, as fig11's
/// planner does (the live cluster looks empty before any task runs).
pub struct Planner {
    /// Mirrored server states.
    pub servers: Vec<cluster::ServerState>,
}

impl Planner {
    /// An empty mirror of `cluster`.
    pub fn new(cluster: &ClusterConfig) -> Self {
        Self {
            servers: cluster
                .servers
                .iter()
                .cloned()
                .map(cluster::ServerState::new)
                .collect(),
        }
    }

    /// Ask `placer` for `(workload, node)` and charge the decision; `None`
    /// when the placer refuses.
    pub fn try_place(
        &mut self,
        placer: &mut dyn Placer,
        workload: &workloads::Workload,
        node: usize,
    ) -> Option<PlacementDecision> {
        let spec = workload.graph.func(workloads::NodeId(node));
        let d = placer.place(&ClusterView::new(&self.servers), workload, node, spec)?;
        self.charge(spec, d);
        Some(d)
    }

    /// Like [`Planner::try_place`], but a refusal takes `fallback`.
    fn place(
        &mut self,
        placer: &mut dyn Placer,
        workload: &workloads::Workload,
        node: usize,
        fallback: PlacementDecision,
    ) -> PlacementDecision {
        let spec = workload.graph.func(workloads::NodeId(node));
        let d = placer
            .place(&ClusterView::new(&self.servers), workload, node, spec)
            .unwrap_or(fallback);
        self.charge(spec, d);
        d
    }

    fn charge(&mut self, spec: &workloads::FunctionSpec, d: PlacementDecision) {
        if let Some(ph) = spec.phases.first() {
            self.servers[d.server].add(cluster::InstanceLoad {
                demand: spec.mean_demand(),
                bounded: ph.bounded,
                sens: ph.sens,
                socket: d.socket,
            });
        }
    }
}

/// A scheduling simulation ready to run.
pub struct Prepared {
    sim: Simulation,
    place: Rc<RefCell<PlaceLog>>,
    ls_idx: [usize; 2],
}

/// Everything one scheduling run produces.
pub struct Outcome {
    /// The platform report.
    pub report: RunReport,
    /// Report indices of social network and e-commerce.
    pub ls_idx: [usize; 2],
    /// Engine events dispatched.
    pub events: u64,
    /// Instances deployed at the end.
    pub instances: usize,
    /// Host seconds inside `run_until`.
    pub run_s: f64,
    /// Every placement decision: initial placement and scale-outs.
    pub place: PlaceLog,
    /// Predictor calls, degraded decisions and probe timings.
    pub predictor_calls: usize,
    /// Decisions made without the predictor.
    pub degraded: usize,
    /// Host ms of each candidate probe (probe-profiled runs only).
    pub probe_ms: Vec<f64>,
}

/// Train a placer and deploy the fig11 mix. `profile_probes` times every
/// candidate probe inside the placer (traced runs).
pub fn prepare(tr: &Trained, run_seed: u64, profile_probes: bool) -> Prepared {
    let mut placer = tr.placer();
    let _span = trace::span("setup.deploy");
    let seed = run_seed;
    if profile_probes {
        placer.enable_probe_profiling();
    }
    let (mut placer, place) = TimedPlacer::new(Box::new(placer));
    let cluster = ClusterConfig::paper_testbed();
    let horizon = SimTime::from_secs(HORIZON_S);
    let mut config = PlatformConfig::paper_testbed(seed ^ 0x5C_ED);
    config.cluster = cluster.clone();
    let mut sim = Simulation::new(config);
    let mut rng = SimRng::new(seed ^ 0xFEED);
    let mut planner = Planner::new(&cluster);
    let mut ls_idx = [0; 2];
    for (slot, (name, base_rps)) in LS.iter().zip([35.0, 45.0]).enumerate() {
        let pw = tr.book.get(name, 20.0);
        let placement: Vec<Vec<PlacementDecision>> = pw
            .workload
            .graph
            .ids()
            .map(|id| {
                let fallback = PlacementDecision {
                    server: id.0 % cluster.num_servers(),
                    socket: 0,
                };
                vec![planner.place(&mut placer, &pw.workload, id.0, fallback)]
            })
            .collect();
        let arrivals = {
            let _span = trace::span("setup.arrivals");
            profile_arrivals(&RateProfile::azure_like(base_rps), horizon, &mut rng)
        };
        ls_idx[slot] = sim
            .deploy(Deployment {
                workload: pw.workload.clone(),
                placement,
                arrivals: ArrivalSpec::OpenLoop(arrivals),
            })
            .0;
    }
    for (i, name) in JOBS.iter().enumerate() {
        let pw = tr.book.get(name, 0.0);
        let submissions: Vec<SimTime> = (0..)
            .map(|k| SimTime::from_secs(10.0 + i as f64 * 15.0 + k as f64 * 150.0))
            .take_while(|t| *t < horizon)
            .collect();
        let fallback = PlacementDecision {
            server: i % cluster.num_servers(),
            socket: 0,
        };
        let d = planner.place(&mut placer, &pw.workload, 0, fallback);
        sim.deploy(Deployment {
            workload: pw.workload.clone(),
            placement: vec![vec![d]],
            arrivals: ArrivalSpec::Jobs(submissions),
        });
    }
    sim.set_placer(
        Box::new(placer),
        ScaleConfig {
            queue_per_instance: 1.5,
            busy_fraction: 0.75,
            max_instances_per_node: 24,
        },
    );
    Prepared { sim, place, ls_idx }
}

/// Run a prepared simulation to the horizon in one `run_until` call.
///
/// Not in slices: a later `run_until` call does not resume the 1 s collect
/// tick (the collect handler schedules the next tick only up to the current
/// call's end), so a run in 1 s slices takes one utilization sample and
/// almost no scale-out decisions, and its report differs.
pub fn run(p: Prepared) -> Outcome {
    let Prepared {
        mut sim,
        place,
        ls_idx,
    } = p;
    let t = Instant::now();
    {
        let _span = trace::span("engine.run_until");
        sim.run_until(SimTime::from_secs(HORIZON_S));
    }
    let run_s = t.elapsed().as_secs_f64();
    let gsight = sim
        .placer()
        .and_then(|p| p.as_any().downcast_ref::<GsightPlacer>())
        .expect("the simulation places with Gsight");
    let predictor_calls = gsight.predictor_calls;
    let degraded = gsight.degraded_decisions;
    let probe_ms = gsight
        .probe_profiler()
        .map(|p| p.samples(GsightPlacer::PROBE_STAGE).to_vec())
        .unwrap_or_default();
    let events = sim.events_processed();
    let instances = sim.instance_count();
    let place = place.borrow().clone();
    Outcome {
        report: sim.into_report(),
        ls_idx,
        events,
        instances,
        run_s,
        place,
        predictor_calls,
        degraded,
        probe_ms,
    }
}
