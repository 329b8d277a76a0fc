//! `placement`: one caller asks the Gsight placer for placements in a
//! closed loop on the 8-server testbed, with no engine running.
//!
//! Each accepted decision charges its mean demand as a phantom load, as
//! fig11's planner does. When a decision is refused, the fullest server is
//! drained: the placer hears `note_server_down` and the server's state is
//! cleared, so occupancy stays in a steady band instead of saturating.

use crate::fig11::{Planner, Trained, JOBS, LS};
use crate::wrap::{PlaceLog, TimedPlacer};
use cluster::{ClusterConfig, Resource, ServerState};
use platform::scale::Placer;
use sched::placer::GsightPlacer;
use simcore::rng::seed_stream;
use simcore::SimRng;
use workloads::Workload;

/// Decisions asked per round.
pub const DECISIONS: usize = 2000;

/// What one round of [`DECISIONS`] decisions produced.
pub struct Round {
    /// Host time of every decision, and the refusals.
    pub place: PlaceLog,
    /// Mean over decisions of instances per active core afterwards.
    pub density_mean: f64,
    /// FNV-1a digest of every answer, in order (refusals included).
    pub digest: u64,
    /// Predictor calls the placer made.
    pub predictor_calls: usize,
    /// Host ms of each candidate probe (probe-profiled rounds only).
    pub probe_ms: Vec<f64>,
}

/// The fig11 mix: social network and e-commerce, then the three jobs.
pub fn mix(tr: &Trained) -> Vec<Workload> {
    LS.iter()
        .map(|n| tr.book.get(n, 20.0).workload.clone())
        .chain(JOBS.iter().map(|n| tr.book.get(n, 0.0).workload.clone()))
        .collect()
}

/// The request sequence for `seed`: `(workload in mix, call-graph node)`.
pub fn requests(mix: &[Workload], seed: u64) -> Vec<(usize, usize)> {
    let mut rng = SimRng::new(seed_stream(seed, 0x91AC));
    (0..DECISIONS)
        .map(|_| {
            let w = rng.index(mix.len());
            (w, rng.index(mix[w].graph.len()))
        })
        .collect()
}

/// Answer every request with `placer`, starting from an empty cluster.
pub fn run(
    placer: GsightPlacer,
    mix: &[Workload],
    requests: &[(usize, usize)],
    profile_probes: bool,
) -> Round {
    let mut placer = placer;
    if profile_probes {
        placer.enable_probe_profiling();
    }
    let (mut timed, log) = TimedPlacer::new(Box::new(placer));
    let cluster = ClusterConfig::paper_testbed();
    let mut planner = Planner::new(&cluster);
    let mut instances = vec![0usize; cluster.num_servers()];
    let mut density_sum = 0.0;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for &(w, node) in requests {
        let answer = planner.try_place(&mut timed, &mix[w], node);
        match answer {
            Some(d) => instances[d.server] += 1,
            None => {
                let fullest = (0..instances.len())
                    .max_by(|&a, &b| cpu(&planner.servers[a]).total_cmp(&cpu(&planner.servers[b])))
                    .expect("the testbed has servers");
                timed.note_server_down(fullest);
                planner.servers[fullest] = ServerState::new(cluster.servers[fullest].clone());
                instances[fullest] = 0;
            }
        }
        let word = answer.map_or(u64::MAX, |d| (d.server as u64) << 8 | d.socket as u64);
        for b in word.to_le_bytes() {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let active_cores: u32 = (0..instances.len())
            .filter(|&s| instances[s] > 0)
            .map(|s| cluster.servers[s].cores)
            .sum();
        if active_cores > 0 {
            density_sum += instances.iter().sum::<usize>() as f64 / f64::from(active_cores);
        }
    }
    let gsight = timed
        .as_any()
        .downcast_ref::<GsightPlacer>()
        .expect("the loop places with Gsight");
    let place = log.borrow().clone();
    Round {
        place,
        density_mean: density_sum / requests.len() as f64,
        digest,
        predictor_calls: gsight.predictor_calls,
        probe_ms: gsight
            .probe_profiler()
            .map(|p| p.samples(GsightPlacer::PROBE_STAGE).to_vec())
            .unwrap_or_default(),
    }
}

fn cpu(s: &ServerState) -> f64 {
    s.total_demand().get(Resource::Cpu)
}
