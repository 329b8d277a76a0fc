//! Property-based tests for the overlap coding and feature assembly.
//! Each property runs on a fixed number of cases; case `c` draws its inputs
//! from `SimRng::new(c)`, so a failure names the case that reproduces it.

use cluster::Demand;
use gsight::coding::{spatial_utilization_code, CodingConfig};
use gsight::features::{feature_dim, featurize};
use gsight::{ColoWorkload, Scenario};
use metricsd::{FunctionProfile, Metric, MetricVector, ProfileSample, WorkloadProfile};
use simcore::{SimRng, SimTime};
use workloads::WorkloadClass;

/// Cases per property.
const CASES: u64 = 128;

fn colo(ipcs: Vec<f64>, placement: Vec<usize>) -> ColoWorkload {
    let profile = WorkloadProfile::new(
        "w",
        ipcs.iter()
            .enumerate()
            .map(|(i, &ipc)| {
                let mut m = MetricVector::zero();
                m.set(Metric::Ipc, ipc);
                FunctionProfile::new(
                    format!("f{i}"),
                    vec![ProfileSample {
                        at: SimTime::ZERO,
                        metrics: m,
                    }],
                    false,
                )
            })
            .collect(),
    );
    let demands = vec![Demand::new(1.0, 2.0, 1.0, 0.0, 0.0, 0.5); ipcs.len()];
    ColoWorkload::new(profile, WorkloadClass::LatencySensitive, demands, placement)
}

/// Between 1 and 5 IPC values in `[0.1, 3.0)`.
fn ipcs(rng: &mut SimRng) -> Vec<f64> {
    let n = 1 + rng.index(5);
    (0..n).map(|_| rng.range_f64(0.1, 3.0)).collect()
}

/// A random co-located workload of 1 to 5 functions over `num_servers`.
fn arb_colo(rng: &mut SimRng, num_servers: usize) -> ColoWorkload {
    let ipcs = ipcs(rng);
    let placement = ipcs.iter().map(|_| rng.index(num_servers)).collect();
    colo(ipcs, placement)
}

/// Up to two random co-runners over four servers.
fn arb_others(rng: &mut SimRng) -> Vec<ColoWorkload> {
    let n = rng.index(3);
    (0..n).map(|_| arb_colo(rng, 4)).collect()
}

#[test]
fn feature_vector_has_fixed_dimension() {
    for case in 0..CASES {
        let mut rng = SimRng::new(case);
        let target = arb_colo(&mut rng, 4);
        let others = arb_others(&mut rng);
        let config = CodingConfig {
            num_servers: 4,
            max_workloads: 4,
        };
        let s = Scenario::new(target, others, 4);
        let x = featurize(&s, &config);
        assert_eq!(x.len(), feature_dim(&config), "case {case}");
    }
}

#[test]
fn empty_servers_code_to_zero_rows() {
    for case in 0..CASES {
        let w = arb_colo(&mut SimRng::new(case), 6);
        let u = spatial_utilization_code(&w, 6);
        let used = w.servers();
        for (server, row) in u.iter().enumerate() {
            if !used.contains(&server) {
                assert!(
                    row.iter().all(|&v| v == 0.0),
                    "case {case}: server {server} not zeroed"
                );
            }
        }
    }
}

#[test]
fn virtual_function_mean_is_bounded() {
    for case in 0..CASES {
        let ipcs = ipcs(&mut SimRng::new(case));
        // All functions on one server: the row is the mean of their IPCs.
        let n = ipcs.len();
        let w = colo(ipcs.clone(), vec![0; n]);
        let u = spatial_utilization_code(&w, 1);
        let lo = ipcs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ipcs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(u[0][0] >= lo - 1e-9 && u[0][0] <= hi + 1e-9, "case {case}");
    }
}

#[test]
fn featurize_deterministic() {
    for case in 0..CASES {
        let mut rng = SimRng::new(case);
        let target = arb_colo(&mut rng, 4);
        let others = arb_others(&mut rng);
        let config = CodingConfig {
            num_servers: 4,
            max_workloads: 4,
        };
        let s = Scenario::new(target, others, 4);
        assert_eq!(
            featurize(&s, &config),
            featurize(&s, &config),
            "case {case}"
        );
    }
}

#[test]
fn slot_padding_is_zero() {
    for case in 0..CASES {
        let target = arb_colo(&mut SimRng::new(case), 4);
        let config = CodingConfig {
            num_servers: 4,
            max_workloads: 5,
        };
        let s = Scenario::new(target, vec![], 4);
        let x = featurize(&s, &config);
        let per_slot = 2 * 4 * 16;
        // Slots 1..5 all zero.
        assert!(
            x[per_slot..5 * per_slot].iter().all(|&v| v == 0.0),
            "case {case}"
        );
    }
}
