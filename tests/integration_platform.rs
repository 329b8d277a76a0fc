//! Platform-simulator integration invariants: conservation of requests,
//! agreement between the DAG analysis and the executor, propagation
//! effects, and bit-for-bit determinism across the full stack.

use platform::scale::PlacementDecision;
use platform::{ArrivalSpec, Deployment, PlatformConfig, Simulation};
use simcore::{SimRng, SimTime};
use workloads::loadgen::{poisson_arrivals, uniform_arrivals};

fn place_all(w: &workloads::Workload, server: usize) -> Vec<Vec<PlacementDecision>> {
    (0..w.graph.len())
        .map(|_| vec![PlacementDecision { server, socket: 0 }])
        .collect()
}

#[test]
fn request_conservation() {
    // Every arrival either completes within the horizon or stays in flight;
    // per-function completions never exceed arrivals.
    let mut sim = Simulation::new(PlatformConfig::paper_testbed(1));
    let w = workloads::socialnetwork::message_posting();
    let placement = place_all(&w, 0);
    let mut rng = SimRng::new(2);
    sim.deploy(Deployment {
        workload: w,
        placement,
        arrivals: ArrivalSpec::OpenLoop(poisson_arrivals(30.0, SimTime::from_secs(20.0), &mut rng)),
    });
    sim.run_until(SimTime::from_secs(40.0));
    let s = &sim.report().workloads[0];
    assert!(s.arrivals > 400);
    assert_eq!(s.completions, s.arrivals, "horizon slack lets all finish");
    for f in &s.functions {
        assert!(f.completions <= s.arrivals);
        assert_eq!(f.completions as usize, f.local_latencies_ms.len());
    }
}

#[test]
fn executor_matches_dag_analysis_for_every_workload() {
    // For each catalogued workload: one warm request on an idle cluster
    // must complete in the DAG's solo time plus gateway forwards.
    for w in [
        workloads::socialnetwork::message_posting(),
        workloads::ecommerce::browse_and_buy(),
        workloads::functionbench::feature_generation(),
    ] {
        let expected = w.critical_path_duration().as_millis();
        let edges = 2.0 * w.graph.len() as f64; // generous forward budget
        let mut sim = Simulation::new(PlatformConfig::paper_testbed(3));
        let placement = place_all(&w, 0);
        let name = w.name.clone();
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::OpenLoop(vec![
                SimTime::from_secs(1.0),
                SimTime::from_secs(200.0), // warm request
            ]),
        });
        sim.run_until(SimTime::from_secs(400.0));
        let lat = sim.report().workloads[0].e2e_latencies_ms[1];
        assert!(
            lat >= expected && lat <= expected + 0.4 * edges,
            "{name}: warm latency {lat} vs solo analysis {expected}"
        );
    }
}

#[test]
fn hotspot_throttling_reduces_downstream_arrival_rate() {
    // Saturate the entry function; downstream functions must then see
    // fewer invocations than arrivals (Observation 4's mechanism).
    let mut w = workloads::socialnetwork::message_posting();
    {
        let root = w.graph.roots()[0];
        let f = w.graph.func_mut(root);
        f.concurrency = 1;
        f.phases[0].duration = SimTime::from_millis(50.0); // cap ~20 rps
    }
    let mut sim = Simulation::new(PlatformConfig::paper_testbed(5));
    let placement = place_all(&w, 0);
    sim.deploy(Deployment {
        workload: w,
        placement,
        arrivals: ArrivalSpec::OpenLoop(uniform_arrivals(40.0, SimTime::from_secs(20.0))),
    });
    sim.run_until(SimTime::from_secs(20.0));
    let s = &sim.report().workloads[0];
    let entry_done = s.functions[0].completions;
    assert!(
        (entry_done as f64) < 0.7 * s.arrivals as f64,
        "entry should throttle: {} of {}",
        entry_done,
        s.arrivals
    );
    // Downstream functions can only see what the entry released.
    for f in &s.functions[1..] {
        assert!(f.completions <= entry_done);
    }
}

#[test]
fn whole_stack_determinism() {
    let run = |seed: u64| {
        let mut sim = Simulation::new(PlatformConfig::paper_testbed(seed));
        let w = workloads::ecommerce::browse_and_buy();
        let placement = place_all(&w, 0);
        let mut rng = SimRng::new(seed);
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::OpenLoop(poisson_arrivals(
                25.0,
                SimTime::from_secs(15.0),
                &mut rng,
            )),
        });
        sim.run_until(SimTime::from_secs(30.0));
        let r = sim.report();
        (
            r.workloads[0].e2e_latencies_ms.clone(),
            r.workloads[0].functions[1].metric_samples.clone(),
            r.gateway_forward_ms.clone(),
        )
    };
    assert_eq!(run(42), run(42));
    let (a, _, _) = run(42);
    let (b, _, _) = run(43);
    assert_ne!(a, b, "different seeds should differ");
}

#[test]
fn high_density_population_run() {
    // §1's premise exercised end-to-end: deploy 150 single-function
    // FunctionBench instances across the 8-node testbed, 60% of them LS
    // under open-loop Poisson load; the platform must stay conservative
    // (no lost requests) and the gateway's >110-instance degradation must
    // be visible in forward latencies.
    use workloads::functionbench::{dd, float_operation};
    use workloads::{Workload, WorkloadClass};

    let mut sim = Simulation::new(PlatformConfig::paper_testbed(18));
    let mut rng = SimRng::new(19);
    let horizon = SimTime::from_secs(20.0);
    for i in 0..150 {
        let placement = vec![vec![PlacementDecision {
            server: i % 8,
            socket: (i / 8) % 4,
        }]];
        let (workload, arrivals) = if i % 5 < 3 {
            // A sub-second float-op endpoint served as LS traffic.
            let f = float_operation();
            (
                Workload::new(format!("ls-{i}"), WorkloadClass::LatencySensitive, f.graph),
                ArrivalSpec::OpenLoop(poisson_arrivals(0.5, horizon, &mut rng)),
            )
        } else {
            // One BG job each. A few are 90 s `dd` runs that outlive the
            // run, so servers are still active at the last utilization
            // sample; the rest are sub-second float-op jobs.
            let w = if i % 30 == 4 { dd() } else { float_operation() };
            (
                Workload::new(format!("bg-{i}"), w.class, w.graph),
                ArrivalSpec::Jobs(vec![SimTime::from_secs((i % 10) as f64)]),
            )
        };
        sim.deploy(Deployment {
            workload,
            placement,
            arrivals,
        });
    }
    assert_eq!(sim.instance_count(), 150);
    sim.run_until(SimTime::from_secs(40.0));
    let r = sim.report();
    // Conservation across all 150 workloads.
    let mut total_arrivals = 0u64;
    let mut total_completions = 0u64;
    for w in &r.workloads {
        total_arrivals += w.arrivals;
        total_completions += w.completions;
    }
    assert!(
        total_arrivals > 300,
        "150 instances saw {total_arrivals} arrivals"
    );
    assert!(
        total_completions as f64 >= 0.95 * total_arrivals as f64,
        "{total_completions}/{total_arrivals} completed"
    );
    // 150 deployed instances sit past the gateway knee (110): mean forward
    // exceeds the unloaded 0.3 ms base.
    let fwd = &r.gateway_forward_ms;
    let mean = fwd.iter().sum::<f64>() / fwd.len() as f64;
    assert!(
        mean > 0.5,
        "gateway should be past its knee at 150 instances: mean {mean} ms"
    );
    // Function density on a full cluster is high (instances per core).
    // (Active servers shrink as BG jobs finish, so the per-active-core
    // density can exceed 1 — the high-density regime the paper targets.)
    let density = r.utilization.last().unwrap().function_density;
    assert!((0.4..=4.0).contains(&density), "density {density}");
}

#[test]
fn live_socket_migration_restores_victim_mid_run() {
    // The paper's Observation 5 control action, applied *during* a run:
    // the corunner is migrated to another socket halfway through, and the
    // victim's latencies in the second half must recover.
    let mut config = PlatformConfig::paper_testbed(9);
    config.cluster = cluster::ClusterConfig::homogeneous(1, cluster::ServerSpec::paper_node());
    let mut sim = Simulation::new(config);
    let victim = workloads::socialnetwork::message_posting();
    // Victim function ⑨ (get-followers) on socket 0, others on 1..3.
    let placement: Vec<Vec<PlacementDecision>> = (0..9)
        .map(|node| {
            vec![PlacementDecision {
                server: 0,
                socket: if node == 8 { 0 } else { 1 + node % 3 },
            }]
        })
        .collect();
    let mut rng = SimRng::new(10);
    sim.deploy(Deployment {
        workload: victim,
        placement,
        arrivals: ArrivalSpec::OpenLoop(poisson_arrivals(40.0, SimTime::from_secs(60.0), &mut rng)),
    });
    // Aggressor: matmul jobs on socket 0, resubmitted through the window.
    let mm = workloads::functionbench::matrix_multiplication();
    let mm_id = sim.deploy(Deployment {
        workload: mm,
        placement: vec![vec![PlacementDecision {
            server: 0,
            socket: 0,
        }]],
        arrivals: ArrivalSpec::Jobs(vec![SimTime::ZERO, SimTime::from_secs(125.0)]),
    });

    // First half: interfered.
    sim.run_until(SimTime::from_secs(30.0));
    let halfway = sim.report().workloads[0].functions[8]
        .local_latencies_ms
        .len();
    // Local control: move the aggressor's instances to socket 3.
    sim.migrate_node_socket(mm_id, 0, 3);
    sim.run_until(SimTime::from_secs(60.0));

    let lats = &sim.report().workloads[0].functions[8].local_latencies_ms;
    let before = simcore::percentile(&lats[halfway / 2..halfway], 90.0);
    let after = simcore::percentile(&lats[halfway + (lats.len() - halfway) / 2..], 90.0);
    assert!(
        after < before * 0.9,
        "migration should restore the victim: p90 {before} -> {after}"
    );
}

#[test]
fn keep_alive_controls_cold_starts() {
    let mut config = PlatformConfig::paper_testbed(7);
    config.keep_alive = SimTime::from_secs(30.0);
    let mut sim = Simulation::new(config);
    let w = workloads::functionbench::float_operation();
    let placement = place_all(&w, 0);
    // Three invocations: t=0 (cold), t=10 (warm), t=100 (idle > 30 s: cold).
    sim.deploy(Deployment {
        workload: w,
        placement,
        arrivals: ArrivalSpec::OpenLoop(vec![
            SimTime::ZERO,
            SimTime::from_secs(10.0),
            SimTime::from_secs(100.0),
        ]),
    });
    sim.run_until(SimTime::from_secs(150.0));
    let s = &sim.report().workloads[0];
    assert_eq!(s.completions, 3);
    assert_eq!(s.functions[0].cold_starts, 2);
}

/// A fig11-style run: the two LS services on diurnal arrivals spread over
/// the testbed, three SC/BG job streams, and the autoscaler (Worst Fit)
/// adding instances as queues build. Advanced to `horizon_s` through
/// `run_until` calls at every multiple of `slice_s`.
fn fig11_style_report(slice_s: f64, horizon_s: f64) -> platform::report::RunReport {
    use platform::engine::ScaleConfig;
    use workloads::azure_trace::RateProfile;
    use workloads::loadgen::profile_arrivals;

    let horizon = SimTime::from_secs(horizon_s);
    let mut sim = Simulation::new(PlatformConfig::paper_testbed(0xF1_611));
    let n = sim.servers().len();
    let mut rng = SimRng::new(11);
    for (i, (workload, rps)) in [
        (workloads::socialnetwork::message_posting(), 20.0),
        (workloads::ecommerce::browse_and_buy(), 30.0),
    ]
    .into_iter()
    .enumerate()
    {
        let placement = (0..workload.graph.len())
            .map(|node| {
                vec![PlacementDecision {
                    server: (node + i) % n,
                    socket: 0,
                }]
            })
            .collect();
        let arrivals = profile_arrivals(&RateProfile::azure_like(rps), horizon, &mut rng);
        sim.deploy(Deployment {
            workload,
            placement,
            arrivals: ArrivalSpec::OpenLoop(arrivals),
        });
    }
    for (i, workload) in [
        workloads::functionbench::matrix_multiplication(),
        workloads::functionbench::video_processing(),
        workloads::functionbench::dd(),
    ]
    .into_iter()
    .enumerate()
    {
        let submissions = (0..)
            .map(|k| SimTime::from_secs(10.0 + i as f64 * 15.0 + k as f64 * 30.0))
            .take_while(|t| *t < horizon)
            .collect();
        sim.deploy(Deployment {
            workload,
            placement: vec![vec![PlacementDecision {
                server: i % n,
                socket: 0,
            }]],
            arrivals: ArrivalSpec::Jobs(submissions),
        });
    }
    sim.set_placer(
        Box::new(baselines::WorstFit),
        ScaleConfig {
            queue_per_instance: 1.5,
            busy_fraction: 0.75,
            max_instances_per_node: 24,
        },
    );
    let slices = (horizon_s / slice_s).round() as u64;
    for k in 1..=slices {
        sim.run_until(SimTime::from_secs(k as f64 * slice_s));
    }
    sim.into_report()
}

#[test]
fn sliced_run_renders_the_same_report_as_one_call() {
    // `run_until` is resumable: one call to 60 s and sixty 1 s slices take
    // the same utilization samples, scale-outs and latencies, byte for byte.
    let whole = fig11_style_report(60.0, 60.0);
    let sliced = fig11_style_report(1.0, 60.0);
    assert_eq!(whole.utilization.len(), 60, "one sample per collect tick");
    assert!(
        whole.workloads.iter().map(|w| w.completions).sum::<u64>() > 1_000,
        "the run must carry real traffic"
    );
    assert_eq!(sliced.render_json(), whole.render_json());
}
