//! Property-based tests for call-graph analysis invariants. Each property
//! runs on a fixed number of cases; case `c` draws its inputs from
//! `SimRng::new(c)`, so a failure names the case that reproduces it.

use simcore::{SimRng, SimTime};
use workloads::dag::{CallGraph, CallKind};
use workloads::function::{FunctionSpec, PhaseSpec};

/// Cases per property.
const CASES: u64 = 128;

fn func(name: String, ms: u64) -> FunctionSpec {
    FunctionSpec::single_phase(
        name,
        PhaseSpec {
            duration: SimTime::from_micros(ms * 1000),
            demand: cluster::Demand::new(0.5, 1.0, 1.0, 0.0, 0.0, 0.25),
            bounded: cluster::Boundedness::cpu_bound(),
            sens: cluster::Sensitivity::new(1.0, 1.0, 0.5),
            micro: cluster::microarch::MicroarchBaseline::generic(),
        },
    )
}

/// Build a random DAG of 2 to 9 nodes with durations in `[1, 500)` ms:
/// node i may link to node j > i (keeps it acyclic).
fn arb_dag(rng: &mut SimRng) -> (CallGraph, Vec<u64>) {
    let n = 2 + rng.index(8);
    let durations: Vec<u64> = (0..n).map(|_| 1 + rng.next_u64() % 499).collect();
    let pairs = n * (n - 1) / 2;
    let edges: Vec<bool> = (0..pairs).map(|_| rng.chance(0.5)).collect();
    let kinds: Vec<bool> = (0..pairs).map(|_| rng.chance(0.5)).collect();
    let mut g = CallGraph::new();
    let ids: Vec<_> = durations
        .iter()
        .enumerate()
        .map(|(i, &ms)| g.add(func(format!("f{i}"), ms)))
        .collect();
    let mut e = 0;
    let mut has_nested_parent = vec![false; n];
    let mut has_async_parent = vec![false; n];
    for i in 0..n {
        for j in (i + 1)..n {
            if edges[e] {
                // Respect the platform's constraint: a node has
                // either async parents or one nested parent.
                let nested = kinds[e] && !has_async_parent[j] && !has_nested_parent[j];
                if nested {
                    g.link(ids[i], ids[j], CallKind::Nested);
                    has_nested_parent[j] = true;
                } else if !has_nested_parent[j] {
                    g.link(ids[i], ids[j], CallKind::Async);
                    has_async_parent[j] = true;
                }
            }
            e += 1;
        }
    }
    (g, durations)
}

#[test]
fn critical_path_bounded() {
    for case in 0..CASES {
        let (g, durations) = arb_dag(&mut SimRng::new(case));
        let total: u64 = durations.iter().sum();
        let longest = *durations.iter().max().unwrap();
        let cp = g.critical_path_duration().as_millis();
        assert!(
            cp >= longest as f64 - 1e-9,
            "case {case}: cp {cp} < longest node {longest}"
        );
        assert!(
            cp <= total as f64 + 1e-9,
            "case {case}: cp {cp} > serial total {total}"
        );
    }
}

#[test]
fn topo_order_is_valid() {
    for case in 0..CASES {
        let (g, _) = arb_dag(&mut SimRng::new(case));
        let order = g.topo_order().expect("acyclic by construction");
        assert_eq!(order.len(), g.len(), "case {case}");
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        for id in g.ids() {
            for &(child, _) in g.children(id) {
                assert!(pos[&id] < pos[&child], "case {case}");
            }
        }
    }
}

#[test]
fn solo_schedule_consistent() {
    for case in 0..CASES {
        let (g, _) = arb_dag(&mut SimRng::new(case));
        let t = g.solo_schedule();
        for (i, timing) in t.iter().enumerate() {
            assert!(timing.service_end >= timing.start, "case {case}");
            assert!(timing.completion >= timing.service_end, "case {case}");
            // A child never starts before its gate.
            for &(p, kind) in g.parents(workloads::NodeId(i)) {
                let gate = match kind {
                    CallKind::Async => t[p.0].completion,
                    CallKind::Nested => t[p.0].service_end,
                };
                assert!(timing.start >= gate, "case {case}: node {i}");
            }
        }
    }
}

#[test]
fn critical_path_nodes_exist() {
    for case in 0..CASES {
        let (g, _) = arb_dag(&mut SimRng::new(case));
        let cp = g.critical_path();
        assert!(!cp.is_empty(), "case {case}");
        for id in cp {
            assert!(id.0 < g.len(), "case {case}");
        }
    }
}
