//! Property-based tests for the contention model's physical invariants.
//! Each property runs on a fixed number of cases; case `c` draws its inputs
//! from `SimRng::new(c)`, so a failure names the case that reproduces it.

use cluster::{Boundedness, Demand, InstanceLoad, Sensitivity, ServerSpec, ServerState};
use simcore::SimRng;

/// Cases per property.
const CASES: u64 = 128;

/// A random instance load homed on a socket below `sockets`.
fn load(rng: &mut SimRng, sockets: usize) -> InstanceLoad {
    let cpu = rng.range_f64(0.1, 6.0);
    let membw = rng.range_f64(0.0, 40.0);
    let llc = rng.range_f64(0.0, 15.0);
    let disk = rng.range_f64(0.0, 300.0);
    let net = rng.range_f64(0.0, 600.0);
    let mem = rng.range_f64(0.1, 4.0);
    let sens_membw = rng.range_f64(0.0, 2.0);
    let sens_llc = rng.range_f64(0.0, 2.0);
    let sens_smt = rng.range_f64(0.0, 1.0);
    InstanceLoad {
        demand: Demand::new(cpu, membw, llc, disk, net, mem),
        bounded: Boundedness::new(0.6, 0.2, 0.2),
        sens: Sensitivity::new(sens_membw, sens_llc, sens_smt),
        socket: rng.index(sockets),
    }
}

/// Between `lo` and `hi - 1` random loads on a four-socket server.
fn loads(rng: &mut SimRng, lo: usize, hi: usize) -> Vec<InstanceLoad> {
    let n = lo + rng.index(hi - lo);
    (0..n).map(|_| load(rng, 4)).collect()
}

#[test]
fn slowdown_at_least_one() {
    for case in 0..CASES {
        let mut rng = SimRng::new(case);
        let loads = loads(&mut rng, 1, 8);
        let mut s = ServerState::new(ServerSpec::paper_node());
        for l in &loads {
            s.add(*l);
        }
        let c = s.contention();
        for l in &loads {
            let ic = c.instance(l);
            assert!(
                ic.slowdown >= 1.0 - 1e-9,
                "case {case}: slowdown {}",
                ic.slowdown
            );
            assert!(ic.mem_factor >= 1.0 - 1e-9, "case {case}");
            assert!(ic.cpu_stretch >= 1.0 - 1e-9, "case {case}");
        }
    }
}

#[test]
fn solo_instance_exactly_unaffected() {
    for case in 0..CASES {
        let load = load(&mut SimRng::new(case), 4);
        let mut s = ServerState::new(ServerSpec::paper_node());
        s.add(load);
        let ic = s.contention().instance(&load);
        assert!(
            (ic.slowdown - 1.0).abs() < 1e-9,
            "case {case}: solo slowdown {}",
            ic.slowdown
        );
    }
}

#[test]
fn adding_corunner_never_speeds_up_victim() {
    for case in 0..CASES {
        let mut rng = SimRng::new(case);
        // Single-socket server: all on socket 0 so everything interacts.
        let v = load(&mut rng, 1);
        let c1 = load(&mut rng, 1);
        let c2 = load(&mut rng, 1);

        let mut s = ServerState::new(ServerSpec::small());
        s.add(v);
        s.add(c1);
        let before = s.contention().instance(&v).slowdown;
        s.add(c2);
        let after = s.contention().instance(&v).slowdown;
        assert!(
            after >= before - 1e-9,
            "case {case}: adding load sped victim up: {before} -> {after}"
        );
    }
}

#[test]
fn cross_socket_cpu_membw_isolated() {
    for case in 0..CASES {
        let mut rng = SimRng::new(case);
        // Disk/net/memory are server-wide, so zero them to test the
        // socket-local dimensions in isolation.
        let mut v = load(&mut rng, 1);
        v.demand.set(cluster::Resource::Disk, 0.0);
        v.demand.set(cluster::Resource::Net, 0.0);
        v.demand.set(cluster::Resource::Memory, 0.1);
        let mut a = load(&mut rng, 1);
        a.socket = 1;
        a.demand.set(cluster::Resource::Disk, 0.0);
        a.demand.set(cluster::Resource::Net, 0.0);
        a.demand.set(cluster::Resource::Memory, 0.1);

        let mut s = ServerState::new(ServerSpec::dual_socket());
        s.add(v);
        s.add(a);
        let ic = s.contention().instance(&v);
        assert!(
            (ic.slowdown - 1.0).abs() < 1e-9,
            "case {case}: cross-socket leak: {}",
            ic.slowdown
        );
    }
}

#[test]
fn contention_deterministic() {
    for case in 0..CASES {
        let loads = loads(&mut SimRng::new(case), 1, 6);
        let build = || {
            let mut s = ServerState::new(ServerSpec::paper_node());
            for l in &loads {
                s.add(*l);
            }
            loads
                .iter()
                .map(|l| s.contention().instance(l).slowdown)
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build(), "case {case}");
    }
}
