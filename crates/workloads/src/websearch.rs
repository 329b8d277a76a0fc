//! A web-search LS workload — the third latency-sensitive application class
//! of paper Table 1 ("Websearch \[9\]": serverless information retrieval à la
//! Crane & Lin, ICTIR '17).
//!
//! Four functions: a query frontend that fans out to two index-shard
//! searchers in parallel (nested RPCs — the frontend blocks on both) and an
//! aggregator that ranks the merged postings. Shard searchers are the
//! memory-hungry hot spots: index lookups thrash the LLC, the classic
//! web-search profile.

use crate::class::WorkloadClass;
use crate::dag::{CallGraph, CallKind};
use crate::function::{FunctionSpec, PhaseSpec, Workload};
use cluster::microarch::MicroarchBaseline;
use cluster::{Boundedness, Demand, Sensitivity};
use simcore::SimTime;

/// p99 SLA used by the examples/tests for this workload (not a paper
/// number; chosen with the same ~2× headroom rule as the paper's SLAs).
pub const SLA_P99_MS: f64 = 120.0;

/// Canonical function names.
pub const FUNCTION_NAMES: [&str; 4] = [
    "query-frontend",
    "shard-search-0",
    "shard-search-1",
    "rank-aggregate",
];

fn func(
    name: &str,
    ms: f64,
    demand: Demand,
    sens: Sensitivity,
    micro: MicroarchBaseline,
) -> FunctionSpec {
    let work = PhaseSpec {
        duration: SimTime::from_millis(ms),
        demand,
        bounded: Boundedness::new(0.95, 0.0, 0.05),
        sens,
        micro,
    };
    let cold = PhaseSpec {
        duration: SimTime::from_millis(350.0),
        demand: Demand::new(
            0.4,
            2.0,
            1.0,
            50.0,
            4.0,
            demand.get(cluster::Resource::Memory),
        ),
        bounded: Boundedness::new(0.4, 0.6, 0.0),
        sens: Sensitivity::new(0.3, 0.3, 0.2),
        micro: MicroarchBaseline {
            ipc: 0.9,
            ..MicroarchBaseline::generic()
        },
    };
    FunctionSpec {
        name: name.into(),
        cold_start: Some(cold),
        phases: vec![work],
        memory_gb: demand.get(cluster::Resource::Memory),
        concurrency: 3,
    }
}

/// Build the four-function query workload.
pub fn query() -> Workload {
    let mut g = CallGraph::new();
    let frontend = g.add(func(
        "query-frontend",
        5.0,
        Demand::new(0.2, 0.8, 0.3, 0.0, 3.0, 0.2),
        Sensitivity::new(0.4, 0.4, 0.3),
        MicroarchBaseline {
            ipc: 1.9,
            ..MicroarchBaseline::generic()
        },
    ));
    let shard = |name: &str| {
        func(
            name,
            22.0,
            Demand::new(0.5, 6.0, 2.0, 0.0, 2.0, 0.35),
            // Index lookups: highly cache/bandwidth sensitive.
            Sensitivity::new(2.0, 2.2, 0.5),
            MicroarchBaseline {
                ipc: 0.8,
                l3_mpki: 7.0,
                l2_mpki: 10.0,
                dtlb_mpki: 2.5,
                ..MicroarchBaseline::generic()
            },
        )
    };
    let s0 = g.add(shard("shard-search-0"));
    let s1 = g.add(shard("shard-search-1"));
    let rank = g.add(func(
        "rank-aggregate",
        10.0,
        Demand::new(0.4, 2.0, 0.8, 0.0, 2.0, 0.25),
        Sensitivity::new(0.8, 0.8, 0.4),
        MicroarchBaseline {
            ipc: 1.5,
            ..MicroarchBaseline::generic()
        },
    ));
    // Frontend blocks on both shards; ranking runs after the frontend
    // returns with the merged postings.
    g.link(frontend, s0, CallKind::Nested);
    g.link(frontend, s1, CallKind::Nested);
    g.link(frontend, rank, CallKind::Async);
    Workload::new("web-search", WorkloadClass::LatencySensitive, g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape() {
        let w = query();
        assert_eq!(w.num_functions(), 4);
        for name in FUNCTION_NAMES {
            assert!(w.graph.find(name).is_some(), "missing {name}");
        }
        assert_eq!(w.class, WorkloadClass::LatencySensitive);
    }

    #[test]
    fn shards_run_in_parallel() {
        let w = query();
        // Solo latency: frontend 5 + max(shard 22, shard 22) + rank 10 = 37,
        // not 5 + 22 + 22 + 10 = 59.
        let solo = w.critical_path_duration().as_millis();
        assert!((solo - 37.0).abs() < 1e-6, "solo {solo}");
    }

    #[test]
    fn solo_fits_sla() {
        let w = query();
        assert!(w.critical_path_duration().as_millis() < SLA_P99_MS / 1.5);
    }

    #[test]
    fn shards_are_the_sensitive_functions() {
        let w = query();
        let shard = w.graph.func(w.graph.find("shard-search-0").unwrap());
        let front = w.graph.func(w.graph.find("query-frontend").unwrap());
        assert!(shard.phases[0].sens.llc > 4.0 * front.phases[0].sens.llc);
    }

    #[test]
    fn critical_path_is_frontend_shard_rank() {
        let w = query();
        let cp = w.graph.critical_path();
        assert!(cp.contains(&w.graph.find("query-frontend").unwrap()));
        assert!(cp.contains(&w.graph.find("rank-aggregate").unwrap()));
        // At least one shard is critical (both tie).
        assert!(
            cp.contains(&w.graph.find("shard-search-0").unwrap())
                || cp.contains(&w.graph.find("shard-search-1").unwrap())
        );
    }
}
