//! The run-artifact fold and journal replay.
//!
//! Every run fact the engine records is one [`JournalEvent`], and `apply`
//! is the one place such an event writes the [`RunReport`] and the
//! [`FaultLog`]. The engine applies each event as it emits it; [`replay`]
//! applies each record of a journal in one linear pass — no event queue, no
//! contention model, no RNG. Live and replayed artifacts are the same fold
//! of the same stream, so a replayed report renders exactly the bytes the
//! live run's report did ([`RunReport::render_json`]) and the replayed fault
//! log's JSONL and summary match the live ones. The telemetry snapshot is
//! the verbatim string the engine journaled at run end.

use crate::report::{FunctionSeries, RunReport, UtilizationSample, WorkloadSeries};
use metricsd::MetricVector;
use obs::faultlog::{intern_kind, FaultLog};
use obs::journal::{CheckpointState, JournalEvent, JournalRecord, PlacementKind};
use obs::FaultRecord;
use simcore::SimTime;

/// Everything a journal fold reconstructs.
#[derive(Debug)]
pub struct Replayed {
    /// The run report, field-for-field equal to the live run's.
    pub report: RunReport,
    /// The fault log, entry-for-entry equal to the live run's (empty if the
    /// run had no fault log attached).
    pub faults: FaultLog,
    /// The final telemetry snapshot (JSONL), verbatim from the journal, or
    /// `None` if the run had telemetry off.
    pub telemetry_jsonl: Option<String>,
    /// Checkpoint records encountered, in order.
    pub checkpoints: Vec<CheckpointState>,
    /// Number of records folded.
    pub records: usize,
}

fn workload_mut(report: &mut RunReport, wl: u32) -> Result<&mut WorkloadSeries, String> {
    report
        .workloads
        .get_mut(wl as usize)
        .ok_or_else(|| format!("event references undeployed workload {wl}"))
}

fn function_mut<'a>(
    report: &'a mut RunReport,
    wl: u32,
    node: u32,
    what: &str,
) -> Result<&'a mut FunctionSeries, String> {
    workload_mut(report, wl)?
        .functions
        .get_mut(node as usize)
        .ok_or_else(|| format!("{what} on unknown node {node} of workload {wl}"))
}

/// Apply one event at sim time `at_us` to the report and, when one is
/// attached, the fault log. Telemetry snapshots and checkpoints write
/// neither. Errors on events that reference workloads or nodes never
/// deployed, malformed metric samples, or fault kinds outside the engine's
/// known label set — all symptoms of a stream that did not come from this
/// engine.
pub(crate) fn apply(
    report: &mut RunReport,
    faults: Option<&mut FaultLog>,
    at_us: u64,
    event: JournalEvent,
) -> Result<(), String> {
    match event {
        JournalEvent::Deploy { wl, nodes, .. } => {
            if wl as usize != report.workloads.len() {
                return Err(format!(
                    "deploy of workload {wl} out of order (have {})",
                    report.workloads.len()
                ));
            }
            report.workloads.push(WorkloadSeries {
                functions: vec![FunctionSeries::default(); nodes as usize],
                ..Default::default()
            });
        }
        JournalEvent::Placement { kind, wl, node, .. } => {
            function_mut(report, wl, node, "placement")?;
            if kind == PlacementKind::ScaleOut {
                report
                    .scale_outs
                    .push((SimTime::from_micros(at_us), wl as usize, node as usize));
            }
        }
        JournalEvent::Arrival { wl, .. } => workload_mut(report, wl)?.arrivals += 1,
        JournalEvent::Shed { wl, .. } => workload_mut(report, wl)?.shed += 1,
        JournalEvent::GatewayForward { ms, .. } => report.gateway_forward_ms.push(ms),
        JournalEvent::ColdStart { wl, node, .. } => {
            function_mut(report, wl, node, "cold start")?.cold_starts += 1;
        }
        JournalEvent::TaskDone {
            wl, node, local_ms, ..
        } => {
            let f = function_mut(report, wl, node, "task done")?;
            f.local_latencies_ms.push(local_ms);
            f.completions += 1;
        }
        JournalEvent::Completed { wl, e2e_ms, .. } => {
            let w = workload_mut(report, wl)?;
            w.e2e_latencies_ms.push(e2e_ms);
            w.completions += 1;
        }
        JournalEvent::Retry { wl, .. } => workload_mut(report, wl)?.retries += 1,
        JournalEvent::Failed { wl, .. } => workload_mut(report, wl)?.failed += 1,
        JournalEvent::MetricSample { wl, node, values } => {
            let values: [f64; metricsd::NUM_METRICS] =
                values.as_slice().try_into().map_err(|_| {
                    format!(
                        "metric sample has {} values, expected {}",
                        values.len(),
                        metricsd::NUM_METRICS
                    )
                })?;
            function_mut(report, wl, node, "metric sample")?
                .metric_samples
                .push(MetricVector::from_array(values));
        }
        JournalEvent::Utilization {
            cpu,
            memory,
            density,
            instances,
        } => report.utilization.push(UtilizationSample {
            at: SimTime::from_micros(at_us),
            cpu,
            memory,
            function_density: density,
            instances: instances as usize,
        }),
        JournalEvent::Fault {
            kind,
            target,
            value,
        } => {
            let kind = intern_kind(&kind).ok_or_else(|| format!("unknown fault kind {kind:?}"))?;
            if let Some(log) = faults {
                log.push(FaultRecord {
                    at_ms: SimTime::from_micros(at_us).as_millis(),
                    kind,
                    target,
                    value,
                });
            }
        }
        JournalEvent::RunEnd { horizon_us } => report.horizon = SimTime::from_micros(horizon_us),
        JournalEvent::TelemetrySnapshot { .. } | JournalEvent::Checkpoint(_) => {}
    }
    Ok(())
}

/// Fold a parsed journal's records into run artifacts: `apply` once per
/// record, plus the journal-only telemetry snapshot and checkpoints. Errors
/// name the first record the fold rejects.
pub fn replay(records: &[JournalRecord]) -> Result<Replayed, String> {
    let mut report = RunReport::default();
    let mut faults = FaultLog::new();
    let mut telemetry_jsonl = None;
    let mut checkpoints = Vec::new();
    for rec in records {
        match &rec.event {
            // Last snapshot wins — the engine journals exactly one, at run
            // end, but resumed runs may carry an earlier one too.
            JournalEvent::TelemetrySnapshot { jsonl } => telemetry_jsonl = Some(jsonl.clone()),
            JournalEvent::Checkpoint(state) => checkpoints.push(state.clone()),
            _ => apply(&mut report, Some(&mut faults), rec.at_us, rec.event.clone())
                .map_err(|e| format!("record seq={}: {e}", rec.seq))?,
        }
    }
    Ok(Replayed {
        report,
        faults,
        telemetry_jsonl,
        checkpoints,
        records: records.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, at_us: u64, event: JournalEvent) -> JournalRecord {
        JournalRecord { seq, at_us, event }
    }

    #[test]
    fn fold_reconstructs_counters_and_series() {
        let records = vec![
            rec(
                0,
                0,
                JournalEvent::Deploy {
                    wl: 0,
                    nodes: 2,
                    name: "w".into(),
                },
            ),
            rec(
                1,
                0,
                JournalEvent::Placement {
                    kind: PlacementKind::Initial,
                    wl: 0,
                    node: 0,
                    server: 0,
                    socket: 0,
                },
            ),
            rec(2, 10, JournalEvent::Arrival { wl: 0, req: 0 }),
            rec(3, 20, JournalEvent::GatewayForward { req: 0, ms: 0.5 }),
            rec(
                4,
                30,
                JournalEvent::ColdStart {
                    wl: 0,
                    node: 0,
                    req: 0,
                },
            ),
            rec(
                5,
                90,
                JournalEvent::TaskDone {
                    wl: 0,
                    node: 0,
                    req: 0,
                    local_ms: 0.06,
                },
            ),
            rec(
                6,
                90,
                JournalEvent::Completed {
                    wl: 0,
                    req: 0,
                    e2e_ms: 0.09,
                },
            ),
            rec(
                7,
                1000,
                JournalEvent::Placement {
                    kind: PlacementKind::ScaleOut,
                    wl: 0,
                    node: 1,
                    server: 1,
                    socket: 0,
                },
            ),
            rec(8, 2000, JournalEvent::RunEnd { horizon_us: 2000 }),
        ];
        let r = replay(&records).expect("fold");
        assert_eq!(r.report.workloads.len(), 1);
        let w = &r.report.workloads[0];
        assert_eq!(w.arrivals, 1);
        assert_eq!(w.completions, 1);
        assert_eq!(w.e2e_latencies_ms, vec![0.09]);
        assert_eq!(w.functions[0].cold_starts, 1);
        assert_eq!(w.functions[0].completions, 1);
        assert_eq!(r.report.gateway_forward_ms, vec![0.5]);
        assert_eq!(
            r.report.scale_outs,
            vec![(SimTime::from_micros(1000), 0, 1)]
        );
        assert_eq!(r.report.horizon, SimTime::from_micros(2000));
        assert_eq!(r.records, 9);
    }

    #[test]
    fn fold_rejects_undeployed_workload() {
        let records = vec![rec(0, 0, JournalEvent::Arrival { wl: 3, req: 0 })];
        let err = replay(&records).unwrap_err();
        assert!(err.contains("undeployed workload 3"), "{err}");
    }

    #[test]
    fn fold_rejects_unknown_fault_kind() {
        let records = vec![rec(
            0,
            0,
            JournalEvent::Fault {
                kind: "gremlins".into(),
                target: -1,
                value: 0.0,
            },
        )];
        let err = replay(&records).unwrap_err();
        assert!(err.contains("unknown fault kind"), "{err}");
    }

    #[test]
    fn fold_rejects_malformed_metric_sample() {
        let records = vec![
            rec(
                0,
                0,
                JournalEvent::Deploy {
                    wl: 0,
                    nodes: 1,
                    name: "w".into(),
                },
            ),
            rec(
                1,
                0,
                JournalEvent::MetricSample {
                    wl: 0,
                    node: 0,
                    values: vec![1.0, 2.0],
                },
            ),
        ];
        let err = replay(&records).unwrap_err();
        assert!(err.contains("metric sample"), "{err}");
    }

    #[test]
    fn fault_fold_matches_live_push() {
        let records = vec![rec(
            0,
            1_500_000,
            JournalEvent::Fault {
                kind: "server_crash".into(),
                target: 2,
                value: 0.0,
            },
        )];
        let r = replay(&records).expect("fold");
        assert_eq!(r.faults.records().len(), 1);
        let f = &r.faults.records()[0];
        assert_eq!(f.kind, "server_crash");
        assert_eq!(f.at_ms, 1500.0);
        assert_eq!(f.target, 2);
    }
}
