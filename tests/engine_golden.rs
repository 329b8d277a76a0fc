//! Engine golden: FNV-1a fingerprints of every byte-stable artifact of the
//! 20-seed quick chaos matrix (fault injection on and off) and of the quick
//! fig11 Gsight(IRFR) scheduling run, compared against
//! `tests/golden/engine_fingerprints.txt`.
//!
//! The file pins the simulated outcome of the event engine: any change to
//! event ordering, contention re-timing or fault application that moves a
//! single byte of a report, telemetry stream or fault log fails here. Engine
//! optimisations must leave it untouched. To regenerate it after an
//! intended behaviour change, run
//!
//! ```text
//! GSIGHT_BLESS_GOLDEN=1 cargo test -p experiments --test engine_golden
//! ```
//!
//! and explain the diff in the commit.

use experiments::fault_sweep::{chaos_run_with_obs, SweepPoint};
use experiments::fig11_12::{scheduling_run_observed, Policy};
use mlcore::ModelKind;
use obs::Obs;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/engine_fingerprints.txt"
);

/// fig11's own seed (`repro fig11 --quick`).
const FIG11_SEED: u64 = 0xF1_611;

const POINTS: [(&str, SweepPoint); 2] = [
    (
        "off",
        SweepPoint {
            crash_per_min: 0.0,
            slowdown_per_min: 0.0,
        },
    ),
    (
        "on",
        SweepPoint {
            crash_per_min: 2.0,
            slowdown_per_min: 4.0,
        },
    ),
];

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn chaos_line(faults: &str, point: SweepPoint, seed: u64) -> String {
    let (out, post) = chaos_run_with_obs(point, seed, true, Obs::telemetry_only().with_fault_log());
    let telemetry = post
        .telemetry
        .as_ref()
        .map(|t| t.to_jsonl())
        .unwrap_or_default();
    format!(
        "chaos faults={faults} seed={seed} report={:016x} telemetry={:016x} faultlog={:016x}",
        fnv(out.report.render_json().as_bytes()),
        fnv(telemetry.as_bytes()),
        fnv(out.faults.to_jsonl().as_bytes()),
    )
}

fn fig11_line() -> String {
    let out = scheduling_run_observed(Policy::Gsight(ModelKind::Irfr), true, FIG11_SEED, true);
    let telemetry = out
        .telemetry
        .as_ref()
        .map(|t| t.to_jsonl())
        .unwrap_or_default();
    format!(
        "fig11 gsight-irfr quick report={:016x} telemetry={:016x}",
        fnv(out.report.render_json().as_bytes()),
        fnv(telemetry.as_bytes()),
    )
}

#[test]
fn engine_artifacts_match_golden_fingerprints() {
    let cases: Vec<(&str, SweepPoint, u64)> = POINTS
        .iter()
        .flat_map(|&(name, point)| (0..20u64).map(move |seed| (name, point, seed)))
        .collect();
    let mut lines =
        simcore::par::par_map(cases, |(name, point, seed)| chaos_line(name, point, seed));
    lines.push(fig11_line());
    let got = lines.join("\n") + "\n";

    if std::env::var_os("GSIGHT_BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("read golden");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "engine artifacts diverged from the golden");
    }
    assert_eq!(got, want, "golden line count differs");
}
