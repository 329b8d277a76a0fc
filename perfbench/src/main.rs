//! gsight-rs benchmark: three workloads measured end to end, and layer by
//! layer in a separate traced run. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload chaos|gsight_sched|placement --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`,
//! with the end-to-end metrics under `--trace 0` and the per-layer metrics
//! under `--trace 1`. A failed output check prints the reason on standard
//! error and exits with status 1.

mod calib;
mod chaos;
mod fig11;
mod placement;
mod stats;
mod trace;
mod wrap;

use calib::Calibrator;
use stats::{median, percentile, quartiles};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use wrap::PlaceLog;

/// Seed of `repro fig11`, the experiment `gsight_sched` reproduces.
const FIG11_SEED: u64 = 0xF1_611;
/// IRFR trainings per run of `gsight_sched` and `placement`: from the fig11
/// seed and seeds derived from it, the same in every run. `setup_s` is the
/// median of their set-up times. The run seed varies only the traffic and
/// the placement requests: a training seed decides whether Gsight packs
/// densely or sparsely (see README), which would otherwise swing host
/// timings by 2.5x between runs.
const TRAININGS: usize = 3;
/// Distinct traffic seeds per `gsight_sched` run, spread over the trainings.
const SCHED_RUNS: usize = 9;
/// Distinct request sequences per `placement` run.
const PLACEMENT_ROUNDS: usize = 12;
/// Distinct seeds per `chaos` run (its set-up is cheap, so more seeds
/// steady the simulated outcomes).
const CHAOS_SEEDS: usize = 24;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !["chaos", "gsight_sched", "placement"].contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}"));
                }
                workload = Some(value)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

type Metric = (&'static str, f64, &'static str);
/// A figure kept out of the JSON line; `None` where it does not apply.
type Extra = (&'static str, Option<f64>, &'static str);

/// What a workload hands back.
#[derive(Default)]
struct Output {
    /// Operations attempted (requests arrived, or placements asked), over
    /// one run of each of the workload's inputs, so a seed always gives the
    /// same count however many repeats the host's speed allows.
    attempted: u64,
    /// Operations that failed (shed or failed requests, refused placements),
    /// counted over the same runs as `attempted`.
    failed: u64,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    /// Figures printed for the reader but kept out of the JSON line:
    /// simulated outcomes that not every workload has (`None` where one
    /// does not apply), and the raw host times before calibration.
    extra: Vec<Extra>,
    notes: Vec<String>,
}

/// Seed of the `k`-th input of a run: the given seed, then derived ones.
fn sub_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        seed
    } else {
        simcore::rng::seed_stream(seed, k as u64)
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Peak resident set of this process, MiB, less the calibration table.
fn peak_rss_mb(cal: &Calibrator) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0 - cal.table_mb())
}

fn us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 * 1e-3).collect()
}

/// How an iteration of the measured loop is used.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// Before measuring: its timings are not reported, as it runs while the
    /// allocator and caches are still cold.
    Warmup,
    /// Timed without spans: the end-to-end numbers.
    Untraced,
    /// Timed with spans and wrappers: the per-layer numbers.
    Traced,
}

/// Run `step(k, Warmup)` for `k` in `0..warm`, then cycle `step(k, pass)`
/// over the measured inputs `0..n` until `seconds` have passed since the
/// start, completing at least one cycle. With `--trace 1`, whole cycles
/// alternate traced and untraced, so both see the same inputs, and at least
/// one of each runs. The calibration kernel runs after every step.
fn passes(
    args: &Args,
    cal: &mut Calibrator,
    warm: usize,
    n: usize,
    mut step: impl FnMut(usize, Pass) -> Result<(), String>,
) -> Result<(), String> {
    let started = Instant::now();
    for k in 0..warm {
        step(k, Pass::Warmup)?;
        cal.tick();
    }
    let min = if args.trace { 2 * n } else { n };
    let mut i = 0;
    while i < min || started.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && (i / n).is_multiple_of(2);
        step(i % n, if traced { Pass::Traced } else { Pass::Untraced })?;
        cal.tick();
        i += 1;
    }
    Ok(())
}

/// Simulated outcomes of one run, with request conservation checked.
#[derive(Clone, Copy)]
struct SimSummary {
    arrivals: u64,
    completions: u64,
    shed: u64,
    failed: u64,
    retries: u64,
    p99_ms: f64,
    sla: f64,
    density: f64,
}

fn summarize(report: &platform::report::RunReport, ls: [usize; 2]) -> Result<SimSummary, String> {
    let mut s = SimSummary {
        arrivals: 0,
        completions: 0,
        shed: 0,
        failed: 0,
        retries: 0,
        // p99 end-to-end latency over the latency-sensitive workloads.
        p99_ms: percentile(
            &ls.iter()
                .flat_map(|&i| report.workloads[i].e2e_latencies_ms.iter().copied())
                .collect::<Vec<_>>(),
            99.0,
        ),
        // Fig. 12: the fraction of 50-request windows whose p99 met the
        // SLA, the lower of social network and e-commerce.
        sla: report
            .sla_satisfaction(ls[0], workloads::socialnetwork::SLA_P99_MS, 50)
            .min(report.sla_satisfaction(ls[1], workloads::ecommerce::SLA_P99_MS, 50)),
        density: report.density_cdf().mean(),
    };
    for (i, w) in report.workloads.iter().enumerate() {
        check(w.completions + w.shed + w.failed <= w.arrivals, || {
            format!(
                "workload {i}: completions {} + shed {} + failed {} exceed arrivals {}",
                w.completions, w.shed, w.failed, w.arrivals
            )
        })?;
        s.arrivals += w.arrivals;
        s.completions += w.completions;
        s.shed += w.shed;
        s.failed += w.failed;
        s.retries += w.retries;
    }
    check(s.completions > 0, || "no request completed".into())?;
    Ok(s)
}

/// Raw host-time medians of a run, before calibration.
struct HostTimes {
    setup_s: f64,
    req_per_s: f64,
    decide_p50_us: f64,
    decide_p99_us: f64,
}

/// The end-to-end metrics, host times scaled to the reference host by the
/// run's calibration (see `calib`), plus figures for the reader: decision
/// latency percentiles (kept out of the JSON line because on `chaos` and
/// `gsight_sched` they time a few cold sub-millisecond calls, whose spread
/// across runs nears the 0.25 bound) and the raw host times.
fn end_to_end(raw: HostTimes, served_frac: f64, cal: &Calibrator) -> (Vec<Metric>, Vec<Extra>) {
    let speed = cal.speed();
    (
        vec![
            ("setup_s", raw.setup_s * speed, "s"),
            ("req_per_s", raw.req_per_s / speed, "1/s"),
            ("peak_rss_mb", peak_rss_mb(cal), "MiB"),
            ("served_frac", served_frac, "ratio"),
        ],
        vec![
            ("decide_p50_us", Some(raw.decide_p50_us * speed), "us"),
            ("decide_p99_us", Some(raw.decide_p99_us * speed), "us"),
            ("host_speed", Some(speed), "ratio"),
            ("setup_s_raw", Some(raw.setup_s), "s"),
            ("req_per_s_raw", Some(raw.req_per_s), "1/s"),
            ("decide_p50_us_raw", Some(raw.decide_p50_us), "us"),
            ("decide_p99_us_raw", Some(raw.decide_p99_us), "us"),
        ],
    )
}

/// End-to-end metrics and outcomes of a simulating workload.
fn sim_output(
    setup_s: &[f64],
    req_per_s: &[f64],
    place_ns: &[u64],
    runs: &[SimSummary],
    pred_err_pct: Option<f64>,
    cal: &Calibrator,
) -> Output {
    let arrivals: u64 = runs.iter().map(|r| r.arrivals).sum();
    let lost: u64 = runs.iter().map(|r| r.shed + r.failed).sum();
    let med = |f: fn(&SimSummary) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let place_us = us(place_ns);
    let raw = HostTimes {
        setup_s: median(setup_s),
        req_per_s: median(req_per_s),
        decide_p50_us: percentile(&place_us, 50.0),
        decide_p99_us: percentile(&place_us, 99.0),
    };
    let (end_to_end, mut extra) = end_to_end(raw, 1.0 - lost as f64 / arrivals as f64, cal);
    extra.extend([
        ("fail_frac", Some(lost as f64 / arrivals as f64), "ratio"),
        ("density_mean", Some(med(|r| r.density)), "1/core"),
        ("sim_p99_ms", Some(med(|r| r.p99_ms)), "ms"),
        ("sla_met_frac", Some(med(|r| r.sla)), "ratio"),
        ("pred_err_pct", pred_err_pct, "%"),
    ]);
    Output {
        attempted: arrivals,
        failed: lost,
        end_to_end,
        extra,
        notes: vec![
            format!(
                "fail_frac = (shed + failed) / arrivals = {lost} / {arrivals}, over {} seeds",
                runs.len()
            ),
            format!(
                "req_per_s: median of {} runs, quartiles {:?}",
                req_per_s.len(),
                quartiles(req_per_s)
            ),
            format!("decide_*: {} placement decisions", place_us.len()),
            format!("host_speed: {} calibration samples", cal.samples()),
        ],
        ..Output::default()
    }
}

/// Per-layer observations of one traced run of any workload; layers the
/// workload does not reach stay zero.
#[derive(Default)]
struct LayerSample {
    events: u64,
    completions: u64,
    instances: usize,
    journal_records: u64,
    journal_bytes: usize,
    fault_events: usize,
    retries: u64,
    shed: u64,
    failed: u64,
    place: PlaceLog,
    degraded: usize,
    predictor_calls: usize,
    probe_ms: Vec<f64>,
}

/// Spans of a traced run, gathered from several recordings.
#[derive(Default)]
struct Traced {
    /// Self and total seconds per span name, over every recording.
    self_s: BTreeMap<&'static str, f64>,
    total_s: BTreeMap<&'static str, f64>,
    /// Durations of the root spans, s, per root name.
    roots: BTreeMap<&'static str, Vec<f64>>,
    spans: usize,
    /// The first recording under each root name, for the span file.
    kept: Vec<Vec<trace::Span>>,
}

impl Traced {
    /// Record `f` under a root span `root`.
    fn record<T>(&mut self, root: &'static str, f: impl FnOnce() -> T) -> Result<T, String> {
        trace::start();
        let out = {
            let _root = trace::span(root);
            f()
        };
        let spans = trace::stop();
        let own = trace::self_times_ns(&spans);
        let root_ns: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        check(own.iter().sum::<u64>() == root_ns, || {
            "span self times do not add up to their roots".into()
        })?;
        for (s, own) in spans.iter().zip(own) {
            let dur = (s.end_ns - s.start_ns) as f64 * 1e-9;
            *self.self_s.entry(s.name).or_default() += own as f64 * 1e-9;
            *self.total_s.entry(s.name).or_default() += dur;
            if s.parent.is_none() {
                self.roots.entry(s.name).or_default().push(dur);
            }
        }
        self.spans += spans.len();
        if !self.kept.iter().any(|k| k[0].name == root) {
            self.kept.push(spans);
        }
        Ok(out)
    }

    fn own(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    fn total(&self, name: &str) -> f64 {
        self.total_s.get(name).copied().unwrap_or(0.0)
    }

    /// Write the kept recordings as JSON lines under `perfbench/out/`.
    fn write(&self, workload: &str, seed: u64) {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
        let body: String = self.kept.iter().map(|s| trace::to_jsonl(s)).collect();
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => println!("spans -> {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}

/// Ratio that reads 0 when the layer did no work.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics, one list for every workload.
fn layer_metrics(
    samples: &[LayerSample],
    tr: &Traced,
    fit_rows: usize,
    corpus_runs: usize,
    overhead_pct: f64,
    cal: &Calibrator,
) -> Vec<Metric> {
    // Host times are scaled like the end-to-end ones (see `calib`).
    let speed = cal.speed();
    let med = |f: &dyn Fn(&LayerSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let sum = |f: &dyn Fn(&LayerSample) -> f64| samples.iter().map(f).sum::<f64>();
    let place_ns: Vec<u64> = samples
        .iter()
        .flat_map(|s| s.place.ns.iter().copied())
        .collect();
    let place_us = us(&place_ns);
    let place_s = place_ns.iter().sum::<u64>() as f64 * 1e-9;
    let probe_s = sum(&|s| s.probe_ms.iter().sum::<f64>()) * 1e-3;
    let calls = sum(&|s| s.predictor_calls as f64);
    let engine_self = tr.own("engine.run_until");
    let run = tr.total("bench.run");
    let setup = tr.total("bench.setup");
    vec![
        ("engine.events", med(&|s| s.events as f64), "count"),
        (
            "engine.events_per_req",
            med(&|s| ratio(s.events as f64, s.completions as f64)),
            "ratio",
        ),
        (
            "engine.events_per_s",
            ratio(sum(&|s| s.events as f64), engine_self),
            "1/s",
        ),
        ("engine.run_share", ratio(engine_self, run), "ratio"),
        ("engine.instances", med(&|s| s.instances as f64), "count"),
        (
            "obs.journal_records",
            med(&|s| s.journal_records as f64),
            "count",
        ),
        ("obs.journal_bytes", med(&|s| s.journal_bytes as f64), "B"),
        (
            "obs.journal_share",
            ratio(tr.own("obs.journal"), tr.total("engine.run_until")),
            "ratio",
        ),
        ("faults.events", med(&|s| s.fault_events as f64), "count"),
        ("req.retries", med(&|s| s.retries as f64), "count"),
        ("req.shed", med(&|s| s.shed as f64), "count"),
        ("req.failed", med(&|s| s.failed as f64), "count"),
        (
            "sched.place_calls",
            med(&|s| s.place.ns.len() as f64),
            "count",
        ),
        (
            "sched.place_us_p50",
            percentile(&place_us, 50.0) * speed,
            "us",
        ),
        (
            "sched.place_us_p99",
            percentile(&place_us, 99.0) * speed,
            "us",
        ),
        (
            "sched.place_share",
            ratio(tr.own("sched.place"), run),
            "ratio",
        ),
        ("sched.refused", med(&|s| s.place.refused as f64), "count"),
        ("sched.degraded", med(&|s| s.degraded as f64), "count"),
        ("sched.probes", med(&|s| s.probe_ms.len() as f64), "count"),
        ("sched.probe_share", ratio(probe_s, place_s), "ratio"),
        (
            "sched.predictor_calls",
            med(&|s| s.predictor_calls as f64),
            "count",
        ),
        (
            "predict.calls_per_decision",
            ratio(calls, place_ns.len() as f64),
            "ratio",
        ),
        ("predict.calls_per_s", ratio(calls, probe_s), "1/s"),
        ("ml.fit_rows", fit_rows as f64, "count"),
        ("ml.fit_share", ratio(tr.own("ml.fit"), setup), "ratio"),
        ("setup.corpus_runs", corpus_runs as f64, "count"),
        (
            "setup.profile_share",
            ratio(tr.own("setup.profile"), setup),
            "ratio",
        ),
        (
            "setup.corpus_share",
            ratio(tr.own("setup.corpus"), setup),
            "ratio",
        ),
        (
            "setup.arrivals_share",
            ratio(tr.own("setup.arrivals"), setup),
            "ratio",
        ),
        (
            "setup.deploy_share",
            ratio(tr.own("setup.deploy"), setup),
            "ratio",
        ),
        ("trace.spans", tr.spans as f64, "count"),
        (
            "trace.run_s",
            median(tr.roots.get("bench.run").map_or(&[][..], |v| v)) * speed,
            "s",
        ),
        ("trace.overhead_pct", overhead_pct, "%"),
        ("host.calib_ms", cal.median_s() * 1e3, "ms"),
    ]
}

/// Tracing overhead: how much slower traced runs were than untraced ones,
/// from the median of a "higher is better" rate measured in both.
fn overhead_pct(rate: &[Vec<f64>; 2]) -> f64 {
    (median(&rate[0]) / median(&rate[1]) - 1.0) * 100.0
}

// ---------------------------------------------------------------- chaos ---

fn run_chaos(args: &Args) -> Result<Output, String> {
    let mut cal = Calibrator::new();
    let mut tr = Traced::default();
    let mut setup_s = Vec::new();
    let mut rate = [Vec::new(), Vec::new()]; // req/s, [untraced, traced]
    let mut place_ns = Vec::new();
    let mut digests: Vec<Option<(u64, u64)>> = vec![None; CHAOS_SEEDS];
    let mut summaries: Vec<Option<SimSummary>> = vec![None; CHAOS_SEEDS];
    let mut layer = Vec::new();
    let mut replayed = false;
    passes(args, &mut cal, CHAOS_SEEDS, CHAOS_SEEDS, |k, pass| {
        let tracing = pass == Pass::Traced;
        let seed = sub_seed(args.seed, k);
        let out = if tracing {
            let p = tr.record("bench.setup", || chaos::prepare(seed, false, true))?;
            tr.record("bench.run", || chaos::run(p))?
        } else {
            let p = chaos::prepare(seed, false, false);
            if pass == Pass::Untraced {
                setup_s.push(p.setup_s);
            }
            chaos::run(p)
        };
        let sum = summarize(&out.report, [0, 1])?;
        if pass != Pass::Warmup {
            rate[usize::from(tracing)].push(sum.completions as f64 / out.run_s);
        }
        let report_json = out.report.render_json();
        let digest = (fnv(report_json.as_bytes()), fnv(&out.journal));
        check(*digests[k].get_or_insert(digest) == digest, || {
            format!("chaos seed {seed}: a repeated run wrote different report or journal bytes")
        })?;
        summaries[k].get_or_insert(sum);
        if tracing {
            if !replayed {
                let replay = experiments::journal_runs::replay_bytes(&out.journal)?;
                check(replay.artifacts.report_json == report_json, || {
                    format!("chaos seed {seed}: replaying the journal does not rebuild the report")
                })?;
                replayed = true;
            }
            let timing = out.journal_timing.unwrap_or_default();
            layer.push(LayerSample {
                events: out.events,
                completions: sum.completions,
                instances: out.instances,
                journal_records: timing.records,
                journal_bytes: out.journal.len(),
                fault_events: out.fault_events,
                retries: sum.retries,
                shed: sum.shed,
                failed: sum.failed,
                place: out.place,
                ..LayerSample::default()
            });
        } else if pass == Pass::Untraced {
            place_ns.extend_from_slice(&out.place.ns);
        }
        Ok(())
    })?;

    // The benchmark's assembly must write what the repository's own chaos
    // run writes.
    let seed = sub_seed(args.seed, 0);
    let bundle = obs::Obs::telemetry_only()
        .with_fault_log()
        .with_journal(Box::new(chaos::journal_for(seed, false)));
    let (reference, post) =
        experiments::fault_sweep::chaos_run_with_obs(chaos::POINT, seed, false, bundle);
    let reference_journal = post
        .journal
        .as_ref()
        .and_then(|j| j.as_any().downcast_ref::<obs::journal::MemoryJournal>())
        .map(|j| fnv(j.bytes()));
    check(
        digests[0].map(|d| (d.0, Some(d.1)))
            == Some((
                fnv(reference.report.render_json().as_bytes()),
                reference_journal,
            )),
        || {
            format!(
                "chaos seed {seed}: report or journal differs from fault_sweep::chaos_run_with_obs"
            )
        },
    )?;

    let runs: Vec<SimSummary> = summaries.into_iter().flatten().collect();
    let mut out = sim_output(&setup_s, &rate[0], &place_ns, &runs, None, &cal);
    if args.trace {
        out.per_layer = layer_metrics(&layer, &tr, 0, 0, overhead_pct(&rate), &cal);
        tr.write(&args.workload, args.seed);
    }
    Ok(out)
}

// --------------------------------------------------------- gsight_sched ---

/// The trainings, what each set-up built after training, and set-up times.
type Trainings<P> = (Vec<fig11::Trained>, Vec<Option<P>>, Vec<f64>);

/// Train the pinned IRFRs (see [`TRAININGS`]), timing each set-up, which
/// for `gsight_sched` includes deploying its reference run.
fn train_all<P>(
    args: &Args,
    tr: &mut Traced,
    cal: &mut Calibrator,
    then: impl Fn(&fig11::Trained) -> P,
) -> Result<Trainings<P>, String> {
    let (mut trained, mut pending, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..TRAININGS {
        let build = || {
            let t = Instant::now();
            let trained = fig11::train(sub_seed(FIG11_SEED, k));
            let p = then(&trained);
            (trained, p, t.elapsed().as_secs_f64())
        };
        let (trained_k, p, s) = if args.trace {
            tr.record("bench.setup", build)?
        } else {
            build()
        };
        cal.tick();
        setup_s.push(s);
        trained.push(trained_k);
        pending.push(Some(p));
    }
    Ok((trained, pending, setup_s))
}

fn run_gsight_sched(args: &Args) -> Result<Output, String> {
    let mut cal = Calibrator::new();
    let mut tr = Traced::default();
    // Each set-up deploys its training's own fig11 run (run seed = training
    // seed); the warm-up pass runs those, and the first one is checked
    // against `fig11_12::scheduling_run`.
    let (trained, mut pending, setup_s) = train_all(args, &mut tr, &mut cal, |t| {
        fig11::prepare(t, t.seed, false)
    })?;
    let pred_err = median(&trained.iter().map(|t| t.pred_err_pct()).collect::<Vec<_>>());

    let mut rate = [Vec::new(), Vec::new()];
    let mut place_ns = Vec::new();
    let mut reference_digest = None;
    let mut digests: Vec<Option<u64>> = vec![None; SCHED_RUNS];
    let mut summaries: Vec<Option<SimSummary>> = vec![None; SCHED_RUNS];
    let mut layer = Vec::new();
    passes(args, &mut cal, TRAININGS, SCHED_RUNS, |j, pass| {
        let tracing = pass == Pass::Traced;
        let t = &trained[j % TRAININGS];
        let run_seed = sub_seed(args.seed, j);
        let out = match pass {
            Pass::Warmup => fig11::run(pending[j].take().expect("one warm-up per set-up")),
            Pass::Traced => {
                let p = tr.record("bench.setup", || fig11::prepare(t, run_seed, true))?;
                tr.record("bench.run", || fig11::run(p))?
            }
            Pass::Untraced => fig11::run(fig11::prepare(t, run_seed, false)),
        };
        let sum = summarize(&out.report, out.ls_idx)?;
        let digest = fnv(out.report.render_json().as_bytes());
        if pass == Pass::Warmup {
            if j == 0 {
                reference_digest = Some(digest);
            }
            return Ok(());
        }
        rate[usize::from(tracing)].push(sum.completions as f64 / out.run_s);
        // Repeats include the traced runs: wrappers must change nothing.
        check(*digests[j].get_or_insert(digest) == digest, || {
            format!("gsight_sched run seed {run_seed}: a repeated run wrote a different report")
        })?;
        summaries[j].get_or_insert(sum);
        if tracing {
            layer.push(LayerSample {
                events: out.events,
                completions: sum.completions,
                instances: out.instances,
                retries: sum.retries,
                shed: sum.shed,
                failed: sum.failed,
                place: out.place,
                degraded: out.degraded,
                predictor_calls: out.predictor_calls,
                probe_ms: out.probe_ms,
                ..LayerSample::default()
            });
        } else {
            place_ns.extend_from_slice(&out.place.ns);
        }
        Ok(())
    })?;

    // The benchmark's assembly must reproduce the repository's fig11 run.
    let reference = experiments::fig11_12::scheduling_run(
        experiments::fig11_12::Policy::Gsight(mlcore::ModelKind::Irfr),
        false,
        FIG11_SEED,
    );
    check(
        reference_digest == Some(fnv(reference.report.render_json().as_bytes())),
        || format!("gsight_sched seed {FIG11_SEED}: report differs from fig11_12::scheduling_run"),
    )?;

    let runs: Vec<SimSummary> = summaries.into_iter().flatten().collect();
    let mut out = sim_output(&setup_s, &rate[0], &place_ns, &runs, Some(pred_err), &cal);
    if args.trace {
        let t = &trained[0];
        out.per_layer = layer_metrics(
            &layer,
            &tr,
            t.labeled.len(),
            t.corpus_runs,
            overhead_pct(&rate),
            &cal,
        );
        tr.write(&args.workload, args.seed);
    }
    Ok(out)
}

// ------------------------------------------------------------ placement ---

fn run_placement(args: &Args) -> Result<Output, String> {
    let mut cal = Calibrator::new();
    let mut tr = Traced::default();
    let (trained, mut pending, setup_s) = train_all(args, &mut tr, &mut cal, |t| t.placer())?;
    let pred_err = median(&trained.iter().map(|t| t.pred_err_pct()).collect::<Vec<_>>());
    let mixes: Vec<Vec<workloads::Workload>> = trained.iter().map(placement::mix).collect();
    let requests: Vec<Vec<(usize, usize)>> = (0..PLACEMENT_ROUNDS)
        .map(|j| placement::requests(&mixes[j % TRAININGS], sub_seed(args.seed, j)))
        .collect();

    let mut rate = [Vec::new(), Vec::new()]; // accepted decisions/s
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut decisions = 0;
    let mut firsts: Vec<Option<(u64, u64, f64)>> = vec![None; PLACEMENT_ROUNDS]; // digest, refused, density
    let mut layer = Vec::new();
    passes(args, &mut cal, TRAININGS, PLACEMENT_ROUNDS, |j, pass| {
        let tracing = pass == Pass::Traced;
        let t = &trained[j % TRAININGS];
        let (mix, reqs) = (&mixes[j % TRAININGS], &requests[j]);
        let round = match pass {
            Pass::Warmup => {
                let placer = pending[j].take().expect("one warm-up per set-up");
                placement::run(placer, mix, reqs, false)
            }
            Pass::Traced => {
                let placer = tr.record("bench.setup", || t.placer())?;
                tr.record("bench.run", || placement::run(placer, mix, reqs, true))?
            }
            Pass::Untraced => placement::run(t.placer(), mix, reqs, false),
        };
        let first =
            *firsts[j].get_or_insert((round.digest, round.place.refused, round.density_mean));
        check(first.0 == round.digest, || {
            format!("placement round {j}: a repeated round answered differently")
        })?;
        if pass == Pass::Warmup {
            return Ok(());
        }
        let asked = round.place.ns.len() as u64;
        let decide_s = round.place.ns.iter().sum::<u64>() as f64 * 1e-9;
        rate[usize::from(tracing)].push((asked - round.place.refused) as f64 / decide_s);
        if tracing {
            layer.push(LayerSample {
                place: round.place,
                predictor_calls: round.predictor_calls,
                probe_ms: round.probe_ms,
                ..LayerSample::default()
            });
        } else {
            // Each round has enough decisions for its own p99 (20 beyond
            // it); the reported figures are medians over rounds, so a slow
            // spell on the host moves one round, not the percentile.
            let round_us = us(&round.place.ns);
            p50.push(percentile(&round_us, 50.0));
            p99.push(percentile(&round_us, 99.0));
            decisions += round_us.len();
        }
        Ok(())
    })?;

    let firsts: Vec<(u64, u64, f64)> = firsts.into_iter().flatten().collect();
    let asked = (placement::DECISIONS * firsts.len()) as u64;
    let refused: u64 = firsts.iter().map(|f| f.1).sum();
    check(refused < asked, || "every placement was refused".into())?;
    let raw = HostTimes {
        setup_s: median(&setup_s),
        req_per_s: median(&rate[0]),
        decide_p50_us: median(&p50),
        decide_p99_us: median(&p99),
    };
    let (end_to_end, mut extra) = end_to_end(raw, 1.0 - refused as f64 / asked as f64, &cal);
    extra.extend([
        ("fail_frac", Some(refused as f64 / asked as f64), "ratio"),
        (
            "density_mean",
            Some(median(&firsts.iter().map(|f| f.2).collect::<Vec<_>>())),
            "1/core",
        ),
        ("sim_p99_ms", None, "ms"),
        ("sla_met_frac", None, "ratio"),
        ("pred_err_pct", Some(pred_err), "%"),
    ]);
    let mut out = Output {
        attempted: asked,
        failed: refused,
        end_to_end,
        extra,
        notes: vec![
            format!(
                "fail_frac = refused / asked = {refused} / {asked}, over {} rounds",
                firsts.len()
            ),
            format!(
                "req_per_s: accepted decisions per host second of deciding, median of {} rounds",
                rate[0].len()
            ),
            format!(
                "decide_*: medians over {} rounds of {decisions} decisions",
                p50.len()
            ),
            format!("host_speed: {} calibration samples", cal.samples()),
        ],
        ..Output::default()
    };
    if args.trace {
        let t = &trained[0];
        out.per_layer = layer_metrics(
            &layer,
            &tr,
            t.labeled.len(),
            t.corpus_runs,
            overhead_pct(&rate),
            &cal,
        );
        tr.write(&args.workload, args.seed);
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload chaos|gsight_sched|placement --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "chaos" => run_chaos(&args),
        "gsight_sched" => run_gsight_sched(&args),
        "placement" => run_placement(&args),
        _ => unreachable!("parse_args accepts only the three workloads"),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("output check failed: {e}");
            return ExitCode::from(1);
        }
    };
    let metrics = if args.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    println!(
        "{} seed {} ({})",
        args.workload,
        args.seed,
        if args.trace {
            "per layer, traced"
        } else {
            "end to end"
        }
    );
    for (name, value, unit) in metrics {
        println!("  {name:<28} {:>18.6} {unit}", value + 0.0);
    }
    for (name, value, unit) in &out.extra {
        match value {
            Some(v) => println!("  {name:<28} {v:>18.6} {unit}   (not in the JSON line)"),
            None => println!("  {name:<28} {:>18} {unit}   (does not apply)", "n/a"),
        }
    }
    for note in &out.notes {
        println!("  {note}");
    }
    let mut extra = obs::json::Json::obj();
    for (name, value, unit) in &out.extra {
        let value = value.map_or(obs::json::Json::Null, obs::json::Json::from);
        extra = extra.field(
            name,
            obs::json::Json::obj()
                .field("value", value)
                .field("unit", *unit),
        );
    }
    println!("extra: {}", extra.render());
    let mut json = obs::json::Json::obj();
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            eprintln!("output check failed: metric {name} is {value}");
            return ExitCode::from(1);
        }
        json = json.field(
            name,
            obs::json::Json::obj()
                .field("value", *value)
                .field("unit", *unit),
        );
    }
    let line = obs::json::Json::obj()
        .field("correct", true)
        .field("attempted", out.attempted)
        .field("failed", out.failed)
        .field("metrics", json);
    println!("{}", line.render());
    ExitCode::SUCCESS
}
