//! The discrete-event execution engine.
//!
//! Execution semantics, in one paragraph: external arrivals and every
//! call-graph edge traversal are *forwards* through the shared gateway
//! (FIFO, load-dependent service time). A delivered forward queues a task on
//! one round-robin-selected instance of the target function; the instance
//! runs up to `concurrency` tasks at once. An executing task advances
//! through its phases at rate `1/slowdown`, where the slowdown comes from
//! the [`cluster`] contention model and is re-evaluated (piecewise-exactly)
//! whenever the set of executing phases on its server changes. When a task's
//! own service ends it either completes — triggering async children and
//! releasing its slot — or enters *nested wait*, holding its slot until its
//! nested children return (Observation 4's upstream propagation). Cold
//! starts prepend the function's cold phase when an instance is new or has
//! been idle past the keep-alive.

use crate::config::{PlatformConfig, ResilienceConfig};
use crate::gateway::{Forward, Gateway};
use crate::replay;
use crate::report::RunReport;
use crate::scale::{placement_journal_event, ClusterView, PlacementDecision, Placer};
use cluster::{InstanceId, ServerState};
use faults::{FaultConfig, FaultInjector, FaultKind};
use metricsd::MetricVector;
use obs::journal::{CheckpointState, JournalEvent, PlacementKind};
use obs::json::Json;
use obs::{Obs, SpanRecord, Track};
use simcore::rng::seed_stream;
use simcore::{EventHandle, EventQueue, SimRng, SimTime};
use std::collections::{BTreeSet, VecDeque};
use workloads::dag::CallKind;
use workloads::{PhaseSpec, Workload};

/// Handle to a deployed workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadId(pub usize);

/// How a deployed workload is driven.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSpec {
    /// Open-loop request arrivals (LS workloads): each time is one
    /// end-to-end request through the call graph.
    OpenLoop(Vec<SimTime>),
    /// Job submissions (SC/BG workloads): identical mechanics, but the
    /// e2e latency is interpreted as the JCT.
    Jobs(Vec<SimTime>),
}

impl ArrivalSpec {
    fn times(&self) -> &[SimTime] {
        match self {
            ArrivalSpec::OpenLoop(t) | ArrivalSpec::Jobs(t) => t,
        }
    }
}

/// A workload plus its initial placement and drive.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The workload to run.
    pub workload: Workload,
    /// Initial instances per call-graph node (each node needs ≥ 1).
    pub placement: Vec<Vec<PlacementDecision>>,
    /// Arrival process.
    pub arrivals: ArrivalSpec,
}

#[derive(Debug)]
struct Instance {
    server: usize,
    socket: usize,
    active: Vec<usize>,
    queue: VecDeque<usize>,
    last_finish: SimTime,
    used: bool,
    /// False once the instance's server crashed or it was OOM-killed; dead
    /// instances receive no deliveries and do not count as capacity.
    alive: bool,
}

#[derive(Debug)]
struct Deployed {
    workload: Workload,
    instances: Vec<Vec<Instance>>,
    rr: Vec<usize>,
    /// Number of async parents per node (join counts).
    async_parents: Vec<u32>,
    /// Nested parent node, if any.
    nested_parent: Vec<Option<usize>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    Queued,
    Executing,
    NestedWait,
    Done,
}

#[derive(Debug)]
struct Task {
    req: u64,
    wl: usize,
    node: usize,
    inst: usize,
    state: TaskState,
    phases: Vec<PhaseSpec>,
    phase_idx: usize,
    /// Solo-time microseconds remaining in the current phase.
    remaining_us: f64,
    slowdown: f64,
    last_update: SimTime,
    /// The pending `PhaseEnd` of an executing task: at most one per task,
    /// re-timed in place whenever contention on its server changes.
    phase_end: Option<EventHandle>,
    enqueued_at: SimTime,
    load_id: Option<InstanceId>,
    server: usize,
    /// Whether this invocation paid a cold start.
    cold: bool,
    /// When the task left its instance queue and began executing.
    exec_started: SimTime,
    /// When the currently-executing phase began (tracing only).
    phase_started: SimTime,
    /// When the task's own service finished (start of any nested wait).
    service_done: SimTime,
}

/// Terminal state of a request — every arrival ends in exactly one of these
/// (the conservation property the chaos tests assert).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed normally (possibly after retries).
    Completed,
    /// Rejected at the gateway by load shedding; never forwarded.
    Shed,
    /// Exhausted its retry budget after crashes/drops/OOM-kills/timeouts.
    Failed,
}

#[derive(Debug)]
struct RequestState {
    arrival: SimTime,
    wl: usize,
    remaining_async: Vec<u32>,
    nested_pending: Vec<u32>,
    node_task: Vec<Option<usize>>,
    nodes_remaining: usize,
    done: bool,
    /// Current delivery attempt (0 = first try). Bumped on every abort so
    /// in-flight forwards/timeouts of the old attempt become stale.
    attempt: u32,
    outcome: Option<Outcome>,
}

#[derive(Debug)]
enum Ev {
    Arrival {
        wl: usize,
    },
    GatewayDone {
        fwd: Forward,
    },
    PhaseEnd {
        task: usize,
    },
    Collect,
    /// Next injected fault fires (chaos runs only).
    FaultTick,
    /// A transient server slowdown ends.
    SlowdownEnd {
        server: usize,
    },
    /// A crashed server rejoins the cluster (empty).
    ServerRecover {
        server: usize,
    },
    /// Per-attempt request deadline.
    RequestTimeout {
        req: u64,
        attempt: u32,
    },
    /// Backoff elapsed: re-issue the request's root forwards.
    RetryRequest {
        req: u64,
    },
}

/// Autoscaling policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleConfig {
    /// Scale out when (queued tasks) / (instances) exceeds this.
    pub queue_per_instance: f64,
    /// Scale out when in-flight tasks exceed this fraction of the node's
    /// total concurrency capacity (HPA-style utilization trigger).
    pub busy_fraction: f64,
    /// Upper bound on instances per function node.
    pub max_instances_per_node: usize,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        Self {
            queue_per_instance: 2.0,
            busy_fraction: 0.75,
            max_instances_per_node: 64,
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv_mix(fp: &mut u64, w: u64) {
    *fp = (*fp ^ w).wrapping_mul(FNV_PRIME);
}

/// The simulator.
pub struct Simulation {
    config: PlatformConfig,
    servers: Vec<ServerState>,
    server_tasks: Vec<Vec<usize>>,
    /// One metric-synthesis stream per server, seeded
    /// `seed_stream(seed, 0x10_0000 + server)`: a collect tick's draws
    /// depend only on the server's own executing tasks.
    synth_rngs: Vec<SimRng>,
    queue: EventQueue<Ev>,
    gateway: Gateway,
    deployed: Vec<Deployed>,
    tasks: Vec<Task>,
    requests: Vec<RequestState>,
    report: RunReport,
    placer: Option<Box<dyn Placer>>,
    scale: ScaleConfig,
    instance_count: usize,
    next_collect: SimTime,
    arrivals_pending: Vec<VecDeque<SimTime>>,
    obs: Obs,
    /// Optional per-workload e2e SLA (ms), for the `sla.violations` counter.
    sla_ms: Vec<Option<f64>>,
    /// Fault injector; `None` (the default) leaves every code path on the
    /// fault-free fast track, bit-identical to a build without faults.
    faults: Option<FaultInjector>,
    /// Degradation policy (timeout/retry/shed); default fully disabled.
    resilience: ResilienceConfig,
    /// Private stream for backoff jitter, separate from the simulation RNG
    /// so retries never perturb metric synthesis.
    retry_rng: SimRng,
    /// Per-server liveness.
    alive: Vec<bool>,
    /// Per-server transient service-time multiplier (1.0 = healthy).
    slow_mult: Vec<f64>,
    /// Per-server pending `SlowdownEnd`, cancelled when a newer episode
    /// supersedes it or the server crashes.
    slow_end: Vec<Option<EventHandle>>,
    /// Until this instant every dispatch is treated as a cold start.
    cold_storm_until: SimTime,
    /// Until this instant the predictor is reported unavailable to placers.
    predictor_down_until: SimTime,
    /// Checkpoint cadence requested by the attached journal sink; `ZERO`
    /// (journal absent or cadence unset) disables checkpointing entirely.
    checkpoint_every: SimTime,
    /// Next instant a checkpoint record is due (checked at collect ticks).
    next_checkpoint: SimTime,
    /// Events dispatched by the run loop, for the throughput bench.
    events_processed: u64,
}

impl Simulation {
    /// New simulator on the configured cluster.
    pub fn new(config: PlatformConfig) -> Self {
        let servers: Vec<ServerState> = config
            .cluster
            .servers
            .iter()
            .cloned()
            .map(ServerState::new)
            .collect();
        let n = servers.len();
        let seed = config.seed;
        let synth_rngs = (0..n)
            .map(|s| SimRng::new(seed_stream(seed, 0x10_0000 + s as u64)))
            .collect();
        Self {
            config,
            servers,
            server_tasks: vec![Vec::new(); n],
            synth_rngs,
            queue: EventQueue::new(),
            gateway: Gateway::new(),
            deployed: Vec::new(),
            tasks: Vec::new(),
            requests: Vec::new(),
            report: RunReport::default(),
            placer: None,
            scale: ScaleConfig::default(),
            instance_count: 0,
            next_collect: SimTime::ZERO,
            arrivals_pending: Vec::new(),
            obs: Obs::off(),
            sla_ms: Vec::new(),
            faults: None,
            resilience: ResilienceConfig::default(),
            retry_rng: SimRng::new(seed_stream(seed, 0xFA17)),
            alive: vec![true; n],
            slow_mult: vec![1.0; n],
            slow_end: vec![None; n],
            cold_storm_until: SimTime::ZERO,
            predictor_down_until: SimTime::ZERO,
            checkpoint_every: SimTime::ZERO,
            next_checkpoint: SimTime::ZERO,
            events_processed: 0,
        }
    }

    /// Events dispatched by the run loop so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Install an autoscaling placement policy.
    pub fn set_placer(&mut self, placer: Box<dyn Placer>, scale: ScaleConfig) {
        self.placer = Some(placer);
        self.scale = scale;
    }

    /// The installed placement policy, if any — downcast via
    /// [`Placer::as_any`] to read a concrete policy's audit log after a run.
    pub fn placer(&self) -> Option<&dyn Placer> {
        self.placer.as_deref()
    }

    /// Install observability sinks. The default is [`Obs::off`], under
    /// which every instrumentation site reduces to a flag check. An attached
    /// journal sink's checkpoint cadence is adopted here.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
        self.checkpoint_every = self
            .obs
            .journal
            .as_ref()
            .and_then(|j| j.checkpoint_every_us())
            .map_or(SimTime::ZERO, SimTime);
        self.next_checkpoint = if self.checkpoint_every > SimTime::ZERO {
            self.queue.now().plus(self.checkpoint_every)
        } else {
            SimTime::ZERO
        };
    }

    /// Append one event to the attached journal, if any. Off-path cost is a
    /// single `Option` check.
    fn journal(&mut self, at: SimTime, ev: &JournalEvent) {
        if let Some(j) = self.obs.journal.as_mut() {
            j.record(at.as_micros(), ev);
        }
    }

    /// Record one run fact — the only way the engine does. The event goes
    /// to the attached journal, if any, then through the telemetry fold
    /// ([`obs::Telemetry::apply`]) and the report/fault-log fold
    /// ([`replay::apply`]) that journal replay runs too, so live and
    /// replayed artifacts agree by construction.
    fn emit(&mut self, at: SimTime, ev: JournalEvent) {
        self.journal(at, &ev);
        if let Some(t) = self.obs.telemetry.as_mut() {
            t.apply(&ev);
        }
        replay::apply(
            &mut self.report,
            self.obs.faults.as_mut(),
            at.as_micros(),
            ev,
        )
        .expect("the engine emitted an event its own fold rejects");
    }

    /// Install a fault-injection config. With any class enabled, the first
    /// fault tick is scheduled from the injector's private seeded stream;
    /// with everything at zero this is a no-op and the run stays on the
    /// fault-free fast path. Call before `run_until`.
    pub fn set_faults(&mut self, config: FaultConfig) {
        if !config.enabled() {
            return;
        }
        let mut injector = FaultInjector::new(config);
        if let Some(at) = injector.next_event_after(self.queue.now()) {
            self.queue.schedule(at, Ev::FaultTick);
        }
        self.faults = Some(injector);
    }

    /// Install the degradation policy (per-request timeout, bounded retries
    /// with exponential backoff + jitter, gateway load shedding). The
    /// default [`ResilienceConfig`] disables all three.
    pub fn set_resilience(&mut self, resilience: ResilienceConfig) {
        self.resilience = resilience;
    }

    /// Whether a server is currently up.
    pub fn server_alive(&self, server: usize) -> bool {
        self.alive[server]
    }

    /// A request's terminal outcome, if it reached one.
    pub fn request_outcome(&self, req: u64) -> Option<Outcome> {
        self.requests[req as usize].outcome
    }

    /// Number of requests observed so far.
    pub fn request_count(&self) -> usize {
        self.requests.len()
    }

    /// Test/experiment hook: crash a server immediately (same effect as an
    /// injected [`FaultKind::ServerCrash`], minus the recovery timer).
    pub fn inject_server_crash(&mut self, server: usize) {
        let now = self.queue.now();
        self.crash_server(now, server);
    }

    /// The live observability bundle (telemetry counters are readable
    /// mid-run).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Detach the observability bundle (e.g. to export a trace after the
    /// run), leaving observability off.
    pub fn take_obs(&mut self) -> Obs {
        std::mem::take(&mut self.obs)
    }

    /// Declare an end-to-end latency SLA for a deployed workload; requests
    /// finishing above it bump the `sla.violations` telemetry counter.
    pub fn set_sla_ms(&mut self, wl: WorkloadId, sla_ms: f64) {
        self.sla_ms[wl.0] = Some(sla_ms);
    }

    /// Deploy a workload. Panics on invalid placement (empty node placement,
    /// bad server/socket) or on a node mixing nested and async parents.
    pub fn deploy(&mut self, d: Deployment) -> WorkloadId {
        let Deployment {
            workload,
            placement,
            arrivals,
        } = d;
        let wl = self.deployed.len();
        let g = workload.graph.clone();
        let g = &g;
        assert_eq!(
            placement.len(),
            g.len(),
            "placement must cover every call-graph node"
        );
        let mut async_parents = vec![0u32; g.len()];
        let mut nested_parent = vec![None; g.len()];
        for id in g.ids() {
            let parents = g.parents(id);
            let nested: Vec<_> = parents
                .iter()
                .filter(|(_, k)| *k == CallKind::Nested)
                .collect();
            let asyncs = parents.len() - nested.len();
            assert!(
                nested.is_empty() || (nested.len() == 1 && asyncs == 0),
                "node {id:?} mixes nested and async parents"
            );
            async_parents[id.0] = asyncs as u32;
            nested_parent[id.0] = nested.first().map(|(p, _)| p.0);
        }

        let mut instances = Vec::with_capacity(g.len());
        for (node, placements) in placement.iter().enumerate() {
            assert!(
                !placements.is_empty(),
                "node {node} has no instances placed"
            );
            let mut insts = Vec::with_capacity(placements.len());
            for p in placements {
                assert!(p.server < self.servers.len(), "server out of range");
                insts.push(Instance {
                    server: p.server,
                    socket: p.socket,
                    active: Vec::new(),
                    queue: VecDeque::new(),
                    last_finish: SimTime::ZERO,
                    used: false,
                    alive: true,
                });
                self.instance_count += 1;
            }
            instances.push(insts);
        }

        let now = self.queue.now();
        self.emit(
            now,
            JournalEvent::Deploy {
                wl: wl as u32,
                nodes: g.len() as u32,
                name: workload.name.clone(),
            },
        );
        for (node, placements) in placement.iter().enumerate() {
            for p in placements {
                self.emit(
                    now,
                    placement_journal_event(PlacementKind::Initial, wl, node, p),
                );
            }
        }

        self.sla_ms.push(None);

        let mut arrivals: VecDeque<SimTime> = arrivals.times().iter().copied().collect();
        // Schedule only the first arrival; each Arrival event schedules its
        // successor, keeping the event queue small for long traces.
        if let Some(&first) = arrivals.front() {
            arrivals.pop_front();
            let at = first.max(self.queue.now());
            self.queue.schedule(at, Ev::Arrival { wl });
        }
        self.arrivals_pending.push(arrivals);

        self.deployed.push(Deployed {
            workload,
            instances,
            rr: vec![0; g.len()],
            async_parents,
            nested_parent,
        });
        WorkloadId(wl)
    }

    /// Run until the simulated clock passes `end` (inclusive of events at
    /// `end`). The simulation can be resumed by calling `run_until` again
    /// with a later time: a run split into slices renders the same report
    /// as one call to the last slice's end.
    pub fn run_until(&mut self, end: SimTime) {
        if self.next_collect == SimTime::ZERO {
            self.next_collect = self.config.collect_interval;
            self.queue.schedule(self.next_collect, Ev::Collect);
        }
        while self.queue.peek_time().is_some_and(|at| at <= end) {
            let (now, ev) = self.queue.pop().expect("peeked event vanished");
            self.events_processed += 1;
            self.dispatch(now, ev);
        }
        // Final telemetry snapshot (journal only), then the run-end
        // sentinel; `finish` flushes buffered bytes so the file is
        // replayable immediately.
        if self.obs.journal.is_some() {
            let jsonl = self.obs.telemetry.as_ref().map(|t| t.to_jsonl());
            if let Some(jsonl) = jsonl {
                self.journal(end, &JournalEvent::TelemetrySnapshot { jsonl });
            }
        }
        self.emit(
            end,
            JournalEvent::RunEnd {
                horizon_us: end.as_micros(),
            },
        );
        if let Some(j) = self.obs.journal.as_mut() {
            j.finish();
        }
    }

    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Arrival { wl } => self.on_arrival(now, wl),
            Ev::GatewayDone { fwd } => self.on_gateway_done(now, fwd),
            Ev::PhaseEnd { task } => self.on_phase_end(now, task),
            Ev::Collect => self.on_collect(now),
            Ev::FaultTick => self.on_fault_tick(now),
            Ev::SlowdownEnd { server } => self.on_slowdown_end(now, server),
            Ev::ServerRecover { server } => self.on_server_recover(now, server),
            Ev::RequestTimeout { req, attempt } => self.on_request_timeout(now, req, attempt),
            Ev::RetryRequest { req } => self.on_retry_request(now, req),
        }
    }

    /// The accumulated run report.
    pub fn report(&self) -> &RunReport {
        &self.report
    }

    /// Consume the simulation, returning the report.
    pub fn into_report(self) -> RunReport {
        self.report
    }

    /// Total deployed instances.
    pub fn instance_count(&self) -> usize {
        self.instance_count
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Live server states (for building a [`ClusterView`] during manual
    /// placement phases).
    pub fn servers(&self) -> &[ServerState] {
        &self.servers
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn on_arrival(&mut self, now: SimTime, wl: usize) {
        // Chain-schedule the next arrival.
        if let Some(next) = self.arrivals_pending[wl].pop_front() {
            self.queue.schedule(next.max(now), Ev::Arrival { wl });
        }
        let g = &self.deployed[wl].workload.graph;
        let roots: Vec<usize> = g.roots().iter().map(|r| r.0).collect();
        let req = self.requests.len() as u64;
        let nodes = g.len();
        self.requests.push(RequestState {
            arrival: now,
            wl,
            remaining_async: self.deployed[wl].async_parents.clone(),
            nested_pending: vec![0; nodes],
            node_task: vec![None; nodes],
            nodes_remaining: nodes,
            done: false,
            attempt: 0,
            outcome: None,
        });
        self.emit(now, JournalEvent::Arrival { wl: wl as u32, req });
        // Load shedding: refuse the request outright while the gateway
        // queue is at or past the configured depth.
        if self
            .resilience
            .shed_queue_depth
            .is_some_and(|d| self.gateway.depth() >= d)
        {
            let r = &mut self.requests[req as usize];
            r.outcome = Some(Outcome::Shed);
            r.done = true;
            self.emit(now, JournalEvent::Shed { wl: wl as u32, req });
            self.log_fault(now, "shed", req as i64, self.gateway.depth() as f64);
            return;
        }
        if self.obs.tracing() {
            let name = &self.deployed[wl].workload.name;
            self.obs
                .trace
                .name_track(Track::request(req), &format!("{name} req{req}"), "request");
        }
        for node in roots {
            self.forward(now, req, wl, node);
        }
        if let Some(timeout) = self.resilience.request_timeout {
            self.queue
                .schedule(now.plus(timeout), Ev::RequestTimeout { req, attempt: 0 });
        }
    }

    fn forward(&mut self, now: SimTime, req: u64, wl: usize, node: usize) {
        let fwd = Forward {
            req,
            wl,
            node,
            enqueued_at: now,
            attempt: self.requests[req as usize].attempt,
        };
        if self.gateway.enqueue(fwd) {
            self.gateway_begin(now);
        }
    }

    fn gateway_begin(&mut self, now: SimTime) {
        if let Some((fwd, dur)) = self
            .gateway
            .begin_service(&self.config.gateway, self.instance_count)
        {
            let dur = match self.faults.as_mut() {
                Some(f) => dur.plus(f.gateway_jitter()),
                None => dur,
            };
            self.queue.schedule(now.plus(dur), Ev::GatewayDone { fwd });
        }
    }

    fn on_gateway_done(&mut self, now: SimTime, fwd: Forward) {
        // Every served forward counts toward the gateway overhead (wait +
        // service). Forwards from an aborted attempt (or a settled request)
        // are stale: the gateway spent service time on them, but nothing is
        // delivered.
        self.emit(
            now,
            JournalEvent::GatewayForward {
                req: fwd.req,
                ms: now.since(fwd.enqueued_at).as_millis(),
            },
        );
        {
            let r = &self.requests[fwd.req as usize];
            if r.outcome.is_some() || r.attempt != fwd.attempt {
                self.gateway_begin(now);
                return;
            }
        }
        // Injected gateway request drop.
        if self.faults.as_mut().is_some_and(|f| f.gateway_drop()) {
            self.log_fault(now, "gateway_drop", fwd.req as i64, 0.0);
            if let Some(t) = self.obs.telemetry.as_mut() {
                t.incr("faults.gateway_drops", 1);
            }
            self.fail_or_retry(now, fwd.req);
            self.gateway_begin(now);
            return;
        }
        self.deliver(now, fwd);
        self.gateway_begin(now);
    }

    fn deliver(&mut self, now: SimTime, fwd: Forward) {
        let chosen = {
            // Round-robin over the alive instances only: the k-th alive one.
            let d = &mut self.deployed[fwd.wl];
            let insts = &d.instances[fwd.node];
            let n_alive = insts.iter().filter(|i| i.alive).count();
            if n_alive == 0 {
                None
            } else {
                let k = d.rr[fwd.node] % n_alive;
                d.rr[fwd.node] = (d.rr[fwd.node] + 1) % n_alive;
                insts
                    .iter()
                    .enumerate()
                    .filter(|(_, i)| i.alive)
                    .nth(k)
                    .map(|(i, _)| i)
            }
        };
        let Some(inst_idx) = chosen else {
            // Every instance of the target node is dead: fail over.
            self.log_fault(now, "no_alive_instance", fwd.req as i64, fwd.node as f64);
            self.fail_or_retry(now, fwd.req);
            return;
        };
        let d = &mut self.deployed[fwd.wl];

        let task_id = self.tasks.len();
        let inst = &d.instances[fwd.node][inst_idx];
        self.tasks.push(Task {
            req: fwd.req,
            wl: fwd.wl,
            node: fwd.node,
            inst: inst_idx,
            state: TaskState::Queued,
            phases: Vec::new(),
            phase_idx: 0,
            remaining_us: 0.0,
            slowdown: 1.0,
            last_update: now,
            phase_end: None,
            enqueued_at: now,
            load_id: None,
            server: inst.server,
            cold: false,
            exec_started: now,
            phase_started: now,
            service_done: now,
        });
        self.requests[fwd.req as usize].node_task[fwd.node] = Some(task_id);
        if self.obs.tracing() {
            let d = &self.deployed[fwd.wl];
            let func = d.workload.graph.func(workloads::NodeId(fwd.node));
            let track = Track::node(fwd.req, fwd.node);
            self.obs.trace.name_track(
                track,
                &format!("{} req{}", d.workload.name, fwd.req),
                &func.name,
            );
            self.obs.trace.span(SpanRecord {
                name: "gateway forward".to_string(),
                cat: "gateway",
                track,
                start: fwd.enqueued_at,
                end: now,
                args: vec![("instance", Json::from(inst_idx))],
            });
        }
        self.deployed[fwd.wl].instances[fwd.node][inst_idx]
            .queue
            .push_back(task_id);
        self.try_start(now, fwd.wl, fwd.node, inst_idx);
    }

    /// Start queued tasks on an instance while concurrency slots are free.
    fn try_start(&mut self, now: SimTime, wl: usize, node: usize, inst_idx: usize) {
        loop {
            let spec_concurrency;
            let task_id;
            let cold;
            {
                let d = &mut self.deployed[wl];
                let func = d.workload.graph.func(workloads::NodeId(node));
                spec_concurrency = func.concurrency as usize;
                let inst = &mut d.instances[node][inst_idx];
                if inst.active.len() >= spec_concurrency || inst.queue.is_empty() {
                    return;
                }
                task_id = inst.queue.pop_front().expect("queue emptied unexpectedly");
                // `cold_storm_until` is ZERO outside chaos runs, so the
                // extra comparison never fires on the fault-free path.
                cold = !inst.used
                    || now.since(inst.last_finish) > self.config.keep_alive
                    || now < self.cold_storm_until;
                inst.used = true;
                inst.active.push(task_id);
            }
            let phases = {
                let d = &self.deployed[wl];
                d.workload
                    .graph
                    .func(workloads::NodeId(node))
                    .invocation_phases(cold)
            };
            if cold {
                let req = self.tasks[task_id].req;
                self.emit(
                    now,
                    JournalEvent::ColdStart {
                        wl: wl as u32,
                        node: node as u32,
                        req,
                    },
                );
            }
            {
                let wait_ms = now.since(self.tasks[task_id].enqueued_at).as_millis();
                if let Some(t) = self.obs.telemetry.as_mut() {
                    t.observe("instance.queue_wait_ms", wait_ms);
                }
                if self.obs.tracing() {
                    let t = &self.tasks[task_id];
                    self.obs.trace.span(SpanRecord {
                        name: "queue wait".to_string(),
                        cat: "queue",
                        track: Track::node(t.req, t.node),
                        start: t.enqueued_at,
                        end: now,
                        args: vec![("wait_ms", Json::from(wait_ms))],
                    });
                }
            }
            if phases.is_empty() {
                // Degenerate zero-work function: complete immediately.
                let t = &mut self.tasks[task_id];
                t.state = TaskState::Executing;
                t.cold = cold;
                t.exec_started = now;
                t.phase_started = now;
                self.finish_service(now, task_id);
                continue;
            }
            let server = {
                let t = &mut self.tasks[task_id];
                t.state = TaskState::Executing;
                t.phases = phases;
                t.phase_idx = 0;
                t.remaining_us = t.phases[0].duration.as_micros() as f64;
                t.last_update = now;
                t.cold = cold;
                t.exec_started = now;
                t.phase_started = now;
                t.server
            };
            let socket = self.deployed[wl].instances[node][inst_idx].socket;
            self.settle_server(now, server);
            let load = self.tasks[task_id].phases[0].load(socket);
            let load_id = self.servers[server].add(load);
            self.tasks[task_id].load_id = Some(load_id);
            self.server_tasks[server].push(task_id);
            self.reschedule_server(now, server);
        }
    }

    /// Bring `remaining_us` of every executing task on a server up to `now`
    /// using the slowdowns that were in effect.
    fn settle_server(&mut self, now: SimTime, server: usize) {
        for &tid in &self.server_tasks[server] {
            let t = &mut self.tasks[tid];
            let elapsed = now.since(t.last_update).as_micros() as f64;
            if elapsed > 0.0 {
                t.remaining_us = (t.remaining_us - elapsed / t.slowdown).max(0.0);
                t.last_update = now;
            }
        }
    }

    /// Recompute contention on a server and re-time every executing task's
    /// phase-end event in place (scheduling it if the task has none yet).
    /// Each re-time draws a fresh sequence number, exactly as scheduling a
    /// new event would, so ties at one instant still pop in the order the
    /// events were last timed.
    fn reschedule_server(&mut self, now: SimTime, server: usize) {
        if let Some(t) = self.obs.telemetry.as_mut() {
            t.incr("contention.recomputes", 1);
        }
        let contention = self.servers[server].contention();
        for i in 0..self.server_tasks[server].len() {
            let tid = self.server_tasks[server][i];
            let t = &mut self.tasks[tid];
            let socket = self.deployed[t.wl].instances[t.node][t.inst].socket;
            let ic = contention.instance(&t.phases[t.phase_idx].load(socket));
            // Injected interference spike: multiply by the transient
            // per-server factor. 1.0 outside an episode — and `x * 1.0` is
            // bitwise-exact, so fault-free runs are unperturbed.
            t.slowdown = ic.slowdown * self.slow_mult[server];
            let at = now.plus(SimTime((t.remaining_us * t.slowdown).ceil() as u64));
            match t.phase_end {
                Some(h) => self.queue.reschedule(h, at),
                None => t.phase_end = Some(self.queue.schedule(at, Ev::PhaseEnd { task: tid })),
            }
        }
    }

    fn on_phase_end(&mut self, now: SimTime, task_id: usize) {
        // Aborts cancel the event and re-times move it, so every pop is
        // the live completion of an executing task.
        debug_assert_eq!(
            self.tasks[task_id].state,
            TaskState::Executing,
            "popped a phase end of a task that is not executing"
        );
        self.tasks[task_id].phase_end = None;
        let server = self.tasks[task_id].server;
        self.settle_server(now, server);
        // Guard against floating-point residue: this event was scheduled for
        // exactly the remaining work, so clamp to zero.
        self.tasks[task_id].remaining_us = 0.0;

        if self.obs.tracing() {
            let t = &self.tasks[task_id];
            let (name, cat) = if t.cold && t.phase_idx == 0 {
                ("cold start".to_string(), "cold")
            } else {
                (format!("phase {}", t.phase_idx - t.cold as usize), "phase")
            };
            self.obs.trace.span(SpanRecord {
                name,
                cat,
                track: Track::node(t.req, t.node),
                start: t.phase_started,
                end: now,
                args: vec![
                    ("slowdown", Json::from(t.slowdown)),
                    ("server", Json::from(t.server)),
                ],
            });
        }
        if self.tasks[task_id].cold && self.tasks[task_id].phase_idx == 0 {
            if let Some(t) = self.obs.telemetry.as_mut() {
                let t0 = self.tasks[task_id].phase_started;
                t.observe("instance.cold_start_ms", now.since(t0).as_millis());
            }
        }
        self.tasks[task_id].phase_started = now;

        let has_more_phases = {
            let t = &mut self.tasks[task_id];
            t.phase_idx += 1;
            t.phase_idx < t.phases.len()
        };
        if has_more_phases {
            let (wl, node, inst_idx, phase) = {
                let t = &self.tasks[task_id];
                (t.wl, t.node, t.inst, t.phases[t.phase_idx])
            };
            let socket = self.deployed[wl].instances[node][inst_idx].socket;
            self.tasks[task_id].remaining_us = phase.duration.as_micros() as f64;
            let load_id = self.tasks[task_id]
                .load_id
                .expect("executing task without load");
            self.servers[server].update(load_id, phase.load(socket));
            self.reschedule_server(now, server);
        } else {
            self.finish_service(now, task_id);
        }
    }

    /// The task's own service is done: record local latency, drop its load,
    /// then either enter nested wait or complete.
    fn finish_service(&mut self, now: SimTime, task_id: usize) {
        let (wl, node, req, server) = {
            let t = &self.tasks[task_id];
            (t.wl, t.node, t.req, t.server)
        };
        let local_ms = now.since(self.tasks[task_id].enqueued_at).as_millis();
        self.tasks[task_id].service_done = now;
        self.emit(
            now,
            JournalEvent::TaskDone {
                wl: wl as u32,
                node: node as u32,
                req,
                local_ms,
            },
        );
        if let Some(load_id) = self.tasks[task_id].load_id.take() {
            self.servers[server].remove(load_id);
            self.server_tasks[server].retain(|&t| t != task_id);
            self.reschedule_server(now, server);
        }
        let nested_children: Vec<usize> = self.deployed[wl]
            .workload
            .graph
            .children(workloads::NodeId(node))
            .iter()
            .filter(|(_, k)| *k == CallKind::Nested)
            .map(|(c, _)| c.0)
            .collect();
        if nested_children.is_empty() {
            self.complete_task(now, task_id);
        } else {
            self.tasks[task_id].state = TaskState::NestedWait;
            self.requests[req as usize].nested_pending[node] = nested_children.len() as u32;
            for child in nested_children {
                self.forward(now, req, wl, child);
            }
        }
    }

    /// The task (including any nested subtree) is fully complete: release
    /// its slot, fire async children, notify a nested parent, and close the
    /// request when every node is done.
    fn complete_task(&mut self, now: SimTime, task_id: usize) {
        let was_nested_wait = self.tasks[task_id].state == TaskState::NestedWait;
        let (wl, node, req, inst_idx) = {
            let t = &mut self.tasks[task_id];
            t.state = TaskState::Done;
            (t.wl, t.node, t.req, t.inst)
        };
        if self.obs.tracing() {
            let t = &self.tasks[task_id];
            let track = Track::node(req, node);
            if was_nested_wait {
                self.obs.trace.span(SpanRecord {
                    name: "nested wait".to_string(),
                    cat: "wait",
                    track,
                    start: t.service_done,
                    end: now,
                    args: vec![],
                });
            }
            let func_name = self.deployed[wl]
                .workload
                .graph
                .func(workloads::NodeId(node))
                .name
                .clone();
            let t = &self.tasks[task_id];
            self.obs.trace.span(SpanRecord {
                name: func_name,
                cat: "task",
                track,
                start: t.enqueued_at,
                end: now,
                args: vec![
                    ("server", Json::from(t.server)),
                    ("instance", Json::from(inst_idx)),
                    ("cold", Json::from(t.cold)),
                ],
            });
        }
        {
            let inst = &mut self.deployed[wl].instances[node][inst_idx];
            inst.active.retain(|&t| t != task_id);
            inst.last_finish = now;
        }
        self.try_start(now, wl, node, inst_idx);

        let async_children: Vec<usize> = self.deployed[wl]
            .workload
            .graph
            .children(workloads::NodeId(node))
            .iter()
            .filter(|(_, k)| *k == CallKind::Async)
            .map(|(c, _)| c.0)
            .collect();
        for child in async_children {
            let ready = {
                let r = &mut self.requests[req as usize];
                r.remaining_async[child] -= 1;
                r.remaining_async[child] == 0
            };
            if ready {
                self.forward(now, req, wl, child);
            }
        }

        let nested_parent = self.deployed[wl].nested_parent[node];
        let finished_request = {
            let r = &mut self.requests[req as usize];
            r.nodes_remaining -= 1;
            r.nodes_remaining == 0 && !r.done
        };
        if let Some(parent) = nested_parent {
            let parent_done = {
                let r = &mut self.requests[req as usize];
                r.nested_pending[parent] -= 1;
                r.nested_pending[parent] == 0
            };
            if parent_done {
                let parent_task = self.requests[req as usize].node_task[parent]
                    .expect("nested parent task missing");
                debug_assert_eq!(self.tasks[parent_task].state, TaskState::NestedWait);
                self.complete_task(now, parent_task);
            }
        }
        if finished_request {
            let r = &mut self.requests[req as usize];
            r.done = true;
            r.outcome = Some(Outcome::Completed);
            let arrival = r.arrival;
            let e2e = now.since(arrival).as_millis();
            self.emit(
                now,
                JournalEvent::Completed {
                    wl: wl as u32,
                    req,
                    e2e_ms: e2e,
                },
            );
            if let Some(t) = self.obs.telemetry.as_mut() {
                if self.sla_ms[wl].is_some_and(|sla| e2e > sla) {
                    t.incr("sla.violations", 1);
                }
            }
            if self.obs.tracing() {
                let name = self.deployed[wl].workload.name.clone();
                self.obs.trace.span(SpanRecord {
                    name,
                    cat: "request",
                    track: Track::request(req),
                    start: arrival,
                    end: now,
                    args: vec![("e2e_ms", Json::from(e2e))],
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Collection & autoscaling
    // ------------------------------------------------------------------

    fn on_collect(&mut self, now: SimTime) {
        // Cache contention and whole-server utilization per server.
        let contentions: Vec<_> = self.servers.iter().map(|s| s.contention()).collect();
        let cpu_utils: Vec<f64> = self.servers.iter().map(|s| s.cpu_utilization()).collect();
        let mem_utils: Vec<f64> = self
            .servers
            .iter()
            .map(|s| s.memory_utilization())
            .collect();

        // Per-(wl, node) metric synthesis over executing tasks.
        let mut samples: Vec<Vec<Vec<MetricVector>>> = self
            .deployed
            .iter()
            .map(|d| vec![Vec::new(); d.workload.graph.len()])
            .collect();
        for server in 0..self.servers.len() {
            let base_freq = self.servers[server].spec().base_freq_ghz;
            for &tid in &self.server_tasks[server] {
                let t = &self.tasks[tid];
                let socket = self.deployed[t.wl].instances[t.node][t.inst].socket;
                let phase = &t.phases[t.phase_idx];
                let load = phase.load(socket);
                let ic = contentions[server].instance(&load);
                let m = cluster::microarch::synthesize(
                    &phase.micro,
                    &load,
                    &ic,
                    base_freq,
                    cpu_utils[server],
                    &self.config.microarch,
                    &mut self.synth_rngs[server],
                );
                samples[t.wl][t.node].push(m);
            }
        }
        for (wl, nodes) in samples.into_iter().enumerate() {
            for (node, vecs) in nodes.into_iter().enumerate() {
                if !vecs.is_empty() {
                    let m = MetricVector::mean_of(&vecs);
                    self.emit(
                        now,
                        JournalEvent::MetricSample {
                            wl: wl as u32,
                            node: node as u32,
                            values: m.as_slice().to_vec(),
                        },
                    );
                }
            }
        }

        // Utilization snapshot.
        let active_cores: f64 = self
            .servers
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| s.spec().cores as f64)
            .sum();
        let density = if active_cores > 0.0 {
            self.instance_count as f64 / active_cores
        } else {
            0.0
        };
        self.emit(
            now,
            JournalEvent::Utilization {
                cpu: cpu_utils,
                memory: mem_utils,
                density,
                instances: self.instance_count as u64,
            },
        );

        if let Some(t) = self.obs.telemetry.as_mut() {
            let queued: usize = self
                .deployed
                .iter()
                .flat_map(|d| d.instances.iter().flatten())
                .map(|i| i.queue.len())
                .sum();
            let executing: usize = self.server_tasks.iter().map(Vec::len).sum();
            t.gauge("gateway.depth", self.gateway.depth() as f64);
            t.gauge("instances.total", self.instance_count as f64);
            t.gauge("tasks.queued", queued as f64);
            t.gauge("tasks.executing", executing as f64);
        }

        self.autoscale(now);

        // Checkpoint records ride the collect tick: cheap (no extra events on
        // the queue) and aligned with a consistent post-autoscale state.
        if self.checkpoint_every > SimTime::ZERO && now >= self.next_checkpoint {
            let state = self.checkpoint_state(now);
            self.journal(now, &JournalEvent::Checkpoint(state));
            while self.next_checkpoint <= now {
                self.next_checkpoint = self.next_checkpoint.plus(self.checkpoint_every);
            }
        }

        // Refresh the live Prometheus exposition, if a hub is attached.
        // Read-only over telemetry/fault-log state: zero determinism impact.
        if let (Some(hub), Some(t)) = (self.obs.prom.as_ref(), self.obs.telemetry.as_ref()) {
            hub.publish(t, self.obs.faults.as_ref());
        }

        // Always arm the next tick, even past the current `run_until` end:
        // a later call then resumes sampling where this one stopped, and the
        // tick's sequence number is drawn at the same point of the run
        // however the run is sliced.
        self.next_collect = now.plus(self.config.collect_interval);
        self.queue.schedule(self.next_collect, Ev::Collect);
    }

    /// Snapshot the engine's replay-relevant state for a checkpoint record.
    /// Everything that is cheap to capture exactly is captured exactly (RNG
    /// stream words, counters); bulky structures (the instance table) are
    /// fingerprinted so resume verification can still detect divergence.
    fn checkpoint_state(&self, now: SimTime) -> CheckpointState {
        let mut fp = FNV_OFFSET;
        let mut total = 0u64;
        let mut alive = 0u64;
        for (wl, d) in self.deployed.iter().enumerate() {
            for (node, insts) in d.instances.iter().enumerate() {
                for inst in insts {
                    total += 1;
                    alive += inst.alive as u64;
                    fnv_mix(&mut fp, wl as u64);
                    fnv_mix(&mut fp, node as u64);
                    fnv_mix(&mut fp, inst.server as u64);
                    fnv_mix(&mut fp, inst.socket as u64);
                    fnv_mix(&mut fp, inst.alive as u64);
                }
            }
        }
        // Word-wise FNV fold over every per-server synthesis stream, in
        // server order.
        let mut rng_words = [FNV_OFFSET; 4];
        for rng in &self.synth_rngs {
            for (word, w) in rng_words.iter_mut().zip(rng.state()) {
                fnv_mix(word, w);
            }
        }
        CheckpointState {
            at_us: now.as_micros(),
            sim_rng: rng_words,
            retry_rng: self.retry_rng.state(),
            fault_fingerprint: self.faults.as_ref().map_or(0, |f| f.state_fingerprint()),
            pending_events: self.queue.len() as u64,
            gateway_depth: self.gateway.depth() as u64,
            instances_total: total,
            instances_alive: alive,
            instance_table_fp: fp,
            tasks_created: self.tasks.len() as u64,
            requests_created: self.requests.len() as u64,
            requests_settled: self.requests.iter().filter(|r| r.outcome.is_some()).count() as u64,
        }
    }

    fn autoscale(&mut self, now: SimTime) {
        if self.placer.is_none() {
            return;
        }
        // Refresh the placer's degraded-mode flag from the outage window.
        let available = now >= self.predictor_down_until;
        self.placer
            .as_mut()
            .expect("checked above")
            .set_predictor_available(available);
        // Collect scale-out requests first to avoid borrowing conflicts.
        let mut wanted: Vec<(usize, usize)> = Vec::new();
        for (wl, d) in self.deployed.iter().enumerate() {
            for node in 0..d.workload.graph.len() {
                let insts = &d.instances[node];
                // Pressure arithmetic over the alive instances only.
                let n_alive = insts.iter().filter(|i| i.alive).count();
                if n_alive >= self.scale.max_instances_per_node {
                    continue;
                }
                if n_alive == 0 {
                    // Every instance of this node is dead and no re-warm
                    // succeeded yet: always ask for a replacement.
                    wanted.push((wl, node));
                    continue;
                }
                let queued: usize = insts
                    .iter()
                    .filter(|i| i.alive)
                    .map(|i| i.queue.len())
                    .sum();
                let busy: usize = insts
                    .iter()
                    .filter(|i| i.alive)
                    .map(|i| i.active.len())
                    .sum();
                let capacity =
                    n_alive * d.workload.graph.func(workloads::NodeId(node)).concurrency as usize;
                let queue_pressure = queued as f64 / n_alive as f64 > self.scale.queue_per_instance;
                let busy_pressure =
                    capacity > 0 && busy as f64 / capacity as f64 > self.scale.busy_fraction;
                if queue_pressure || busy_pressure {
                    wanted.push((wl, node));
                }
            }
        }
        for (wl, node) in wanted {
            let decision = {
                let placer = self.placer.as_mut().expect("checked above");
                let view = ClusterView::with_liveness(&self.servers, &self.alive);
                let d = &self.deployed[wl];
                let spec = d.workload.graph.func(workloads::NodeId(node));
                placer.note_time(now.as_millis());
                placer.place(&view, &d.workload, node, spec)
            };
            if let Some(p) = decision {
                assert!(p.server < self.servers.len(), "placer chose bad server");
                assert!(self.alive[p.server], "placer chose dead server");
                self.deployed[wl].instances[node].push(Instance {
                    server: p.server,
                    socket: p.socket,
                    active: Vec::new(),
                    queue: VecDeque::new(),
                    last_finish: SimTime::ZERO,
                    used: false,
                    alive: true,
                });
                self.instance_count += 1;
                self.emit(
                    now,
                    placement_journal_event(PlacementKind::ScaleOut, wl, node, &p),
                );
            } else if let Some(t) = self.obs.telemetry.as_mut() {
                t.incr("autoscaler.rejections", 1);
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault injection & degradation
    // ------------------------------------------------------------------

    /// Record a fault or recovery action. Fault records are run facts only
    /// while a fault log is attached: runs without one journal none.
    fn log_fault(&mut self, now: SimTime, kind: &'static str, target: i64, value: f64) {
        if self.obs.faults.is_some() {
            self.emit(
                now,
                JournalEvent::Fault {
                    kind: kind.to_string(),
                    target,
                    value,
                },
            );
        }
    }

    /// One injected fault fires: draw the kind and target, apply it, and
    /// schedule the next tick from the injector's private stream.
    fn on_fault_tick(&mut self, now: SimTime) {
        let Some(inj) = self.faults.as_mut() else {
            return;
        };
        let kind = inj.draw_kind();
        if let Some(t) = self.obs.telemetry.as_mut() {
            t.incr("faults.injected", 1);
        }
        match kind {
            FaultKind::ServerCrash => {
                let up: Vec<usize> = (0..self.alive.len()).filter(|&s| self.alive[s]).collect();
                if !up.is_empty() {
                    let target = up[self.faults.as_mut().expect("checked").pick(up.len())];
                    self.crash_server(now, target);
                    let recovery = self
                        .faults
                        .as_ref()
                        .expect("checked")
                        .config()
                        .crash_recovery;
                    self.queue
                        .schedule(now.plus(recovery), Ev::ServerRecover { server: target });
                }
            }
            FaultKind::ServerSlowdown => {
                let up: Vec<usize> = (0..self.alive.len()).filter(|&s| self.alive[s]).collect();
                if !up.is_empty() {
                    let inj = self.faults.as_mut().expect("checked");
                    let target = up[inj.pick(up.len())];
                    let factor = inj.config().slowdown_factor;
                    let duration = inj.config().slowdown_duration;
                    self.log_fault(now, "slowdown", target as i64, factor);
                    self.settle_server(now, target);
                    self.slow_mult[target] = factor;
                    // A newer episode supersedes a pending end: move it.
                    let at = now.plus(duration);
                    match self.slow_end[target] {
                        Some(h) => self.queue.reschedule(h, at),
                        None => {
                            self.slow_end[target] =
                                Some(self.queue.schedule(at, Ev::SlowdownEnd { server: target }));
                        }
                    }
                    self.reschedule_server(now, target);
                }
            }
            FaultKind::InstanceOom => {
                // Uniform pick over all alive instances, in deployment order.
                let mut candidates: Vec<(usize, usize, usize)> = Vec::new();
                for (wl, d) in self.deployed.iter().enumerate() {
                    for (node, insts) in d.instances.iter().enumerate() {
                        for (i, inst) in insts.iter().enumerate() {
                            if inst.alive {
                                candidates.push((wl, node, i));
                            }
                        }
                    }
                }
                if !candidates.is_empty() {
                    let (wl, node, i) = candidates[self
                        .faults
                        .as_mut()
                        .expect("checked")
                        .pick(candidates.len())];
                    let server = self.deployed[wl].instances[node][i].server;
                    self.log_fault(now, "oom_kill", server as i64, node as f64);
                    self.kill_instance(now, wl, node, i);
                    self.rewarm(now, vec![(wl, node)]);
                }
            }
            FaultKind::ColdStartStorm => {
                let duration = self
                    .faults
                    .as_ref()
                    .expect("checked")
                    .config()
                    .cold_storm_duration;
                self.cold_storm_until = now.plus(duration);
                self.log_fault(now, "cold_storm", -1, duration.as_millis());
            }
            FaultKind::PredictorOutage => {
                let duration = self
                    .faults
                    .as_ref()
                    .expect("checked")
                    .config()
                    .predictor_outage_duration;
                self.predictor_down_until = now.plus(duration);
                self.log_fault(now, "predictor_outage", -1, duration.as_millis());
                if let Some(p) = self.placer.as_mut() {
                    p.set_predictor_available(false);
                }
            }
        }
        if let Some(next) = self
            .faults
            .as_mut()
            .and_then(|inj| inj.next_event_after(now))
        {
            self.queue.schedule(next, Ev::FaultTick);
        }
    }

    /// Take a server dark: kill its instances, fail over every request that
    /// had a task on them, tell the placer, and re-warm lost capacity
    /// elsewhere.
    fn crash_server(&mut self, now: SimTime, server: usize) {
        if !self.alive[server] {
            return;
        }
        self.alive[server] = false;
        // A slowdown episode in progress dies with the server: its end
        // never fires, and the server rejoins healthy on recovery.
        if let Some(h) = self.slow_end[server].take() {
            self.queue.cancel(h);
        }
        self.log_fault(now, "server_crash", server as i64, 0.0);
        if let Some(t) = self.obs.telemetry.as_mut() {
            t.incr("faults.server_crashes", 1);
        }
        let mut victims: BTreeSet<u64> = BTreeSet::new();
        let mut lost: Vec<(usize, usize)> = Vec::new();
        for (wl, d) in self.deployed.iter_mut().enumerate() {
            for (node, insts) in d.instances.iter_mut().enumerate() {
                for inst in insts.iter_mut() {
                    if inst.alive && inst.server == server {
                        inst.alive = false;
                        self.instance_count -= 1;
                        victims.extend(inst.active.iter().map(|&t| self.tasks[t].req));
                        victims.extend(inst.queue.iter().map(|&t| self.tasks[t].req));
                        lost.push((wl, node));
                    }
                }
            }
        }
        if let Some(p) = self.placer.as_mut() {
            p.note_server_down(server);
        }
        for req in victims {
            self.fail_or_retry(now, req);
        }
        self.rewarm(now, lost);
    }

    fn on_server_recover(&mut self, now: SimTime, server: usize) {
        self.alive[server] = true;
        self.slow_mult[server] = 1.0;
        self.log_fault(now, "server_recover", server as i64, 0.0);
    }

    fn on_slowdown_end(&mut self, now: SimTime, server: usize) {
        debug_assert!(self.alive[server], "a crash cancels the slowdown end");
        self.slow_end[server] = None;
        self.settle_server(now, server);
        self.slow_mult[server] = 1.0;
        self.log_fault(now, "slowdown_end", server as i64, 0.0);
        self.reschedule_server(now, server);
    }

    /// OOM-kill one instance: fail over its tasks and mark it dead.
    fn kill_instance(&mut self, now: SimTime, wl: usize, node: usize, inst_idx: usize) {
        let mut victims: BTreeSet<u64> = BTreeSet::new();
        {
            let inst = &mut self.deployed[wl].instances[node][inst_idx];
            if !inst.alive {
                return;
            }
            inst.alive = false;
            self.instance_count -= 1;
            victims.extend(inst.active.iter().map(|&t| self.tasks[t].req));
            victims.extend(inst.queue.iter().map(|&t| self.tasks[t].req));
        }
        for req in victims {
            self.fail_or_retry(now, req);
        }
    }

    /// Replace lost instances: ask the placer on a liveness-masked view,
    /// falling back to the least-utilized alive server so a missing
    /// predictor never blocks recovery.
    fn rewarm(&mut self, now: SimTime, lost: Vec<(usize, usize)>) {
        for (wl, node) in lost {
            let decision = {
                let view = ClusterView::with_liveness(&self.servers, &self.alive);
                match self.placer.as_mut() {
                    Some(placer) => {
                        let d = &self.deployed[wl];
                        let spec = d.workload.graph.func(workloads::NodeId(node));
                        placer.note_time(now.as_millis());
                        placer.place(&view, &d.workload, node, spec)
                    }
                    None => None,
                }
            };
            let decision = decision.or_else(|| {
                // Interference-oblivious fallback: most CPU headroom wins.
                let view = ClusterView::with_liveness(&self.servers, &self.alive);
                (0..self.servers.len())
                    .filter(|&s| self.alive[s])
                    .max_by(|&a, &b| {
                        view.cpu_headroom(a)
                            .partial_cmp(&view.cpu_headroom(b))
                            .expect("NaN headroom")
                    })
                    .map(|server| PlacementDecision {
                        server,
                        socket: self.servers[server].least_loaded_socket(None),
                    })
            });
            if let Some(p) = decision {
                debug_assert!(self.alive[p.server], "re-warm targeted a dead server");
                self.deployed[wl].instances[node].push(Instance {
                    server: p.server,
                    socket: p.socket,
                    active: Vec::new(),
                    queue: VecDeque::new(),
                    last_finish: SimTime::ZERO,
                    used: false,
                    alive: true,
                });
                self.instance_count += 1;
                self.log_fault(now, "rewarm", p.server as i64, node as f64);
                self.emit(
                    now,
                    placement_journal_event(PlacementKind::Rewarm, wl, node, &p),
                );
            }
        }
    }

    /// A request attempt failed (crash, drop, OOM, timeout): abort all its
    /// tasks, then either schedule a backoff retry or mark it failed.
    fn fail_or_retry(&mut self, now: SimTime, req: u64) {
        if self.requests[req as usize].outcome.is_some() {
            return;
        }
        self.abort_request_tasks(now, req);
        let wl = self.requests[req as usize].wl;
        let attempt = self.requests[req as usize].attempt;
        // Bump the attempt immediately so anything still in flight for the
        // aborted attempt (forwards, timeouts) is stale from here on.
        self.requests[req as usize].attempt = attempt + 1;
        if attempt < self.resilience.max_retries {
            let u = self.retry_rng.f64();
            let delay = self.resilience.backoff_delay(attempt, u);
            self.emit(
                now,
                JournalEvent::Retry {
                    wl: wl as u32,
                    req,
                    delay_ms: delay.as_millis(),
                },
            );
            self.log_fault(now, "retry", req as i64, delay.as_millis());
            self.queue
                .schedule(now.plus(delay), Ev::RetryRequest { req });
        } else {
            let r = &mut self.requests[req as usize];
            r.outcome = Some(Outcome::Failed);
            r.done = true;
            self.emit(
                now,
                JournalEvent::Failed {
                    wl: wl as u32,
                    req,
                    attempts: attempt,
                },
            );
            self.log_fault(now, "request_failed", req as i64, attempt as f64);
        }
    }

    /// Abort every live task of a request (releasing instance slots, queue
    /// positions and server loads) and reset its DAG bookkeeping so a retry
    /// can re-run the whole call graph.
    fn abort_request_tasks(&mut self, now: SimTime, req: u64) {
        let wl = self.requests[req as usize].wl;
        let nodes = self.deployed[wl].workload.graph.len();
        let mut freed: Vec<(usize, usize)> = Vec::new();
        for node in 0..nodes {
            let Some(tid) = self.requests[req as usize].node_task[node] else {
                continue;
            };
            let (state, inst_idx, server) = {
                let t = &self.tasks[tid];
                (t.state, t.inst, t.server)
            };
            match state {
                TaskState::Queued => {
                    self.deployed[wl].instances[node][inst_idx]
                        .queue
                        .retain(|&t| t != tid);
                }
                TaskState::Executing => {
                    if let Some(load_id) = self.tasks[tid].load_id.take() {
                        self.settle_server(now, server);
                        self.servers[server].remove(load_id);
                        self.server_tasks[server].retain(|&t| t != tid);
                        self.reschedule_server(now, server);
                    }
                    self.deployed[wl].instances[node][inst_idx]
                        .active
                        .retain(|&t| t != tid);
                    freed.push((node, inst_idx));
                }
                TaskState::NestedWait => {
                    // Holds a concurrency slot but no server load.
                    self.deployed[wl].instances[node][inst_idx]
                        .active
                        .retain(|&t| t != tid);
                    freed.push((node, inst_idx));
                }
                TaskState::Done => {}
            }
            let t = &mut self.tasks[tid];
            t.state = TaskState::Done;
            if let Some(h) = t.phase_end.take() {
                self.queue.cancel(h);
            }
        }
        {
            let r = &mut self.requests[req as usize];
            r.node_task = vec![None; nodes];
            r.nested_pending = vec![0; nodes];
            r.nodes_remaining = nodes;
            r.remaining_async = self.deployed[wl].async_parents.clone();
        }
        // Freed slots can admit queued tasks of other requests.
        for (node, inst_idx) in freed {
            if self.deployed[wl].instances[node][inst_idx].alive {
                self.try_start(now, wl, node, inst_idx);
            }
        }
    }

    fn on_retry_request(&mut self, now: SimTime, req: u64) {
        let (wl, attempt) = {
            let r = &self.requests[req as usize];
            if r.outcome.is_some() {
                return;
            }
            (r.wl, r.attempt)
        };
        let roots: Vec<usize> = self.deployed[wl]
            .workload
            .graph
            .roots()
            .iter()
            .map(|r| r.0)
            .collect();
        for node in roots {
            self.forward(now, req, wl, node);
        }
        if let Some(timeout) = self.resilience.request_timeout {
            self.queue
                .schedule(now.plus(timeout), Ev::RequestTimeout { req, attempt });
        }
    }

    fn on_request_timeout(&mut self, now: SimTime, req: u64, attempt: u32) {
        {
            let r = &self.requests[req as usize];
            if r.outcome.is_some() || r.attempt != attempt {
                return; // settled, or the attempt was already aborted
            }
        }
        if let Some(t) = self.obs.telemetry.as_mut() {
            t.incr("requests.timeouts", 1);
        }
        self.log_fault(now, "timeout", req as i64, attempt as f64);
        self.fail_or_retry(now, req);
    }

    /// Move every instance of one function node to a different socket on its
    /// current server — the local isolation control of Observation 5.
    pub fn migrate_node_socket(&mut self, wl: WorkloadId, node: usize, socket: usize) {
        let now = self.queue.now();
        let mut touched_servers = Vec::new();
        let n_inst = self.deployed[wl.0].instances[node].len();
        for inst_idx in 0..n_inst {
            let server = self.deployed[wl.0].instances[node][inst_idx].server;
            assert!(
                socket < self.servers[server].spec().sockets as usize,
                "socket out of range"
            );
            self.settle_server(now, server);
            self.deployed[wl.0].instances[node][inst_idx].socket = socket;
            // Re-pin any executing task's load.
            let tids: Vec<usize> = self.server_tasks[server]
                .iter()
                .copied()
                .filter(|&t| {
                    let t = &self.tasks[t];
                    t.wl == wl.0 && t.node == node && t.inst == inst_idx
                })
                .collect();
            for tid in tids {
                let phase = self.tasks[tid].phases[self.tasks[tid].phase_idx];
                if let Some(load_id) = self.tasks[tid].load_id {
                    self.servers[server].update(load_id, phase.load(socket));
                }
            }
            touched_servers.push(server);
        }
        touched_servers.sort_unstable();
        touched_servers.dedup();
        for s in touched_servers {
            self.reschedule_server(now, s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::PlacementDecision;
    use workloads::functionbench;
    use workloads::loadgen::uniform_arrivals;
    use workloads::socialnetwork;

    fn place_all(w: &Workload, server: usize, socket: usize) -> Vec<Vec<PlacementDecision>> {
        (0..w.graph.len())
            .map(|_| vec![PlacementDecision { server, socket }])
            .collect()
    }

    fn small_sim(seed: u64) -> Simulation {
        Simulation::new(PlatformConfig::small(seed))
    }

    #[test]
    fn single_function_request_completes() {
        let mut sim = small_sim(1);
        let w = functionbench::float_operation(); // 0.4 s CPU burst
        let placement = place_all(&w, 0, 0);
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::OpenLoop(vec![SimTime::from_secs(0.1)]),
        });
        sim.run_until(SimTime::from_secs(10.0));
        let r = sim.report();
        assert_eq!(r.workloads[0].arrivals, 1);
        assert_eq!(r.workloads[0].completions, 1);
        // Cold start (400 ms default? float-op has none) — no cold phase, so
        // latency ≈ 400 ms work + gateway forward.
        let lat = r.workloads[0].e2e_latencies_ms[0];
        assert!((lat - 400.3).abs() < 2.0, "latency {lat} ms");
    }

    #[test]
    fn solo_social_network_matches_dag_analysis() {
        let mut sim = Simulation::new(PlatformConfig::paper_testbed(2));
        let w = socialnetwork::message_posting();
        let expected_ms = w.critical_path_duration().as_millis();
        let placement = place_all(&w, 0, 0);
        sim.deploy(Deployment {
            workload: w,
            placement,
            // Two arrivals: the first eats all cold starts, the second is
            // fully warm and must match the DAG's solo analysis.
            arrivals: ArrivalSpec::OpenLoop(vec![
                SimTime::from_secs(1.0),
                SimTime::from_secs(30.0),
            ]),
        });
        sim.run_until(SimTime::from_secs(60.0));
        let r = sim.report();
        assert_eq!(r.workloads[0].completions, 2);
        let warm = r.workloads[0].e2e_latencies_ms[1];
        // Allow gateway forwards (11 edges × 0.3 ms) on top of pure compute.
        assert!(
            warm >= expected_ms && warm < expected_ms + 10.0,
            "warm latency {warm} vs solo {expected_ms}"
        );
        let cold = r.workloads[0].e2e_latencies_ms[0];
        assert!(cold > warm + 300.0, "cold {cold} should include startup");
        assert!(r.workloads[0].cold_starts() >= 9);
    }

    #[test]
    fn queueing_grows_under_overload() {
        let mut sim = small_sim(3);
        let mut w = functionbench::float_operation();
        // Make it a 100 ms function with concurrency 1.
        {
            let root = w.graph.roots()[0];
            let f = w.graph.func_mut(root);
            f.phases[0].duration = SimTime::from_millis(100.0);
            f.concurrency = 1;
        }
        let placement = place_all(&w, 0, 0);
        // 20 rps against a 10 rps capacity: queue must blow up.
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::OpenLoop(uniform_arrivals(20.0, SimTime::from_secs(5.0))),
        });
        sim.run_until(SimTime::from_secs(20.0));
        let r = sim.report();
        let lats = &r.workloads[0].e2e_latencies_ms;
        assert!(lats.len() > 50);
        let early = lats[2];
        let late = lats[lats.len() - 1];
        assert!(
            late > 4.0 * early,
            "queueing should inflate: {early} -> {late}"
        );
    }

    #[test]
    fn colocation_slows_execution() {
        // Same socket: matmul corunner inflates a CPU-bound function's time.
        let run = |colocate: bool| {
            let mut sim = Simulation::new(PlatformConfig::small(7));
            let mut victim = functionbench::float_operation();
            {
                let root = victim.graph.roots()[0];
                victim.graph.func_mut(root).phases[0].duration = SimTime::from_millis(500.0);
                // Make the victim demand enough CPU that sharing matters.
                victim.graph.func_mut(root).phases[0]
                    .demand
                    .set(cluster::Resource::Cpu, 2.0);
            }
            let placement = place_all(&victim, 0, 0);
            sim.deploy(Deployment {
                workload: victim,
                placement,
                arrivals: ArrivalSpec::OpenLoop(vec![SimTime::from_secs(5.0)]),
            });
            if colocate {
                let mm = functionbench::matrix_multiplication();
                let placement = place_all(&mm, 0, 0);
                sim.deploy(Deployment {
                    workload: mm,
                    placement,
                    arrivals: ArrivalSpec::Jobs(vec![SimTime::from_secs(0.1)]),
                });
            }
            sim.run_until(SimTime::from_secs(200.0));
            sim.report().workloads[0].e2e_latencies_ms[0]
        };
        let solo = run(false);
        let corun = run(true);
        assert!(
            corun > 1.3 * solo,
            "colocation should slow the victim: solo {solo}, corun {corun}"
        );
    }

    #[test]
    fn metrics_collected_during_execution() {
        let mut sim = small_sim(9);
        let w = functionbench::dd(); // 90 s disk job
        let placement = place_all(&w, 0, 0);
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::Jobs(vec![SimTime::ZERO]),
        });
        sim.run_until(SimTime::from_secs(30.0));
        let samples = &sim.report().workloads[0].functions[0].metric_samples;
        assert!(
            samples.len() >= 25,
            "expected ~30 1Hz samples, got {}",
            samples.len()
        );
        // dd's baseline IPC is 0.9; noisy samples should hover nearby.
        let ipc = sim.report().workloads[0].functions[0].mean_ipc();
        assert!((ipc - 0.9).abs() < 0.1, "ipc {ipc}");
    }

    #[test]
    fn jct_reflects_phase_sum() {
        let mut sim = Simulation::new(PlatformConfig::paper_testbed(11));
        let w = functionbench::logistic_regression(); // 430 s solo
        let placement = place_all(&w, 0, 0);
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::Jobs(vec![SimTime::ZERO]),
        });
        sim.run_until(SimTime::from_secs(600.0));
        let jct = sim.report().workloads[0].mean_jct_secs();
        assert!((jct - 430.0).abs() < 2.0, "solo JCT {jct}");
    }

    #[test]
    fn utilization_sampled() {
        let mut sim = small_sim(13);
        let w = functionbench::dd();
        let placement = place_all(&w, 0, 0);
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::Jobs(vec![SimTime::ZERO]),
        });
        sim.run_until(SimTime::from_secs(10.0));
        let u = &sim.report().utilization;
        assert!(u.len() >= 9);
        assert!(u.iter().any(|s| s.cpu[0] > 0.0));
        assert!(u[0].function_density > 0.0);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut sim = Simulation::new(PlatformConfig::small(42));
            let w = socialnetwork::message_posting();
            let placement = place_all(&w, 0, 0);
            sim.deploy(Deployment {
                workload: w,
                placement,
                arrivals: ArrivalSpec::OpenLoop(uniform_arrivals(5.0, SimTime::from_secs(5.0))),
            });
            sim.run_until(SimTime::from_secs(30.0));
            sim.report().workloads[0].e2e_latencies_ms.clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "placement must cover")]
    fn deploy_rejects_partial_placement() {
        let mut sim = small_sim(1);
        let w = socialnetwork::message_posting();
        sim.deploy(Deployment {
            workload: w,
            placement: vec![vec![PlacementDecision {
                server: 0,
                socket: 0,
            }]],
            arrivals: ArrivalSpec::OpenLoop(vec![]),
        });
    }

    fn traced_social_run() -> (RunReport, obs::Obs) {
        let mut sim = Simulation::new(PlatformConfig::small(42));
        let w = socialnetwork::message_posting();
        let placement = place_all(&w, 0, 0);
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::OpenLoop(uniform_arrivals(5.0, SimTime::from_secs(3.0))),
        });
        sim.set_obs(obs::Obs::recording());
        sim.run_until(SimTime::from_secs(30.0));
        let o = sim.take_obs();
        (sim.into_report(), o)
    }

    #[test]
    fn tracing_produces_well_nested_spans() {
        let (report, o) = traced_social_run();
        assert!(report.workloads[0].completions > 10);
        let sink = o.memory_sink().expect("recording obs has a memory sink");
        for cat in ["gateway", "queue", "phase", "cold", "task", "request"] {
            assert!(
                sink.spans_in(cat).next().is_some(),
                "no '{cat}' spans recorded"
            );
        }
        // One request-root span per completed request, one task span per
        // completed invocation.
        let requests = sink.spans_in("request").count() as u64;
        assert_eq!(requests, report.workloads[0].completions);
        let tasks = sink.spans_in("task").count() as u64;
        let invocations: u64 = report.workloads[0]
            .functions
            .iter()
            .map(|f| f.completions)
            .sum();
        assert_eq!(tasks, invocations);
        let violations = obs::trace::nesting_violations(sink.spans());
        assert!(violations.is_empty(), "nesting violations: {violations:?}");
    }

    #[test]
    fn telemetry_counters_match_report() {
        let (report, o) = traced_social_run();
        let t = o.telemetry.expect("recording obs has telemetry");
        assert_eq!(t.counter("requests.arrivals"), report.workloads[0].arrivals);
        assert_eq!(
            t.counter("requests.completions"),
            report.workloads[0].completions
        );
        assert_eq!(
            t.counter("instances.cold_starts"),
            report.workloads[0].cold_starts()
        );
        assert!(t.counter("contention.recomputes") > 0);
        assert!(t.histogram("request.e2e_ms").unwrap().count() > 0);
        assert!(t.gauge_value("instances.total").is_some());
    }

    #[test]
    fn sla_violations_counted() {
        let mut sim = Simulation::new(PlatformConfig::small(42));
        let w = functionbench::float_operation(); // ~400 ms service
        let placement = place_all(&w, 0, 0);
        let id = sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::OpenLoop(vec![SimTime::from_secs(0.1)]),
        });
        sim.set_sla_ms(id, 1.0); // impossible SLA: every request violates
        sim.set_obs(obs::Obs::telemetry_only());
        sim.run_until(SimTime::from_secs(10.0));
        let t = sim.take_obs().telemetry.unwrap();
        assert_eq!(t.counter("sla.violations"), 1);
    }

    #[test]
    fn observability_does_not_perturb_the_simulation() {
        let run = |record: bool| {
            let mut sim = Simulation::new(PlatformConfig::small(42));
            let w = socialnetwork::message_posting();
            let placement = place_all(&w, 0, 0);
            sim.deploy(Deployment {
                workload: w,
                placement,
                arrivals: ArrivalSpec::OpenLoop(uniform_arrivals(5.0, SimTime::from_secs(3.0))),
            });
            if record {
                sim.set_obs(obs::Obs::recording());
            }
            sim.run_until(SimTime::from_secs(30.0));
            sim.into_report()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn faults_off_is_bit_identical_to_no_fault_layer() {
        // Installing a fully-disabled FaultConfig and the default
        // ResilienceConfig must not perturb the simulation at all.
        let run = |with_layer: bool| {
            let mut sim = Simulation::new(PlatformConfig::small(42));
            let w = socialnetwork::message_posting();
            let placement = place_all(&w, 0, 0);
            sim.deploy(Deployment {
                workload: w,
                placement,
                arrivals: ArrivalSpec::OpenLoop(uniform_arrivals(5.0, SimTime::from_secs(3.0))),
            });
            if with_layer {
                sim.set_faults(faults::FaultConfig::off());
                sim.set_resilience(crate::config::ResilienceConfig::default());
            }
            sim.run_until(SimTime::from_secs(30.0));
            sim.into_report()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn crash_fails_requests_without_retries() {
        let mut sim = small_sim(5);
        let w = functionbench::dd(); // 90 s job: still running at crash time
        let placement = place_all(&w, 0, 0);
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::Jobs(vec![SimTime::from_secs(1.0)]),
        });
        // Enable the injector path (tiny gateway jitter) without any
        // discrete faults, then crash the only server by hand.
        sim.set_faults(faults::FaultConfig {
            gateway_jitter_max: SimTime::from_micros(1),
            ..faults::FaultConfig::off()
        });
        sim.run_until(SimTime::from_secs(5.0));
        sim.inject_server_crash(0);
        sim.run_until(SimTime::from_secs(10.0));
        assert!(!sim.server_alive(0));
        let ws = &sim.report().workloads[0];
        assert_eq!(ws.arrivals, 1);
        assert_eq!(ws.completions, 0);
        assert_eq!(ws.failed, 1, "no retry budget: the request must fail");
        assert_eq!(sim.request_outcome(0), Some(Outcome::Failed));
    }

    #[test]
    fn crash_with_retries_recovers_on_rewarmed_instance() {
        let mut sim = Simulation::new(PlatformConfig::paper_testbed(6));
        let mut w = functionbench::float_operation();
        {
            let root = w.graph.roots()[0];
            w.graph.func_mut(root).phases[0].duration = SimTime::from_secs(20.0);
        }
        let placement = place_all(&w, 0, 0);
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::OpenLoop(vec![SimTime::from_secs(1.0)]),
        });
        sim.set_faults(faults::FaultConfig {
            gateway_jitter_max: SimTime::from_micros(1),
            ..faults::FaultConfig::off()
        });
        sim.set_resilience(crate::config::ResilienceConfig {
            max_retries: 3,
            backoff_base: SimTime::from_millis(50.0),
            ..Default::default()
        });
        sim.run_until(SimTime::from_secs(5.0));
        sim.inject_server_crash(0); // mid-service: task is executing
        sim.run_until(SimTime::from_secs(120.0));
        let ws = &sim.report().workloads[0];
        assert_eq!(
            ws.completions, 1,
            "retry must land on the re-warmed instance"
        );
        assert_eq!(ws.retries, 1);
        assert_eq!(sim.request_outcome(0), Some(Outcome::Completed));
    }

    #[test]
    fn crash_without_fault_injector_routes_around_the_dead_instance() {
        // No `set_faults`: the crash comes only from the public hook, and the
        // re-warmed replacement must take all later traffic.
        let mut sim = Simulation::new(PlatformConfig::paper_testbed(7));
        let w = functionbench::float_operation(); // 0.4 s CPU burst
        let placement = place_all(&w, 0, 0);
        let before: Vec<SimTime> = (0..6).map(|i| SimTime::from_secs(0.5 * i as f64)).collect();
        let after: Vec<SimTime> = (0..10)
            .map(|i| SimTime::from_secs(5.0 + 0.5 * i as f64))
            .collect();
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::OpenLoop(before.iter().chain(&after).copied().collect()),
        });
        sim.set_obs(obs::Obs::recording());
        let crash_at = SimTime::from_secs(4.0);
        sim.run_until(crash_at);
        assert_eq!(sim.report().workloads[0].completions, before.len() as u64);
        sim.inject_server_crash(0);
        sim.run_until(SimTime::from_secs(30.0));
        assert!(!sim.server_alive(0));
        let ws = &sim.report().workloads[0];
        assert_eq!(ws.arrivals, (before.len() + after.len()) as u64);
        assert_eq!(ws.completions, ws.arrivals, "every request completes");
        let o = sim.take_obs();
        let sink = o.memory_sink().expect("recording obs has a memory sink");
        let on_dead_server: Vec<_> = sink
            .spans_in("phase")
            .filter(|s| s.start >= crash_at)
            .filter(|s| {
                s.args
                    .iter()
                    .any(|(k, v)| *k == "server" && *v == Json::from(0usize))
            })
            .collect();
        assert!(
            on_dead_server.is_empty(),
            "phases ran on the crashed server: {on_dead_server:?}"
        );
    }

    #[test]
    fn shedding_bounds_gateway_queue() {
        let mut sim = small_sim(8);
        let mut w = functionbench::float_operation();
        {
            let root = w.graph.roots()[0];
            let f = w.graph.func_mut(root);
            f.phases[0].duration = SimTime::from_millis(500.0);
            f.concurrency = 1;
        }
        let placement = place_all(&w, 0, 0);
        // A 20-request burst in one instant: the gateway queue builds faster
        // than the 0.3 ms/forward service drains it.
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::OpenLoop(vec![SimTime::from_secs(1.0); 20]),
        });
        sim.set_resilience(crate::config::ResilienceConfig {
            shed_queue_depth: Some(3),
            ..Default::default()
        });
        sim.run_until(SimTime::from_secs(30.0));
        let ws = &sim.report().workloads[0];
        assert!(ws.shed > 0, "overload must shed");
        assert_eq!(ws.arrivals, ws.completions + ws.shed + ws.failed);
    }

    #[test]
    fn fault_log_is_the_same_with_and_without_a_journal() {
        // The fault log is a fold of the emitted events, so attaching a
        // journal must not change a single record.
        let run = |journal: bool| {
            let mut sim = Simulation::new(PlatformConfig::paper_testbed(21));
            let w = socialnetwork::message_posting();
            let placement = (0..w.graph.len())
                .map(|node| {
                    (0..2)
                        .map(|i| PlacementDecision {
                            server: (node + i) % 4,
                            socket: 0,
                        })
                        .collect()
                })
                .collect();
            sim.deploy(Deployment {
                workload: w,
                placement,
                arrivals: ArrivalSpec::OpenLoop(uniform_arrivals(40.0, SimTime::from_secs(60.0))),
            });
            let mut bundle = Obs::off().with_fault_log();
            if journal {
                let sink = obs::journal::MemoryJournal::in_memory(&Json::obj(), None);
                bundle = bundle.with_journal(Box::new(sink));
            }
            sim.set_obs(bundle);
            sim.set_faults(FaultConfig {
                seed: 21,
                server_crash_rate_per_min: 2.0,
                slowdown_rate_per_min: 4.0,
                oom_rate_per_min: 2.0,
                cold_storm_rate_per_min: 1.0,
                gateway_drop_prob: 0.02,
                gateway_jitter_max: SimTime::from_millis(2.0),
                predictor_outage_rate_per_min: 1.0,
                ..FaultConfig::off()
            });
            sim.set_resilience(ResilienceConfig {
                request_timeout: Some(SimTime::from_secs(2.0)),
                max_retries: 2,
                shed_queue_depth: Some(40),
                ..Default::default()
            });
            sim.run_until(SimTime::from_secs(60.0));
            let bundle = sim.take_obs();
            let records = bundle.journal.map_or(0, |j| j.stats().records);
            (bundle.faults.expect("fault log attached"), records)
        };
        let (plain, no_records) = run(false);
        let (journaled, records) = run(true);
        assert_eq!(no_records, 0);
        assert!(records > 0, "the journaled run must write records");
        let kinds = plain.counts();
        assert!(
            kinds.len() >= 8,
            "the point must exercise most fault kinds: {kinds:?}"
        );
        assert_eq!(plain.to_jsonl(), journaled.to_jsonl());
    }

    #[test]
    fn gateway_latencies_recorded() {
        let mut sim = small_sim(17);
        let w = functionbench::float_operation();
        let placement = place_all(&w, 0, 0);
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::OpenLoop(uniform_arrivals(10.0, SimTime::from_secs(2.0))),
        });
        sim.run_until(SimTime::from_secs(10.0));
        let fwd = &sim.report().gateway_forward_ms;
        assert!(fwd.len() >= 20, "every arrival is one forward");
        // Unloaded gateway: each forward ≈ base cost (0.3 ms).
        assert!(fwd.iter().all(|&ms| ms < 5.0));
    }
}
