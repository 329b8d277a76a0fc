//! Delegating wrappers that time calls into the `sched` and `obs` layers
//! from outside. Each forwards every trait method unchanged (including
//! `as_any`, so downcasts still reach the wrapped policy or sink) and only
//! records how long the calls took.

use crate::trace;
use obs::journal::{JournalEvent, JournalSink, JournalStats};
use platform::scale::{ClusterView, PlacementDecision, Placer};
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use workloads::{FunctionSpec, Workload};

/// Host time of every `Placer::place` call, in call order.
#[derive(Debug, Default, Clone)]
pub struct PlaceLog {
    /// Duration of each call, ns.
    pub ns: Vec<u64>,
    /// Calls answered with `None`.
    pub refused: u64,
}

/// Times a [`Placer`] and opens a `sched.place` span per call.
pub struct TimedPlacer {
    inner: Box<dyn Placer>,
    log: Rc<RefCell<PlaceLog>>,
}

impl TimedPlacer {
    /// Wrap `inner`; the returned log fills as the simulation places.
    pub fn new(inner: Box<dyn Placer>) -> (Self, Rc<RefCell<PlaceLog>>) {
        let log = Rc::new(RefCell::new(PlaceLog::default()));
        (
            Self {
                inner,
                log: log.clone(),
            },
            log,
        )
    }
}

impl Placer for TimedPlacer {
    fn place(
        &mut self,
        view: &ClusterView<'_>,
        workload: &Workload,
        node: usize,
        spec: &FunctionSpec,
    ) -> Option<PlacementDecision> {
        let _span = trace::span("sched.place");
        let t = Instant::now();
        let d = self.inner.place(view, workload, node, spec);
        let ns = t.elapsed().as_nanos() as u64;
        let mut log = self.log.borrow_mut();
        log.ns.push(ns);
        log.refused += u64::from(d.is_none());
        d
    }

    fn note_time(&mut self, now_ms: f64) {
        self.inner.note_time(now_ms);
    }

    fn set_predictor_available(&mut self, available: bool) {
        self.inner.set_predictor_available(available);
    }

    fn note_server_down(&mut self, server: usize) {
        self.inner.note_server_down(server);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}

/// Count and total host time of journal `record` calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct JournalTiming {
    /// `record` calls.
    pub records: u64,
    /// Their summed duration, ns.
    pub ns: u64,
}

/// Times a [`JournalSink`] and opens an `obs.journal` span per record.
pub struct TimedJournal {
    inner: Box<dyn JournalSink>,
    timing: Rc<RefCell<JournalTiming>>,
}

impl TimedJournal {
    /// Wrap `inner`; the returned timing fills as the simulation records.
    pub fn new(inner: Box<dyn JournalSink>) -> (Self, Rc<RefCell<JournalTiming>>) {
        let timing = Rc::new(RefCell::new(JournalTiming::default()));
        (
            Self {
                inner,
                timing: timing.clone(),
            },
            timing,
        )
    }
}

impl JournalSink for TimedJournal {
    fn record(&mut self, at_us: u64, event: &JournalEvent) {
        let _span = trace::span("obs.journal");
        let t = Instant::now();
        self.inner.record(at_us, event);
        let ns = t.elapsed().as_nanos() as u64;
        let mut timing = self.timing.borrow_mut();
        timing.records += 1;
        timing.ns += ns;
    }

    fn checkpoint_every_us(&self) -> Option<u64> {
        self.inner.checkpoint_every_us()
    }

    fn stats(&self) -> JournalStats {
        self.inner.stats()
    }

    fn finish(&mut self) {
        self.inner.finish();
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}
