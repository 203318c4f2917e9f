//! The recording half of the subsystem: the zero-cost [`TraceAccess`]
//! handle, the per-worker [`WorkerTracer`], and the [`Tracer`] sink that
//! collects every worker's ring after the run.
//!
//! The design mirrors `TtAccess`/`CtlAccess`: search back-ends take a
//! `R: TraceAccess` parameter, `()` makes every call an inlined no-op the
//! optimizer deletes (trace-off builds compile to the pre-trace code), and
//! `&Tracer` records. Hot-path rules (DESIGN.md §11):
//!
//! * a worker records only into its own [`WorkerTracer`] — interior
//!   mutability, no atomics, **no shared-lock acquisitions**; the one
//!   `Mutex` in [`Tracer`] is touched exactly once per worker per run, at
//!   [`TraceAccess::submit`] time;
//! * rings are bounded and preallocated ([`EventRing`]), so recording
//!   never allocates;
//! * timestamps are amortized: instants reuse the worker's last clock
//!   read most of the time (refreshing every [`AMORTIZE_PERIOD`] instants)
//!   and spans reuse `Instant`s the execution layer already takes for its
//!   contention counters, so tracing adds almost no clock traffic to the
//!   worker loop.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::event::{EventKind, TraceEvent};
use crate::ring::EventRing;

/// Default per-worker ring capacity (events). At ~24 bytes per event this
/// is under a megabyte per worker.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 15;

/// An amortized instant reads the clock once per this many recordings;
/// in between it reuses the last timestamp (monotone, never backwards).
pub const AMORTIZE_PERIOD: u32 = 16;

/// Worker-side recording interface. `()` is the disabled implementation:
/// every method is an empty `#[inline(always)]` body, so trace-off
/// monomorphizations compile to today's code.
pub trait WorkerTrace {
    /// `false` only for the no-op implementation; lets call sites skip
    /// computing event arguments entirely when tracing is off.
    const ENABLED: bool;

    /// Nanoseconds since the tracer epoch (a fresh clock read), or 0 when
    /// disabled. Also refreshes the amortized timestamp.
    fn now_ns(&self) -> u64;

    /// Records a span from explicit nanosecond bounds.
    fn span(&self, kind: EventKind, start_ns: u64, dur_ns: u64, arg: u32);

    /// Records a span whose start was captured as an [`Instant`] (reusing
    /// a clock read the caller already paid for) and whose duration the
    /// caller measured itself.
    fn span_at(&self, kind: EventKind, start: Instant, dur_ns: u64, arg: u32);

    /// Records an instant with an amortized timestamp (no clock read on
    /// most calls) — for high-frequency events like TT probes.
    fn instant(&self, kind: EventKind, arg: u32);

    /// Records an instant with a fresh clock read — for rare events where
    /// the exact time matters (abort trips, depth boundaries).
    fn instant_now(&self, kind: EventKind, arg: u32);
}

impl WorkerTrace for () {
    const ENABLED: bool = false;

    #[inline(always)]
    fn now_ns(&self) -> u64 {
        0
    }

    #[inline(always)]
    fn span(&self, _kind: EventKind, _start_ns: u64, _dur_ns: u64, _arg: u32) {}

    #[inline(always)]
    fn span_at(&self, _kind: EventKind, _start: Instant, _dur_ns: u64, _arg: u32) {}

    #[inline(always)]
    fn instant(&self, _kind: EventKind, _arg: u32) {}

    #[inline(always)]
    fn instant_now(&self, _kind: EventKind, _arg: u32) {}
}

/// One worker's private recorder: a bounded ring plus the amortized
/// timestamp state. Owned by (and moved into) the worker thread; handed
/// back to the [`Tracer`] via [`TraceAccess::submit`] when the thread is
/// done. Interior mutability keeps recording possible through the shared
/// references held by wrappers like [`Traced`](crate::Traced).
#[derive(Debug)]
pub struct WorkerTracer {
    index: usize,
    epoch: Instant,
    ring: RefCell<EventRing>,
    last_ns: Cell<u64>,
    ticks: Cell<u32>,
}

impl WorkerTracer {
    fn new(index: usize, epoch: Instant, capacity: usize) -> WorkerTracer {
        WorkerTracer {
            index,
            epoch,
            ring: RefCell::new(EventRing::new(capacity)),
            last_ns: Cell::new(0),
            ticks: Cell::new(0),
        }
    }

    /// The worker index this recorder belongs to (the Chrome-trace row).
    pub fn index(&self) -> usize {
        self.index
    }

    fn push(&self, kind: EventKind, ts_ns: u64, dur_ns: u64, arg: u32) {
        self.ring.borrow_mut().push(TraceEvent {
            kind,
            ts_ns,
            dur_ns,
            arg,
        });
    }

    fn fresh_ns(&self) -> u64 {
        let ns = self.epoch.elapsed().as_nanos() as u64;
        self.last_ns.set(ns);
        ns
    }

    fn instant_ns(&self, start: Instant) -> u64 {
        start
            .checked_duration_since(self.epoch)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
    }

    fn into_parts(self) -> (usize, Vec<TraceEvent>, u64) {
        let (events, dropped) = self.ring.into_inner().into_ordered();
        (self.index, events, dropped)
    }
}

impl WorkerTrace for WorkerTracer {
    const ENABLED: bool = true;

    fn now_ns(&self) -> u64 {
        self.fresh_ns()
    }

    fn span(&self, kind: EventKind, start_ns: u64, dur_ns: u64, arg: u32) {
        self.push(kind, start_ns, dur_ns, arg);
    }

    fn span_at(&self, kind: EventKind, start: Instant, dur_ns: u64, arg: u32) {
        let ts = self.instant_ns(start);
        self.last_ns.set(self.last_ns.get().max(ts + dur_ns));
        self.push(kind, ts, dur_ns, arg);
    }

    fn instant(&self, kind: EventKind, arg: u32) {
        let t = self.ticks.get();
        self.ticks.set(t.wrapping_add(1));
        let ts = if t.is_multiple_of(AMORTIZE_PERIOD) {
            self.fresh_ns()
        } else {
            self.last_ns.get()
        };
        self.push(kind, ts, 0, arg);
    }

    fn instant_now(&self, kind: EventKind, arg: u32) {
        let ts = self.fresh_ns();
        self.push(kind, ts, 0, arg);
    }
}

/// How a search back-end reaches the (possibly absent) tracer. `Copy` so
/// it threads through the generic run functions for free, exactly like
/// `TtAccess` and `CtlAccess`.
pub trait TraceAccess: Copy + Send + Sync {
    /// The per-worker recorder type handed to each thread.
    type Worker: WorkerTrace + Send;

    /// `false` only for the disabled (`()`) handle.
    const ENABLED: bool;

    /// Creates the recorder for worker `index` (called once per thread,
    /// before the worker loop).
    fn worker(self, index: usize) -> Self::Worker;

    /// Hands a worker's finished ring back to the sink (called once per
    /// thread, after the worker loop).
    fn submit(self, worker: Self::Worker);

    /// The tracer behind the handle, if one is attached — for drivers
    /// that record instants on the driver row.
    fn tracer(&self) -> Option<&Tracer>;
}

/// The "tracing off" handle: workers get `()` recorders and nothing is
/// ever stored.
impl TraceAccess for () {
    type Worker = ();
    const ENABLED: bool = false;

    #[inline(always)]
    fn worker(self, _index: usize) {}

    #[inline(always)]
    fn submit(self, _worker: ()) {}

    fn tracer(&self) -> Option<&Tracer> {
        None
    }
}

impl TraceAccess for &Tracer {
    type Worker = WorkerTracer;
    const ENABLED: bool = true;

    fn worker(self, index: usize) -> WorkerTracer {
        WorkerTracer::new(index, self.epoch, self.capacity)
    }

    fn submit(self, worker: WorkerTracer) {
        let (index, events, dropped) = worker.into_parts();
        let mut rows = self.rows.lock().unwrap_or_else(|e| e.into_inner());
        let row = rows.entry(index).or_default();
        row.events.extend(events);
        row.dropped += dropped;
    }

    fn tracer(&self) -> Option<&Tracer> {
        Some(self)
    }
}

/// One collected timeline row: the retained events (oldest-first) and how
/// many older events the bounded ring overwrote.
#[derive(Clone, Debug, Default)]
pub struct RowData {
    /// Retained events, oldest-first.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overwrite.
    pub dropped: u64,
}

/// The collection sink for one (or several sequential) searches. Create
/// one, attach `&tracer` in the trace slot of a threaded search's hooks,
/// then [`snapshot`] the collected data for aggregation or export.
///
/// Sequential runs against the same `Tracer` (e.g. the iterations of an
/// iterative-deepening driver) merge into the same per-worker rows, so the
/// exported timeline shows the whole deepening run on one row per worker.
///
/// [`snapshot`]: Tracer::snapshot
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    capacity: usize,
    rows: Mutex<BTreeMap<usize, RowData>>,
    driver: Mutex<RowData>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer with the default per-worker ring capacity.
    pub fn new() -> Tracer {
        Tracer::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A tracer whose workers keep at most `capacity` events each.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            capacity: capacity.max(1),
            rows: Mutex::new(BTreeMap::new()),
            driver: Mutex::new(RowData::default()),
        }
    }

    /// Nanoseconds since this tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records an instant on the *driver* row (the coordinator thread —
    /// iterative-deepening depth boundaries, abort observations). Not a
    /// hot path: takes the driver mutex.
    pub fn driver_instant(&self, kind: EventKind, arg: u32) {
        let ts = self.now_ns();
        let mut d = self.driver.lock().unwrap_or_else(|e| e.into_inner());
        d.events.push(TraceEvent {
            kind,
            ts_ns: ts,
            dur_ns: 0,
            arg,
        });
    }

    /// Records a span on the driver row from explicit bounds.
    pub fn driver_span(&self, kind: EventKind, start_ns: u64, dur_ns: u64, arg: u32) {
        let mut d = self.driver.lock().unwrap_or_else(|e| e.into_inner());
        d.events.push(TraceEvent {
            kind,
            ts_ns: start_ns,
            dur_ns,
            arg,
        });
    }

    /// Copies out everything collected so far.
    pub fn snapshot(&self) -> TraceData {
        let rows = self.rows.lock().unwrap_or_else(|e| e.into_inner());
        let driver = self.driver.lock().unwrap_or_else(|e| e.into_inner());
        TraceData {
            workers: rows.iter().map(|(i, r)| (*i, r.clone())).collect(),
            driver: driver.clone(),
            wall_ns: self.now_ns(),
        }
    }
}

/// A snapshot of everything a [`Tracer`] collected: one row per worker
/// (sorted by index) plus the driver row.
#[derive(Clone, Debug)]
pub struct TraceData {
    /// `(worker index, row)` pairs in index order.
    pub workers: Vec<(usize, RowData)>,
    /// The coordinator/driver row.
    pub driver: RowData,
    /// Nanoseconds from the tracer epoch to the snapshot.
    pub wall_ns: u64,
}

impl TraceData {
    /// Iterates every event in the snapshot (workers, then driver).
    pub fn all_events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.workers
            .iter()
            .flat_map(|(_, r)| r.events.iter())
            .chain(self.driver.events.iter())
    }

    /// Events per kind, indexed by `EventKind as usize`.
    pub fn counts(&self) -> [u64; crate::event::KIND_COUNT] {
        let mut c = [0u64; crate::event::KIND_COUNT];
        for ev in self.all_events() {
            c[ev.kind as usize] += 1;
        }
        c
    }

    /// Total events retained across all rows.
    pub fn total_events(&self) -> u64 {
        self.workers
            .iter()
            .map(|(_, r)| r.events.len() as u64)
            .sum::<u64>()
            + self.driver.events.len() as u64
    }

    /// Total events lost to ring overwrite across all rows.
    pub fn total_dropped(&self) -> u64 {
        self.workers.iter().map(|(_, r)| r.dropped).sum::<u64>() + self.driver.dropped
    }

    /// Declared kinds with at least one event recorded.
    pub fn kinds_seen(&self) -> usize {
        self.counts().iter().filter(|&&n| n > 0).count()
    }

    /// Declared kinds with *no* event recorded (labels, for diagnostics).
    pub fn kinds_missing(&self) -> Vec<&'static str> {
        let c = self.counts();
        EventKind::ALL
            .iter()
            .filter(|k| c[**k as usize] == 0)
            .map(|k| k.label())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::let_unit_value)] // the unit impl is the thing under test
    fn disabled_handle_records_nothing_and_reads_no_clock() {
        const OFF: bool = <() as TraceAccess>::ENABLED;
        const { assert!(!OFF) };
        let w = <() as TraceAccess>::worker((), 0);
        assert_eq!(w.now_ns(), 0);
        w.instant(EventKind::TtProbe, 1);
        w.instant_now(EventKind::AbortTrip, 0);
        w.span(EventKind::JobExecute, 0, 10, 0);
        <() as TraceAccess>::submit((), w);
    }

    #[test]
    fn worker_rings_merge_into_rows_by_index() {
        let tracer = Tracer::with_capacity(64);
        let tr: &Tracer = &tracer;
        for round in 0..2u32 {
            let w = tr.worker(3);
            w.instant_now(EventKind::QueueDepth, round);
            tr.submit(w);
        }
        let w0 = tr.worker(0);
        w0.instant_now(EventKind::Park, 0);
        tr.submit(w0);
        let data = tr.snapshot();
        assert_eq!(data.workers.len(), 2);
        assert_eq!(data.workers[0].0, 0);
        assert_eq!(data.workers[1].0, 3);
        assert_eq!(
            data.workers[1].1.events.len(),
            2,
            "sequential submits to one index share a row"
        );
    }

    #[test]
    fn amortized_instants_are_monotone() {
        let tracer = Tracer::new();
        let w = (&tracer).worker(0);
        for i in 0..100 {
            w.instant(EventKind::TtProbe, i);
        }
        w.instant_now(EventKind::AbortTrip, 0);
        (&tracer).submit(w);
        let data = tracer.snapshot();
        let evs = &data.workers[0].1.events;
        assert_eq!(evs.len(), 101);
        for pair in evs.windows(2) {
            assert!(pair[0].ts_ns <= pair[1].ts_ns, "timestamps went backwards");
        }
    }

    #[test]
    fn driver_row_is_separate() {
        let tracer = Tracer::new();
        tracer.driver_instant(EventKind::IdDepthStart, 1);
        tracer.driver_instant(EventKind::IdDepthFinish, 1);
        let data = tracer.snapshot();
        assert!(data.workers.is_empty());
        assert_eq!(data.driver.events.len(), 2);
        assert_eq!(data.counts()[EventKind::IdDepthStart as usize], 1);
        assert_eq!(data.kinds_seen(), 2);
        assert_eq!(data.kinds_missing().len(), crate::event::KIND_COUNT - 2);
    }
}
