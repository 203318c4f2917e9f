//! Real-thread back-end for parallel ER: the paper's problem heap on OS
//! threads.
//!
//! The paper's implementation ran one OS process per Sequent processor
//! against a shared problem heap (§6): each processor takes one node from
//! the heap, processes it under the alpha-beta window that holds at that
//! moment, and puts the result back. This back-end runs one thread per
//! (virtual) processor against the same [`ErWorker`] state the simulator
//! drives, in exactly that shape (DESIGN.md §9):
//!
//! * **One job per lock round.** A worker acquires the heap mutex once per
//!   job: it applies the outcome of the job it ran last, selects its next
//!   job, and releases the lock. Every cutoff reaches the tree before the
//!   worker's next selection, so no job runs under a window staler than
//!   one job of its own. At 1 worker the sequence of `select`/`apply`
//!   calls is the simulator's 1-processor sequence, so node counts equal
//!   [`run_er_sim`](super::run_er_sim)`(.., 1, ..)` exactly and repeat run
//!   to run.
//! * **Positions travel with the job.** The selected job carries its
//!   node's position as an `Arc<P>` handle — a refcount bump under the
//!   lock, never a deep clone ([`ThreadCounters::pos_clones_in_lock`]
//!   stays zero by construction and is asserted in the tests and the
//!   `repro scaling` experiment) — and the executor reads it after the
//!   lock is dropped.
//!
//! **The caller is worker 0.** A run spawns scoped threads only for
//! workers `1..threads` and runs worker 0's loop on the calling thread, so
//! a 1-worker search never leaves the caller and an n-worker search pays
//! for n - 1 thread creations, not n. There is deliberately no pool: it
//! would trade each spawn for waking a parked thread, and make every
//! 1-worker call a hand-off and back where inline worker 0 has none
//! (DESIGN.md §9 has the measurements).
//!
//! A worker that finds the heap empty parks on a condition variable; a
//! thread that leaves work behind after its selection wakes exactly one
//! parked sibling (`notify_one`), and `notify_all` is reserved for
//! termination. Every acquisition, wait/hold nanosecond, executed job,
//! wake-up and park is counted per thread
//! ([`ThreadCounters`]) and surfaced in [`ErThreadsResult`] so contention
//! is observable, not guessed at.
//!
//! **Abort protocol** (DESIGN.md §10). Every run carries a
//! [`SearchControl`] token. Workers poll it once per scheduling round
//! (through a per-thread [`CtlProbe`]) and per node inside
//! serial-frontier jobs (the probe rides into `execute_task`); cheap
//! leaf/movegen jobs carry no check of their own — one of them runs in
//! microseconds, so the round-top poll bounds the latency without taxing
//! the execute hot loop. Task execution runs under `catch_unwind`, so a
//! panicking evaluator trips the token instead of unwinding through the
//! pool, and a drop sentinel catches anything that escapes anyway. A
//! worker that observes a trip — its own or a sibling's — discards its
//! unapplied outcome (counted as `jobs_aborted`; a partial
//! result must never reach the shared tree or table), marks the run done
//! under a poison-tolerant lock, broadcasts the idle condvar so parked
//! siblings wake, and returns its counters. The caller runs worker 0 under
//! `catch_unwind`, joins every spawned thread (a panic in worker 0 or a
//! panicked join contributes default counters) and returns
//! `Err(`[`SearchAborted`]`)` — no hang, no poisoned-mutex cascade.
//!
//! On a multi-core host this achieves real speedup; on any host it
//! produces the same root value as every serial algorithm (the test suite
//! checks this). Above one worker, node counts vary run-to-run with thread
//! scheduling — exactly the nondeterminism the deterministic simulator
//! exists to remove.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use gametree::{GamePosition, SearchStats, Value, Window};
use metrics::MetricsAccess;
use problem_heap::ThreadCounters;
use trace::{EventKind, TraceAccess, Traced, Tracer, WorkerTrace};
use tt::{TranspositionTable, TtAccess, TtStats, Zobrist};

use search_serial::er::ErConfig;
use search_serial::ordering::OrdAccess;

use super::engine::{execute_task, ErWorker, Job, Outcome, Select, Task};
use super::ErParallelConfig;
use crate::control::{AbortReason, CtlProbe, SearchAborted, SearchControl};
use crate::tree::NodeId;

/// How workers map onto logical CPUs when pinning is requested.
///
/// Pinning stops the OS scheduler from migrating a worker mid-search:
/// a migrated thread abandons its warm L1/L2 (its node positions, its
/// home TT shards — see
/// [`TranspositionTable::home_shards`]) and refaults them on the new
/// core. The mapping is a pure function of the worker index so runs are
/// reproducible; it says nothing about the search schedule, and the root
/// value is bit-identical with pinning on, off, or unsupported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PinPolicy {
    /// Worker `i` on logical CPU `i % cores` — neighbouring workers land
    /// on neighbouring CPUs, which on common SMT-2 enumerations packs two
    /// workers per physical core first (good when workers share a TT).
    Compact,
    /// Worker `i` on logical CPU `(i * stride) mod`-ish, covering every
    /// CPU once before reusing one — `Scatter(2)` fills even CPUs before
    /// odd ones, i.e. one worker per physical core first on SMT-2 hosts
    /// (good for bandwidth-bound evaluation). A stride that does not
    /// divide the CPU count cannot tile it and falls back to [`Compact`].
    ///
    /// [`Compact`]: PinPolicy::Compact
    Scatter(usize),
}

impl PinPolicy {
    /// The logical CPU worker `worker` should run on, for a host exposing
    /// `cores` logical CPUs. Total: every worker gets a CPU (mod wrap),
    /// and any `cores` consecutive workers cover `cores` distinct CPUs.
    pub fn core_for(self, worker: usize, cores: usize) -> usize {
        let cores = cores.max(1);
        let i = worker % cores;
        match self {
            PinPolicy::Compact => i,
            PinPolicy::Scatter(stride) => {
                let s = stride.clamp(1, cores);
                if !cores.is_multiple_of(s) {
                    return i; // stride can't tile this host: compact
                }
                // Column-major walk of an s-column grid: bijective because
                // (i mod cols, i / cols) decomposes i uniquely.
                let cols = cores / s;
                (i % cols) * s + i / cols
            }
        }
    }
}

/// Thread-affinity calls. Linux-only: `sched_getaffinity(2)` and
/// `sched_setaffinity(2)` through the libc symbols std already links (no
/// new dependency).
#[cfg(target_os = "linux")]
mod affinity {
    /// A fixed 1024-bit mask matches glibc's `cpu_set_t`; cores beyond
    /// that are silently left unpinned (no such host exists in this
    /// repo's test matrix).
    pub type Mask = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The mask holding only logical CPU `core`.
    pub fn single(core: usize) -> Mask {
        let mut mask = [0u64; 16];
        let bit = core % (64 * mask.len());
        mask[bit / 64] = 1u64 << (bit % 64);
        mask
    }

    /// The calling thread's mask (pid 0 = the calling thread).
    pub fn get() -> Option<Mask> {
        let mut mask = [0u64; 16];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: the kernel writes at most `size` bytes into `mask`.
        (unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } == 0).then_some(mask)
    }

    /// Sets the calling thread's mask; returns whether it took effect.
    pub fn set(mask: &Mask) -> bool {
        // SAFETY: the kernel reads `size_of_val(mask)` bytes from `mask`.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
    }
}

/// Portable fallback: thread pinning is not plumbed on this OS, and every
/// call is a no-op.
#[cfg(not(target_os = "linux"))]
mod affinity {
    pub type Mask = ();

    pub fn single(_core: usize) -> Mask {}

    pub fn get() -> Option<Mask> {
        None
    }

    pub fn set(_mask: &Mask) -> bool {
        false
    }
}

/// Pins the calling thread to logical CPU `core`. Returns whether the
/// request took effect.
///
/// Linux-only; everywhere else this is a documented no-op returning
/// `false` — the search is correct unpinned, just more exposed to
/// migration.
pub fn pin_current_thread(core: usize) -> bool {
    affinity::set(&affinity::single(core))
}

/// A worker's pin for the length of its loop: pins on creation and puts
/// back the CPU mask the thread had before on drop (unwinding included).
/// Every worker restores, so one rule covers worker 0 — the caller's own
/// thread, which a search must hand back as it found it.
struct PinnedScope {
    saved: Option<affinity::Mask>,
}

impl PinnedScope {
    fn pin(core: usize) -> PinnedScope {
        let saved = affinity::get();
        pin_current_thread(core);
        PinnedScope { saved }
    }
}

impl Drop for PinnedScope {
    fn drop(&mut self) {
        if let Some(mask) = &self.saved {
            affinity::set(mask);
        }
    }
}

/// Logical CPUs the pinning policies map onto.
fn logical_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Execution-layer settings of the threaded back-end, orthogonal to the
/// algorithmic [`ErParallelConfig`]. The default pins nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadsConfig {
    /// Optional CPU-affinity policy for the worker threads. `None` (the
    /// default) leaves placement to the OS scheduler; `Some` pins worker
    /// `i` to [`PinPolicy::core_for`]`(i, cores)` where supported (Linux)
    /// and silently runs unpinned elsewhere. Every worker puts back its
    /// thread's previous mask when its loop ends, so the caller — worker
    /// 0 — leaves a pinned run with the mask it brought.
    pub pin: Option<PinPolicy>,
}

/// Result of a threaded parallel ER run.
#[derive(Clone, Debug)]
pub struct ErThreadsResult {
    /// The root value.
    pub value: Value,
    /// Aggregate nodes examined across all threads.
    pub stats: SearchStats,
    /// Leaves settled from memoized static values (no evaluator call).
    pub cached_leaf_hits: u64,
    /// Wall-clock duration of the search.
    pub elapsed: std::time::Duration,
    /// Contention counters, one entry per worker (worker 0 first: the
    /// calling thread).
    pub per_thread: Vec<ThreadCounters>,
    /// Transposition-table activity attributable to this run (the delta of
    /// the shared table's counters over the run), when a table was
    /// attached via [`run_er_threads_tt`]; `None` for table-free runs.
    pub tt: Option<TtStats>,
}

impl ErThreadsResult {
    /// All threads' counters merged.
    pub fn counters(&self) -> ThreadCounters {
        let mut total = ThreadCounters::default();
        for c in &self.per_thread {
            total.merge(c);
        }
        total
    }
}

/// Shared state guarded by the heap mutex: the scheduler core plus the
/// parked-thread count the targeted wake-up policy needs.
struct Shared<P: GamePosition> {
    worker: ErWorker<P>,
    /// Threads currently waiting on the idle condvar. Maintained under the
    /// lock, so "is anyone parked?" is exact, not heuristic.
    parked: usize,
    done: bool,
}

/// Unwraps a run launched without an external control: such a run can only
/// abort if a worker panicked, which the caller cannot recover from here.
fn expect_complete(r: Result<ErThreadsResult, SearchAborted>) -> ErThreadsResult {
    r.unwrap_or_else(|e| panic!("threaded search aborted without a deadline: {e}"))
}

/// Runs parallel ER with `threads` workers — the calling thread plus
/// `threads - 1` spawned ones — and the default execution layer (no
/// pinning).
pub fn run_er_threads<P: GamePosition>(
    pos: &P,
    depth: u32,
    threads: usize,
    cfg: &ErParallelConfig,
) -> ErThreadsResult {
    expect_complete(run_er_threads_exec(
        pos,
        depth,
        threads,
        cfg,
        ThreadsConfig::default(),
    ))
}

/// Runs parallel ER with full control over the execution layer.
///
/// Returns `Err(SearchAborted)` when the run could not complete — for this
/// deadline-free entry point that means a worker panicked. Attach a
/// deadline or cancellation token with [`run_er_threads_ctl`].
pub fn run_er_threads_exec<P: GamePosition>(
    pos: &P,
    depth: u32,
    threads: usize,
    cfg: &ErParallelConfig,
    exec: ThreadsConfig,
) -> Result<ErThreadsResult, SearchAborted> {
    run_er_threads_gen(
        pos,
        depth,
        Window::FULL,
        threads,
        cfg,
        exec,
        (),
        &SearchControl::unlimited(),
        (),
        (),
        (),
    )
}

/// [`run_er_threads_exec`] under an external [`SearchControl`]: the run
/// stops early (with `Err(SearchAborted)`) when `ctl`'s deadline passes,
/// [`SearchControl::cancel`] is called from another thread, or a worker
/// panics.
pub fn run_er_threads_ctl<P: GamePosition>(
    pos: &P,
    depth: u32,
    threads: usize,
    cfg: &ErParallelConfig,
    exec: ThreadsConfig,
    ctl: &SearchControl,
) -> Result<ErThreadsResult, SearchAborted> {
    run_er_threads_gen(
        pos,
        depth,
        Window::FULL,
        threads,
        cfg,
        exec,
        (),
        ctl,
        (),
        (),
        (),
    )
}

/// [`run_er_threads_ctl`] with a [`Tracer`] attached: every worker records
/// its activity (job spans, lock waits/holds, parks, queue depths,
/// abort trips) into a private bounded ring, submitted to `tracer` when
/// the thread joins. The root value is bit-identical to the untraced run.
#[allow(clippy::too_many_arguments)]
pub fn run_er_threads_trace<P: GamePosition>(
    pos: &P,
    depth: u32,
    threads: usize,
    cfg: &ErParallelConfig,
    exec: ThreadsConfig,
    ctl: &SearchControl,
    tracer: &Tracer,
) -> Result<ErThreadsResult, SearchAborted> {
    run_er_threads_gen(
        pos,
        depth,
        Window::FULL,
        threads,
        cfg,
        exec,
        (),
        ctl,
        tracer,
        (),
        (),
    )
}

/// [`run_er_threads_trace`] with a shared transposition table: the trace
/// additionally records every table probe and store (the handle is wrapped
/// in [`trace::Traced`] and rides into `execute_task` and the
/// serial-frontier searches unchanged).
#[allow(clippy::too_many_arguments)]
pub fn run_er_threads_trace_tt<P: GamePosition + Zobrist>(
    pos: &P,
    depth: u32,
    threads: usize,
    cfg: &ErParallelConfig,
    exec: ThreadsConfig,
    table: &TranspositionTable,
    ctl: &SearchControl,
    tracer: &Tracer,
) -> Result<ErThreadsResult, SearchAborted> {
    let before = table.stats();
    let mut r = run_er_threads_gen(
        pos,
        depth,
        Window::FULL,
        threads,
        cfg,
        exec,
        table,
        ctl,
        tracer,
        (),
        (),
    )?;
    r.tt = Some(table.stats().since(&before));
    Ok(r)
}

/// [`run_er_threads`] with all workers sharing `table`: every thread
/// probes and stores through the same lock-free table, so one worker's
/// refutation is every other worker's ordering hint (or outright answer).
/// [`ErThreadsResult::tt`] reports the run's table activity.
pub fn run_er_threads_tt<P: GamePosition + Zobrist>(
    pos: &P,
    depth: u32,
    threads: usize,
    cfg: &ErParallelConfig,
    table: &TranspositionTable,
) -> ErThreadsResult {
    expect_complete(run_er_threads_exec_tt(
        pos,
        depth,
        threads,
        cfg,
        ThreadsConfig::default(),
        table,
    ))
}

/// [`run_er_threads_exec`] with a shared transposition table.
pub fn run_er_threads_exec_tt<P: GamePosition + Zobrist>(
    pos: &P,
    depth: u32,
    threads: usize,
    cfg: &ErParallelConfig,
    exec: ThreadsConfig,
    table: &TranspositionTable,
) -> Result<ErThreadsResult, SearchAborted> {
    run_er_threads_ctl_tt(
        pos,
        depth,
        threads,
        cfg,
        exec,
        table,
        &SearchControl::unlimited(),
    )
}

/// [`run_er_threads_exec_tt`] under an external [`SearchControl`].
#[allow(clippy::too_many_arguments)]
pub fn run_er_threads_ctl_tt<P: GamePosition + Zobrist>(
    pos: &P,
    depth: u32,
    threads: usize,
    cfg: &ErParallelConfig,
    exec: ThreadsConfig,
    table: &TranspositionTable,
    ctl: &SearchControl,
) -> Result<ErThreadsResult, SearchAborted> {
    let before = table.stats();
    let mut r = run_er_threads_gen(
        pos,
        depth,
        Window::FULL,
        threads,
        cfg,
        exec,
        table,
        ctl,
        (),
        (),
        (),
    )?;
    r.tt = Some(table.stats().since(&before));
    Ok(r)
}

/// Poison-tolerant lock on the shared heap state. Worker panics are caught
/// around `execute_task` (outside the lock), so a poisoned mutex can only
/// come from a bug in the locked bookkeeping itself; even then, recovering
/// the guard and running the abort protocol beats cascading the panic
/// through every sibling and the coordinator.
fn lock_shared<P: GamePosition>(m: &Mutex<Shared<P>>) -> MutexGuard<'_, Shared<P>> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Last line of panic defense: a drop sentinel armed for the whole worker
/// loop. If a panic escapes the `catch_unwind` in [`run_job`] (e.g. out of
/// the locked `apply`/`select` bookkeeping), unwinding runs this guard,
/// which trips the token, marks the run done under a poison-tolerant lock,
/// and broadcasts the idle condvar — so parked siblings wake and exit
/// instead of waiting forever on a search that can no longer finish.
struct PanicSentinel<'a, P: GamePosition> {
    ctl: &'a SearchControl,
    shared: &'a Mutex<Shared<P>>,
    idle: &'a Condvar,
}

impl<P: GamePosition> Drop for PanicSentinel<'_, P> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.ctl.trip(AbortReason::WorkerPanicked);
            let mut g = lock_shared(self.shared);
            g.done = true;
            drop(g);
            self.idle.notify_all();
        }
    }
}

/// Maps a task to its trace-argument index (see [`trace::job_label`]).
fn task_arg(task: &Task) -> u32 {
    match task {
        Task::Leaf => 0,
        Task::CachedLeaf(_) => 1,
        Task::Movegen { .. } => 2,
        Task::NextChild => 3,
        Task::ExpandRest => 4,
        Task::Serial { .. } => 5,
    }
}

/// The fully general threaded entry point: an explicit root window (the
/// aspiration driver's probe), any table handle, any trace recorder, and a
/// shared killer/history handle (`()` disables dynamic ordering and keeps
/// the run bit-identical to [`run_er_threads_ctl`]'s schedule space).
///
/// With a narrowed `window` the result is exact only if it falls strictly
/// inside it; outside it is a fail-hard bound in the failing direction,
/// which the driver detects and re-searches.
#[allow(clippy::too_many_arguments)]
pub fn run_er_threads_window_ord<P, T, R, O>(
    pos: &P,
    depth: u32,
    window: Window,
    threads: usize,
    cfg: &ErParallelConfig,
    exec: ThreadsConfig,
    tt: T,
    ctl: &SearchControl,
    tr: R,
    ord: O,
) -> Result<ErThreadsResult, SearchAborted>
where
    P: GamePosition,
    T: TtAccess<P> + Send + Sync,
    R: TraceAccess,
    O: OrdAccess + Send + Sync,
{
    run_er_threads_gen(pos, depth, window, threads, cfg, exec, tt, ctl, tr, ord, ())
}

/// [`run_er_threads_window_ord`] with a live metrics handle
/// (DESIGN.md §16): per-acquisition lock waits land in the engine's
/// lock-wait histogram as they happen, and a completed run folds its
/// merged node/job totals into the counters once at the end. With
/// `mx = ()` every recording call compiles away and this *is*
/// [`run_er_threads_window_ord`]; the root value is bit-identical either
/// way (`repro obs` asserts it).
#[allow(clippy::too_many_arguments)]
pub fn run_er_threads_window_ord_metrics<P, T, R, O, M>(
    pos: &P,
    depth: u32,
    window: Window,
    threads: usize,
    cfg: &ErParallelConfig,
    exec: ThreadsConfig,
    tt: T,
    ctl: &SearchControl,
    tr: R,
    ord: O,
    mx: M,
) -> Result<ErThreadsResult, SearchAborted>
where
    P: GamePosition,
    T: TtAccess<P> + Send + Sync,
    R: TraceAccess,
    O: OrdAccess + Send + Sync,
    M: MetricsAccess,
{
    run_er_threads_gen(pos, depth, window, threads, cfg, exec, tt, ctl, tr, ord, mx)
}

#[allow(clippy::too_many_arguments)]
fn run_er_threads_gen<P, T, R, O, M>(
    pos: &P,
    depth: u32,
    window: Window,
    threads: usize,
    cfg: &ErParallelConfig,
    exec: ThreadsConfig,
    tt: T,
    ctl: &SearchControl,
    tr: R,
    ord: O,
    mx: M,
) -> Result<ErThreadsResult, SearchAborted>
where
    P: GamePosition,
    T: TtAccess<P> + Send + Sync,
    R: TraceAccess,
    O: OrdAccess + Send + Sync,
    M: MetricsAccess,
{
    assert!(threads > 0);
    // Resolved once so every worker maps against the same CPU count.
    let pin_cores = exec.pin.map(|policy| (policy, logical_cpus()));

    let shared = Mutex::new(Shared {
        worker: ErWorker::new_windowed(pos.clone(), depth, window, *cfg),
        parked: 0,
        done: false,
    });
    let idle = Condvar::new();
    let scfg = ErConfig {
        order: cfg.order,
        sel: cfg.sel,
    };
    let start = Instant::now();

    let shared = &shared;
    let idle = &idle;
    // The worker loop every participant runs: worker 0 on the calling
    // thread, workers 1.. on scoped threads spawned for this call.
    let work = |me: usize| -> ThreadCounters {
        // Best-effort: an unpinnable host (cgroup mask, non-Linux OS) just
        // runs scheduler-placed. The guard puts the thread's previous mask
        // back when the loop ends, which matters for worker 0: it is the
        // caller's own thread.
        let _pinned = pin_cores.map(|(policy, cores)| PinnedScope::pin(policy.core_for(me, cores)));
        let _sentinel = PanicSentinel { ctl, shared, idle };
        let probe = CtlProbe::new(ctl);
        // Per-worker recorder: `()` when tracing is off, so
        // every recording call below compiles away and the
        // loop is byte-identical to the untraced build.
        let wtr = tr.worker(me);
        let ttw = Traced::new(tt, &wtr);
        let mut counters = ThreadCounters::default();
        // The outcome of the job this worker ran last, applied at the top
        // of its next acquisition.
        let mut ready: Option<(NodeId, Outcome<P>)> = None;
        let aborting = loop {
            // Poll the token before applying the outcome: once it
            // trips, nothing more may be applied to the tree.
            if probe.check().is_some() {
                break true;
            }
            // ---- Locked phase: apply the last outcome, select one job.
            let waiting = Instant::now();
            let mut g = lock_shared(shared);
            let waited = waiting.elapsed().as_nanos() as u64;
            let holding = Instant::now();
            counters.lock_acquisitions += 1;
            counters.lock_wait_nanos += waited;
            wtr.span_at(EventKind::LockWait, waiting, waited, 0);
            mx.observe_lock_wait(me, waited);
            if let Some((id, outcome)) = ready.take() {
                counters.outcomes_applied += 1;
                if g.worker.apply(id, outcome) {
                    g.done = true;
                }
            }
            let job = loop {
                if g.done {
                    break None;
                }
                match g.worker.select() {
                    Select::Job(job) => break Some(job),
                    Select::JustFinished => g.done = true,
                    Select::Empty => {
                        counters.idle_parks += 1;
                        g.parked += 1;
                        let park_start = wtr.now_ns();
                        while !g.done && !g.worker.work_available() {
                            // A poisoned wait still hands the guard
                            // back; an aborting sibling has set `done`,
                            // which the loop condition re-checks.
                            g = idle.wait(g).unwrap_or_else(PoisonError::into_inner);
                        }
                        g.parked -= 1;
                        wtr.span(
                            EventKind::Park,
                            park_start,
                            wtr.now_ns().saturating_sub(park_start),
                            0,
                        );
                        wtr.instant(EventKind::Unpark, 0);
                    }
                }
            };
            let Some(Job { id, task }) = job else {
                // Termination is the one broadcast: every parked
                // thread must observe `done`.
                idle.notify_all();
                let hold = holding.elapsed().as_nanos() as u64;
                counters.lock_hold_nanos += hold;
                wtr.span_at(EventKind::LockHold, holding, hold, 0);
                break false;
            };
            // Targeted hand-off: if work remains after this selection
            // and someone is parked, wake exactly one sibling; it
            // chain-wakes the next if work remains.
            if g.parked > 0 && g.worker.work_available() {
                counters.wakeups += 1;
                idle.notify_one();
            }
            if R::ENABLED {
                // Sampled once per selection, still under the lock
                // (queue lengths are guarded state); recording itself
                // stays in the private ring.
                wtr.instant(EventKind::QueueDepth, g.worker.queue_len() as u32);
            }
            // A refcount bump, not a copy: the executor reads the
            // position after the lock is dropped.
            let pos = task.needs_pos().then(|| g.worker.node_pos_shared(id));
            let hold = holding.elapsed().as_nanos() as u64;
            counters.lock_hold_nanos += hold;
            wtr.span_at(EventKind::LockHold, holding, hold, 1);
            drop(g);

            // ---- Execute phase, entirely outside the lock. `None`
            // means the job produced no applicable outcome: the
            // control tripped mid-job or the task panicked (already
            // caught and converted into a trip).
            match run_job(
                &mut counters,
                pos.as_deref(),
                &task,
                scfg,
                ttw,
                &probe,
                &wtr,
                ord,
            ) {
                Some(outcome) => ready = Some((id, outcome)),
                None => break true,
            }
        };
        if aborting {
            // Abort protocol: discard the unapplied outcome (a
            // partial run's results must not touch the tree), mark
            // the run done under a poison-tolerant lock, and wake
            // every parked sibling.
            wtr.instant_now(
                EventKind::AbortTrip,
                ctl.reason().map(|r| r as u32).unwrap_or(0),
            );
            counters.jobs_aborted += ready.take().is_some() as u64;
            let mut g = lock_shared(shared);
            g.done = true;
            drop(g);
            idle.notify_all();
        }
        tr.submit(wtr);
        counters
    };
    let work = &work;
    let per_thread: Vec<ThreadCounters> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|i| scope.spawn(move || work(i))).collect();
        // The caller is worker 0, so a 1-worker search never leaves this
        // thread. Its panics are caught exactly like a spawned worker's
        // join error.
        let first = catch_unwind(AssertUnwindSafe(|| work(0)));
        std::iter::once(first)
            .chain(handles.into_iter().map(|h| h.join()))
            .map(|r| {
                // A worker that died panicking already tripped the token
                // (sentinel guard); tolerate the error and keep the
                // remaining counters.
                r.unwrap_or_else(|_| {
                    ctl.trip(AbortReason::WorkerPanicked);
                    ThreadCounters::default()
                })
            })
            .collect()
    });

    let elapsed = start.elapsed();
    let g = lock_shared(shared);
    // A run that completed its root wins any race with a late trip: the
    // value is exact, so report it.
    if let Some(value) = g.worker.root_value {
        if M::ENABLED {
            // One fold per run, off the hot path: the totals are already
            // merged per thread, so metrics-on cannot perturb the search
            // (only this cold coordinator tail differs from metrics-off).
            let mut total = ThreadCounters::default();
            for c in &per_thread {
                total.merge(c);
            }
            mx.record_search(
                g.worker.totals.nodes(),
                total.jobs_executed,
                elapsed.as_nanos() as u64,
            );
        }
        return Ok(ErThreadsResult {
            value,
            stats: g.worker.totals,
            cached_leaf_hits: g.worker.cached_leaf_hits,
            elapsed,
            per_thread,
            tt: None,
        });
    }
    Err(SearchAborted {
        reason: ctl.reason().unwrap_or(AbortReason::WorkerPanicked),
        counters: per_thread,
        elapsed,
    })
}

/// Executes one job lock-free on the position handle its selection took,
/// returning the outcome for the worker's next acquisition to apply.
///
/// Returns `None` when the job produced no applicable outcome: the
/// control tripped inside a serial-frontier batch, or the task panicked —
/// the panic is caught here and converted into a `WorkerPanicked` trip, so
/// an evaluator bug aborts the run instead of poisoning the heap mutex.
#[allow(clippy::too_many_arguments)]
fn run_job<P: GamePosition, T: TtAccess<P>, W: WorkerTrace, O: OrdAccess>(
    counters: &mut ThreadCounters,
    pos: Option<&P>,
    task: &Task,
    scfg: ErConfig,
    tt: T,
    probe: &CtlProbe<'_>,
    wtr: &W,
    ord: O,
) -> Option<Outcome<P>> {
    counters.jobs_executed += 1;
    let job_start = wtr.now_ns();
    let outcome = match catch_unwind(AssertUnwindSafe(|| {
        execute_task(task, pos, scfg, tt, probe, ord)
    })) {
        Ok(outcome) => outcome,
        Err(_) => {
            probe.control().trip(AbortReason::WorkerPanicked);
            counters.jobs_aborted += 1;
            return None;
        }
    };
    wtr.span(
        EventKind::JobExecute,
        job_start,
        wtr.now_ns().saturating_sub(job_start),
        task_arg(task),
    );
    if matches!(outcome, Outcome::Aborted) {
        counters.jobs_aborted += 1;
        return None;
    }
    if let Outcome::Serial { stats, .. } = &outcome {
        // Harvest the serial frontier's ordering/selectivity counters into
        // the per-thread totals the bench output surfaces.
        counters.re_searches += stats.re_searches;
        counters.killer_hits += stats.killer_hits;
        counters.history_hits += stats.history_hits;
        counters.q_extensions += stats.q_extensions;
    }
    Some(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gametree::random::RandomTreeSpec;
    use gametree::tictactoe::TicTacToe;
    use search_serial::negmax;

    #[test]
    fn matches_negmax_single_thread() {
        let root = RandomTreeSpec::new(21, 4, 6).root();
        let r = run_er_threads(&root, 6, 1, &ErParallelConfig::random_tree(3));
        assert_eq!(r.value, negmax(&root, 6).value);
    }

    #[test]
    fn matches_negmax_many_threads() {
        for seed in 0..4 {
            let root = RandomTreeSpec::new(seed, 4, 6).root();
            let exact = negmax(&root, 6).value;
            for threads in [2usize, 4, 8] {
                let r = run_er_threads(&root, 6, threads, &ErParallelConfig::random_tree(3));
                assert_eq!(r.value, exact, "seed {seed} threads {threads}");
            }
        }
    }

    #[test]
    fn tictactoe_threaded_draw() {
        let r = run_er_threads(
            &TicTacToe::initial(),
            9,
            4,
            &ErParallelConfig::random_tree(5),
        );
        assert_eq!(r.value, Value::ZERO);
    }

    #[test]
    fn repeated_runs_agree_on_value() {
        // Node counts may differ run to run; the value never may.
        let root = RandomTreeSpec::new(33, 4, 7).root();
        let exact = negmax(&root, 7).value;
        for _ in 0..5 {
            let r = run_er_threads(&root, 7, 4, &ErParallelConfig::random_tree(3));
            assert_eq!(r.value, exact);
        }
    }

    #[test]
    fn counters_are_populated_and_consistent() {
        let root = RandomTreeSpec::new(5, 4, 7).root();
        let r = run_er_threads(&root, 7, 4, &ErParallelConfig::random_tree(3));
        assert_eq!(r.per_thread.len(), 4);
        let total = r.counters();
        assert!(total.jobs_executed > 0);
        // Every executed job's outcome is applied exactly once.
        assert_eq!(total.jobs_executed, total.outcomes_applied);
    }

    #[test]
    fn one_acquisition_per_job_plus_one_exit_round() {
        // Each round takes the lock once, applies one outcome and selects
        // one job; a worker's last round finds the run done. Parks wait
        // inside a round and add no acquisition.
        let root = RandomTreeSpec::new(12, 4, 8).root();
        for threads in [1usize, 2, 4] {
            let r = run_er_threads(&root, 8, threads, &ErParallelConfig::random_tree(4));
            for (i, c) in r.per_thread.iter().enumerate() {
                assert_eq!(
                    c.lock_acquisitions,
                    c.jobs_executed + 1,
                    "worker {i} of {threads}"
                );
            }
        }
    }

    #[test]
    fn no_position_clone_under_the_lock() {
        // The acceptance invariant of the execution layer: a job takes its
        // position as a refcount bump under the lock, never a deep clone.
        let root = RandomTreeSpec::new(9, 4, 8).root();
        for threads in [1usize, 4, 8] {
            let r = run_er_threads(&root, 8, threads, &ErParallelConfig::random_tree(3));
            assert_eq!(r.counters().pos_clones_in_lock, 0, "threads {threads}");
        }
    }

    #[test]
    fn lock_timing_counters_are_populated() {
        let root = RandomTreeSpec::new(26, 4, 8).root();
        let r = run_er_threads(&root, 8, 4, &ErParallelConfig::random_tree(3));
        let c = r.counters();
        // Hold time is measured on every acquisition; it cannot be zero on
        // a run that applied thousands of outcomes.
        assert!(c.lock_hold_nanos > 0);
        assert!(c.mean_lock_wait_nanos() >= 0.0);
    }

    #[test]
    fn pin_policies_cover_every_cpu_before_reuse() {
        for cores in [1usize, 2, 3, 4, 6, 8, 12, 16, 64] {
            for policy in [
                PinPolicy::Compact,
                PinPolicy::Scatter(1),
                PinPolicy::Scatter(2),
                PinPolicy::Scatter(4),
            ] {
                let lap: std::collections::HashSet<usize> =
                    (0..cores).map(|w| policy.core_for(w, cores)).collect();
                assert_eq!(
                    lap.len(),
                    cores,
                    "{policy:?} on {cores} CPUs must be a permutation"
                );
                for w in 0..cores {
                    assert_eq!(
                        policy.core_for(w + cores, cores),
                        policy.core_for(w, cores),
                        "{policy:?} must wrap with period {cores}"
                    );
                }
            }
        }
    }

    #[test]
    fn scatter_fills_even_cpus_first_on_smt2_enumeration() {
        let p = PinPolicy::Scatter(2);
        let first_lap: Vec<usize> = (0..8).map(|w| p.core_for(w, 8)).collect();
        assert_eq!(first_lap, [0, 2, 4, 6, 1, 3, 5, 7]);
        assert_eq!(PinPolicy::Compact.core_for(5, 8), 5);
        // Degenerate hosts never panic or index out of range.
        assert_eq!(PinPolicy::Scatter(7).core_for(3, 1), 0);
        assert_eq!(PinPolicy::Compact.core_for(9, 0), 0);
    }

    #[test]
    fn pinned_run_matches_negmax() {
        let root = RandomTreeSpec::new(21, 4, 7).root();
        let exact = negmax(&root, 7).value;
        for pin in [None, Some(PinPolicy::Compact), Some(PinPolicy::Scatter(2))] {
            let exec = ThreadsConfig { pin };
            let r = run_er_threads_exec(&root, 7, 4, &ErParallelConfig::random_tree(3), exec)
                .expect("unlimited-control run cannot abort");
            assert_eq!(r.value, exact, "pin {pin:?}");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinned_run_leaves_the_callers_cpu_mask_alone() {
        // Worker 0 runs on the calling thread and is pinned like any other
        // worker; the caller must get its own mask back afterwards.
        let root = RandomTreeSpec::new(21, 4, 6).root();
        let before = affinity::get().expect("sched_getaffinity works on Linux");
        for threads in [1usize, 2] {
            for pin in [PinPolicy::Compact, PinPolicy::Scatter(2)] {
                let exec = ThreadsConfig { pin: Some(pin) };
                run_er_threads_exec(&root, 6, threads, &ErParallelConfig::random_tree(2), exec)
                    .expect("unlimited-control run cannot abort");
                assert_eq!(
                    affinity::get(),
                    Some(before),
                    "{pin:?} at {threads} workers changed the caller's mask"
                );
            }
        }
    }
}
