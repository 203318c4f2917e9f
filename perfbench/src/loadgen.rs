//! Open-loop load generator for the session scheduler.
//!
//! Sessions arrive on a seeded schedule whether or not the server keeps
//! up. The benchmark has one client thread, and
//! `SessionScheduler::run_until_idle` blocks it until every admitted
//! session finishes, so arrivals that fall due during a busy period go in
//! late and in a burst. Every session is timed from its *due* time, which
//! charges that stall to the sessions it delays, and the lateness of each
//! submission is recorded.

use std::time::{Duration, Instant};

use engine_server::{AnyPos, Priority, SessionId, SessionRequest, SessionResult, SessionScheduler};
use er_parallel::AspirationConfig;
use tt::TtStats;

use crate::inputs::parallel_cfg;
use crate::spans::Spans;

/// One fixed rate: `n` arrivals due every `1 / rate` seconds from 0.
pub fn fixed_rate_schedule(n: usize, rate: f64) -> Vec<Duration> {
    (0..n)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

/// What the open-loop generator needs from the system it loads: a clock, a
/// way to wait, and the scheduler's two calls.
pub trait OpenLoop {
    /// Time since the schedule's origin.
    fn now(&self) -> Duration;
    fn sleep_until(&mut self, t: Duration);
    fn submit(&mut self, i: usize);
    fn run_until_idle(&mut self);
}

/// Runs `sys` through the schedule `due`: sleeps until the next arrival,
/// submits every arrival that is due, runs the scheduler until idle, and
/// repeats. Returns each arrival's submission time.
pub fn drive(due: &[Duration], sys: &mut impl OpenLoop) -> Vec<Duration> {
    let mut submitted = Vec::with_capacity(due.len());
    while submitted.len() < due.len() {
        let now = sys.now();
        let next = submitted.len();
        if due[next] > now {
            sys.sleep_until(due[next]);
            continue;
        }
        for (i, &d) in due.iter().enumerate().skip(next) {
            if d > now {
                break;
            }
            sys.submit(i);
            submitted.push(sys.now());
        }
        sys.run_until_idle();
    }
    submitted
}

/// How late each arrival was submitted.
pub fn lateness(due: &[Duration], submitted: &[Duration]) -> Vec<Duration> {
    due.iter()
        .zip(submitted)
        .map(|(d, s)| s.saturating_sub(*d))
        .collect()
}

/// One session of a workload: a root searched to `depth` under an
/// admission class, with aspiration on.
#[derive(Clone, Copy, Debug)]
pub struct Session {
    pub pos: AnyPos,
    pub depth: u32,
    pub priority: Priority,
    pub asp: AspirationConfig,
}

impl Session {
    fn request(&self) -> SessionRequest<AnyPos> {
        SessionRequest::new(self.pos, self.depth, parallel_cfg(&self.pos))
            .with_priority(self.priority)
            .with_asp(self.asp)
    }
}

/// Everything one open-loop run produced, indexed like its sessions.
pub struct ServeRun {
    /// `None` for a session admission shed.
    pub results: Vec<Option<SessionResult>>,
    /// Due time to completion, for served sessions.
    pub latency: Vec<Option<Duration>>,
    pub late: Vec<Duration>,
    /// Wall time of each `run_until_idle` call.
    pub idle_walls: Vec<Duration>,
    /// When the first session was due.
    pub start: Instant,
    /// First due time to last completion.
    pub wall: Duration,
    /// Shared-table activity over the run.
    pub tt: TtStats,
}

impl ServeRun {
    /// Runs served one after another, as one run.
    pub fn concat(runs: Vec<ServeRun>) -> ServeRun {
        let mut all = ServeRun {
            start: runs.first().map_or_else(Instant::now, |r| r.start),
            results: Vec::new(),
            latency: Vec::new(),
            late: Vec::new(),
            idle_walls: Vec::new(),
            wall: Duration::ZERO,
            tt: TtStats::default(),
        };
        for r in runs {
            all.results.extend(r.results);
            all.latency.extend(r.latency);
            all.late.extend(r.late);
            all.idle_walls.extend(r.idle_walls);
            all.wall += r.wall;
            all.tt.probes += r.tt.probes;
            all.tt.hits += r.tt.hits;
            all.tt.stores += r.tt.stores;
        }
        all
    }
}

struct Live<'a> {
    t0: Instant,
    sched: &'a mut SessionScheduler<AnyPos>,
    sessions: &'a [Session],
    submit_at: Vec<Instant>,
    /// The id the scheduler hands the first admission of this run.
    first_id: usize,
    /// Session index of each admitted id (ids are dense).
    index_of: Vec<usize>,
    finished: Vec<SessionResult>,
    idle: Vec<(Instant, Instant)>,
}

impl OpenLoop for Live<'_> {
    fn now(&self) -> Duration {
        self.t0.elapsed()
    }

    fn sleep_until(&mut self, t: Duration) {
        std::thread::sleep(t.saturating_sub(self.now()));
    }

    fn submit(&mut self, i: usize) {
        self.submit_at.push(Instant::now());
        // A shed session simply has no result.
        if let Ok(SessionId(id)) = self.sched.submit(self.sessions[i].request()) {
            assert_eq!(id as usize, self.first_id + self.index_of.len());
            self.index_of.push(i);
        }
    }

    fn run_until_idle(&mut self) {
        let start = Instant::now();
        let done = self.sched.run_until_idle();
        self.idle.push((start, Instant::now()));
        self.finished.extend(done);
    }
}

/// Runs `sessions` open loop against `sched` on the schedule `due`.
/// With spans on, each session records `session` (due → done) with the
/// children `loadgen.late` (due → submit) and `engine-server.session`
/// (submit → done, itself split by `engine-server.queue_wait`), and each
/// `run_until_idle` call records a span of its own.
pub fn serve_open_loop(
    sched: &mut SessionScheduler<AnyPos>,
    sessions: &[Session],
    due: &[Duration],
    spans: &mut Spans,
    op_base: u64,
) -> ServeRun {
    let tt_before = sched.table().stats();
    let first_id = sched.stats().admitted as usize;
    let mut live = Live {
        t0: Instant::now(),
        sched,
        sessions,
        first_id,
        submit_at: Vec::with_capacity(sessions.len()),
        index_of: Vec::with_capacity(sessions.len()),
        finished: Vec::new(),
        idle: Vec::new(),
    };
    let submitted = drive(due, &mut live);
    let t0 = live.t0;
    let mut results: Vec<Option<SessionResult>> = vec![None; sessions.len()];
    for r in live.finished {
        let i = live.index_of[r.id.0 as usize - first_id];
        results[i] = Some(r);
    }
    let mut latency = vec![None; sessions.len()];
    let mut last_done = t0;
    for (i, r) in results.iter().enumerate() {
        let Some(r) = r else { continue };
        let (due_at, submit) = (t0 + due[i], live.submit_at[i]);
        let done = submit + r.latency;
        last_done = last_done.max(done);
        latency[i] = Some(done.saturating_duration_since(due_at));
        if spans.on() {
            let op = op_base + i as u64;
            let s = spans.record("session", op, None, due_at, done);
            spans.record("loadgen.late", op, s, due_at, submit);
            let srv = spans.record("engine-server.session", op, s, submit, done);
            spans.record(
                "engine-server.queue_wait",
                op,
                srv,
                submit,
                submit + r.queue_wait,
            );
        }
    }
    for &(a, b) in &live.idle {
        spans.record("engine-server.run_until_idle", 0, None, a, b);
    }
    let sched = live.sched;
    ServeRun {
        start: t0,
        results,
        latency,
        late: lateness(due, &submitted),
        idle_walls: live.idle.iter().map(|(a, b)| *b - *a).collect(),
        wall: last_done - t0,
        tt: sched.table().stats().since(&tt_before),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake system whose clock moves only when it sleeps or serves, and
    /// whose every `run_until_idle` takes a fixed service time.
    struct Fake {
        t: Duration,
        service: Duration,
        batches: Vec<Vec<usize>>,
        pending: Vec<usize>,
    }

    impl OpenLoop for Fake {
        fn now(&self) -> Duration {
            self.t
        }
        fn sleep_until(&mut self, t: Duration) {
            self.t = self.t.max(t);
        }
        fn submit(&mut self, i: usize) {
            self.pending.push(i);
        }
        fn run_until_idle(&mut self) {
            self.t += self.service;
            self.batches.push(std::mem::take(&mut self.pending));
        }
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn arrivals_during_a_busy_period_go_in_late_and_in_a_burst() {
        let due = [ms(0), ms(10), ms(20), ms(30), ms(100)];
        let mut f = Fake {
            t: ms(0),
            service: ms(25),
            batches: Vec::new(),
            pending: Vec::new(),
        };
        let submitted = drive(&due, &mut f);
        // t=0 serve {0} until 25; {1,2} due by then, served until 50;
        // {3} until 75; idle, then {4} on time at 100.
        assert_eq!(submitted, [ms(0), ms(25), ms(25), ms(50), ms(100)]);
        assert_eq!(f.batches, [vec![0], vec![1, 2], vec![3], vec![4]]);
        let late = lateness(&due, &submitted);
        assert_eq!(late, [ms(0), ms(15), ms(5), ms(20), ms(0)]);
        assert_eq!(late.iter().max(), Some(&ms(20)));
    }

    #[test]
    fn an_idle_server_submits_everything_on_time() {
        let due = [ms(0), ms(50), ms(100)];
        let mut f = Fake {
            t: ms(0),
            service: ms(10),
            batches: Vec::new(),
            pending: Vec::new(),
        };
        let late = lateness(&due, &drive(&due, &mut f));
        assert!(late.iter().all(|l| l.is_zero()));
    }

    #[test]
    fn fixed_rate_schedule_is_evenly_spaced() {
        let a = fixed_rate_schedule(5, 4.0);
        assert_eq!(a, [ms(0), ms(250), ms(500), ms(750), ms(1000)]);
    }
}
