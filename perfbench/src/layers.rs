//! Per-layer measurements: microbenchmarks on a workload's own inputs,
//! and folds of the counters the engine's public calls return.
//!
//! Every figure is taken from outside the crates: the benchmark times its
//! own calls into each crate's public functions and reads the counters
//! those calls already return (`ThreadCounters`, `TtStats`,
//! `SessionResult`/`DepthResult`, `MoveChoice`).

use std::hint::black_box;
use std::time::{Duration, Instant};

use checkers::CheckersPos;
use engine_server::{AnyPos, SchedulerConfig, SessionScheduler, TimeControl};
use er_parallel::{
    run_er_threads_exec, run_er_threads_window_ord, AspirationConfig, ErIdResult, ErParallelConfig,
    ErThreadsResult, IdStepper, SearchControl, ThreadsConfig,
};
use gametree::{GamePosition, Value};
use match_harness::{EngineSpec, Player};
use othello::OthelloPos;
use search_serial::{alphabeta, er_search, ErConfig, OrderPolicy, OrderingTables};
use tt::{Bound, TranspositionTable, TtStats};

use crate::inputs::{parallel_cfg, Rng};
use crate::loadgen::{fixed_rate_schedule, serve_open_loop, ServeRun, Session};
use crate::spans::Spans;
use crate::stats::{median, Metric};
use search_serial::AbortReason;

/// Search workers of every threaded search the workloads make (the
/// benchmark host has two cores).
pub const WORKERS: usize = 2;

/// Search workers of each match player. Players always share their
/// killer/history tables across workers, and with two workers a search
/// sometimes aborts: `rank_children` and serial ER's `expand` sort
/// children by keys read live from those tables, a sibling's update
/// mid-sort breaks the total order, and the sort panics (about one move
/// in 10,000). With one worker nothing updates the tables during a sort.
pub const PLAYER_WORKERS: usize = 1;

/// How long each kernel microbenchmark runs.
const KERNEL_TIME: Duration = Duration::from_millis(150);

/// Runs `pass` (which performs some operations and returns how many)
/// until `min` has elapsed and at least five passes ran. Returns the
/// median over passes of ns per operation, and the operation count.
pub fn ns_per_op(min: Duration, mut pass: impl FnMut() -> u64) -> (f64, u64) {
    let start = Instant::now();
    let (mut per_op, mut ops) = (Vec::new(), 0u64);
    while per_op.len() < 5 || start.elapsed() < min {
        let t = Instant::now();
        let n = pass();
        per_op.push(t.elapsed().as_nanos() as f64 / n.max(1) as f64);
        ops += n;
    }
    (median(&per_op), ops)
}

/// Records a benchmark phase as a root span.
pub fn phase<T>(spans: &mut Spans, name: &'static str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    spans.record(name, 0, None, t, Instant::now());
    out
}

/// `othello.*`: move generation, move application and evaluation on the
/// workload's Othello corpus.
pub fn othello_kernels(corpus: &[OthelloPos]) -> Vec<Metric> {
    let boards: Vec<othello::Board> = corpus.iter().map(|p| p.board).collect();
    let (legal, legal_n) = ns_per_op(KERNEL_TIME, || {
        for b in &boards {
            black_box(black_box(b).legal_moves());
        }
        boards.len() as u64
    });
    let (play, play_n) = ns_per_op(KERNEL_TIME, || {
        let mut n = 0;
        for b in &boards {
            let mut m = b.legal_moves();
            while m != 0 {
                black_box(black_box(b).play(m.trailing_zeros() as u8));
                m &= m - 1;
                n += 1;
            }
        }
        n
    });
    let (eval, eval_n) = ns_per_op(KERNEL_TIME, || {
        for b in &boards {
            black_box(othello::evaluate(black_box(b)));
        }
        boards.len() as u64
    });
    vec![
        Metric::new("othello.legal_moves_ns", legal, "ns", legal_n),
        Metric::new("othello.play_ns", play, "ns", play_n),
        Metric::new("othello.evaluate_ns", eval, "ns", eval_n),
    ]
}

/// `checkers.*`: child generation and evaluation on the workload's
/// checkers corpus.
pub fn checkers_kernels(corpus: &[CheckersPos]) -> Vec<Metric> {
    let (kids, kids_n) = ns_per_op(KERNEL_TIME, || {
        for p in corpus {
            black_box(black_box(p).children());
        }
        corpus.len() as u64
    });
    let (eval, eval_n) = ns_per_op(KERNEL_TIME, || {
        for p in corpus {
            black_box(checkers::evaluate(&black_box(p).board));
        }
        corpus.len() as u64
    });
    vec![
        Metric::new("checkers.children_ns", kids, "ns", kids_n),
        Metric::new("checkers.evaluate_ns", eval, "ns", eval_n),
    ]
}

/// `tt.probe_ns`, `tt.store_ns` and `tt.new_generation_us` on a table of
/// `2^bits` entries loaded with the workload's own position keys. The
/// generation bump is timed only after the first 64-bump lap, once the
/// O(capacity) demotion sweep runs on every bump.
pub fn tt_micro(bits: u32, keys: &[u64]) -> Vec<Metric> {
    let table = TranspositionTable::with_bits(bits);
    let store_pass = || {
        for (i, &k) in keys.iter().enumerate() {
            table.store(k, 3, Value::new(i as i32 & 0xff), Bound::Exact, None);
        }
        keys.len() as u64
    };
    let (store, store_n) = ns_per_op(KERNEL_TIME, store_pass);
    let (probe, probe_n) = ns_per_op(KERNEL_TIME, || {
        for &k in keys {
            black_box(table.probe(black_box(k)));
        }
        keys.len() as u64
    });
    while table.epoch() < 64 {
        table.new_generation();
    }
    let bumps: Vec<f64> = (0..24)
        .map(|_| {
            let t = Instant::now();
            table.new_generation();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    vec![
        Metric::new("tt.probe_ns", probe, "ns", probe_n),
        Metric::new("tt.store_ns", store, "ns", store_n),
        Metric::new(
            "tt.new_generation_us",
            median(&bumps),
            "us",
            bumps.len() as u64,
        ),
    ]
}

/// `tt.hit_rate` and `tt.probes_per_node` from a table's counter deltas
/// over the search nodes that produced them.
pub fn tt_ratios(stats: &TtStats, nodes: u64) -> Vec<Metric> {
    vec![
        Metric::new("tt.hit_rate", stats.hit_rate(), "ratio", stats.probes),
        Metric::new(
            "tt.probes_per_node",
            stats.probes as f64 / nodes.max(1) as f64,
            "ratio",
            nodes,
        ),
    ]
}

/// Zobrist keys of positions and their children — the keys a search of
/// them probes first.
pub fn keys_of<P: GamePosition + tt::Zobrist>(positions: &[P]) -> Vec<u64> {
    positions
        .iter()
        .flat_map(|p| {
            let mut keys: Vec<u64> = p.children().iter().map(|k| k.zobrist()).collect();
            keys.push(p.zobrist());
            keys
        })
        .collect()
}

/// Serial alpha-beta, serial ER and threaded ER on the same inputs at the
/// same depth, table-free: node counts and walls for the serial layer and
/// for the parallel layer's losses.
#[derive(Default)]
pub struct Ladder {
    pub ab_nodes: u64,
    pub ab_ns: u128,
    pub er_nodes: u64,
    pub er_ns: u128,
    pub thr_nodes: u64,
    pub thr_ns: u128,
    /// Inputs on which the three searches disagreed on the root value.
    pub mismatches: u64,
    pub inputs: u64,
}

/// Runs the ladder over `inputs`; `cfg` gives each input's parallel and
/// serial configurations and ordering policy.
pub fn ladder<P: GamePosition>(
    inputs: &[P],
    depth: u32,
    cfg: impl Fn(&P) -> (ErParallelConfig, ErConfig, OrderPolicy),
) -> Ladder {
    let mut l = Ladder::default();
    for p in inputs {
        let (par, ser, policy) = cfg(p);
        let t = Instant::now();
        let ab = alphabeta(p, depth, policy);
        l.ab_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        let er = er_search(p, depth, ser);
        l.er_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        let thr = run_er_threads_exec(p, depth, WORKERS, &par, ThreadsConfig::default())
            .expect("a table-free search without a deadline completes");
        l.thr_ns += t.elapsed().as_nanos();
        l.ab_nodes += ab.stats.nodes();
        l.er_nodes += er.stats.nodes();
        l.thr_nodes += thr.stats.nodes();
        l.inputs += 1;
        if ab.value != er.value || ab.value != thr.value {
            l.mismatches += 1;
        }
    }
    l
}

impl Ladder {
    /// `search-serial.*`, `parallel.spec_loss` and `parallel.speedup_vs_ab`.
    pub fn metrics(&self) -> Vec<Metric> {
        let per = |ns: u128, n: u64| ns as f64 / n.max(1) as f64;
        vec![
            Metric::new(
                "search-serial.ab_ns_per_node",
                per(self.ab_ns, self.ab_nodes),
                "ns",
                self.ab_nodes,
            ),
            Metric::new(
                "search-serial.er_ns_per_node",
                per(self.er_ns, self.er_nodes),
                "ns",
                self.er_nodes,
            ),
            Metric::new(
                "search-serial.ab_nodes",
                self.ab_nodes as f64,
                "count",
                self.inputs,
            ),
            Metric::new(
                "search-serial.er_nodes",
                self.er_nodes as f64,
                "count",
                self.inputs,
            ),
            Metric::new(
                "parallel.spec_loss",
                self.thr_nodes as f64 / self.er_nodes.max(1) as f64,
                "ratio",
                self.inputs,
            ),
            Metric::new(
                "parallel.speedup_vs_ab",
                self.ab_ns as f64 / self.thr_ns.max(1) as f64,
                "ratio",
                self.inputs,
            ),
        ]
    }
}

/// `problem-heap.*` plus `parallel.nodes_per_s` and `parallel.ns_per_job`
/// from the results of threaded calls.
pub fn heap_metrics(runs: &[ErThreadsResult]) -> Vec<Metric> {
    let mut c = problem_heap::ThreadCounters::default();
    let (mut wall_ns, mut nodes, mut workers) = (0f64, 0u64, 0f64);
    for r in runs {
        c.merge(&r.counters());
        let w = r.elapsed.as_nanos() as f64;
        wall_ns += w;
        workers += w * r.per_thread.len() as f64;
        nodes += r.stats.nodes();
    }
    let jobs = c.jobs_executed.max(1) as f64;
    let calls = runs.len() as u64;
    vec![
        Metric::new("problem-heap.jobs", c.jobs_executed as f64, "count", calls),
        Metric::new(
            "problem-heap.lock_acq_per_job",
            c.lock_acquisitions as f64 / jobs,
            "ratio",
            c.jobs_executed,
        ),
        Metric::new(
            "problem-heap.lock_wait_ns_per_job",
            c.lock_wait_nanos as f64 / jobs,
            "ns",
            c.jobs_executed,
        ),
        Metric::new(
            "problem-heap.lock_hold_ns_per_job",
            c.lock_hold_nanos as f64 / jobs,
            "ns",
            c.jobs_executed,
        ),
        Metric::new(
            "problem-heap.lock_wait_share",
            c.lock_wait_nanos as f64 / workers.max(1.0),
            "ratio",
            calls,
        ),
        Metric::new(
            "problem-heap.parks_per_job",
            c.idle_parks as f64 / jobs,
            "ratio",
            c.jobs_executed,
        ),
        Metric::new(
            "problem-heap.steal_hit_rate",
            c.steal_hit_rate(),
            "ratio",
            c.steal_attempts,
        ),
        Metric::new(
            "parallel.nodes_per_s",
            nodes as f64 / (wall_ns / 1e9).max(1e-9),
            "1/s",
            nodes,
        ),
        Metric::new("parallel.ns_per_job", workers / jobs, "ns", c.jobs_executed),
    ]
}

/// `parallel.call_overhead_us`: the median wall of one depth-1 threaded
/// call — pool start, one expansion, join — over `inputs`.
pub fn call_overhead<P: GamePosition>(
    inputs: &[P],
    cfg: impl Fn(&P) -> ErParallelConfig,
) -> Metric {
    let walls: Vec<f64> = inputs
        .iter()
        .map(|p| {
            let c = cfg(p);
            let t = Instant::now();
            black_box(
                run_er_threads_exec(p, 1, WORKERS, &c, ThreadsConfig::default())
                    .expect("a depth-1 search completes"),
            );
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    Metric::new(
        "parallel.call_overhead_us",
        median(&walls),
        "us",
        walls.len() as u64,
    )
}

/// Iterative deepening with aspiration windows through the public
/// `IdStepper` and windowed threaded search, on a shared table and
/// ordering tables — the same calls a scheduler slice makes, here
/// returning every call's `ErThreadsResult`. An aborted step (a worker
/// panicked) is an error.
pub fn deepen(
    pos: &AnyPos,
    max_depth: u32,
    workers: usize,
    table: &TranspositionTable,
    ord: &OrderingTables,
    asp: AspirationConfig,
    runs: &mut Vec<ErThreadsResult>,
) -> Result<ErIdResult, AbortReason> {
    let (cfg, exec) = (parallel_cfg(pos), ThreadsConfig::default());
    let ctl = SearchControl::unlimited();
    let mut stepper = IdStepper::new(pos.evaluate(), asp);
    while stepper.depth_completed() < max_depth {
        table.new_generation();
        let depth = stepper.next_depth();
        // The ordering tables ride along only when the policy shares them.
        stepper.step_with(depth, &ctl, None, |d, w, c| {
            let r = if asp.ordering {
                run_er_threads_window_ord(pos, d, w, workers, &cfg, exec, table, c, (), ord)
            } else {
                run_er_threads_window_ord(pos, d, w, workers, &cfg, exec, table, c, (), ())
            }
            .map_err(|e| e.reason)?;
            let out = (r.value, r.stats);
            runs.push(r);
            Ok(out)
        })?;
        ord.age();
    }
    Ok(stepper.into_result())
}

/// The aspiration policy of sessions and deepening probes searched by
/// [`WORKERS`] workers: narrow windows with shared ordering tables on
/// random trees; on Othello and checkers the same windows without the
/// tables, whose live-keyed child sort can abort a multi-worker search
/// (see [`PLAYER_WORKERS`]).
pub fn asp_for(pos: &AnyPos) -> AspirationConfig {
    match pos {
        AnyPos::Random(_) => AspirationConfig::narrow(8),
        _ => AspirationConfig {
            delta: 40,
            ordering: false,
        },
    }
}

/// `id.*` from completed deepening results: re-searches per completed
/// depth, the share of narrowed probes that landed inside their window,
/// and the last depth's share of all nodes.
pub fn id_metrics<'a>(results: impl IntoIterator<Item = &'a ErIdResult>) -> Vec<Metric> {
    let (mut depths, mut re, mut hits, mut last, mut total, mut n) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for r in results {
        depths += u64::from(r.depth_completed);
        re += r.re_searches;
        hits += r.window_hits;
        last += r.per_depth.last().map_or(0, |d| d.nodes);
        total += r.total_nodes();
        n += 1;
    }
    id_fold(depths, re, hits, last, total, n)
}

/// [`id_metrics`] from raw sums (sessions report the same fields).
pub fn id_fold(depths: u64, re: u64, hits: u64, last: u64, total: u64, n: u64) -> Vec<Metric> {
    vec![
        Metric::new(
            "id.research_per_depth",
            re as f64 / depths.max(1) as f64,
            "ratio",
            depths,
        ),
        Metric::new(
            "id.window_hit_rate",
            hits as f64 / (hits + re).max(1) as f64,
            "ratio",
            hits + re,
        ),
        Metric::new(
            "id.last_depth_share",
            last as f64 / total.max(1) as f64,
            "ratio",
            n,
        ),
    ]
}

/// The scheduler shape of every workload: two workers, a 2^16-entry
/// shared table, 4 active × 16 queued sessions.
pub fn scheduler_config() -> SchedulerConfig {
    SchedulerConfig {
        threads: WORKERS,
        ..SchedulerConfig::default()
    }
}

/// `engine-server.*` and `loadgen.late_ms_max` from an open-loop run.
pub fn server_metrics(run: &ServeRun) -> Vec<Metric> {
    let served: Vec<_> = run.results.iter().flatten().collect();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let n = served.len() as u64;
    let queue: Vec<f64> = served.iter().map(|r| ms(r.queue_wait)).collect();
    let service: Vec<f64> = served.iter().map(|r| ms(r.service)).collect();
    let slices: u64 = served.iter().map(|r| u64::from(r.slices)).sum();
    let busy: f64 = run.idle_walls.iter().map(|d| ms(*d)).sum();
    let late = run.late.iter().max().copied().unwrap_or_default();
    vec![
        Metric::new("engine-server.queue_wait_ms_p50", median(&queue), "ms", n),
        Metric::new("engine-server.service_ms_p50", median(&service), "ms", n),
        Metric::new(
            "engine-server.slices_per_session",
            slices as f64 / n.max(1) as f64,
            "ratio",
            n,
        ),
        Metric::new(
            "engine-server.dispatch_share",
            1.0 - service.iter().sum::<f64>() / busy.max(1e-9),
            "ratio",
            run.idle_walls.len() as u64,
        ),
        Metric::new("loadgen.late_ms_max", ms(late), "ms", run.late.len() as u64),
    ]
}

/// Serves `positions` as sessions open loop at `rate` per second on a
/// fresh scheduler — the engine-server probe of workloads whose own ops
/// do not pass through the scheduler.
pub fn serve_probe(rng: &mut Rng, positions: &[AnyPos], depth: u32, rate: f64) -> ServeRun {
    let due = fixed_rate_schedule(positions.len(), rate);
    let sessions: Vec<Session> = positions
        .iter()
        .map(|&pos| Session {
            pos,
            depth,
            priority: engine_server::Priority::ALL[rng.below(3)],
            asp: asp_for(&pos),
        })
        .collect();
    let mut sched = SessionScheduler::new(scheduler_config());
    serve_open_loop(&mut sched, &sessions, &due, &mut Spans::new(false), 0)
}

/// A match player as the `selfplay-warm` workload seats it, with an hour
/// on the clock so that the depth cap always binds first.
pub fn player(tt_bits: u32, cap: u32) -> Player {
    Player::new(
        EngineSpec::ErThreads {
            threads: PLAYER_WORKERS,
        },
        TimeControl::from_millis(3_600_000, 0),
        tt_bits,
        cap,
    )
}

/// `match-harness.nodes_per_move` of one warm threaded-ER player asked
/// for a move at each of `positions` in turn.
pub fn match_probe(positions: &[AnyPos], cap: u32) -> Metric {
    let mut p = player(16, cap);
    let mut nodes = 0;
    for pos in positions {
        nodes += p.choose_move(pos).map_or(0, |c| c.nodes);
    }
    Metric::new(
        "match-harness.nodes_per_move",
        nodes as f64 / positions.len().max(1) as f64,
        "count",
        positions.len() as u64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_agrees_and_counts_exactly_on_a_random_tree() {
        let roots = crate::inputs::random_roots(&mut Rng::new(5, 0), 3, 3, 5);
        let run = || {
            ladder(&roots, 5, |_| {
                (
                    ErParallelConfig::random_tree(2),
                    ErConfig::NATURAL,
                    OrderPolicy::NATURAL,
                )
            })
        };
        let (a, b) = (run(), run());
        assert_eq!(a.mismatches, 0);
        assert_eq!(a.inputs, 3);
        assert_eq!(
            (a.ab_nodes, a.er_nodes),
            (b.ab_nodes, b.er_nodes),
            "serial counts are exact"
        );
        assert!(a.thr_nodes > 0);
    }

    #[test]
    fn deepening_reaches_the_cap_with_per_depth_telemetry() {
        let pos = AnyPos::random_root(11, 3, 6);
        let table = TranspositionTable::with_bits(10);
        let mut runs = Vec::new();
        let r = deepen(
            &pos,
            4,
            WORKERS,
            &table,
            &OrderingTables::new(),
            asp_for(&pos),
            &mut runs,
        )
        .expect("an unlimited random-tree deepening completes");
        assert_eq!(r.depth_completed, 4);
        assert_eq!(r.per_depth.len(), 4);
        assert_eq!(runs.len() as u64, 4 + r.re_searches);
        let solo = alphabeta(&pos, 4, OrderPolicy::NATURAL);
        assert_eq!(r.value, solo.value);
    }
}
