//! One-worker exactness: a threaded run with one worker makes the same
//! `select`/`apply` calls, in the same order, as the deterministic
//! simulator on one processor. Its node counts therefore equal
//! `run_er_sim(.., 1, ..)` exactly — table-free, with a shared
//! transposition table, and with shared ordering tables, whatever trace
//! and metrics handles ride along — and two consecutive runs report
//! identical `SearchStats`.

use er_parallel::{
    run_er_sim, run_er_sim_with, run_er_threads, run_er_threads_with, ErParallelConfig,
    ErRunResult, ErThreadsResult, Hooks, ThreadsConfig,
};
use gametree::{GamePosition, Window};
use metrics::{EngineMetrics, MetricsAccess};
use search_serial::{OrdAccess, OrderingTables};
use trace::{EventKind, TraceAccess, Tracer};
use tt::{TranspositionTable, TtAccess, Zobrist};

/// Table bits for both sides of a TT comparison: each gets a fresh table
/// of this size.
const TT_BITS: u32 = 16;

/// One threaded worker, full window, with `hooks`.
fn one_worker<P, T, O, R, M>(
    pos: &P,
    depth: u32,
    cfg: &ErParallelConfig,
    hooks: Hooks<T, (), O, R, M>,
) -> ErThreadsResult
where
    P: GamePosition,
    T: TtAccess<P> + Send + Sync,
    O: OrdAccess + Send + Sync,
    R: TraceAccess,
    M: MetricsAccess,
{
    run_er_threads_with(
        pos,
        depth,
        Window::FULL,
        1,
        cfg,
        ThreadsConfig::default(),
        hooks,
    )
    .expect("a run without a control cannot abort")
}

/// One simulated processor, full window, with `hooks`.
fn one_processor<P: GamePosition, T: TtAccess<P>, O: OrdAccess>(
    pos: &P,
    depth: u32,
    cfg: &ErParallelConfig,
    hooks: Hooks<T, (), O>,
) -> ErRunResult {
    run_er_sim_with(pos, depth, Window::FULL, 1, cfg, hooks)
}

/// Asserts every one-worker equality on one root.
fn assert_exact<P: GamePosition + Zobrist>(
    name: &str,
    pos: &P,
    depth: u32,
    cfg: &ErParallelConfig,
) {
    let sim = run_er_sim(pos, depth, 1, cfg);
    let thr = run_er_threads(pos, depth, 1, cfg);
    assert_eq!(thr.value, sim.value, "{name}: value");
    assert_eq!(thr.stats, sim.stats, "{name}: table-free stats");
    let again = run_er_threads(pos, depth, 1, cfg);
    assert_eq!(again.stats, thr.stats, "{name}: repeated run");
    assert_eq!(
        again.cached_leaf_hits, thr.cached_leaf_hits,
        "{name}: cached leaves"
    );

    let (sim_table, thr_table) = (
        TranspositionTable::with_bits(TT_BITS),
        TranspositionTable::with_bits(TT_BITS),
    );
    let sim_tt = one_processor(pos, depth, cfg, Hooks::new().tt(&sim_table));
    let thr_tt = one_worker(pos, depth, cfg, Hooks::new().tt(&thr_table));
    assert_eq!(thr_tt.value, sim.value, "{name}: value with a table");
    assert_eq!(thr_tt.stats, sim_tt.stats, "{name}: stats with a table");

    let sim_ord = one_processor(pos, depth, cfg, Hooks::new().ord(&OrderingTables::new()));
    let thr_ord = one_worker(pos, depth, cfg, Hooks::new().ord(&OrderingTables::new()));
    assert_eq!(
        thr_ord.value, sim.value,
        "{name}: value with ordering tables"
    );
    assert_eq!(
        thr_ord.stats, sim_ord.stats,
        "{name}: stats with ordering tables"
    );
}

/// The handles of one combination, each `None` when its slot stays `()`.
/// The four `with_*` steps below turn each `Some` into a typed slot, so
/// every one of the sixteen combinations runs its own instantiation.
#[derive(Clone, Copy)]
struct Combo<'a> {
    tt: Option<&'a TranspositionTable>,
    ord: Option<&'a OrderingTables>,
    trace: Option<&'a Tracer>,
    metrics: Option<&'a EngineMetrics>,
}

fn with_tt<P: GamePosition + Zobrist>(
    pos: &P,
    depth: u32,
    cfg: &ErParallelConfig,
    c: Combo,
) -> ErThreadsResult {
    match c.tt {
        Some(t) => with_ord(pos, depth, cfg, c, Hooks::new().tt(t)),
        None => with_ord(pos, depth, cfg, c, Hooks::new()),
    }
}

fn with_ord<P: GamePosition, T: TtAccess<P> + Send + Sync>(
    pos: &P,
    depth: u32,
    cfg: &ErParallelConfig,
    c: Combo,
    h: Hooks<T>,
) -> ErThreadsResult {
    match c.ord {
        Some(o) => with_trace(pos, depth, cfg, c, h.ord(o)),
        None => with_trace(pos, depth, cfg, c, h),
    }
}

fn with_trace<P, T, O>(
    pos: &P,
    depth: u32,
    cfg: &ErParallelConfig,
    c: Combo,
    h: Hooks<T, (), O>,
) -> ErThreadsResult
where
    P: GamePosition,
    T: TtAccess<P> + Send + Sync,
    O: OrdAccess + Send + Sync,
{
    match c.trace {
        Some(tr) => with_metrics(pos, depth, cfg, c, h.trace(tr)),
        None => with_metrics(pos, depth, cfg, c, h),
    }
}

fn with_metrics<P, T, O, R>(
    pos: &P,
    depth: u32,
    cfg: &ErParallelConfig,
    c: Combo,
    h: Hooks<T, (), O, R>,
) -> ErThreadsResult
where
    P: GamePosition,
    T: TtAccess<P> + Send + Sync,
    O: OrdAccess + Send + Sync,
    R: TraceAccess,
{
    match c.metrics {
        Some(m) => one_worker(pos, depth, cfg, h.metrics(m)),
        None => one_worker(pos, depth, cfg, h),
    }
}

/// The simulator with the table and ordering slots of `c`.
fn simulated<P: GamePosition + Zobrist>(
    pos: &P,
    depth: u32,
    cfg: &ErParallelConfig,
    c: Combo,
) -> ErRunResult {
    let h = Hooks::new();
    match (c.tt, c.ord) {
        (None, None) => one_processor(pos, depth, cfg, h),
        (Some(t), None) => one_processor(pos, depth, cfg, h.tt(t)),
        (None, Some(o)) => one_processor(pos, depth, cfg, h.ord(o)),
        (Some(t), Some(o)) => one_processor(pos, depth, cfg, h.tt(t).ord(o)),
    }
}

/// Runs all sixteen table × ordering × trace × metrics combinations at one
/// worker: each equals the simulator with the same table and ordering
/// handles on the value and every `SearchStats` field, and the trace and
/// metrics handles record what they are given.
fn assert_every_combination<P: GamePosition + Zobrist>(
    name: &str,
    pos: &P,
    depth: u32,
    cfg: &ErParallelConfig,
) {
    for bits in 0..16u32 {
        let (sim_table, sim_tables) = (
            TranspositionTable::with_bits(TT_BITS),
            OrderingTables::new(),
        );
        let (table, tables) = (
            TranspositionTable::with_bits(TT_BITS),
            OrderingTables::new(),
        );
        let (tracer, metrics) = (Tracer::new(), EngineMetrics::new(1));
        let on = |bit: u32| bits & (1 << bit) != 0;
        let sim = simulated(
            pos,
            depth,
            cfg,
            Combo {
                tt: on(0).then_some(&sim_table),
                ord: on(1).then_some(&sim_tables),
                trace: None,
                metrics: None,
            },
        );
        let combo = Combo {
            tt: on(0).then_some(&table),
            ord: on(1).then_some(&tables),
            trace: on(2).then_some(&tracer),
            metrics: on(3).then_some(&metrics),
        };
        let thr = with_tt(pos, depth, cfg, combo);
        let label = format!(
            "{name} tt={} ord={} trace={} metrics={}",
            on(0),
            on(1),
            on(2),
            on(3)
        );
        assert_eq!(thr.value, sim.value, "{label}: value");
        assert_eq!(thr.stats, sim.stats, "{label}: stats");
        assert_eq!(thr.tt.is_some(), on(0), "{label}: table counters");
        let executed = tracer.snapshot().counts()[EventKind::JobExecute as usize];
        assert_eq!(executed > 0, on(2), "{label}: job spans recorded");
        assert_eq!(
            metrics.search_runs_total.value(),
            u64::from(on(3)),
            "{label}: completed runs recorded"
        );
    }
}

#[test]
fn othello_o1_to_o3_match_the_simulator() {
    for (name, root) in othello::configs::all() {
        assert_exact(name, &root, 7, &ErParallelConfig::othello());
    }
}

#[test]
fn checkers_c1_matches_the_simulator() {
    let cfg = ErParallelConfig {
        serial_depth: 4,
        ..ErParallelConfig::othello()
    };
    assert_exact("C1", &checkers::c1(), 7, &cfg);
}

#[test]
fn random_trees_match_the_simulator_at_every_serial_depth() {
    for seed in [3u64, 17, 40] {
        let root = gametree::random::RandomTreeSpec::new(seed, 4, 7).root();
        for serial_depth in [0u32, 2, 4] {
            let name = format!("seed {seed} serial depth {serial_depth}");
            assert_exact(
                &name,
                &root,
                7,
                &ErParallelConfig::random_tree(serial_depth),
            );
        }
    }
}

#[test]
fn every_hook_combination_matches_the_simulator() {
    let (name, o1) = othello::configs::all()
        .into_iter()
        .next()
        .expect("O1 is the first configuration");
    assert_every_combination(name, &o1, 7, &ErParallelConfig::othello());
    let root = gametree::random::RandomTreeSpec::new(17, 4, 7).root();
    assert_every_combination("seed 17", &root, 7, &ErParallelConfig::random_tree(2));
}
