//! One-worker exactness: a threaded run with one worker makes the same
//! `select`/`apply` calls, in the same order, as the deterministic
//! simulator on one processor. Its node counts therefore equal
//! `run_er_sim(.., 1, ..)` exactly — table-free, with a shared
//! transposition table, and with shared ordering tables — and two
//! consecutive runs report identical `SearchStats`.

use er_parallel::{
    run_er_sim, run_er_sim_ord, run_er_sim_tt, run_er_threads, run_er_threads_tt,
    run_er_threads_window_ord, ErParallelConfig, SearchControl, ThreadsConfig,
};
use gametree::{GamePosition, Window};
use search_serial::OrderingTables;
use tt::{TranspositionTable, Zobrist};

/// Table bits for both sides of a TT comparison: each gets a fresh table
/// of this size.
const TT_BITS: u32 = 16;

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

    let sim_tt = run_er_sim_tt(pos, depth, 1, cfg, &TranspositionTable::with_bits(TT_BITS));
    let thr_tt = run_er_threads_tt(pos, depth, 1, cfg, &TranspositionTable::with_bits(TT_BITS));
    assert_eq!(thr_tt.value, sim.value, "{name}: value with a table");
    assert_eq!(thr_tt.stats, sim_tt.stats, "{name}: stats with a table");

    let sim_ord = run_er_sim_ord(pos, depth, 1, cfg, (), &OrderingTables::new());
    let thr_ord = run_er_threads_window_ord(
        pos,
        depth,
        Window::FULL,
        1,
        cfg,
        ThreadsConfig::default(),
        (),
        &SearchControl::unlimited(),
        (),
        &OrderingTables::new(),
    )
    .expect("unlimited-control run cannot abort");
    assert_eq!(
        thr_ord.value, sim.value,
        "{name}: value with ordering tables"
    );
    assert_eq!(
        thr_ord.stats, sim_ord.stats,
        "{name}: stats with ordering tables"
    );
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
