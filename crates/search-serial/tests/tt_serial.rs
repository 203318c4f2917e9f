//! Every serial search with a table must return exactly the value of the
//! same search without one (and of plain negamax), whatever the table has seen
//! before — including entries written by *other* algorithms, torn
//! generations, and tiny tables that evict constantly.

use gametree::ordered::OrderedTreeSpec;
use gametree::random::splitmix64;
use gametree::tictactoe::TicTacToe;
use gametree::{GamePosition, Value, Window};
use othello::OthelloPos;
use search_serial::{
    alphabeta, alphabeta_with, aspiration, er_search, er_search_with, negmax, negmax_with, pvs,
    pvs_with, ErConfig, Hooks, OrderPolicy,
};
use tt::TranspositionTable;

#[test]
fn all_tt_backends_agree_with_their_twins_on_ordered_trees() {
    for seed in 0..6 {
        let root = OrderedTreeSpec::strongly_ordered(seed, 4, 6).root();
        let depth = 6;
        let exact = negmax(&root, depth).value;
        let table = TranspositionTable::with_bits(14);
        assert_eq!(
            negmax_with(&root, depth, Hooks::new().tt(&table)).value,
            exact,
            "negmax"
        );
        assert_eq!(
            alphabeta_with(
                &root,
                depth,
                Window::FULL,
                OrderPolicy::ALWAYS,
                Hooks::new().tt(&table)
            )
            .value,
            alphabeta(&root, depth, OrderPolicy::ALWAYS).value,
            "alphabeta seed {seed}"
        );
        assert_eq!(
            pvs_with(
                &root,
                depth,
                Window::FULL,
                OrderPolicy::ALWAYS,
                Hooks::new().tt(&table)
            )
            .value,
            pvs(&root, depth, OrderPolicy::ALWAYS).value,
            "pvs seed {seed}"
        );
        assert_eq!(
            er_search_with(
                &root,
                depth,
                Window::FULL,
                ErConfig::NATURAL,
                0,
                Hooks::new().tt(&table)
            )
            .value,
            er_search(&root, depth, ErConfig::NATURAL).value,
            "er seed {seed}"
        );
        for guess in [-500, 0, 500] {
            assert_eq!(
                aspiration(
                    &root,
                    depth,
                    Value::new(guess),
                    50,
                    OrderPolicy::ALWAYS,
                    Hooks::new().tt(&table)
                )
                .result
                .value,
                aspiration(
                    &root,
                    depth,
                    Value::new(guess),
                    50,
                    OrderPolicy::ALWAYS,
                    Hooks::new()
                )
                .result
                .value,
                "aspiration seed {seed} guess {guess}"
            );
        }
        assert!(table.stats().stores > 0);
    }
}

#[test]
fn a_warm_table_replays_subtrees_from_memory() {
    // Tic-tac-toe transposes heavily: a second identical search over a warm
    // table must answer from the root entry alone.
    let p = TicTacToe::initial();
    let table = TranspositionTable::with_bits(16);
    let cold = er_search_with(
        &p,
        9,
        Window::FULL,
        ErConfig::NATURAL,
        0,
        Hooks::new().tt(&table),
    );
    assert_eq!(cold.value, Value::ZERO);
    let warm = er_search_with(
        &p,
        9,
        Window::FULL,
        ErConfig::NATURAL,
        0,
        Hooks::new().tt(&table),
    );
    assert_eq!(warm.value, Value::ZERO);
    assert_eq!(warm.stats.nodes(), 0, "root hit answers outright");
    let s = table.stats();
    assert!(s.hits > 0, "transpositions must hit: {s:?}");
    // Even the cold search must have cut work against the TT-off baseline.
    let off = er_search(&p, 9, ErConfig::NATURAL);
    assert!(
        cold.stats.nodes() < off.stats.nodes(),
        "transposition reuse must prune: {} vs {}",
        cold.stats.nodes(),
        off.stats.nodes()
    );
}

#[test]
fn a_one_bucket_table_stays_correct_under_constant_eviction() {
    // bits=2 is a single 4-way bucket: every store competes. Values must
    // still match negmax exactly.
    for seed in 0..4 {
        let root = OrderedTreeSpec::strongly_ordered(seed, 4, 5).root();
        let table = TranspositionTable::with_bits(2);
        let exact = negmax(&root, 5).value;
        assert_eq!(
            er_search_with(
                &root,
                5,
                Window::FULL,
                ErConfig::NATURAL,
                0,
                Hooks::new().tt(&table)
            )
            .value,
            exact
        );
        assert_eq!(
            alphabeta_with(
                &root,
                5,
                Window::FULL,
                OrderPolicy::ALWAYS,
                Hooks::new().tt(&table)
            )
            .value,
            exact
        );
        assert_eq!(negmax_with(&root, 5, Hooks::new().tt(&table)).value, exact);
    }
}

#[test]
fn cross_algorithm_sharing_is_sound() {
    // negmax fills the table with Exact entries; every other back-end then
    // searches through those entries and must stay exact.
    let p = TicTacToe::initial();
    let table = TranspositionTable::with_bits(16);
    let exact = negmax_with(&p, 9, Hooks::new().tt(&table)).value;
    assert_eq!(exact, Value::ZERO);
    assert_eq!(
        alphabeta_with(
            &p,
            9,
            Window::FULL,
            OrderPolicy::NATURAL,
            Hooks::new().tt(&table)
        )
        .value,
        exact
    );
    assert_eq!(
        pvs_with(
            &p,
            9,
            Window::FULL,
            OrderPolicy::NATURAL,
            Hooks::new().tt(&table)
        )
        .value,
        exact
    );
    assert_eq!(
        er_search_with(
            &p,
            9,
            Window::FULL,
            ErConfig::NATURAL,
            0,
            Hooks::new().tt(&table)
        )
        .value,
        exact
    );
}

#[test]
fn generation_aging_keeps_later_searches_correct() {
    let root = OrderedTreeSpec::strongly_ordered(11, 4, 6).root();
    let table = TranspositionTable::with_bits(8);
    let exact = negmax(&root, 6).value;
    for _ in 0..5 {
        table.new_generation();
        assert_eq!(
            er_search_with(
                &root,
                6,
                Window::FULL,
                ErConfig::NATURAL,
                0,
                Hooks::new().tt(&table)
            )
            .value,
            exact
        );
    }
}

/// An Othello midgame root: `16 + (seed mix) % 9` uniformly random moves
/// from the initial position, `None` if the walk ends the game.
fn othello_midgame(seed: u64) -> Option<OthelloPos> {
    let mut s = splitmix64(seed);
    let plies = 16 + s % 9;
    let mut p = OthelloPos::initial();
    for _ in 0..plies {
        let moves = p.moves();
        if moves.is_empty() {
            return None;
        }
        s = splitmix64(s);
        p = p.play(&moves[(s % moves.len() as u64) as usize]);
    }
    (!p.moves().is_empty()).then_some(p)
}

#[test]
fn er_with_a_fresh_table_matches_alphabeta_on_othello_midgames() {
    // Of the first 150 walks, these two gave wrong depth-7 values while
    // Refute_rest kept searching after its retained tentative value met
    // beta: the children ran under an empty window, their fail-hard values
    // were stored as lower bounds, and a transposition cut off on them.
    for seed in [46, 116] {
        let root = othello_midgame(seed).expect("a live midgame");
        let table = TranspositionTable::with_bits(16);
        assert_eq!(
            er_search_with(
                &root,
                7,
                Window::FULL,
                ErConfig::OTHELLO,
                0,
                Hooks::new().tt(&table)
            )
            .value,
            alphabeta(&root, 7, OrderPolicy::OTHELLO).value,
            "walk {seed}"
        );
    }
}
