//! Alpha-beta search with deep cutoffs (paper §2.1), fail-soft.
//!
//! This is the "best serial algorithm" that speedups are measured against
//! in the paper's experiments (with child sorting per §7).

use gametree::{GamePosition, SearchStats, Value, Window};
use tt::{Bound, TtAccess};

use crate::control::{CtlAccess, CtlSearchResult};
use crate::ordering::{note_cutoff, visit_order, OrdAccess, OrderPolicy};
use crate::{Hooks, SearchResult};

/// Full-window alpha-beta evaluation of `pos` to `depth` plies.
pub fn alphabeta<P: GamePosition>(pos: &P, depth: u32, policy: OrderPolicy) -> SearchResult {
    alphabeta_with(pos, depth, Window::FULL, policy, Hooks::new()).completed()
}

/// Alpha-beta of `pos` to `depth` plies under `window`, with the table,
/// control and ordering handles of `hooks`. Fail-soft: the result is
/// exact if it lies strictly inside `window`, otherwise it is a bound of
/// the corresponding direction.
///
/// * table: probed before expanding (an equal-depth entry can answer the
///   node outright), its stored best move seeds child ordering, and every
///   return is stored;
/// * control: polled at every node. A completed run is bit-identical to
///   the run without one; an aborted one flags itself via `aborted` and
///   its value is partial;
/// * ordering: killer/history ranking after the policy sort, with cutoff
///   credit recorded back into the tables.
pub fn alphabeta_with<P: GamePosition, T: TtAccess<P>, C: CtlAccess, O: OrdAccess>(
    pos: &P,
    depth: u32,
    window: Window,
    policy: OrderPolicy,
    hooks: Hooks<T, C, O>,
) -> CtlSearchResult {
    let Hooks { tt, ctl, ord, .. } = hooks;
    let mut stats = SearchStats::new();
    let value = ab_rec(pos, depth, window, 0, policy, tt, ctl, ord, &mut stats);
    CtlSearchResult::from_rec(value, Value::NEG_INF, stats, ctl)
}

/// Classifies a fail-soft result against the *original* window: at or above
/// beta it is a lower bound, at or below alpha an upper bound (fail-soft
/// child values bound the true value from the failing side), strictly
/// inside it is exact.
pub fn fail_soft_bound(value: Value, window: Window) -> Bound {
    if value >= window.beta {
        Bound::Lower
    } else if value <= window.alpha {
        Bound::Upper
    } else {
        Bound::Exact
    }
}

#[allow(clippy::too_many_arguments)]
fn ab_rec<P: GamePosition, T: TtAccess<P>, C: CtlAccess, O: OrdAccess>(
    pos: &P,
    depth: u32,
    window: Window,
    ply: u32,
    policy: OrderPolicy,
    tt: T,
    ctl: C,
    ord: O,
    stats: &mut SearchStats,
) -> Option<Value> {
    if ctl.check().is_some() {
        return None;
    }
    if depth == 0 || pos.degree() == 0 {
        stats.leaf_nodes += 1;
        stats.eval_calls += 1;
        let v = pos.evaluate();
        tt.store(pos, depth, v, Bound::Exact, None);
        return Some(v);
    }
    let hint = match tt.probe(pos) {
        Some(p) => {
            if let Some(v) = p.cutoff(depth, window) {
                return Some(v);
            }
            p.hint
        }
        None => None,
    };
    stats.interior_nodes += 1;
    let (kids, hinted) = visit_order(pos, ply, policy, hint, ord, stats);
    if hinted {
        tt.note_hint_used();
    }
    let mut m = Value::NEG_INF;
    let mut best = None;
    let mut w = window;
    for k in kids {
        // Unsorted children are played here, on first visit: a cutoff
        // leaves the rest unplayed.
        let nat = k.nat;
        let child = k.play(pos);
        // An abort below propagates before any store: partial values never
        // reach the table.
        let t = -ab_rec(
            &child,
            depth - 1,
            w.negate(),
            ply + 1,
            policy,
            tt,
            ctl,
            ord,
            stats,
        )?;
        if t > m {
            m = t;
            best = Some(nat);
        }
        w = w.raise_alpha(m);
        if m >= window.beta {
            stats.cutoffs += 1;
            note_cutoff(ord, ply, depth, nat, stats);
            tt.store(pos, depth, m, Bound::Lower, best);
            return Some(m);
        }
    }
    tt.store(pos, depth, m, fail_soft_bound(m, window), best);
    Some(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::negmax::negmax;
    use gametree::arena::{leaf, node, ArenaTree};
    use gametree::minimal::minimal_leaf_count;
    use gametree::ordered::OrderedTreeSpec;
    use gametree::random::RandomTreeSpec;

    fn window<P: GamePosition>(pos: &P, depth: u32, w: Window) -> CtlSearchResult {
        alphabeta_with(pos, depth, w, OrderPolicy::NATURAL, Hooks::new())
    }

    #[test]
    fn full_window_equals_negmax_on_random_trees() {
        for seed in 0..8 {
            let root = RandomTreeSpec::new(seed, 4, 5).root();
            let ab = alphabeta(&root, 5, OrderPolicy::NATURAL);
            let nm = negmax(&root, 5);
            assert_eq!(ab.value, nm.value, "seed {seed}");
            assert!(
                ab.stats.nodes() <= nm.stats.nodes(),
                "pruning never adds nodes"
            );
        }
    }

    #[test]
    fn shallow_cutoff_of_figure_2a() {
        // Figure 2(a): A's first child is -7 so A >= 7; B's first child is 5
        // so B >= -5 and B's remaining children are cut off.
        let root = ArenaTree::root_of(&node(vec![leaf(-7), node(vec![leaf(5), leaf(-100)])]));
        let r = alphabeta(&root, 2, OrderPolicy::NATURAL);
        assert_eq!(r.value, Value::new(7));
        // Nodes: root, leaf -7, node B, leaf 5 — the -100 leaf is pruned.
        assert_eq!(r.stats.nodes(), 4);
        assert_eq!(r.stats.cutoffs, 1);
    }

    #[test]
    fn deep_cutoff_of_figure_2b() {
        // Figure 2(b): A >= 5 from its first child; deep in the second
        // subtree, D's first child has value -5, giving D >= 5 and cutting
        // off D's remaining children via the *grandparent's* bound.
        let d_node = node(vec![leaf(-5), leaf(-100)]);
        let c_node = node(vec![leaf(9), d_node]);
        let b_node = node(vec![c_node]);
        let root = ArenaTree::root_of(&node(vec![leaf(-5), b_node]));
        let r = alphabeta(&root, 4, OrderPolicy::NATURAL);
        // The -100 leaf under D must not be visited: count visited leaves.
        assert_eq!(r.stats.leaf_nodes, 3, "leaves visited: -5, 9, -5 only");
    }

    #[test]
    fn best_first_tree_searches_exactly_the_minimal_tree() {
        // On a perfectly ordered tree, alpha-beta visits exactly
        // d^ceil(h/2) + d^floor(h/2) - 1 leaves (paper §2.2).
        for (d, h) in [(2u32, 6u32), (3, 4), (4, 4), (5, 3)] {
            let root = OrderedTreeSpec::best_first(7, d, h).root();
            let r = alphabeta(&root, h, OrderPolicy::NATURAL);
            assert_eq!(
                r.stats.leaf_nodes,
                minimal_leaf_count(d as u64, h),
                "d={d} h={h}"
            );
        }
    }

    #[test]
    fn sorting_reduces_leaf_visits_on_correlated_trees() {
        let root = OrderedTreeSpec::strongly_ordered(3, 5, 6).root();
        let unsorted = alphabeta(&root, 6, OrderPolicy::NATURAL);
        let sorted = alphabeta(&root, 6, OrderPolicy::ALWAYS);
        assert_eq!(unsorted.value, sorted.value);
        assert!(
            sorted.stats.leaf_nodes <= unsorted.stats.leaf_nodes,
            "static sorting should not hurt a correlated tree: {} vs {}",
            sorted.stats.leaf_nodes,
            unsorted.stats.leaf_nodes
        );
    }

    #[test]
    fn fail_soft_bounds_are_sound() {
        for seed in 0..10 {
            let root = RandomTreeSpec::new(seed, 3, 4).root();
            let exact = negmax(&root, 4).value;
            // A window strictly below the exact value fails high with a
            // lower bound <= exact; strictly above fails low with an upper
            // bound >= exact.
            let lo = Window::new(Value::new(-20_000), Value::new(exact.get() - 1));
            let hi = Window::new(Value::new(exact.get() + 1), Value::new(20_000));
            let fail_high = window(&root, 4, lo).value;
            let fail_low = window(&root, 4, hi).value;
            assert!(fail_high >= Value::new(exact.get() - 1), "seed {seed}");
            assert!(fail_high <= exact, "fail-soft lower bound exceeds exact");
            assert!(fail_low <= Value::new(exact.get() + 1), "seed {seed}");
            assert!(fail_low >= exact, "fail-soft upper bound below exact");
        }
    }

    #[test]
    fn window_containing_value_gives_exact_result() {
        for seed in 0..10 {
            let root = RandomTreeSpec::new(seed, 3, 4).root();
            let exact = negmax(&root, 4).value;
            let w = Window::new(Value::new(exact.get() - 5), Value::new(exact.get() + 5));
            let r = window(&root, 4, w);
            assert_eq!(r.value, exact, "seed {seed}");
        }
    }

    #[test]
    fn narrower_windows_never_visit_more_nodes() {
        for seed in 0..6 {
            let root = RandomTreeSpec::new(seed, 4, 4).root();
            let full = alphabeta(&root, 4, OrderPolicy::NATURAL);
            let exact = full.value.get();
            let narrow = Window::new(Value::new(exact - 1), Value::new(exact + 1));
            let r = window(&root, 4, narrow);
            assert!(r.stats.nodes() <= full.stats.nodes(), "seed {seed}");
        }
    }
}
