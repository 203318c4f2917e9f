//! Principal-variation search (minimal-window search).
//!
//! The paper's §4.4 footnote describes Marsland & Popowich's pv-splitting
//! variant that verifies the non-PV children with *minimal-window*
//! searches. This module supplies the serial primitive: the first child is
//! searched with the full window; every later child is first probed with
//! the null window `(m, m+1)`, and only re-searched with a real window if
//! the probe fails high. On well-ordered trees almost every probe refutes
//! immediately, making PVS the strongest serial searcher in the workspace.

use gametree::{GamePosition, SearchStats, Value, Window};
use tt::{Bound, TtAccess};

use crate::alphabeta::fail_soft_bound;
use crate::control::{CtlAccess, CtlSearchResult};
use crate::ordering::{note_cutoff, visit_order, OrdAccess, OrderPolicy};
use crate::{Hooks, SearchResult};

/// Evaluates `pos` to `depth` plies with principal-variation search.
pub fn pvs<P: GamePosition>(pos: &P, depth: u32, policy: OrderPolicy) -> SearchResult {
    pvs_with(pos, depth, Window::FULL, policy, Hooks::new()).completed()
}

/// PVS of `pos` to `depth` plies under `window` (fail-soft), with the
/// table, control and ordering handles of `hooks`.
///
/// * table: the stored best move steers the full-window first-child
///   search onto the principal variation, which is what PVS's null-window
///   probes bet on;
/// * control: polled at every node; an aborted run flags itself via
///   `aborted` and its value is partial;
/// * ordering: killer/history ranking steers the null-window probes onto
///   refuting children, which is precisely where PVS's bet pays off.
pub fn pvs_with<P: GamePosition, T: TtAccess<P>, C: CtlAccess, O: OrdAccess>(
    pos: &P,
    depth: u32,
    window: Window,
    policy: OrderPolicy,
    hooks: Hooks<T, C, O>,
) -> CtlSearchResult {
    let Hooks { tt, ctl, ord, .. } = hooks;
    let mut stats = SearchStats::new();
    let value = rec(pos, depth, window, 0, policy, tt, ctl, ord, &mut stats);
    CtlSearchResult::from_rec(value, Value::NEG_INF, stats, ctl)
}

#[allow(clippy::too_many_arguments)]
fn rec<P: GamePosition, T: TtAccess<P>, C: CtlAccess, O: OrdAccess>(
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
    for (i, k) in kids.into_iter().enumerate() {
        // Played on first visit: a cutoff leaves the rest unplayed.
        let nat = k.nat;
        let child = k.play(pos);
        // Aborts below propagate before any store: partial values never
        // reach the table.
        let t = if i == 0 || !w.alpha.is_finite() {
            // First child (or no bound yet): full remaining window.
            -rec(
                &child,
                depth - 1,
                w.negate(),
                ply + 1,
                policy,
                tt,
                ctl,
                ord,
                stats,
            )?
        } else {
            // Null-window probe around the current best.
            let null = Window::new(w.alpha, Value::new(w.alpha.get() + 1));
            let probe = -rec(
                &child,
                depth - 1,
                null.negate(),
                ply + 1,
                policy,
                tt,
                ctl,
                ord,
                stats,
            )?;
            if probe > w.alpha && probe < window.beta {
                // Fail-high inside the real window: re-search for the
                // exact value.
                stats.re_searches += 1;
                let re = Window::new(probe, window.beta).raise_alpha(w.alpha);
                -rec(
                    &child,
                    depth - 1,
                    re.negate(),
                    ply + 1,
                    policy,
                    tt,
                    ctl,
                    ord,
                    stats,
                )?
            } else {
                probe
            }
        };
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
    use crate::alphabeta::alphabeta;
    use crate::negmax::negmax;
    use gametree::ordered::OrderedTreeSpec;
    use gametree::random::RandomTreeSpec;

    #[test]
    fn equals_negmax_on_random_trees() {
        for seed in 0..10 {
            let root = RandomTreeSpec::new(seed, 4, 6).root();
            assert_eq!(
                pvs(&root, 6, OrderPolicy::NATURAL).value,
                negmax(&root, 6).value,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn equals_negmax_on_ordered_trees() {
        for seed in 0..6 {
            let root = OrderedTreeSpec::strongly_ordered(seed, 5, 6).root();
            assert_eq!(
                pvs(&root, 6, OrderPolicy::ALWAYS).value,
                negmax(&root, 6).value,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn stays_close_to_alphabeta_on_strongly_ordered_trees() {
        // Null-window probes refute cheaply when the first child is
        // usually best; occasional re-searches cost a little. Net, PVS
        // tracks alpha-beta within a few percent on these trees (its big
        // wins need deeper trees and better ordering than the synthetic
        // generator provides).
        let mut pvs_nodes = 0u64;
        let mut ab_nodes = 0u64;
        for seed in 0..6 {
            let root = OrderedTreeSpec::strongly_ordered(seed, 5, 7).root();
            pvs_nodes += pvs(&root, 7, OrderPolicy::ALWAYS).stats.nodes();
            ab_nodes += alphabeta(&root, 7, OrderPolicy::ALWAYS).stats.nodes();
        }
        assert!(
            (pvs_nodes as f64) < ab_nodes as f64 * 1.10,
            "PVS re-search overhead out of band: {pvs_nodes} vs {ab_nodes}"
        );
    }

    #[test]
    fn matches_minimal_tree_on_best_first_order() {
        // On perfectly ordered trees every probe refutes immediately: PVS
        // visits no more leaves than plain alpha-beta's minimal tree.
        use gametree::minimal::minimal_leaf_count;
        for (d, h) in [(3u32, 4u32), (4, 4), (2, 6)] {
            let root = OrderedTreeSpec::best_first(3, d, h).root();
            let r = pvs(&root, h, OrderPolicy::NATURAL);
            assert!(
                r.stats.leaf_nodes <= minimal_leaf_count(d as u64, h),
                "d={d} h={h}: {} leaves vs minimal {}",
                r.stats.leaf_nodes,
                minimal_leaf_count(d as u64, h)
            );
        }
    }

    #[test]
    fn window_variant_is_exact_inside_the_window() {
        for seed in 0..6 {
            let root = RandomTreeSpec::new(seed, 3, 5).root();
            let exact = negmax(&root, 5).value;
            let w = Window::new(Value::new(exact.get() - 10), Value::new(exact.get() + 10));
            let r = pvs_with(&root, 5, w, OrderPolicy::NATURAL, Hooks::new());
            assert_eq!(r.value, exact);
        }
    }

    #[test]
    fn depth_zero_is_static() {
        let root = RandomTreeSpec::new(1, 3, 4).root();
        assert_eq!(pvs(&root, 0, OrderPolicy::NATURAL).value, {
            use gametree::GamePosition;
            root.evaluate()
        });
    }
}
