//! Iterative-deepening driver with aspiration windows.
//!
//! Not part of the paper's algorithms (its searches are fixed-depth), but
//! the natural way a game program drives them: search depth 1, 2, …, d,
//! seeding each iteration's aspiration window with the previous value.
//! The harness uses the same idea to give the parallel-aspiration baseline
//! a realistic guess.

use gametree::{GamePosition, SearchStats, Value};

use crate::aspiration::{aspiration, Probe};
use crate::ordering::OrderPolicy;
use crate::Hooks;

/// Result of one iterative-deepening run.
#[derive(Clone, Debug)]
pub struct IterativeResult {
    /// Exact value at the final depth.
    pub value: Value,
    /// Per-depth values (index 0 = depth 1).
    pub by_depth: Vec<Value>,
    /// How each iteration's aspiration probe resolved.
    pub probes: Vec<Probe>,
    /// Counters accumulated over all iterations.
    pub stats: SearchStats,
}

/// Searches `pos` at depths `1..=depth`, each iteration aspiring around
/// the previous depth's value with window half-width `delta`.
pub fn iterative_deepening<P: GamePosition>(
    pos: &P,
    depth: u32,
    delta: i32,
    policy: OrderPolicy,
) -> IterativeResult {
    assert!(depth >= 1 && delta > 0);
    let mut stats = SearchStats::new();
    let mut by_depth = Vec::with_capacity(depth as usize);
    let mut probes = Vec::with_capacity(depth as usize);
    let mut guess = pos.evaluate();
    stats.eval_calls += 1;
    for d in 1..=depth {
        let r = aspiration(pos, d, guess, delta, policy, Hooks::new());
        stats.merge(&r.result.stats);
        by_depth.push(r.result.value);
        probes.push(r.probe);
        guess = r.result.value;
    }
    IterativeResult {
        value: *by_depth.last().expect("depth >= 1"),
        by_depth,
        probes,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabeta::alphabeta;
    use crate::negmax::negmax;
    use gametree::ordered::OrderedTreeSpec;
    use gametree::random::RandomTreeSpec;

    #[test]
    fn final_value_is_exact() {
        for seed in 0..6 {
            let root = RandomTreeSpec::new(seed, 4, 6).root();
            let r = iterative_deepening(&root, 6, 50, OrderPolicy::NATURAL);
            assert_eq!(r.value, negmax(&root, 6).value, "seed {seed}");
        }
    }

    #[test]
    fn every_intermediate_depth_is_exact() {
        let root = RandomTreeSpec::new(3, 4, 6).root();
        let r = iterative_deepening(&root, 6, 50, OrderPolicy::NATURAL);
        for (i, v) in r.by_depth.iter().enumerate() {
            let d = i as u32 + 1;
            assert_eq!(*v, negmax(&root, d).value, "depth {d}");
        }
        assert_eq!(r.by_depth.len(), 6);
        assert_eq!(r.probes.len(), 6);
    }

    #[test]
    fn good_guesses_make_probes_exact_on_stable_trees() {
        // On an incremental ordered tree, values barely move between
        // depths, so most aspiration probes should land inside the window.
        let root = OrderedTreeSpec::strongly_ordered(5, 4, 7).root();
        let r = iterative_deepening(&root, 7, 200, OrderPolicy::ALWAYS);
        let exact = r
            .probes
            .iter()
            .filter(|p| matches!(p, Probe::Exact))
            .count();
        assert!(
            exact * 2 >= r.probes.len(),
            "most probes should be exact: {exact}/{}",
            r.probes.len()
        );
    }

    #[test]
    fn total_work_is_comparable_to_one_direct_search() {
        // Iterative deepening's classic property: the shallow iterations
        // cost little relative to the final depth.
        let root = RandomTreeSpec::new(7, 4, 7).root();
        let it = iterative_deepening(&root, 7, 100, OrderPolicy::NATURAL);
        let direct = alphabeta(&root, 7, OrderPolicy::NATURAL);
        let ratio = it.stats.nodes() as f64 / direct.stats.nodes() as f64;
        assert!(
            ratio < 3.0,
            "iterative deepening overhead too large: {ratio:.2}"
        );
    }

    #[test]
    #[should_panic(expected = "depth >= 1")]
    fn zero_depth_is_rejected() {
        let root = RandomTreeSpec::new(1, 2, 2).root();
        iterative_deepening(&root, 0, 10, OrderPolicy::NATURAL);
    }
}
