//! Fishburn's tree-splitting algorithm (paper §4.3).
//!
//! Processors form a tree; a master searches its assigned game node by
//! generating the children and handing each to a slave as one becomes
//! free, updating the alpha-beta window between assignments. Leaf
//! processors run serial alpha-beta on their assigned subtrees. When a
//! slave's result produces a cutoff, the master returns immediately and
//! the remaining slaves' in-flight work is abandoned (its cost and nodes
//! still count — the work was performed).
//!
//! Modelling note: the paper's masters also narrow the windows of
//! *running* slaves; this simulation fixes a slave's window at assignment
//! time, which slightly overstates tree-splitting's speculative loss. The
//! shape Fishburn derives — near-linear speedup on worst-ordered trees,
//! `O(1/sqrt(k))` efficiency on best-first trees — is preserved (see
//! tests).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use gametree::{GamePosition, SearchStats, Value, Window};
use problem_heap::CostModel;
use search_serial::ordering::{ordered_children, OrderPolicy};
use search_serial::{alphabeta_with, Hooks};

/// Shape of a complete processor tree: every master has `branching`
/// slaves, and `height` is the number of master levels above the leaf
/// processors (height 0 = a single leaf processor).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProcShape {
    /// Slaves per master.
    pub branching: usize,
    /// Master levels above the leaves.
    pub height: u32,
}

impl ProcShape {
    /// Total number of processors in the tree (masters + leaves).
    pub fn processors(&self) -> usize {
        let b = self.branching;
        (0..=self.height).map(|l| b.pow(l)).sum()
    }

    /// The largest complete shape with at most `k` processors.
    pub fn best_for(k: usize) -> ProcShape {
        let mut best = ProcShape {
            branching: 2,
            height: 0,
        };
        for branching in 2..=4 {
            for height in 0..=6 {
                let s = ProcShape { branching, height };
                if s.processors() <= k && s.processors() > best.processors() {
                    best = s;
                }
            }
        }
        best
    }
}

/// Result of a simulated tree-splitting run.
#[derive(Clone, Copy, Debug)]
pub struct TreeSplitResult {
    /// The exact root value.
    pub value: Value,
    /// Virtual completion time.
    pub makespan: u64,
    /// Processors used (the whole processor tree).
    pub processors: usize,
    /// Aggregate nodes examined, including abandoned in-flight work.
    pub stats: SearchStats,
}

struct Ctx<'a> {
    order: OrderPolicy,
    cost: &'a CostModel,
    stats: SearchStats,
}

/// Searches `pos` with a master `height` levels above the leaf processors,
/// starting at virtual time `start`. Returns (value, end time).
#[allow(clippy::too_many_arguments)]
fn split<P: GamePosition>(
    ctx: &mut Ctx<'_>,
    pos: &P,
    depth: u32,
    window: Window,
    ply: u32,
    branching: usize,
    height: u32,
    start: u64,
) -> (Value, u64) {
    if height == 0 || depth == 0 {
        // Leaf processor: plain serial alpha-beta.
        let r = alphabeta_with(pos, depth, window, ctx.order, Hooks::new());
        ctx.stats.merge(&r.stats);
        return (r.value, start + ctx.cost.serial_ticks(&r.stats));
    }
    let kids = ordered_children(pos, ply, ctx.order, &mut ctx.stats);
    if kids.is_empty() {
        ctx.stats.leaf_nodes += 1;
        ctx.stats.eval_calls += 1;
        return (pos.evaluate(), start + ctx.cost.eval);
    }
    ctx.stats.interior_nodes += 1;
    let t0 = start + ctx.cost.expand;

    let mut m = Value::NEG_INF;
    let mut w = window;
    let mut next = 0usize;
    // Min-heap of (completion time, assignment sequence, value).
    let mut pending: BinaryHeap<Reverse<(u64, usize, i64)>> = BinaryHeap::new();
    let mut seq = 0usize;
    for _slave in 0..branching.min(kids.len()) {
        let assign_at = t0 + ctx.cost.heap_latency;
        let (v, end) = split(
            ctx,
            &kids[next],
            depth - 1,
            w.negate(),
            ply + 1,
            branching,
            height - 1,
            assign_at,
        );
        pending.push(Reverse((end, seq, v.get() as i64)));
        seq += 1;
        next += 1;
    }
    let mut last_end = t0;
    while let Some(Reverse((end, _, raw))) = pending.pop() {
        last_end = end;
        let v = Value::new(raw as i32);
        m = m.max(-v);
        if m >= window.beta {
            // Cutoff: the master returns now; in-flight slaves are
            // abandoned (their stats were already merged).
            ctx.stats.cutoffs += 1;
            return (m, end);
        }
        w = w.raise_alpha(m);
        if next < kids.len() {
            let assign_at = end + ctx.cost.heap_latency;
            let (v2, e2) = split(
                ctx,
                &kids[next],
                depth - 1,
                w.negate(),
                ply + 1,
                branching,
                height - 1,
                assign_at,
            );
            pending.push(Reverse((e2, seq, v2.get() as i64)));
            seq += 1;
            next += 1;
        }
    }
    (m, last_end)
}

/// Runs tree-splitting over a `shape` processor tree.
pub fn run_tree_split<P: GamePosition>(
    pos: &P,
    depth: u32,
    shape: ProcShape,
    order: OrderPolicy,
    cost: &CostModel,
) -> TreeSplitResult {
    run_tree_split_window(pos, depth, Window::FULL, shape, order, cost)
}

/// Tree-splitting with an explicit initial window (used by pv-splitting
/// for its bounded sibling searches).
pub fn run_tree_split_window<P: GamePosition>(
    pos: &P,
    depth: u32,
    window: Window,
    shape: ProcShape,
    order: OrderPolicy,
    cost: &CostModel,
) -> TreeSplitResult {
    let mut ctx = Ctx {
        order,
        cost,
        stats: SearchStats::new(),
    };
    let (value, makespan) = split(
        &mut ctx,
        pos,
        depth,
        window,
        0,
        shape.branching,
        shape.height,
        0,
    );
    TreeSplitResult {
        value,
        makespan,
        processors: shape.processors(),
        stats: ctx.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gametree::ordered::OrderedTreeSpec;
    use gametree::random::RandomTreeSpec;
    use search_serial::{alphabeta, negmax};

    const SHAPES: [ProcShape; 3] = [
        ProcShape {
            branching: 2,
            height: 1,
        },
        ProcShape {
            branching: 2,
            height: 3,
        },
        ProcShape {
            branching: 4,
            height: 2,
        },
    ];

    #[test]
    fn matches_negmax() {
        for seed in 0..5 {
            let root = RandomTreeSpec::new(seed, 4, 6).root();
            let exact = negmax(&root, 6).value;
            for shape in SHAPES {
                let r =
                    run_tree_split(&root, 6, shape, OrderPolicy::NATURAL, &CostModel::default());
                assert_eq!(r.value, exact, "seed {seed} shape {shape:?}");
            }
        }
    }

    #[test]
    fn processor_counts() {
        assert_eq!(
            ProcShape {
                branching: 2,
                height: 2
            }
            .processors(),
            7
        );
        assert_eq!(
            ProcShape {
                branching: 3,
                height: 2
            }
            .processors(),
            13
        );
        assert_eq!(ProcShape::best_for(16).processors(), 15);
        assert_eq!(ProcShape::best_for(7).processors(), 7);
        assert_eq!(ProcShape::best_for(2).processors(), 1);
    }

    #[test]
    fn speeds_up_unordered_trees() {
        let cm = CostModel::default();
        let root = RandomTreeSpec::new(3, 4, 8).root();
        let serial = cm.serial_ticks(&alphabeta(&root, 8, OrderPolicy::NATURAL).stats);
        let r = run_tree_split(
            &root,
            8,
            ProcShape {
                branching: 2,
                height: 3,
            },
            OrderPolicy::NATURAL,
            &cm,
        );
        assert!(
            r.makespan < serial,
            "15 processors must beat serial: {} vs {serial}",
            r.makespan
        );
    }

    #[test]
    fn low_efficiency_on_best_first_trees() {
        // Fishburn: on optimally ordered trees tree-splitting achieves only
        // O(1/sqrt(k)) efficiency — far below 1.
        let cm = CostModel::default();
        let root = OrderedTreeSpec::best_first(5, 4, 8).root();
        let serial = cm.serial_ticks(&alphabeta(&root, 8, OrderPolicy::NATURAL).stats);
        let shape = ProcShape {
            branching: 2,
            height: 3,
        };
        let r = run_tree_split(&root, 8, shape, OrderPolicy::NATURAL, &cm);
        let eff = serial as f64 / r.makespan as f64 / r.processors as f64;
        assert!(
            eff < 0.55,
            "best-first trees must waste most of the machine, got {eff:.2}"
        );
    }

    #[test]
    fn examines_more_nodes_than_serial_alphabeta() {
        let root = RandomTreeSpec::new(7, 4, 7).root();
        let serial = alphabeta(&root, 7, OrderPolicy::NATURAL);
        let r = run_tree_split(
            &root,
            7,
            ProcShape {
                branching: 4,
                height: 2,
            },
            OrderPolicy::NATURAL,
            &CostModel::default(),
        );
        assert!(
            r.stats.nodes() >= serial.stats.nodes(),
            "speculative loss: {} vs {}",
            r.stats.nodes(),
            serial.stats.nodes()
        );
    }
}
