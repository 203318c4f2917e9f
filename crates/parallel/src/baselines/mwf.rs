//! Mandatory Work First (Akl, Barnard & Doran; paper §4.2).
//!
//! MWF first searches the minimal tree of alpha-beta *without deep
//! cutoffs* — critical 1- and 2-nodes — entirely in parallel, then, in
//! restricted speculative phases, the right (non-critical) children of
//! 2-nodes: the right child `s_i` of a 2-node `P` is not searched until
//! `P`'s left sibling and all of `s_1..s_{i-1}` have completed, and each
//! right-child subtree is searched by *serial alpha-beta* in one unit of
//! work. Windows are shallow only (no deep cutoffs), matching the variant
//! MWF is built on.
//!
//! Akl's simulations (and ours — see the crate tests and `repro
//! baselines`) show speedup rising quickly for a few processors and then
//! plateauing near six: once the minimal tree is saturated, extra
//! processors only starve.

use std::cmp::Reverse;

use gametree::{GamePosition, SearchStats, Value};
use problem_heap::{simulate, CostModel, HeapWorker, StableQueue, TakenWork};
use search_serial::ordering::{visit_order, OrderPolicy};
use search_serial::{alphabeta_with, Hooks};
use tt::{Bound, TranspositionTable, TtAccess, Zobrist};

/// MWF node type (no-deep-cutoff classification: types 1 and 2 only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MwfKind {
    /// Critical 1-node: all children expanded immediately.
    One,
    /// Critical 2-node: first child is mandatory, right children are
    /// speculative-phase work.
    Two,
}

struct MwfNode<P: GamePosition> {
    pos: P,
    parent: Option<usize>,
    /// Index among the parent's children.
    index: usize,
    depth: u32,
    ply: u32,
    kind: MwfKind,
    value: Value,
    done: bool,
    kids: Option<Vec<P>>,
    children: Vec<usize>,
    next_child: usize,
    active: usize,
    queued: bool,
}

enum Job {
    /// Expand a node (generate children per its type).
    Expand(usize),
    /// Evaluate a terminal.
    Leaf(usize),
    /// Serial subtree search: a 1-node at the serial frontier or a right
    /// child of a 2-node (always one serial alpha-beta unit).
    Serial(usize, Value),
}

/// The MWF problem-heap worker, generic over the (possibly absent)
/// transposition-table handle its serial units and expansions share.
struct MwfWorker<P: GamePosition, T: TtAccess<P>> {
    nodes: Vec<MwfNode<P>>,
    queue: StableQueue<Reverse<u32>, usize>,
    inflight: Vec<Option<Job>>,
    serial_depth: u32,
    order: OrderPolicy,
    cost: CostModel,
    totals: SearchStats,
    finished: bool,
    root_value: Option<Value>,
    tt: T,
}

impl<P: GamePosition, T: TtAccess<P>> MwfWorker<P, T> {
    fn new(
        pos: P,
        depth: u32,
        serial_depth: u32,
        order: OrderPolicy,
        cost: CostModel,
        tt: T,
    ) -> Self {
        let mut w = MwfWorker {
            nodes: vec![MwfNode {
                pos,
                parent: None,
                index: 0,
                depth,
                ply: 0,
                kind: MwfKind::One,
                value: Value::NEG_INF,
                done: false,
                kids: None,
                children: Vec::new(),
                next_child: 0,
                active: 0,
                queued: true,
            }],
            queue: StableQueue::new(),
            inflight: Vec::new(),
            serial_depth,
            order,
            cost,
            totals: SearchStats::new(),
            finished: false,
            root_value: None,
            tt,
        };
        w.queue.push(Reverse(0), 0);
        w
    }

    /// Shallow beta bound: `-parent.value` (no deep cutoffs).
    fn beta(&self, id: usize) -> Value {
        match self.nodes[id].parent {
            None => Value::INF,
            Some(p) => -self.nodes[p].value,
        }
    }

    fn spawn(&mut self, parent: usize, kind: MwfKind) -> usize {
        let id = self.nodes.len();
        let p = &mut self.nodes[parent];
        let idx = p.next_child;
        let pos = p.kids.as_ref().expect("expanded")[idx].clone();
        let (depth, ply) = (p.depth - 1, p.ply + 1);
        p.next_child += 1;
        p.children.push(id);
        p.active += 1;
        self.nodes.push(MwfNode {
            pos,
            parent: Some(parent),
            index: idx,
            depth,
            ply,
            kind,
            value: Value::NEG_INF,
            done: false,
            kids: None,
            children: Vec::new(),
            next_child: 0,
            active: 0,
            queued: false,
        });
        id
    }

    fn push_node(&mut self, id: usize) {
        if !self.nodes[id].queued && !self.nodes[id].done {
            self.nodes[id].queued = true;
            let ply = self.nodes[id].ply;
            self.queue.push(Reverse(ply), id);
        }
    }

    /// MWF gating for the next right child of 2-node `t`: "MWF will not
    /// search the subtree rooted at a right child s_i until the search of
    /// P's left sibling and the search of all siblings s_j for j < i have
    /// completed" (§4.2) — the *adjacent* left sibling must be done, and
    /// t's own children proceed strictly in order.
    fn may_advance_two(&self, t: usize) -> bool {
        let n = &self.nodes[t];
        if n.done || n.active > 0 {
            return false;
        }
        let Some(k) = n.kids.as_ref() else {
            return false;
        };
        if n.next_child >= k.len() {
            return false;
        }
        let p = n.parent.expect("2-nodes have parents");
        self.nodes[p]
            .children
            .iter()
            .filter(|&&s| self.nodes[s].index + 1 == n.index)
            .all(|&s| self.nodes[s].done)
    }

    /// Backs a completed node's value up the tree and schedules whatever
    /// the MWF phase rules now allow.
    fn on_done(&mut self, mut id: usize) {
        loop {
            debug_assert!(self.nodes[id].done);
            let Some(p) = self.nodes[id].parent else {
                self.finished = true;
                self.root_value = Some(self.nodes[id].value);
                return;
            };
            let nv = -self.nodes[id].value;
            if nv > self.nodes[p].value {
                self.nodes[p].value = nv;
            }
            self.nodes[p].active -= 1;

            // A completed node may unblock its right siblings' phases.
            let sibs: Vec<usize> = self.nodes[p].children.clone();
            for s in sibs {
                if s != id && self.nodes[s].kind == MwfKind::Two && self.may_advance_two(s) {
                    self.push_node(s);
                }
            }

            let pn = &self.nodes[p];
            let refuted = pn.kind == MwfKind::Two && pn.value >= self.beta(p);
            let exhausted = pn.kids.is_some()
                && pn.next_child == pn.kids.as_ref().unwrap().len()
                && pn.active == 0;
            if refuted || exhausted {
                self.nodes[p].done = true;
                if refuted {
                    self.totals.cutoffs += 1;
                }
                // With shallow windows a refuted 2-node's value is a lower
                // bound; an exhausted node's max is exact (fail-high
                // children can never have raised it past an exact sibling).
                let bound = if exhausted {
                    Bound::Exact
                } else {
                    Bound::Lower
                };
                let pn = &self.nodes[p];
                self.tt.store(&pn.pos, pn.depth, pn.value, bound, None);
                id = p;
                continue;
            }
            // 2-node with remaining right children and no running child:
            // schedule the next speculative phase if the gate is open.
            if self.nodes[p].kind == MwfKind::Two && self.may_advance_two(p) {
                self.push_node(p);
            }
            return;
        }
    }
}

impl<P: GamePosition, T: TtAccess<P>> HeapWorker for MwfWorker<P, T> {
    fn take(&mut self, _now: u64) -> Option<TakenWork> {
        loop {
            let id = self.queue.pop()?;
            self.nodes[id].queued = false;
            if self.nodes[id].done {
                continue;
            }
            // Shallow cutoff check at take time.
            if self.nodes[id].value >= self.beta(id) && self.nodes[id].parent.is_some() {
                self.totals.cutoffs += 1;
                self.nodes[id].done = true;
                let n = &self.nodes[id];
                self.tt.store(&n.pos, n.depth, n.value, Bound::Lower, None);
                self.on_done(id);
                if self.finished {
                    let token = self.inflight.len() as u64;
                    self.inflight.push(None);
                    return Some(TakenWork { token, cost: 0 });
                }
                continue;
            }
            let n = &self.nodes[id];
            let job;
            let cost;
            if n.depth == 0 || n.pos.degree() == 0 {
                self.totals.leaf_nodes += 1;
                self.totals.eval_calls += 1;
                job = Job::Leaf(id);
                cost = self.cost.eval;
            } else if n.kind == MwfKind::One && n.depth <= self.serial_depth {
                // Frontier 1-node: one serial alpha-beta unit with the
                // current shallow bound.
                let w = gametree::Window::new(Value::NEG_INF, self.beta(id));
                let r = alphabeta_with(&n.pos, n.depth, w, self.order, Hooks::new().tt(self.tt));
                self.totals.merge(&r.stats);
                cost = self.cost.serial_ticks(&r.stats);
                job = Job::Serial(id, r.value);
            } else if let (MwfKind::Two, Some(kids)) = (n.kind, n.kids.as_ref()) {
                // Speculative phase: the next right child, searched whole
                // by serial alpha-beta (paper §4.2) regardless of depth.
                if n.active > 0 || n.next_child >= kids.len() {
                    continue;
                }
                let idx = n.next_child;
                let child_pos = kids[idx].clone();
                // Shallow window: the child is refuted when its value
                // reaches -P.value; no deeper bounds are inherited.
                let w = gametree::Window::new(Value::NEG_INF, -n.value);
                let r = alphabeta_with(
                    &child_pos,
                    n.depth - 1,
                    w,
                    self.order,
                    Hooks::new().tt(self.tt),
                );
                self.totals.merge(&r.stats);
                cost = self.cost.serial_ticks(&r.stats);
                let c = self.spawn(id, MwfKind::Two);
                job = Job::Serial(c, r.value);
            } else {
                job = Job::Expand(id);
                cost = self.cost.expand;
            }
            let token = self.inflight.len() as u64;
            self.inflight.push(Some(job));
            return Some(TakenWork { token, cost });
        }
    }

    fn complete(&mut self, token: u64, _now: u64) -> bool {
        let Some(job) = self.inflight[token as usize].take() else {
            return self.finished;
        };
        match job {
            Job::Leaf(id) => {
                let v = self.nodes[id].pos.evaluate();
                // A terminal's static value is its exact value at any
                // remaining depth, so the stored-depth claim holds.
                let n = &self.nodes[id];
                self.tt.store(&n.pos, n.depth, v, Bound::Exact, None);
                self.nodes[id].value = v;
                self.nodes[id].done = true;
                self.on_done(id);
            }
            Job::Serial(id, value) => {
                if !self.nodes[id].done {
                    let v = self.nodes[id].value.max(value);
                    self.nodes[id].value = v;
                    self.nodes[id].done = true;
                    self.on_done(id);
                }
            }
            Job::Expand(id) => {
                if self.nodes[id].done {
                    return self.finished;
                }
                // Probe before expansion: an equal-depth entry usable
                // against the current shallow window closes the node
                // outright; otherwise its move hint seeds child ordering.
                let mut hint = None;
                if let Some(p) = self.tt.probe(&self.nodes[id].pos) {
                    let w = gametree::Window::new(Value::NEG_INF, self.beta(id));
                    if let Some(v) = p.cutoff(self.nodes[id].depth, w) {
                        let nv = self.nodes[id].value.max(v);
                        self.nodes[id].value = nv;
                        self.nodes[id].done = true;
                        self.on_done(id);
                        return self.finished;
                    }
                    hint = p.hint;
                }
                let n = &self.nodes[id];
                let mut s = SearchStats::new();
                let (visits, hinted) = visit_order(&n.pos, n.ply, self.order, hint, (), &mut s);
                if hinted {
                    self.tt.note_hint_used();
                }
                let kids: Vec<P> = visits.into_iter().map(|v| v.play(&n.pos)).collect();
                self.totals.merge(&s);
                self.totals.interior_nodes += 1;
                self.nodes[id].kids = Some(kids);
                match self.nodes[id].kind {
                    MwfKind::One => {
                        // Expand the whole critical fringe: first child is
                        // a 1-node, the rest are 2-nodes whose first child
                        // (also critical) is scheduled via their expansion.
                        let d = self.nodes[id].kids.as_ref().unwrap().len();
                        for i in 0..d {
                            let kind = if i == 0 { MwfKind::One } else { MwfKind::Two };
                            let c = self.spawn(id, kind);
                            // Both are scheduled now: the 1-node chain and
                            // each 2-node's critical first child are all
                            // phase-1 (mandatory) work; 2-node *right*
                            // children wait for the speculative phases.
                            self.push_node(c);
                        }
                    }
                    MwfKind::Two => {
                        // Only the critical first child now (a 1-node).
                        let c = self.spawn(id, MwfKind::One);
                        self.push_node(c);
                    }
                }
            }
        }
        self.finished
    }

    fn has_pending(&self) -> bool {
        !self.finished && !self.queue.is_empty()
    }
}

/// Result of a simulated MWF run.
#[derive(Clone, Copy, Debug)]
pub struct MwfResult {
    /// The exact root value.
    pub value: Value,
    /// Virtual-time report.
    pub report: problem_heap::SimReport,
    /// Aggregate nodes examined.
    pub stats: SearchStats,
}

/// Runs Mandatory Work First on `processors` simulated processors.
pub fn run_mwf<P: GamePosition>(
    pos: &P,
    depth: u32,
    processors: usize,
    serial_depth: u32,
    order: OrderPolicy,
    cost: &CostModel,
) -> MwfResult {
    run_mwf_gen(pos, depth, processors, serial_depth, order, cost, ())
}

/// Runs MWF with every serial unit and expansion sharing `table`:
/// expansions probe for cutoffs and move hints, completed nodes store
/// their bound, and the serial alpha-beta units probe/store throughout
/// their subtrees.
pub fn run_mwf_tt<P: GamePosition + Zobrist>(
    pos: &P,
    depth: u32,
    processors: usize,
    serial_depth: u32,
    order: OrderPolicy,
    cost: &CostModel,
    table: &TranspositionTable,
) -> MwfResult {
    run_mwf_gen(pos, depth, processors, serial_depth, order, cost, table)
}

#[allow(clippy::too_many_arguments)]
fn run_mwf_gen<P: GamePosition, T: TtAccess<P>>(
    pos: &P,
    depth: u32,
    processors: usize,
    serial_depth: u32,
    order: OrderPolicy,
    cost: &CostModel,
    tt: T,
) -> MwfResult {
    let mut w = MwfWorker::new(pos.clone(), depth, serial_depth, order, *cost, tt);
    let report = simulate(&mut w, processors, cost.heap_latency);
    MwfResult {
        value: w.root_value.expect("MWF finished"),
        report,
        stats: w.totals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gametree::random::RandomTreeSpec;
    use search_serial::negmax;

    #[test]
    fn matches_negmax() {
        for seed in 0..5 {
            let root = RandomTreeSpec::new(seed, 4, 6).root();
            let exact = negmax(&root, 6).value;
            for k in [1usize, 2, 4, 8, 16] {
                let r = run_mwf(&root, 6, k, 3, OrderPolicy::NATURAL, &CostModel::default());
                assert_eq!(r.value, exact, "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn deterministic() {
        let root = RandomTreeSpec::new(7, 4, 7).root();
        let a = run_mwf(&root, 7, 6, 4, OrderPolicy::NATURAL, &CostModel::default());
        let b = run_mwf(&root, 7, 6, 4, OrderPolicy::NATURAL, &CostModel::default());
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn speedup_plateaus() {
        // Akl's headline: speedup rises for a few processors then levels
        // off — adding processors beyond ~8 changes little.
        let cm = CostModel::default();
        let root = RandomTreeSpec::new(1, 4, 9).root();
        let m1 = run_mwf(&root, 9, 1, 5, OrderPolicy::NATURAL, &cm)
            .report
            .makespan;
        let m4 = run_mwf(&root, 9, 4, 5, OrderPolicy::NATURAL, &cm)
            .report
            .makespan;
        let m16 = run_mwf(&root, 9, 16, 5, OrderPolicy::NATURAL, &cm)
            .report
            .makespan;
        let m64 = run_mwf(&root, 9, 64, 5, OrderPolicy::NATURAL, &cm)
            .report
            .makespan;
        assert!(m4 < m1, "some speedup at 4: {m4} vs {m1}");
        assert!(
            (m64 as f64) > (m16 as f64) * 0.8,
            "64 processors must gain almost nothing over 16: {m16} -> {m64}"
        );
    }

    #[test]
    fn nodes_bounded_by_phase_discipline() {
        // MWF restricts speculation, so its node counts stay close to
        // serial alpha-beta-without-deep-cutoffs even at 16 processors.
        let cm = CostModel::default();
        let root = RandomTreeSpec::new(3, 4, 8).root();
        let serial = search_serial::alphabeta_nodeep(&root, 8, OrderPolicy::NATURAL);
        let r = run_mwf(&root, 8, 16, 5, OrderPolicy::NATURAL, &cm);
        assert!(
            (r.stats.nodes() as f64) < serial.stats.nodes() as f64 * 2.0,
            "MWF speculation is restricted: {} vs {}",
            r.stats.nodes(),
            serial.stats.nodes()
        );
    }
}
