//! The problem-heap ER engine (paper §6).
//!
//! Each processor repeatedly takes a node from the problem heap — first
//! from the **primary queue** (scheduled work, deepest first), then from
//! the **speculative queue** (e-nodes that may receive additional
//! e-children; fewest e-children first, shallower first on ties) — and
//! processes it according to Table 1. Completions back values up the tree
//! with the `combine` procedure and trigger the Table 2 actions at the
//! deepest ancestor that still has outstanding work.
//!
//! Nodes whose remaining depth is at most `serial_depth` are solved by
//! serial ER in a single unit of work, with the dynamic alpha-beta window
//! captured when the work is taken (§6, Table 3's "serial depth").
//!
//! The engine is split into three phases so that both back-ends share it:
//! [`ErWorker::select`] (under the heap lock: pop queues, resolve cutoffs,
//! decide the Table 1 action), [`execute_task`] (outside the lock: move
//! generation, static evaluation, serial subtree search), and
//! [`ErWorker::apply`] (under the lock: spawn children, combine values,
//! Table 2 actions). The deterministic simulator charges `execute_task`'s
//! virtual cost; the threaded back-end runs it concurrently for real.

use std::cmp::Reverse;
use std::sync::Arc;

use gametree::{GamePosition, SearchStats, Value, Window};
use problem_heap::{simulate, HeapWorker, StableQueue, TakenWork};
use search_serial::control::CtlAccess;
use search_serial::er::{er_eval_refute_with, er_search_with, ErConfig};
use search_serial::ordering::{visit_order, OrdAccess, OrderPolicy};
use search_serial::Hooks;
use tt::{Bound, TtAccess};

use super::{ErParallelConfig, ErRunResult};
use crate::tree::{Kind, NodeId, SearchTree, ROOT};

/// What must be computed for a taken node, outside the heap lock.
///
/// Tasks carry no position: the executor borrows (simulator) or shares
/// (threaded back-end) the node's position only when [`Task::needs_pos`]
/// says the task actually reads it, so bookkeeping-only tasks and
/// cached-leaf hits never pay for a position copy.
#[allow(missing_docs)]
#[derive(Clone, Copy, Debug)]
pub enum Task {
    /// Static-evaluate a terminal (game over or depth 0).
    Leaf,
    /// The terminal's static value is already memoized (the parent's
    /// sorting probe evaluated it): no evaluator call, no position access.
    CachedLeaf(Value),
    /// Generate (and possibly sort) the node's children. `enode` children
    /// are never statically sorted (§7). `cached` carries the node's own
    /// memoized static value for the childless-terminal case; `depth` is
    /// the node's remaining depth (transposition-table probe/store key).
    Movegen {
        ply: u32,
        depth: u32,
        enode: bool,
        cached: Option<Value>,
    },
    /// Spawn the next child of an r-node (move list already exists).
    NextChild,
    /// Spawn the remaining children of a promoted e-child.
    ExpandRest,
    /// Solve the subtree serially under the captured window: a fresh
    /// e-node gets a full ER evaluation, a fresh r-node the cheaper
    /// `Eval_first`/`Refute_rest` discipline.
    Serial {
        depth: u32,
        window: Window,
        ply: u32,
        refute: bool,
    },
}

impl Task {
    /// True iff [`execute_task`] reads the node's position for this task.
    /// The threaded back-end takes a handle on the position (under the
    /// lock) only when this holds; `NextChild`/`ExpandRest`/`CachedLeaf`
    /// skip it.
    pub fn needs_pos(&self) -> bool {
        match self {
            Task::Leaf | Task::Movegen { .. } | Task::Serial { .. } => true,
            Task::CachedLeaf(_) | Task::NextChild | Task::ExpandRest => false,
        }
    }
}

/// A unit of work selected from the problem heap.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    /// The node the job belongs to.
    pub id: NodeId,
    /// The computation to perform outside the lock.
    pub task: Task,
}

/// Result of [`execute_task`], applied under the lock.
#[allow(missing_docs)]
pub enum Outcome<P: GamePosition> {
    /// The node is a terminal with this static value, freshly evaluated.
    Leaf(Value),
    /// The node is a terminal whose static value was memoized — counts as
    /// an examined leaf but charges no evaluator call.
    CachedLeaf(Value),
    /// Generated children in search order, the static values computed for
    /// sorting (memoized onto spawned children), the natural (pre-sort)
    /// index of each child, and the evaluator calls charged for sorting.
    /// Children arrive pre-wrapped in [`Arc`] — the executor pays the
    /// allocation outside the lock; `apply` just moves the handles in.
    Moves {
        kids: Vec<Arc<P>>,
        evals: Option<Vec<Value>>,
        nats: Vec<u16>,
        sort_evals: u64,
    },
    /// `NextChild` / `ExpandRest` carry no payload.
    Unit,
    /// Serial subtree result.
    Serial { value: Value, stats: SearchStats },
    /// An equal-depth `Exact` transposition-table entry answered the node
    /// before expansion: the stored value is the node's exact value.
    TtExact(Value),
    /// The search control tripped inside a serial-frontier job: the partial
    /// result was discarded and must never be applied to the tree. The
    /// worker observing this outcome starts the abort protocol instead.
    Aborted,
}

/// Outcome of trying to select work.
pub enum Select {
    /// A job to execute.
    Job(Job),
    /// The computation finished during selection (a cutoff cascade
    /// completed the root).
    JustFinished,
    /// No work available right now.
    Empty,
}

/// Executes a task. Pure with respect to the shared tree: callable outside
/// any lock. `pos` must be `Some` when [`Task::needs_pos`] holds; it is a
/// borrow so the simulator can point straight into the tree and the
/// threaded back-end can pass the handle its selection took.
///
/// `tt` is the (possibly absent) shared transposition table: all table
/// traffic happens here, outside the heap lock. Probes can only use the
/// window-free part of an entry — an equal-depth `Exact` value (the
/// dynamic alpha-beta window lives in the tree, which this function must
/// not read) — plus the stored best move as an ordering hint; stores come
/// from the serial-frontier searches and freshly evaluated terminals.
///
/// `ctl` is the (possibly absent) abort handle: `()` for the simulator
/// (byte-identical to the pre-control code), a `&CtlProbe` in the threaded
/// back-end so a deadline is observed *inside* long serial-frontier
/// refutation batches. A tripped control surfaces as [`Outcome::Aborted`].
///
/// `ord` is the (possibly absent) shared killer/history handle: `()` keeps
/// every path bit-identical to the ordering-free engine; an
/// `&OrderingTables` ranks non-e-node children dynamically and collects
/// cutoff credit from the serial frontier.
pub fn execute_task<P: GamePosition, T: TtAccess<P>, C: CtlAccess, O: OrdAccess>(
    task: &Task,
    pos: Option<&P>,
    cfg: ErConfig,
    tt: T,
    ctl: C,
    ord: O,
) -> Outcome<P> {
    match *task {
        Task::Leaf => {
            let pos = pos.expect("leaf task reads its position");
            if let Some(p) = tt.probe(pos) {
                if p.depth == 0 && p.bound == Bound::Exact {
                    return Outcome::CachedLeaf(p.value);
                }
            }
            let v = pos.evaluate();
            tt.store(pos, 0, v, Bound::Exact, None);
            Outcome::Leaf(v)
        }
        Task::CachedLeaf(v) => Outcome::CachedLeaf(v),
        Task::Movegen {
            ply,
            depth,
            enode,
            cached,
        } => {
            let pos = pos.expect("movegen task reads its position");
            let hint = match tt.probe(pos) {
                Some(p) => {
                    if p.depth == depth && p.bound == Bound::Exact {
                        // Exact entries need no window: the node is done
                        // before its children are even generated.
                        return Outcome::TtExact(p.value);
                    }
                    p.hint
                }
                None => None,
            };
            let mut s = SearchStats::new();
            // E-node children are never statically sorted (§7) — and never
            // dynamically ranked either: their order is immaterial because
            // every child will be examined. Non-e-node children get the
            // static policy plus killer/history ranking.
            let (visits, hinted) = if enode {
                visit_order(pos, ply, OrderPolicy::NATURAL, hint, (), &mut s)
            } else {
                visit_order(pos, ply, cfg.order, hint, ord, &mut s)
            };
            if hinted {
                tt.note_hint_used();
            }
            if visits.is_empty() {
                match cached {
                    Some(v) => Outcome::CachedLeaf(v),
                    None => {
                        let v = pos.evaluate();
                        // A terminal's static value is its exact value at
                        // this node's remaining depth.
                        tt.store(pos, depth, v, Bound::Exact, None);
                        Outcome::Leaf(v)
                    }
                }
            } else {
                // The tree holds every child of a generated node, so all
                // are played here; the sort's evaluations travel with them.
                let evals = visits
                    .iter()
                    .map(|v| v.sorted.as_ref().map(|c| c.1))
                    .collect();
                let (nats, kids) = visits
                    .into_iter()
                    .map(|v| (v.nat, Arc::new(v.play(pos))))
                    .unzip();
                Outcome::Moves {
                    kids,
                    evals,
                    nats,
                    sort_evals: s.eval_calls,
                }
            }
        }
        Task::NextChild | Task::ExpandRest => Outcome::Unit,
        Task::Serial {
            depth,
            window,
            ply,
            refute,
        } => {
            let pos = pos.expect("serial task reads its position");
            let hooks = Hooks::new().tt(tt).ctl(ctl).ord(ord);
            let r = if refute {
                er_eval_refute_with(pos, depth, window, cfg, ply, hooks)
            } else {
                er_search_with(pos, depth, window, cfg, ply, hooks)
            };
            if !r.is_complete() {
                return Outcome::Aborted;
            }
            Outcome::Serial {
                value: r.value,
                stats: r.stats,
            }
        }
    }
}

/// The ER problem-heap state: shared tree plus the two priority queues.
pub struct ErWorker<P: GamePosition> {
    tree: SearchTree<P>,
    /// Primary queue: deepest nodes first (key = `Reverse(ply)`).
    primary: StableQueue<Reverse<u32>, NodeId>,
    /// Speculative queue: fewest e-children first, then shallowest.
    spec: StableQueue<(u32, u32), NodeId>,
    cfg: ErParallelConfig,
    /// Aggregate nodes examined / evaluator calls (Figures 12 and 13).
    pub totals: SearchStats,
    /// Path keys of every examined node (interior expansions and leaves;
    /// serial-frontier subtree roots appear as one key). Meaningful for
    /// work classification when `serial_depth == 0`.
    pub examined_keys: Vec<u64>,
    /// Leaves settled from a memoized static value instead of a fresh
    /// evaluator call (each one is an `eval` the seed engine paid twice).
    pub cached_leaf_hits: u64,
    finished: bool,
    /// Root value once finished.
    pub root_value: Option<Value>,
}

impl<P: GamePosition> ErWorker<P> {
    /// A worker ready to search `pos` to `depth` plies.
    pub fn new(pos: P, depth: u32, cfg: ErParallelConfig) -> ErWorker<P> {
        ErWorker::new_windowed(pos, depth, Window::FULL, cfg)
    }

    /// [`ErWorker::new`] with an explicit root window (aspiration search):
    /// every dynamic window in the tree — and every serial-frontier job —
    /// inherits the narrowed bounds.
    pub fn new_windowed(pos: P, depth: u32, window: Window, cfg: ErParallelConfig) -> ErWorker<P> {
        let mut w = ErWorker {
            tree: SearchTree::new_windowed(pos, depth, window),
            primary: StableQueue::new(),
            spec: StableQueue::new(),
            cfg,
            totals: SearchStats::new(),
            examined_keys: Vec::new(),
            cached_leaf_hits: 0,
            finished: false,
            root_value: None,
        };
        w.push_primary(ROOT);
        w
    }

    /// True once the root has combined.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The position at node `id` (borrowed; the simulator points
    /// `execute_task` straight at it).
    pub fn node_pos(&self, id: NodeId) -> &P {
        &self.tree.node(id).pos
    }

    /// The position at node `id` as a shared handle: a refcount bump, the
    /// only per-job position cost the threaded scheduler pays under the
    /// heap lock (the selected job carries the handle out of it).
    pub fn node_pos_shared(&self, id: NodeId) -> Arc<P> {
        Arc::clone(&self.tree.node(id).pos)
    }

    /// The ply of node `id` (trace labeling).
    pub fn node_ply(&self, id: NodeId) -> u32 {
        self.tree.node(id).ply
    }

    fn spec_enabled(&self) -> bool {
        self.cfg.spec.early_choice || self.cfg.spec.multiple_enodes
    }

    fn push_primary(&mut self, id: NodeId) {
        let n = self.tree.node_mut(id);
        debug_assert!(!n.queued, "double-queued node");
        n.queued = true;
        let ply = n.ply;
        self.primary.push(Reverse(ply), id);
    }

    fn push_spec(&mut self, id: NodeId) {
        let n = self.tree.node_mut(id);
        debug_assert!(!n.on_spec);
        n.on_spec = true;
        let key = (n.echildren, n.ply);
        self.spec.push(key, id);
    }

    /// Marks `id` done because its dynamic window is empty (it "can be cut
    /// off", §6), clamping its value into the window as fail-hard search
    /// would.
    fn cut_off(&mut self, id: NodeId) {
        let a = self.tree.window(id).alpha;
        let n = self.tree.node_mut(id);
        n.value = n.value.max(a);
        n.done = true;
        self.totals.cutoffs += 1;
    }

    /// Records that `id` has a tentative value (or is done), counting it
    /// toward its parent's elder-grandchild progress.
    fn count_elder(&mut self, id: NodeId) {
        if self.tree.node(id).elder_counted {
            return;
        }
        self.tree.node_mut(id).elder_counted = true;
        if let Some(p) = self.tree.node(id).parent {
            self.tree.node_mut(p).elder_done += 1;
        }
    }

    /// The combine procedure (§6): back `id`'s value up as far as
    /// possible, then perform the Table 2 action at the first ancestor
    /// with outstanding work.
    fn on_done(&mut self, mut id: NodeId) {
        loop {
            debug_assert!(self.tree.node(id).done);
            if id == ROOT {
                self.finished = true;
                self.root_value = Some(self.tree.node(ROOT).value);
                return;
            }
            let p = self.tree.node(id).parent.expect("non-root has parent");
            let nv = -self.tree.node(id).value;
            if nv > self.tree.node(p).value {
                self.tree.node_mut(p).value = nv;
            }
            self.tree.node_mut(p).active_children -= 1;
            self.count_elder(id);

            if self.tree.is_cut_off(p) {
                self.cut_off(p);
                id = p;
                continue;
            }
            if self.tree.node(p).fully_spawned() && self.tree.node(p).active_children == 0 {
                self.tree.node_mut(p).done = true;
                id = p;
                continue;
            }
            self.table2(p, id);
            return;
        }
    }

    /// Table 2: actions at `last_node` `p` after child `done_child`
    /// combined into it.
    fn table2(&mut self, p: NodeId, done_child: NodeId) {
        match self.tree.node(p).kind {
            Kind::RNode => {
                // Sequential refutation: generate the next child.
                let n = self.tree.node(p);
                if !n.queued && !n.in_flight && !n.fully_spawned() && n.active_children == 0 {
                    self.push_primary(p);
                }
            }
            Kind::ENode => self.enode_actions(p, Some(done_child)),
            Kind::Undecided => {
                // The done child was p's first: p now has a tentative value
                // — one more elder grandchild of p's parent is evaluated
                // (Table 2 rows 4 and 5).
                self.count_elder(p);
                if let Some(gp) = self.tree.node(p).parent {
                    if self.tree.node(gp).kind == Kind::ENode && !self.tree.node(gp).done {
                        self.enode_actions(gp, None);
                    }
                }
            }
        }
    }

    /// Table 2 rows for an e-node `p`.
    fn enode_actions(&mut self, p: NodeId, just_done: Option<NodeId>) {
        let Some(d) = self.tree.node(p).degree() else {
            return; // promoted e-child not yet expanded
        };

        // A frontier e-child evaluating child-by-child: schedule the next
        // sibling once the previous one combines.
        {
            let n = self.tree.node(p);
            if n.depth <= self.cfg.serial_depth.saturating_sub(1)
                && !n.queued
                && !n.in_flight
                && !n.fully_spawned()
                && n.active_children == 0
            {
                self.push_primary(p);
            }
        }

        // Row 3: the first e-child has been evaluated — start refutation of
        // the remaining children.
        if let Some(c) = just_done {
            if self.tree.node(c).kind == Kind::ENode && !self.tree.node(p).refuting {
                self.tree.node_mut(p).refuting = true;
            }
        }
        if self.tree.node(p).refuting {
            self.advance_refutation(p);
        }

        // Row 2: all elder grandchildren evaluated but no e-child selected.
        if !self.tree.node(p).echild_selected
            && !self.tree.node(p).refuting
            && self.tree.node(p).elder_done >= d
        {
            if let Some(c) = self.tree.best_candidate(p) {
                self.promote(p, c);
            }
        }

        // Row 1 (early choice) and the multiple-e-nodes rule.
        self.maybe_spec(p);
    }

    /// Converts undecided children of `p` to r-nodes and schedules them:
    /// all at once under parallel refutation, one at a time otherwise,
    /// best tentative value first in both cases.
    fn advance_refutation(&mut self, p: NodeId) {
        // Indexed iteration over `children` — no clone of the child list on
        // this per-combine hot path.
        let n_children = self.tree.node(p).children.len();
        if self.cfg.spec.parallel_refutation {
            let mut undecided: Vec<(Value, NodeId)> = Vec::new();
            for i in 0..n_children {
                let c = self.tree.node(p).children[i];
                let n = self.tree.node(c);
                if n.kind == Kind::Undecided && !n.done {
                    undecided.push((n.value, c));
                }
            }
            // Child ids increase in generation order, so the (value, id)
            // key reproduces the stable best-tentative-first order.
            undecided.sort_unstable_by_key(|&(v, c)| (v, c));
            for (_, c) in undecided {
                self.tree.node_mut(c).kind = Kind::RNode;
                let n = self.tree.node(c);
                if !n.queued && !n.in_flight && n.active_children == 0 {
                    self.push_primary(c);
                }
            }
        } else {
            let mut next: Option<(Value, NodeId)> = None;
            for i in 0..n_children {
                let c = self.tree.node(p).children[i];
                let n = self.tree.node(c);
                if n.kind == Kind::RNode && !n.done {
                    return; // a refutation is already in progress
                }
                if n.kind == Kind::Undecided && !n.done && n.elder_counted {
                    // Strict `<` keeps the earliest-generated child on ties,
                    // matching the previous stable min_by_key.
                    if next.is_none_or(|(bv, _)| n.value < bv) {
                        next = Some((n.value, c));
                    }
                }
            }
            if let Some((_, c)) = next {
                self.tree.node_mut(c).kind = Kind::RNode;
                let n = self.tree.node(c);
                if !n.queued && !n.in_flight && n.active_children == 0 {
                    self.push_primary(c);
                }
            }
        }
    }

    /// Promotes candidate child `c` of `p` to an e-child and schedules it.
    fn promote(&mut self, p: NodeId, c: NodeId) {
        debug_assert_eq!(self.tree.node(c).kind, Kind::Undecided);
        self.tree.node_mut(c).kind = Kind::ENode;
        {
            let n = self.tree.node_mut(p);
            n.echildren += 1;
            n.echild_selected = true;
        }
        let n = self.tree.node(c);
        if !n.queued && !n.in_flight && n.active_children == 0 && !n.done {
            self.push_primary(c);
        }
    }

    /// Admits `p` to the speculative queue when the §6 conditions hold.
    fn maybe_spec(&mut self, p: NodeId) {
        if !self.spec_enabled() {
            return;
        }
        let n = self.tree.node(p);
        if n.on_spec || n.done || n.refuting {
            return;
        }
        let Some(d) = n.degree() else { return };
        let threshold = if !n.echild_selected {
            // Early choice: "as soon as all but one of the elder
            // grandchildren have been evaluated" (§6).
            self.cfg.spec.early_choice && n.elder_done + 1 >= d
        } else {
            self.cfg.spec.multiple_enodes
        };
        if threshold && self.tree.best_candidate(p).is_some() {
            self.push_spec(p);
        }
    }

    /// Selects the next job per Table 1, resolving cutoffs and dead work.
    /// Must be called under the heap lock.
    pub fn select(&mut self) -> Select {
        if self.finished {
            return Select::Empty;
        }
        loop {
            if let Some(id) = self.primary.pop() {
                self.tree.node_mut(id).queued = false;
                if self.tree.node(id).done || self.tree.is_dead(id) {
                    continue;
                }
                if self.tree.is_cut_off(id) {
                    self.cut_off(id);
                    self.on_done(id);
                    if self.finished {
                        return Select::JustFinished;
                    }
                    continue;
                }
                return Select::Job(self.job_for(id));
            }
            if self.spec_enabled() {
                if let Some(p) = self.spec.pop() {
                    self.tree.node_mut(p).on_spec = false;
                    if self.tree.node(p).done || self.tree.node(p).refuting || self.tree.is_dead(p)
                    {
                        continue;
                    }
                    if let Some(c) = self.tree.best_candidate(p) {
                        self.promote(p, c);
                        if self.cfg.spec.multiple_enodes && self.tree.best_candidate(p).is_some() {
                            self.push_spec(p);
                        }
                    }
                    continue;
                }
            }
            return Select::Empty;
        }
    }

    /// Decides the Table 1 action for a freshly taken (live) node.
    fn job_for(&mut self, id: NodeId) -> Job {
        self.tree.node_mut(id).in_flight = true;
        let node = self.tree.node(id);
        let depth = node.depth;
        let kind = node.kind;
        let expanded = node.moves.is_some();

        // Serial frontier (§6, "serial depth"): solve whole subtrees in one
        // unit of work — but preserve ER's selectivity at the boundary:
        // a fresh e-node is a full serial evaluation, a fresh r-node a
        // serial refutation (its window is tight), while an *undecided*
        // node still spawns only its first child, so the frontier keeps
        // evaluating elder grandchildren before committing to children.
        // Evaluation jobs (fresh e-nodes) go serial one ply deeper than
        // refutation jobs: a refutation runs under a tight window and is a
        // natural unit of work at the full serial depth, while a full
        // evaluation at that depth is a long, high-variance job that
        // lengthens the critical path. (Refinement of §6's single
        // threshold; see DESIGN.md.)
        let serial_limit = if kind == Kind::ENode {
            self.cfg.serial_depth.saturating_sub(1)
        } else {
            self.cfg.serial_depth
        };
        let at_frontier = depth > 0 && depth <= serial_limit;
        if at_frontier && !expanded && kind != Kind::Undecided {
            let window = self.tree.window(id);
            return Job {
                id,
                task: Task::Serial {
                    depth,
                    window,
                    ply: node.ply,
                    refute: kind == Kind::RNode,
                },
            };
        }
        let enode_frontier = depth > 0 && depth <= self.cfg.serial_depth.saturating_sub(1);
        if enode_frontier && expanded && kind == Kind::ENode {
            // A promoted frontier e-child: its first child is already
            // evaluated. Examine the remaining children one at a time (the
            // Refute_rest discipline), each as its own serial unit of work
            // so every sibling sees the freshest window.
            return Job {
                id,
                task: Task::NextChild,
            };
        }

        if depth == 0 {
            // A leaf whose parent sorted its moves already knows its static
            // value: settle it from the memo, no evaluator call, no
            // position copy.
            let task = match node.static_eval {
                Some(v) => Task::CachedLeaf(v),
                None => Task::Leaf,
            };
            return Job { id, task };
        }

        match kind {
            Kind::ENode | Kind::Undecided | Kind::RNode if !expanded => Job {
                id,
                task: Task::Movegen {
                    ply: node.ply,
                    depth,
                    enode: kind == Kind::ENode,
                    cached: node.static_eval,
                },
            },
            Kind::ENode => Job {
                id,
                task: Task::ExpandRest,
            },
            Kind::RNode => Job {
                id,
                task: Task::NextChild,
            },
            Kind::Undecided => {
                unreachable!("undecided node re-queued after expansion")
            }
        }
    }

    /// Virtual cost of an outcome under the configured cost model.
    pub fn cost_of(&self, outcome: &Outcome<P>) -> u64 {
        match outcome {
            Outcome::Leaf(_) => self.cfg.cost.eval,
            // A memoized leaf is a table lookup, not an evaluator call —
            // and so is a transposition-table answer.
            Outcome::CachedLeaf(_) | Outcome::TtExact(_) => 1,
            Outcome::Moves { sort_evals, .. } => {
                self.cfg.cost.expand + sort_evals * self.cfg.cost.eval
            }
            Outcome::Unit => self.cfg.cost.expand,
            Outcome::Serial { stats, .. } => self.cfg.cost.serial_ticks(stats),
            Outcome::Aborted => 0,
        }
    }

    /// Applies a completed job to the shared tree: spawn children, push
    /// queues, combine. Must be called under the heap lock. Returns `true`
    /// when the computation has finished.
    pub fn apply(&mut self, id: NodeId, outcome: Outcome<P>) -> bool {
        self.tree.node_mut(id).in_flight = false;
        match outcome {
            Outcome::Leaf(v) => {
                self.totals.leaf_nodes += 1;
                self.totals.eval_calls += 1;
                self.examined_keys.push(self.tree.node(id).path_key);
                if !self.tree.is_dead(id) {
                    let n = self.tree.node_mut(id);
                    n.value = v;
                    n.done = true;
                    // Terminals have an (empty) move list conceptually;
                    // record one so fully_spawned() holds.
                    n.moves = Some(Vec::new());
                    self.on_done(id);
                }
            }
            Outcome::CachedLeaf(v) => {
                // Same examined leaf as above, but the evaluator call was
                // already charged by the sorting probe that memoized `v`.
                self.totals.leaf_nodes += 1;
                self.cached_leaf_hits += 1;
                self.examined_keys.push(self.tree.node(id).path_key);
                if !self.tree.is_dead(id) {
                    let n = self.tree.node_mut(id);
                    n.value = v;
                    n.done = true;
                    n.moves = Some(Vec::new());
                    self.on_done(id);
                }
            }
            Outcome::Serial { value, stats } => {
                self.totals.merge(&stats);
                self.examined_keys.push(self.tree.node(id).path_key);
                if !self.tree.is_dead(id) {
                    let n = self.tree.node_mut(id);
                    n.value = n.value.max(value);
                    n.done = true;
                    n.moves = Some(Vec::new());
                    self.on_done(id);
                }
            }
            Outcome::TtExact(value) => {
                // An exact stored value settles the node without expansion;
                // like a serial-frontier hit it examines no new nodes here
                // (the table's own counters record the hit).
                self.examined_keys.push(self.tree.node(id).path_key);
                if !self.tree.is_dead(id) {
                    let n = self.tree.node_mut(id);
                    n.value = n.value.max(value);
                    n.done = true;
                    n.moves = Some(Vec::new());
                    self.on_done(id);
                }
            }
            Outcome::Moves {
                kids,
                evals,
                nats,
                sort_evals,
            } => {
                self.totals.interior_nodes += 1;
                self.totals.eval_calls += sort_evals;
                self.totals.sorts += u64::from(sort_evals > 0);
                self.examined_keys.push(self.tree.node(id).path_key);
                if !self.tree.is_dead(id) {
                    let kind = self.tree.node(id).kind;
                    {
                        let n = self.tree.node_mut(id);
                        n.moves = Some(kids);
                        // Children spawned later inherit these as memoized
                        // static values.
                        n.move_evals = evals;
                        // The natural index of each move, cached so hint
                        // splicing never has to re-derive the sort.
                        n.move_nats = Some(nats);
                    }
                    match kind {
                        Kind::ENode => {
                            // Table 1 row 1: all children, undecided.
                            while !self.tree.node(id).fully_spawned() {
                                let c = self.tree.spawn_child(id, Kind::Undecided);
                                self.push_primary(c);
                            }
                        }
                        Kind::Undecided | Kind::RNode => {
                            // Table 1 rows 2–3: first child is an e-node.
                            let c = self.tree.spawn_child(id, Kind::ENode);
                            self.push_primary(c);
                        }
                    }
                }
            }
            Outcome::Aborted => {
                // Workers discard aborted outcomes before ever taking the
                // lock; nothing may apply one to the tree.
                unreachable!("aborted outcomes are discarded by the executor")
            }
            Outcome::Unit => {
                if !self.tree.is_dead(id) {
                    match self.tree.node(id).kind {
                        Kind::ENode
                            if self.tree.node(id).depth
                                <= self.cfg.serial_depth.saturating_sub(1) =>
                        {
                            // Frontier e-child continuation: one sibling at
                            // a time, refuted as its own serial unit.
                            if !self.tree.node(id).fully_spawned() {
                                let c = self.tree.spawn_child(id, Kind::RNode);
                                self.push_primary(c);
                            }
                        }
                        Kind::ENode => {
                            // Promoted e-child: spawn remaining children.
                            while !self.tree.node(id).fully_spawned() {
                                let c = self.tree.spawn_child(id, Kind::Undecided);
                                self.push_primary(c);
                            }
                            if self.tree.node(id).active_children == 0 {
                                self.tree.node_mut(id).done = true;
                                self.on_done(id);
                            }
                        }
                        Kind::RNode => {
                            // Table 1 row 4: next child, r-node.
                            if !self.tree.node(id).fully_spawned() {
                                let c = self.tree.spawn_child(id, Kind::RNode);
                                self.push_primary(c);
                            }
                        }
                        Kind::Undecided => unreachable!("unit task on undecided node"),
                    }
                }
            }
        }
        self.finished
    }

    /// True if a `select` call might currently produce a job.
    pub fn work_available(&self) -> bool {
        !self.finished
            && (!self.primary.is_empty() || (self.spec_enabled() && !self.spec.is_empty()))
    }

    /// Combined primary + speculative queue length (telemetry sample; the
    /// threaded back-end records it once per selection when tracing is on).
    pub fn queue_len(&self) -> usize {
        self.primary.len() + self.spec.len()
    }

    /// Ordering policy (needed by executors).
    pub fn order(&self) -> OrderPolicy {
        self.cfg.order
    }

    /// The serial-search configuration forwarded to frontier jobs: the
    /// static ordering policy plus the selectivity knobs.
    pub fn serial_cfg(&self) -> ErConfig {
        ErConfig {
            order: self.cfg.order,
            sel: self.cfg.sel,
        }
    }
}

/// One executed job in a simulated run's trace (diagnostics for the
/// experiment harness).
#[derive(Clone, Copy, Debug)]
pub struct JobTrace {
    /// Virtual time the job was taken.
    pub start: u64,
    /// Virtual execution cost in ticks.
    pub cost: u64,
    /// Ply of the node the job belonged to.
    pub ply: u32,
    /// Task kind label.
    pub kind: &'static str,
}

fn task_kind(task: &Task) -> &'static str {
    match task {
        Task::Leaf => "leaf",
        Task::CachedLeaf(_) => "cached-leaf",
        Task::Movegen { .. } => "movegen",
        Task::NextChild => "next-child",
        Task::ExpandRest => "expand-rest",
        Task::Serial { .. } => "serial",
    }
}

/// Simulation adapter: `take` = select + execute (charging virtual cost),
/// `complete` = apply.
struct SimAdapter<P: GamePosition, T: TtAccess<P>, O: OrdAccess> {
    worker: ErWorker<P>,
    inflight: Vec<Option<(NodeId, Outcome<P>)>>,
    trace: Vec<JobTrace>,
    tt: T,
    ord: O,
}

impl<P: GamePosition, T: TtAccess<P>, O: OrdAccess> HeapWorker for SimAdapter<P, T, O> {
    fn take(&mut self, now: u64) -> Option<TakenWork> {
        match self.worker.select() {
            Select::Empty => None,
            Select::JustFinished => {
                let token = self.inflight.len() as u64;
                self.inflight.push(None);
                Some(TakenWork { token, cost: 0 })
            }
            Select::Job(job) => {
                let ply = self.worker.node_ply(job.id);
                let kind = task_kind(&job.task);
                // Borrow the position straight out of the tree: the
                // simulator never clones a position per job. `run_er_sim`
                // passes a table-free handle (`()`), keeping it
                // byte-for-byte deterministic against the seed runs; with
                // a table the run is still deterministic (one OS thread,
                // deterministic job order), just no longer byte-identical
                // to the table-free schedule.
                let outcome = execute_task(
                    &job.task,
                    Some(self.worker.node_pos(job.id)),
                    self.worker.serial_cfg(),
                    self.tt,
                    (),
                    self.ord,
                );
                let cost = self.worker.cost_of(&outcome);
                let token = self.inflight.len() as u64;
                self.inflight.push(Some((job.id, outcome)));
                self.trace.push(JobTrace {
                    start: now,
                    cost,
                    ply,
                    kind,
                });
                Some(TakenWork { token, cost })
            }
        }
    }

    fn complete(&mut self, token: u64, _now: u64) -> bool {
        match self.inflight[token as usize].take() {
            None => self.worker.is_finished(),
            Some((id, outcome)) => self.worker.apply(id, outcome),
        }
    }

    fn has_pending(&self) -> bool {
        self.worker.work_available()
    }
}

/// Runs parallel ER on `processors` simulated processors, returning the
/// root value, the virtual-time report, and aggregate node counts.
pub fn run_er_sim<P: GamePosition>(
    pos: &P,
    depth: u32,
    processors: usize,
    cfg: &ErParallelConfig,
) -> ErRunResult {
    run_er_sim_with(pos, depth, Window::FULL, processors, cfg, Hooks::new())
}

/// Simulated parallel ER under a root `window`, with every virtual
/// processor sharing the table and ordering handles of `hooks`. The
/// simulator has no control, trace or metrics slot.
///
/// With a narrowed `window` (the aspiration driver's probe) the result is
/// exact only inside it; outside it is a fail-hard bound in the failing
/// direction. Every configuration is deterministic: one OS thread runs
/// the jobs, and updates the shared tables, in a fixed order, so the same
/// configuration and table size always examine the same nodes and TT-on
/// vs TT-off (or ordering-on vs off) node counts compare exactly. Node
/// counts change with the handles; the root value does not.
pub fn run_er_sim_with<P: GamePosition, T: TtAccess<P>, O: OrdAccess>(
    pos: &P,
    depth: u32,
    window: Window,
    processors: usize,
    cfg: &ErParallelConfig,
    hooks: Hooks<T, (), O>,
) -> ErRunResult {
    let mut adapter = SimAdapter {
        worker: ErWorker::new_windowed(pos.clone(), depth, window, *cfg),
        inflight: Vec::new(),
        trace: Vec::new(),
        tt: hooks.tt,
        ord: hooks.ord,
    };
    let report = simulate(&mut adapter, processors, cfg.cost.heap_latency);
    ErRunResult {
        value: adapter
            .worker
            .root_value
            .expect("finished search has a root value"),
        report,
        stats: adapter.worker.totals,
        trace: adapter.trace,
        examined_keys: adapter.worker.examined_keys,
    }
}

#[cfg(test)]
mod tests {
    use super::super::Speculation;
    use super::*;
    use gametree::random::RandomTreeSpec;
    use gametree::tictactoe::TicTacToe;
    use gametree::GamePosition;
    use search_serial::{er_search, negmax, ErConfig};

    fn cfg(serial_depth: u32) -> ErParallelConfig {
        ErParallelConfig::random_tree(serial_depth)
    }

    #[test]
    fn matches_negmax_on_random_trees_all_processor_counts() {
        for seed in 0..6 {
            let root = RandomTreeSpec::new(seed, 4, 6).root();
            let exact = negmax(&root, 6).value;
            for k in [1usize, 2, 4, 16] {
                let r = run_er_sim(&root, 6, k, &cfg(3));
                assert_eq!(r.value, exact, "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn matches_negmax_with_various_serial_depths() {
        let root = RandomTreeSpec::new(11, 4, 6).root();
        let exact = negmax(&root, 6).value;
        for sd in [0u32, 1, 2, 4, 5, 6, 7] {
            let r = run_er_sim(&root, 6, 4, &cfg(sd));
            assert_eq!(r.value, exact, "serial_depth {sd}");
        }
    }

    #[test]
    fn matches_negmax_on_wide_trees() {
        for seed in 0..4 {
            let root = RandomTreeSpec::new(seed, 8, 4).root();
            let exact = negmax(&root, 4).value;
            let r = run_er_sim(&root, 4, 8, &cfg(2));
            assert_eq!(r.value, exact, "seed {seed}");
        }
    }

    #[test]
    fn all_speculation_combinations_are_correct() {
        let root = RandomTreeSpec::new(5, 4, 6).root();
        let exact = negmax(&root, 6).value;
        for bits in 0..8u32 {
            let spec = Speculation {
                parallel_refutation: bits & 1 != 0,
                multiple_enodes: bits & 2 != 0,
                early_choice: bits & 4 != 0,
            };
            let c = ErParallelConfig { spec, ..cfg(2) };
            let r = run_er_sim(&root, 6, 4, &c);
            assert_eq!(r.value, exact, "spec {spec:?}");
        }
    }

    #[test]
    fn tictactoe_parallel_draw() {
        let r = run_er_sim(&TicTacToe::initial(), 9, 8, &cfg(4));
        assert_eq!(r.value, Value::ZERO);
    }

    #[test]
    fn deterministic() {
        let root = RandomTreeSpec::new(3, 4, 7).root();
        let a = run_er_sim(&root, 7, 6, &cfg(3));
        let b = run_er_sim(&root, 7, 6, &cfg(3));
        assert_eq!(a.report, b.report);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn parallelism_reduces_makespan() {
        let root = RandomTreeSpec::new(7, 4, 8).root();
        let r1 = run_er_sim(&root, 8, 1, &cfg(4));
        let r4 = run_er_sim(&root, 8, 4, &cfg(4));
        let r16 = run_er_sim(&root, 8, 16, &cfg(4));
        assert!(
            r4.report.makespan < r1.report.makespan,
            "4 processors must beat 1: {} vs {}",
            r4.report.makespan,
            r1.report.makespan
        );
        assert!(r16.report.makespan <= r4.report.makespan);
    }

    #[test]
    fn single_processor_work_is_close_to_serial_er() {
        // k=1 parallel ER schedules the same phases as serial ER; its node
        // count should be within a modest factor.
        let root = RandomTreeSpec::new(9, 4, 8).root();
        let serial = er_search(&root, 8, ErConfig::NATURAL);
        let par = run_er_sim(&root, 8, 1, &cfg(4));
        let ratio = par.stats.nodes() as f64 / serial.stats.nodes() as f64;
        assert!(
            (0.5..1.6).contains(&ratio),
            "k=1 node count ratio {ratio:.2} (parallel {} vs serial {})",
            par.stats.nodes(),
            serial.stats.nodes()
        );
    }

    #[test]
    fn speculative_loss_grows_then_plateaus() {
        // The paper's headline shape (Figures 12/13): nodes examined grow
        // from 1 to 4 processors, then change slowly to 16.
        let root = RandomTreeSpec::new(13, 4, 8).root();
        let n1 = run_er_sim(&root, 8, 1, &cfg(4)).stats.nodes() as f64;
        let n4 = run_er_sim(&root, 8, 4, &cfg(4)).stats.nodes() as f64;
        let n16 = run_er_sim(&root, 8, 16, &cfg(4)).stats.nodes() as f64;
        assert!(n4 >= n1 * 0.99, "speculation should not shrink work");
        let grow_4_16 = n16 / n4;
        assert!(
            grow_4_16 < 2.0,
            "4→16 speculative growth should be moderate, got {grow_4_16:.2}"
        );
    }

    #[test]
    fn depth_zero_root_is_a_leaf() {
        let root = RandomTreeSpec::new(1, 4, 4).root();
        let r = run_er_sim(&root, 0, 2, &cfg(0));
        assert_eq!(r.value, root.evaluate());
        assert_eq!(r.stats.leaf_nodes, 1);
    }

    #[test]
    fn fully_serial_when_depth_below_threshold() {
        let root = RandomTreeSpec::new(2, 4, 5).root();
        let r = run_er_sim(&root, 5, 8, &cfg(10));
        assert_eq!(r.value, negmax(&root, 5).value);
        // One serial job solves everything.
        assert_eq!(r.report.items_completed, 1);
    }

    #[test]
    fn no_speculation_starves() {
        // With speculation off, most of the machine idles: starvation
        // should dominate the 16-processor run far more than with the full
        // configuration.
        let root = RandomTreeSpec::new(17, 4, 8).root();
        let none = run_er_sim(
            &root,
            8,
            16,
            &ErParallelConfig {
                spec: Speculation::NONE,
                ..cfg(4)
            },
        );
        let all = run_er_sim(&root, 8, 16, &cfg(4));
        assert!(
            none.report.makespan > all.report.makespan,
            "speculation must reduce makespan at 16 processors: {} vs {}",
            none.report.makespan,
            all.report.makespan
        );
    }
}
