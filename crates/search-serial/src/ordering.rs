//! Child-ordering policies and dynamic move-ordering state.
//!
//! Alpha-beta's performance "depends critically on the order in which
//! children of a node are expanded" (paper §2.2). The paper's Othello
//! experiments sort children by static value, but "sorting was not
//! performed below ply five \[and\] successors of e-nodes were also not
//! sorted" (§7). Sorting is charged its true cost: one static-evaluator
//! call per child plus the sort itself.
//!
//! On top of the static policy this module keeps *dynamic* ordering state
//! learned from the search itself — [`OrderingTables`]: per-ply killer-move
//! slots and a history table, both indexed by natural move indices (the
//! same stable identity transposition-table hints use). Searches consult it
//! through the zero-cost [`OrdAccess`] handle (`()` = off, compiled away;
//! `&OrderingTables` = on, shared across threads via relaxed atomics the
//! way workers already share the TT). Dynamic knowledge ranks exactly the
//! plies the static policy leaves unsorted — a paid-for static sort always
//! wins — making the final child order TT-hint → killers → history at
//! unsorted plies and TT-hint → static evals at sorted ones.

use std::sync::atomic::{AtomicU16, AtomicU32, Ordering as AtomicOrdering};

use gametree::{GamePosition, SearchStats, Value};

/// When to sort a node's children by static value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrderPolicy {
    /// Sort children of nodes at ply `< sort_ply_limit` (the root is ply 0).
    /// Zero disables sorting entirely (the paper's random-tree setting).
    pub sort_ply_limit: u32,
}

impl OrderPolicy {
    /// No sorting anywhere — the paper's configuration for random trees.
    pub const NATURAL: OrderPolicy = OrderPolicy { sort_ply_limit: 0 };

    /// The paper's Othello configuration: sort above ply five.
    pub const OTHELLO: OrderPolicy = OrderPolicy { sort_ply_limit: 5 };

    /// Sort at every ply.
    pub const ALWAYS: OrderPolicy = OrderPolicy {
        sort_ply_limit: u32::MAX,
    };

    /// True iff children of a node at `ply` should be sorted.
    #[inline]
    pub fn sorts_at(&self, ply: u32) -> bool {
        ply < self.sort_ply_limit
    }
}

/// Search selectivity at the depth horizon.
///
/// When `q_extend > 0`, a node that reaches depth 0 *tactically unstable*
/// ([`GamePosition::unstable`]) is searched one more ply instead of being
/// statically evaluated, up to `q_extend` extra plies per root-to-leaf
/// path. The default ([`SelectivityConfig::OFF`]) makes the check compile
/// to the pre-extension leaf code, keeping default-off runs bit-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SelectivityConfig {
    /// Maximum extra plies one root-to-leaf path may gain from quiescence
    /// extensions (0 disables the rule; the paper-faithful setting).
    pub q_extend: u32,
}

impl SelectivityConfig {
    /// No extensions — every horizon leaf trusts the static evaluator.
    pub const OFF: SelectivityConfig = SelectivityConfig { q_extend: 0 };

    /// Extend tactically unstable horizon leaves up to two extra plies.
    pub const QUIESCENT: SelectivityConfig = SelectivityConfig { q_extend: 2 };

    /// True iff the extension rule is active at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.q_extend > 0
    }
}

/// Plies of killer slots kept; cutoffs deeper than this are not recorded
/// (search depths in this repo are far below it).
pub const KILLER_PLIES: usize = 64;

/// Natural-move indices tracked by the history table; moves with a larger
/// natural index (none of this repo's games produce them in practice)
/// neither record nor receive history.
pub const HISTORY_SLOTS: usize = 64;

/// Saturation ceiling of one history counter.
const HISTORY_CAP: u32 = 1 << 20;

/// Dynamic move-ordering state: two killer slots per ply and one
/// saturating history counter per natural move index.
///
/// All cells are relaxed atomics, so a single `&OrderingTables` is shared
/// by every worker of a threaded search — refutation knowledge propagates
/// between workers the way the transposition table already does. Updates
/// are racy-but-benign: a lost killer insertion or history increment only
/// costs ordering quality, never correctness (any child permutation leaves
/// the negamax value unchanged).
#[derive(Debug)]
pub struct OrderingTables {
    /// Killer slots per ply, storing `nat + 1` (0 = empty). Slot 0 is the
    /// most recent killer, slot 1 the one it displaced.
    killers: [[AtomicU16; 2]; KILLER_PLIES],
    /// History counters per natural move index.
    history: [AtomicU32; HISTORY_SLOTS],
}

impl Default for OrderingTables {
    fn default() -> OrderingTables {
        OrderingTables::new()
    }
}

impl OrderingTables {
    /// Empty tables.
    pub fn new() -> OrderingTables {
        OrderingTables {
            killers: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU16::new(0))),
            history: std::array::from_fn(|_| AtomicU32::new(0)),
        }
    }

    /// Records a beta cutoff by the move with natural index `nat` at `ply`:
    /// the move becomes the ply's first killer (displacing the previous one
    /// into the second slot) and its history counter gains `depth² + 1`
    /// (deep refutations are worth more), saturating at a fixed ceiling.
    pub fn record_cutoff(&self, ply: u32, nat: u16, depth: u32) {
        if let Some(slots) = self.killers.get(ply as usize) {
            let enc = nat + 1;
            let s0 = slots[0].load(AtomicOrdering::Relaxed);
            if s0 != enc {
                slots[1].store(s0, AtomicOrdering::Relaxed);
                slots[0].store(enc, AtomicOrdering::Relaxed);
            }
        }
        if let Some(h) = self.history.get(nat as usize) {
            let inc = depth.saturating_mul(depth).saturating_add(1).min(1024);
            if h.fetch_add(inc, AtomicOrdering::Relaxed) >= HISTORY_CAP {
                h.store(HISTORY_CAP, AtomicOrdering::Relaxed);
            }
        }
    }

    /// Killer rank of `nat` at `ply`: 0 (first slot), 1 (second slot) or
    /// 2 (not a killer).
    pub fn killer_rank(&self, ply: u32, nat: u16) -> u8 {
        match self.killers.get(ply as usize) {
            Some(slots) => {
                let enc = nat + 1;
                if slots[0].load(AtomicOrdering::Relaxed) == enc {
                    0
                } else if slots[1].load(AtomicOrdering::Relaxed) == enc {
                    1
                } else {
                    2
                }
            }
            None => 2,
        }
    }

    /// Current history score of `nat`.
    pub fn history(&self, nat: u16) -> u32 {
        self.history
            .get(nat as usize)
            .map_or(0, |h| h.load(AtomicOrdering::Relaxed))
    }

    /// Ages the tables on an iterative-deepening depth bump: history
    /// counters halve (old refutations decay, recent ones keep steering),
    /// killers persist (a ply's killer usually survives a deepening step).
    pub fn age(&self) {
        for h in &self.history {
            let v = h.load(AtomicOrdering::Relaxed);
            h.store(v / 2, AtomicOrdering::Relaxed);
        }
    }

    /// Ages the tables for a *new root position* — the per-move policy of
    /// a game loop, deliberately harsher than the per-depth [`Self::age`]:
    /// killer slots are cleared outright (a killer refutes a sibling of
    /// the *old* root; at the new root every ply's position population is
    /// different, so yesterday's killers are noise, not signal) and
    /// history drops to an eighth (move-index statistics transfer across
    /// adjacent roots, but weakly — keep a whisper, forget the shouting).
    pub fn age_for_new_root(&self) {
        for slots in &self.killers {
            slots[0].store(0, AtomicOrdering::Relaxed);
            slots[1].store(0, AtomicOrdering::Relaxed);
        }
        for h in &self.history {
            let v = h.load(AtomicOrdering::Relaxed);
            h.store(v / 8, AtomicOrdering::Relaxed);
        }
    }
}

/// Zero-cost handle to optional [`OrderingTables`], mirroring the TT and
/// control handles: `()` means ordering state is off and every consultation
/// compiles away (default-off searches stay bit-identical to the
/// pre-ordering code); `&OrderingTables` consults and updates shared state.
pub trait OrdAccess: Copy {
    /// Statically known on/off switch — branches guarded by it vanish for
    /// the `()` instantiation.
    const ENABLED: bool;

    /// See [`OrderingTables::record_cutoff`].
    fn record_cutoff(self, ply: u32, nat: u16, depth: u32);

    /// See [`OrderingTables::killer_rank`].
    fn killer_rank(self, ply: u32, nat: u16) -> u8;

    /// See [`OrderingTables::history`].
    fn history(self, nat: u16) -> u32;
}

impl OrdAccess for () {
    const ENABLED: bool = false;

    #[inline]
    fn record_cutoff(self, _ply: u32, _nat: u16, _depth: u32) {}

    #[inline]
    fn killer_rank(self, _ply: u32, _nat: u16) -> u8 {
        2
    }

    #[inline]
    fn history(self, _nat: u16) -> u32 {
        0
    }
}

impl OrdAccess for &OrderingTables {
    const ENABLED: bool = true;

    #[inline]
    fn record_cutoff(self, ply: u32, nat: u16, depth: u32) {
        OrderingTables::record_cutoff(self, ply, nat, depth);
    }

    #[inline]
    fn killer_rank(self, ply: u32, nat: u16) -> u8 {
        OrderingTables::killer_rank(self, ply, nat)
    }

    #[inline]
    fn history(self, nat: u16) -> u32 {
        OrderingTables::history(self, nat)
    }
}

/// The dynamic-ordering sort key of one child: killer rank first (0, 1, or
/// 2 for non-killers), then descending history — ascending key order puts
/// killers and history-hot moves first while equal keys (with a stable
/// sort) preserve the natural order. Only meaningful for unsorted child
/// lists; see [`visit_order`].
#[inline]
fn rank_key<O: OrdAccess>(ord: O, ply: u32, nat: u16) -> (u8, i64) {
    (ord.killer_rank(ply, nat), -i64::from(ord.history(nat)))
}

/// Records a beta cutoff into the ordering tables and charges the
/// killer/history hit counters: a cutoff by a current killer is a
/// `killer_hits`, by a history-ranked non-killer a `history_hits`.
/// Compiles to nothing for the `()` handle.
#[inline]
pub fn note_cutoff<O: OrdAccess>(ord: O, ply: u32, depth: u32, nat: u16, stats: &mut SearchStats) {
    if !O::ENABLED {
        return;
    }
    if ord.killer_rank(ply, nat) < 2 {
        stats.killer_hits += 1;
    } else if ord.history(nat) > 0 {
        stats.history_hits += 1;
    }
    ord.record_cutoff(ply, nat, depth);
}

/// Every child of `pos`, played, in [`visit_order`]'s order without a
/// hint or dynamic ranking, charging sorting costs to `stats`.
///
/// Sorted order is ascending by the child's static value (from the child's
/// point of view): the parent prefers the child with the *lowest* value, so
/// the likely-best child comes first.
pub fn ordered_children<P: GamePosition>(
    pos: &P,
    ply: u32,
    policy: OrderPolicy,
    stats: &mut SearchStats,
) -> Vec<P> {
    visit_order(pos, ply, policy, None, (), stats)
        .0
        .into_iter()
        .map(|v| v.play(pos))
        .collect()
}

/// One child in visit order, identified by its move. An unsorted
/// expansion leaves it unplayed until the search reaches it; a static sort
/// had to play and evaluate it, and keeps both.
#[derive(Clone, Debug)]
pub struct Visit<P: GamePosition> {
    /// Index of the move in `pos.moves()` order: the stable identity a
    /// transposition-table hint or a killer refers to.
    pub nat: u16,
    /// The move that reaches the child.
    pub mv: P::Move,
    /// The child and its static value, when a static sort produced them.
    pub sorted: Option<(P, Value)>,
}

impl<P: GamePosition> Visit<P> {
    /// The child position: the sort's copy when there is one, otherwise
    /// `parent` plays the move now.
    pub fn play(self, parent: &P) -> P {
        match self.sorted {
            Some((child, _)) => child,
            None => parent.play(&self.mv),
        }
    }
}

/// The single ordering pass every search shares: `pos`'s moves in the
/// order a search visits them, each tagged with its natural index.
///
/// Where `policy` sorts at `ply`, every child is played and evaluated
/// once (charged to `stats`) and the list is sorted ascending by
/// (static value, natural index), likely-best first. Elsewhere the moves
/// stay unplayed and are ranked by the dynamic tables through `ord`
/// (killers, then history; a stable sort that is the identity for `()`).
/// Either way the move whose natural index is `hint` (a stored best move)
/// then moves to the front by a rotate, keeping the rest in order. Returns
/// the list and whether the hint matched.
pub fn visit_order<P: GamePosition, O: OrdAccess>(
    pos: &P,
    ply: u32,
    policy: OrderPolicy,
    hint: Option<u16>,
    ord: O,
    stats: &mut SearchStats,
) -> (Vec<Visit<P>>, bool) {
    let mut kids: Vec<Visit<P>> = pos
        .moves()
        .into_iter()
        .enumerate()
        .map(|(i, mv)| Visit {
            nat: i as u16,
            mv,
            sorted: None,
        })
        .collect();
    if kids.len() > 1 {
        if policy.sorts_at(ply) {
            for k in &mut kids {
                stats.eval_calls += 1;
                let child = pos.play(&k.mv);
                let eval = child.evaluate();
                k.sorted = Some((child, eval));
            }
            stats.sorts += 1;
            // The (value, natural index) key makes the unstable sort
            // FIFO-stable for equal values.
            kids.sort_unstable_by_key(|k| (k.sorted.as_ref().map(|s| s.1), k.nat));
        } else if O::ENABLED {
            // Killers and history rank only the plies the static sort
            // leaves unsorted: overriding the evaluator's position-specific
            // order added nodes on Othello. The keys are read once, so
            // tables another worker updates meanwhile cannot upset the sort.
            kids.sort_by_cached_key(|k| rank_key(ord, ply, k.nat));
        }
    }
    let hinted = match hint.and_then(|h| kids.iter().position(|k| k.nat == h)) {
        Some(i) => {
            kids[..=i].rotate_right(1);
            true
        }
        None => false,
    };
    (kids, hinted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gametree::arena::{leaf, node, ArenaTree};

    #[test]
    fn natural_policy_preserves_move_order() {
        let root = ArenaTree::root_of(&node(vec![leaf(5), leaf(-3), leaf(9)]));
        let mut stats = SearchStats::new();
        let kids = ordered_children(&root, 0, OrderPolicy::NATURAL, &mut stats);
        let vals: Vec<i32> = kids.iter().map(|k| k.evaluate().get()).collect();
        assert_eq!(vals, vec![5, -3, 9]);
        assert_eq!(stats.eval_calls, 0);
        assert_eq!(stats.sorts, 0);
    }

    #[test]
    fn sorting_is_ascending_by_static_value() {
        let root = ArenaTree::root_of(&node(vec![leaf(5), leaf(-3), leaf(9)]));
        let mut stats = SearchStats::new();
        let kids = ordered_children(&root, 0, OrderPolicy::ALWAYS, &mut stats);
        let vals: Vec<i32> = kids.iter().map(|k| k.evaluate().get()).collect();
        assert_eq!(vals, vec![-3, 5, 9]);
        assert_eq!(stats.eval_calls, 3);
        assert_eq!(stats.sorts, 1);
    }

    #[test]
    fn ply_limit_gates_sorting() {
        let p = OrderPolicy { sort_ply_limit: 5 };
        assert!(p.sorts_at(0));
        assert!(p.sorts_at(4));
        assert!(!p.sorts_at(5));
        assert!(!p.sorts_at(9));
    }

    #[test]
    fn sort_is_stable_for_equal_keys() {
        let root = ArenaTree::root_of(&node(vec![leaf(1), leaf(1), leaf(0)]));
        let mut stats = SearchStats::new();
        let kids = ordered_children(&root, 0, OrderPolicy::ALWAYS, &mut stats);
        // The zero comes first; the two equal leaves keep natural order.
        assert_eq!(kids[0].evaluate().get(), 0);
        assert_eq!(kids[1].index(), 1);
        assert_eq!(kids[2].index(), 2);
    }

    fn nats<P: GamePosition>(kids: &[Visit<P>]) -> Vec<u16> {
        kids.iter().map(|k| k.nat).collect()
    }

    #[test]
    fn sorted_visits_carry_their_children_and_evals() {
        let root = ArenaTree::root_of(&node(vec![leaf(5), leaf(-3), leaf(9)]));
        let mut stats = SearchStats::new();
        let (kids, _) = visit_order(&root, 0, OrderPolicy::ALWAYS, None, (), &mut stats);
        for k in &kids {
            let (child, eval) = k.sorted.as_ref().expect("sorting policy plays the child");
            assert_eq!(child.evaluate(), *eval, "cached eval must match the child");
        }
        // Without sorting nothing is played, so there is nothing to cache.
        let (kids, _) = visit_order(&root, 0, OrderPolicy::NATURAL, None, (), &mut stats);
        assert!(kids.iter().all(|k| k.sorted.is_none()));
    }

    #[test]
    fn visits_remember_natural_positions() {
        let root = ArenaTree::root_of(&node(vec![leaf(5), leaf(-3), leaf(9)]));
        let mut stats = SearchStats::new();
        let (kids, _) = visit_order(&root, 0, OrderPolicy::ALWAYS, None, (), &mut stats);
        // Sorted order -3, 5, 9 came from natural slots 1, 0, 2.
        assert_eq!(nats(&kids), vec![1, 0, 2]);
    }

    #[test]
    fn hint_rotates_without_disturbing_relative_order() {
        let root = ArenaTree::root_of(&node(vec![leaf(5), leaf(-3), leaf(9)]));
        let mut stats = SearchStats::new();
        let (kids, hinted) = visit_order(&root, 0, OrderPolicy::ALWAYS, Some(2), (), &mut stats);
        // Hinted child 2 moves to the front; the others keep sorted order.
        assert!(hinted);
        assert_eq!(nats(&kids), vec![2, 1, 0]);
        // A hint that matches no child (or no hint at all) is a no-op.
        for hint in [Some(7), None] {
            let (kids, hinted) = visit_order(&root, 0, OrderPolicy::ALWAYS, hint, (), &mut stats);
            assert!(!hinted);
            assert_eq!(nats(&kids), vec![1, 0, 2]);
        }
    }

    #[test]
    fn single_child_is_not_charged_a_sort() {
        let root = ArenaTree::root_of(&node(vec![leaf(1)]));
        let mut stats = SearchStats::new();
        ordered_children(&root, 0, OrderPolicy::ALWAYS, &mut stats);
        assert_eq!(stats.sorts, 0);
        assert_eq!(stats.eval_calls, 0);
    }

    #[test]
    fn killer_recording_fills_two_slots_most_recent_first() {
        let t = OrderingTables::new();
        assert_eq!(t.killer_rank(3, 4), 2);
        t.record_cutoff(3, 4, 2);
        assert_eq!(t.killer_rank(3, 4), 0);
        t.record_cutoff(3, 7, 2);
        assert_eq!(t.killer_rank(3, 7), 0, "newest killer takes slot 0");
        assert_eq!(t.killer_rank(3, 4), 1, "displaced killer keeps slot 1");
        assert_eq!(t.killer_rank(2, 7), 2, "killers are per-ply");
        // Re-recording the current killer does not displace slot 1.
        t.record_cutoff(3, 7, 2);
        assert_eq!(t.killer_rank(3, 4), 1);
    }

    #[test]
    fn history_accumulates_by_depth_squared_and_ages_by_halving() {
        let t = OrderingTables::new();
        assert_eq!(t.history(5), 0);
        t.record_cutoff(0, 5, 3); // 3² + 1 = 10
        t.record_cutoff(9, 5, 1); // 1² + 1 = 2, any ply, same counter
        assert_eq!(t.history(5), 12);
        t.age();
        assert_eq!(t.history(5), 6);
        assert_eq!(t.killer_rank(0, 5), 0, "aging keeps killers");
    }

    #[test]
    fn age_for_new_root_clears_killers_and_decays_history_hard() {
        let t = OrderingTables::new();
        t.record_cutoff(3, 4, 2);
        t.record_cutoff(3, 7, 2);
        t.record_cutoff(0, 5, 3); // history 10
        t.record_cutoff(9, 5, 1); // history 12
        t.age_for_new_root();
        assert_eq!(t.killer_rank(3, 7), 2, "killers cleared for a new root");
        assert_eq!(t.killer_rank(3, 4), 2);
        assert_eq!(t.history(5), 12 / 8, "history decays by 8×");
        // Idempotent on empty state.
        let fresh = OrderingTables::new();
        fresh.age_for_new_root();
        assert_eq!(fresh.history(0), 0);
        assert_eq!(fresh.killer_rank(0, 0), 2);
    }

    #[test]
    fn out_of_range_indices_are_ignored() {
        let t = OrderingTables::new();
        t.record_cutoff(KILLER_PLIES as u32 + 1, HISTORY_SLOTS as u16 + 1, 3);
        assert_eq!(
            t.killer_rank(KILLER_PLIES as u32 + 1, HISTORY_SLOTS as u16 + 1),
            2
        );
        assert_eq!(t.history(HISTORY_SLOTS as u16 + 1), 0);
    }

    #[test]
    fn visit_order_puts_hint_then_killers_then_history() {
        let root = ArenaTree::root_of(&node(vec![leaf(5), leaf(-3), leaf(9), leaf(0)]));
        let t = OrderingTables::new();
        t.record_cutoff(0, 2, 3); // natural move 2 is the ply-0 killer
        t.record_cutoff(1, 3, 5); // natural move 3 has history (wrong ply for killer)
        t.record_cutoff(1, 3, 5);
        let mut stats = SearchStats::new();
        let (kids, hinted) = visit_order(&root, 0, OrderPolicy::NATURAL, None, &t, &mut stats);
        // Killer 2 first; 3 boosted by history ahead of the unknowns, which
        // keep natural order. Nothing was played to rank them.
        assert_eq!(nats(&kids), vec![2, 3, 0, 1]);
        assert!(!hinted);
        assert!(kids.iter().all(|k| k.sorted.is_none()));
        assert_eq!(stats, SearchStats::new());
        // A TT hint goes ahead of the killer.
        let (kids, hinted) = visit_order(&root, 0, OrderPolicy::NATURAL, Some(1), &t, &mut stats);
        assert_eq!(nats(&kids), vec![1, 2, 3, 0], "TT-hint → killer → history");
        assert!(hinted);
        // Playing a visit gives the natural child.
        let children = root.children();
        for k in kids {
            let nat = k.nat as usize;
            assert_eq!(k.play(&root).evaluate(), children[nat].evaluate());
        }
    }

    #[test]
    fn sorted_visit_order_plays_and_evaluates_every_child() {
        let root = ArenaTree::root_of(&node(vec![leaf(5), leaf(-3), leaf(9)]));
        let t = OrderingTables::new();
        t.record_cutoff(0, 2, 3); // a killer the static sort overrides
        let mut stats = SearchStats::new();
        let (kids, hinted) = visit_order(&root, 0, OrderPolicy::ALWAYS, Some(2), &t, &mut stats);
        // Sorted -3, 5, 9 is natural 1, 0, 2; the hint 2 then goes first.
        assert_eq!(nats(&kids), vec![2, 1, 0]);
        assert!(hinted);
        assert_eq!((stats.eval_calls, stats.sorts), (3, 1));
        let evals: Vec<i32> = kids
            .iter()
            .map(|k| k.sorted.as_ref().expect("sorted").1.get())
            .collect();
        assert_eq!(evals, vec![9, -3, 5]);
    }

    #[test]
    fn empty_tables_rank_is_identity() {
        let root = ArenaTree::root_of(&node(vec![leaf(5), leaf(-3), leaf(9)]));
        let t = OrderingTables::new();
        for policy in [OrderPolicy::NATURAL, OrderPolicy::ALWAYS] {
            let mut stats_on = SearchStats::new();
            let (on, _) = visit_order(&root, 0, policy, None, &t, &mut stats_on);
            let mut stats_off = SearchStats::new();
            let (off, _) = visit_order(&root, 0, policy, None, (), &mut stats_off);
            assert_eq!(nats(&on), nats(&off));
            assert_eq!(stats_on, stats_off);
        }
    }

    #[test]
    fn note_cutoff_classifies_killer_and_history_hits() {
        let t = OrderingTables::new();
        let mut stats = SearchStats::new();
        // First cutoff: tables empty, neither killer nor history hit.
        note_cutoff(&t, 2, 3, 6, &mut stats);
        assert_eq!((stats.killer_hits, stats.history_hits), (0, 0));
        // Same move again at the same ply: killer hit.
        note_cutoff(&t, 2, 3, 6, &mut stats);
        assert_eq!((stats.killer_hits, stats.history_hits), (1, 0));
        // Same move at another ply: not a killer there, but history knows it.
        note_cutoff(&t, 5, 3, 6, &mut stats);
        assert_eq!((stats.killer_hits, stats.history_hits), (1, 1));
        // The disabled handle records and classifies nothing.
        note_cutoff((), 2, 3, 6, &mut stats);
        assert_eq!((stats.killer_hits, stats.history_hits), (1, 1));
    }

    #[test]
    fn selectivity_off_is_disabled() {
        assert!(!SelectivityConfig::OFF.enabled());
        assert!(SelectivityConfig::QUIESCENT.enabled());
        assert_eq!(SelectivityConfig::QUIESCENT.q_extend, 2);
    }
}
