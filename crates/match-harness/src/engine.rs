//! One engine's cross-move state and its move-selection back-ends.

use std::sync::Arc;
use std::time::{Duration, Instant};

use engine_server::{AnyPos, GameClock, TimeControl, TimeManager};
use er_parallel::{
    run_er_threads_with, AspirationConfig, ErParallelConfig, Hooks, IdStepper, SearchControl,
    ThreadsConfig,
};
use gametree::{GamePosition, Value, Window};
use metrics::EngineMetrics;
use search_serial::{alphabeta, alphabeta_with, CtlProbe, OrderingTables};
use tt::{TranspositionTable, TtStats};

/// Which search back-end a [`Player`] runs each move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineSpec {
    /// Threaded ER iterative deepening with aspiration windows, warm TT
    /// and ordering tables, budgeted by the time manager.
    ErThreads {
        /// Worker threads per search.
        threads: usize,
    },
    /// Serial alpha-beta iterative deepening (no TT, no ordering state),
    /// budgeted by the time manager — the paper's serial baseline made
    /// anytime.
    SerialId,
    /// Serial alpha-beta to a fixed depth every move, ignoring the clock
    /// allotment — the fixed-node-odds baseline (its per-move node count
    /// is position-determined, not time-determined).
    FixedDepth {
        /// The fixed search depth.
        depth: u32,
    },
}

impl EngineSpec {
    /// Short display name for tables and JSON.
    pub fn name(&self) -> String {
        match self {
            EngineSpec::ErThreads { threads } => format!("er{threads}"),
            EngineSpec::SerialId => "serial-id".to_string(),
            EngineSpec::FixedDepth { depth } => format!("fixed{depth}"),
        }
    }
}

/// Everything one move decision produced, for the game record.
#[derive(Clone, Debug)]
pub struct MoveChoice {
    /// Chosen child, as a natural move index (always `< degree`).
    pub index: usize,
    /// Deepest fully-completed search depth (0 = fallback move).
    pub depth: u32,
    /// Root value at that depth, from the mover's view.
    pub value: Value,
    /// Nodes examined across all completed and partial iterations.
    pub nodes: u64,
    /// Budget the time manager allotted for this move.
    pub budget: Duration,
    /// Wall-clock the decision actually took (what the clock is charged).
    pub elapsed: Duration,
    /// This move's TT activity (counter deltas over the decision).
    pub tt: TtStats,
}

/// One engine's state across one game: spec, warm tables, clock.
pub struct Player {
    spec: EngineSpec,
    /// Iterative-deepening depth cap (a budget this small never reaches
    /// it; it bounds the loop when a position is trivially shallow).
    max_depth: u32,
    table: Arc<TranspositionTable>,
    ord: OrderingTables,
    /// The player's game clock; [`crate::play_game`] settles it after
    /// every move and declares forfeit if it empties.
    pub clock: GameClock,
    tm: TimeManager,
    asp: AspirationConfig,
    moves_made: u32,
    /// Shared metric set this player records into, when observed
    /// (per-move depth/spend histograms plus the threaded back-end's
    /// search counters). `None` keeps every decision byte-identical to
    /// an unobserved player's.
    metrics: Option<Arc<EngineMetrics>>,
}

impl Player {
    /// A fresh player: empty tables, full clock.
    pub fn new(spec: EngineSpec, tc: TimeControl, tt_bits: u32, max_depth: u32) -> Player {
        Player {
            spec,
            max_depth,
            table: Arc::new(TranspositionTable::with_bits(tt_bits)),
            ord: OrderingTables::new(),
            clock: GameClock::new(tc),
            tm: TimeManager::default(),
            asp: AspirationConfig::narrow(40),
            moves_made: 0,
            metrics: None,
        }
    }

    /// Observes this player: every move records into `m` (shared freely
    /// across players — the histograms and counters merge).
    pub fn with_metrics(mut self, m: Arc<EngineMetrics>) -> Player {
        self.metrics = Some(m);
        self
    }

    /// The spec's display name.
    pub fn name(&self) -> String {
        self.spec.name()
    }

    /// Moves this player has made so far in the game.
    pub fn moves_made(&self) -> u32 {
        self.moves_made
    }

    /// Total generation bumps the player's table has seen (one per move
    /// after the first — the warmth the integration tests assert).
    pub fn table_epoch(&self) -> u64 {
        self.table.epoch()
    }

    /// Decides a move at `pos`. Returns `None` iff `pos` has no legal
    /// moves (the game loop treats that as terminal before asking).
    ///
    /// The cross-move reuse contract: the *same* table and ordering
    /// tables serve every move of the game. Between consecutive roots the
    /// table generation is bumped (old entries age but stay probe-able —
    /// the warm-TT payoff) and the ordering state takes the per-root
    /// aging (`age_for_new_root`: killers cleared, history decayed 8×).
    pub fn choose_move(&mut self, pos: &AnyPos) -> Option<MoveChoice> {
        let degree = pos.degree();
        if degree == 0 {
            return None;
        }
        if self.moves_made > 0 {
            self.table.new_generation();
            self.ord.age_for_new_root();
        }
        let budget = self.tm.allot_for(&self.clock, pos);
        let tt_before = self.table.stats();
        let started = Instant::now();
        let mut choice = match self.spec {
            EngineSpec::ErThreads { threads } => self.er_move(pos, threads, budget),
            EngineSpec::SerialId => self.serial_id_move(pos, budget),
            EngineSpec::FixedDepth { depth } => fixed_depth_move(pos, depth),
        };
        choice.index = choice.index.min(degree - 1);
        choice.budget = budget;
        choice.elapsed = started.elapsed();
        choice.tt = self.table.stats().since(&tt_before);
        self.moves_made += 1;
        if let Some(m) = &self.metrics {
            m.match_move_depth.record(0, choice.depth as u64);
            m.match_move_spend_ns
                .record(0, choice.elapsed.as_nanos() as u64);
            m.tt_probes_total.add(0, choice.tt.probes);
            m.tt_hits_total.add(0, choice.tt.hits);
            m.tt_stores_total.add(0, choice.tt.stores);
        }
        Some(choice)
    }

    /// The warm-state engine: anytime ER deepening under the budget with
    /// an explicit root split. The parallel region stores no root TT
    /// entry, so the driver owns the best move itself: each root child is
    /// searched by the threaded back-end under the negamax window, the
    /// previous iteration's best child first so alpha tightens early.
    fn er_move(&mut self, pos: &AnyPos, threads: usize, budget: Duration) -> MoveChoice {
        let ctl = SearchControl::with_budget(budget);
        let unlimited = SearchControl::unlimited();
        let cfg = er_cfg(pos);
        let table = Arc::clone(&self.table);
        let mx = self.metrics.as_deref();
        let ord = &self.ord;
        let kids = pos.children();
        let mut stepper = IdStepper::new(pos.evaluate(), self.asp);
        let mut nodes = 0u64;
        let mut last: Option<(u32, Value)> = None;
        let mut best_index = greedy_index(pos);
        while stepper.depth_completed() < self.max_depth {
            let depth = stepper.next_depth();
            // Depth 1 runs uncontrolled (it costs microseconds): the
            // engine always has a searched move, however small the budget.
            let step_ctl = if depth <= 1 { &unlimited } else { &ctl };
            // The candidate only replaces `best_index` when the whole
            // iteration lands inside the window: a fail-low pass ranks no
            // child above alpha, and its argmax would be noise.
            let mut candidate = best_index;
            let step = stepper.step_with(depth, step_ctl, None, |d, w, c| {
                let mut stats = gametree::SearchStats::new();
                let mut window = w;
                let mut best: Option<(Value, usize)> = None;
                let mut order: Vec<usize> = (0..kids.len()).collect();
                if let Some(at) = order.iter().position(|&i| i == candidate) {
                    order[..=at].rotate_right(1);
                }
                for &i in &order {
                    let r = run_er_threads_with(
                        &kids[i],
                        d - 1,
                        window.negate(),
                        threads,
                        &cfg,
                        ThreadsConfig::default(),
                        Hooks::new().tt(&*table).ctl(c).ord(ord).metrics(mx),
                    )
                    .map_err(|e| e.reason)?;
                    nodes += r.stats.nodes();
                    stats.merge(&r.stats);
                    let v = -r.value;
                    if best.is_none_or(|(bv, _)| v > bv) {
                        best = Some((v, i));
                        window = window.raise_alpha(v);
                        if window.is_empty() {
                            break; // root beta cutoff: fail-hard high
                        }
                    }
                }
                let (v, i) = best.expect("caller checked degree > 0");
                candidate = i;
                Ok((v, stats))
            });
            match step {
                Ok(s) => {
                    last = Some((s.depth, s.value));
                    best_index = candidate;
                }
                Err(_) => break,
            }
        }
        let (depth, value) = last.unwrap_or((0, pos.evaluate()));
        MoveChoice {
            index: best_index,
            depth,
            value,
            nodes,
            budget,
            elapsed: Duration::ZERO,
            tt: TtStats::default(),
        }
    }

    /// Anytime serial alpha-beta: per-depth explicit root split so the
    /// engine owns its best move without a table. A depth interrupted by
    /// the deadline is discarded whole, like the ID driver does.
    fn serial_id_move(&self, pos: &AnyPos, budget: Duration) -> MoveChoice {
        let ctl = SearchControl::with_budget(budget);
        let policy = pos.order_policy();
        let kids = pos.children();
        let mut nodes = 0u64;
        let mut last: Option<(u32, Value, usize)> = None;
        'deepening: for depth in 1..=self.max_depth {
            let mut best: Option<(Value, usize)> = None;
            for (i, kid) in kids.iter().enumerate() {
                let probe = CtlProbe::new(&ctl);
                let hooks = Hooks::new().ctl(&probe);
                let r = alphabeta_with(kid, depth - 1, Window::FULL, policy, hooks);
                nodes += r.stats.nodes();
                if r.aborted.is_some() {
                    break 'deepening;
                }
                let v = -r.value;
                if best.is_none_or(|(bv, _)| v > bv) {
                    best = Some((v, i));
                }
            }
            let (v, i) = best.expect("root has children");
            last = Some((depth, v, i));
        }
        let (depth, value, index) = last.unwrap_or_else(|| (0, pos.evaluate(), greedy_index(pos)));
        MoveChoice {
            index,
            depth,
            value,
            nodes,
            budget,
            elapsed: Duration::ZERO,
            tt: TtStats::default(),
        }
    }
}

/// The clock-oblivious baseline: a full root split at one fixed depth.
fn fixed_depth_move(pos: &AnyPos, depth: u32) -> MoveChoice {
    let policy = pos.order_policy();
    let mut nodes = 0u64;
    let mut best: Option<(Value, usize)> = None;
    for (i, kid) in pos.children().iter().enumerate() {
        let r = alphabeta(kid, depth.saturating_sub(1), policy);
        nodes += r.stats.nodes();
        let v = -r.value;
        if best.is_none_or(|(bv, _)| v > bv) {
            best = Some((v, i));
        }
    }
    let (value, index) = best.expect("caller checked degree > 0");
    MoveChoice {
        index,
        depth,
        value,
        nodes,
        budget: Duration::ZERO,
        elapsed: Duration::ZERO,
        tt: TtStats::default(),
    }
}

/// One-ply greedy fallback when not even depth 1 completed: the child the
/// static evaluator likes best for the mover (ties to the earliest natural
/// index, so the choice is deterministic).
fn greedy_index(pos: &AnyPos) -> usize {
    let mut best: Option<(Value, usize)> = None;
    for (i, kid) in pos.children().iter().enumerate() {
        let v = kid.evaluate(); // child's view: the mover wants the minimum
        if best.is_none_or(|(bv, _)| v < bv) {
            best = Some((v, i));
        }
    }
    best.map_or(0, |(_, i)| i)
}

/// The per-family ER configuration (mirrors the engine server's choice).
fn er_cfg(pos: &AnyPos) -> ErParallelConfig {
    match pos {
        AnyPos::Random(_) => ErParallelConfig::random_tree(2),
        AnyPos::Othello(_) => ErParallelConfig::othello(),
        AnyPos::Checkers(_) => ErParallelConfig {
            serial_depth: 3,
            ..ErParallelConfig::random_tree(3)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tc() -> TimeControl {
        TimeControl::from_millis(200, 5)
    }

    #[test]
    fn every_spec_chooses_a_legal_move_from_both_startpositions() {
        for spec in [
            EngineSpec::ErThreads { threads: 2 },
            EngineSpec::SerialId,
            EngineSpec::FixedDepth { depth: 2 },
        ] {
            for pos in [
                AnyPos::othello_startpos(),
                AnyPos::Checkers(checkers::CheckersPos::initial()),
            ] {
                let mut p = Player::new(spec, tc(), 10, 6);
                let c = p.choose_move(&pos).expect("live position");
                assert!(c.index < pos.degree(), "{spec:?} illegal index");
                assert!(c.nodes > 0 || c.depth == 0);
            }
        }
    }

    #[test]
    fn terminal_position_yields_no_move() {
        // A drawn checkers position has no legal moves.
        let mut drawn = checkers::CheckersPos::initial();
        drawn.quiet_plies = checkers::DRAW_PLIES;
        let mut p = Player::new(EngineSpec::SerialId, tc(), 8, 4);
        assert!(p.choose_move(&AnyPos::Checkers(drawn)).is_none());
    }

    #[test]
    fn warm_player_bumps_one_generation_per_subsequent_move() {
        let mut p = Player::new(EngineSpec::ErThreads { threads: 1 }, tc(), 12, 3);
        let mut pos = AnyPos::othello_startpos();
        for expected_epoch in [0u64, 1, 2] {
            let c = p.choose_move(&pos).expect("live");
            assert_eq!(p.table_epoch(), expected_epoch);
            pos = pos.play(&pos.moves()[c.index]);
        }
        assert_eq!(p.moves_made(), 3);
    }

    #[test]
    fn fixed_depth_agrees_with_solo_alphabeta_value() {
        let pos = AnyPos::othello_startpos();
        let c = fixed_depth_move(&pos, 3);
        let solo = alphabeta(&pos, 3, pos.order_policy());
        assert_eq!(c.value, solo.value, "root split must equal the oracle");
    }

    #[test]
    fn er_move_plays_an_optimal_move_not_the_greedy_fallback() {
        // Regression: the first cut of this engine read the root's best
        // move back from a TT hint the parallel region never stores, so
        // every move silently fell back to the one-ply greedy choice.
        // With a generous budget and a low depth cap the deepening loop
        // must reach the cap and play a move whose depth-capped negamax
        // value equals the alpha-beta oracle's.
        for pos in [
            AnyPos::othello_startpos(),
            AnyPos::Checkers(checkers::CheckersPos::initial()),
        ] {
            let mut p = Player::new(
                EngineSpec::ErThreads { threads: 2 },
                TimeControl::from_millis(5_000, 0),
                12,
                4,
            );
            let c = p.choose_move(&pos).expect("live position");
            assert_eq!(c.depth, 4, "budget is ample: the cap must be reached");
            let oracle = alphabeta(&pos, 4, pos.order_policy());
            assert_eq!(c.value, oracle.value, "root value must be exact");
            let kid = &pos.children()[c.index];
            let played = -alphabeta(kid, 3, pos.order_policy()).value;
            assert_eq!(played, oracle.value, "the chosen move must achieve it");
        }
    }
}
