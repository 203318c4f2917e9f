//! `selfplay-warm`: closed loop. Paired-opening Othello and checkers games
//! between two threaded-ER players (`EngineSpec::ErThreads`, one worker
//! each: see [`layers::PLAYER_WORKERS`]) that keep a warm table for the
//! whole game. The depth cap always binds and the clock never does, so
//! games are deterministic. The table serves mostly hits across
//! consecutive moves here, and the root split makes dozens of threaded
//! calls per move.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use engine_server::AnyPos;
use er_parallel::AspirationConfig;
use gametree::GamePosition;
use match_harness::{play_game, Family, Player};
use search_serial::OrderingTables;
use tt::{TranspositionTable, TtStats, Zobrist};

use crate::inputs::{opening, parallel_cfg, serial_cfg, Rng};
use crate::layers::{self, phase, PLAYER_WORKERS};
use crate::spans::Spans;
use crate::stats::{median, percentile, Metric};
use crate::{timed_setup, trace_metrics, Args, EndToEnd, Op, Outcome, SETUP_REPS};

/// Iterative-deepening cap of both players.
const CAP: u32 = 5;
const TT_BITS: u32 = 16;
/// Openings generated per family and run; more than any run plays.
const OPENINGS: usize = 200;
/// The loop's safety cap, as in `match_harness::play_game`.
const MAX_PLIES: u32 = 2_000;
/// Games per family checked move for move against `play_game`.
const CHECKED_PER_FAMILY: usize = 1;

fn player() -> Player {
    layers::player(TT_BITS, CAP)
}

/// Seeded openings: Othello's, then checkers'.
fn openings(seed: u64) -> [Vec<AnyPos>; 2] {
    let mut rng = Rng::new(seed, 1);
    [Family::Othello, Family::Checkers].map(|f| {
        (0..OPENINGS)
            .map(|_| opening(&mut rng, f.startpos()))
            .collect()
    })
}

struct Setup {
    openings: [Vec<AnyPos>; 2],
    /// The first game's players, tables allocated.
    players: (Player, Player),
}

/// One played (possibly unfinished) game.
#[derive(Default)]
struct Game {
    opening: Option<AnyPos>,
    labels: Vec<String>,
    /// Position before each move.
    positions: Vec<AnyPos>,
    latency: Vec<Duration>,
    /// When each move was decided.
    decided: Vec<Instant>,
    /// Per move: legal, on time and searched to the depth cap (the clock
    /// never binds, so only an aborted search leaves a move short).
    ok: Vec<bool>,
    nodes: u64,
    tt: TtStats,
    finished: bool,
}

/// The repetition identity `play_game` uses: the board-only key for
/// checkers, the full key elsewhere.
fn repetition_key(pos: &AnyPos) -> u64 {
    match pos {
        AnyPos::Checkers(p) => p.board_key(),
        other => other.zobrist(),
    }
}

/// Plays from `opening` the way `play_game` does, timing each
/// `Player::choose_move` at ns resolution, until the game ends or `stop`
/// says the run is over.
fn play(
    opening: AnyPos,
    players: &mut (Player, Player),
    spans: &mut Spans,
    op_base: u64,
    mut stop: impl FnMut() -> bool,
) -> Game {
    let mut g = Game {
        opening: Some(opening),
        ..Game::default()
    };
    let mut pos = opening;
    let mut reps: HashMap<u64, u32> = HashMap::new();
    *reps.entry(repetition_key(&pos)).or_insert(0) += 1;
    for ply in 0.. {
        if pos.moves().is_empty() || reps[&repetition_key(&pos)] >= 3 || ply >= MAX_PLIES {
            g.finished = true;
            break;
        }
        if stop() {
            break;
        }
        let mover = if ply % 2 == 0 {
            &mut players.0
        } else {
            &mut players.1
        };
        let t = Instant::now();
        let choice = mover.choose_move(&pos).expect("moves() checked non-empty");
        let chosen = Instant::now();
        g.latency.push(chosen - t);
        g.decided.push(chosen);
        g.positions.push(pos);
        g.nodes += choice.nodes;
        g.tt.probes += choice.tt.probes;
        g.tt.hits += choice.tt.hits;
        let label = pos.move_label(choice.index).unwrap_or_default();
        let legal = pos.parse_move(&label).is_some();
        let on_time = mover.clock.consume(choice.elapsed);
        g.ok.push(legal && on_time && choice.depth == CAP);
        g.labels.push(label);
        if !legal || !on_time {
            break;
        }
        pos = pos.play(&pos.moves()[choice.index]);
        *reps.entry(repetition_key(&pos)).or_insert(0) += 1;
        if spans.on() {
            let op = op_base + ply as u64;
            let s = spans.record("move", op, None, t, Instant::now());
            spans.record("match-harness.choose_move", op, s, t, chosen);
        }
    }
    g
}

/// 0 for Othello, 1 for checkers.
fn family(pos: &AnyPos) -> usize {
    usize::from(matches!(pos, AnyPos::Checkers(_)))
}

/// Game `i`'s opening. Pair `p` is Othello opening `p` then checkers
/// opening `p`, each played once: both seats hold the same engine, so a
/// colour-swapped rematch would repeat the game move for move.
fn opening_of(openings: &[Vec<AnyPos>; 2], i: usize) -> AnyPos {
    openings[i % 2][(i / 2) % OPENINGS]
}

/// Plays games untraced until `deadline` passes, the first on `players`.
fn play_loop(
    openings: &[Vec<AnyPos>; 2],
    players: (Player, Player),
    deadline: Duration,
) -> Vec<Game> {
    let start = Instant::now();
    let mut players = Some(players);
    let mut games: Vec<Game> = Vec::new();
    while start.elapsed() < deadline {
        let mut seats = players.take().unwrap_or_else(|| (player(), player()));
        let op = opening_of(openings, games.len());
        games.push(play(op, &mut seats, &mut Spans::new(false), 0, || {
            start.elapsed() >= deadline
        }));
    }
    games
}

/// FNV-1a over the move labels of `games`.
fn digest<'a>(games: impl IntoIterator<Item = &'a Vec<String>>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for labels in games {
        for l in labels.iter().map(String::as_bytes).chain([&b"|"[..]]) {
            for &b in l.iter().chain(b" ") {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    h
}

/// Fails every move of the first finished game of each family if
/// `play_game`, with fresh players on the same opening, plays a different
/// sequence; returns the failed moves (these, and any illegal, forfeited
/// or short move).
fn check(games: &mut [Game], notes: &mut Vec<String>) -> u64 {
    let mut checked = [0usize; 2];
    let (mut ours, mut theirs) = (Vec::new(), Vec::new());
    for g in games.iter_mut() {
        let opening = g.opening.expect("played games keep their opening");
        let f = family(&opening);
        if !g.finished || checked[f] >= CHECKED_PER_FAMILY {
            continue;
        }
        checked[f] += 1;
        let rec = play_game(&opening, &mut player(), &mut player());
        let labels: Vec<String> = rec.moves.iter().map(|m| m.label.clone()).collect();
        if labels != g.labels {
            g.ok.fill(false);
        }
        ours.push(g.labels.clone());
        theirs.push(labels);
    }
    notes.push(format!(
        "move digest {:016x} (play_game: {:016x}) over {} checked games",
        digest(&ours),
        digest(&theirs),
        ours.len()
    ));
    games.iter().flat_map(|g| &g.ok).filter(|ok| !**ok).count() as u64
}

pub fn run(a: &Args) -> Result<Outcome, String> {
    let (s, setup_s) = timed_setup(SETUP_REPS, || Setup {
        openings: openings(a.seed),
        players: (player(), player()),
    });
    let secs = Duration::from_secs_f64(a.seconds);
    let mut notes = Vec::new();
    if !a.trace {
        let start = Instant::now();
        let mut games = play_loop(&s.openings, s.players, secs);
        let failed = check(&mut games, &mut notes);
        let ops: Vec<Op> = games
            .iter()
            .flat_map(|g| {
                let moves = g.latency.iter().zip(&g.decided).zip(&g.ok);
                moves.map(|((&latency, &decided), &good)| Op {
                    done: decided,
                    latency,
                    good,
                })
            })
            .collect();
        let moves = ops.len() as u64;
        notes.push(format!(
            "{} games, {moves} moves at depth cap {CAP}",
            games.len()
        ));
        for (f, name) in ["othello", "checkers"].into_iter().enumerate() {
            let ms: Vec<f64> = games
                .iter()
                .filter(|g| g.opening.is_some_and(|o| family(&o) == f))
                .flat_map(|g| g.latency.iter().map(|d| d.as_secs_f64() * 1e3))
                .collect();
            if !ms.is_empty() {
                notes.push(format!(
                    "{name}: {} moves, p50 {:.3} ms, p90 {:.3} ms",
                    ms.len(),
                    median(&ms),
                    percentile(&ms, 90.0)
                ));
            }
        }
        return Ok(Outcome {
            attempted: moves,
            failed,
            metrics: Vec::new(),
            end_to_end: Some(EndToEnd {
                ops,
                start,
                open_loop_wall: None,
                setup_s,
            }),
            notes,
            spans: None,
        });
    }

    // Every game twice, untraced and traced in alternating order, on
    // fresh players; the two plays must agree move for move.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut spans = Spans::new(true);
    let start = Instant::now();
    let game = |i: usize, spans: &mut Spans| {
        play(
            opening_of(&s.openings, i),
            &mut (player(), player()),
            spans,
            (i as u64) << 16,
            || false,
        )
    };
    for i in 0.. {
        if start.elapsed() >= secs {
            break;
        }
        if i % 2 == 0 {
            plain.push(game(i, &mut Spans::new(false)));
            traced.push(game(i, &mut spans));
        } else {
            traced.push(game(i, &mut spans));
            plain.push(game(i, &mut Spans::new(false)));
        }
    }
    let diverged: u64 = plain
        .iter()
        .zip(&traced)
        .filter(|(p, t)| p.labels != t.labels)
        .map(|(_, t)| t.labels.len() as u64)
        .sum();
    let failed = check(&mut plain, &mut notes) + check(&mut traced, &mut Vec::new()) + diverged;
    let mean = |g: &Game| g.latency.iter().sum::<Duration>() / g.latency.len().max(1) as u32;
    let pairs: Vec<_> = plain
        .iter()
        .zip(&traced)
        .map(|(u, t)| (mean(u), mean(t)))
        .collect();
    let mut m = trace_metrics(&pairs, &spans, "move");
    let moves: usize = traced.iter().map(|g| g.labels.len()).sum();

    let positions: Vec<AnyPos> = traced
        .iter()
        .flat_map(|g| g.positions.iter().copied())
        .collect();
    let othello: Vec<_> = positions
        .iter()
        .filter_map(|p| {
            if let AnyPos::Othello(o) = p {
                Some(*o)
            } else {
                None
            }
        })
        .collect();
    let checkers: Vec<_> = positions
        .iter()
        .filter_map(|p| {
            if let AnyPos::Checkers(c) = p {
                Some(*c)
            } else {
                None
            }
        })
        .collect();
    m.extend(phase(&mut spans, "layer.othello", || {
        layers::othello_kernels(&othello)
    }));
    m.extend(phase(&mut spans, "layer.checkers", || {
        layers::checkers_kernels(&checkers)
    }));
    // Every sampled position from spread-out points of the played games.
    let stride = (positions.len() / 12).max(1);
    let sample: Vec<AnyPos> = positions.iter().step_by(stride).take(12).copied().collect();
    let ladder = phase(&mut spans, "layer.ladder", || {
        layers::ladder(&sample, CAP, |p| {
            (parallel_cfg(p), serial_cfg(p), p.order_policy())
        })
    });
    m.extend(ladder.metrics());
    // The players' own deepening: their worker count, windows and tables.
    let (runs, ids, aborted) = phase(&mut spans, "layer.deepen", || {
        let (table, ord) = (
            TranspositionTable::with_bits(TT_BITS),
            OrderingTables::new(),
        );
        let (mut runs, mut ids, mut aborted) = (Vec::new(), Vec::new(), 0);
        for pos in &sample {
            match layers::deepen(
                pos,
                CAP,
                PLAYER_WORKERS,
                &table,
                &ord,
                AspirationConfig::narrow(40),
                &mut runs,
            ) {
                Ok(r) => ids.push(r),
                Err(_) => aborted += 1,
            }
        }
        (runs, ids, aborted)
    });
    m.extend(layers::heap_metrics(&runs));
    m.extend(layers::id_metrics(&ids));
    m.push(phase(&mut spans, "layer.call_overhead", || {
        layers::call_overhead(&positions[..200.min(positions.len())], parallel_cfg)
    }));
    m.extend(phase(&mut spans, "layer.tt", || {
        layers::tt_micro(TT_BITS, &layers::keys_of(&positions))
    }));
    let (mut tt, mut nodes) = (TtStats::default(), 0);
    for g in &traced {
        tt.probes += g.tt.probes;
        tt.hits += g.tt.hits;
        nodes += g.nodes;
    }
    m.extend(layers::tt_ratios(&tt, nodes));
    let mut rng = Rng::new(a.seed, 2);
    let served = phase(&mut spans, "layer.serve_probe", || {
        layers::serve_probe(&mut rng, &sample[..8.min(sample.len())], CAP, 20.0)
    });
    m.extend(layers::server_metrics(&served));
    m.push(Metric::new(
        "match-harness.nodes_per_move",
        nodes as f64 / moves.max(1) as f64,
        "count",
        moves as u64,
    ));

    Ok(Outcome {
        attempted: 2 * moves as u64,
        failed: failed + ladder.mismatches + aborted,
        metrics: m,
        end_to_end: None,
        notes,
        spans: Some(spans),
    })
}
