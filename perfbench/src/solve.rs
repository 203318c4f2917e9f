//! `solve-othello`: closed loop, one client. Fixed-depth analysis of
//! seeded Othello midgame roots plus O1–O3 at depth 7 with
//! `ErParallelConfig::othello()` (serial depth 5) and no iterative deepening.
//! Bitboard kernels and serial ER inside coarse jobs do most of the work.
//!
//! The solves run without a transposition table: with one, serial ER's
//! `refute_rest` searches children under an empty window once the
//! retained tentative value already meets beta, and the lower bounds it
//! then stores return wrong root values on a few percent of these roots
//! (the check against alpha-beta catches it). The table layer is measured
//! by the iterative-deepening probe instead.

use std::time::{Duration, Instant};

use engine_server::AnyPos;
use er_parallel::{run_er_threads_exec, ErParallelConfig, ErThreadsResult, ThreadsConfig};
use gametree::Value;
use othello::OthelloPos;
use search_serial::{alphabeta, ErConfig, OrderPolicy, OrderingTables};
use tt::{TranspositionTable, TtStats};

use crate::inputs::{checkers_positions, othello_midgames, Rng};
use crate::layers::{self, phase, WORKERS};
use crate::spans::Spans;
use crate::{timed_setup, trace_metrics, Args, EndToEnd, Op, Outcome, SETUP_REPS};

const DEPTH: u32 = 7;
/// Roots generated per run; more than any run solves.
const ROOTS: usize = 4000;
/// Table size of the deepening probe (one empty table per root).
const TT_BITS: u32 = 16;

/// The seeded corpus: O1–O3, then midgame roots.
fn setup(seed: u64) -> Vec<OthelloPos> {
    let mut roots: Vec<OthelloPos> = othello::configs::all()
        .into_iter()
        .map(|(_, p)| p)
        .collect();
    roots.extend(othello_midgames(
        &mut Rng::new(seed, 1),
        ROOTS - roots.len(),
    ));
    roots
}

struct Solved {
    root: usize,
    value: Value,
    latency: Duration,
    run: ErThreadsResult,
}

/// Solves root `i` of the corpus, recording op `i`'s spans when on.
fn solve_one(roots: &[OthelloPos], i: usize, spans: &mut Spans) -> Solved {
    let root = i % roots.len();
    let t = Instant::now();
    let run = run_er_threads_exec(
        &roots[root],
        DEPTH,
        WORKERS,
        &ErParallelConfig::othello(),
        ThreadsConfig::default(),
    )
    .expect("a table-free search without a deadline completes");
    let end = Instant::now();
    let op = i as u64 + 1;
    let s = spans.record("solve", op, None, t, end);
    spans.record("parallel.run_er_threads", op, s, t, end);
    Solved {
        root,
        value: run.value,
        latency: end - t,
        run,
    }
}

/// Whether each solve's value equals serial alpha-beta at the same depth.
fn correct(roots: &[OthelloPos], solved: &[Solved]) -> Vec<bool> {
    solved
        .iter()
        .map(|s| alphabeta(&roots[s.root], DEPTH, OrderPolicy::OTHELLO).value == s.value)
        .collect()
}

/// Solves whose value is wrong.
fn wrong(roots: &[OthelloPos], solved: &[Solved]) -> u64 {
    correct(roots, solved).iter().filter(|ok| !**ok).count() as u64
}

pub fn run(a: &Args) -> Result<Outcome, String> {
    let (roots, setup_s) = timed_setup(SETUP_REPS, || setup(a.seed));
    let secs = Duration::from_secs_f64(a.seconds);
    if !a.trace {
        let start = Instant::now();
        let (mut solved, mut done) = (Vec::new(), Vec::new());
        while start.elapsed() < secs {
            solved.push(solve_one(&roots, solved.len(), &mut Spans::new(false)));
            done.push(Instant::now());
        }
        let ok = correct(&roots, &solved);
        let ops = solved
            .iter()
            .zip(done)
            .zip(&ok)
            .map(|((s, done), &good)| Op {
                done,
                latency: s.latency,
                good,
            })
            .collect();
        return Ok(Outcome {
            attempted: solved.len() as u64,
            failed: ok.iter().filter(|ok| !**ok).count() as u64,
            metrics: Vec::new(),
            end_to_end: Some(EndToEnd {
                ops,
                start,
                open_loop_wall: None,
                setup_s,
            }),
            notes: vec![format!("{} roots solved at depth {DEPTH}", solved.len())],
            spans: None,
        });
    }

    // Every root twice, untraced and traced, in alternating order.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut spans = Spans::new(true);
    let start = Instant::now();
    for i in 0.. {
        if start.elapsed() >= secs {
            break;
        }
        if i % 2 == 0 {
            plain.push(solve_one(&roots, i, &mut Spans::new(false)));
            traced.push(solve_one(&roots, i, &mut spans));
        } else {
            traced.push(solve_one(&roots, i, &mut spans));
            plain.push(solve_one(&roots, i, &mut Spans::new(false)));
        }
    }
    let failed = wrong(&roots, &plain) + wrong(&roots, &traced);
    let pairs: Vec<_> = plain
        .iter()
        .zip(&traced)
        .map(|(u, t)| (u.latency, t.latency))
        .collect();
    let mut m = trace_metrics(&pairs, &spans, "solve");

    let used = &roots[..traced.len().clamp(64, 1000)];
    let any: Vec<AnyPos> = used.iter().map(|&p| AnyPos::Othello(p)).collect();
    let mut rng = Rng::new(a.seed, 2);
    m.extend(phase(&mut spans, "layer.othello", || {
        layers::othello_kernels(used)
    }));
    let side = checkers_positions(&mut rng, 1000);
    m.extend(phase(&mut spans, "layer.checkers", || {
        layers::checkers_kernels(&side)
    }));
    let ladder = phase(&mut spans, "layer.ladder", || {
        layers::ladder(&used[..8], DEPTH, |_| {
            (
                ErParallelConfig::othello(),
                ErConfig::OTHELLO,
                OrderPolicy::OTHELLO,
            )
        })
    });
    m.extend(ladder.metrics());
    let runs: Vec<ErThreadsResult> = traced.into_iter().map(|s| s.run).collect();
    m.extend(layers::heap_metrics(&runs));
    m.push(phase(&mut spans, "layer.call_overhead", || {
        layers::call_overhead(&used[..200.min(used.len())], |_| {
            ErParallelConfig::othello()
        })
    }));
    m.extend(phase(&mut spans, "layer.tt", || {
        layers::tt_micro(TT_BITS, &layers::keys_of(&any))
    }));
    let (ids, tt, nodes, aborted) = phase(&mut spans, "layer.deepen", || {
        let (mut ids, mut tt, mut nodes, mut aborted) = (Vec::new(), TtStats::default(), 0, 0);
        for pos in &any[..4] {
            let table = TranspositionTable::with_bits(TT_BITS);
            let asp = layers::asp_for(pos);
            match layers::deepen(
                pos,
                DEPTH,
                WORKERS,
                &table,
                &OrderingTables::new(),
                asp,
                &mut Vec::new(),
            ) {
                Ok(r) => {
                    nodes += r.total_nodes();
                    ids.push(r);
                }
                Err(_) => aborted += 1,
            }
            let s = table.stats();
            tt.probes += s.probes;
            tt.hits += s.hits;
        }
        (ids, tt, nodes, aborted)
    });
    m.extend(layers::tt_ratios(&tt, nodes));
    m.extend(layers::id_metrics(&ids));
    let served = phase(&mut spans, "layer.serve_probe", || {
        layers::serve_probe(&mut rng, &any[..8], DEPTH, 10.0)
    });
    m.extend(layers::server_metrics(&served));
    m.push(phase(&mut spans, "layer.match_probe", || {
        layers::match_probe(&any[..12], 5)
    }));

    Ok(Outcome {
        attempted: (plain.len() + runs.len()) as u64,
        failed: failed + ladder.mismatches + aborted,
        metrics: m,
        end_to_end: None,
        notes: vec![format!(
            "{} roots solved untraced and traced; per-layer probes on the same corpus",
            runs.len()
        )],
        spans: Some(spans),
    })
}
