//! `serve-random`: open loop at one fixed rate below capacity into the
//! session scheduler. Random-tree sessions (degree 4, depth 8,
//! `random_tree(2)`: fine-grained jobs) with aspiration on, all three
//! priority classes, one shared table. The problem heap, the scheduler and
//! the deepening loop dominate; the random-tree evaluator is a hash, and
//! sessions share no work.

use std::time::{Duration, Instant};

use engine_server::{AnyPos, Priority, SessionScheduler};
use search_serial::{alphabeta, OrderPolicy, OrderingTables};
use tt::TranspositionTable;

use crate::inputs::{
    checkers_positions, othello_midgames, parallel_cfg, random_roots, serial_cfg, Rng,
};
use crate::layers::{self, phase, WORKERS};
use crate::loadgen::{fixed_rate_schedule, serve_open_loop, ServeRun, Session};
use crate::spans::Spans;
use crate::{timed_setup, trace_metrics, Args, EndToEnd, Op, Outcome, SETUP_REPS};

const DEGREE: u32 = 4;
const DEPTH: u32 = 8;
/// Offered sessions per second: about half of what two workers serve.
const RATE: f64 = 10.0;
/// Sessions per chunk of the traced run.
const CHUNK: usize = 10;
/// A session slower than this from its due time does not count as good.
const LATENCY_LIMIT: Duration = Duration::from_secs(1);

struct Setup {
    sessions: Vec<Session>,
    due: Vec<Duration>,
    sched: SessionScheduler<AnyPos>,
}

fn setup(seed: u64, seconds: f64) -> Setup {
    let mut rng = Rng::new(seed, 1);
    let n = (RATE * seconds).round().max(2.0) as usize;
    let sessions = random_roots(&mut rng, n, DEGREE, DEPTH)
        .into_iter()
        .map(|r| {
            let pos = AnyPos::Random(r);
            Session {
                pos,
                depth: DEPTH,
                priority: Priority::ALL[rng.below(3)],
                asp: layers::asp_for(&pos),
            }
        })
        .collect();
    Setup {
        sessions,
        due: fixed_rate_schedule(n, RATE),
        sched: SessionScheduler::new(layers::scheduler_config()),
    }
}

/// Sessions that were shed, degraded, stopped short of their depth, or
/// whose value differs from a solo alpha-beta search at the completed
/// depth.
fn bad(sessions: &[Session], run: &ServeRun) -> Vec<bool> {
    sessions
        .iter()
        .zip(&run.results)
        .map(|(s, r)| match r {
            None => true,
            Some(r) => {
                r.stopped.is_some()
                    || r.depth_completed != s.depth
                    || alphabeta(&s.pos, r.depth_completed, OrderPolicy::NATURAL).value != r.value
            }
        })
        .collect()
}

pub fn run(a: &Args) -> Result<Outcome, String> {
    let (mut s, setup_s) = timed_setup(SETUP_REPS, || setup(a.seed, a.seconds));
    if !a.trace {
        let run = serve_open_loop(&mut s.sched, &s.sessions, &s.due, &mut Spans::new(false), 1);
        let bad = bad(&s.sessions, &run);
        let ops: Vec<Op> = run
            .latency
            .iter()
            .zip(&bad)
            .zip(&s.due)
            .filter_map(|((latency, bad), due)| {
                let latency = (*latency)?;
                Some(Op {
                    done: run.start + *due + latency,
                    latency,
                    good: !bad && latency <= LATENCY_LIMIT,
                })
            })
            .collect();
        let good = ops.iter().filter(|o| o.good).count();
        let late = run.late.iter().max().copied().unwrap_or_default();
        return Ok(Outcome {
            attempted: s.sessions.len() as u64,
            failed: bad.iter().filter(|b| **b).count() as u64,
            metrics: Vec::new(),
            end_to_end: Some(EndToEnd {
                ops,
                start: run.start,
                open_loop_wall: Some(run.wall),
                setup_s,
            }),
            notes: vec![format!(
                "{} sessions offered at {RATE}/s, {good} good (served, exact, within {LATENCY_LIMIT:?}), submissions up to {late:?} late",
                s.sessions.len()
            )],
            spans: None,
        });
    }

    // Chunks of the sessions, each served on a fixed-rate schedule twice,
    // untraced and traced on a scheduler of its own, in alternating order.
    let due = fixed_rate_schedule(CHUNK, RATE);
    let mut scheds = [s.sched, SessionScheduler::new(layers::scheduler_config())];
    let mut spans = Spans::new(true);
    let (mut plain, mut traced, mut failed) = (Vec::new(), Vec::new(), 0);
    let start = Instant::now();
    for (k, chunk) in s.sessions.chunks_exact(CHUNK).enumerate() {
        if start.elapsed() >= Duration::from_secs_f64(a.seconds) {
            break;
        }
        let base = (k * CHUNK) as u64 + 1;
        let mut serve = |traced: bool, spans: &mut Spans| {
            let run = serve_open_loop(&mut scheds[usize::from(traced)], chunk, &due, spans, base);
            failed += bad(chunk, &run).iter().filter(|b| **b).count() as u64;
            run
        };
        if k % 2 == 0 {
            plain.push(serve(false, &mut Spans::new(false)));
            traced.push(serve(true, &mut spans));
        } else {
            traced.push(serve(true, &mut spans));
            plain.push(serve(false, &mut Spans::new(false)));
        }
    }
    let (plain, traced) = (ServeRun::concat(plain), ServeRun::concat(traced));
    let pairs: Vec<_> = plain
        .latency
        .iter()
        .zip(&traced.latency)
        .filter_map(|(u, t)| Some(((*u)?, (*t)?)))
        .collect();
    let mut m = trace_metrics(&pairs, &spans, "session");

    let roots: Vec<AnyPos> = s.sessions.iter().map(|s| s.pos).collect();
    let mut rng = Rng::new(a.seed, 2);
    let othello_side = othello_midgames(&mut rng, 1000);
    m.extend(phase(&mut spans, "layer.othello", || {
        layers::othello_kernels(&othello_side)
    }));
    let checkers_side = checkers_positions(&mut rng, 1000);
    m.extend(phase(&mut spans, "layer.checkers", || {
        layers::checkers_kernels(&checkers_side)
    }));
    let ladder = phase(&mut spans, "layer.ladder", || {
        layers::ladder(&roots[..8], DEPTH, |p| {
            (parallel_cfg(p), serial_cfg(p), p.order_policy())
        })
    });
    m.extend(ladder.metrics());
    let (runs, aborted) = phase(&mut spans, "layer.deepen", || {
        let (table, ord, mut runs) = (
            TranspositionTable::with_bits(16),
            OrderingTables::new(),
            Vec::new(),
        );
        let aborted = roots[..8]
            .iter()
            .filter(|pos| {
                layers::deepen(
                    pos,
                    DEPTH,
                    WORKERS,
                    &table,
                    &ord,
                    layers::asp_for(pos),
                    &mut runs,
                )
                .is_err()
            })
            .count() as u64;
        (runs, aborted)
    });
    m.extend(layers::heap_metrics(&runs));
    m.push(phase(&mut spans, "layer.call_overhead", || {
        layers::call_overhead(&roots[..200.min(roots.len())], parallel_cfg)
    }));
    m.extend(phase(&mut spans, "layer.tt", || {
        layers::tt_micro(16, &layers::keys_of(&roots))
    }));
    let served: Vec<_> = traced.results.iter().flatten().collect();
    let nodes = served.iter().map(|r| r.nodes).sum();
    m.extend(layers::tt_ratios(&traced.tt, nodes));
    m.extend(layers::id_fold(
        served.iter().map(|r| u64::from(r.depth_completed)).sum(),
        served.iter().map(|r| r.re_searches).sum(),
        served.iter().map(|r| r.window_hits).sum(),
        served
            .iter()
            .map(|r| r.per_depth.last().map_or(0, |d| d.nodes))
            .sum(),
        nodes,
        served.len() as u64,
    ));
    m.extend(layers::server_metrics(&traced));
    m.push(phase(&mut spans, "layer.match_probe", || {
        layers::match_probe(&roots[..12], DEPTH)
    }));

    Ok(Outcome {
        attempted: (plain.results.len() + traced.results.len()) as u64,
        failed: failed + ladder.mismatches + aborted,
        metrics: m,
        end_to_end: None,
        notes: vec![format!(
            "{} sessions served untraced and traced at {RATE}/s; per-layer probes on the same roots",
            traced.results.len()
        )],
        spans: Some(spans),
    })
}
