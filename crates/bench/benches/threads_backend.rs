//! Criterion benchmark of the threaded back-end's one-job lock rounds: R1
//! on 1 and 2 workers. Alongside the timing, the lock accounting is
//! asserted exactly so a regression in the round structure fails the
//! bench rather than silently shifting the numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use er_bench::trees::random_trees;
use er_parallel::{run_er_sim, run_er_threads, ErParallelConfig, ErThreadsResult, Speculation};
use problem_heap::CostModel;
use search_serial::SelectivityConfig;
use std::hint::black_box;

fn r1_config() -> ErParallelConfig {
    let r1 = &random_trees()[0];
    ErParallelConfig {
        serial_depth: r1.serial_depth,
        order: r1.order,
        spec: Speculation::ALL,
        cost: CostModel::default(),
        sel: SelectivityConfig::OFF,
    }
}

/// Runs R1 once and checks the counter invariants of the round design.
fn checked_run(threads: usize) -> ErThreadsResult {
    let r1 = &random_trees()[0];
    let r = run_er_threads(&r1.root, r1.depth, threads, &r1_config());
    let c = r.counters();
    assert_eq!(
        c.jobs_executed, c.outcomes_applied,
        "every executed job must be applied exactly once"
    );
    // One acquisition applies the last outcome and selects the next job;
    // each worker's final acquisition finds the run done. Parks wait
    // inside an acquisition and add none.
    assert_eq!(
        c.lock_acquisitions,
        c.jobs_executed + threads as u64,
        "acquisitions must be one per job plus one exit round per worker \
         (jobs {}, parks {})",
        c.jobs_executed,
        c.idle_parks
    );
    // No deep position clone ever happens inside the critical section.
    assert_eq!(
        c.pos_clones_in_lock, 0,
        "position cloned under the heap lock"
    );
    r
}

fn bench_worker_counts(c: &mut Criterion) {
    // One worker is the 1-processor simulator's schedule: check it once,
    // outside the timed loop.
    let r1 = &random_trees()[0];
    let sim = run_er_sim(&r1.root, r1.depth, 1, &r1_config());
    assert_eq!(
        checked_run(1).stats,
        sim.stats,
        "one worker must examine exactly the simulator's nodes"
    );
    checked_run(2);
    let mut g = c.benchmark_group("er_threads_r1_workers");
    g.sample_size(10);
    for &threads in &[1usize, 2] {
        let id = BenchmarkId::new("workers", threads);
        g.bench_with_input(id, &threads, |bench, &t| {
            bench.iter(|| black_box(checked_run(black_box(t))))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_worker_counts);
criterion_main!(benches);
