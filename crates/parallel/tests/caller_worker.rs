//! Where threaded ER's work runs: the calling thread is worker 0, so a
//! 1-worker search never leaves it and an n-worker search adds n - 1
//! threads (DESIGN.md §9).

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

use er_parallel::{run_er_threads, ErParallelConfig};
use gametree::random::RandomTreeSpec;
use gametree::{GamePosition, Value};
use search_serial::{alphabeta, negmax, OrderPolicy};

/// A position wrapper that records the id of every thread that evaluates
/// one of its descendants.
#[derive(Clone)]
struct WhereEval<P> {
    inner: P,
    seen: Arc<Mutex<HashSet<ThreadId>>>,
}

impl<P: GamePosition> GamePosition for WhereEval<P> {
    type Move = P::Move;

    fn moves(&self) -> Vec<P::Move> {
        self.inner.moves()
    }

    fn play(&self, mv: &P::Move) -> WhereEval<P> {
        WhereEval {
            inner: self.inner.play(mv),
            seen: self.seen.clone(),
        }
    }

    fn evaluate(&self) -> Value {
        self.seen.lock().unwrap().insert(thread::current().id());
        self.inner.evaluate()
    }
}

/// Runs threaded ER at `threads` workers and returns the evaluating
/// threads, after checking the root value against the serial searches.
fn evaluating_threads(threads: usize) -> HashSet<ThreadId> {
    // Big enough that a spawned worker is running long before the root
    // completes, so every worker gets evaluations to do.
    let spec = RandomTreeSpec::new(7, 4, 9);
    let root = WhereEval {
        inner: spec.root(),
        seen: Arc::default(),
    };
    let r = run_er_threads(&root, 9, threads, &ErParallelConfig::random_tree(2));
    let plain = spec.root();
    assert_eq!(r.value, negmax(&plain, 9).value, "{threads} workers");
    assert_eq!(
        r.value,
        alphabeta(&plain, 9, OrderPolicy::NATURAL).value,
        "{threads} workers"
    );
    let seen = root.seen.lock().unwrap().clone();
    seen
}

#[test]
fn one_worker_evaluates_only_on_the_caller() {
    let seen = evaluating_threads(1);
    assert_eq!(seen, HashSet::from([thread::current().id()]));
}

#[test]
fn two_workers_are_the_caller_and_one_spawned_thread() {
    let seen = evaluating_threads(2);
    assert_eq!(seen.len(), 2, "exactly two evaluating threads");
    assert!(seen.contains(&thread::current().id()), "one is the caller");
}
