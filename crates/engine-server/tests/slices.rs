//! Scenario tests of the slice machinery: control-token hygiene across
//! slices, deadline-armed-at-submission latency accounting, fairness of
//! the weighted service split, and admission behaviour under sustained
//! overload (including capacity reuse across batches on one scheduler).

use std::time::{Duration, Instant};

use engine_server::{
    serve_batch_on, AnyPos, Priority, SchedulerConfig, SessionRequest, SessionScheduler,
};
use er_parallel::{AbortReason, ErParallelConfig};
use search_serial::alphabeta;

fn req(seed: u64, depth: u32) -> SessionRequest<AnyPos> {
    SessionRequest::new(
        AnyPos::random_root(seed, 4, 6),
        depth,
        ErParallelConfig::random_tree(2),
    )
}

/// A tripped slice must not poison the *next* slice: a session whose
/// sibling dies on a deadline keeps deepening under its own fresh tokens.
/// (The scheduler makes a fresh `SearchControl` per slice; if it reused
/// one per session — or worse, per scheduler — the first trip would stop
/// everyone, because trips are sticky.)
#[test]
fn one_sessions_deadline_does_not_trip_its_siblings() {
    let mut s: SessionScheduler<AnyPos> = SessionScheduler::new(SchedulerConfig {
        threads: 1,
        max_active: 4,
        ..SchedulerConfig::default()
    });
    // An already-expired session sliced first (lowest id wins ties)…
    s.submit(req(1, 8).with_budget(Duration::ZERO)).unwrap();
    // …interleaved with healthy unbudgeted sessions.
    s.submit(req(2, 5)).unwrap();
    s.submit(req(3, 5)).unwrap();
    let results = s.run_until_idle();
    assert_eq!(results.len(), 3);
    let dead = results.iter().find(|r| r.id.0 == 0).unwrap();
    assert_eq!(dead.stopped, Some(AbortReason::DeadlineHit));
    assert_eq!(dead.depth_completed, 0);
    for r in results.iter().filter(|r| r.id.0 != 0) {
        assert!(
            r.completed(),
            "session {} was poisoned by its sibling's trip",
            r.id
        );
        let pos = AnyPos::random_root(u64::from(r.id.0) + 1, 4, 6);
        assert_eq!(r.value, alphabeta(&pos, 5, pos.order_policy()).value);
    }
}

/// Deadlines are armed at submission, so a budgeted session's completion
/// latency is bounded by budget plus one slice of grace — even when it
/// spends most of its budget queued behind other work.
#[test]
fn budget_bounds_latency_even_through_the_queue() {
    let mut s: SessionScheduler<AnyPos> = SessionScheduler::new(SchedulerConfig {
        threads: 1,
        max_active: 1,
        max_queued: 8,
        ..SchedulerConfig::default()
    });
    // Head-of-line work keeps the single slot busy…
    s.submit(req(1, 6)).unwrap();
    // …while a tightly budgeted session waits behind it.
    let budget = Duration::from_millis(20);
    s.submit(req(2, 64).with_budget(budget)).unwrap();
    let t0 = Instant::now();
    let results = s.run_until_idle();
    let wall = t0.elapsed();
    let tight = results.iter().find(|r| r.id.0 == 1).unwrap();
    assert!(
        tight.stopped == Some(AbortReason::DeadlineHit) || tight.completed(),
        "a budgeted session either finishes or degrades: {:?}",
        tight.stopped
    );
    // Its own latency never exceeds budget + the head-of-line session's
    // total service + slack; the coarse envelope below catches the
    // failure mode that matters (deadline armed at first slice instead of
    // submission, which would let queue wait extend the deadline).
    let head = results.iter().find(|r| r.id.0 == 0).unwrap();
    let envelope = budget + head.service + Duration::from_millis(250);
    assert!(
        tight.latency <= envelope,
        "latency {:?} blew the envelope {:?} (wall {:?})",
        tight.latency,
        envelope,
        wall
    );
    assert!(tight.queue_wait <= tight.latency);
}

/// Weighted peers on one slot: an interactive session (weight 4) and a
/// batch session (weight 1) on the same tree both finish, with the same
/// value. Which finishes first is not asserted here: whichever session
/// reaches a depth second reads the other's entries in the shared table,
/// so the two do unequal work and their order follows slice timing. The
/// stride rule itself is pinned on fixed charges by the scheduler's unit
/// test `stride_rule_serves_interactive_four_slices_per_batch_slice`.
#[test]
fn weighted_peers_both_finish_with_equal_values() {
    let mut s: SessionScheduler<AnyPos> = SessionScheduler::new(SchedulerConfig {
        threads: 1,
        max_active: 8,
        ..SchedulerConfig::default()
    });
    s.submit(req(7, 5).with_priority(Priority::Batch)).unwrap();
    s.submit(req(7, 5).with_priority(Priority::Interactive))
        .unwrap();
    let results = s.run_until_idle();
    assert_eq!(results.len(), 2);
    let mut classes: Vec<Priority> = results.iter().map(|r| r.priority).collect();
    classes.sort_by_key(|p| p.index());
    assert_eq!(classes, [Priority::Interactive, Priority::Batch]);
    assert!(results.iter().all(|r| r.completed()), "both reach depth 5");
    assert_eq!(results[0].value, results[1].value, "same tree, same value");
}

/// Overload and recovery on one long-lived scheduler: a first batch
/// beyond capacity sheds its tail, a second batch after the drain is
/// admitted in full, and both batches' values come back solo-identical.
#[test]
fn shed_requests_can_be_retried_after_the_drain() {
    let cfg = SchedulerConfig {
        threads: 1,
        max_active: 2,
        max_queued: 2,
        ..SchedulerConfig::default()
    };
    let mut s: SessionScheduler<AnyPos> = SessionScheduler::new(cfg);
    let wave1 = (0..6).map(|i| req(i, 3)).collect();
    let out1 = serve_batch_on(&mut s, wave1);
    let shed: Vec<usize> = (0..6).filter(|&i| out1[i].is_shed()).collect();
    assert_eq!(shed, vec![4, 5], "capacity 4 sheds exactly the tail");
    assert_eq!(s.stats().shed_queue_full, 2);

    // Retry wave: the drain freed all capacity.
    let wave2 = shed.iter().map(|&i| req(i as u64, 3)).collect();
    let out2 = serve_batch_on(&mut s, wave2);
    assert!(out2.iter().all(|r| r.result().is_some()));

    for (i, resp) in out1[..4].iter().chain(&out2).enumerate() {
        let r = resp.result().unwrap();
        let seed = if i < 4 { i as u64 } else { shed[i - 4] as u64 };
        let pos = AnyPos::random_root(seed, 4, 6);
        assert_eq!(r.value, alphabeta(&pos, 3, pos.order_policy()).value);
    }
    assert_eq!(s.stats().finished, 6);
    assert_eq!(s.stats().admitted, 6);
    assert_eq!(s.stats().submitted, 8);
}

/// The per-slice generation bump is observable on the shared table: a
/// multi-depth batch advances the generation by at least one per slice,
/// and table sharing still leaves every value solo-identical (the XOR
/// validation + equal-depth rule doing its job under aging).
#[test]
fn slices_advance_the_shared_tables_generation() {
    let mut s: SessionScheduler<AnyPos> = SessionScheduler::new(SchedulerConfig {
        threads: 1,
        max_active: 2,
        ..SchedulerConfig::default()
    });
    let g0 = s.table().generation();
    s.submit(req(11, 3)).unwrap();
    s.submit(req(12, 3)).unwrap();
    let results = s.run_until_idle();
    let slices = s.stats().slices;
    assert!(slices >= 6, "two sessions x three depths");
    // Generation is mod-64; with fewer than 64 slices here it advances
    // exactly `slices` steps from the start.
    assert_eq!(
        u64::from(s.table().generation().wrapping_sub(g0) & 63),
        slices & 63
    );
    for r in &results {
        assert!(r.completed());
    }
}
