//! Torn-entry detection under real contention (DESIGN.md §8).
//!
//! N threads hammer one *tiny* table (maximal bucket overlap) with
//! interleaved stores and probes. Every stored record is a pure function
//! of its hash, so if XOR validation ever admitted a torn entry — the key
//! of one write paired with the data of another — a probe would return a
//! payload inconsistent with its hash and the test fails. Run it with
//! `cargo test --release -p tt` (CI does) so the atomics race at full
//! speed.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use gametree::Value;
use tt::{Bound, TranspositionTable};

/// The payload every writer stores for `hash` — and the only payload any
/// reader may ever see for it.
fn expected(hash: u64) -> (Value, u32, Bound, Option<u16>) {
    let m = hash.wrapping_mul(0x94d0_49bb_1331_11eb);
    let value = Value::new((m as i32) % 10_000);
    let depth = (m >> 32) as u32 % 200;
    let bound = match (m >> 56) % 3 {
        0 => Bound::Exact,
        1 => Bound::Lower,
        _ => Bound::Upper,
    };
    let hint = (m >> 40)
        .is_multiple_of(2)
        .then_some((m >> 48) as u16 & 0x3fff);
    (value, depth, bound, hint)
}

fn hammer(table: &TranspositionTable, threads: usize, keys: u64, rounds: u64) -> u64 {
    let validated = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..threads as u64 {
            let table = &table;
            let validated = &validated;
            scope.spawn(move || {
                // Per-thread key stream over a shared small key space, so
                // every bucket sees concurrent writers of *different* keys.
                let mut state = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t + 1);
                for _ in 0..rounds {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let hash = (state >> 16) % keys;
                    let (value, depth, bound, hint) = expected(hash);
                    if state & 1 == 0 {
                        table.store(hash, depth, value, bound, hint);
                    } else if let Some(p) = table.probe(hash) {
                        // A validated probe must return the exact record
                        // some writer stored for this hash — any mix of two
                        // writes is a torn entry.
                        assert_eq!(p.value, value, "torn value for hash {hash}");
                        assert_eq!(p.depth, depth, "torn depth for hash {hash}");
                        assert_eq!(p.bound, bound, "torn bound for hash {hash}");
                        assert_eq!(p.hint, hint, "torn hint for hash {hash}");
                        validated.fetch_add(1, Relaxed);
                    }
                }
            });
        }
    });
    validated.load(Relaxed)
}

#[test]
fn xor_validation_never_yields_a_torn_entry() {
    // 16 entries (4 buckets), 8 threads, 256 hot keys: constant eviction
    // and same-slot overwrite races.
    let table = TranspositionTable::with_bits(4);
    let hits = hammer(&table, 8, 256, 200_000);
    assert!(hits > 0, "the probe side must actually exercise validation");
    let s = table.stats();
    assert!(
        s.replacements > 0,
        "a 16-entry table under 256 keys must churn"
    );
}

#[test]
fn single_bucket_table_survives_maximal_churn() {
    // Every key maps to the same 4-way bucket: the worst case for
    // overwrite races and the replacement policy.
    let table = TranspositionTable::with_bits(2);
    let hits = hammer(&table, 8, 64, 100_000);
    assert!(hits > 0);
    assert!(table.stats().collisions > 0, "bucket competition expected");
}

#[test]
fn generation_bumps_interleave_safely_with_traffic() {
    let table = TranspositionTable::with_bits(4);
    std::thread::scope(|scope| {
        let t = &table;
        scope.spawn(move || {
            for _ in 0..2_000 {
                t.new_generation();
            }
        });
        for _ in 0..4 {
            scope.spawn(move || {
                hammer(t, 1, 128, 50_000);
            });
        }
    });
}
