//! Child sorts must survive ordering tables that change under them.
//!
//! Threaded searches share one killer/history table, so a sibling worker
//! can record a cutoff while this worker is sorting children by keys read
//! from that table. A sort whose comparison reads the keys live then sees
//! an inconsistent order, which the standard library's sorts may answer
//! with a panic. The stand-in table here changes its answer on *every*
//! read — the worst case of that race — and the one dynamic-ordering sort
//! (`visit_order`, shared by serial ER, alpha-beta and the parallel
//! engine) must still finish with a permutation of the children and leave
//! root values alone.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use gametree::random::RandomTreeSpec;
use gametree::Window;
use search_serial::{er_search_window_ord, negmax, visit_order, ErConfig, OrdAccess, OrderPolicy};

/// An ordering table whose every read returns a fresh pseudo-random key.
#[derive(Default)]
struct Shifting(AtomicU64);

impl Shifting {
    fn next(&self) -> u64 {
        // splitmix64 over a read counter.
        let mut z = self
            .0
            .fetch_add(0x9e37_79b9_7f4a_7c15, Relaxed)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl OrdAccess for &Shifting {
    const ENABLED: bool = true;

    fn record_cutoff(self, _ply: u32, _nat: u16, _depth: u32) {}

    fn killer_rank(self, _ply: u32, _nat: u16) -> u8 {
        (self.next() % 3) as u8
    }

    fn history(self, _nat: u16) -> u32 {
        self.next() as u32
    }
}

#[test]
fn visit_order_survives_keys_that_change_on_every_read() {
    let ord = Shifting::default();
    for len in [2u32, 20, 33, 100, 1000] {
        let root = RandomTreeSpec::new(u64::from(len), len, 1).root();
        for _ in 0..50 {
            let mut stats = gametree::SearchStats::new();
            let (kids, _) = visit_order(&root, 0, OrderPolicy::NATURAL, None, &ord, &mut stats);
            let mut nats: Vec<u16> = kids.iter().map(|k| k.nat).collect();
            nats.sort_unstable();
            assert!(
                nats.iter().copied().eq(0..len as u16),
                "len {len}: not a permutation"
            );
        }
    }
}

#[test]
fn serial_er_expansion_survives_keys_that_change_on_every_read() {
    let ord = Shifting::default();
    for seed in 0..4 {
        // Wide nodes: short lists sort by insertion and never notice.
        let root = RandomTreeSpec::new(seed, 48, 3).root();
        let r = er_search_window_ord(&root, 3, Window::FULL, ErConfig::NATURAL, 0, (), (), &ord);
        assert!(r.is_complete());
        assert_eq!(r.value, negmax(&root, 3).value, "seed {seed}");
    }
}
