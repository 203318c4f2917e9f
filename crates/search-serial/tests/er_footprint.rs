//! Serial ER's heap footprint: it keeps only its live frontier.
//!
//! A settled node drops its children and an unsorted expansion plays a
//! child only when the search reaches it, so the heap a search holds is
//! bounded by its path length times the branching factor, not by the
//! number of nodes it examined. This binary installs a counting global
//! allocator (live bytes, peak live bytes, allocation calls) and measures
//! single searches with it; everything runs in one test so no other test
//! thread allocates during a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use gametree::random::RandomTreeSpec;
use gametree::GamePosition;
use search_serial::{er_search, ErConfig};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns `System`'s result, so `System`'s guarantees hold; the counters
// are statistics that no allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `alloc_zeroed`'s contract for `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller meets `realloc`'s
        // contract for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            LIVE.fetch_sub(layout.size(), Relaxed);
            grow(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What one search cost the heap.
#[derive(Debug)]
struct Footprint {
    /// Peak live bytes above the level live when the search began.
    peak: usize,
    /// Allocation calls (fresh and realloc) made by the search.
    allocs: usize,
    nodes: u64,
}

fn measure<P: GamePosition>(pos: &P, depth: u32, cfg: ErConfig) -> Footprint {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let allocs = ALLOCS.load(Relaxed);
    let r = er_search(pos, depth, cfg);
    Footprint {
        peak: PEAK.load(Relaxed) - base,
        allocs: ALLOCS.load(Relaxed) - allocs,
        nodes: r.stats.nodes(),
    }
}

/// The bound on a depth-7 search's peak live heap. The search examines
/// tens of thousands of nodes; keeping them all costs megabytes.
const PEAK_BOUND: usize = 256 * 1024;

#[test]
fn serial_er_holds_only_its_frontier() {
    // Each case carries the allocation calls the same search made when it
    // kept every expanded node and played every child at expansion (peak
    // live heap then: 13.2, 14.3, 18.7 and 25.1 MB). The frontier form
    // may not add any.
    let o = othello::configs::all();
    let r8 = RandomTreeSpec::new(3, 8, 7).root();
    let cases = [
        ("O1", measure(&o[0].1, 7, ErConfig::OTHELLO), 49_473),
        ("O2", measure(&o[1].1, 7, ErConfig::OTHELLO), 46_089),
        ("O3", measure(&o[2].1, 7, ErConfig::OTHELLO), 52_740),
        (
            "R8 degree 8 depth 7",
            measure(&r8, 7, ErConfig::NATURAL),
            98_016,
        ),
    ];
    for (name, f, stored_tree_allocs) in &cases {
        eprintln!("{name}: {f:?}");
        assert!(
            f.peak < PEAK_BOUND,
            "{name}: peak live heap {} B over {} nodes exceeds {PEAK_BOUND} B",
            f.peak,
            f.nodes
        );
        assert!(
            f.allocs <= *stored_tree_allocs,
            "{name}: {} allocations, more than the stored tree's {stored_tree_allocs}",
            f.allocs
        );
    }
}
