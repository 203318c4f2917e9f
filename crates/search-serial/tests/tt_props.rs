//! Property matrix for the transposition-table back-ends: across random
//! seeds × degrees × depths × table sizes (down to a single 4-way
//! bucket), every search with a table must return exactly plain negamax's root
//! value. This is the repo's load-bearing TT invariant — equal-depth
//! probe matching keeps TT-on values bit-identical to TT-off.

use gametree::random::RandomTreeSpec;
use gametree::Window;
use proptest::prelude::*;
use search_serial::{
    alphabeta_with, er_search_with, negmax, negmax_with, pvs_with, ErConfig, Hooks, OrderPolicy,
};
use tt::TranspositionTable;

proptest! {
    #[test]
    fn tt_backends_match_negmax_across_seeds_depths_and_table_sizes(
        seed in 0u64..1000,
        degree in 2u32..5,
        depth in 2u32..7,
        bits in 2u32..16,
    ) {
        let root = RandomTreeSpec::new(seed, degree, depth).root();
        let exact = negmax(&root, depth).value;
        let table = TranspositionTable::with_bits(bits);
        prop_assert_eq!(negmax_with(&root, depth, Hooks::new().tt(&table)).value, exact);
        prop_assert_eq!(
            alphabeta_with(
                &root,
                depth,
                Window::FULL,
                OrderPolicy::NATURAL,
                Hooks::new().tt(&table),
            ).value,
            exact
        );
        prop_assert_eq!(
            pvs_with(
                &root,
                depth,
                Window::FULL,
                OrderPolicy::NATURAL,
                Hooks::new().tt(&table),
            ).value,
            exact,
        );
        prop_assert_eq!(
            er_search_with(
                &root,
                depth,
                Window::FULL,
                ErConfig::NATURAL,
                0,
                Hooks::new().tt(&table),
            ).value,
            exact
        );
    }

    #[test]
    fn one_bucket_table_shared_across_backends_stays_exact(
        seed in 0u64..1000,
        depth in 2u32..6,
    ) {
        // bits=2 is one 4-way bucket: constant eviction, every algorithm
        // reading entries every other algorithm wrote.
        let root = RandomTreeSpec::new(seed, 4, depth).root();
        let exact = negmax(&root, depth).value;
        let table = TranspositionTable::with_bits(2);
        prop_assert_eq!(negmax_with(&root, depth, Hooks::new().tt(&table)).value, exact);
        prop_assert_eq!(
            alphabeta_with(
                &root,
                depth,
                Window::FULL,
                OrderPolicy::ALWAYS,
                Hooks::new().tt(&table),
            ).value,
            exact
        );
        prop_assert_eq!(
            pvs_with(
                &root,
                depth,
                Window::FULL,
                OrderPolicy::ALWAYS,
                Hooks::new().tt(&table),
            ).value,
            exact,
        );
        prop_assert_eq!(
            er_search_with(
                &root,
                depth,
                Window::FULL,
                ErConfig::NATURAL,
                0,
                Hooks::new().tt(&table),
            ).value,
            exact
        );
    }
}
