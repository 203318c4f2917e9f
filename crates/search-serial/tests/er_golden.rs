//! Bit-identity pins for serial ER and its alpha-beta baseline.
//!
//! Every row records a root value and all nine `SearchStats` fields of one
//! search. The inputs are the benchmark roots O1-O3 and C1 at depth 7 and
//! three random trees, each searched table-free, with a fresh 2^16
//! transposition table and with fresh ordering tables, through the three
//! serial-ER entry points the parallel engine calls (`er_search`,
//! `er_eval_refute_ord`, `er_refute_rest_ord`) and through alpha-beta.
//!
//! A change to how nodes are stored or children generated must leave every
//! row unchanged; a change to the search itself must say which rows moved.
//! On a mismatch the assertion prints the whole table as computed.

use gametree::random::RandomTreeSpec;
use gametree::{GamePosition, SearchStats, Window};
use search_serial::{
    alphabeta_window_ord, er_eval_refute_ord, er_refute_rest_ord, er_search_window_ord, ErConfig,
    OrdAccess, OrderingTables,
};
use tt::{TranspositionTable, TtAccess, Zobrist};

/// Rows as `name value interior leaf eval sorts cutoffs re_searches
/// killer_hits history_hits q_extensions`.
const GOLDEN: &str = "
    O1/plain/er_search 7 15968 48730 55535 648 12031 0 0 0 0
    O1/plain/er_eval_refute 7 15733 47941 56883 785 11512 0 0 0 0
    O1/plain/er_refute_rest 7 18005 47007 58157 964 13798 0 0 0 0
    O1/plain/alphabeta 7 13525 40602 50313 908 10270 0 0 0 0
    O1/tt/er_search 7 15065 44790 51565 645 11315 0 0 0 0
    O1/tt/er_eval_refute 7 14564 43591 52183 757 10583 0 0 0 0
    O1/tt/er_refute_rest 7 16873 43251 54234 951 12859 0 0 0 0
    O1/tt/alphabeta 7 12589 37979 47494 889 9513 0 0 0 0
    O1/ord/er_search 7 16195 46608 53413 648 12299 0 8954 3329 0
    O1/ord/er_eval_refute 7 15185 44227 53169 785 11109 0 7896 3197 0
    O1/ord/er_refute_rest 7 17348 43539 54689 964 13218 0 9811 3390 0
    O1/ord/alphabeta 7 12627 35326 45037 908 9523 0 7071 2436 0
    O2/plain/er_search 30 14651 53722 61782 618 10133 0 0 0 0
    O2/plain/er_eval_refute 30 7739 36699 41275 352 4481 0 0 0 0
    O2/plain/er_refute_rest 30 7097 29528 33940 342 4342 0 0 0 0
    O2/plain/alphabeta 30 6755 29998 35983 506 4199 0 0 0 0
    O2/tt/er_search 30 13288 44920 52850 608 9183 0 0 0 0
    O2/tt/er_eval_refute 30 7127 30373 34835 344 4170 0 0 0 0
    O2/tt/er_refute_rest 30 6510 24670 28968 334 4005 0 0 0 0
    O2/tt/alphabeta 30 6303 27886 33750 493 3933 0 0 0 0
    O2/ord/er_search 30 14210 50453 58513 618 9970 0 7824 2128 0
    O2/ord/er_eval_refute 30 7367 34722 39298 352 4236 0 3301 916 0
    O2/ord/er_refute_rest 30 6716 26976 31388 342 4135 0 3296 821 0
    O2/ord/alphabeta 30 6266 26547 32532 506 3924 0 3225 681 0
    O3/plain/er_search 80 16262 105406 113466 568 10062 0 0 0 0
    O3/plain/er_eval_refute 80 10560 72351 79298 459 6170 0 0 0 0
    O3/plain/er_refute_rest 80 13719 83873 92711 595 8533 0 0 0 0
    O3/plain/alphabeta 80 10989 71187 81310 738 6722 0 0 0 0
    O3/tt/er_search 80 14802 90700 98743 567 9276 0 0 0 0
    O3/tt/er_eval_refute 80 9961 65027 71915 456 5820 0 0 0 0
    O3/tt/er_refute_rest 80 12770 74041 82862 594 7988 0 0 0 0
    O3/tt/alphabeta 80 10171 65726 75633 716 6245 0 0 0 0
    O3/ord/er_search 80 16462 94478 102538 568 10339 0 7061 3257 0
    O3/ord/er_eval_refute 80 10319 64218 71165 459 6047 0 4444 1580 0
    O3/ord/er_refute_rest 80 13550 75509 84347 595 8462 0 6215 2225 0
    O3/ord/alphabeta 80 10548 60354 70477 738 6445 0 5106 1317 0
    C1/plain/er_search 2 4417 8842 10312 195 2837 0 0 0 0
    C1/plain/er_eval_refute 2 4472 8045 9825 232 3016 0 0 0 0
    C1/plain/er_refute_rest 2 5613 10589 12633 265 3796 0 0 0 0
    C1/plain/alphabeta 2 4850 9399 12189 355 3247 0 0 0 0
    C1/tt/er_search 2 3665 6090 7488 187 2380 0 0 0 0
    C1/tt/er_eval_refute 2 3730 5625 7354 227 2505 0 0 0 0
    C1/tt/er_refute_rest 2 4395 6711 8599 246 3002 0 0 0 0
    C1/tt/alphabeta 2 3849 6856 9370 324 2592 0 0 0 0
    C1/ord/er_search 2 4308 8020 9490 195 2750 0 2567 172 0
    C1/ord/er_eval_refute 2 4420 7510 9290 232 2968 0 2795 162 0
    C1/ord/er_refute_rest 2 5420 9638 11682 265 3626 0 3441 173 0
    C1/ord/alphabeta 2 4706 8439 11229 355 3123 0 2974 138 0
    R4a/plain/er_search -4129 5075 8781 8781 0 2993 0 0 0 0
    R4a/plain/er_eval_refute -4129 5395 9090 9090 0 3368 0 0 0 0
    R4a/plain/er_refute_rest -4129 4084 6679 6679 0 2648 0 0 0 0
    R4a/plain/alphabeta -4129 5318 9240 9240 0 3532 0 0 0 0
    R4a/tt/er_search -4129 5075 8781 8781 0 2993 0 0 0 0
    R4a/tt/er_eval_refute -4129 5395 9090 9090 0 3368 0 0 0 0
    R4a/tt/er_refute_rest -4129 4084 6679 6679 0 2648 0 0 0 0
    R4a/tt/alphabeta -4129 5318 9240 9240 0 3532 0 0 0 0
    R4a/ord/er_search -4129 5153 8920 8920 0 3081 0 1926 1151 0
    R4a/ord/er_eval_refute -4129 5551 9243 9243 0 3477 0 2201 1272 0
    R4a/ord/er_refute_rest -4129 4621 7490 7490 0 3024 0 1908 1112 0
    R4a/ord/alphabeta -4129 5853 10253 10253 0 3915 0 2524 1387 0
    R4b/plain/er_search -4145 5226 8918 8918 0 3125 0 0 0 0
    R4b/plain/er_eval_refute -4145 5209 8599 8599 0 3302 0 0 0 0
    R4b/plain/er_refute_rest -4145 3600 5681 5681 0 2371 0 0 0 0
    R4b/plain/alphabeta -4145 4643 7899 7899 0 3118 0 0 0 0
    R4b/tt/er_search -4145 5226 8918 8918 0 3125 0 0 0 0
    R4b/tt/er_eval_refute -4145 5209 8599 8599 0 3302 0 0 0 0
    R4b/tt/er_refute_rest -4145 3600 5681 5681 0 2371 0 0 0 0
    R4b/tt/alphabeta -4145 4643 7899 7899 0 3118 0 0 0 0
    R4b/ord/er_search -4145 4447 7864 7864 0 2586 0 1678 904 0
    R4b/ord/er_eval_refute -4145 4691 7797 7797 0 2994 0 1930 1060 0
    R4b/ord/er_refute_rest -4145 3082 4911 4911 0 2033 0 1306 723 0
    R4b/ord/alphabeta -4145 3541 6098 6098 0 2355 0 1573 778 0
    R8/plain/er_search -6071 6364 22277 22277 0 4402 0 0 0 0
    R8/plain/er_eval_refute -6071 6859 22477 22477 0 4957 0 0 0 0
    R8/plain/er_refute_rest -6071 5725 18054 18054 0 4263 0 0 0 0
    R8/plain/alphabeta -6071 6448 22515 22515 0 4960 0 0 0 0
    R8/tt/er_search -6071 6364 22277 22277 0 4402 0 0 0 0
    R8/tt/er_eval_refute -6071 6859 22477 22477 0 4957 0 0 0 0
    R8/tt/er_refute_rest -6071 5725 18054 18054 0 4263 0 0 0 0
    R8/tt/alphabeta -6071 6448 22515 22515 0 4960 0 0 0 0
    R8/ord/er_search -6071 7546 25641 25641 0 5354 0 2151 3195 0
    R8/ord/er_eval_refute -6071 7161 23366 23366 0 5234 0 2153 3073 0
    R8/ord/er_refute_rest -6071 6287 19541 19541 0 4652 0 1985 2659 0
    R8/ord/alphabeta -6071 7634 26339 26339 0 5943 0 2529 3406 0
";

fn row(name: &str, value: gametree::Value, s: SearchStats) -> String {
    format!(
        "{name} {} {} {} {} {} {} {} {} {} {}",
        value.get(),
        s.interior_nodes,
        s.leaf_nodes,
        s.eval_calls,
        s.sorts,
        s.cutoffs,
        s.re_searches,
        s.killer_hits,
        s.history_hits,
        s.q_extensions
    )
}

/// The four searches each input is pinned under.
#[derive(Clone, Copy)]
enum Entry {
    ErSearch,
    ErEvalRefute,
    ErRefuteRest,
    AlphaBeta,
}

const ENTRIES: [Entry; 4] = [
    Entry::ErSearch,
    Entry::ErEvalRefute,
    Entry::ErRefuteRest,
    Entry::AlphaBeta,
];

fn search_row<P: GamePosition, T: TtAccess<P>, O: OrdAccess>(
    entry: Entry,
    name: &str,
    pos: &P,
    depth: u32,
    cfg: ErConfig,
    tt: T,
    ord: O,
) -> String {
    let w = Window::FULL;
    let (label, r) = match entry {
        Entry::ErSearch => {
            let r = er_search_window_ord(pos, depth, w, cfg, 0, tt, (), ord);
            ("er_search", (r.value, r.stats))
        }
        Entry::ErEvalRefute => {
            let r = er_eval_refute_ord(pos, depth, w, cfg, 0, tt, (), ord);
            ("er_eval_refute", (r.value, r.stats))
        }
        Entry::ErRefuteRest => {
            // The continuation form: child 0 searched on its own (table-
            // free, so the row depends only on its handles), the rest by
            // er_refute_rest.
            let kids = pos.children();
            let first = er_search_window_ord(&kids[0], depth - 1, w, cfg, 1, (), (), ()).value;
            let r = er_refute_rest_ord(&kids, depth - 1, 1, w, cfg, -first, tt, (), ord);
            ("er_refute_rest", (r.value, r.stats))
        }
        Entry::AlphaBeta => {
            let r = alphabeta_window_ord(pos, depth, w, cfg.order, tt, ord);
            ("alphabeta", (r.value, r.stats))
        }
    };
    row(&format!("{name}/{label}"), r.0, r.1)
}

/// All rows of one input: table-free, then each search with its own fresh
/// table, then each with its own fresh ordering tables.
fn input_rows<P: GamePosition + Zobrist>(
    name: &str,
    pos: &P,
    depth: u32,
    cfg: ErConfig,
    out: &mut Vec<String>,
) {
    for e in ENTRIES {
        out.push(search_row(
            e,
            &format!("{name}/plain"),
            pos,
            depth,
            cfg,
            (),
            (),
        ));
    }
    for e in ENTRIES {
        let table = TranspositionTable::with_bits(16);
        out.push(search_row(
            e,
            &format!("{name}/tt"),
            pos,
            depth,
            cfg,
            &table,
            (),
        ));
    }
    for e in ENTRIES {
        let tables = OrderingTables::new();
        out.push(search_row(
            e,
            &format!("{name}/ord"),
            pos,
            depth,
            cfg,
            (),
            &tables,
        ));
    }
}

fn all_rows() -> Vec<String> {
    let mut out = Vec::new();
    for (name, pos) in othello::configs::all() {
        input_rows(name, &pos, 7, ErConfig::OTHELLO, &mut out);
    }
    input_rows("C1", &checkers::c1(), 7, ErConfig::OTHELLO, &mut out);
    for (name, seed, degree, depth) in [("R4a", 1, 4, 8), ("R4b", 2, 4, 8), ("R8", 3, 8, 6)] {
        let root = RandomTreeSpec::new(seed, degree, depth).root();
        input_rows(name, &root, depth, ErConfig::NATURAL, &mut out);
    }
    out
}

#[test]
fn serial_er_and_alphabeta_stats_are_pinned() {
    let actual = all_rows();
    let expected: Vec<&str> = GOLDEN.trim().lines().map(str::trim).collect();
    assert!(
        actual == expected,
        "golden rows differ; computed table:\n{}",
        actual.join("\n")
    );
}
