//! Seeded input generation. The program under test receives only what
//! these functions produce; the same seed always yields the same inputs.

use checkers::CheckersPos;
use engine_server::AnyPos;
use er_parallel::ErParallelConfig;
use gametree::random::{splitmix64, RandomPos, RandomTreeSpec};
use gametree::GamePosition;
use othello::OthelloPos;
use search_serial::{ErConfig, SelectivityConfig};

/// SplitMix64 stream: tiny, seedable, and good enough for input choice.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(splitmix64(
            seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Plays `plies` uniformly random placements from the initial position;
/// `None` if the walk reaches a position without a placement.
fn othello_walk(rng: &mut Rng, plies: usize) -> Option<OthelloPos> {
    let mut board = othello::Board::initial();
    for _ in 0..plies {
        let mut moves = board.legal_moves();
        if moves == 0 {
            return None;
        }
        for _ in 0..rng.below(moves.count_ones() as usize) {
            moves &= moves - 1;
        }
        board = board.play(moves.trailing_zeros() as u8);
    }
    (board.legal_moves() != 0).then_some(OthelloPos::new(board))
}

/// `n` Othello midgame roots: seeded random playouts of 16–24 plies that
/// end with the mover holding a placement (`match_harness::openings`
/// lines are 2–6 plies deep, too shallow to load a depth-7 solve).
pub fn othello_midgames(rng: &mut Rng, n: usize) -> Vec<OthelloPos> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let plies = 16 + rng.below(9);
        if let Some(p) = othello_walk(rng, plies) {
            out.push(p);
        }
    }
    out
}

/// `n` non-terminal checkers positions from seeded random playouts of
/// 4–40 plies.
pub fn checkers_positions(rng: &mut Rng, n: usize) -> Vec<CheckersPos> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut p = CheckersPos::initial();
        for _ in 0..4 + rng.below(37) {
            let kids = p.children();
            if kids.is_empty() {
                break;
            }
            p = kids[rng.below(kids.len())];
        }
        if !p.moves().is_empty() {
            out.push(p);
        }
    }
    out
}

/// Roots of `n` seeded uniform random trees of the given shape.
pub fn random_roots(rng: &mut Rng, n: usize, degree: u32, height: u32) -> Vec<RandomPos> {
    (0..n)
        .map(|_| RandomTreeSpec::new(rng.next_u64(), degree, height).root())
        .collect()
}

/// A seeded opening: a random walk of 2–6 plies from the family's start
/// position, backed off to the start if the walk ends the game.
pub fn opening(rng: &mut Rng, start: AnyPos) -> AnyPos {
    let mut pos = start;
    for _ in 0..2 + rng.below(5) {
        let kids = pos.children();
        if kids.is_empty() {
            break;
        }
        pos = kids[rng.below(kids.len())];
    }
    if pos.moves().is_empty() {
        start
    } else {
        pos
    }
}

/// The threaded-ER configuration a family is searched with — the same
/// choice the match harness and engine server make.
pub fn parallel_cfg(pos: &AnyPos) -> ErParallelConfig {
    match pos {
        AnyPos::Random(_) => ErParallelConfig::random_tree(2),
        AnyPos::Othello(_) => ErParallelConfig::othello(),
        AnyPos::Checkers(_) => ErParallelConfig {
            serial_depth: 3,
            ..ErParallelConfig::random_tree(3)
        },
    }
}

/// The serial-ER configuration matching [`parallel_cfg`]'s ordering.
pub fn serial_cfg(pos: &AnyPos) -> ErConfig {
    ErConfig {
        order: pos.order_policy(),
        sel: SelectivityConfig::OFF,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = othello_midgames(&mut Rng::new(7, 1), 20);
        let b = othello_midgames(&mut Rng::new(7, 1), 20);
        assert_eq!(a, b);
        let c = othello_midgames(&mut Rng::new(8, 1), 20);
        assert_ne!(a, c);
        assert!(a.iter().all(|p| p.board.legal_moves() != 0));
        assert!(a.iter().all(|p| p.board.occupancy() >= 4 + 16));
        let k = checkers_positions(&mut Rng::new(7, 2), 20);
        assert_eq!(k, checkers_positions(&mut Rng::new(7, 2), 20));
        assert!(k.iter().all(|p| !p.moves().is_empty()));
    }

    #[test]
    fn rng_below_is_in_range() {
        let mut r = Rng::new(1, 0);
        assert!((0..1000).all(|_| r.below(3) < 3));
    }
}
