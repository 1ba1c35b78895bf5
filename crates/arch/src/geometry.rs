//! Core identifiers, coordinates and grid arrangement helpers.

use serde::{Deserialize, Serialize};

/// The most cores an architecture can have: [`CoreId`] is a `u16`
/// index, and the ids of an architecture's cores run `0..n_cores`.
pub const MAX_CORES: u32 = u16::MAX as u32;

/// Identifier of a computing core: row-major index into the core grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CoreId(pub u16);

impl CoreId {
    /// The index as `usize`.
    pub fn idx(&self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Grid coordinate of a core (or router).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Coord {
    /// Column.
    pub x: u16,
    /// Row.
    pub y: u16,
}

impl Coord {
    /// Creates a coordinate.
    pub fn new(x: u16, y: u16) -> Self {
        Self { x, y }
    }

    /// Manhattan distance to another coordinate.
    pub fn manhattan(&self, other: &Coord) -> u32 {
        self.x.abs_diff(other.x) as u32 + self.y.abs_diff(other.y) as u32
    }
}

impl std::fmt::Display for Coord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// Arranges `n` cores into the most square (x, y) grid with `x >= y`,
/// following the paper's DSE convention ("with 36 cores we configure
/// 6x6, for 18 cores 6x3").
pub fn arrange_cores(n: u32) -> (u32, u32) {
    assert!(n > 0, "cannot arrange zero cores");
    let mut best = (n, 1);
    let mut d = 1;
    while d * d <= n {
        if n % d == 0 {
            best = (n / d, d);
        }
        d += 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrange_matches_paper_examples() {
        assert_eq!(arrange_cores(36), (6, 6));
        assert_eq!(arrange_cores(18), (6, 3));
        assert_eq!(arrange_cores(72), (9, 8));
        assert_eq!(arrange_cores(9), (3, 3));
        assert_eq!(arrange_cores(8), (4, 2));
        assert_eq!(arrange_cores(16), (4, 4));
        assert_eq!(arrange_cores(32), (8, 4));
        assert_eq!(arrange_cores(64), (8, 8));
        assert_eq!(arrange_cores(144), (12, 12));
    }

    #[test]
    fn arrange_primes_degenerate() {
        assert_eq!(arrange_cores(7), (7, 1));
        assert_eq!(arrange_cores(1), (1, 1));
    }

    #[test]
    fn manhattan_distance() {
        let a = Coord::new(1, 2);
        let b = Coord::new(4, 0);
        assert_eq!(a.manhattan(&b), 5);
        assert_eq!(b.manhattan(&a), 5);
        assert_eq!(a.manhattan(&a), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(CoreId(3).to_string(), "C3");
        assert_eq!(Coord::new(2, 5).to_string(), "(2,5)");
    }
}
