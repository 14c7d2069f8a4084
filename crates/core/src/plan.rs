//! One plan per call: [`Plan::new`] checks the shape, reduces
//! column-major to row-major (Theorem 2) and picks the direction (§5.2)
//! for every entry point that takes a [`Layout`], here and in
//! `ipt-parallel`; each then runs a `match` on its plan.

use core::fmt;

use crate::index::C2rParams;
use crate::{shape_len, Algorithm, Layout};

/// The transpose a [`Plan`] runs: an [`Algorithm`] with `Auto` resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// C2R (Algorithm 1) on the row-major `m x n` buffer.
    C2r,
    /// R2C (§4.3), C2R's inverse, on the row-major `n x m` buffer.
    R2c,
}

/// One resolved call: its direction, the `m x n` that direction runs on
/// and that shape's [`C2rParams`]. [`Plan::new`] is its one constructor.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// C2R or R2C, never `Auto`.
    pub direction: Direction,
    /// The layout of the caller's matrix.
    pub layout: Layout,
    /// Rows of the `m x n` the direction runs on.
    pub m: usize,
    /// Columns of the `m x n` the direction runs on.
    pub n: usize,
    /// The parameters of `m x n`, or `None` when `m <= 1` or `n <= 1`: a
    /// vector, or an empty matrix, is its own transpose.
    pub params: Option<C2rParams>,
}

impl Plan {
    /// Resolve a call on `len` elements holding a `rows x cols` matrix in
    /// `layout`. A column-major buffer is the row-major `cols x rows` one
    /// (Theorem 2); on that view `Auto` picks C2R when it has more rows
    /// than columns, else R2C, a tie included (§5.2). R2C takes its
    /// parameters swapped: it turns the `n x m` view into `m x n`.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize` or differs from `len`.
    #[track_caller]
    pub fn new(len: usize, rows: usize, cols: usize, layout: Layout, algorithm: Algorithm) -> Plan {
        assert!(
            len == shape_len(rows, cols),
            "buffer length must be rows * cols ({rows} x {cols}); {len} does not match"
        );
        let (vm, vn) = match layout {
            Layout::RowMajor => (rows, cols),
            Layout::ColMajor => (cols, rows),
        };
        let direction = match algorithm {
            Algorithm::C2r => Direction::C2r,
            Algorithm::R2c => Direction::R2c,
            Algorithm::Auto if vm > vn => Direction::C2r,
            Algorithm::Auto => Direction::R2c,
        };
        let (m, n) = match direction {
            Direction::C2r => (vm, vn),
            Direction::R2c => (vn, vm),
        };
        let params = (m > 1 && n > 1).then(|| C2rParams::new(m, n));
        Plan {
            direction,
            layout,
            m,
            n,
            params,
        }
    }
}

/// The direction and the view, e.g. `C2R on the row-major 6 x 4 view of
/// a col-major matrix`.
impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (dir, vm, vn) = match self.direction {
            Direction::C2r => ("C2R", self.m, self.n),
            Direction::R2c => ("R2C", self.n, self.m),
        };
        let layout = match self.layout {
            Layout::RowMajor => "row-major",
            Layout::ColMajor => "col-major",
        };
        write!(
            f,
            "{dir} on the row-major {vm} x {vn} view of a {layout} matrix"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Algorithm::{Auto, C2r, R2c};
    use Layout::{ColMajor, RowMajor};

    #[test]
    fn the_resolver_table() {
        type Case = ((usize, usize, Layout, Algorithm), (Direction, usize, usize));
        let table: [Case; 14] = [
            // §5.2: C2R when the view has more rows, R2C on the tie.
            ((6, 4, RowMajor, Auto), (Direction::C2r, 6, 4)),
            ((4, 6, RowMajor, Auto), (Direction::R2c, 6, 4)),
            ((5, 5, RowMajor, Auto), (Direction::R2c, 5, 5)),
            ((5, 5, ColMajor, Auto), (Direction::R2c, 5, 5)),
            // Theorem 2: a column-major buffer is the swapped row-major one.
            ((4, 6, ColMajor, Auto), (Direction::C2r, 6, 4)),
            ((6, 4, ColMajor, Auto), (Direction::R2c, 6, 4)),
            // Vectors.
            ((1, 7, RowMajor, Auto), (Direction::R2c, 7, 1)),
            ((7, 1, RowMajor, Auto), (Direction::C2r, 7, 1)),
            ((1, 7, ColMajor, Auto), (Direction::C2r, 7, 1)),
            ((7, 1, ColMajor, Auto), (Direction::R2c, 7, 1)),
            // Forced directions, in both layouts.
            ((4, 6, RowMajor, C2r), (Direction::C2r, 4, 6)),
            ((6, 4, RowMajor, R2c), (Direction::R2c, 4, 6)),
            ((6, 4, ColMajor, C2r), (Direction::C2r, 4, 6)),
            ((4, 6, ColMajor, R2c), (Direction::R2c, 4, 6)),
        ];
        for ((rows, cols, layout, alg), (dir, m, n)) in table {
            let plan = Plan::new(rows * cols, rows, cols, layout, alg);
            let what = format!("{rows} x {cols} {layout:?} {alg:?}");
            assert_eq!((plan.direction, plan.m, plan.n), (dir, m, n), "{what}");
            let params = plan.params.map(|p| (p.m, p.n));
            assert_eq!(params, (m > 1 && n > 1).then_some((m, n)), "{what}");
        }
    }

    #[test]
    fn empty_shapes_have_nothing_to_do() {
        for (rows, cols) in [(0usize, 5usize), (5, 0), (0, 0)] {
            for layout in [RowMajor, ColMajor] {
                assert!(Plan::new(0, rows, cols, layout, Auto).params.is_none());
            }
        }
    }

    #[test]
    fn display_names_the_direction_and_the_view() {
        let plan = Plan::new(24, 4, 6, ColMajor, Auto);
        assert_eq!(
            plan.to_string(),
            "C2R on the row-major 6 x 4 view of a col-major matrix"
        );
        let plan = Plan::new(24, 4, 6, RowMajor, Auto);
        assert_eq!(
            plan.to_string(),
            "R2C on the row-major 4 x 6 view of a row-major matrix"
        );
    }

    #[test]
    #[should_panic(expected = "buffer length must be rows * cols (2 x 3); 5 does not match")]
    fn a_short_buffer_is_refused() {
        Plan::new(5, 2, 3, RowMajor, Auto);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn an_overflowing_shape_is_refused() {
        Plan::new(0, 1usize << (usize::BITS - 1), 2, RowMajor, Auto);
    }
}
