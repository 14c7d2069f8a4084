//! # ipt-core — decomposed in-place matrix transposition
//!
//! A faithful Rust implementation of the algorithm from
//! *Catanzaro, Keller, Garland. "A Decomposition for In-place Matrix
//! Transposition." PPoPP 2014* (DOI 10.1145/2555243.2555253).
//!
//! Traditional in-place transposition of a non-square `m x n` matrix follows
//! cycles of the induced permutation and, when restricted to less than
//! `O(mn)` auxiliary space, costs `O(mn log mn)` work. The paper decomposes
//! the transposition into *independent* row-wise and column-wise
//! permutations, each performed out-of-place in a scratch buffer of
//! `max(m, n)` elements, giving optimal `O(mn)` work with `O(max(m, n))`
//! auxiliary space — and a perfectly load-balanced parallel structure.
//!
//! ## The two transposes
//!
//! Viewing the buffer as a two-dimensional array, the data movement can run
//! in two directions (paper Figure 1):
//!
//! * **C2R** ("columns to rows") — transposes a *row-major* array in place:
//!   an `m x n` row-major buffer becomes the `n x m` row-major transpose.
//! * **R2C** ("rows to columns") — the exact inverse of C2R; equivalently,
//!   it transposes a *column-major* array in place.
//!
//! Either algorithm can transpose either layout by swapping the dimensions
//! first (paper Theorems 1, 2 and 7); [`transpose`] wraps the paper's
//! heuristic (§5.2: use C2R when `m > n`, else R2C) behind one entry point.
//! Every entry point resolves its call once into a [`Plan`] — the shape
//! check, the dimension swap and the direction — and runs a `match` on it.
//!
//! ## Quick start
//!
//! ```
//! use ipt_core::{transpose, Layout, Scratch};
//!
//! // A 2 x 3 row-major matrix: [[1, 2, 3], [4, 5, 6]].
//! let mut a = vec![1, 2, 3, 4, 5, 6];
//! let mut scratch = Scratch::new();
//! transpose(&mut a, 2, 3, Layout::RowMajor, &mut scratch);
//! // Now a 3 x 2 row-major matrix: [[1, 4], [2, 5], [3, 6]].
//! assert_eq!(a, [1, 4, 2, 5, 3, 6]);
//! ```
//!
//! ## Module map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`layout`] | §2 Eqs. 1–6 | row/column-major linearization |
//! | [`gcd`] | §4.2–4.3 | gcd, extended Euclid, modular inverse |
//! | [`fastdiv`] | §4.4 | strength-reduced division/modulus |
//! | [`index`] | §3–4 Eqs. 22–36 | the C2R/R2C index machinery |
//! | [`json`] | — | zero-dep JSON for persisted artifacts |
//! | [`matrix`] | — | matrix views over `&mut [T]` |
//! | [`noncopy`] | — | swap-only transposes for non-`Copy` element types |
//! | [`erased`] | — | type-erased transposes over raw byte buffers |
//! | [`mod@env`] | — | shared warn-once `IPT_*` environment-knob parsing |
//! | [`error`] | — | fallible (`Result`) entry points for untrusted shapes |
//! | [`scratch`] | Thm. 6 | the `O(max(m, n))` auxiliary buffer |
//! | [`mod@plan`] | Thm. 2, §5.2 | one resolved call: direction and operating view |
//! | [`permute`] | Alg. 1 | out-of-place row/column permutation steps |
//! | [`kernels`] | §5.1 | row-shuffle kernel family + runtime dispatch |
//! | [`rotate`] | §4.6 | analytic cycle-following rotation |
//! | [`cycles`] | §4.7 | general cycle-following machinery |
//! | [`mod@c2r`] | §3 Alg. 1 | the Columns-to-Rows transpose |
//! | [`mod@r2c`] | §4.3 | the Rows-to-Columns transpose |
//! | [`check`] | — | test-pattern and verification helpers |

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod c2r;
pub mod check;
pub mod cycles;
pub mod env;
pub mod erased;
pub mod error;
pub mod fastdiv;
pub mod gcd;
pub mod index;
pub mod json;
pub mod kernels;
pub mod layout;
pub mod matrix;
pub mod noncopy;
pub mod permute;
pub mod plan;
pub mod r2c;
pub mod rotate;
pub mod scratch;

pub use c2r::c2r;
pub use error::{shape_len, try_transpose, TransposeError};
pub use index::C2rParams;
pub use layout::Layout;
pub use matrix::{Matrix, MatrixMut};
pub use plan::{Direction, Plan};
pub use r2c::r2c;
pub use scratch::Scratch;

use kernels::ShuffleDirection;

/// Transpose an `rows x cols` matrix of the given [`Layout`] in place.
///
/// After the call the buffer holds the `cols x rows` transpose in the *same*
/// layout. Selects between [`c2r()`] and [`r2c()`] with the paper's heuristic
/// (§5.2): C2R when `rows > cols`, R2C otherwise — C2R is fastest when
/// columns are few (rows fit "on chip"), R2C when rows are few.
///
/// `data.len()` must equal `rows * cols`; the scratch buffer is grown to
/// `max(rows, cols)` elements as needed and can be reused across calls.
///
/// # Panics
///
/// Panics if `data.len() != rows * cols`.
pub fn transpose<T: Copy>(
    data: &mut [T],
    rows: usize,
    cols: usize,
    layout: Layout,
    scratch: &mut Scratch<T>,
) {
    transpose_with(data, rows, cols, layout, Algorithm::Auto, scratch);
}

/// Transpose using a caller-forced algorithm instead of the heuristic.
///
/// Used by benchmarks that compare C2R and R2C head-to-head on the same
/// inputs (paper Figures 4 and 5) and by the ablation benches.
pub fn transpose_with<T: Copy>(
    data: &mut [T],
    rows: usize,
    cols: usize,
    layout: Layout,
    algorithm: Algorithm,
    scratch: &mut Scratch<T>,
) {
    let plan = Plan::new(data.len(), rows, cols, layout, algorithm);
    run(data, &plan, scratch);
}

/// The body of every sequential `Copy` transpose: C2R's or R2C's passes
/// on the plan's parameters, through a `max(m, n)`-element scratch row.
/// The plan was resolved for `data`.
fn run<T: Copy>(data: &mut [T], plan: &Plan, scratch: &mut Scratch<T>) {
    let Some(p) = &plan.params else {
        return; // a vector's transpose occupies the identical buffer
    };
    let tmp = scratch.ensure(p.m.max(p.n), data[0]);
    let kernel = kernels::select(p);
    match plan.direction {
        Direction::C2r => {
            permute::prerotate_cycles(data, p);
            kernels::row_shuffle(data, p, tmp, kernel, ShuffleDirection::Inverse);
            permute::col_shuffle_gather(data, p, tmp);
        }
        Direction::R2c => {
            permute::row_permute_inverse(data, p, tmp);
            permute::col_rotate_inverse(data, p);
            kernels::row_shuffle(data, p, tmp, kernel, ShuffleDirection::Forward);
            permute::postrotate_inverse(data, p);
        }
    }
}

/// Which of the two decomposed transposes to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Columns-to-Rows (paper Algorithm 1).
    C2r,
    /// Rows-to-Columns (the inverse; paper §4.3).
    R2c,
    /// The paper's §5.2 heuristic: C2R when `m > n`, else R2C.
    Auto,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{fill_pattern, is_transposed_pattern};

    #[test]
    fn transpose_row_major_rectangular() {
        for &(r, c) in &[
            (2usize, 3usize),
            (3, 2),
            (4, 8),
            (8, 4),
            (5, 7),
            (1, 9),
            (9, 1),
        ] {
            let mut a = vec![0u64; r * c];
            fill_pattern(&mut a);
            let mut s = Scratch::new();
            transpose(&mut a, r, c, Layout::RowMajor, &mut s);
            assert!(
                is_transposed_pattern(&a, r, c, Layout::RowMajor),
                "{r}x{c} row-major"
            );
        }
    }

    #[test]
    fn transpose_col_major_rectangular() {
        for &(r, c) in &[(2usize, 3usize), (3, 2), (4, 8), (8, 4), (5, 7), (6, 9)] {
            let mut a = vec![0u64; r * c];
            fill_pattern(&mut a);
            let mut s = Scratch::new();
            transpose(&mut a, r, c, Layout::ColMajor, &mut s);
            assert!(
                is_transposed_pattern(&a, r, c, Layout::ColMajor),
                "{r}x{c} col-major"
            );
        }
    }

    #[test]
    fn doc_example() {
        let mut a = vec![1, 2, 3, 4, 5, 6];
        let mut scratch = Scratch::new();
        transpose(&mut a, 2, 3, Layout::RowMajor, &mut scratch);
        assert_eq!(a, [1, 4, 2, 5, 3, 6]);
    }

    #[test]
    fn forced_algorithms_agree() {
        let mut s = Scratch::new();
        for &(r, c) in &[(3usize, 8usize), (8, 3), (6, 10), (12, 9)] {
            let mut via_c2r = vec![0u32; r * c];
            fill_pattern(&mut via_c2r);
            let mut via_r2c = via_c2r.clone();
            transpose_with(&mut via_c2r, r, c, Layout::RowMajor, Algorithm::C2r, &mut s);
            transpose_with(&mut via_r2c, r, c, Layout::RowMajor, Algorithm::R2c, &mut s);
            assert_eq!(via_c2r, via_r2c, "{r}x{c}");
        }
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_len_panics() {
        let mut a = vec![0u8; 5];
        transpose(&mut a, 2, 3, Layout::RowMajor, &mut Scratch::new());
    }
}
