//! The Rows-to-Columns in-place transpose — the inverse of C2R (§4.3).
//!
//! `r2c(data, m, n)` inverts `c2r(data, m, n)`: it consumes an `n x m`
//! row-major buffer and leaves the `m x n` row-major transpose. Its steps
//! are C2R's steps inverted and applied in reverse order, all formulated as
//! gathers (§4.3):
//!
//! 1. row permutation with `q^-1` (Eq. 34),
//! 2. column rotation with `p^-1_j` (Eq. 35),
//! 3. row shuffle gathering with `d'_i` *directly* (no inversion needed),
//! 4. post-rotation with `r^-1_j` (Eq. 36), only when `gcd(m, n) > 1`.
//!
//! Equivalently (Theorem 1), R2C transposes *column-major* arrays — and by
//! Theorem 2's dimension swap it transposes row-major arrays too, which is
//! how [`crate::transpose`] uses it for wide matrices.

use crate::scratch::Scratch;
use crate::{Algorithm, Layout, Plan};

/// Inverse-transpose an `n x m` row-major buffer in place, producing the
/// `m x n` row-major result; exactly undoes [`crate::c2r::c2r`]`(data, m, n)`.
///
/// Note the parameter convention: `m` and `n` describe the *output* view,
/// matching the C2R call this inverts (and the paper's parameterization).
///
/// ```
/// use ipt_core::{c2r, r2c, Scratch};
///
/// let mut a: Vec<u32> = (0..12).collect();
/// let mut s = Scratch::new();
/// c2r(&mut a, 3, 4, &mut s);
/// r2c(&mut a, 3, 4, &mut s); // exact inverse
/// assert_eq!(a, (0..12).collect::<Vec<u32>>());
/// ```
///
/// # Panics
///
/// Panics if `data.len() != m * n`.
pub fn r2c<T: Copy>(data: &mut [T], m: usize, n: usize, scratch: &mut Scratch<T>) {
    let plan = Plan::new(data.len(), n, m, Layout::RowMajor, Algorithm::R2c);
    crate::run(data, &plan, scratch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c2r::c2r;
    use crate::check::{fill_pattern, is_transposed_pattern};

    fn sizes() -> Vec<(usize, usize)> {
        let mut v = Vec::new();
        for m in 1..=10 {
            for n in 1..=10 {
                v.push((m, n));
            }
        }
        v.extend_from_slice(&[
            (3, 8),
            (8, 3),
            (4, 8),
            (16, 24),
            (17, 19),
            (1, 64),
            (64, 1),
            (32, 32),
            (100, 64),
            (81, 27),
        ]);
        v
    }

    #[test]
    fn r2c_inverts_c2r() {
        let mut s = Scratch::new();
        for (m, n) in sizes() {
            let mut a = vec![0u64; m * n];
            fill_pattern(&mut a);
            let orig = a.clone();
            c2r(&mut a, m, n, &mut s);
            r2c(&mut a, m, n, &mut s);
            assert_eq!(a, orig, "{m}x{n}");
        }
    }

    #[test]
    fn c2r_inverts_r2c() {
        let mut s = Scratch::new();
        for (m, n) in sizes() {
            let mut a = vec![0u32; m * n];
            fill_pattern(&mut a);
            let orig = a.clone();
            r2c(&mut a, m, n, &mut s);
            c2r(&mut a, m, n, &mut s);
            assert_eq!(a, orig, "{m}x{n}");
        }
    }

    #[test]
    fn r2c_transposes_with_swapped_params() {
        // Theorem 2: r2c(data, n, m) transposes a row-major m x n buffer.
        let mut s = Scratch::new();
        for (m, n) in sizes() {
            let mut a = vec![0u64; m * n];
            fill_pattern(&mut a);
            r2c(&mut a, n, m, &mut s);
            assert!(
                is_transposed_pattern(&a, m, n, Layout::RowMajor),
                "{m}x{n} via r2c"
            );
        }
    }

    #[test]
    fn fig1_example_both_directions() {
        // Figure 1 (m = 3, n = 8): the matrix 0..23 and the matrix with
        // rows [0,3,..,21], [1,4,..,22], [2,5,..,23] map to each other
        // under R2C (left-to-right) and C2R (right-to-left).
        let fig_left: Vec<u32> = (0..24).collect();
        let fig_right: Vec<u32> = (0..3)
            .flat_map(|r| (0..8).map(move |k| r + 3 * k))
            .collect();
        let mut s = Scratch::new();

        let mut a = fig_left.clone();
        r2c(&mut a, 3, 8, &mut s);
        assert_eq!(a, fig_right, "Rows to Columns");

        let mut b = fig_right;
        c2r(&mut b, 3, 8, &mut s);
        assert_eq!(b, fig_left, "Columns to Rows");
    }

    #[test]
    fn degenerate_shapes_are_noops() {
        let mut s = Scratch::new();
        let mut a: Vec<u8> = (0..9).collect();
        let orig = a.clone();
        r2c(&mut a, 1, 9, &mut s);
        assert_eq!(a, orig);
        r2c(&mut a, 9, 1, &mut s);
        assert_eq!(a, orig);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn wrong_len_panics() {
        let mut a = vec![0u8; 5];
        r2c(&mut a, 2, 4, &mut Scratch::new());
    }
}
