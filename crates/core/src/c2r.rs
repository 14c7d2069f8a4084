//! The Columns-to-Rows in-place transpose (paper §3, Algorithm 1).
//!
//! `c2r` consumes an `m x n` **row-major** buffer and leaves the `n x m`
//! row-major transpose in the same storage (Theorem 1). Three passes, each
//! a set of independent row or column permutations:
//!
//! 1. pre-rotate columns (only when `gcd(m, n) > 1`) — Eq. 23,
//! 2. shuffle within each row — Eqs. 24/31,
//! 3. shuffle within each column — Eq. 26.
//!
//! Worst-case data movement is 6 reads+writes per element, which is the
//! `O(mn)` optimum class with `O(max(m, n))` auxiliary space (Theorem 6).

use crate::index::C2rParams;
use crate::permute;
use crate::scratch::Scratch;
use crate::{shape_len, Algorithm, Layout, Plan};

/// Transpose an `m x n` row-major buffer in place; the result is the
/// `n x m` row-major transpose occupying the same slice.
///
/// `scratch` is grown to `max(m, n)` elements and may be reused across
/// calls. Uses the all-gather formulation (§5.1) with the direct
/// column shuffle of Algorithm 1; the row shuffle runs through the
/// [`crate::kernels`] dispatcher (scalar or run-blocked per shape).
///
/// ```
/// use ipt_core::{c2r, Scratch};
///
/// // 2 x 3 row-major [[1, 2, 3], [4, 5, 6]] -> 3 x 2 [[1, 4], [2, 5], [3, 6]].
/// let mut a = vec![1, 2, 3, 4, 5, 6];
/// c2r(&mut a, 2, 3, &mut Scratch::new());
/// assert_eq!(a, [1, 4, 2, 5, 3, 6]);
/// ```
///
/// # Panics
///
/// Panics if `data.len() != m * n`.
pub fn c2r<T: Copy>(data: &mut [T], m: usize, n: usize, scratch: &mut Scratch<T>) {
    let plan = Plan::new(data.len(), m, n, Layout::RowMajor, Algorithm::C2r);
    crate::run(data, &plan, scratch);
}

/// [`c2r`] with the column shuffle decomposed into the restricted
/// primitives of §4.1 (rotation + identical row permutation), the form the
/// cache-aware and SIMD implementations build on.
pub fn c2r_decomposed<T: Copy>(data: &mut [T], m: usize, n: usize, scratch: &mut Scratch<T>) {
    assert_eq!(data.len(), shape_len(m, n), "buffer length must be m * n");
    if m <= 1 || n <= 1 {
        return;
    }
    let p = C2rParams::new(m, n);
    let tmp = scratch.ensure(m.max(n), data[0]);
    permute::prerotate_cycles(data, &p);
    permute::row_shuffle_gather(data, &p, tmp);
    permute::col_shuffle_decomposed(data, &p, tmp);
}

/// [`c2r`] transcribed literally from Algorithm 1 (scatter row shuffle,
/// scratch-buffer rotation) — the reference the optimized variants are
/// tested against.
pub fn c2r_literal<T: Copy>(data: &mut [T], m: usize, n: usize, scratch: &mut Scratch<T>) {
    assert_eq!(data.len(), shape_len(m, n), "buffer length must be m * n");
    if m <= 1 || n <= 1 {
        return;
    }
    let p = C2rParams::new(m, n);
    let tmp = scratch.ensure(m.max(n), data[0]);
    permute::prerotate_scratch(data, &p, tmp);
    permute::row_shuffle_scatter(data, &p, tmp);
    permute::col_shuffle_gather(data, &p, tmp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{fill_pattern, first_mismatch, is_transposed_pattern, reference_transpose};

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
            (24, 16),
            (17, 19),
            (1, 64),
            (64, 1),
            (32, 32),
            (100, 64),
            (64, 100),
            (81, 27),
            (2, 128),
        ]);
        v
    }

    #[test]
    fn c2r_transposes_row_major() {
        let mut s = Scratch::new();
        for (m, n) in sizes() {
            let mut a = vec![0u64; m * n];
            fill_pattern(&mut a);
            c2r(&mut a, m, n, &mut s);
            assert!(
                is_transposed_pattern(&a, m, n, Layout::RowMajor),
                "{m}x{n}: first mismatch {:?}",
                first_mismatch(
                    &a,
                    &reference_transpose(
                        &{
                            let mut o = vec![0u64; m * n];
                            fill_pattern(&mut o);
                            o
                        },
                        m,
                        n,
                        Layout::RowMajor
                    )
                )
            );
        }
    }

    #[test]
    fn variants_agree() {
        let mut s = Scratch::new();
        for (m, n) in sizes() {
            let mut base = vec![0u32; m * n];
            fill_pattern(&mut base);
            let mut via_plain = base.clone();
            let mut via_decomposed = base.clone();
            let mut via_literal = base;
            c2r(&mut via_plain, m, n, &mut s);
            c2r_decomposed(&mut via_decomposed, m, n, &mut s);
            c2r_literal(&mut via_literal, m, n, &mut s);
            assert_eq!(via_plain, via_decomposed, "{m}x{n} decomposed");
            assert_eq!(via_plain, via_literal, "{m}x{n} literal");
        }
    }

    #[test]
    fn fig1_example_3x8() {
        // Figure 1: the R2C transposition of the 3x8 matrix 0..24 produces
        // rows [0,3,6,...], i.e. C2R applied to that *result* recovers
        // 0..24. Equivalently: C2R of 0..24 viewed 3x8 equals the 8x3
        // transpose pattern.
        let (m, n) = (3usize, 8usize);
        let mut a: Vec<u32> = (0..24).collect();
        c2r(&mut a, m, n, &mut Scratch::new());
        // Transpose of [[0..8], [8..16], [16..24]] is 8x3 with rows
        // [j, j+8, j+16].
        let want: Vec<u32> = (0..8).flat_map(|j| [j, j + 8, j + 16]).collect();
        assert_eq!(a, want);
    }

    #[test]
    fn square_matrices() {
        let mut s = Scratch::new();
        for n in [2usize, 3, 7, 16, 33] {
            let mut a = vec![0u16; n * n];
            fill_pattern(&mut a);
            c2r(&mut a, n, n, &mut s);
            assert!(is_transposed_pattern(&a, n, n, Layout::RowMajor), "{n}x{n}");
        }
    }

    #[test]
    fn degenerate_shapes_are_noops() {
        let mut s = Scratch::new();
        let mut a: Vec<u8> = (0..7).collect();
        let orig = a.clone();
        c2r(&mut a, 1, 7, &mut s);
        assert_eq!(a, orig);
        c2r(&mut a, 7, 1, &mut s);
        assert_eq!(a, orig);
    }

    #[test]
    fn scratch_reuse_across_shapes() {
        let mut s = Scratch::new();
        for (m, n) in [(20usize, 3usize), (3, 20), (11, 13), (6, 6)] {
            let mut a = vec![0i64; m * n];
            fill_pattern(&mut a);
            c2r(&mut a, m, n, &mut s);
            assert!(is_transposed_pattern(&a, m, n, Layout::RowMajor));
        }
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn wrong_len_panics() {
        let mut a = vec![0u8; 7];
        c2r(&mut a, 2, 4, &mut Scratch::new());
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn overflowing_shape_panics() {
        // 2^(bits-1) x 2 wraps to 0 elements, which an empty buffer would
        // match: the checked product refuses the shape instead.
        let big = 1usize << (usize::BITS - 1);
        c2r::<u8>(&mut [], big, 2, &mut Scratch::new());
    }
}
