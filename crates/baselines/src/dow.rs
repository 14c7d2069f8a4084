//! Dow-style block transposition for divisible shapes.
//!
//! A classical special-case algorithm (M. Dow, *Transposing a matrix on a
//! vector computer*, Parallel Computing 21, 1995): when one dimension
//! divides the other, the matrix is a strip of square blocks — squares
//! transpose in place by pairwise swap, and the blocks themselves reorder
//! with a single chunk-grid transpose. Two passes, no index algebra.
//!
//! Included as a third published-family baseline: it is fast but only
//! applies when `m % n == 0` or `n % m == 0` (≈ none of a random
//! workload), illustrating why the paper's fully general decomposition
//! matters. The benches run it on compatible shapes only.

use crate::bitset::BitSet;
use crate::tiled::chunk_transpose;
use ipt_core::shape_len;

/// Whether [`transpose_dow`] supports an `m x n` shape.
pub fn dow_supports(m: usize, n: usize) -> bool {
    m > 0 && n > 0 && (m % n == 0 || n % m == 0)
}

/// In-place transpose of a row-major `m x n` matrix where one dimension
/// divides the other. Returns the auxiliary bytes used (mark bits + one
/// chunk buffer).
///
/// # Panics
///
/// Panics if the shape is unsupported (check [`dow_supports`]) or the
/// buffer length mismatches.
pub fn transpose_dow<T: Copy>(data: &mut [T], m: usize, n: usize) -> usize {
    assert_eq!(data.len(), shape_len(m, n), "buffer length must be m * n");
    assert!(
        dow_supports(m, n),
        "Dow requires m | n or n | m (got {m} x {n})"
    );
    if m <= 1 || n <= 1 {
        return 0;
    }
    let mut marks = BitSet::new(0);
    if n % m == 0 {
        // Wide: q square m x m blocks side by side.
        let q = n / m;
        // Pass 1: transpose each block in place; block j's element (i, k)
        // lives at i*n + j*m + k.
        for j in 0..q {
            for i in 0..m {
                for k in (i + 1)..m {
                    data.swap(i * n + j * m + k, k * n + j * m + i);
                }
            }
        }
        // Pass 2: the m x q grid of m-element sub-rows transposes so the
        // blocks stack vertically.
        let mut buf = vec![data[0]; m];
        let aux = chunk_transpose(data, m, q, m, &mut buf, &mut marks);
        aux + m * core::mem::size_of::<T>()
    } else {
        // Tall: q square n x n blocks stacked; each block is contiguous.
        let q = m / n;
        for block in data.chunks_exact_mut(n * n) {
            for i in 0..n {
                for k in (i + 1)..n {
                    block.swap(i * n + k, k * n + i);
                }
            }
        }
        // Interleave block rows: q x n grid of n-chunks transposes.
        let mut buf = vec![data[0]; n];
        let aux = chunk_transpose(data, q, n, n, &mut buf, &mut marks);
        aux + n * core::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipt_core::check::{fill_pattern, is_transposed_pattern};
    use ipt_core::Layout;

    #[test]
    fn wide_shapes() {
        for (m, q) in [(2usize, 3usize), (4, 1), (4, 4), (5, 7), (8, 2), (16, 3)] {
            let n = m * q;
            let mut a = vec![0u64; m * n];
            fill_pattern(&mut a);
            transpose_dow(&mut a, m, n);
            assert!(is_transposed_pattern(&a, m, n, Layout::RowMajor), "{m}x{n}");
        }
    }

    #[test]
    fn tall_shapes() {
        for (n, q) in [(2usize, 3usize), (3, 5), (8, 2), (7, 7)] {
            let m = n * q;
            let mut a = vec![0u32; m * n];
            fill_pattern(&mut a);
            transpose_dow(&mut a, m, n);
            assert!(is_transposed_pattern(&a, m, n, Layout::RowMajor), "{m}x{n}");
        }
    }

    #[test]
    fn square_is_supported() {
        let mut a = vec![0u16; 9 * 9];
        fill_pattern(&mut a);
        transpose_dow(&mut a, 9, 9);
        assert!(is_transposed_pattern(&a, 9, 9, Layout::RowMajor));
    }

    #[test]
    fn support_predicate() {
        assert!(dow_supports(4, 12));
        assert!(dow_supports(12, 4));
        assert!(dow_supports(5, 5));
        assert!(!dow_supports(4, 6));
        assert!(!dow_supports(7, 13));
        assert!(!dow_supports(0, 3));
    }

    #[test]
    fn agrees_with_core_on_supported_shapes() {
        for (m, n) in [(6usize, 18usize), (18, 6), (10, 10), (3, 21)] {
            let mut a = vec![0u64; m * n];
            fill_pattern(&mut a);
            let mut b = a.clone();
            transpose_dow(&mut a, m, n);
            ipt_core::c2r(&mut b, m, n, &mut ipt_core::Scratch::new());
            assert_eq!(a, b, "{m}x{n}");
        }
    }

    #[test]
    #[should_panic(expected = "Dow requires")]
    fn incompatible_shape_panics() {
        let mut a = vec![0u8; 6 * 10];
        transpose_dow(&mut a, 6, 10);
    }
}
