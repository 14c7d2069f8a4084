//! The ideal out-of-place transpose: each element read once, written once.
//!
//! The paper's throughput metric (Eq. 37, `2*m*n*s / t`) is normalized to
//! this ideal. The harnesses use it both as the speed-of-light reference
//! and as a correctness oracle for large randomized inputs.

use ipt_core::shape_len;
use ipt_core::Layout;

/// Out-of-place transpose into a fresh allocation.
///
/// Input `rows x cols` in `layout`; output `cols x rows` in the same
/// layout.
pub fn transpose_out_of_place<T: Copy>(
    data: &[T],
    rows: usize,
    cols: usize,
    layout: Layout,
) -> Vec<T> {
    ipt_core::check::reference_transpose(data, rows, cols, layout)
}

/// Out-of-place transpose of a row-major `m x n` source into a
/// caller-provided `n x m` destination (no allocation) — the form the
/// benchmark loops use. Written as a gather over the destination so writes
/// are sequential.
///
/// # Panics
///
/// Panics if the buffer lengths don't match `m * n`.
pub fn transpose_into<T: Copy>(src: &[T], dst: &mut [T], m: usize, n: usize) {
    assert_eq!(src.len(), shape_len(m, n), "src length must be m * n");
    assert_eq!(dst.len(), shape_len(m, n), "dst length must be m * n");
    for j in 0..n {
        let out_row = &mut dst[j * m..(j + 1) * m];
        for (i, slot) in out_row.iter_mut().enumerate() {
            *slot = src[i * n + j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipt_core::check::fill_pattern;

    #[test]
    fn matches_core_reference() {
        let (m, n) = (9usize, 13usize);
        let mut a = vec![0u64; m * n];
        fill_pattern(&mut a);
        let t = transpose_out_of_place(&a, m, n, Layout::RowMajor);
        assert_eq!(
            t,
            ipt_core::check::reference_transpose(&a, m, n, Layout::RowMajor)
        );
    }

    #[test]
    fn transpose_into_matches_allocating_version() {
        let (m, n) = (7usize, 11usize);
        let mut a = vec![0u32; m * n];
        fill_pattern(&mut a);
        let want = transpose_out_of_place(&a, m, n, Layout::RowMajor);
        let mut dst = vec![0u32; m * n];
        transpose_into(&a, &mut dst, m, n);
        assert_eq!(dst, want);
    }

    #[test]
    #[should_panic(expected = "dst length")]
    fn mismatched_dst_panics() {
        let src = vec![0u8; 6];
        let mut dst = vec![0u8; 5];
        transpose_into(&src, &mut dst, 2, 3);
    }
}
