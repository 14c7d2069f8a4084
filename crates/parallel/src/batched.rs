//! Batched transposition: many same-shape matrices in one call.
//!
//! Workloads like multi-channel images, attention heads or per-timestep
//! state often hold a contiguous run of `batch` matrices (heads) of
//! identical shape. A batch runs as the element path on the stack of its
//! heads: the plan and its `C2rParams` (gcd structure, modular inverses,
//! strength-reduced reciprocals) are resolved **once**, and each pass is
//! one dispatch over every head — the column passes one task per head
//! and column group, the row shuffle one task per row of the stack. So a
//! batched call is recorded, faulted, checked and recovered under the
//! element path's pass names. A stack never takes the tiled route.

use std::mem::size_of;

use crate::{elements, Plan, Route, TransposeAborted};
use ipt_core::{shape_len, Algorithm, Layout};

/// C2R-transpose `batch` contiguous `m x n` row-major matrices in place;
/// each becomes its `n x m` row-major transpose.
///
/// ```
/// use ipt_parallel::batched::c2r_batched;
///
/// // Two 2 x 3 matrices back to back.
/// let mut data = vec![1, 2, 3, 4, 5, 6,   7, 8, 9, 10, 11, 12];
/// c2r_batched(&mut data, 2, 2, 3).unwrap();
/// assert_eq!(&data[..6], &[1, 4, 2, 5, 3, 6]);
/// assert_eq!(&data[6..], &[7, 10, 8, 11, 9, 12]);
/// ```
///
/// # Panics
///
/// Panics if `data.len() != batch * m * n`.
pub fn c2r_batched<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    batch: usize,
    m: usize,
    n: usize,
) -> Result<(), TransposeAborted> {
    run(data, batch, (m, n), Layout::RowMajor, Algorithm::C2r)
}

/// R2C-transpose `batch` contiguous matrices: the inverse of
/// [`c2r_batched`] with the same parameters (each chunk is an `n x m`
/// row-major matrix and becomes `m x n`).
pub fn r2c_batched<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    batch: usize,
    m: usize,
    n: usize,
) -> Result<(), TransposeAborted> {
    run(data, batch, (n, m), Layout::RowMajor, Algorithm::R2c)
}

/// Transpose `batch` contiguous `rows x cols` matrices of the given
/// layout in place, with the §5.2 direction heuristic.
pub fn transpose_batched<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    batch: usize,
    rows: usize,
    cols: usize,
    layout: Layout,
) -> Result<(), TransposeAborted> {
    run(data, batch, (rows, cols), layout, Algorithm::Auto)
}

/// Check that `data` holds `batch` `rows x cols` matrices, resolve one
/// matrix's plan ([`Plan::stacked`]), and run its element path on the
/// stack of `batch` heads.
fn run<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    batch: usize,
    (rows, cols): (usize, usize),
    layout: Layout,
    algorithm: Algorithm,
) -> Result<(), TransposeAborted> {
    let len = shape_len(rows, cols);
    assert_eq!(
        data.len(),
        shape_len(batch, len),
        "buffer must hold `batch` {rows} x {cols} matrices"
    );
    let core = ipt_core::Plan::new(len, rows, cols, layout, algorithm);
    match Plan::stacked(core, size_of::<T>()).route {
        Route::Elements { params, w, h } if batch > 0 => {
            elements(data, core.direction, &params, w, h, batch)
        }
        _ => Ok(()), // no heads, or heads that are vectors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipt_core::check::{fill_pattern, reference_transpose};
    use ipt_core::Scratch;

    #[test]
    fn batched_equals_per_matrix_transpose() {
        crate::force_multithreaded_pool();
        let (batch, m, n) = (7usize, 6usize, 10usize);
        let mut a = vec![0u64; batch * m * n];
        fill_pattern(&mut a);
        let mut want = a.clone();
        let mut s = Scratch::new();
        for mat in want.chunks_exact_mut(m * n) {
            ipt_core::c2r(mat, m, n, &mut s);
        }
        c2r_batched(&mut a, batch, m, n).unwrap();
        assert_eq!(a, want);
    }

    #[test]
    fn batched_round_trip() {
        crate::force_multithreaded_pool();
        let (batch, m, n) = (5usize, 9usize, 12usize);
        let mut a = vec![0u32; batch * m * n];
        fill_pattern(&mut a);
        let orig = a.clone();
        c2r_batched(&mut a, batch, m, n).unwrap();
        r2c_batched(&mut a, batch, m, n).unwrap();
        assert_eq!(a, orig);
    }

    #[test]
    fn heuristic_wrapper_both_layouts() {
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            let (batch, rows, cols) = (4usize, 8usize, 5usize);
            let mut a = vec![0u64; batch * rows * cols];
            fill_pattern(&mut a);
            let want: Vec<u64> = a
                .chunks_exact(rows * cols)
                .flat_map(|mat| reference_transpose(mat, rows, cols, layout))
                .collect();
            transpose_batched(&mut a, batch, rows, cols, layout).unwrap();
            assert_eq!(a, want, "{layout:?}");
        }
    }

    #[test]
    fn degenerate_batches() {
        let mut empty: Vec<u8> = vec![];
        transpose_batched(&mut empty, 0, 3, 4, Layout::RowMajor).unwrap();
        let mut vecs: Vec<u8> = (0..12).collect();
        let orig = vecs.clone();
        transpose_batched(&mut vecs, 4, 1, 3, Layout::RowMajor).unwrap(); // 1 x 3: no-op per matrix
        assert_eq!(vecs, orig);
    }

    #[test]
    #[should_panic(expected = "batch")]
    fn wrong_batch_len_panics() {
        let mut a = vec![0u8; 10];
        let _ = c2r_batched(&mut a, 2, 2, 3);
    }

    #[test]
    fn overflowing_batch_shapes_panic() {
        let big = 1usize << (usize::BITS - 1);
        // The per-matrix product and the batch product both overflow
        // before any pass runs.
        for (batch, m, n) in [(2usize, big, 2usize), (big, 2, 1)] {
            let err =
                std::panic::catch_unwind(|| c2r_batched::<u8>(&mut [], batch, m, n)).unwrap_err();
            let msg = err.downcast_ref::<String>().unwrap();
            assert!(
                msg.contains("overflows usize"),
                "{batch} x {m} x {n}: {msg}"
            );
        }
    }
}
