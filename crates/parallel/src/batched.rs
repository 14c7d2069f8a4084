//! Batched transposition: many same-shape matrices in one call.
//!
//! Workloads like multi-channel images, attention heads or per-timestep
//! state often hold a contiguous run of `batch` matrices of identical
//! shape. Transposing them shares everything the decomposition
//! precomputes — the `C2rParams` (gcd structure, modular inverses,
//! strength-reduced reciprocals) are built **once** — and the batch
//! dimension is embarrassingly parallel, so each worker transposes
//! whole matrices with its own scratch row (kept by the worker thread
//! across calls).

use crate::group_grain;
use crate::recover;
use crate::TransposeAborted;
use ipt_core::index::C2rParams;
use ipt_core::kernels::faulty;
use ipt_core::shape_len;
use ipt_core::{permute, Layout};
use ipt_pool::{Local, Scratch};

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
    assert_eq!(
        data.len(),
        shape_len(batch, shape_len(m, n)),
        "buffer must hold `batch` m x n matrices"
    );
    if m <= 1 || n <= 1 || batch == 0 {
        return Ok(());
    }
    let p = C2rParams::new(m, n);
    let fill = data[0];
    recover::run_op(
        data,
        batch,
        |data, journal, _degraded| {
            ipt_pool::par_chunks_exact_mut(
                data,
                m * n,
                group_grain(m * n),
                Local::<Scratch<T>>::take,
                |tmp, b, mat| {
                    let tmp = tmp.uninit_buf(m.max(n), fill);
                    if journal.is_some_and(|j| j.is_done(b)) {
                        return;
                    }
                    faulty::maybe_panic("batched", b);
                    if let Some(j) = journal {
                        j.begin_block(b, b * m * n, mat);
                    }
                    permute::prerotate_cycles(mat, &p);
                    permute::row_shuffle_gather(mat, &p, tmp);
                    permute::col_shuffle_decomposed(mat, &p, tmp);
                    if let Some(j) = journal {
                        j.commit(b);
                    }
                },
            )
        },
        |data, b| {
            // Redo one matrix on the sequential reference path.
            let mat = &mut data[b * m * n..(b + 1) * m * n];
            let mut tmp = vec![fill; m.max(n)];
            permute::prerotate_cycles(mat, &p);
            permute::row_shuffle_gather(mat, &p, &mut tmp);
            permute::col_shuffle_decomposed(mat, &p, &mut tmp);
        },
    )
    .map_err(|source| TransposeAborted {
        phase: "batched",
        source,
    })
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
    assert_eq!(
        data.len(),
        shape_len(batch, shape_len(m, n)),
        "buffer must hold `batch` matrices"
    );
    if m <= 1 || n <= 1 || batch == 0 {
        return Ok(());
    }
    let p = C2rParams::new(m, n);
    let fill = data[0];
    recover::run_op(
        data,
        batch,
        |data, journal, _degraded| {
            ipt_pool::par_chunks_exact_mut(
                data,
                m * n,
                group_grain(m * n),
                Local::<Scratch<T>>::take,
                |tmp, b, mat| {
                    let tmp = tmp.uninit_buf(m.max(n), fill);
                    if journal.is_some_and(|j| j.is_done(b)) {
                        return;
                    }
                    faulty::maybe_panic("batched", b);
                    if let Some(j) = journal {
                        j.begin_block(b, b * m * n, mat);
                    }
                    permute::row_permute_inverse(mat, &p, tmp);
                    permute::col_rotate_inverse(mat, &p);
                    permute::row_shuffle_gather_forward(mat, &p, tmp);
                    permute::postrotate_inverse(mat, &p);
                    if let Some(j) = journal {
                        j.commit(b);
                    }
                },
            )
        },
        |data, b| {
            // Redo one matrix on the sequential reference path.
            let mat = &mut data[b * m * n..(b + 1) * m * n];
            let mut tmp = vec![fill; m.max(n)];
            permute::row_permute_inverse(mat, &p, &mut tmp);
            permute::col_rotate_inverse(mat, &p);
            permute::row_shuffle_gather_forward(mat, &p, &mut tmp);
            permute::postrotate_inverse(mat, &p);
        },
    )
    .map_err(|source| TransposeAborted {
        phase: "batched",
        source,
    })
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
    assert_eq!(
        data.len(),
        shape_len(batch, shape_len(rows, cols)),
        "buffer must hold `batch` matrices"
    );
    let (m, n) = match layout {
        Layout::RowMajor => (rows, cols),
        Layout::ColMajor => (cols, rows),
    };
    if m > n {
        c2r_batched(data, batch, m, n)
    } else {
        r2c_batched(data, batch, n, m)
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
