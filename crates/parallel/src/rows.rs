//! Parallel row shuffles (paper §5.1, §4.5).
//!
//! Rows of the matrix are contiguous in row-major storage and the row
//! shuffle permutes each row independently, so `ipt_pool`'s contiguous
//! chunk splitting expresses the parallelism safely. Each worker thread
//! keeps its own `n`-element scratch row (its parked
//! [`ipt_pool::Local`] state, reused across calls), which is the CPU
//! analogue of the paper's §4.5 "on-chip" shuffle: the temporary never
//! leaves the worker's cache, and the whole shuffle is a single pass over
//! memory.
//!
//! Per-row index generation is delegated to the
//! [`ipt_core::kernels`] family: [`row_shuffle_parallel`] and
//! [`row_shuffle_forward_parallel`] dispatch through
//! [`ipt_core::kernels::select`] and record the chosen kernel in
//! [`ipt_pool::stats`], while [`row_shuffle_parallel_with`] pins an
//! explicit kernel for tests, benches and ablations.

use crate::exec::run_blocks;
use crate::{assert_shape, phases};
use ipt_core::index::C2rParams;
use ipt_core::kernels::{self, RowShuffleKernel, ShuffleDirection};
use ipt_core::shape_len;
use ipt_pool::PoolError;

/// Parallel row shuffle with an explicit kernel and direction: the
/// work-distribution core every public row-shuffle entry point shares.
///
/// Rows are the `n`-element blocks of the row-major buffer, one executor
/// task each; each worker stages its current row in its parked scratch
/// (the §4.5 "on-chip" analogue) and applies the kernel's per-row
/// permutation. [`ShuffleDirection::Inverse`] is the C2R shuffle (gather
/// with `d'^-1`), [`ShuffleDirection::Forward`] the R2C one (gather with
/// `d'`, §4.3). With recovery armed (`IPT_RETRY > 0`) the ladder's last
/// rung re-gathers each pending row sequentially through `d'` / `d'^-1`
/// directly, bypassing kernel dispatch.
///
/// Panics unless `data` holds the `p.m x p.n` matrix, as every entry
/// point here does.
pub fn row_shuffle_parallel_with<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    p: &C2rParams,
    kernel: RowShuffleKernel,
    dir: ShuffleDirection,
) -> Result<(), PoolError> {
    row_shuffle(data, 1, p, kernel, dir)
}

/// [`row_shuffle_parallel_with`] on every head of a stack of `heads`
/// `p.m x p.n` matrices: row `i` of the stack is row `i mod m` of its
/// head.
pub(crate) fn row_shuffle<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    heads: usize,
    p: &C2rParams,
    kernel: RowShuffleKernel,
    dir: ShuffleDirection,
) -> Result<(), PoolError> {
    assert_shape(data.len(), shape_len(heads, p.m), p.n);
    run_blocks(
        data,
        p.n,
        phases::ROW_SHUFFLE,
        |tmp, i, row| kernel.apply_row(p, i % p.m, tmp.copy_of(row), row, dir),
        |tmp, i, row| {
            let (i, old) = (i % p.m, tmp.copy_of(row));
            for (j, v) in row.iter_mut().enumerate() {
                *v = old[match dir {
                    ShuffleDirection::Inverse => p.d_inv(i, j),
                    ShuffleDirection::Forward => p.d(i, j),
                }];
            }
        },
    )
}

/// Parallel C2R row shuffle: row `i` becomes `row[j] = old[d'^-1_i(j)]`
/// (Eq. 31), with the kernel [`kernels::select`] picks from the shape,
/// recorded once per pass in [`ipt_pool::stats`]'s hit counters.
pub fn row_shuffle_parallel<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    p: &C2rParams,
) -> Result<(), PoolError> {
    row_shuffle(data, 1, p, selected(p), ShuffleDirection::Inverse)
}

/// Parallel R2C row shuffle: gather with `d'_i` directly (§4.3), with
/// the same [`kernels::select`] dispatch and hit recording as
/// [`row_shuffle_parallel`].
pub fn row_shuffle_forward_parallel<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    p: &C2rParams,
) -> Result<(), PoolError> {
    row_shuffle(data, 1, p, selected(p), ShuffleDirection::Forward)
}

/// The kernel [`kernels::select`] picks for `p`, recorded in
/// [`ipt_pool::stats`]'s hit counters: once per pass.
pub(crate) fn selected(p: &C2rParams) -> RowShuffleKernel {
    let kernel = kernels::select(p);
    ipt_pool::stats::record_kernel(kernel.name());
    kernel
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipt_core::check::fill_pattern;
    use ipt_core::permute;

    #[test]
    fn parallel_row_shuffle_matches_sequential() {
        // Includes shapes the dispatcher sends to every kernel: coprime
        // (scalar), c = 32 (Block4), c = 64 (Block8), b = 1 (memcpy runs).
        for (m, n) in [
            (4usize, 8usize),
            (7, 13),
            (16, 100),
            (100, 3),
            (96, 64),
            (192, 128),
            (128, 64),
            (64, 128),
        ] {
            let p = C2rParams::new(m, n);
            let mut a = vec![0u64; m * n];
            fill_pattern(&mut a);
            let mut b = a.clone();
            let mut tmp = vec![0u64; n];
            row_shuffle_parallel(&mut a, &p).unwrap();
            permute::row_shuffle_gather(&mut b, &p, &mut tmp);
            assert_eq!(a, b, "{m}x{n}");
        }
    }

    #[test]
    fn parallel_forward_shuffle_matches_sequential() {
        for (m, n) in [(4usize, 8usize), (9, 11), (64, 32), (96, 64), (192, 128)] {
            let p = C2rParams::new(m, n);
            let mut a = vec![0u32; m * n];
            fill_pattern(&mut a);
            let mut b = a.clone();
            let mut tmp = vec![0u32; n];
            row_shuffle_forward_parallel(&mut a, &p).unwrap();
            permute::row_shuffle_gather_forward(&mut b, &p, &mut tmp);
            assert_eq!(a, b, "{m}x{n}");
        }
    }

    #[test]
    fn incremental_matches_fastdiv_gather() {
        for (m, n) in [
            (4usize, 8usize),
            (5, 7),
            (6, 6),
            (3, 9),
            (8, 20),
            (2, 101),
            (101, 2),
            (20, 8),
            (173, 127),
            (500, 3),
        ] {
            let p = C2rParams::new(m, n);
            let mut a = vec![0u64; m * n];
            fill_pattern(&mut a);
            let mut b = a.clone();
            row_shuffle_parallel(&mut a, &p).unwrap();
            permute::row_shuffle_gather(&mut b, &p, &mut vec![0u64; n]);
            assert_eq!(a, b, "{m}x{n}");
        }
    }

    #[test]
    fn incremental_indices_match_fastdiv_indices() {
        // The scalar kernel's incremental recurrence must agree with the
        // closed-form d' for every (i, j), in both directions — including
        // when b == n (coprime) and b == 1.
        for (m, n) in [
            (4usize, 8usize),
            (5, 7),
            (6, 6),
            (3, 9),
            (8, 20),
            (2, 101),
            (101, 2),
            (20, 8),
            (173, 127),
        ] {
            let p = C2rParams::new(m, n);
            let mut tmp = vec![0u64; n];
            for dir in [ShuffleDirection::Inverse, ShuffleDirection::Forward] {
                let mut got = vec![0u64; m * n];
                fill_pattern(&mut got);
                let mut want = got.clone();
                row_shuffle_parallel_with(&mut got, &p, RowShuffleKernel::Scalar, dir).unwrap();
                match dir {
                    ShuffleDirection::Inverse => {
                        permute::row_shuffle_scatter(&mut want, &p, &mut tmp)
                    }
                    ShuffleDirection::Forward => {
                        permute::row_shuffle_gather_forward(&mut want, &p, &mut tmp)
                    }
                }
                assert_eq!(got, want, "{dir:?} {m}x{n}");
            }
        }
    }

    #[test]
    fn a_buffer_a_row_short_is_refused() {
        // 20 elements are 5 rows of a 6 x 4 plan: every row pass refuses
        // them rather than shuffle 5 rows and leave the 6th out.
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let p = C2rParams::new(6, 4);
        type Pass = fn(&mut [u32], &C2rParams) -> Result<(), PoolError>;
        let passes: [(&str, Pass); 3] = [
            ("row_shuffle_parallel", row_shuffle_parallel),
            ("row_shuffle_forward_parallel", row_shuffle_forward_parallel),
            ("row_shuffle_parallel_with", |d, p| {
                row_shuffle_parallel_with(d, p, RowShuffleKernel::Scalar, ShuffleDirection::Inverse)
            }),
        ];
        for (name, pass) in passes {
            let mut a = [0u32; 20];
            let err = catch_unwind(AssertUnwindSafe(|| pass(&mut a, &p))).unwrap_err();
            let msg = err.downcast_ref::<String>().unwrap();
            assert!(
                msg.contains("buffer length must be rows * cols (6 x 4)"),
                "{name}: {msg}"
            );
        }
    }

    #[test]
    fn forward_inverts_backward() {
        let (m, n) = (12usize, 30usize);
        let p = C2rParams::new(m, n);
        let mut a = vec![0u64; m * n];
        fill_pattern(&mut a);
        let orig = a.clone();
        row_shuffle_parallel(&mut a, &p).unwrap();
        row_shuffle_forward_parallel(&mut a, &p).unwrap();
        assert_eq!(a, orig);
    }
}
