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

use crate::recover;
use crate::row_grain;
use ipt_core::index::C2rParams;
use ipt_core::kernels::faulty;
use ipt_core::kernels::{self, RowShuffleKernel, ShuffleDirection};
use ipt_pool::{Local, PoolError, Scratch};

/// Parallel row shuffle with an explicit kernel and direction: the
/// work-distribution core every public row-shuffle entry point shares.
///
/// Rows are `n`-element blocks of the row-major buffer; each worker
/// stages its current row in a per-worker [`Scratch`] (the §4.5
/// "on-chip" analogue) and applies the kernel's per-row permutation.
///
/// With recovery armed (`IPT_RETRY > 0`) each row snapshots itself into
/// the op's journal before the kernel touches it; on the escalation
/// ladder's degraded rungs the requested kernel is pinned back to the
/// scalar reference kernel, and the final rung re-gathers the pending
/// rows sequentially through `d'` / `d'^-1` directly.
pub fn row_shuffle_parallel_with<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    p: &C2rParams,
    kernel: RowShuffleKernel,
    dir: ShuffleDirection,
) -> Result<(), PoolError> {
    let n = p.n;
    let rows = data.len() / n.max(1);
    recover::run_op(
        data,
        rows,
        |data, journal, degraded| {
            let kernel = if degraded {
                RowShuffleKernel::Scalar
            } else {
                kernel
            };
            ipt_pool::par_chunks_exact_mut(
                data,
                n,
                row_grain(n),
                Local::<Scratch<T>>::take,
                |tmp, i, row| {
                    if journal.is_some_and(|j| j.is_done(i)) {
                        return;
                    }
                    faulty::maybe_panic("row_shuffle", i);
                    if let Some(j) = journal {
                        j.begin_block(i, i * n, row);
                    }
                    kernel.apply_row(p, i, tmp.copy_of(row), row, dir);
                    if let Some(j) = journal {
                        j.commit(i);
                    }
                },
            )
        },
        |data, i| {
            // Sequential reference redo: the plain gather form of the
            // shuffle, no kernel dispatch, no fault sites.
            let row = &mut data[i * n..(i + 1) * n];
            let gathered: Vec<T> = (0..n)
                .map(|j| match dir {
                    ShuffleDirection::Inverse => row[p.d_inv(i, j)],
                    ShuffleDirection::Forward => row[p.d(i, j)],
                })
                .collect();
            row.copy_from_slice(&gathered);
        },
    )
}

/// Parallel row shuffle with the **scalar incremental** kernel:
/// `scatter` selects the direction — the C2R shuffle scatters with `d'`
/// (equivalent to gathering with `d'^-1`), the R2C shuffle gathers with
/// `d'` directly (§4.3). Kept as the fixed-kernel entry point for tests
/// and ablations; the dispatched paths are [`row_shuffle_parallel`] /
/// [`row_shuffle_forward_parallel`].
pub fn row_shuffle_incremental<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    p: &C2rParams,
    scatter: bool,
) -> Result<(), PoolError> {
    let dir = if scatter {
        ShuffleDirection::Inverse
    } else {
        ShuffleDirection::Forward
    };
    row_shuffle_parallel_with(data, p, RowShuffleKernel::Scalar, dir)
}

/// Parallel C2R row shuffle: row `i` becomes `row[j] = old[d'^-1_i(j)]`
/// (Eq. 31), with the kernel chosen by [`kernels::select`]
/// (`IPT_KERNEL` override, else the static table). The selection is
/// recorded once per pass in [`ipt_pool::stats`]'s hit counters.
pub fn row_shuffle_parallel<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    p: &C2rParams,
) -> Result<(), PoolError> {
    let kernel = kernels::select(p);
    ipt_pool::stats::record_kernel(kernel.name());
    row_shuffle_parallel_with(data, p, kernel, ShuffleDirection::Inverse)
}

/// Parallel R2C row shuffle: gather with `d'_i` directly (§4.3), with
/// the same [`kernels::select`] dispatch and hit recording as
/// [`row_shuffle_parallel`].
pub fn row_shuffle_forward_parallel<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    p: &C2rParams,
) -> Result<(), PoolError> {
    let kernel = kernels::select(p);
    ipt_pool::stats::record_kernel(kernel.name());
    row_shuffle_parallel_with(data, p, kernel, ShuffleDirection::Forward)
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
