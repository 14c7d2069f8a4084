//! The column-group executor (paper §5.1, §4.6–4.7, §6.1).
//!
//! Every column step of the decomposition — the pre-rotation (Eq. 23),
//! the column shuffle (Eq. 26), its R2C inverse (Eqs. 32–35) and the
//! post-rotation (Eq. 36) — is one gather `dst[i][j] = old[src(i, j)][j]`
//! that keeps each element in its column. So the columns split into
//! disjoint groups of `w` adjacent columns, and each group is one task.
//! [`run_column_groups`] owns everything around a task's body:
//!
//! 1. skip the task when the journal already committed it;
//! 2. the panic fault site `faulty::maybe_panic(site, g)`;
//! 3. the checked-mode claim of the group's columns;
//! 4. the journal snapshot of the group, when recovery is armed;
//! 5. the body, through a [`Group`] handle whose writes pass the skew
//!    fault site `faulty::skew_column(site, …)`;
//! 6. the commit.
//!
//! It also owns the [`CheckScope`], the per-worker state and the
//! recovery ladder ([`recover::run_op`]). The ladder's last rung redoes a
//! pending group sequentially from the pass's gather formula `src`
//! ([`recover::redo_col_gather`]), so a pass states *what* it computes
//! once and the cache-aware body only states *how*.
//!
//! [`stage_column_blocks`] is the public §6.1 form: each group is copied
//! into a worker-local block, transformed there by a caller closure, and
//! written back.

use crate::unsafe_slice::{CheckScope, UnsafeSlice};
use crate::{assert_shape, group_grain, recover};
use ipt_core::kernels::faulty;
use ipt_pool::{PoolError, Scratch};

/// One column group's view of an `m x n` row-major matrix: all rows,
/// columns `[j0, j0 + gw)`, addressed as `(row, k)` with `k` the column
/// offset inside the group.
///
/// The executor claimed exactly these cells for the task before handing
/// the handle out, so the accessors' safety contract is only that
/// `row < m` and that `k` (or a run starting at `k = 0`) stays below
/// `gw`.
#[derive(Clone, Copy)]
pub(crate) struct Group<'a, T> {
    us: UnsafeSlice<'a, T>,
    site: &'static str,
    n: usize,
    m: usize,
    j0: usize,
    gw: usize,
}

impl<T: Copy> Group<'_, T> {
    /// Rows of the matrix.
    #[inline]
    pub(crate) fn m(&self) -> usize {
        self.m
    }

    /// The group's first column.
    #[inline]
    pub(crate) fn j0(&self) -> usize {
        self.j0
    }

    /// The group's width.
    #[inline]
    pub(crate) fn gw(&self) -> usize {
        self.gw
    }

    #[inline]
    fn at(&self, row: usize, k: usize) -> usize {
        row * self.n + self.j0 + k
    }

    /// Read cell `(row, k)`.
    ///
    /// # Safety
    ///
    /// `row < m` and `k < gw`.
    #[inline]
    pub(crate) unsafe fn get(&self, row: usize, k: usize) -> T {
        // SAFETY: inside the group this task claimed (caller contract).
        unsafe { self.us.get(self.at(row, k)) }
    }

    /// Write cell `(row, k)`. This is a skew fault site: under injection
    /// the write may land in a column outside the group (still inside the
    /// buffer), which the checker must catch.
    ///
    /// # Safety
    ///
    /// `row < m` and `k < gw`.
    #[inline]
    pub(crate) unsafe fn set(&self, row: usize, k: usize, v: T) {
        let j = faulty::skew_column(self.site, self.j0 + k, self.j0, self.gw, self.n);
        // SAFETY: inside the group (caller contract); a skewed column is
        // still below n, so the index stays inside the buffer.
        unsafe { self.us.set(row * self.n + j, v) }
    }

    /// Copy the first `out.len()` cells of sub-row `row` into `out`.
    ///
    /// # Safety
    ///
    /// `row < m` and `out.len() <= gw`.
    #[inline]
    pub(crate) unsafe fn read_run(&self, row: usize, out: &mut [T]) {
        // SAFETY: one sub-row of the claimed group (caller contract).
        unsafe { self.us.read_run(self.at(row, 0), out) }
    }

    /// Store `run` over the first `run.len()` cells of sub-row `row`. A
    /// skew fault site like [`set`](Self::set): a skewed run is written
    /// cell by cell from the skewed column, wrapping inside the row.
    ///
    /// # Safety
    ///
    /// `row < m` and `run.len() <= gw`.
    #[inline]
    pub(crate) unsafe fn write_run(&self, row: usize, run: &[T]) {
        let j = faulty::skew_column(self.site, self.j0, self.j0, self.gw, self.n);
        if j == self.j0 {
            // SAFETY: one sub-row of the claimed group (caller contract).
            unsafe { self.us.write_run(self.at(row, 0), run) }
        } else {
            for (k, &v) in run.iter().enumerate() {
                // SAFETY: the column is reduced mod n, so the index stays
                // inside row `row` of the buffer.
                unsafe { self.us.set(row * self.n + (j + k) % self.n, v) }
            }
        }
    }
}

/// Run one column pass over an `m x n` row-major matrix: `body(state,
/// group)` for every group of `w` columns, groups in parallel, `state`
/// built by `init` once per worker and reused across its groups.
///
/// `body` must leave the group equal to the gather `dst[i][j] =
/// old[src(i, j)][j]` (`src(i, j) < m`): the recovery ladder redoes a
/// pending group from that formula. `site` names the pass's fault sites,
/// and `what` describes it for checked-mode violation messages.
pub(crate) fn run_column_groups<T, S>(
    data: &mut [T],
    (m, n, w): (usize, usize, usize),
    (site, what): (&'static str, &str),
    init: impl Fn() -> S + Sync,
    body: impl Fn(&mut S, Group<'_, T>) + Sync,
    src: impl Fn(usize, usize) -> usize,
) -> Result<(), PoolError>
where
    T: Copy + Send + Sync,
{
    assert_shape(data.len(), m, n);
    if m == 0 || n == 0 {
        return Ok(());
    }
    let groups = n.div_ceil(w);
    recover::run_op(
        data,
        groups,
        |data, journal, _degraded| {
            let scope = CheckScope::new(data.len(), n, || {
                format!("{site} ({what}): m={m}, n={n}, group width w={w}")
            });
            let us = UnsafeSlice::new(data, &scope);
            ipt_pool::par_chunks_init(
                0..groups,
                group_grain(m * w),
                || (init(), Scratch::new()),
                |(state, scratch), sub| {
                    for g in sub {
                        if journal.is_some_and(|j| j.is_done(g)) {
                            continue;
                        }
                        faulty::maybe_panic(site, g);
                        let j0 = g * w;
                        let gw = w.min(n - j0);
                        us.claim_columns(g, j0, gw);
                        if let Some(j) = journal {
                            // SAFETY: every snapshot index r*n + j0 + k
                            // (k < gw) is inside the group just claimed.
                            j.begin(scratch, g, (0..m).map(|r| (r * n + j0, gw)), |idx| unsafe {
                                us.get(idx)
                            });
                        }
                        body(
                            state,
                            Group {
                                us,
                                site,
                                n,
                                m,
                                j0,
                                gw,
                            },
                        );
                        if let Some(j) = journal {
                            j.commit(g);
                        }
                    }
                },
            )
        },
        |data, g| recover::redo_col_gather(data, m, n, w, g, &src),
    )
}

/// Process disjoint column blocks of a row-major `m x n` matrix in
/// parallel through worker-local copies — the "on-chip" fused column
/// operations of paper §6.1.
///
/// For each block of `w` columns starting at `j0`, the block's `m x gw`
/// submatrix is copied (one sub-row run per row) into a worker-local
/// row-major buffer, `f(j0, block, gw, scratch)` transforms it in place
/// (with an equally sized scratch buffer for out-of-place steps), and
/// the result is stored back. The buffers are created once per worker
/// and reused across its blocks.
///
/// `f` must leave column `j` equal to the gather `dst[i][j] =
/// old[src(i, j)][j]`: the pass runs on the column-group executor, so with
/// recovery armed (`IPT_RETRY`) a faulted block is rolled back and redone
/// from `src`. `site` names the pass's fault sites and appears in
/// checked-mode violation messages.
///
/// ```
/// use ipt_parallel::stage_column_blocks;
///
/// // Reverse each column of a 3 x 4 matrix, blocks of 2 columns.
/// let mut a: Vec<u32> = (0..12).collect();
/// stage_column_blocks(
///     &mut a,
///     (3, 4, 2),
///     "doc_reverse",
///     |_j0, block, gw, _scratch| {
///         for k in 0..gw {
///             block.swap(k, 2 * gw + k);
///         }
///     },
///     |i, _j| 2 - i,
/// )
/// .unwrap();
/// assert_eq!(a, [8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3]);
/// ```
pub fn stage_column_blocks<T, F, S>(
    data: &mut [T],
    (m, n, w): (usize, usize, usize),
    site: &'static str,
    f: F,
    src: S,
) -> Result<(), PoolError>
where
    T: Copy + Send + Sync,
    F: Fn(usize, &mut [T], usize, &mut [T]) + Sync,
    S: Fn(usize, usize) -> usize,
{
    assert_shape(data.len(), m, n);
    let Some(&fill) = data.first() else {
        return Ok(());
    };
    run_column_groups(
        data,
        (m, n, w),
        (site, "§6.1 staged column blocks"),
        || (vec![fill; m * w], vec![fill; m * w]),
        |(block, scratch), g| {
            let gw = g.gw();
            let block = &mut block[..m * gw];
            for (i, row) in block.chunks_exact_mut(gw).enumerate() {
                // SAFETY: row i < m, run width gw.
                unsafe { g.read_run(i, row) };
            }
            f(g.j0(), block, gw, &mut scratch[..m * gw]);
            for (i, row) in block.chunks_exact(gw).enumerate() {
                // SAFETY: as above.
                unsafe { g.write_run(i, row) };
            }
        },
        src,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipt_core::check::fill_pattern;

    #[test]
    fn column_blocks_visit_every_column_once() {
        crate::force_multithreaded_pool();
        let (m, n) = (5usize, 17usize);
        let mut a = vec![0u32; m * n];
        fill_pattern(&mut a);
        let orig = a.clone();
        // Reverse each block column-locally (the gather i -> m-1-i) and
        // check the global effect covers every column exactly once.
        stage_column_blocks(
            &mut a,
            (m, n, 4),
            "test_blocks",
            |_, block, gw, scratch| {
                scratch.copy_from_slice(block);
                for i in 0..m {
                    let (dst, src) = (i * gw, (m - 1 - i) * gw);
                    block[dst..dst + gw].copy_from_slice(&scratch[src..src + gw]);
                }
            },
            |i, _| m - 1 - i,
        )
        .unwrap();
        for i in 0..m {
            for j in 0..n {
                assert_eq!(a[i * n + j], orig[(m - 1 - i) * n + j], "({i},{j})");
            }
        }
    }

    #[test]
    fn column_blocks_can_permute_within_block() {
        crate::force_multithreaded_pool();
        // Rotate column j of each block left by j: a per-column amount,
        // so blocks see their own j0.
        let (m, n) = (4usize, 10usize);
        let mut a = vec![0u16; m * n];
        fill_pattern(&mut a);
        let orig = a.clone();
        stage_column_blocks(
            &mut a,
            (m, n, 3),
            "test_blocks",
            |j0, block, gw, scratch| {
                scratch.copy_from_slice(block);
                for i in 0..m {
                    for k in 0..gw {
                        block[i * gw + k] = scratch[((i + j0 + k) % m) * gw + k];
                    }
                }
            },
            |i, j| (i + j) % m,
        )
        .unwrap();
        for i in 0..m {
            for j in 0..n {
                assert_eq!(a[i * n + j], orig[((i + j) % m) * n + j], "({i},{j})");
            }
        }
    }
}
