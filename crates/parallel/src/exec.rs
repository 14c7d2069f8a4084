//! The task executor (paper §5.1, §4.6–4.7, §6.1).
//!
//! Every pass of the decomposition splits into independent tasks of
//! equal cost, and this module runs them all. It has two forms, one per
//! task shape:
//!
//! * [`run_column_groups`] — every column step (the pre-rotation, Eq.
//!   23; the column shuffle, Eq. 26; its R2C inverse, Eqs. 32–35; the
//!   post-rotation, Eq. 36) is one gather `dst[i][j] = old[src(i, j)][j]`
//!   that keeps each element in its column, so the columns split into
//!   disjoint groups of `w` adjacent columns, one task each;
//! * [`run_blocks`] — the row shuffle (Eqs. 24/31) permutes inside each
//!   row, a batched transpose inside each matrix and the two-level
//!   transpose's chunk pass inside each chunk, so the buffer splits into
//!   contiguous `len`-element blocks, one task each.
//!
//! Both own everything around a task's body:
//!
//! 1. skip the task when the journal already committed it;
//! 2. the panic fault site `faulty::maybe_panic(site, task)`;
//! 3. for column groups, the checked-mode claim of the group's columns
//!    (a block is a `&mut` slice, so it needs none);
//! 4. the journal snapshot of the task, when recovery is armed;
//! 5. the body — for column groups through a [`Group`] handle whose
//!    writes pass the skew fault site `faulty::skew_column(site, …)`;
//! 6. the commit.
//!
//! They also own the per-worker state — each worker thread's parked
//! [`ipt_pool::Local`] value, kept across passes and calls — and the
//! recovery ladder ([`run_op`]). The ladder's last rung redoes each
//! pending task sequentially: a column group from the pass's gather
//! formula `src` ([`redo_col_gather`]), a block through the caller's
//! reference `redo`. So a pass states *what* it computes once and its
//! parallel body only states *how*.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::unsafe_slice::{CheckScope, UnsafeSlice};
use crate::{assert_shape, grain};
use ipt_core::kernels::faulty;
use ipt_pool::recovery::{retry_budget, TaskJournal};
use ipt_pool::{stats, Local, PoolError, Scratch, WorkerState};

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
/// the worker thread's parked `S` (see [`ipt_pool::Local`]), reused
/// across its groups and kept for the next pass; `body` sizes its
/// buffers itself.
///
/// `body` must leave the group equal to the gather `dst[i][j] =
/// old[src(i, j)][j]` (`src(i, j) < m`): the recovery ladder redoes a
/// pending group from that formula. `site` is the pass's
/// [`phases`](crate::phases) name: its fault sites and the label of its
/// checked-mode violation messages.
pub(crate) fn run_column_groups<T, S>(
    data: &mut [T],
    (m, n, w): (usize, usize, usize),
    site: &'static str,
    body: impl Fn(&mut S, Group<'_, T>) + Sync,
    src: impl Fn(usize, usize) -> usize,
) -> Result<(), PoolError>
where
    T: Copy + Send + Sync + 'static,
    S: WorkerState,
{
    assert_shape(data.len(), m, n);
    if m == 0 || n == 0 {
        return Ok(());
    }
    // A group as wide as the matrix is one group: a wider `w` would only
    // overflow the grain and size buffers past the matrix.
    let w = w.min(n);
    let groups = n.div_ceil(w);
    run_op(
        data,
        groups,
        |data, journal| {
            let scope = CheckScope::new(data.len(), n, || {
                format!("{site}: m={m}, n={n}, group width w={w}")
            });
            let us = UnsafeSlice::new(data, &scope);
            ipt_pool::par_chunks_init(
                0..groups,
                grain(m * w),
                Local::<(S, Scratch<T>)>::take,
                |local, sub| {
                    let (state, scratch) = &mut **local;
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
        |data, g| redo_col_gather(data, m, n, w, g, &src),
    )
}

/// Run one pass over the contiguous `len`-element blocks of `data`:
/// `body(scratch, b, block)` for block `b`, blocks in parallel, `scratch`
/// the worker thread's parked [`Scratch`], reused across its blocks and
/// kept for the next pass. `site` is the pass's
/// [`phases`](crate::phases) name, its fault site.
///
/// `redo(scratch, b, block)` must leave the block as `body` does, on the
/// sequential reference path: the recovery ladder's last rung runs it on
/// every pending block after the journal has restored the block's prior
/// bytes. A body with no fault site inside can serve as its own redo.
// A whole pass per call: kept out of line so that which passes share
// this executor cannot move the code around the row kernels' calls
// (EXPERIMENTS.md, "Pinned row kernels").
#[inline(never)]
pub(crate) fn run_blocks<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    len: usize,
    site: &'static str,
    body: impl Fn(&mut Scratch<T>, usize, &mut [T]) + Sync,
    redo: impl Fn(&mut Scratch<T>, usize, &mut [T]),
) -> Result<(), PoolError> {
    let blocks = data.len() / len.max(1);
    run_op(
        data,
        blocks,
        |data, journal| {
            ipt_pool::par_chunks_exact_mut(
                data,
                len,
                grain(len),
                Local::<Scratch<T>>::take,
                |scratch, b, block| {
                    if journal.is_some_and(|j| j.is_done(b)) {
                        return;
                    }
                    faulty::maybe_panic(site, b);
                    if let Some(j) = journal {
                        j.begin_block(b, b * len, block);
                    }
                    body(scratch, b, block);
                    if let Some(j) = journal {
                        j.commit(b);
                    }
                },
            )
        },
        |data, b| redo(&mut Scratch::new(), b, &mut data[b * len..(b + 1) * len]),
    )
}

/// Drive one parallel op through the recovery ladder: undo → retry →
/// sequential redo. `attempt(data, journal)` runs the op's parallel
/// dispatch — journaling and skipping committed tasks when `journal` is
/// `Some` — and `redo(data, task)` re-executes one task sequentially on
/// the reference path after the journal has restored its prior bytes.
///
/// 1. **Attempt 0** — the normal parallel dispatch. With recovery armed
///    (`IPT_RETRY > 0`) each task snapshots itself into the journal
///    before its first write and commits on completion.
/// 2. **Retries 1..=budget** — the journal rewinds every torn (armed but
///    uncommitted) task, then the dispatch re-runs under the same
///    configuration, skipping committed tasks.
/// 3. **Sequential redo** — once the budget is exhausted, the
///    still-pending tasks run one by one through `redo`, which shares no
///    code with the parallel fault surface (no injection sites, no
///    `UnsafeSlice`). A panic even here is caught and surfaced as a
///    contained [`PoolError`] rather than torn data or an abort.
///
/// With `IPT_RETRY=0` (the default) the driver is a transparent
/// passthrough: one attempt, no journal, no snapshots — the
/// first-failure-aborts contract, bit for bit. The ladder runs *per op*:
/// each op gets its own journal and budget, so a later op's failure can
/// never rewind an earlier op's completed work.
fn run_op<T, A, R>(
    data: &mut [T],
    tasks: usize,
    mut attempt: A,
    mut redo: R,
) -> Result<(), PoolError>
where
    T: Copy + Send + Sync,
    A: FnMut(&mut [T], Option<&TaskJournal<T>>) -> Result<(), PoolError>,
    R: FnMut(&mut [T], usize),
{
    let budget = retry_budget();
    if budget == 0 {
        return attempt(data, None);
    }
    let journal = TaskJournal::new(tasks);
    if attempt(data, Some(&journal)).is_ok() {
        return Ok(());
    }
    for _ in 0..budget {
        journal.restore(data);
        stats::record_retry();
        if attempt(data, Some(&journal)).is_ok() {
            stats::record_recovered();
            return Ok(());
        }
    }
    // Budget exhausted: rewind the last failure and re-run whatever never
    // committed on the sequential reference path.
    journal.restore(data);
    stats::record_retry();
    let pending = journal.pending();
    let current = std::cell::Cell::new(pending.first().copied().unwrap_or(0));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        for &t in &pending {
            current.set(t);
            redo(&mut *data, t);
        }
    }));
    match outcome {
        Ok(()) => {
            stats::record_recovered();
            Ok(())
        }
        Err(payload) => Err(PoolError::from_payload(0, current.get(), payload)),
    }
}

/// The sequential redo of one column group: re-derive column group
/// `group`'s columns as the gather `dst[i][j] = old[src(i, j)][j]`, one
/// column at a time through a temporary. Runs single-threaded on plain
/// indexing after the journal has restored the group's prior bytes.
fn redo_col_gather<T: Copy>(
    data: &mut [T],
    m: usize,
    n: usize,
    w: usize,
    group: usize,
    src: impl Fn(usize, usize) -> usize,
) {
    let j0 = group * w;
    let gw = w.min(n - j0);
    if m == 0 || gw == 0 {
        return;
    }
    let mut tmp = vec![data[0]; m];
    for j in j0..j0 + gw {
        for (i, slot) in tmp.iter_mut().enumerate() {
            *slot = data[src(i, j) * n + j];
        }
        for (i, &v) in tmp.iter().enumerate() {
            data[i * n + j] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipt_core::check::fill_pattern;
    use ipt_pool::recovery::{force_retry, unforce_retry};
    use std::cell::Cell;
    use std::sync::{Mutex, MutexGuard};

    /// `force_retry` is process-global; serialize the tests that set it.
    fn retry_lock() -> MutexGuard<'static, ()> {
        static RETRY_LOCK: Mutex<()> = Mutex::new(());
        RETRY_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn synthetic_err() -> PoolError {
        PoolError::from_payload(0, 0, Box::new("synthetic fault".to_string()))
    }

    #[test]
    fn budget_zero_is_a_single_unjournaled_attempt() {
        let _g = retry_lock();
        force_retry(0);
        let calls = Cell::new(0);
        let mut data = [1u32, 2, 3, 4];
        let out = run_op(
            &mut data,
            2,
            |_, journal| {
                calls.set(calls.get() + 1);
                assert!(journal.is_none(), "budget 0 must not journal");
                Err(synthetic_err())
            },
            |_: &mut [u32], _| panic!("budget 0 must never reach the redo rung"),
        );
        unforce_retry();
        assert!(out.is_err());
        assert_eq!(calls.get(), 1);
        assert_eq!(data, [1, 2, 3, 4]);
    }

    #[test]
    fn transient_failure_is_rolled_back_and_retried() {
        let _g = retry_lock();
        force_retry(2);
        // Two tasks, each doubling its half of the buffer; the first
        // attempt dies mid-way through task 1.
        let calls = Cell::new(0);
        let mut data = vec![1u32, 2, 3, 4];
        let out = run_op(
            &mut data,
            2,
            |data, journal| {
                let j = journal.expect("armed run must journal");
                calls.set(calls.get() + 1);
                for t in 0..2 {
                    if j.is_done(t) {
                        continue;
                    }
                    j.begin_block(t, t * 2, &data[t * 2..t * 2 + 2]);
                    data[t * 2] *= 2;
                    if calls.get() == 1 && t == 1 {
                        return Err(synthetic_err()); // torn: half doubled
                    }
                    data[t * 2 + 1] *= 2;
                    j.commit(t);
                }
                Ok(())
            },
            |_: &mut [u32], _| panic!("the retry should succeed first"),
        );
        unforce_retry();
        out.unwrap();
        assert_eq!(calls.get(), 2);
        assert_eq!(data, [2, 4, 6, 8], "torn task rewound, then redone");
    }

    #[test]
    fn exhausted_budget_falls_back_to_sequential_redo() {
        let _g = retry_lock();
        force_retry(1);
        let before = stats::snapshot();
        let mut data = vec![10u32, 20, 30];
        let out = run_op(
            &mut data,
            3,
            |data, journal| {
                let j = journal.unwrap();
                // Task 0 commits; task 1 tears; task 2 never starts —
                // deterministically, on every attempt.
                if !j.is_done(0) {
                    j.begin_block(0, 0, &data[0..1]);
                    data[0] += 1;
                    j.commit(0);
                }
                j.begin_block(1, 1, &data[1..2]);
                data[1] = 999;
                Err(synthetic_err())
            },
            |data, t| data[t] += 1,
        );
        unforce_retry();
        out.unwrap();
        // Task 0's parallel result survives; 1 and 2 are redone cleanly.
        assert_eq!(data, [11, 21, 31]);
        let d = stats::snapshot().delta_since(&before);
        assert!(d.retries_attempted >= 2, "{d:?}");
        assert!(d.recovered >= 1, "{d:?}");
    }

    #[test]
    fn a_panicking_redo_is_contained() {
        let _g = retry_lock();
        force_retry(1);
        let mut data = [0u8; 2];
        let out = run_op(
            &mut data,
            2,
            |_, _| Err(synthetic_err()),
            |_: &mut [u8], _| panic!("redo exploded"),
        );
        unforce_retry();
        let err = out.unwrap_err();
        assert!(err.to_string().contains("redo exploded"), "{err}");
    }

    #[test]
    fn a_block_that_always_faults_is_redone_sequentially() {
        let _g = retry_lock();
        crate::force_multithreaded_pool();
        // Block 1 panics on every parallel attempt; the retry re-faults,
        // so only the last rung — `redo` on the pending block — heals it.
        let orig: Vec<u32> = (0..12).collect();
        let run = |data: &mut [u32]| {
            run_blocks(
                data,
                3,
                crate::phases::BATCHED,
                |_, b, block| {
                    assert_ne!(b, 1, "block 1 always faults");
                    block.reverse();
                },
                |_, _, block| block.reverse(),
            )
        };
        force_retry(0);
        let mut data = orig.clone();
        let aborted = run(&mut data);
        force_retry(1);
        let before = stats::snapshot();
        let mut healed = orig.clone();
        let out = run(&mut healed);
        let d = stats::snapshot().delta_since(&before);
        unforce_retry();
        assert!(aborted.is_err(), "budget 0 must surface the fault");
        out.unwrap();
        assert_eq!(healed, [2, 1, 0, 5, 4, 3, 8, 7, 6, 11, 10, 9]);
        assert!(d.retries_attempted >= 2 && d.recovered >= 1, "{d:?}");
    }

    #[test]
    fn redo_col_gather_applies_the_per_column_formula() {
        // 3 x 4, rotate group 1 (columns 2..4) left by j: the shared
        // redo must match the op's own definition of the gather.
        let (m, n, w) = (3usize, 4usize, 2usize);
        let orig: Vec<u32> = (0..(m * n) as u32).collect();
        let mut data = orig.clone();
        redo_col_gather(&mut data, m, n, w, 1, |i, j| (i + j) % m);
        for j in 0..n {
            for i in 0..m {
                let want = if j < 2 {
                    orig[i * n + j]
                } else {
                    orig[((i + j) % m) * n + j]
                };
                assert_eq!(data[i * n + j], want, "({i},{j})");
            }
        }
    }

    #[test]
    fn column_blocks_visit_every_column_once() {
        crate::force_multithreaded_pool();
        let (m, n) = (5usize, 17usize);
        let mut a = vec![0u32; m * n];
        fill_pattern(&mut a);
        let orig = a.clone();
        // Reverse each group's rows through a staged copy (the gather
        // i -> m-1-i) and check the global effect covers every column
        // exactly once, the short last group included.
        run_column_groups(
            &mut a,
            (m, n, 4),
            crate::phases::COL_SHUFFLE,
            |block: &mut Scratch<u32>, g| {
                let gw = g.gw();
                let block = block.uninit_buf(m * gw, 0);
                for (i, row) in block.chunks_exact_mut(gw).enumerate() {
                    // SAFETY: row i < m, run width gw.
                    unsafe { g.read_run(i, row) };
                }
                for (i, row) in block.chunks_exact(gw).rev().enumerate() {
                    // SAFETY: as above.
                    unsafe { g.write_run(i, row) };
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
        // Rotate column j of each group left by j: a per-column amount,
        // so groups see their own j0.
        let (m, n) = (4usize, 10usize);
        let mut a = vec![0u16; m * n];
        fill_pattern(&mut a);
        let orig = a.clone();
        run_column_groups(
            &mut a,
            (m, n, 3),
            crate::phases::PRE_ROTATE,
            |col: &mut Scratch<u16>, g| {
                let col = col.uninit_buf(m, 0);
                for k in 0..g.gw() {
                    let j = g.j0() + k;
                    for (i, v) in col.iter_mut().enumerate() {
                        // SAFETY: every row is < m and k < gw.
                        *v = unsafe { g.get((i + j) % m, k) };
                    }
                    for (i, &v) in col.iter().enumerate() {
                        // SAFETY: as above.
                        unsafe { g.set(i, k, v) };
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
