//! The recovery driver: undo → retry → degrade → sequential redo.
//!
//! [`ipt_pool::recovery`] supplies the mechanism — the per-op
//! [`TaskJournal`] and the `IPT_RETRY` budget; this module supplies the
//! policy. Every recoverable parallel op wraps its dispatch in
//! [`run_op`], which climbs a bounded escalation ladder when an attempt
//! fails with a contained [`PoolError`]:
//!
//! 1. **Attempt 0** — the normal parallel dispatch. With recovery armed
//!    (`IPT_RETRY > 0`) each task snapshots its claimed rectangle into
//!    the journal before its first write and commits on completion.
//! 2. **Retries 1..=budget** — the journal rewinds every torn (armed but
//!    uncommitted) rectangle, then the dispatch re-runs, skipping
//!    committed tasks. From the second retry on the op runs *degraded*:
//!    blocked row-shuffle kernels are pinned to the scalar reference
//!    kernel.
//! 3. **Sequential redo** — once the budget is exhausted, the
//!    still-pending tasks are re-executed one by one on the op's
//!    sequential reference path (`redo`), which shares no code with the
//!    parallel fault surface (no injection sites, no `UnsafeSlice`). A
//!    panic even here is caught and surfaced as a contained
//!    [`PoolError`] rather than torn data or an abort.
//!
//! With `IPT_RETRY=0` (the default) the driver is a transparent
//! passthrough: one attempt, no journal, no snapshots — the historical
//! first-failure-aborts contract, bit for bit.
//!
//! The ladder runs *per op*, not per phase: each op gets its own journal
//! and budget, so a later op's failure can never rewind an earlier op's
//! completed work. Column passes reach it through the column-group
//! executor (`exec`), whose redo is [`redo_col_gather`].

use std::panic::{catch_unwind, AssertUnwindSafe};

use ipt_pool::recovery::{retry_budget, TaskJournal};
use ipt_pool::{stats, PoolError};

/// Drive one parallel op through the escalation ladder (see the module
/// docs). `attempt(data, journal, degraded)` runs the op's parallel
/// dispatch — journaling and skipping committed tasks when `journal` is
/// `Some` — and `redo(data, task)` re-executes one task sequentially on
/// the reference path after the journal has restored its prior bytes.
pub(crate) fn run_op<T, A, R>(
    data: &mut [T],
    tasks: usize,
    mut attempt: A,
    mut redo: R,
) -> Result<(), PoolError>
where
    T: Copy + Send + Sync,
    A: FnMut(&mut [T], Option<&TaskJournal<T>>, bool) -> Result<(), PoolError>,
    R: FnMut(&mut [T], usize),
{
    let budget = retry_budget();
    if budget == 0 {
        return attempt(data, None, false);
    }
    let journal = TaskJournal::new(tasks);
    if attempt(data, Some(&journal), false).is_ok() {
        return Ok(());
    }
    for retry in 1..=budget {
        journal.restore(data);
        stats::record_retry();
        let degraded = retry >= 2;
        if degraded {
            stats::record_degraded();
        }
        if attempt(data, Some(&journal), degraded).is_ok() {
            stats::record_recovered();
            return Ok(());
        }
    }
    // Budget exhausted: rewind the last failure and re-run whatever never
    // committed on the sequential reference path.
    journal.restore(data);
    stats::record_retry();
    stats::record_degraded();
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

/// Shared sequential redo for the column-pass claim shape: re-derive
/// column group `group`'s columns as the gather `dst[i][j] =
/// old[src(i, j)][j]`, one column at a time through a stack temporary.
/// Runs single-threaded on plain indexing after the journal has restored
/// the group's prior bytes.
pub(crate) fn redo_col_gather<T: Copy>(
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
    use ipt_pool::recovery::{force_retry, unforce_retry};
    use std::cell::{Cell, RefCell};
    use std::sync::Mutex;

    /// `force_retry` is process-global; serialize the tests that set it.
    static RETRY_LOCK: Mutex<()> = Mutex::new(());

    fn retry_lock() -> std::sync::MutexGuard<'static, ()> {
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
            |_, journal, degraded| {
                calls.set(calls.get() + 1);
                assert!(journal.is_none(), "budget 0 must not journal");
                assert!(!degraded);
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
            |data, journal, _| {
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
    fn degrade_flag_rises_on_the_second_retry() {
        let _g = retry_lock();
        force_retry(3);
        let seen = RefCell::new(Vec::new());
        let mut data = [0u8; 1];
        let _ = run_op(
            &mut data,
            1,
            |_, _, degraded| {
                seen.borrow_mut().push(degraded);
                Err(synthetic_err())
            },
            |_: &mut [u8], _| {},
        );
        unforce_retry();
        assert_eq!(*seen.borrow(), [false, false, true, true]);
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
            |data, journal, _| {
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
        assert!(d.degraded >= 1, "{d:?}");
    }

    #[test]
    fn a_panicking_redo_is_contained() {
        let _g = retry_lock();
        force_retry(1);
        let mut data = [0u8; 2];
        let out = run_op(
            &mut data,
            2,
            |_, _, _| Err(synthetic_err()),
            |_: &mut [u8], _| panic!("redo exploded"),
        );
        unforce_retry();
        let err = out.unwrap_err();
        assert!(err.to_string().contains("redo exploded"), "{err}");
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
}
