//! Task-level undo journaling and the `IPT_RETRY` recovery knob.
//!
//! The decomposition's parallel phases partition the matrix into disjoint
//! rectangles — column groups, rows, whole batch matrices — which is
//! exactly the granularity at which failed work can be rolled back and
//! re-executed. This module supplies the bookkeeping:
//!
//! * [`TaskJournal`] — a per-op journal recording, for every task, an
//!   **undo snapshot** taken *before* the task first mutates its claimed
//!   rectangle, a *commit* mark once the task finishes, and a restore
//!   path that rewinds every armed-but-uncommitted snapshot after a
//!   contained failure. Because the phases are permutations (running a
//!   task twice corrupts data), the commit bitmap doubles as the "skip
//!   on re-attempt" filter.
//! * [`retry_budget`] — the `IPT_RETRY` knob: how many recovery rungs a
//!   failed parallel op may climb before giving up. `0` (the default)
//!   preserves the historical abort contract bit-for-bit: no journal is
//!   created, no snapshot is taken, the first contained failure surfaces
//!   unchanged.
//!
//! The retry *driver* that walks the escalation ladder lives in
//! `ipt-parallel`'s task executor (it needs each op's reference redo
//! path); this module is deliberately mechanism-only so the pool stays
//! policy-free.
//!
//! Concurrency contract: [`TaskJournal::begin`] publishes the snapshot to
//! a shared registry *before* the worker touches the rectangle, so a
//! panic at any later point — including a checked-mode disjointness
//! violation mid-write — leaves the snapshot reachable from the
//! restoring thread. [`TaskJournal::restore`] must only run after the
//! dispatch has finished (every pool primitive waits for all its parts
//! before returning), when no worker holds the data.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::scratch::Scratch;

/// `IPT_RETRY` parsed once.
static ENV_RETRY: OnceLock<Option<usize>> = OnceLock::new();

/// Programmatic override for tests (the env knob is parsed once and
/// cannot change mid-process): `0` = unset (use the environment), else
/// `budget + 1`.
static FORCED_RETRY: AtomicU64 = AtomicU64::new(0);

/// The recovery budget: how many retry rungs a failed parallel op may
/// climb (`IPT_RETRY`, default `0` = recovery disarmed, first failure
/// aborts exactly as before).
///
/// The ladder the `ipt-parallel` executor climbs within this budget has
/// two rungs: each of the `n` retries rolls back the torn tasks and
/// re-runs the same configuration, and once the budget is exhausted the
/// still-pending tasks are re-run sequentially on the reference path.
pub fn retry_budget() -> usize {
    match FORCED_RETRY.load(Ordering::Relaxed) {
        0 => ipt_core::env::parse_once(&ENV_RETRY, "IPT_RETRY", |raw| {
            ipt_core::env::parse_non_negative("IPT_RETRY", raw)
        })
        .unwrap_or(0),
        word => (word - 1) as usize,
    }
}

/// Override [`retry_budget`] for this process, bypassing `IPT_RETRY`.
/// Intended for tests that need both armed and disarmed recovery in one
/// binary.
pub fn force_retry(budget: usize) {
    FORCED_RETRY.store(budget as u64 + 1, Ordering::Relaxed);
}

/// Drop any [`force_retry`] override, restoring `IPT_RETRY` resolution.
pub fn unforce_retry() {
    FORCED_RETRY.store(0, Ordering::Relaxed);
}

/// One armed undo snapshot: the claimed rectangle of `task` as a list of
/// disjoint `(start, len)` index ranges plus their prior contents,
/// concatenated in range order.
struct Snapshot<T> {
    task: usize,
    ranges: Vec<(usize, usize)>,
    data: Vec<T>,
}

/// Undo/redo journal for one parallel op's tasks (see the module docs).
///
/// `T` is the element type of the slice the op mutates. The journal is
/// shared by reference across the op's workers; all methods take `&self`.
pub struct TaskJournal<T> {
    /// Commit bitmap: `done[t]` once task `t` has fully applied. Re-runs
    /// must skip committed tasks — the phases are permutations, and
    /// applying one twice is as corrupting as tearing it.
    done: Vec<AtomicBool>,
    /// Armed (begun, not yet committed) snapshots. Pushed before a task's
    /// first mutation, removed on commit, drained by [`restore`].
    ///
    /// [`restore`]: TaskJournal::restore
    armed: Mutex<Vec<Snapshot<T>>>,
}

impl<T: Copy> TaskJournal<T> {
    /// A journal for an op of `tasks` tasks, all pending, none armed.
    pub fn new(tasks: usize) -> TaskJournal<T> {
        TaskJournal {
            done: (0..tasks).map(|_| AtomicBool::new(false)).collect(),
            armed: Mutex::new(Vec::new()),
        }
    }

    /// Number of tasks this journal tracks.
    pub fn tasks(&self) -> usize {
        self.done.len()
    }

    /// Whether `task` committed in an earlier attempt (re-runs skip it).
    pub fn is_done(&self, task: usize) -> bool {
        self.done[task].load(Ordering::Acquire)
    }

    /// Arm `task`: snapshot the `(start, len)` ranges it is about to
    /// mutate, reading each element through `read` (typically the op's
    /// `UnsafeSlice::get` — legal because the claim precedes the first
    /// mutation), staged through the worker's `scratch` so the capture
    /// shows up in the allocation tallies. Must be called *before* the
    /// task's first write.
    pub fn begin(
        &self,
        scratch: &mut Scratch<T>,
        task: usize,
        ranges: impl IntoIterator<Item = (usize, usize)>,
        read: impl Fn(usize) -> T,
    ) {
        let ranges: Vec<(usize, usize)> = ranges.into_iter().collect();
        let len: usize = ranges.iter().map(|&(_, len)| len).sum();
        let data = scratch.capture(
            len,
            ranges
                .iter()
                .flat_map(|&(start, len)| (start..start + len).map(&read)),
        );
        self.armed
            .lock()
            .unwrap()
            .push(Snapshot { task, ranges, data });
    }

    /// [`TaskJournal::begin`] for a task owning one contiguous block that
    /// is already borrowed mutably (`par_chunks_exact_mut` bodies):
    /// snapshot `block` as the range starting at `offset`.
    pub fn begin_block(&self, task: usize, offset: usize, block: &[T]) {
        self.armed.lock().unwrap().push(Snapshot {
            task,
            ranges: vec![(offset, block.len())],
            data: block.to_vec(),
        });
    }

    /// Mark `task` fully applied and discard its armed snapshot. Must be
    /// the task body's last action.
    pub fn commit(&self, task: usize) {
        let mut armed = self.armed.lock().unwrap();
        if let Some(i) = armed.iter().position(|s| s.task == task) {
            armed.swap_remove(i);
        }
        drop(armed);
        self.done[task].store(true, Ordering::Release);
    }

    /// Rewind every armed-but-uncommitted snapshot into `data`, leaving
    /// the matrix exactly as it was before those tasks started. Call
    /// after a failed dispatch has joined, before re-attempting.
    pub fn restore(&self, data: &mut [T]) {
        let mut armed = self.armed.lock().unwrap();
        for snap in armed.drain(..) {
            let mut off = 0;
            for &(start, len) in &snap.ranges {
                data[start..start + len].copy_from_slice(&snap.data[off..off + len]);
                off += len;
            }
        }
    }

    /// The tasks that never committed, in index order — the final
    /// sequential-redo rung's work list.
    pub fn pending(&self) -> Vec<usize> {
        (0..self.done.len()).filter(|&t| !self.is_done(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipt_core::check::Rng;

    #[test]
    fn retry_budget_forced_override_round_trips() {
        if std::env::var_os("IPT_RETRY").is_none() {
            // Default: no env, no force -> disarmed.
            assert_eq!(retry_budget(), 0);
        }
        force_retry(3);
        assert_eq!(retry_budget(), 3);
        force_retry(0); // explicit off is representable, distinct from unset
        assert_eq!(retry_budget(), 0);
        unforce_retry();
    }

    #[test]
    fn commit_drops_the_snapshot_and_marks_done() {
        let j: TaskJournal<u32> = TaskJournal::new(4);
        let mut scratch = Scratch::new();
        assert_eq!(j.pending(), vec![0, 1, 2, 3]);
        j.begin(&mut scratch, 2, [(0, 3)], |i| i as u32);
        j.commit(2);
        assert!(j.is_done(2));
        assert_eq!(j.pending(), vec![0, 1, 3]);
        // Restoring after commit must not touch the data.
        let mut data = vec![9u32; 3];
        j.restore(&mut data);
        assert_eq!(data, [9, 9, 9]);
    }

    /// The tentpole's byte-exactness property, for both claim shapes the
    /// engine journals: restore-after-partial-mutation returns the claimed
    /// rectangle — and everything outside it — to its exact prior bytes.
    #[test]
    fn restore_is_byte_exact_for_both_claim_shapes() {
        let mut rng = Rng::new(0xD15A57E2_0C0FFEE5);
        for trial in 0..200 {
            let m = rng.range(1..24);
            let n = rng.range(1..24);
            let original: Vec<u64> = (0..m * n).map(|_| rng.next_u64()).collect();
            let mut data = original.clone();

            // Claim shape A: a column group [j0, j0 + gw) — m ranges of
            // gw contiguous elements, one per row (column passes).
            // Claim shape B: rows-in-columns — the same column window
            // restricted to a random subset of rows (a sparse range set).
            let j0 = rng.range(0..n);
            let gw = rng.range(1..n - j0 + 1);
            let rows: Vec<usize> = if trial % 2 == 0 {
                (0..m).collect()
            } else {
                (0..m).filter(|_| rng.chance(1, 2)).collect()
            };

            let j: TaskJournal<u64> = TaskJournal::new(1);
            let mut scratch = Scratch::new();
            {
                let data = &data;
                j.begin(
                    &mut scratch,
                    0,
                    rows.iter().map(|&r| (r * n + j0, gw)),
                    move |idx| data[idx],
                );
            }

            // Partially mutate the claim (and nothing else), as a task
            // that dies mid-flight would.
            for &r in &rows {
                for dj in 0..gw {
                    if rng.chance(7, 10) {
                        data[r * n + j0 + dj] = rng.next_u64();
                    }
                }
            }

            j.restore(&mut data);
            assert_eq!(data, original, "trial {trial}: restore not byte-exact");
            // A drained journal is idempotent: a second restore (e.g. a
            // later rung failing before any new begin) changes nothing.
            j.restore(&mut data);
            assert_eq!(data, original, "trial {trial}: drained restore mutated");
        }
    }

    #[test]
    fn restore_rewinds_only_uncommitted_tasks() {
        // Two tasks mutate disjoint blocks; one commits, one dies.
        let original: Vec<u32> = (0..20).collect();
        let mut data = original.clone();
        let j: TaskJournal<u32> = TaskJournal::new(2);

        j.begin_block(0, 0, &data[0..10]);
        data[0..10].fill(77); // task 0's completed work
        j.commit(0);

        j.begin_block(1, 10, &data[10..20]);
        data[12] = 99; // task 1 died mid-write

        j.restore(&mut data);
        assert_eq!(&data[0..10], &[77; 10], "committed work must survive");
        assert_eq!(&data[10..20], &original[10..20], "torn work rewound");
        assert_eq!(j.pending(), vec![1]);
    }
}
