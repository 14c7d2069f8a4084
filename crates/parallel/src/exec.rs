//! The task executor (paper §5.1, §4.6–4.7, §6.1).
//!
//! Every pass of the decomposition splits into independent tasks of
//! equal cost, and this module runs them all. It has three forms, one
//! per task shape:
//!
//! * [`run_groups`] — disjoint rectangles of a row-major matrix. Every
//!   column step (the pre-rotation, Eq. 23; the column shuffle, Eq. 26;
//!   its R2C inverse, Eqs. 32–35; the post-rotation, Eq. 36) is one
//!   gather `dst[i][j] = old[src(i, j)][j]` that keeps each element in
//!   its column, so the columns split into disjoint groups of `w`
//!   adjacent columns, one task each ([`run_column_groups`]; on a batch,
//!   each head's groups are tasks of their own, rectangles `m` rows
//!   tall); the tiled route's tile pass transposes each `L x L` tile
//!   where it lies, one task each;
//! * [`run_blocks`] — the row shuffle (Eqs. 24/31) permutes inside each
//!   row and the §6.1 chunk pass inside each chunk, so the buffer splits
//!   into contiguous `len`-element blocks, one task each;
//! * [`run_pages`] — the page permutation of the tiled route and of the
//!   §6.1 block pass, whose cycles are cut into one segment per worker
//!   ([`crate::tiled::Cycles`]), one task each.
//!
//! The first two own everything around a task's body:
//!
//! 1. skip the task when the journal already committed it;
//! 2. the panic fault site `faulty::maybe_panic(site, task)`;
//! 3. for groups, the checked-mode claim of the group's cells (a block
//!    is a `&mut` slice, so it needs none);
//! 4. the journal snapshot of the task, when recovery is armed;
//! 5. the body — for groups through a [`Group`] handle whose writes pass
//!    the skew fault site `faulty::skew_column(site, …)`;
//! 6. the commit.
//!
//! The page pass owns the same steps for its segments, except that a
//! segment snapshots nothing: it records how far it got, and a retry
//! resumes it from there.
//!
//! They also own the per-worker state — each worker thread's parked
//! [`ipt_pool::Local`] value, kept across passes and calls — and the
//! recovery ladder ([`run_op`]). The ladder's last rung redoes each
//! pending task sequentially: a column group from the pass's gather
//! formula `src` inside its own head ([`redo_col_gather`]), a tile or a
//! block through the caller's reference `redo`, a segment by resuming it
//! on plain indexing. So a pass states *what* it computes once and its
//! parallel body only states *how*.

use std::panic::{catch_unwind, AssertUnwindSafe};

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::tiled::{Cycles, Segment};
use crate::unsafe_slice::{CheckScope, UnsafeSlice};
use crate::{assert_shape, grain};
use ipt_core::kernels::faulty;
use ipt_pool::recovery::{retry_budget, TaskJournal};
use ipt_pool::{stats, Local, PoolError, Scratch, WorkerState};

/// One group's view of an `m x n` row-major matrix: rows
/// `[i0, i0 + h)` (every row for a column group), columns
/// `[j0, j0 + gw)`, addressed as `(row, k)` with `row` the row offset
/// and `k` the column offset inside the group.
///
/// The executor claimed exactly these cells for the task before handing
/// the handle out, so the accessors' safety contract is only that
/// `row < h` and that `k` (or a run starting at `k`) stays below `gw`.
#[derive(Clone, Copy)]
pub(crate) struct Group<'a, T> {
    us: UnsafeSlice<'a, T>,
    site: &'static str,
    n: usize,
    i0: usize,
    h: usize,
    j0: usize,
    gw: usize,
}

impl<'a, T: Copy> Group<'a, T> {
    /// Rows of the group: every row of the matrix for a column group.
    #[inline]
    pub(crate) fn m(&self) -> usize {
        self.h
    }

    /// The distance in elements between the starts of two rows.
    #[inline]
    pub(crate) fn stride(&self) -> usize {
        self.n
    }

    /// The `len` cells of row `row` from column offset `k` as a slice,
    /// for a kernel that moves the claimed cells itself.
    ///
    /// # Safety
    ///
    /// `row < m` and `k + len <= gw`, and no other reference to those
    /// cells may be live while the returned one is.
    #[inline]
    pub(crate) unsafe fn run_mut(&self, row: usize, k: usize, len: usize) -> &'a mut [T] {
        // SAFETY: the run is inside the group this task claimed, and the
        // caller keeps the slice unique.
        unsafe { self.us.run_mut(self.at(row, k), len) }
    }

    /// A raw pointer to cell `(0, 0)`, for a kernel that moves the
    /// claimed cells itself.
    #[inline]
    pub(crate) fn ptr(&self) -> *mut T {
        self.us.ptr_at(self.at(0, 0))
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
        (self.i0 + row) * self.n + self.j0 + k
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
        unsafe { self.us.set((self.i0 + row) * self.n + j, v) }
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
            let base = (self.i0 + row) * self.n;
            for (k, &v) in run.iter().enumerate() {
                // SAFETY: the column is reduced mod n, so the index stays
                // inside row `row` of the group.
                unsafe { self.us.set(base + (j + k) % self.n, v) }
            }
        }
    }
}

/// Run one column pass over a stack of `heads` row-major `m x n`
/// matrices (one, for a single call): `body(state, group)` for every
/// group of `w` columns of every head, an `m x w` rectangle, groups in
/// parallel, `state` the worker thread's parked `S` (see
/// [`ipt_pool::Local`]), reused across its groups and kept for the next
/// pass; `body` sizes its buffers itself.
///
/// `body` must leave the group equal to the gather `dst[i][j] =
/// old[src(i, j)][j]` inside its head (`i, src(i, j) < m`): the recovery
/// ladder redoes a pending group from that formula. `site` is the pass's
/// [`phases`](crate::phases) name: its fault sites and the label of its
/// checked-mode violation messages.
pub(crate) fn run_column_groups<T, S>(
    data: &mut [T],
    (heads, m, n, w): (usize, usize, usize, usize),
    site: &'static str,
    body: impl Fn(&mut S, Group<'_, T>) + Sync,
    src: impl Fn(usize, usize) -> usize,
) -> Result<(), PoolError>
where
    T: Copy + Send + Sync + 'static,
    S: WorkerState,
{
    let w = w.clamp(1, n.max(1));
    let across = n.div_ceil(w);
    let rows = ipt_core::shape_len(heads, m);
    run_groups(data, (rows, n), (m, w), site, body, |data, g| {
        let head = &mut data[g / across * m * n..][..m * n];
        redo_col_gather(head, m, n, w, g % across, &src)
    })
}

/// Run one pass over the `h x w` rectangles of an `m x n` row-major
/// matrix: `body(state, group)` for every rectangle, rectangles in
/// parallel, numbered row band by row band, `state` the worker thread's
/// parked `S`. Rectangles in the last row band and column are cut
/// short when `h` does not divide `m` or `w` does not divide `n`.
///
/// `redo(data, g)` must leave rectangle `g` as `body` does, on plain
/// indexing: the recovery ladder's last rung runs it on every pending
/// rectangle after the journal has restored its prior cells. `site` is
/// as for [`run_column_groups`].
pub(crate) fn run_groups<T, S>(
    data: &mut [T],
    (m, n): (usize, usize),
    (h, w): (usize, usize),
    site: &'static str,
    body: impl Fn(&mut S, Group<'_, T>) + Sync,
    redo: impl Fn(&mut [T], usize),
) -> Result<(), PoolError>
where
    T: Copy + Send + Sync + 'static,
    S: WorkerState,
{
    assert_shape(data.len(), m, n);
    if m == 0 || n == 0 {
        return Ok(());
    }
    // A group as wide (or tall) as the matrix is one group: a wider `w`
    // would only overflow the grain and size buffers past the matrix.
    let (h, w) = (h.clamp(1, m), w.clamp(1, n));
    let across = n.div_ceil(w);
    let groups = m.div_ceil(h) * across;
    run_op(
        data,
        groups,
        |data, journal| {
            let scope = CheckScope::new(data.len(), n, || {
                format!("{site}: m={m}, n={n}, group width w={w}, height h={h}")
            });
            let us = UnsafeSlice::new(data, &scope);
            ipt_pool::par_chunks_init(
                0..groups,
                grain(h * w),
                Local::<(S, Scratch<T>)>::take,
                |local, sub| {
                    let (state, scratch) = &mut **local;
                    for g in sub {
                        if journal.is_some_and(|j| j.is_done(g)) {
                            continue;
                        }
                        faulty::maybe_panic(site, g);
                        let (i0, j0) = (g / across * h, g % across * w);
                        let (gh, gw) = (h.min(m - i0), w.min(n - j0));
                        us.claim_rect(g, i0..i0 + gh, j0..j0 + gw);
                        if let Some(j) = journal {
                            let rows = (i0..i0 + gh).map(|r| (r * n + j0, gw));
                            // SAFETY: every snapshot index r*n + j0 + k
                            // (k < gw) is inside the group just claimed.
                            j.begin(scratch, g, rows, |idx| unsafe { us.get(idx) });
                        }
                        body(
                            state,
                            Group {
                                us,
                                site,
                                n,
                                i0,
                                h: gh,
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
        redo,
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

/// How far one segment of the page pass got: the state its walk
/// resumes from. Each on its own cache line, since a worker updates its
/// segment's after every page it moves. The counters publish nothing
/// else and are read by another thread only after the dispatch that
/// wrote them has joined, so `Relaxed` suffices.
#[repr(align(64))]
struct Progress {
    /// The leader of the cycle the next move is on.
    leader: AtomicUsize,
    /// The page the next move writes: the leader itself before the
    /// cycle's first move.
    to: AtomicUsize,
    /// Moves of the segment already made.
    moved: AtomicUsize,
}

impl Progress {
    /// Where segment `seg` begins.
    fn new(seg: &Segment) -> Progress {
        Progress {
            leader: seg.leader.into(),
            to: seg.first.into(),
            moved: 0.into(),
        }
    }
}

/// One move of the page pass, in pages.
#[derive(Clone, Copy)]
enum Move {
    /// Copy page `from` over page `to`.
    Page { from: usize, to: usize },
    /// Copy a cycle's leader into the segment's open page.
    Open(usize),
    /// Close a cycle: copy the open page over page `to`.
    Shut(usize),
    /// End the segment inside a cycle: copy its close page (the next
    /// segment's first page, stashed) over page `to`.
    Close(usize),
}

/// Run the page permutation `cycles` plans over `data`, whose pages are
/// its `cycles.page_len()`-element runs: every page moves to its place,
/// one segment per worker ([`Cycles`]). `site` is the pass's
/// [`phases`](crate::phases) name.
///
/// Each segment owns two stash pages. Before any page moves, a segment
/// that ends inside a cycle copies the page its last move needs — the
/// next segment's first page, which that segment overwrites first — into
/// its close page, and a segment that begins inside a cycle copies the
/// cycle's leader, which an earlier segment overwrites, into its open
/// page; the open page then holds the leader of each cycle the segment
/// moves. So a segment touches only its own pages and stash pages.
///
/// A segment's fault site is its middle move. It records each move it
/// makes ([`Progress`]), and a move leaves its source page intact, so a
/// torn segment needs no undo: a retry, or the ladder's last rung,
/// resumes it where it stopped. The undo state is the stash pages and
/// three counters per segment, not a copy of the pages it wrote.
pub(crate) fn run_pages<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    cycles: &Cycles,
    site: &'static str,
) -> Result<(), PoolError> {
    let l = cycles.page_len();
    assert_eq!(data.len(), cycles.pages() * l, "whole pages");
    let Some(&fill) = data.first() else {
        return Ok(());
    };
    let segments = &cycles.segments;
    let mut stash = Vec::with_capacity(2 * l * segments.len());
    for seg in segments {
        let open = (seg.first != seg.leader).then_some(seg.leader);
        for y in [open, seg.close] {
            match y {
                Some(y) => stash.extend_from_slice(&data[y * l..(y + 1) * l]),
                None => stash.resize(stash.len() + l, fill),
            }
        }
    }
    let stash = RefCell::new(stash);
    let progress: Vec<Progress> = segments.iter().map(Progress::new).collect();
    run_op(
        data,
        segments.len(),
        |data, journal| {
            let scope = CheckScope::new(data.len(), l, || {
                format!("{site}: {} pages of {l} elements", cycles.pages())
            });
            let us = UnsafeSlice::new(data, &scope);
            let mut stash = stash.borrow_mut();
            ipt_pool::par_chunks_exact_mut(
                &mut stash,
                2 * l,
                1,
                || (),
                |(), s, pair| {
                    if journal.is_some_and(|j| j.is_done(s)) {
                        return;
                    }
                    let (open, close) = pair.split_at_mut(l);
                    let (seg, pr) = (&segments[s], &progress[s]);
                    walk(cycles, seg, pr, |mv| {
                        if pr.moved.load(Ordering::Relaxed) == seg.moves / 2 {
                            faulty::maybe_panic(site, s);
                        }
                        let claim = |y: usize| us.claim_rect(s, y..y + 1, 0..l);
                        // SAFETY: the segments' pages are disjoint (each lies
                        // on one cycle, and the segments cover disjoint runs
                        // of the cycles), so no other task touches a page
                        // this one claims; every page is below
                        // `cycles.pages()`, so its run is inside `data`; and
                        // a move's two pages differ.
                        unsafe {
                            match mv {
                                Move::Page { from, to } => {
                                    claim(from);
                                    claim(to);
                                    us.copy_run(from * l, to * l, l);
                                }
                                Move::Open(from) => {
                                    claim(from);
                                    us.read_run(from * l, open);
                                }
                                Move::Shut(to) => {
                                    claim(to);
                                    us.write_run(to * l, open);
                                }
                                Move::Close(to) => {
                                    claim(to);
                                    us.write_run(to * l, close);
                                }
                            }
                        }
                    });
                    if let Some(j) = journal {
                        j.commit(s);
                    }
                },
            )
        },
        |data, s| {
            let mut stash = stash.borrow_mut();
            let (open, close) = stash[2 * l * s..2 * l * (s + 1)].split_at_mut(l);
            let run = |y: usize| y * l..(y + 1) * l;
            walk(cycles, &cycles.segments[s], &progress[s], |mv| match mv {
                Move::Page { from, to } => data.copy_within(run(from), to * l),
                Move::Open(from) => open.copy_from_slice(&data[run(from)]),
                Move::Shut(to) => data[run(to)].copy_from_slice(open),
                Move::Close(to) => data[run(to)].copy_from_slice(close),
            });
        },
    )
}

/// Make segment `seg`'s moves from where `pr` says it stopped, each
/// through `apply`, recording each in `pr` once it is made.
// The one walk of the parallel body and the sequential redo: kept out of
// line so it is one function to measure (EXPERIMENTS.md, "Two sweeps for
// the tiled route").
#[inline(never)]
fn walk(cycles: &Cycles, seg: &Segment, pr: &Progress, mut apply: impl FnMut(Move)) {
    let load = |a: &AtomicUsize| a.load(Ordering::Relaxed);
    let (mut leader, mut to, mut moved) = (load(&pr.leader), load(&pr.to), load(&pr.moved));
    while moved < seg.moves {
        if to == leader {
            apply(Move::Open(leader));
        }
        let from = cycles.source(to);
        let shut = from == leader;
        apply(if shut {
            Move::Shut(to)
        } else if moved + 1 == seg.moves {
            Move::Close(to)
        } else {
            Move::Page { from, to }
        });
        moved += 1;
        if !shut {
            to = from;
        } else if moved < seg.moves {
            leader = cycles.next_leader(leader + 1);
            to = leader;
        }
        pr.leader.store(leader, Ordering::Relaxed);
        pr.to.store(to, Ordering::Relaxed);
        pr.moved.store(moved, Ordering::Relaxed);
    }
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
                crate::phases::CHUNK_TRANSPOSE,
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
    fn a_stacked_rectangle_that_always_faults_is_redone_in_its_own_head() {
        let _g = retry_lock();
        crate::force_multithreaded_pool();
        // Three 4 x 10 heads, groups 3 wide: each head's rows reversed
        // (the gather i -> m-1-i). The second head's third group panics
        // on every parallel attempt, so only the last rung — the gather
        // redone inside that head — heals it.
        let (heads, m, n) = (3usize, 4usize, 10usize);
        let orig: Vec<u32> = (0..(heads * m * n) as u32).collect();
        let run = |data: &mut [u32]| {
            run_column_groups(
                data,
                (heads, m, n, 3),
                crate::phases::COL_SHUFFLE,
                |col: &mut Scratch<u32>, g| {
                    assert!((g.i0, g.j0()) != (m, 6), "this group always faults");
                    let col = col.uninit_buf(m, 0);
                    for k in 0..g.gw() {
                        for (i, v) in col.iter_mut().enumerate() {
                            // SAFETY: every row is < m and k < gw.
                            *v = unsafe { g.get(m - 1 - i, k) };
                        }
                        for (i, &v) in col.iter().enumerate() {
                            // SAFETY: as above.
                            unsafe { g.set(i, k, v) };
                        }
                    }
                },
                |i, _| m - 1 - i,
            )
        };
        force_retry(0);
        let aborted = run(&mut orig.clone());
        force_retry(1);
        let before = stats::snapshot();
        let mut healed = orig.clone();
        let out = run(&mut healed);
        let d = stats::snapshot().delta_since(&before);
        unforce_retry();
        assert!(aborted.is_err(), "budget 0 must surface the fault");
        out.unwrap();
        for (h, head) in healed.chunks_exact(m * n).enumerate() {
            for i in 0..m {
                let want = &orig[(h * m + m - 1 - i) * n..][..n];
                assert_eq!(&head[i * n..][..n], want, "head {h}, row {i}");
            }
        }
        assert!(d.retries_attempted >= 2 && d.recovered >= 1, "{d:?}");
    }

    #[test]
    fn page_segments_torn_at_any_move_resume_to_the_same_permutation() {
        use crate::tiled::Pages;
        use ipt_core::Direction;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // Pages as single values: the tiled route's 2 x 64 x 3 pages of
        // 64 elements (a cycle of 144 of the 382 that move) and the
        // §6.1 block pass's 12 x 7 blocks of 512 elements, each cut into
        // 2 and 3 segments, so segments begin and end inside cycles and
        // move others whole. (Pages so short that a worker's grain
        // exceeds the moves are one segment.) Tear every segment before
        // its k-th move for each k, resume it, and check that every page
        // holds the page that belongs there.
        let tiled = Pages::of(Direction::C2r, (128, 192), 64);
        let blocks = Pages::blocks((12, 7), 512);
        for (pages, threads) in [(tiled, 2), (tiled, 3), (blocks, 2), (blocks, 3)] {
            let cycles = Cycles::scan(pages, threads);
            let segments = &cycles.segments;
            assert_eq!(segments.len(), threads, "{pages:?}");
            let most = segments.iter().map(|s| s.moves).max().unwrap();
            for k in 0..=most {
                let mut v: Vec<usize> = (0..cycles.pages()).collect();
                let mut stash: Vec<[usize; 2]> = segments
                    .iter()
                    .map(|s| [s.leader, s.close.unwrap_or(0)])
                    .collect();
                let progress: Vec<Progress> = segments.iter().map(Progress::new).collect();
                for tear in [Some(k), None] {
                    for (s, seg) in segments.iter().enumerate() {
                        let mut made = 0;
                        let _ = catch_unwind(AssertUnwindSafe(|| {
                            walk(&cycles, seg, &progress[s], |mv| {
                                assert!(Some(made) != tear, "torn");
                                made += 1;
                                match mv {
                                    Move::Page { from, to } => v[to] = v[from],
                                    Move::Open(from) => stash[s][0] = v[from],
                                    Move::Shut(to) => v[to] = stash[s][0],
                                    Move::Close(to) => v[to] = stash[s][1],
                                }
                            })
                        }));
                    }
                }
                for (y, &got) in v.iter().enumerate() {
                    assert_eq!(
                        got,
                        cycles.source(y),
                        "{pages:?}, {threads} segments, torn at {k}: page {y}"
                    );
                }
            }
        }
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
            (1, m, n, 4),
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
            (1, m, n, 3),
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
