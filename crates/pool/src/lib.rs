//! # ipt-pool — a zero-dependency parallel executor with persistent workers
//!
//! The decomposition's parallel structure (paper §1, §5.1) is as regular
//! as data parallelism gets: every row permutation is independent of every
//! other row, every column group independent of every other group, and all
//! units cost the same. Work-stealing buys nothing here — a static split
//! of the index range over a handful of threads achieves the same perfect
//! load balance with no external dependencies. What the balance cannot
//! buy back is a fork that costs more than the pass, so the threads are
//! **persistent**: started lazily on the first wide dispatch, grown to
//! the widest width any call asks for, spinning briefly between passes
//! and then parked on a `Condvar`. A back-to-back dispatch costs a few
//! microseconds, not a thread spawn.
//!
//! Three primitives cover every parallel loop in the workspace:
//!
//! * [`par_chunks`] — chunked for-each over an index range (column groups,
//!   batch indices);
//! * [`par_chunks_init`] — the same, with a per-worker state value
//!   (scratch buffers, cycle masks) reused across the worker's whole
//!   subrange — the CPU analogue of the paper's §4.5 "on-chip" row
//!   staging;
//! * [`par_chunks_exact_mut`] — contiguous `chunk_len`-sized blocks of a
//!   mutable slice (matrix rows, batched matrices), each handed to exactly
//!   one worker, with per-worker state.
//!
//! All three run through one dispatch path: the range splits into parts,
//! the calling thread runs part 0, idle workers claim the rest (the caller
//! claims any they have not reached), and the primitive returns only once
//! every part has finished. A dispatch runs inline on the calling thread
//! — all parts in order — when the range is smaller than `min_grain`, the
//! pool is one wide, or the workers are already busy with another
//! dispatch (a concurrent caller, or a nested dispatch from inside a
//! part), so concurrent callers never wait on each other.
//!
//! Per-worker state can outlive the call: pass [`Local::take`] as the
//! `init` of a primitive and the worker's thread keeps its
//! [`WorkerState`] (for example its [`Scratch`] buffers) for the next
//! call, up to a fixed retention cap.
//!
//! Thread count resolution: [`Pool::new`]\(t) with `t > 0` is explicit;
//! `t == 0` (and the module-level free functions) resolve the global
//! default — [`set_num_threads`] if called, else the `IPT_THREADS`
//! environment variable, else [`std::thread::available_parallelism`],
//! read once per process.
//!
//! **Panic safety:** a panic inside a worker closure is caught at the
//! chunk boundary (per block for [`par_chunks_exact_mut`], per worker
//! subrange for the range primitives — the inline fallback included)
//! and surfaced as a structured [`PoolError`] from the primitive's
//! `Result`, with [`stats`]' contained-panic counter bumped. Sibling
//! parts are not cancelled — the dispatch still waits for every part —
//! so the data may hold a partial result, but the caller always learns
//! about it, and the worker that ran the failed part stays alive for the
//! next dispatch. When several parts panic, the error from the lowest
//! worker id is returned.
//!
//! Every primitive feeds the always-on [`stats`] counters (tasks
//! dispatched, work items processed, scratch allocations vs. reuses,
//! contained panics, and named per-phase wall time) — see
//! [`stats::snapshot`] and [`stats::phase`] for the observability surface
//! the benchmark harness builds on.
//!
//! ```
//! use ipt_pool::Pool;
//!
//! let mut squares = vec![0usize; 1000];
//! // Safe disjoint mutation: split the slice, not the indices.
//! Pool::new(4)
//!     .par_chunks_exact_mut(&mut squares, 1, 64, || (), |_, i, cell| {
//!         cell[0] = i * i;
//!     })
//!     .unwrap();
//! assert_eq!(squares[31], 961);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod recovery;
pub mod scratch;
pub mod stats;
pub mod watchdog;
mod workers;

pub use scratch::{Local, Scratch, WorkerState};

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Process-wide thread-count override set by [`set_num_threads`]
/// (0 = unset).
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// `IPT_THREADS` parsed once.
static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();

/// Parse an `IPT_THREADS` value: a positive thread count after trimming
/// whitespace. Zero and garbage are explicit errors, not silent fallbacks.
fn parse_env_threads(raw: &str) -> Result<usize, String> {
    ipt_core::env::parse_positive("IPT_THREADS", raw)
}

fn env_threads() -> Option<usize> {
    // Shared warn-once knob contract (ipt_core::env): garbage warns
    // exactly once on stderr, like IPT_KERNEL and IPT_FAULT, instead of
    // silently ignoring a knob the user set.
    ipt_core::env::parse_once(&ENV_THREADS, "IPT_THREADS", parse_env_threads)
}

/// The number of worker threads the global (default) pool uses.
///
/// Resolution order: [`set_num_threads`] override, then the `IPT_THREADS`
/// environment variable, then [`std::thread::available_parallelism`]
/// (falling back to 1 if unavailable). The environment and the hardware
/// are read once per process — the hardware query reads cgroup files and
/// costs tens of microseconds — while the override is a relaxed atomic
/// load, so it stays cheap enough for every dispatch.
pub fn num_threads() -> usize {
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    let forced = GLOBAL_THREADS.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    *HARDWARE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Override the global pool's thread count for the whole process
/// (`0` clears the override, restoring env/hardware resolution).
///
/// Intended for binaries and test harnesses; library code that needs a
/// specific width should carry an explicit [`Pool`] instead.
pub fn set_num_threads(threads: usize) {
    GLOBAL_THREADS.store(threads, Ordering::Relaxed);
}

/// A worker panic contained by the executor (see the module docs'
/// panic-safety contract).
///
/// Carries enough structure for a caller to attribute the failure: which
/// worker part panicked, which work item it was processing, and the panic
/// payload rendered to a string. `ipt-parallel` wraps this into its
/// `TransposeAborted` error so a torn matrix is reported, never silently
/// returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolError {
    /// Id of the worker part whose closure panicked. Part 0 runs on the
    /// calling thread; ids match [`stats::WorkerStats::worker`].
    pub worker: usize,
    /// The work item being processed when the panic fired: the block
    /// index for [`par_chunks_exact_mut`], the start of the worker's
    /// subrange for [`par_chunks`] / [`par_chunks_init`].
    pub chunk: usize,
    /// The panic payload: `&str` / `String` payloads verbatim, anything
    /// else as a placeholder.
    pub payload: String,
}

impl PoolError {
    /// Build a `PoolError` from a caught panic payload, rendering it the
    /// way the executor does (`&str` / `String` verbatim, anything else
    /// as a stable placeholder). Used by the recovery driver in
    /// `ipt-parallel` when its sequential redo rung itself panics.
    pub fn from_payload(
        worker: usize,
        chunk: usize,
        payload: Box<dyn std::any::Any + Send>,
    ) -> PoolError {
        PoolError {
            worker,
            chunk,
            payload: payload_message(payload),
        }
    }
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker {} panicked at chunk {}: {}",
            self.worker, self.chunk, self.payload
        )
    }
}

impl std::error::Error for PoolError {}

/// Render a caught panic payload as a message.
fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

thread_local! {
    /// The worker id of the pool part currently running on this thread.
    static CURRENT_WORKER: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The worker id of the pool dispatch part running on the current thread,
/// or `None` outside any pool primitive.
///
/// Part 0 always runs on the calling thread; ids are the same ones
/// [`stats`] tallies per worker and [`PoolError::worker`] reports. Nested
/// dispatches restore the outer id when the inner one finishes.
pub fn current_worker() -> Option<usize> {
    CURRENT_WORKER.get()
}

/// RAII guard that tags the current thread with a worker id for the
/// duration of one dispatch part, restoring the previous id on drop (so
/// nested dispatches unwind correctly).
struct WorkerGuard {
    prev: Option<usize>,
}

impl WorkerGuard {
    fn enter(worker: usize) -> WorkerGuard {
        WorkerGuard {
            prev: CURRENT_WORKER.replace(Some(worker)),
        }
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        CURRENT_WORKER.set(self.prev);
    }
}

/// Run one range part (`par_chunks` / `par_chunks_init`) with its panic
/// boundary: the worker's whole contiguous subrange is its chunk.
fn run_range_part<S, I, F>(
    worker: usize,
    sub: Range<usize>,
    init: &I,
    body: &F,
) -> Result<(), PoolError>
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, Range<usize>) + Sync,
{
    let chunk = sub.start;
    let _guard = WorkerGuard::enter(worker);
    // Armed only when IPT_WATCHDOG_MS (or a forced timeout) is set; the
    // deadline covers this worker's whole subrange.
    let _watch = watchdog::watch(worker, chunk);
    // AssertUnwindSafe: the per-worker state is created inside the
    // closure and discarded on panic; everything else reachable is `Sync`
    // shared state whose callers receive the Err and therefore know the
    // results are partial.
    match catch_unwind(AssertUnwindSafe(|| body(&mut init(), sub))) {
        Ok(()) => Ok(()),
        Err(payload) => {
            stats::record_contained_panic();
            Err(PoolError {
                worker,
                chunk,
                payload: payload_message(payload),
            })
        }
    }
}

/// Run one block part (`par_chunks_exact_mut`) with a panic boundary per
/// block, so [`PoolError::chunk`] names the exact block that failed. A
/// failing block ends that worker's part (its remaining blocks are
/// skipped); sibling workers run to completion regardless.
fn run_block_part<T, S, I, F>(
    worker: usize,
    start_block: usize,
    chunk_len: usize,
    head: &mut [T],
    init: &I,
    body: &F,
) -> Result<(), PoolError>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [T]) + Sync,
{
    let _guard = WorkerGuard::enter(worker);
    // Armed only when IPT_WATCHDOG_MS (or a forced timeout) is set; the
    // per-block tick below keeps the deadline one block wide.
    let watch = watchdog::watch(worker, start_block);
    let mut state = match catch_unwind(AssertUnwindSafe(init)) {
        Ok(state) => state,
        Err(payload) => {
            stats::record_contained_panic();
            return Err(PoolError {
                worker,
                chunk: start_block,
                payload: payload_message(payload),
            });
        }
    };
    for (b, chunk) in head.chunks_exact_mut(chunk_len).enumerate() {
        let idx = start_block + b;
        if let Some(w) = &watch {
            w.tick(idx);
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(&mut state, idx, chunk))) {
            stats::record_contained_panic();
            return Err(PoolError {
                worker,
                chunk: idx,
                payload: payload_message(payload),
            });
        }
    }
    Ok(())
}

/// The failures of one dispatch's parts; the lowest worker id's error is
/// the one returned.
#[derive(Default)]
struct Failures(Mutex<Vec<PoolError>>);

impl Failures {
    fn push(&self, result: Result<(), PoolError>) {
        if let Err(e) = result {
            self.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(e);
        }
    }

    /// The first failure in worker order, if any part failed.
    fn first(self) -> Result<(), PoolError> {
        let failures = self.0.into_inner().unwrap_or_else(PoisonError::into_inner);
        failures
            .into_iter()
            .min_by_key(|e| e.worker)
            .map_or(Ok(()), Err)
    }
}

/// Part `k`'s share of `len` items split `parts` ways: the first
/// `len % parts` parts take one extra. Returns `(offset, count)`.
fn part_span(len: usize, parts: usize, k: usize) -> (usize, usize) {
    let (base, rem) = (len / parts, len % parts);
    (k * base + k.min(rem), base + usize::from(k < rem))
}

/// A parallel executor handle: a thread count plus the chunking policy.
///
/// `Pool` is `Copy` and holds no threads itself: every pool dispatches
/// onto the one process-wide set of persistent workers (see the crate
/// docs), growing it when a pool is wider than any before. A `Pool` is
/// therefore cheap to create, store in options structs, or share
/// between threads, and there is nothing to shut down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    fn default() -> Pool {
        Pool::global()
    }
}

impl Pool {
    /// A pool of exactly `threads` workers; `0` means "resolve the global
    /// default at each call" (see [`num_threads`]).
    pub const fn new(threads: usize) -> Pool {
        Pool { threads }
    }

    /// The pool every module-level free function uses.
    pub const fn global() -> Pool {
        Pool::new(0)
    }

    /// The worker count a call on this pool will use right now.
    pub fn threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            num_threads()
        }
    }

    /// How many parts `len` items split into: at least `min_grain` items
    /// each (the last part may get more), at most `threads` parts.
    fn partition(&self, len: usize, min_grain: usize) -> usize {
        (len / min_grain.max(1)).clamp(1, self.threads().max(1))
    }

    /// Chunked parallel for-each over `range`: `body` is invoked once per
    /// part with that part's contiguous subrange. Runs `body(range)`
    /// inline on the calling thread when the range is shorter than
    /// `min_grain` or the pool has one thread.
    ///
    /// This is the paper's §5.1 `parallel for` over independent column
    /// groups or batch indices — a static split suffices because the
    /// decomposition gives every index identical cost.
    ///
    /// A worker panic is contained and returned as [`PoolError`] (see the
    /// module docs); `Ok(())` means every subrange completed.
    ///
    /// ```
    /// use std::sync::atomic::{AtomicUsize, Ordering};
    /// use ipt_pool::Pool;
    ///
    /// let sum = AtomicUsize::new(0);
    /// Pool::new(4)
    ///     .par_chunks(0..100, 8, |sub| {
    ///         sum.fetch_add(sub.sum::<usize>(), Ordering::Relaxed);
    ///     })
    ///     .unwrap();
    /// assert_eq!(sum.into_inner(), 4950);
    /// ```
    pub fn par_chunks<F>(
        &self,
        range: Range<usize>,
        min_grain: usize,
        body: F,
    ) -> Result<(), PoolError>
    where
        F: Fn(Range<usize>) + Sync,
    {
        self.par_chunks_init(range, min_grain, || (), |(), sub| body(sub))
    }

    /// [`Pool::par_chunks`] with per-worker state: each worker calls
    /// `init` exactly once and hands the value to `body` alongside its
    /// subrange. The sequential fallback also initializes exactly once.
    ///
    /// The per-worker state is the CPU analogue of the paper's §4.5
    /// "on-chip" row staging: a scratch buffer (or cycle mask) created
    /// once per worker and reused across that worker's whole subrange, so
    /// steady-state loop bodies allocate nothing.
    ///
    /// ```
    /// use std::sync::Mutex;
    /// use ipt_pool::{Pool, Scratch};
    ///
    /// let inits = Mutex::new(0usize);
    /// Pool::new(2)
    ///     .par_chunks_init(
    ///         0..64,
    ///         1,
    ///         || {
    ///             *inits.lock().unwrap() += 1;
    ///             Scratch::<u64>::new()
    ///         },
    ///         |scratch, sub| {
    ///             let buf = scratch.filled_buf(16, 0); // reused across `sub`
    ///             assert_eq!(buf.len(), 16);
    ///             assert!(!sub.is_empty());
    ///         },
    ///     )
    ///     .unwrap();
    /// // One state per worker part, not one per index.
    /// assert!(*inits.lock().unwrap() <= 2);
    /// ```
    pub fn par_chunks_init<S, I, F>(
        &self,
        range: Range<usize>,
        min_grain: usize,
        init: I,
        body: F,
    ) -> Result<(), PoolError>
    where
        I: Fn() -> S + Sync,
        F: Fn(&mut S, Range<usize>) + Sync,
    {
        if range.is_empty() {
            return Ok(());
        }
        let len = range.end - range.start;
        let parts = self.partition(len, min_grain);
        stats::record_dispatch(parts as u64, len as u64);
        let failures = Failures::default();
        workers::run(parts, &|k| {
            let (offset, count) = part_span(len, parts, k);
            let lo = range.start + offset;
            failures.push(run_range_part(k, lo..lo + count, &init, &body));
        });
        failures.first()
    }

    /// Parallel for-each over the leading `len / chunk_len` contiguous
    /// `chunk_len`-sized blocks of `data` (a trailing remainder shorter
    /// than `chunk_len` is left untouched, mirroring
    /// `chunks_exact_mut`). Each worker owns a contiguous run of blocks
    /// — obtained by splitting the slice, so no unsafe aliasing is
    /// involved — and calls `body(state, block_index, block)` once per
    /// block with its own `init`-created state.
    ///
    /// `min_grain` is in **blocks**: a worker is only spun up per
    /// `min_grain` blocks of work.
    ///
    /// This is how the engine parallelizes the row shuffle (paper §5.1):
    /// rows of a row-major matrix are exactly the `chunk_len = n` blocks
    /// of the buffer, each permuted independently (Eq. 24/31), so
    /// splitting the slice expresses the parallelism with no aliasing.
    ///
    /// A panic is caught at the **block** boundary: [`PoolError::chunk`]
    /// is the exact block index that failed (the failing worker skips its
    /// remaining blocks; siblings complete).
    ///
    /// ```
    /// use ipt_pool::Pool;
    ///
    /// // "Transpose-like" per-row work: reverse each 4-element row.
    /// let mut data: Vec<usize> = (0..16).collect();
    /// Pool::new(2)
    ///     .par_chunks_exact_mut(&mut data, 4, 1, || (), |(), _i, row| {
    ///         row.reverse();
    ///     })
    ///     .unwrap();
    /// assert_eq!(&data[..4], &[3, 2, 1, 0]);
    /// assert_eq!(&data[12..], &[15, 14, 13, 12]);
    /// ```
    pub fn par_chunks_exact_mut<T, S, I, F>(
        &self,
        data: &mut [T],
        chunk_len: usize,
        min_grain: usize,
        init: I,
        body: F,
    ) -> Result<(), PoolError>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &mut [T]) + Sync,
    {
        assert!(chunk_len > 0, "chunk_len must be positive");
        let blocks = data.len() / chunk_len;
        if blocks == 0 {
            return Ok(());
        }
        let parts = self.partition(blocks, min_grain);
        stats::record_dispatch(parts as u64, blocks as u64);
        // Split the slice, not the indices: each part takes its own head
        // out of this table exactly once.
        let mut tail = &mut data[..blocks * chunk_len];
        let heads: Vec<Option<&mut [T]>> = (0..parts)
            .map(|k| {
                let (head, rest) = std::mem::take(&mut tail)
                    .split_at_mut(part_span(blocks, parts, k).1 * chunk_len);
                tail = rest;
                Some(head)
            })
            .collect();
        let heads = Mutex::new(heads);
        let failures = Failures::default();
        workers::run(parts, &|k| {
            let head = heads.lock().unwrap_or_else(PoisonError::into_inner)[k]
                .take()
                .expect("every part runs exactly once");
            let start = part_span(blocks, parts, k).0;
            failures.push(run_block_part(k, start, chunk_len, head, &init, &body));
        });
        failures.first()
    }
}

/// [`Pool::par_chunks`] on the global pool.
pub fn par_chunks<F>(range: Range<usize>, min_grain: usize, body: F) -> Result<(), PoolError>
where
    F: Fn(Range<usize>) + Sync,
{
    Pool::global().par_chunks(range, min_grain, body)
}

/// [`Pool::par_chunks_init`] on the global pool.
pub fn par_chunks_init<S, I, F>(
    range: Range<usize>,
    min_grain: usize,
    init: I,
    body: F,
) -> Result<(), PoolError>
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, Range<usize>) + Sync,
{
    Pool::global().par_chunks_init(range, min_grain, init, body)
}

/// [`Pool::par_chunks_exact_mut`] on the global pool.
pub fn par_chunks_exact_mut<T, S, I, F>(
    data: &mut [T],
    chunk_len: usize,
    min_grain: usize,
    init: I,
    body: F,
) -> Result<(), PoolError>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [T]) + Sync,
{
    Pool::global().par_chunks_exact_mut(data, chunk_len, min_grain, init, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    #[test]
    fn handoff_runs_every_part_once_before_returning() {
        // The job and everything it borrows live in this frame: the
        // dispatch must not return before every part has run.
        for round in 0..8 {
            let parts = 1 + round % 4;
            let hits: Vec<AtomicUsize> = (0..parts).map(|_| AtomicUsize::new(0)).collect();
            let tag = format!("round {round}");
            workers::run(parts, &|k| {
                assert!(tag.starts_with("round"));
                hits[k].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn thread_count_resolution() {
        assert!(Pool::new(3).threads() == 3);
        assert!(Pool::global().threads() >= 1);
    }

    #[test]
    fn env_threads_parser_trims_and_rejects_zero_and_garbage() {
        assert_eq!(parse_env_threads("4"), Ok(4));
        assert_eq!(parse_env_threads(" 8 "), Ok(8));
        assert_eq!(parse_env_threads("\t2\n"), Ok(2));
        for bad in ["0", " 0 ", "", "many", "-1", "1.5", "4x"] {
            let err = parse_env_threads(bad).unwrap_err();
            assert!(err.contains("IPT_THREADS"), "{bad:?}: {err}");
            assert!(err.contains(&format!("{bad:?}")), "{bad:?}: {err}");
        }
    }

    #[test]
    fn empty_range_is_a_noop() {
        let hits = AtomicUsize::new(0);
        Pool::new(4)
            .par_chunks(5..5, 1, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn small_range_runs_inline_as_one_chunk() {
        let subs = Mutex::new(Vec::new());
        Pool::new(8)
            .par_chunks(10..14, 100, |sub| {
                subs.lock().unwrap().push(sub);
            })
            .unwrap();
        assert_eq!(*subs.lock().unwrap(), vec![10..14]);
    }

    #[test]
    fn grain_bounds_worker_count() {
        // 100 indices, grain 30 -> at most 3 parts even on a wide pool.
        let subs = Mutex::new(Vec::new());
        Pool::new(16)
            .par_chunks(0..100, 30, |sub| {
                subs.lock().unwrap().push(sub);
            })
            .unwrap();
        let mut subs = subs.lock().unwrap().clone();
        subs.sort_by_key(|r| r.start);
        assert_eq!(subs.len(), 3);
        assert!(subs.iter().all(|r| r.end - r.start >= 30));
    }

    #[test]
    fn remainder_blocks_left_untouched() {
        let mut data = vec![0u8; 10];
        Pool::new(2)
            .par_chunks_exact_mut(&mut data, 3, 1, || (), |_, _, c| c.fill(1))
            .unwrap();
        assert_eq!(data, [1, 1, 1, 1, 1, 1, 1, 1, 1, 0]);
    }

    #[test]
    fn range_panic_is_contained_with_worker_and_chunk() {
        let before = stats::snapshot();
        let err = Pool::new(4)
            .par_chunks(0..16, 1, |sub| {
                if sub.contains(&9) {
                    panic!("boom at nine");
                }
            })
            .unwrap_err();
        assert_eq!(err.payload, "boom at nine");
        assert!(err.worker < 4, "{err:?}");
        assert!(err.chunk <= 9, "chunk is the subrange start: {err:?}");
        let d = stats::snapshot().delta_since(&before);
        // >= 1: other tests in this binary may contain panics concurrently.
        assert!(d.panics_contained >= 1, "{d:?}");
        // Display carries the whole story for logs.
        let msg = err.to_string();
        assert!(
            msg.contains("panicked") && msg.contains("boom at nine"),
            "{msg}"
        );
    }

    #[test]
    fn inline_fallback_panic_is_contained_too() {
        // One thread -> the sequential path must still report structure.
        let err = Pool::new(1)
            .par_chunks_exact_mut(
                &mut [0u8; 8],
                2,
                1,
                || (),
                |_, b, _| {
                    if b == 2 {
                        panic!("block two failed");
                    }
                },
            )
            .unwrap_err();
        assert_eq!((err.worker, err.chunk), (0, 2));
        assert_eq!(err.payload, "block two failed");
    }

    #[test]
    fn block_panic_reports_exact_block_and_spares_siblings() {
        let mut data = vec![0u32; 64];
        let err = Pool::new(2)
            .par_chunks_exact_mut(
                &mut data,
                4,
                1,
                || (),
                |_, b, chunk| {
                    if b == 11 {
                        panic!("bad block");
                    }
                    chunk.fill(b as u32 + 1);
                },
            )
            .unwrap_err();
        assert_eq!(err.chunk, 11);
        // Blocks before the failing one on its worker, and every block of
        // the other worker, still completed.
        let done = data.chunks(4).filter(|c| c[0] != 0).count();
        assert!(done >= 8, "siblings must not be cancelled: {done}");
    }

    #[test]
    fn lowest_worker_error_wins_when_several_panic() {
        let err = Pool::new(4)
            .par_chunks(0..8, 1, |_| panic!("all fail"))
            .unwrap_err();
        assert_eq!(err.worker, 0, "{err:?}");
    }

    #[test]
    fn string_and_weird_payloads_render() {
        let err = Pool::new(1)
            .par_chunks(0..1, 1, |_| panic!("formatted {}", 42))
            .unwrap_err();
        assert_eq!(err.payload, "formatted 42");
        let err = Pool::new(1)
            .par_chunks(0..1, 1, |_| std::panic::panic_any(7u32))
            .unwrap_err();
        assert_eq!(err.payload, "<non-string panic payload>");
    }

    #[test]
    fn current_worker_is_set_per_part_and_restored() {
        assert_eq!(current_worker(), None);
        let seen = Mutex::new(Vec::new());
        Pool::new(4)
            .par_chunks(0..4, 1, |_| {
                seen.lock().unwrap().push(current_worker());
                // Nested dispatch: inner part ids must not leak outward.
                Pool::new(1).par_chunks(0..1, 1, |_| {}).unwrap();
                assert!(current_worker().is_some());
            })
            .unwrap();
        assert_eq!(current_worker(), None);
        let mut ids: Vec<_> = seen.into_inner().unwrap();
        ids.sort();
        assert_eq!(ids, vec![Some(0), Some(1), Some(2), Some(3)]);
    }
}
