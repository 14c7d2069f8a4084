//! Always-on executor observability: counters and per-phase wall time.
//!
//! The paper's evaluation (§5–§6) attributes cost to *where* time goes —
//! which of the three decomposition passes dominates, and how much memory
//! work each performs. This module gives the workspace the same
//! visibility at runtime, with no feature flags and no dependencies:
//!
//! * **Counters** — process-wide relaxed atomics updated by the pool
//!   primitives (one `fetch_add` per parallel loop, not per element) and
//!   by [`Scratch`](crate::Scratch) (buffered per worker, flushed when
//!   its part ends): parallel tasks dispatched, work items processed, scratch
//!   buffer allocations vs. reuses, and worker panics contained at a
//!   chunk boundary (see [`crate::PoolError`]).
//! * **Per-worker tallies** — the same dispatch counters split by worker
//!   id, so load imbalance is visible (the decomposition's static split
//!   should show near-identical per-worker chunk counts — the paper's
//!   perfect-load-balance claim).
//! * **Kernel hits** — which row-shuffle kernel the `ipt-core` dispatcher
//!   selected for each pass ([`record_kernel`]), making silent dispatch
//!   changes observable.
//! * **Phases** — named wall-time and byte accumulators driven by
//!   monotonic [`std::time::Instant`] timestamps. Engine code wraps each
//!   pass in [`phase`] and adds its bytes with [`record_phase_bytes`];
//!   `ipt-parallel` does both in one place (`run_pass`), under names
//!   such as `pre_rotate`, `row_shuffle`, `col_shuffle` and
//!   `post_rotate`, so callers can split a transpose's cost across the
//!   decomposition's steps.
//!
//! [`snapshot`] returns a [`PoolStats`] view of the totals since process
//! start (or the last [`reset`]); [`PoolStats::delta_since`] isolates one
//! region of interest without requiring exclusive use of [`reset`]:
//!
//! ```
//! use ipt_pool::stats;
//!
//! let before = stats::snapshot();
//! let mut v = vec![0u64; 4096];
//! ipt_pool::par_chunks_exact_mut(&mut v, 64, 1, || (), |_, b, chunk| {
//!     chunk.fill(b as u64);
//! })
//! .unwrap();
//! let delta = stats::snapshot().delta_since(&before);
//! assert!(delta.tasks >= 1);       // at least one worker part ran
//! assert_eq!(delta.chunks, 64);    // 4096 / 64 blocks processed
//! ```
//!
//! Totals are process-wide: concurrent pools all accumulate into the same
//! counters, so deltas taken around a region that shares the process with
//! other parallel work are upper bounds, not exact attributions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Worker parts dispatched (a sequential fallback counts as one part).
static TASKS: AtomicU64 = AtomicU64::new(0);
/// Work items handed to workers: blocks for `par_chunks_exact_mut`,
/// range indices for `par_chunks` / `par_chunks_init`.
static CHUNKS: AtomicU64 = AtomicU64::new(0);
/// Scratch requests that had to grow the backing allocation.
static SCRATCH_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Scratch requests served entirely from existing capacity.
static SCRATCH_REUSES: AtomicU64 = AtomicU64::new(0);
/// Worker panics caught at a chunk boundary and surfaced as `PoolError`.
static PANICS_CONTAINED: AtomicU64 = AtomicU64::new(0);

/// Recovery re-attempts driven by the retry ladder (`IPT_RETRY`): every
/// re-execution of a failed parallel op after a snapshot restore,
/// including the final sequential redo rung.
static RETRIES_ATTEMPTED: AtomicU64 = AtomicU64::new(0);
/// Parallel ops that completed successfully *after* at least one failure
/// — the recovery layer's bottom line.
static RECOVERED: AtomicU64 = AtomicU64::new(0);
/// Tasks the hang watchdog (`IPT_WATCHDOG_MS`) found past their deadline.
static WATCHDOG_TRIPS: AtomicU64 = AtomicU64::new(0);

/// The phase name most recently entered via [`phase`] anywhere in the
/// process (best effort: concurrent phases race on this one cell). The
/// watchdog reads it to attribute a stuck task to a decomposition pass.
static CURRENT_PHASE: Mutex<Option<&'static str>> = Mutex::new(None);

/// One named wall-time accumulator. Registration is append-only; slots
/// are identified by their `&'static str` name.
struct PhaseSlot {
    name: &'static str,
    calls: u64,
    nanos: u64,
    bytes: u64,
}

/// The phase table. A `Mutex` is fine here: [`phase`] locks once per
/// *pass over a whole matrix*, never in a per-element or per-chunk path.
static PHASES: Mutex<Vec<PhaseSlot>> = Mutex::new(Vec::new());

/// Per-worker tallies, indexed by worker id. Worker id `k` is the `k`-th
/// part of each dispatch (part 0 always runs on the calling thread), so
/// ids are comparable across dispatches of the same width.
static WORKERS: Mutex<Vec<WorkerSlot>> = Mutex::new(Vec::new());

/// One worker id's accumulated dispatch tallies.
#[derive(Clone, Copy, Default)]
struct WorkerSlot {
    tasks: u64,
    chunks: u64,
}

/// Row-shuffle kernel hit tallies, append-only by `&'static str` name
/// (see [`record_kernel`]).
static KERNELS: Mutex<Vec<KernelSlot>> = Mutex::new(Vec::new());

/// One kernel name's accumulated hit count.
struct KernelSlot {
    name: &'static str,
    hits: u64,
}

/// Record one parallel-loop dispatch: `parts` worker parts covering
/// `items` work items, split as the executor splits them (`items / parts`
/// each, the first `items % parts` workers taking one extra).
#[inline]
pub(crate) fn record_dispatch(parts: u64, items: u64) {
    TASKS.fetch_add(parts, Ordering::Relaxed);
    CHUNKS.fetch_add(items, Ordering::Relaxed);
    // One short lock per parallel loop (same cost class as [`phase`]),
    // never in a per-element or per-chunk path.
    let mut table = WORKERS.lock().unwrap();
    if table.len() < parts as usize {
        table.resize(parts as usize, WorkerSlot::default());
    }
    let (base, rem) = (items / parts, items % parts);
    for (k, slot) in table.iter_mut().take(parts as usize).enumerate() {
        slot.tasks += 1;
        slot.chunks += base + u64::from((k as u64) < rem);
    }
}

/// Attribute one whole-matrix row shuffle to the named kernel.
///
/// Called by `ipt-parallel` with the [`RowShuffleKernel::name`] the
/// dispatcher selected, once per pass — so snapshot deltas reveal which
/// kernel actually ran (e.g. whether a shape change silently flipped the
/// dispatch).
///
/// [`RowShuffleKernel::name`]:
///     https://docs.rs/ipt-core/latest/ipt_core/kernels/enum.RowShuffleKernel.html
pub fn record_kernel(name: &'static str) {
    let mut table = KERNELS.lock().unwrap();
    match table.iter_mut().find(|s| s.name == name) {
        Some(slot) => slot.hits += 1,
        None => table.push(KernelSlot { name, hits: 1 }),
    }
}

/// Flush one worker's scratch alloc/reuse tallies (called when a
/// [`Scratch`](crate::Scratch) is parked or dropped).
#[inline]
pub(crate) fn record_scratch(allocs: u64, reuses: u64) {
    if allocs > 0 {
        SCRATCH_ALLOCS.fetch_add(allocs, Ordering::Relaxed);
    }
    if reuses > 0 {
        SCRATCH_REUSES.fetch_add(reuses, Ordering::Relaxed);
    }
}

/// Count one worker panic contained by a pool primitive's chunk-boundary
/// `catch_unwind` (see [`crate::PoolError`]).
#[inline]
pub(crate) fn record_contained_panic() {
    PANICS_CONTAINED.fetch_add(1, Ordering::Relaxed);
}

/// Count one recovery re-attempt: a failed parallel op was rolled back
/// from its undo snapshots and re-executed (see
/// [`recovery`](crate::recovery)). Called by the retry driver, once per
/// rung actually run — never on the fault-free fast path.
#[inline]
pub fn record_retry() {
    RETRIES_ATTEMPTED.fetch_add(1, Ordering::Relaxed);
}

/// Count one parallel op that completed after at least one contained
/// failure: the recovery ladder's success tally.
#[inline]
pub fn record_recovered() {
    RECOVERED.fetch_add(1, Ordering::Relaxed);
}

/// Count one task the hang watchdog found past its `IPT_WATCHDOG_MS`
/// deadline (the process exits right after, so this surfaces in the
/// pre-exit report, not in later snapshots).
#[inline]
pub(crate) fn record_watchdog_trip() {
    WATCHDOG_TRIPS.fetch_add(1, Ordering::Relaxed);
}

/// The phase name most recently entered via [`phase`], or `"<no phase>"`
/// outside any phase. Best effort under concurrency — good enough for
/// the watchdog's diagnostic report, not for attribution math.
pub(crate) fn current_phase_name() -> &'static str {
    CURRENT_PHASE.lock().unwrap().unwrap_or("<no phase>")
}

/// RAII guard restoring the previous [`CURRENT_PHASE`] on drop, so the
/// name unwinds correctly through nested and panicking phases.
struct PhaseNameGuard {
    prev: Option<&'static str>,
}

impl PhaseNameGuard {
    fn enter(name: &'static str) -> PhaseNameGuard {
        let prev = CURRENT_PHASE.lock().unwrap().replace(name);
        PhaseNameGuard { prev }
    }
}

impl Drop for PhaseNameGuard {
    fn drop(&mut self) {
        *CURRENT_PHASE.lock().unwrap() = self.prev;
    }
}

/// Run `f`, attributing its wall time to the named phase.
///
/// Timing uses monotonic [`Instant`] timestamps taken once around the
/// whole closure — the overhead is two clock reads plus one short mutex
/// lock per call, so wrapping each pass of a transpose costs nothing
/// measurable. Nested phases each record their own full wall time (the
/// inner time is counted in both), mirroring how profilers report
/// inclusive cost. If `f` panics, no time is recorded.
///
/// ```
/// use ipt_pool::stats;
///
/// let before = stats::snapshot();
/// let answer = stats::phase("example_phase", || 6 * 7);
/// assert_eq!(answer, 42);
/// let delta = stats::snapshot().delta_since(&before);
/// assert_eq!(delta.phase("example_phase").unwrap().calls, 1);
/// ```
pub fn phase<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _name_guard = PhaseNameGuard::enter(name);
    let t0 = Instant::now();
    let out = f();
    let dt = t0.elapsed().as_nanos() as u64;
    let mut table = PHASES.lock().unwrap();
    match table.iter_mut().find(|s| s.name == name) {
        Some(slot) => {
            slot.calls += 1;
            slot.nanos += dt;
        }
        None => table.push(PhaseSlot {
            name,
            calls: 1,
            nanos: dt,
            bytes: 0,
        }),
    }
    out
}

/// Attribute `bytes` of memory traffic to the named phase.
///
/// Engine code calls this after [`phase`] with the payload the pass
/// touched — `ipt-parallel`'s `run_pass` records `2 * matrix bytes`
/// (one read + one write of every element) once a pass has succeeded,
/// the same *useful bytes* convention `memsim::phases` predicts. Dividing a
/// snapshot delta's [`PhaseStats::bytes`] by [`PhaseStats::secs`] gives
/// the phase's achieved payload bandwidth.
///
/// ```
/// use ipt_pool::stats;
///
/// let before = stats::snapshot();
/// stats::phase("bytes_doc_phase", || ());
/// stats::record_phase_bytes("bytes_doc_phase", 4096);
/// let delta = stats::snapshot().delta_since(&before);
/// assert_eq!(delta.phase("bytes_doc_phase").unwrap().bytes, 4096);
/// ```
pub fn record_phase_bytes(name: &'static str, bytes: u64) {
    let mut table = PHASES.lock().unwrap();
    match table.iter_mut().find(|s| s.name == name) {
        Some(slot) => slot.bytes += bytes,
        None => table.push(PhaseSlot {
            name,
            calls: 0,
            nanos: 0,
            bytes,
        }),
    }
}

/// Accumulated totals for one named phase (see [`phase`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStats {
    /// The `&'static str` the phase was recorded under.
    pub name: &'static str,
    /// Number of [`phase`] invocations attributed to this name.
    pub calls: u64,
    /// Total wall time across those invocations, in nanoseconds.
    pub nanos: u64,
    /// Payload bytes attributed via [`record_phase_bytes`] (read + write
    /// of every element the phase touched; `0` when the recorder never
    /// reported traffic for this phase).
    pub bytes: u64,
}

impl PhaseStats {
    /// Total wall time in seconds.
    pub fn secs(&self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// Achieved payload bandwidth in GB/s (`bytes / secs / 1e9`), or
    /// `None` when no time or no bytes were recorded.
    pub fn gbps(&self) -> Option<f64> {
        if self.nanos == 0 || self.bytes == 0 {
            return None;
        }
        Some(self.bytes as f64 / self.secs() / 1e9)
    }
}

/// Accumulated dispatch tallies for one worker id (see [`PoolStats::workers`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker id: the position of this worker's part within each
    /// dispatch. Part 0 runs on the calling thread.
    pub worker: usize,
    /// Dispatches this worker id took part in.
    pub tasks: u64,
    /// Work items (blocks / range indices) assigned to this worker id.
    pub chunks: u64,
}

/// Accumulated hit count for one row-shuffle kernel
/// (see [`record_kernel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// The kernel's stable name (`"scalar"`, `"block4"`, `"block8"`).
    pub name: &'static str,
    /// Whole-matrix row shuffles attributed to this kernel.
    pub hits: u64,
}

/// A point-in-time snapshot of every executor counter and phase timer.
///
/// Obtained from [`snapshot`]; two snapshots bracket a region of interest
/// via [`PoolStats::delta_since`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker parts dispatched (sequential fallbacks count as one).
    pub tasks: u64,
    /// Work items processed: blocks for `par_chunks_exact_mut`, range
    /// indices for `par_chunks` / `par_chunks_init`.
    pub chunks: u64,
    /// [`Scratch`](crate::Scratch) requests that grew the allocation.
    pub scratch_allocs: u64,
    /// [`Scratch`](crate::Scratch) requests served from capacity.
    pub scratch_reuses: u64,
    /// Worker panics caught at a chunk boundary and surfaced as
    /// [`PoolError`](crate::PoolError) instead of unwinding out of the
    /// dispatch. Nonzero means some parallel loop returned `Err` — a
    /// fault-injection run, or a real bug the containment turned from UB
    /// into a reported abort.
    pub panics_contained: u64,
    /// Recovery re-attempts driven by the `IPT_RETRY` ladder (see
    /// [`record_retry`]). Zero on every fault-free run.
    pub retries_attempted: u64,
    /// Parallel ops that completed after at least one contained failure
    /// (see [`record_recovered`]).
    pub recovered: u64,
    /// Tasks the hang watchdog found past their `IPT_WATCHDOG_MS`
    /// deadline (see [`crate::watchdog`]).
    pub watchdog_trips: u64,
    /// Per-phase wall-time totals, in first-recorded order.
    pub phases: Vec<PhaseStats>,
    /// Per-worker dispatch tallies, indexed by worker id. The
    /// decomposition hands every worker the same per-item cost, so
    /// `chunks` across workers of equal `tasks` should be near-uniform —
    /// the paper's perfect-load-balance claim, asserted in the pool tests.
    pub workers: Vec<WorkerStats>,
    /// Row-shuffle kernel hit counts, in first-recorded order
    /// (see [`record_kernel`]).
    pub kernels: Vec<KernelStats>,
}

impl PoolStats {
    /// The accumulated stats for `name`, if that phase ever ran.
    pub fn phase(&self, name: &str) -> Option<&PhaseStats> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// The hit count recorded for kernel `name`, if it ever ran.
    pub fn kernel(&self, name: &str) -> Option<&KernelStats> {
        self.kernels.iter().find(|k| k.name == name)
    }

    /// The tallies for worker id `worker`, if it was ever dispatched to.
    pub fn worker(&self, worker: usize) -> Option<&WorkerStats> {
        self.workers.iter().find(|w| w.worker == worker)
    }

    /// Sum of all phases' wall time, in nanoseconds.
    pub fn phase_total_nanos(&self) -> u64 {
        self.phases.iter().map(|p| p.nanos).sum()
    }

    /// The change between `earlier` and this snapshot: counters subtract
    /// (saturating), phases/kernels subtract by name, workers subtract by
    /// id, and entries with no activity in the interval are dropped.
    pub fn delta_since(&self, earlier: &PoolStats) -> PoolStats {
        let phases = self
            .phases
            .iter()
            .map(|p| {
                let prev = earlier.phase(p.name);
                PhaseStats {
                    name: p.name,
                    calls: p.calls.saturating_sub(prev.map_or(0, |q| q.calls)),
                    nanos: p.nanos.saturating_sub(prev.map_or(0, |q| q.nanos)),
                    bytes: p.bytes.saturating_sub(prev.map_or(0, |q| q.bytes)),
                }
            })
            .filter(|p| p.calls > 0 || p.nanos > 0 || p.bytes > 0)
            .collect();
        let workers = self
            .workers
            .iter()
            .map(|w| {
                let prev = earlier.worker(w.worker);
                WorkerStats {
                    worker: w.worker,
                    tasks: w.tasks.saturating_sub(prev.map_or(0, |q| q.tasks)),
                    chunks: w.chunks.saturating_sub(prev.map_or(0, |q| q.chunks)),
                }
            })
            .filter(|w| w.tasks > 0 || w.chunks > 0)
            .collect();
        let kernels = self
            .kernels
            .iter()
            .map(|k| {
                let prev = earlier.kernel(k.name);
                KernelStats {
                    name: k.name,
                    hits: k.hits.saturating_sub(prev.map_or(0, |q| q.hits)),
                }
            })
            .filter(|k| k.hits > 0)
            .collect();
        PoolStats {
            tasks: self.tasks.saturating_sub(earlier.tasks),
            chunks: self.chunks.saturating_sub(earlier.chunks),
            scratch_allocs: self.scratch_allocs.saturating_sub(earlier.scratch_allocs),
            scratch_reuses: self.scratch_reuses.saturating_sub(earlier.scratch_reuses),
            panics_contained: self
                .panics_contained
                .saturating_sub(earlier.panics_contained),
            retries_attempted: self
                .retries_attempted
                .saturating_sub(earlier.retries_attempted),
            recovered: self.recovered.saturating_sub(earlier.recovered),
            watchdog_trips: self.watchdog_trips.saturating_sub(earlier.watchdog_trips),
            phases,
            workers,
            kernels,
        }
    }
}

/// Read every counter and phase timer at this instant.
///
/// Counters are read with relaxed ordering: a snapshot taken while other
/// threads are mid-flight is a consistent-enough lower bound, exact once
/// the work being measured has finished (every pool primitive returns
/// only after all its parts have, and a part flushes its scratch tallies
/// before it ends).
pub fn snapshot() -> PoolStats {
    let phases = PHASES
        .lock()
        .unwrap()
        .iter()
        .map(|s| PhaseStats {
            name: s.name,
            calls: s.calls,
            nanos: s.nanos,
            bytes: s.bytes,
        })
        .collect();
    let workers = WORKERS
        .lock()
        .unwrap()
        .iter()
        .enumerate()
        .map(|(worker, s)| WorkerStats {
            worker,
            tasks: s.tasks,
            chunks: s.chunks,
        })
        .collect();
    let kernels = KERNELS
        .lock()
        .unwrap()
        .iter()
        .map(|s| KernelStats {
            name: s.name,
            hits: s.hits,
        })
        .collect();
    PoolStats {
        tasks: TASKS.load(Ordering::Relaxed),
        chunks: CHUNKS.load(Ordering::Relaxed),
        scratch_allocs: SCRATCH_ALLOCS.load(Ordering::Relaxed),
        scratch_reuses: SCRATCH_REUSES.load(Ordering::Relaxed),
        panics_contained: PANICS_CONTAINED.load(Ordering::Relaxed),
        retries_attempted: RETRIES_ATTEMPTED.load(Ordering::Relaxed),
        recovered: RECOVERED.load(Ordering::Relaxed),
        watchdog_trips: WATCHDOG_TRIPS.load(Ordering::Relaxed),
        phases,
        workers,
        kernels,
    }
}

/// Zero every counter and phase timer.
///
/// Intended for harness startup; concurrent recorders are not paused, so
/// prefer [`PoolStats::delta_since`] inside tests that share a process
/// with other parallel work.
pub fn reset() {
    TASKS.store(0, Ordering::Relaxed);
    CHUNKS.store(0, Ordering::Relaxed);
    SCRATCH_ALLOCS.store(0, Ordering::Relaxed);
    SCRATCH_REUSES.store(0, Ordering::Relaxed);
    PANICS_CONTAINED.store(0, Ordering::Relaxed);
    RETRIES_ATTEMPTED.store(0, Ordering::Relaxed);
    RECOVERED.store(0, Ordering::Relaxed);
    WATCHDOG_TRIPS.store(0, Ordering::Relaxed);
    PHASES.lock().unwrap().clear();
    WORKERS.lock().unwrap().clear();
    KERNELS.lock().unwrap().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that enter phases: they would otherwise race
    /// on the process-global [`CURRENT_PHASE`] cell.
    static PHASE_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn phase_lock() -> std::sync::MutexGuard<'static, ()> {
        PHASE_TEST_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn phase_accumulates_calls_and_time() {
        let _serial = phase_lock();
        let before = snapshot();
        let r = phase("stats_test_phase", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        assert_eq!(r, 7);
        phase("stats_test_phase", || ());
        let d = snapshot().delta_since(&before);
        let p = d.phase("stats_test_phase").expect("phase recorded");
        assert_eq!(p.calls, 2);
        assert!(p.nanos >= 2_000_000, "slept 2ms, recorded {}ns", p.nanos);
        assert!(p.secs() >= 0.002);
    }

    #[test]
    fn delta_drops_idle_phases_and_subtracts_counters() {
        let _serial = phase_lock();
        phase("stats_idle_phase", || ());
        let before = snapshot();
        record_dispatch(3, 100);
        let d = snapshot().delta_since(&before);
        assert_eq!(d.tasks, 3);
        assert_eq!(d.chunks, 100);
        assert!(d.phase("stats_idle_phase").is_none());
    }

    #[test]
    fn kernel_hits_accumulate_and_delta_by_name() {
        let before = snapshot();
        record_kernel("stats_test_kernel");
        record_kernel("stats_test_kernel");
        record_kernel("stats_other_kernel");
        let d = snapshot().delta_since(&before);
        assert_eq!(d.kernel("stats_test_kernel").unwrap().hits, 2);
        assert_eq!(d.kernel("stats_other_kernel").unwrap().hits, 1);
        assert!(d.kernel("stats_never_recorded").is_none());
    }

    #[test]
    fn worker_tallies_follow_the_executor_split() {
        let before = snapshot();
        // 10 items over 3 parts split 4/3/3 (first `rem` parts take one
        // extra) — the same split Pool::par_chunks_* uses.
        record_dispatch(3, 10);
        let d = snapshot().delta_since(&before);
        let per_worker: Vec<u64> = (0..3)
            .map(|k| d.worker(k).map_or(0, |w| w.chunks))
            .collect();
        assert_eq!(per_worker, [4, 3, 3]);
        assert!((0..3).all(|k| d.worker(k).unwrap().tasks >= 1));
    }

    #[test]
    fn recovery_counters_accumulate_and_delta() {
        let before = snapshot();
        record_retry();
        record_retry();
        record_recovered();
        let d = snapshot().delta_since(&before);
        assert!(d.retries_attempted >= 2, "{d:?}");
        assert!(d.recovered >= 1, "{d:?}");
    }

    #[test]
    fn current_phase_name_tracks_nesting_and_panics() {
        let _serial = phase_lock();
        assert_eq!(current_phase_name(), "<no phase>");
        phase("stats_name_outer", || {
            assert_eq!(current_phase_name(), "stats_name_outer");
            phase("stats_name_inner", || {
                assert_eq!(current_phase_name(), "stats_name_inner");
            });
            assert_eq!(current_phase_name(), "stats_name_outer");
            let _ = std::panic::catch_unwind(|| {
                phase("stats_name_panicky", || panic!("unwind through phase"))
            });
            assert_eq!(current_phase_name(), "stats_name_outer");
        });
    }

    #[test]
    fn contained_panics_accumulate() {
        let before = snapshot();
        record_contained_panic();
        record_contained_panic();
        let d = snapshot().delta_since(&before);
        assert!(d.panics_contained >= 2, "{d:?}");
    }

    #[test]
    fn scratch_counters_flush() {
        let before = snapshot();
        record_scratch(2, 5);
        let d = snapshot().delta_since(&before);
        assert!(d.scratch_allocs >= 2);
        assert!(d.scratch_reuses >= 5);
    }

    #[test]
    fn phase_bytes_accumulate_and_expose_bandwidth() {
        let _serial = phase_lock();
        let before = snapshot();
        phase("stats_bytes_phase", || {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        record_phase_bytes("stats_bytes_phase", 1000);
        record_phase_bytes("stats_bytes_phase", 24);
        let d = snapshot().delta_since(&before);
        let p = d.phase("stats_bytes_phase").expect("phase recorded");
        assert_eq!(p.bytes, 1024);
        let gbps = p.gbps().expect("time and bytes recorded");
        assert!(gbps > 0.0 && gbps.is_finite());
        // Bytes on a never-timed phase still surface in the delta.
        let before = snapshot();
        record_phase_bytes("stats_bytes_only_phase", 7);
        let d = snapshot().delta_since(&before);
        let p = d.phase("stats_bytes_only_phase").unwrap();
        assert_eq!((p.calls, p.nanos, p.bytes), (0, 0, 7));
        assert!(p.gbps().is_none());
    }

    #[test]
    fn phase_total_sums() {
        let s = PoolStats {
            phases: vec![
                PhaseStats {
                    name: "a",
                    calls: 1,
                    nanos: 10,
                    bytes: 0,
                },
                PhaseStats {
                    name: "b",
                    calls: 1,
                    nanos: 32,
                    bytes: 0,
                },
            ],
            ..PoolStats::default()
        };
        assert_eq!(s.phase_total_nanos(), 42);
    }
}
