//! # ipt-parallel — parallel and cache-aware decomposed transposition
//!
//! The decomposition's whole point (paper §1, §3) is that every row
//! permutation is independent of every other row, and likewise for
//! columns — so the transpose parallelizes with *perfect load balance*,
//! unlike cycle following whose cycle lengths are badly distributed.
//!
//! This crate layers onto `ipt-core`:
//!
//! * [`c2r_parallel`] / [`r2c_parallel`] / [`transpose_parallel`] —
//!   data-parallel versions of the three-step algorithm on the workspace's
//!   own `ipt-pool` executor on persistent workers (the paper's §5.1 OpenMP CPU
//!   implementation, and the thread-grid skeleton of its GPU
//!   implementation);
//! * [`cache_aware`] — the §4.6 two-phase (coarse cycle-following + fine
//!   blocked) column rotation and the §4.7 sub-row cycle-following row
//!   permute, which turn strided column traffic into cache-line-sized
//!   sub-row traffic;
//! * [`stage_column_blocks`] — the §6.1 staged column blocks the skinny
//!   AoS⇄SoA specialization runs on. It and every [`cache_aware`] pass
//!   share one column-group executor, which owns their claims, fault
//!   sites and recovery;
//! * per-thread scratch buffers, the CPU analogue of the §4.5 "on-chip"
//!   row shuffle (each worker's temporary row lives in its own cache).
//!
//! Work stays `O(mn)` and auxiliary space `O(max(m, n))` *per thread*.
//!
//! ```
//! use ipt_parallel::{transpose_parallel, ParOptions};
//! use ipt_core::Layout;
//!
//! let mut a: Vec<u64> = (0..6 * 4).collect();
//! transpose_parallel(&mut a, 6, 4, Layout::RowMajor, &ParOptions::default()).unwrap();
//! assert_eq!(a[1], 4); // element (0, 1) of the 4 x 6 transpose
//! ```
//!
//! All parallel entry points return `Result<(), TransposeAborted>`: if a
//! worker panics mid-phase (a kernel bug, or an injected fault), the pool
//! contains the panic at the chunk boundary and the error names the phase
//! and worker — the buffer may be torn, but a torn matrix is *reported*,
//! never silently returned as if transposed.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod batched;
pub mod cache_aware;
mod exec;
mod recover;
pub mod rows;
mod unsafe_slice;

pub use exec::stage_column_blocks;

use ipt_core::index::C2rParams;
use ipt_core::Layout;
use ipt_pool::PoolError;

/// A parallel transpose aborted because a worker panicked mid-phase.
///
/// The pool contains worker panics at the chunk boundary
/// ([`ipt_pool::PoolError`]); this wrapper adds the decomposition phase
/// (one of [`phases::ALL`], or `"batched"` for the batched entry points)
/// so the caller knows *which pass* died. The buffer contents are
/// unspecified after an abort — phases mutate in place — but every
/// element is still a value that was previously in the buffer (workers
/// only permute elements), so there is no UB, only a torn permutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransposeAborted {
    /// The phase in which the worker panic was contained.
    pub phase: &'static str,
    /// The contained panic: worker index, chunk, and payload.
    pub source: PoolError,
}

impl std::fmt::Display for TransposeAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "transpose aborted in phase {}: {}",
            self.phase, self.source
        )
    }
}

impl std::error::Error for TransposeAborted {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Time one phase into [`ipt_pool::stats`] and lift its pool error into
/// a phase-attributed [`TransposeAborted`].
fn run_phase(
    name: &'static str,
    f: impl FnOnce() -> Result<(), PoolError>,
) -> Result<(), TransposeAborted> {
    ipt_pool::stats::phase(name, f).map_err(|source| TransposeAborted {
        phase: name,
        source,
    })
}

/// Phase names under which [`c2r_parallel`] / [`r2c_parallel`] attribute
/// wall time to [`ipt_pool::stats`] (one [`ipt_pool::stats::phase`] call
/// per pass over the matrix, so the instrumentation is always on and
/// costs two clock reads per phase).
///
/// Snapshot deltas around a transpose split its cost across the
/// decomposition's steps, the measurement the paper's §5–§6 analysis is
/// built on:
///
/// ```
/// use ipt_parallel::{c2r_parallel, phases, ParOptions};
///
/// let before = ipt_pool::stats::snapshot();
/// let mut a: Vec<u64> = (0..96 * 64).collect();
/// c2r_parallel(&mut a, 96, 64, &ParOptions::default()).unwrap();
/// let delta = ipt_pool::stats::snapshot().delta_since(&before);
/// assert!(delta.phase(phases::ROW_SHUFFLE).unwrap().calls >= 1);
/// assert!(delta.phase(phases::COL_SHUFFLE).unwrap().calls >= 1);
/// ```
pub mod phases {
    /// C2R step 1: pre-rotate columns by `floor(j/b)` (Eq. 23); skipped
    /// when `gcd(m, n) = 1`.
    pub const PRE_ROTATE: &str = "pre_rotate";
    /// C2R step 2 / R2C step 3: permute within each row (Eqs. 24/31).
    pub const ROW_SHUFFLE: &str = "row_shuffle";
    /// C2R step 3 / R2C steps 1–2: permute within each column
    /// (Eqs. 26/32–35).
    pub const COL_SHUFFLE: &str = "col_shuffle";
    /// R2C step 4: undo the pre-rotation (`r^-1_j`, Eq. 36); skipped when
    /// `gcd(m, n) = 1`.
    pub const POST_ROTATE: &str = "post_rotate";

    /// Every phase name, in C2R execution order.
    pub const ALL: [&str; 4] = [PRE_ROTATE, ROW_SHUFFLE, COL_SHUFFLE, POST_ROTATE];
}

/// Elements of matrix data one worker should own before another thread is
/// worth spawning — roughly one L1 cache's worth of moves. Below this, the
/// `ipt-pool` primitives run inline on the calling thread.
const PAR_MIN_ELEMS: usize = 4096;

/// Panic unless a buffer of `len` elements holds a `rows x cols` matrix.
/// The product is taken by [`ipt_core::shape_len`], which panics on
/// overflow instead of wrapping to a small count that a short buffer
/// could match.
#[track_caller]
pub(crate) fn assert_shape(len: usize, rows: usize, cols: usize) {
    assert_eq!(
        len,
        ipt_core::shape_len(rows, cols),
        "buffer length must be rows * cols ({rows} x {cols})"
    );
}

/// `min_grain` (in rows) for row-wise parallel loops over `n`-element rows.
pub(crate) fn row_grain(n: usize) -> usize {
    (PAR_MIN_ELEMS / n.max(1)).max(1)
}

/// `min_grain` (in groups/blocks) for loops whose unit of work moves
/// `unit_elems` elements.
pub(crate) fn group_grain(unit_elems: usize) -> usize {
    (PAR_MIN_ELEMS / unit_elems.max(1)).max(1)
}

/// Widen the global pool to at least two workers so tests exercise the
/// real multi-threaded paths even on single-CPU machines.
#[cfg(test)]
pub(crate) fn force_multithreaded_pool() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        if ipt_pool::num_threads() < 2 {
            ipt_pool::set_num_threads(2);
        }
    });
}

/// Tuning knobs for the parallel/cache-aware implementations.
#[derive(Debug, Clone, Copy)]
pub struct ParOptions {
    /// Sub-row width in **elements** for column-group operations — the
    /// paper sizes this so one sub-row spans a cache line (§4.6; 128 B on
    /// the K20c). When 0, a per-type default of
    /// `max(1, 256 bytes / size_of::<T>())` is used — a few cache lines,
    /// which measures fastest for the CPU cache hierarchies this crate
    /// targets (see the `ablations` bench).
    pub col_group: usize,
    /// Row-block height for the fine rotation pass (§4.6): the sub-rows
    /// its on-cache window stages per block.
    pub block_rows: usize,
}

impl Default for ParOptions {
    fn default() -> ParOptions {
        ParOptions {
            col_group: 0,
            block_rows: 256,
        }
    }
}

impl ParOptions {
    /// Resolve the effective sub-row width for element type `T`.
    pub fn group_width<T>(&self) -> usize {
        if self.col_group > 0 {
            self.col_group
        } else {
            (256 / core::mem::size_of::<T>().max(1)).max(1)
        }
    }
}

/// Parallel C2R: transpose an `m x n` row-major buffer in place into its
/// `n x m` row-major transpose, using the global `ipt_pool` thread count.
pub fn c2r_parallel<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    m: usize,
    n: usize,
    opts: &ParOptions,
) -> Result<(), TransposeAborted> {
    assert_shape(data.len(), m, n);
    if m <= 1 || n <= 1 {
        return Ok(());
    }
    let p = C2rParams::new(m, n);
    let w = opts.group_width::<T>();
    let pass_bytes = phase_pass_bytes::<T>(data.len());
    run_phase(phases::PRE_ROTATE, || {
        cache_aware::prerotate(data, &p, w, opts.block_rows)
    })?;
    run_phase(phases::ROW_SHUFFLE, || rows::row_shuffle_parallel(data, &p))?;
    run_phase(phases::COL_SHUFFLE, || {
        cache_aware::col_shuffle_fused(data, &p, w, opts.block_rows)
    })?;
    // Traffic is attributed only after the whole transpose succeeds: an
    // aborted run's partial passes would skew the phase cost model.
    if p.c > 1 {
        ipt_pool::stats::record_phase_bytes(phases::PRE_ROTATE, pass_bytes);
    }
    ipt_pool::stats::record_phase_bytes(phases::ROW_SHUFFLE, pass_bytes);
    ipt_pool::stats::record_phase_bytes(phases::COL_SHUFFLE, pass_bytes);
    Ok(())
}

/// Payload bytes one decomposition pass touches: a read and a write of
/// every element — the *useful bytes* convention `memsim::phases` uses,
/// reported to [`ipt_pool::stats::record_phase_bytes`] once per executed
/// phase (the rotation passes skip reporting when `gcd(m, n) = 1` turns
/// them into no-ops, matching the model's skipped-phase prediction).
fn phase_pass_bytes<T>(len: usize) -> u64 {
    2 * (len * core::mem::size_of::<T>()) as u64
}

/// Parallel R2C: the inverse of [`c2r_parallel`] — consumes an `n x m`
/// row-major buffer, leaves the `m x n` row-major transpose.
pub fn r2c_parallel<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    m: usize,
    n: usize,
    opts: &ParOptions,
) -> Result<(), TransposeAborted> {
    assert_shape(data.len(), m, n);
    if m <= 1 || n <= 1 {
        return Ok(());
    }
    let p = C2rParams::new(m, n);
    let w = opts.group_width::<T>();
    let pass_bytes = phase_pass_bytes::<T>(data.len());
    run_phase(phases::COL_SHUFFLE, || {
        cache_aware::col_shuffle_fused_inverse(data, &p, w, opts.block_rows)
    })?;
    run_phase(phases::ROW_SHUFFLE, || {
        rows::row_shuffle_forward_parallel(data, &p)
    })?;
    run_phase(phases::POST_ROTATE, || {
        cache_aware::postrotate_inverse(data, &p, w, opts.block_rows)
    })?;
    ipt_pool::stats::record_phase_bytes(phases::COL_SHUFFLE, pass_bytes);
    ipt_pool::stats::record_phase_bytes(phases::ROW_SHUFFLE, pass_bytes);
    if p.c > 1 {
        ipt_pool::stats::record_phase_bytes(phases::POST_ROTATE, pass_bytes);
    }
    Ok(())
}

/// Parallel in-place transpose of a `rows x cols` matrix in `layout`,
/// selecting C2R/R2C with the paper's §5.2 heuristic — the parallel
/// counterpart of `ipt_core::transpose`.
pub fn transpose_parallel<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    rows: usize,
    cols: usize,
    layout: Layout,
    opts: &ParOptions,
) -> Result<(), TransposeAborted> {
    assert_shape(data.len(), rows, cols);
    let (m, n) = match layout {
        Layout::RowMajor => (rows, cols),
        Layout::ColMajor => (cols, rows),
    };
    if m > n {
        c2r_parallel(data, m, n, opts)
    } else {
        r2c_parallel(data, n, m, opts)
    }
}

/// Parallel in-place transpose with a caller-forced algorithm — the
/// parallel counterpart of `ipt_core::transpose_with`, for benchmarks
/// that pit C2R and R2C against each other on identical inputs.
pub fn transpose_parallel_with<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    rows: usize,
    cols: usize,
    layout: Layout,
    algorithm: ipt_core::Algorithm,
    opts: &ParOptions,
) -> Result<(), TransposeAborted> {
    assert_shape(data.len(), rows, cols);
    let (m, n) = match layout {
        Layout::RowMajor => (rows, cols),
        Layout::ColMajor => (cols, rows),
    };
    match algorithm {
        ipt_core::Algorithm::C2r => c2r_parallel(data, m, n, opts),
        ipt_core::Algorithm::R2c => r2c_parallel(data, n, m, opts),
        ipt_core::Algorithm::Auto => transpose_parallel(data, rows, cols, layout, opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipt_core::check::{fill_pattern, is_transposed_pattern};
    use ipt_core::Scratch;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serializes every test here that runs timed phases: phase times and
    /// bytes are process-global, so a sibling test's transpose would land
    /// in another test's snapshot delta. Poison is ignored, so one failing
    /// test does not fail the rest on the lock.
    fn phase_lock() -> MutexGuard<'static, ()> {
        static PHASES: Mutex<()> = Mutex::new(());
        PHASES.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn sizes() -> Vec<(usize, usize)> {
        let mut v = Vec::new();
        for m in 1..=9 {
            for n in 1..=9 {
                v.push((m, n));
            }
        }
        v.extend_from_slice(&[
            (3, 8),
            (4, 8),
            (16, 24),
            (17, 19),
            (1, 64),
            (64, 1),
            (33, 33),
            (100, 64),
            (64, 100),
            (128, 96),
            (97, 251),
            (250, 6),
            (6, 250),
        ]);
        v
    }

    #[test]
    fn parallel_c2r_matches_sequential() {
        let _phases = phase_lock();
        crate::force_multithreaded_pool();
        for (m, n) in sizes() {
            let mut a = vec![0u64; m * n];
            fill_pattern(&mut a);
            let mut b = a.clone();
            c2r_parallel(&mut a, m, n, &ParOptions::default()).unwrap();
            ipt_core::c2r(&mut b, m, n, &mut Scratch::new());
            assert_eq!(a, b, "{m}x{n}");
        }
    }

    #[test]
    fn parallel_r2c_matches_sequential() {
        let _phases = phase_lock();
        crate::force_multithreaded_pool();
        for (m, n) in sizes() {
            let mut a = vec![0u32; m * n];
            fill_pattern(&mut a);
            let mut b = a.clone();
            r2c_parallel(&mut a, m, n, &ParOptions::default()).unwrap();
            ipt_core::r2c(&mut b, m, n, &mut Scratch::new());
            assert_eq!(a, b, "{m}x{n}");
        }
    }

    #[test]
    fn parallel_transpose_both_layouts() {
        let _phases = phase_lock();
        crate::force_multithreaded_pool();
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            for (m, n) in sizes() {
                let mut a = vec![0u64; m * n];
                fill_pattern(&mut a);
                transpose_parallel(&mut a, m, n, layout, &ParOptions::default()).unwrap();
                assert!(
                    is_transposed_pattern(&a, m, n, layout),
                    "{m}x{n} {layout:?}"
                );
            }
        }
    }

    #[test]
    fn tiny_group_widths_still_correct() {
        let _phases = phase_lock();
        crate::force_multithreaded_pool();
        for w in [1usize, 2, 3, 5] {
            let opts = ParOptions {
                col_group: w,
                block_rows: 4,
            };
            for (m, n) in [(13usize, 21usize), (21, 13), (8, 8), (30, 45)] {
                let mut a = vec![0u16; m * n];
                fill_pattern(&mut a);
                let mut b = a.clone();
                c2r_parallel(&mut a, m, n, &opts).unwrap();
                ipt_core::c2r(&mut b, m, n, &mut Scratch::new());
                assert_eq!(a, b, "{m}x{n} w={w}");
            }
        }
    }

    #[test]
    fn forced_algorithms_agree_with_heuristic() {
        let _phases = phase_lock();
        for alg in [
            ipt_core::Algorithm::C2r,
            ipt_core::Algorithm::R2c,
            ipt_core::Algorithm::Auto,
        ] {
            for layout in [Layout::RowMajor, Layout::ColMajor] {
                let (r, c) = (18usize, 30usize);
                let mut a = vec![0u64; r * c];
                fill_pattern(&mut a);
                transpose_parallel_with(&mut a, r, c, layout, alg, &ParOptions::default()).unwrap();
                assert!(
                    is_transposed_pattern(&a, r, c, layout),
                    "{alg:?} {layout:?}"
                );
            }
        }
    }

    #[test]
    fn phases_are_attributed() {
        let _phases = phase_lock();
        crate::force_multithreaded_pool();
        let (m, n) = (60usize, 48usize); // gcd > 1: pre/post rotations run
        let before = ipt_pool::stats::snapshot();
        let mut a = vec![0u64; m * n];
        fill_pattern(&mut a);
        let opts = ParOptions::default();
        c2r_parallel(&mut a, m, n, &opts).unwrap();
        r2c_parallel(&mut a, m, n, &opts).unwrap();
        let d = ipt_pool::stats::snapshot().delta_since(&before);
        for name in [phases::PRE_ROTATE, phases::POST_ROTATE] {
            assert!(d.phase(name).unwrap().calls >= 1, "{name}: {d:?}");
        }
        for name in [phases::ROW_SHUFFLE, phases::COL_SHUFFLE] {
            assert!(d.phase(name).unwrap().calls >= 2, "{name}: {d:?}");
        }
        assert!(d.tasks > 0, "pool dispatches recorded: {d:?}");
        assert!(d.chunks > 0, "work items recorded: {d:?}");
        // Every executed pass reports read + write of the whole matrix.
        let pass = 2 * (m * n * core::mem::size_of::<u64>()) as u64;
        for name in [phases::PRE_ROTATE, phases::POST_ROTATE] {
            assert_eq!(d.phase(name).unwrap().bytes, pass, "{name}: {d:?}");
        }
        for name in [phases::ROW_SHUFFLE, phases::COL_SHUFFLE] {
            assert_eq!(d.phase(name).unwrap().bytes, 2 * pass, "{name}: {d:?}");
        }
    }

    #[test]
    fn coprime_shapes_report_no_rotation_bytes() {
        let _phases = phase_lock();
        crate::force_multithreaded_pool();
        let (m, n) = (61usize, 48usize); // gcd = 1: rotations are no-ops
        let before = ipt_pool::stats::snapshot();
        let mut a = vec![0u64; m * n];
        fill_pattern(&mut a);
        c2r_parallel(&mut a, m, n, &ParOptions::default()).unwrap();
        let d = ipt_pool::stats::snapshot().delta_since(&before);
        let pre = d.phase(phases::PRE_ROTATE).map_or(0, |p| p.bytes);
        assert_eq!(pre, 0, "no-op pre-rotation must report no traffic: {d:?}");
        let pass = 2 * (m * n * core::mem::size_of::<u64>()) as u64;
        assert_eq!(d.phase(phases::ROW_SHUFFLE).unwrap().bytes, pass);
        assert_eq!(d.phase(phases::COL_SHUFFLE).unwrap().bytes, pass);
    }

    #[test]
    fn overflowing_shapes_panic_before_any_pass() {
        // 2^(bits-1) x 2 wraps to 0 elements, which an empty buffer would
        // match: the checked product must refuse the shape by name.
        let big = 1usize << (usize::BITS - 1);
        let opts = ParOptions::default();
        type Call<'a> = &'a dyn Fn(&mut [u8]) -> bool;
        let calls: [(&str, Call); 5] = [
            ("c2r_parallel", &|a| c2r_parallel(a, big, 2, &opts).is_ok()),
            ("r2c_parallel", &|a| r2c_parallel(a, 2, big, &opts).is_ok()),
            ("transpose_parallel", &|a| {
                transpose_parallel(a, big, 2, Layout::RowMajor, &opts).is_ok()
            }),
            ("transpose_parallel_with", &|a| {
                let alg = ipt_core::Algorithm::Auto;
                transpose_parallel_with(a, 2, big, Layout::ColMajor, alg, &opts).is_ok()
            }),
            ("rotate_columns_cache_aware", &|a| {
                cache_aware::rotate_columns_cache_aware(a, big, 2, 4, 8, |j| j).is_ok()
            }),
        ];
        for (name, call) in calls {
            let err = catch_unwind(AssertUnwindSafe(|| call(&mut []))).unwrap_err();
            let msg = err.downcast_ref::<String>().unwrap();
            assert!(msg.contains("overflows usize"), "{name}: {msg}");
        }
        let err = catch_unwind(|| c2r_parallel(&mut [0u8; 5], 2, 3, &opts)).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(
            msg.contains("buffer length must be rows * cols (2 x 3)"),
            "{msg}"
        );
    }

    #[test]
    fn roundtrip_parallel() {
        let _phases = phase_lock();
        crate::force_multithreaded_pool();
        let (m, n) = (40usize, 72usize);
        let mut a = vec![0u64; m * n];
        fill_pattern(&mut a);
        let orig = a.clone();
        let opts = ParOptions::default();
        c2r_parallel(&mut a, m, n, &opts).unwrap();
        r2c_parallel(&mut a, m, n, &opts).unwrap();
        assert_eq!(a, orig);
    }
}
