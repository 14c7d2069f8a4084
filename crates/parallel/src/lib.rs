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
//! * one [`Plan`] per call: every entry point resolves its shape check,
//!   direction and view ([`ipt_core::Plan`]) and its [`Route`] once, then
//!   runs a `match` on the route — nothing to do for a vector or an
//!   empty matrix, the element path, the **tiled route** for shapes
//!   whose sides are multiples of the `L` elements one 4 KiB block holds,
//!   or the **skinny route** of the §6.1 AoS⇄SoA conversions
//!   ([`transpose_skinny_c2r`] / [`transpose_skinny_r2c`]). The plan's
//!   `Display` is what `ipt model` prints;
//! * one **two-level transpose** under the tiled and skinny routes: a
//!   stack of `P` contiguous `[K][s]` chunks becomes its `s x P·K`
//!   transpose by transposing every chunk ([`phases::CHUNK_TRANSPOSE`])
//!   and then the `P x s` matrix of `K`-element blocks with the §4.7
//!   sub-row permute ([`phases::BLOCK_PERMUTE`]). A square chunk is
//!   transposed in place: 8-byte elements with no padding bytes (`u64`,
//!   `f64`, `[u8; 8]` and the like, [`TileKernel`]) by 4 x 4 blocks in
//!   AVX2 registers when the CPU has AVX2 and 4 divides the side, every
//!   other case by a scalar swap of 16 x 16 sub-tile pairs; a
//!   rectangular one is staged in the worker's scratch. The tiled route
//!   is C2R on the `m x n/L` matrix of blocks (the element path's
//!   passes, [`phases::ALL`], with page-sized moves and no fine pass),
//!   then the two-level transpose of each `m x L` panel, `P = m/L`
//!   square `L x L` chunks; the skinny route is the two-level transpose
//!   of the `n x m` AoS in chunks of at most 512 KiB, plus a peeled tail
//!   when `n` has no divisor that fills one (a struct wider than a chunk
//!   takes the element path). Their inverses run the steps inverted in
//!   reverse order;
//! * one task executor under every pass — each [`cache_aware`] pass, the
//!   two-level chunks, the [`rows`] shuffle and the [`batched`]
//!   transposes — which owns their fault sites, undo journal and
//!   recovery;
//! * one recorder over every pass: each pass of every route has one
//!   name, a [`phases`] constant, under which it is timed, its bytes are
//!   counted once it succeeds, its faults are injected, its checked-mode
//!   violations are reported and its abort is named.
//! * per-thread scratch buffers, the CPU analogue of the §4.5 "on-chip"
//!   row shuffle (each worker's temporary row lives in its own cache).
//!
//! Work stays `O(mn)` and auxiliary space `O(max(m, n))` *per thread*.
//! On the tiled route it is one block-matrix row (`n/L` pages) for the
//! row shuffle, one page and an `m`-entry visited mask per column group,
//! and a pair of 16 x 16 sub-tiles for the scalar chunk kernel (the AVX2
//! kernel stages nothing); on the skinny route one chunk and a
//! `P·m`-entry visited mask.
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
//! worker panics mid-pass (a kernel bug, or an injected fault), the pool
//! contains the panic at the chunk boundary and the error names the pass
//! and worker — the buffer may be torn, but a torn matrix is *reported*,
//! never silently returned as if transposed.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod batched;
pub mod cache_aware;
mod exec;
mod plan;
pub mod rows;
mod skinny;
mod tiled;
mod two_level;
mod unsafe_slice;

pub use plan::{Plan, Route};
pub use skinny::{transpose_skinny_c2r, transpose_skinny_r2c};
pub use tiled::tile_side;
pub use two_level::TileKernel;

use std::mem::size_of;

use ipt_core::index::C2rParams;
use ipt_core::{Algorithm, Direction, Layout};
use ipt_pool::PoolError;

/// A parallel transpose aborted because a worker panicked mid-pass.
///
/// The pool contains worker panics at the chunk boundary
/// ([`ipt_pool::PoolError`]); this wrapper adds the pass that died, by
/// its [`phases`] name. The buffer contents are
/// unspecified after an abort — passes mutate in place — but every
/// element is still a value that was previously in the buffer (workers
/// only permute elements), so there is no UB, only a torn permutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransposeAborted {
    /// The [`phases`] name of the pass in which the worker panic was
    /// contained.
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

/// Run one pass over `data` and record it: the one place a pass is
/// timed, attributed and counted.
///
/// `name` is the pass's [`phases`] constant, which its executor op also
/// takes as its fault site and checked-mode label. The pass's wall time
/// goes to [`ipt_pool::stats::phase`] under `name`; a contained worker
/// panic comes back as a [`TransposeAborted`] naming it; and once the
/// pass has succeeded, its payload — a read and a write of every element
/// of `data`, the *useful bytes* convention `memsim::phases` predicts —
/// goes to [`ipt_pool::stats::record_phase_bytes`]. A pass with nothing
/// to do (a rotation when `gcd(m, n) = 1`, a block permute over stacks
/// of one chunk) is not run, so it records nothing.
pub(crate) fn run_pass<T>(
    name: &'static str,
    data: &mut [T],
    pass: impl FnOnce(&mut [T]) -> Result<(), PoolError>,
) -> Result<(), TransposeAborted> {
    let bytes = 2 * core::mem::size_of_val(data) as u64;
    ipt_pool::stats::phase(name, || pass(data)).map_err(|source| TransposeAborted {
        phase: name,
        source,
    })?;
    ipt_pool::stats::record_phase_bytes(name, bytes);
    Ok(())
}

/// The name of every pass: its [`ipt_pool::stats`] timer and byte key,
/// its fault site (`IPT_FAULT`), its checked-mode label (`IPT_CHECK`) and
/// its [`TransposeAborted::phase`]. Each pass is recorded under its
/// name, so the instrumentation is always on and costs two clock reads
/// per pass.
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

    /// The two-level transpose's chunk pass, on the tiled and skinny
    /// routes: transpose every contiguous `[K][s]` chunk, a square one
    /// (a tile) in place, a rectangular one (a §6.1 chunk of structs)
    /// staged in worker scratch. Not a step of the general
    /// decomposition, so not in [`ALL`].
    pub const CHUNK_TRANSPOSE: &str = "chunk_transpose";
    /// The two-level transpose's block pass, on the tiled and skinny
    /// routes: move each stack's `K`-element blocks to their final rows
    /// with the §4.7 sub-row permute, one stack (a tiled panel, the §6.1
    /// prefix) at a time; skipped when a stack is one chunk. Not in
    /// [`ALL`].
    pub const BLOCK_PERMUTE: &str = "block_permute";

    /// The batched entry points ([`crate::batched`]): every matrix of the
    /// batch transposed whole, one task each. Not in [`ALL`].
    pub const BATCHED: &str = "batched";
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

/// `min_grain` (in tasks) for parallel loops whose task — a row, a
/// column group, a batch matrix — moves `unit_elems` elements.
pub(crate) fn grain(unit_elems: usize) -> usize {
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
    /// targets (see the `ablations` bench). A width of `n` or more is
    /// one group.
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
        self.width(size_of::<T>())
    }

    /// The effective sub-row width for `elem_size`-byte elements.
    fn width(&self, elem_size: usize) -> usize {
        if self.col_group > 0 {
            self.col_group
        } else {
            (256 / elem_size.max(1)).max(1)
        }
    }
}

/// Parallel C2R: transpose an `m x n` row-major buffer in place into its
/// `n x m` row-major transpose, using the global `ipt_pool` thread count.
/// Its [`Route`] is the element path or, for shapes whose sides are
/// multiples of a 4 KiB block ([`Plan::tile_side`]), the tiled route, where
/// `opts.col_group` does not apply (DESIGN.md §7).
pub fn c2r_parallel<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    m: usize,
    n: usize,
    opts: &ParOptions,
) -> Result<(), TransposeAborted> {
    let core = ipt_core::Plan::new(data.len(), m, n, Layout::RowMajor, Algorithm::C2r);
    run(data, Plan::of::<T>(core, opts))
}

/// Parallel R2C: the inverse of [`c2r_parallel`] — consumes an `n x m`
/// row-major buffer, leaves the `m x n` row-major transpose. It takes
/// the tiled route on the same shapes as [`c2r_parallel`], running its
/// steps inverted in reverse order.
pub fn r2c_parallel<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    m: usize,
    n: usize,
    opts: &ParOptions,
) -> Result<(), TransposeAborted> {
    let core = ipt_core::Plan::new(data.len(), n, m, Layout::RowMajor, Algorithm::R2c);
    run(data, Plan::of::<T>(core, opts))
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
    transpose_parallel_with(data, rows, cols, layout, Algorithm::Auto, opts)
}

/// Parallel in-place transpose with a caller-forced algorithm — the
/// parallel counterpart of `ipt_core::transpose_with`, for benchmarks
/// that pit C2R and R2C against each other on identical inputs.
pub fn transpose_parallel_with<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    rows: usize,
    cols: usize,
    layout: Layout,
    algorithm: Algorithm,
    opts: &ParOptions,
) -> Result<(), TransposeAborted> {
    let core = ipt_core::Plan::new(data.len(), rows, cols, layout, algorithm);
    run(data, Plan::of::<T>(core, opts))
}

/// Every parallel transpose: a `match` on the call's resolved plan.
fn run<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    plan: Plan,
) -> Result<(), TransposeAborted> {
    let dir = plan.core.direction;
    match &plan.route {
        Route::Nothing => Ok(()),
        Route::Elements { params, w, h } => elements(data, dir, params, *w, *h),
        Route::Tiled { blocks, l, p, .. } => tiled::run(data, dir, blocks.as_ref(), *l, *p),
        Route::Skinny { k, main } => skinny::run(data, dir, (plan.core.m, plan.core.n), *k, *main),
    }
}

/// The element path: C2R's or R2C's passes on the `p.m x p.n`
/// parameters, with column groups `w` wide and fine windows `h` rows
/// tall; `p.m, p.n > 1`.
pub(crate) fn elements<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    dir: Direction,
    p: &C2rParams,
    w: usize,
    h: usize,
) -> Result<(), TransposeAborted> {
    match dir {
        Direction::C2r => {
            if !p.coprime() {
                run_pass(phases::PRE_ROTATE, data, |d| {
                    cache_aware::prerotate(d, p, w, h)
                })?;
            }
            run_pass(phases::ROW_SHUFFLE, data, |d| {
                rows::row_shuffle_parallel(d, p)
            })?;
            run_pass(phases::COL_SHUFFLE, data, |d| {
                cache_aware::col_shuffle_fused(d, p, w, h)
            })
        }
        Direction::R2c => {
            run_pass(phases::COL_SHUFFLE, data, |d| {
                cache_aware::col_shuffle_fused_inverse(d, p, w, h)
            })?;
            run_pass(phases::ROW_SHUFFLE, data, |d| {
                rows::row_shuffle_forward_parallel(d, p)
            })?;
            if p.coprime() {
                return Ok(());
            }
            run_pass(phases::POST_ROTATE, data, |d| {
                cache_aware::postrotate_inverse(d, p, w, h)
            })
        }
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
        for w in [1usize, 2, 3, 5, usize::MAX] {
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
                let site = phases::PRE_ROTATE;
                cache_aware::rotate_columns_cache_aware(a, big, 2, 4, 8, site, |j| j).is_ok()
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
