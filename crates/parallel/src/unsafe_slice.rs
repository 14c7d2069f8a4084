//! A shared-mutable slice handle for provably disjoint parallel access,
//! with an optional algorithm-aware disjointness checker.
//!
//! `ipt_pool` can split a slice into disjoint *contiguous* chunks safely
//! (`par_chunks_exact_mut`), but the decomposition's column operations
//! partition a row-major matrix into disjoint **column groups** — strided,
//! interleaved index sets that the borrow checker cannot express. This
//! module provides a `Send + Sync` pointer wrapper whose soundness
//! argument is purely about index disjointness.
//!
//! It is one of the workspace's four `unsafe` sites (every other crate
//! has none, and most forbid it):
//!
//! * this wrapper, reached only through the column-group executor's
//!   accessors in `exec`;
//! * `tiled::as_blocks`, the cast of an element buffer to 4 KiB byte
//!   blocks;
//! * `two_level::transpose_tile_avx2`, the AVX2 tile kernel's unaligned
//!   loads and stores;
//! * in `ipt-pool`, the handoff of a lifetime-erased job to the workers.
//!
//! # Safety contract
//!
//! Every parallel column operation partitions `[0, m) x [0, n)` into
//! groups of distinct column indices; a task for group `g` only touches
//! linear indices `i*n + j` with `j` in group `g`. Since the groups
//! partition the columns, no linear index is reachable from two tasks, so
//! concurrent `&mut`-like access through the raw pointer never aliases.
//! All accessors bounds-check in debug builds.
//!
//! # Checked mode
//!
//! The contract above is exactly the paper's bijection argument
//! (Theorems 3 and 6) applied to Eq. 24/31's scatter indices — and an
//! off-by-one in that index math is silent UB, not a test failure. The
//! checker turns it into a deterministic panic: each parallel operation
//! opens a [`CheckScope`] backed by a *shadow map* (one `AtomicU32` per
//! element). Workers **claim** their index sets up front; every
//! subsequent `get`/`set` — and every index of a `read_run`/`write_run`
//! sub-row copy — verifies the element was claimed by the calling
//! worker's owner group. Overlapping claims across owners, or any access
//! to an unclaimed/foreign element, aborts with both owner groups, the
//! offending `(row, col)`, and the operation's geometry (m, n, group
//! width — the Eq. 24/31 parameters).
//!
//! Claims have one shape, the **column group**
//! ([`UnsafeSlice::claim_columns`]): all rows of a contiguous column
//! range, one owner per group (the §5.1 column-parallel passes, all run
//! by the column-group executor in `exec`).
//!
//! Each shadow cell stores `epoch << 16 | owner_tag` (`owner_tag` = owner
//! group + 1; 0 = unclaimed). Claims use an atomic `swap`, so of two
//! racing claimants one is guaranteed to observe the other — detection
//! does not depend on scheduling. Shadow allocations are leased from a
//! process-wide pool and recycled by bumping the 16-bit epoch; stale
//! cells from a previous scope simply mismatch the current epoch, and the
//! cells are zeroed only when the epoch wraps. See DESIGN.md §12.
//!
//! Checking is controlled by `IPT_CHECK` (`1` = on, `0` = off); when the
//! variable is unset, checking defaults to **on in debug builds** (so
//! `cargo test` dogfoods it) and off in release builds.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Owner tag width in a shadow word; the epoch takes the remaining bits.
const OWNER_BITS: u32 = 16;
const OWNER_MASK: u32 = (1 << OWNER_BITS) - 1;
/// Epochs wrap (and cells are zeroed) after this many scope reuses.
const EPOCH_MAX: u32 = (1 << (32 - OWNER_BITS)) - 1;
/// Recycled shadow allocations kept for reuse (excess ones are freed).
const MAX_LEASES: usize = 8;

/// Whether checked mode is active for this process: `IPT_CHECK`, read
/// once through the shared knob contract ([`ipt_core::env::parse_once`]),
/// else the build default.
pub(crate) fn checking_enabled() -> bool {
    static ENABLED: OnceLock<Option<bool>> = OnceLock::new();
    ipt_core::env::parse_once(&ENABLED, "IPT_CHECK", parse_check).unwrap_or(cfg!(debug_assertions))
}

/// Parse an `IPT_CHECK` value, ignoring surrounding whitespace.
fn parse_check(raw: &str) -> Result<bool, String> {
    match raw.trim() {
        "1" => Ok(true),
        "0" => Ok(false),
        _ => Err(format!("IPT_CHECK {raw:?} (expected 0 or 1)")),
    }
}

/// A recycled shadow allocation: the cells plus the last epoch they served.
struct Lease {
    cells: Vec<AtomicU32>,
    epoch: u32,
}

static LEASES: Mutex<Vec<Lease>> = Mutex::new(Vec::new());
static NEXT_SCOPE_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The (scope id, owner tag) this thread most recently claimed under.
    static CURRENT_CLAIM: std::cell::Cell<(u64, u32)> =
        const { std::cell::Cell::new((0, 0)) };
}

/// Shadow-map state for one checked parallel operation.
struct ShadowScope {
    cells: Vec<AtomicU32>,
    epoch: u32,
    id: u64,
    cols: usize,
    label: String,
}

impl ShadowScope {
    fn word(&self, owner_tag: u32) -> u32 {
        (self.epoch << OWNER_BITS) | owner_tag
    }

    fn decode(&self, word: u32) -> Option<u32> {
        if word >> OWNER_BITS == self.epoch {
            Some(word & OWNER_MASK)
        } else {
            None // stale cell from a previous scope: unclaimed.
        }
    }
}

fn owner_tag(owner: usize) -> u32 {
    (owner as u32 % OWNER_MASK) + 1
}

#[cold]
#[inline(never)]
fn violation(scope: &ShadowScope, kind: &str, idx: usize, held_tag: u32, want_tag: u32) -> ! {
    let (row, col) = match idx.checked_div(scope.cols) {
        Some(row) => (row, idx % scope.cols),
        None => (0, idx),
    };
    let held = match held_tag {
        0 => "unclaimed".to_string(),
        t => format!("group {}", t - 1),
    };
    panic!(
        "ipt disjointness violation: {kind} at linear index {idx} (row {row}, col {col}): \
         cell held by {held}, accessed as group {} by pool worker {:?}; {}",
        want_tag - 1,
        ipt_pool::current_worker(),
        scope.label,
    );
}

/// Handle for one checked parallel operation; create it before the
/// [`UnsafeSlice`] it guards. When checking is disabled this is an empty
/// shell and the label closure is never evaluated.
pub(crate) struct CheckScope {
    shadow: Option<Box<ShadowScope>>,
}

impl CheckScope {
    /// Open a scope over `len` elements arranged as rows of `cols`
    /// columns. `label` should render the operation's geometry and the
    /// paper-equation parameters (e.g. `m`, `n`, group width) for
    /// violation messages; it is evaluated only in checked mode.
    pub(crate) fn new(len: usize, cols: usize, label: impl FnOnce() -> String) -> Self {
        if !checking_enabled() {
            return CheckScope { shadow: None };
        }
        let mut leases = LEASES.lock().unwrap();
        let lease = leases
            .iter()
            .position(|l| l.cells.len() >= len)
            .map(|i| leases.swap_remove(i));
        drop(leases);
        let (cells, epoch) = match lease {
            Some(l) if l.epoch < EPOCH_MAX => (l.cells, l.epoch + 1),
            Some(l) => {
                // Epoch space exhausted: zero the cells and start over.
                for c in &l.cells {
                    c.store(0, Ordering::Relaxed);
                }
                (l.cells, 1)
            }
            None => ((0..len).map(|_| AtomicU32::new(0)).collect(), 1),
        };
        CheckScope {
            shadow: Some(Box::new(ShadowScope {
                cells,
                epoch,
                id: NEXT_SCOPE_ID.fetch_add(1, Ordering::Relaxed),
                cols,
                label: label(),
            })),
        }
    }
}

impl Drop for CheckScope {
    fn drop(&mut self) {
        if let Some(shadow) = self.shadow.take() {
            let mut leases = LEASES.lock().unwrap();
            if leases.len() < MAX_LEASES {
                leases.push(Lease {
                    cells: shadow.cells,
                    epoch: shadow.epoch,
                });
            }
        }
    }
}

/// A raw view of a `&mut [T]` that can be copied into worker closures.
///
/// Callers must guarantee that concurrently running closures touch
/// disjoint index sets (see module docs). In checked mode, that guarantee
/// is verified at runtime against the scope's shadow map.
pub(crate) struct UnsafeSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    shadow: Option<&'a ShadowScope>,
    _marker: PhantomData<&'a mut [T]>,
}

impl<T> Copy for UnsafeSlice<'_, T> {}
impl<T> Clone for UnsafeSlice<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

// SAFETY: the wrapper only ever hands out element accesses; disjointness of
// concurrently accessed indices is the invariant callers uphold (module
// docs). `T: Send` suffices because elements are only moved, never shared.
// The shadow reference is a `Sync` map of atomics.
unsafe impl<T: Send> Send for UnsafeSlice<'_, T> {}
unsafe impl<T: Send> Sync for UnsafeSlice<'_, T> {}

impl<'a, T: Copy> UnsafeSlice<'a, T> {
    pub(crate) fn new(slice: &'a mut [T], scope: &'a CheckScope) -> Self {
        let shadow = scope.shadow.as_deref();
        debug_assert!(shadow.is_none_or(|s| s.cells.len() >= slice.len()));
        UnsafeSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            shadow,
            _marker: PhantomData,
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Claim columns `[j0, j0 + gw)` across all rows for `owner` (the
    /// column-group index), and make `owner` this thread's identity for
    /// subsequent accesses. Panics if any cell is already claimed by a
    /// different owner in this scope. No-op when checking is off.
    #[inline]
    pub(crate) fn claim_columns(&self, owner: usize, j0: usize, gw: usize) {
        let Some(sh) = self.shadow else { return };
        let tag = owner_tag(owner);
        CURRENT_CLAIM.with(|c| c.set((sh.id, tag)));
        let word = sh.word(tag);
        let rows = self.len.checked_div(sh.cols).unwrap_or(0);
        for i in 0..rows {
            let base = i * sh.cols;
            for j in j0..j0 + gw {
                // swap: of two racing claimants, one must see the other.
                let prev = sh.cells[base + j].swap(word, Ordering::Relaxed);
                match sh.decode(prev) {
                    Some(t) if t != 0 && t != tag => {
                        violation(sh, "overlapping column claim", base + j, t, tag)
                    }
                    _ => {}
                }
            }
        }
    }

    /// Verify `idx` is claimed by this thread's current owner.
    #[inline]
    fn check_access(&self, sh: &ShadowScope, idx: usize, kind: &str) {
        if idx >= sh.cells.len() {
            violation(sh, "out-of-bounds access", idx, 0, 1);
        }
        let (scope_id, tag) = CURRENT_CLAIM.with(|c| c.get());
        if scope_id != sh.id {
            violation(sh, kind, idx, 0, 1); // access with no claim in scope
        }
        let held = sh
            .decode(sh.cells[idx].load(Ordering::Relaxed))
            .unwrap_or(0);
        if held != tag {
            violation(sh, kind, idx, held, tag);
        }
    }

    /// Read element `idx`.
    ///
    /// # Safety
    ///
    /// `idx < len`, and no concurrent task may be writing `idx`.
    #[inline]
    pub(crate) unsafe fn get(&self, idx: usize) -> T {
        debug_assert!(idx < self.len);
        if let Some(sh) = self.shadow {
            self.check_access(sh, idx, "unclaimed read");
        }
        // SAFETY: caller guarantees bounds and non-aliasing.
        unsafe { *self.ptr.add(idx) }
    }

    /// Write element `idx`.
    ///
    /// # Safety
    ///
    /// `idx < len`, and no concurrent task may be reading or writing `idx`.
    #[inline]
    pub(crate) unsafe fn set(&self, idx: usize, v: T) {
        debug_assert!(idx < self.len);
        if let Some(sh) = self.shadow {
            self.check_access(sh, idx, "unclaimed write");
        }
        // SAFETY: caller guarantees bounds and exclusivity.
        unsafe { *self.ptr.add(idx) = v };
    }

    /// Copy the run of `out.len()` elements starting at `idx` into `out`
    /// (one sub-row). In checked mode every index of the run is verified
    /// exactly as [`get`](Self::get) verifies one.
    ///
    /// # Safety
    ///
    /// `idx + out.len() <= len`, and no concurrent task may be writing
    /// any element of the run.
    #[inline]
    pub(crate) unsafe fn read_run(&self, idx: usize, out: &mut [T]) {
        debug_assert!(idx + out.len() <= self.len);
        if let Some(sh) = self.shadow {
            for i in idx..idx + out.len() {
                self.check_access(sh, i, "unclaimed read");
            }
        }
        // SAFETY: caller guarantees bounds and non-aliasing; `out` is a
        // caller-owned buffer, so it cannot overlap the wrapped slice.
        unsafe { std::ptr::copy_nonoverlapping(self.ptr.add(idx), out.as_mut_ptr(), out.len()) }
    }

    /// Copy `run` into the `run.len()` elements starting at `idx` (one
    /// sub-row). In checked mode every index of the run is verified
    /// exactly as [`set`](Self::set) verifies one.
    ///
    /// # Safety
    ///
    /// `idx + run.len() <= len`, and no concurrent task may be reading or
    /// writing any element of the run.
    #[inline]
    pub(crate) unsafe fn write_run(&self, idx: usize, run: &[T]) {
        debug_assert!(idx + run.len() <= self.len);
        if let Some(sh) = self.shadow {
            for i in idx..idx + run.len() {
                self.check_access(sh, i, "unclaimed write");
            }
        }
        // SAFETY: caller guarantees bounds and exclusivity; `run` is a
        // caller-owned buffer, so it cannot overlap the wrapped slice.
        unsafe { std::ptr::copy_nonoverlapping(run.as_ptr(), self.ptr.add(idx), run.len()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn check_parser_trims_and_rejects_garbage() {
        assert_eq!(parse_check("1"), Ok(true));
        assert_eq!(parse_check(" 1 "), Ok(true));
        assert_eq!(parse_check("\t0\n"), Ok(false));
        for bad in ["", "yes", "2", "1 1"] {
            let err = parse_check(bad).unwrap_err();
            assert!(err.contains(&format!("IPT_CHECK {bad:?}")), "{err}");
        }
    }

    /// Prints this process's checked mode for
    /// [`padded_ipt_check_values_set_checked_mode`], which runs it in a
    /// child process with `IPT_CHECK` set.
    #[test]
    #[ignore = "run by padded_ipt_check_values_set_checked_mode"]
    fn print_checked_mode() {
        println!("checked mode: {}", checking_enabled());
    }

    #[test]
    fn padded_ipt_check_values_set_checked_mode() {
        let exe = std::env::current_exe().expect("the test binary's path");
        for (value, want) in [(" 1 ", true), (" 0 ", false)] {
            let out = std::process::Command::new(&exe)
                .args(["--exact", "unsafe_slice::tests::print_checked_mode"])
                .args(["--ignored", "--nocapture", "--test-threads=1"])
                .env("IPT_CHECK", value)
                .output()
                .expect("running the test binary");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                stdout.contains(&format!("checked mode: {want}")),
                "IPT_CHECK={value:?}:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(!String::from_utf8_lossy(&out.stderr).contains("ignoring"));
        }
    }

    fn scope_for(len: usize, cols: usize) -> CheckScope {
        CheckScope::new(len, cols, || format!("test op ({len} elems, {cols} cols)"))
    }

    #[test]
    fn disjoint_column_writes_from_parallel_tasks() {
        // 8 x 16 matrix; each worker owns whole column pairs and writes a
        // tag.
        let (m, n) = (8usize, 16usize);
        let mut data = vec![0u32; m * n];
        let scope = scope_for(m * n, n);
        let us = UnsafeSlice::new(&mut data, &scope);
        ipt_pool::Pool::new(4)
            .par_chunks(0..n / 2, 1, |sub| {
                for g in sub {
                    us.claim_columns(g, 2 * g, 2);
                    for j in [2 * g, 2 * g + 1] {
                        for i in 0..m {
                            // SAFETY: group g touches only columns
                            // {2g, 2g+1}; groups are disjoint.
                            unsafe { us.set(i * n + j, (j * 100 + i) as u32) };
                        }
                    }
                }
            })
            .unwrap();
        for i in 0..m {
            for j in 0..n {
                assert_eq!(data[i * n + j], (j * 100 + i) as u32);
            }
        }
    }

    #[test]
    fn get_reads_current_values() {
        let mut data = vec![7u8, 8, 9];
        let scope = scope_for(3, 3);
        let us = UnsafeSlice::new(&mut data, &scope);
        us.claim_columns(0, 0, 3);
        // SAFETY: single-threaded access.
        unsafe {
            assert_eq!(us.get(0), 7);
            us.set(2, 42);
            assert_eq!(us.get(2), 42);
        }
        assert_eq!(us.len(), 3);
        assert_eq!(data, [7, 8, 42]);
    }

    #[test]
    fn overlapping_claims_across_owners_abort() {
        if !checking_enabled() {
            return; // violation detection only exists in checked mode
        }
        let mut data = vec![0u32; 4 * 8];
        let scope = scope_for(4 * 8, 8);
        let us = UnsafeSlice::new(&mut data, &scope);
        us.claim_columns(0, 0, 3);
        let err = catch_unwind(AssertUnwindSafe(|| us.claim_columns(1, 2, 2))).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("ipt disjointness violation"), "{msg}");
        assert!(msg.contains("group 0") && msg.contains("group 1"), "{msg}");
        assert!(msg.contains("col 2"), "{msg}");
    }

    #[test]
    fn same_owner_may_reclaim_and_rewrite() {
        if !checking_enabled() {
            return;
        }
        let mut data = vec![0u32; 2 * 4];
        let scope = scope_for(2 * 4, 4);
        let us = UnsafeSlice::new(&mut data, &scope);
        us.claim_columns(5, 0, 4);
        us.claim_columns(5, 0, 4); // idempotent
        unsafe {
            us.set(3, 1);
            us.set(3, 2); // double-write by the same owner is legal
            assert_eq!(us.get(3), 2);
        }
    }

    #[test]
    fn foreign_column_access_aborts() {
        if !checking_enabled() {
            return;
        }
        let mut data = vec![0u32; 4 * 6];
        let scope = scope_for(4 * 6, 6);
        let us = UnsafeSlice::new(&mut data, &scope);
        us.claim_columns(0, 0, 2);
        // Simulate another owner claiming the rest, then this thread
        // (identity: group 1) reaching back into group 0's columns — the
        // exact shape of an Eq. 24 scatter-index bug.
        us.claim_columns(1, 2, 4);
        let err = catch_unwind(AssertUnwindSafe(|| unsafe { us.set(0, 9) })).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("unclaimed write"), "{msg}");
        let err = catch_unwind(AssertUnwindSafe(|| unsafe { us.get(6) })).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("unclaimed read"), "{msg}");
    }

    #[test]
    fn runs_copy_whole_sub_rows() {
        let (m, n) = (3usize, 5usize);
        let mut data: Vec<u32> = (0..(m * n) as u32).collect();
        let scope = scope_for(m * n, n);
        let us = UnsafeSlice::new(&mut data, &scope);
        us.claim_columns(0, 1, 3);
        let mut run = [0u32; 3];
        // SAFETY: single-threaded; the runs stay inside columns 1..4.
        unsafe {
            us.read_run(n + 1, &mut run);
            assert_eq!(run, [6, 7, 8]);
            us.write_run(2 * n + 1, &run);
        }
        assert_eq!(&data[2 * n..], [10, 6, 7, 8, 14]);
    }

    #[test]
    fn runs_reaching_into_a_foreign_group_abort() {
        if !checking_enabled() {
            return;
        }
        let (m, n) = (4usize, 6usize);
        let mut data = vec![0u32; m * n];
        let scope = scope_for(m * n, n);
        let us = UnsafeSlice::new(&mut data, &scope);
        us.claim_columns(1, 3, 3);
        us.claim_columns(0, 0, 3); // this thread is group 0 again
                                   // A 4-wide run from column 0 of row 2 reaches group 1's column 3
                                   // — the shape of an off-by-one sub-row width.
        let mut run = [0u32; 4];
        let err =
            catch_unwind(AssertUnwindSafe(|| unsafe { us.read_run(2 * n, &mut run) })).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("unclaimed read"), "{msg}");
        assert!(
            msg.contains("row 2, col 3") && msg.contains("group 1"),
            "{msg}"
        );
        let err = catch_unwind(AssertUnwindSafe(|| unsafe { us.write_run(n, &run) })).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("unclaimed write"), "{msg}");
        assert!(msg.contains("row 1, col 3"), "{msg}");
        // The checker fires before the copy: group 1's cells are intact.
        assert!(data[3..6]
            .iter()
            .chain(&data[n + 3..n + 6])
            .all(|&v| v == 0));
    }

    #[test]
    fn access_without_any_claim_aborts() {
        if !checking_enabled() {
            return;
        }
        let mut data = vec![0u32; 8];
        let scope = scope_for(8, 8);
        let us = UnsafeSlice::new(&mut data, &scope);
        // Fresh scope id never claimed on this thread.
        let err = catch_unwind(AssertUnwindSafe(|| unsafe { us.get(0) })).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("ipt disjointness violation"), "{msg}");
    }

    #[test]
    fn leases_recycle_without_false_positives() {
        if !checking_enabled() {
            return;
        }
        // Repeated scopes over the same size reuse shadow cells via epoch
        // bumps; stale claims from scope k must not leak into scope k+1.
        for round in 0..20 {
            let mut data = vec![0u32; 16];
            let scope = scope_for(16, 4);
            let us = UnsafeSlice::new(&mut data, &scope);
            us.claim_columns(round % 3, 0, 4);
            unsafe { us.set(5, round as u32) };
        }
    }
}
