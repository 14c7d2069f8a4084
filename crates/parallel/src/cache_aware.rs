//! Cache-aware column primitives (paper §4.6–§4.7).
//!
//! A naive column rotation touches one element per row per column —
//! worst-case one cache line per element. The paper's fix operates on
//! **sub-rows**: groups of `w` adjacent columns whose per-row slice spans
//! one cache line.
//!
//! * **Coarse phase** (§4.6): all `w` columns of a group are rotated
//!   *together* by a common coarse amount, following the rotation's
//!   analytic cycles (`z = gcd(m, r)` cycles, enumerable in closed form)
//!   and moving whole sub-rows — no cycle descriptors, no scratch beyond
//!   one sub-row.
//! * **Fine phase** (§4.6): the residual per-column rotation is bounded
//!   (`< w` for all the rotation families the algorithm uses), so it is
//!   **staged** block by block through an on-cache window of `h`
//!   sub-rows: each block's source sub-rows are copied in with one
//!   contiguous run apiece (the `maxres` rows it shares with the next
//!   block carried forward, the wrap-around rows served from a small
//!   stash), the rotation runs inside the window, and each destination
//!   sub-row is stored back with one run. The strided matrix sees only
//!   whole sub-rows, never a per-element diagonal gather. The fine pass
//!   is skipped entirely when every residual is zero — common for the
//!   pre-rotation, whose amount `floor(j/b)` changes only every `b`
//!   columns.
//! * **Row permute** (§4.7): `q`'s cycles have no closed form, so each
//!   group follows them with a visited mask (`O(m)` scratch per worker),
//!   moving whole sub-rows.
//! * **Fused column shuffle** ([`col_shuffle_fused`]): per group,
//!   `s'_j = p_j ∘ q` factors as a *fine* rotation by `(j - j0) mod m`
//!   followed by the group-uniform permutation `g(i) = (q(i) + j0) mod m`
//!   — folding the coarse rotation into the permutation's cycle walk and
//!   saving one full read+write pass over the array.
//!
//! Every pass runs on the column-group executor
//! (`exec::run_column_groups`), which owns the claims, fault sites,
//! journal and redo; the functions here only say how one group is
//! permuted.

use crate::exec::{run_column_groups, Group};
use ipt_core::gcd::gcd;
use ipt_core::index::C2rParams;
use ipt_pool::{PoolError, Scratch, WorkerState};

/// Rotate every column `j` left by `amount(j)` using the two-phase
/// cache-aware scheme, column groups of width `w` in parallel.
pub fn rotate_columns_cache_aware<T, A>(
    data: &mut [T],
    m: usize,
    n: usize,
    w: usize,
    block_rows: usize,
    amount: A,
) -> Result<(), PoolError>
where
    T: Copy + Send + Sync + 'static,
    A: Fn(usize) -> usize + Send + Sync,
{
    crate::assert_shape(data.len(), m, n);
    if m <= 1 || n == 0 {
        return Ok(());
    }
    let h = block_rows.max(1);
    let fill = data[0];
    run_column_groups(
        data,
        (m, n, w),
        ("col_cache_aware", "§4.6 two-phase rotation"),
        |st: &mut Subrows<T>, g| {
            let shifts = st.shifts.uninit_buf(g.gw(), 0);
            for (k, a) in shifts.iter_mut().enumerate() {
                *a = amount(g.j0() + k) % m;
            }
            let buf = st.buf.uninit_buf(g.gw(), fill);
            rotate_group(g, shifts, h, &mut st.fine, buf, fill);
        },
        |i, j| (i + amount(j)) % m,
    )
}

/// One group's two-phase rotation. `shifts[k]` is the (already reduced)
/// left-rotation of column `j0 + k`; it is overwritten with the fine
/// residual. `buf` holds one sub-row; `fill` initializes buffer growth.
fn rotate_group<T: Copy + Send + Sync>(
    g: Group<'_, T>,
    shifts: &mut [usize],
    h: usize,
    fine: &mut FineWindow<T>,
    buf: &mut [T],
    fill: T,
) {
    let m = g.m();
    // Pick the coarse amount that minimizes the worst residual. For the
    // four rotation families the algorithm uses, amounts step by +1 or -1
    // (per column or per b columns), so one of the group's endpoints gives
    // residuals bounded by the group width (§4.6); any other amount
    // function still gets a correct, if less tight, bound.
    let residual_bound = |coarse: usize| {
        shifts
            .iter()
            .map(|&a| (a + m - coarse) % m)
            .max()
            .unwrap_or(0)
    };
    let (first, last) = (shifts[0], shifts[shifts.len() - 1]);
    let coarse = if residual_bound(first) <= residual_bound(last) {
        first
    } else {
        last
    };
    for a in shifts.iter_mut() {
        *a = (*a + m - coarse) % m;
    }

    // Coarse phase: rotate the group's m sub-rows left by `coarse`,
    // following the analytic cycles with one sub-row of scratch.
    coarse_rotate_subrows(g, coarse, buf);

    // Fine phase: apply the bounded residual rotations block by block.
    fine.rotate(g, shifts, h, false, fill);
}

/// Coarse sub-row rotation: rows of the group move `i <- (i + r) mod m`
/// as whole `buf.len()`-wide units along the rotation's analytic cycles
/// (§4.6), with `buf` holding each cycle's first sub-row.
fn coarse_rotate_subrows<T: Copy + Send + Sync>(g: Group<'_, T>, r: usize, buf: &mut [T]) {
    let m = g.m();
    let r = r % m;
    if r == 0 {
        return;
    }
    // SAFETY (whole function): every row is < m and every column offset
    // k < buf.len() = gw.
    let z = gcd(m as u64, r as u64) as usize;
    for y in 0..z {
        unsafe { g.read_run(y, buf) };
        let mut i = y;
        loop {
            let src = i + r - if i + r >= m { m } else { 0 };
            if src == y {
                unsafe { g.write_run(i, buf) };
                break;
            }
            for k in 0..buf.len() {
                unsafe { g.set(i, k, g.get(src, k)) };
            }
            i = src;
        }
    }
}

/// One worker's buffers for every cache-aware pass: the staged fine
/// window, one sub-row, the group's per-column shifts and a permutation's
/// visited mask. The rotations and the fused shuffles share one set per
/// element type and worker thread (the executor's parked state), so a
/// thread keeps one window however many kinds of pass it runs.
struct Subrows<T> {
    fine: FineWindow<T>,
    buf: Scratch<T>,
    shifts: Scratch<usize>,
    visited: Scratch<bool>,
}

impl<T> Default for Subrows<T> {
    fn default() -> Self {
        Subrows {
            fine: FineWindow::default(),
            buf: Scratch::default(),
            shifts: Scratch::default(),
            visited: Scratch::default(),
        }
    }
}

impl<T: Copy + 'static> WorkerState for Subrows<T> {
    fn park(&mut self, budget: usize) -> usize {
        let FineWindow {
            window,
            stash,
            row,
            offs,
        } = &mut self.fine;
        let mut kept = self.shifts.park(budget);
        kept += offs.park(budget - kept);
        kept += self.visited.park(budget - kept);
        for buf in [&mut self.buf, window, stash, row] {
            kept += buf.park(budget - kept);
        }
        kept
    }
}

/// The staged §4.6 fine rotation. Column `j0 + k` of one group rotates
/// by `residuals[k]` (each `< m`), one block at a time:
///
/// 1. the block's source sub-rows are copied, each with one contiguous
///    run, into an on-cache **window** of `h` sub-rows (`block_rows`;
///    `2 * maxres` if that is more). The block stores `h - maxres`
///    destination rows; its last `maxres` source rows are carried forward
///    to open the next block rather than re-read. Rows that wrap around
///    come from a **stash** of the `maxres` rows the sweep overwrites
///    before it reaches them;
/// 2. each destination sub-row is gathered from the window into one
///    sub-row buffer (the rotation proper, entirely on cache);
/// 3. and stored back with one contiguous run.
///
/// So the strided matrix is touched only by whole sub-rows (one cache
/// line or a few each), never by a per-element diagonal gather. The
/// buffers belong to one worker thread (the executor checks them out as
/// its parked state) and are reused by every group it runs, in this call
/// and the next: they grow only when a group needs more rows than any
/// before it. The pass is skipped when every residual is zero — common
/// for the pre-rotation, whose amount `floor(j/b)` changes only every
/// `b` columns.
struct FineWindow<T> {
    window: Scratch<T>,
    stash: Scratch<T>,
    /// One destination sub-row.
    row: Scratch<T>,
    /// Column `k`'s source offset from the start of its destination
    /// row's window row.
    offs: Scratch<usize>,
}

impl<T> Default for FineWindow<T> {
    fn default() -> Self {
        FineWindow {
            window: Scratch::default(),
            stash: Scratch::default(),
            row: Scratch::default(),
            offs: Scratch::default(),
        }
    }
}

impl<T: Copy + Send + Sync> FineWindow<T> {
    /// Rotate column `j0 + k` by `residuals[k]`: **left** (gather
    /// `dst[i] = src[(i + r) mod m]`), or **right** when `right` is set
    /// (gather `dst[i] = src[(i - r) mod m]`).
    ///
    /// A right rotation is a left rotation of the rows taken in reverse
    /// order, so both directions run one top-down sweep over *sweep rows*
    /// `s`, which are matrix rows `s` (left) or `m - 1 - s` (right). Window
    /// row `t` holds sweep row `i0 + t`, and the stash holds sweep rows
    /// `[0, maxres)` — the rows the sweep overwrites first and reads last.
    ///
    /// `fill` initializes buffer growth; every cell read is written first.
    fn rotate(&mut self, g: Group<'_, T>, residuals: &[usize], h: usize, right: bool, fill: T) {
        let m = g.m();
        let gw = residuals.len();
        let maxres = residuals.iter().copied().max().unwrap_or(0);
        if maxres == 0 {
            return;
        }
        // Each block stages `span` source sub-rows and stores the first
        // `span - maxres` as destination rows; the last `maxres` open the
        // next block. `span` is the `h`-row block buffer of §4.6 unless
        // the residuals need more, so a block always stores at least as
        // many rows as it carries.
        let span = h.min(m).max(2 * maxres);
        // Every group rebuilds the contents, so unspecified contents do.
        let window = self.window.uninit_buf(span * gw, fill);
        let stash = self.stash.uninit_buf(maxres * gw, fill);
        let row = self.row.uninit_buf(gw, fill);
        // Destination sweep row i, column k reads window row i + r.
        let offs = self.offs.uninit_buf(gw, 0);
        for (k, (off, &r)) in offs.iter_mut().zip(residuals).enumerate() {
            *off = r * gw + k;
        }
        // SAFETY (whole function): every run is the gw-wide sub-row of a
        // matrix row row(s) < m — one sub-row of this task's group.
        let row_of = |s: usize| if right { m - 1 - s } else { s };
        for (s, run) in stash.chunks_exact_mut(gw).enumerate() {
            unsafe { g.read_run(row_of(s), run) };
        }
        let mut carried = 0;
        let mut i0 = 0;
        while i0 < m {
            let he = (span - maxres).min(m - i0);
            let rows = he + maxres;
            for t in carried..rows {
                let (src, run) = (i0 + t, &mut window[t * gw..(t + 1) * gw]);
                if src < m {
                    unsafe { g.read_run(row_of(src), run) };
                } else {
                    run.copy_from_slice(&stash[(src - m) * gw..(src - m + 1) * gw]);
                }
            }
            // The rotation proper, on cache: gather each destination
            // sub-row from the window (only read, so every source is its
            // pre-update value) and store it with one run.
            for i in 0..he {
                let src = &window[i * gw..rows * gw];
                for (slot, &off) in row.iter_mut().zip(offs.iter()) {
                    *slot = src[off];
                }
                unsafe { g.write_run(row_of(i0 + i), row) };
            }
            // Sweep rows [i0 + he, i0 + rows) open the next window.
            window.copy_within(he * gw..rows * gw, 0);
            carried = maxres;
            i0 += he;
        }
    }
}

/// Uniform sub-row permutation within one group: gather `dst[i] =
/// src[perm(i)]`, cycles followed with a visited mask and one sub-row of
/// scratch (both caller-provided and reused across groups).
fn permute_subrows<T: Copy + Send + Sync>(
    g: Group<'_, T>,
    perm: impl Fn(usize) -> usize,
    visited: &mut [bool],
    buf: &mut [T],
) {
    let m = g.m();
    debug_assert!(visited.len() >= m && buf.len() >= g.gw());
    visited[..m].fill(false);
    let buf = &mut buf[..g.gw()];
    // SAFETY (whole function): every row is < m and every column offset
    // k < gw.
    for start in 0..m {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        let first_src = perm(start);
        if first_src == start {
            continue;
        }
        for (k, slot) in buf.iter_mut().enumerate() {
            *slot = unsafe { g.get(start, k) };
        }
        let mut i = start;
        loop {
            let src = perm(i);
            if src == start {
                for (k, &v) in buf.iter().enumerate() {
                    unsafe { g.set(i, k, v) };
                }
                break;
            }
            visited[src] = true;
            for k in 0..buf.len() {
                unsafe { g.set(i, k, g.get(src, k)) };
            }
            i = src;
        }
    }
}

/// Cache-aware C2R step 1: pre-rotation by `floor(j/b)` (Eq. 23). The fine
/// pass is usually skipped because the amount changes every `b` columns.
pub fn prerotate<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    p: &C2rParams,
    w: usize,
    h: usize,
) -> Result<(), PoolError> {
    if p.coprime() {
        return Ok(());
    }
    rotate_columns_cache_aware(data, p.m, p.n, w, h, |j| p.rotate_amount(j))
}

/// Cache-aware R2C step 4: undo the pre-rotation (`r^-1_j`, Eq. 36).
pub fn postrotate_inverse<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    p: &C2rParams,
    w: usize,
    h: usize,
) -> Result<(), PoolError> {
    if p.coprime() {
        return Ok(());
    }
    let m = p.m;
    rotate_columns_cache_aware(data, m, p.n, w, h, move |j| {
        (m - p.rotate_amount(j) % m) % m
    })
}

/// The entire C2R column shuffle (Eq. 26) in two cache-friendly passes
/// per group: a *fine* left rotation by `(j - j0) mod m` followed by the
/// group-uniform sub-row permutation `g(i) = (q(i) + j0) mod m`.
///
/// Correctness: gathering first with the fine rotation and then with `g`
/// composes (gather-then-gather applies the outer function last) to
/// `old[(g(i) + (j - j0)) mod m] = old[(q(i) + j) mod m] = old[s'_j(i)]`.
pub fn col_shuffle_fused<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    p: &C2rParams,
    w: usize,
    h: usize,
) -> Result<(), PoolError> {
    fused(data, p, w, h, false)
}

/// The inverse of [`col_shuffle_fused`] (the R2C side): the group-uniform
/// permutation `g^-1(i) = q^-1((i - j0) mod m)` followed by the fine
/// **right** rotation by `(j - j0) mod m`.
pub fn col_shuffle_fused_inverse<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    p: &C2rParams,
    w: usize,
    h: usize,
) -> Result<(), PoolError> {
    fused(data, p, w, h, true)
}

/// [`col_shuffle_fused`] (`inverse = false`) or
/// [`col_shuffle_fused_inverse`] on the executor: one fine rotation and
/// one sub-row permutation per group, in the direction's order.
fn fused<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    p: &C2rParams,
    w: usize,
    h: usize,
    inverse: bool,
) -> Result<(), PoolError> {
    let (m, n) = (p.m, p.n);
    crate::assert_shape(data.len(), m, n);
    if m <= 1 || n == 0 {
        return Ok(());
    }
    let fill = data[0];
    // Column j0 + k's fine residual is k mod m in every group.
    let residuals: Vec<usize> = (0..w).map(|k| k % m).collect();
    let residuals = &residuals;
    let (site, what) = if inverse {
        ("col_fused_inverse", "Eq. 32-36 inverse")
    } else {
        ("col_fused", "Eq. 26 = fine rotate + g(i)=(q(i)+j0) mod m")
    };
    run_column_groups(
        data,
        (m, n, w),
        (site, what),
        |st: &mut Subrows<T>, g| {
            let j0m = g.j0() % m;
            let res = &residuals[..g.gw()];
            let visited = st.visited.uninit_buf(m, false);
            let buf = st.buf.uninit_buf(g.gw(), fill);
            let fine = &mut st.fine;
            if inverse {
                permute_subrows(g, |i| p.q_inv((i + m - j0m) % m), visited, buf);
                fine.rotate(g, res, h, true, fill);
            } else {
                fine.rotate(g, res, h, false, fill);
                permute_subrows(g, |i| (p.q(i) + j0m) % m, visited, buf);
            }
        },
        // Per column, the pair composes to the direct gather: s'_j(i)
        // forward (see the fn docs), q^-1((i - j) mod m) inverse.
        |i, j| {
            if inverse {
                p.q_inv((i + m - j % m) % m)
            } else {
                p.s(j, i)
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipt_core::check::{fill_pattern, Rng};
    use ipt_core::permute;

    fn reference_rotate(
        orig: &[u64],
        m: usize,
        n: usize,
        amount: impl Fn(usize) -> usize,
    ) -> Vec<u64> {
        let mut out = orig.to_vec();
        for j in 0..n {
            let k = amount(j) % m;
            for i in 0..m {
                out[i * n + j] = orig[((i + k) % m) * n + j];
            }
        }
        out
    }

    #[test]
    fn cache_aware_rotation_matches_reference() {
        crate::force_multithreaded_pool();
        for (m, n) in [(8usize, 12usize), (13, 29), (64, 40), (5, 100), (100, 5)] {
            for w in [1usize, 3, 8, 16] {
                for h in [2usize, 7, 256] {
                    let mut a = vec![0u64; m * n];
                    fill_pattern(&mut a);
                    let orig = a.clone();
                    rotate_columns_cache_aware(&mut a, m, n, w, h, |j| j).unwrap();
                    assert_eq!(
                        a,
                        reference_rotate(&orig, m, n, |j| j),
                        "{m}x{n} w={w} h={h}"
                    );
                }
            }
        }
    }

    #[test]
    fn decreasing_amount_family() {
        // The inverse rotations step -1 per column; the coarse picker must
        // choose the group's last column as base.
        let (m, n) = (17usize, 23usize);
        let mut a = vec![0u64; m * n];
        fill_pattern(&mut a);
        let orig = a.clone();
        rotate_columns_cache_aware(&mut a, m, n, 6, 4, |j| (m - j % m) % m).unwrap();
        assert_eq!(a, reference_rotate(&orig, m, n, |j| (m - j % m) % m));
    }

    #[test]
    fn slow_family_skips_fine_pass_but_stays_correct() {
        // Pre-rotation style: amount changes every b columns; groups
        // narrower than b get residual zero everywhere.
        let (m, n) = (12usize, 64usize);
        let b = 16usize;
        let mut a = vec![0u64; m * n];
        fill_pattern(&mut a);
        let orig = a.clone();
        rotate_columns_cache_aware(&mut a, m, n, 8, 5, |j| j / b).unwrap();
        assert_eq!(a, reference_rotate(&orig, m, n, |j| j / b));
    }

    /// Run the staged fine pass over every column group of an `m x n`
    /// matrix on the executor, column `j` rotating by `res[j]` (left, or
    /// right), one `FineWindow` per worker reused across its groups.
    fn staged_fine<T: Copy + Send + Sync + 'static>(
        a: &mut [T],
        (m, n): (usize, usize),
        w: usize,
        h: usize,
        res: &[usize],
        right: bool,
    ) {
        let fill = a[0];
        run_column_groups(
            a,
            (m, n, w),
            ("test_fine", "staged fine test"),
            |st: &mut Subrows<T>, g| {
                st.fine
                    .rotate(g, &res[g.j0()..g.j0() + g.gw()], h, right, fill)
            },
            |i, j| {
                if right {
                    (i + m - res[j]) % m
                } else {
                    (i + res[j]) % m
                }
            },
        )
        .unwrap();
    }

    /// Column `j` rotated left (gather `(i + r) mod m`) or right (gather
    /// `(i - r) mod m`) by `res[j]`, element by element.
    fn reference_fine<T: Copy>(
        orig: &[T],
        m: usize,
        n: usize,
        res: &[usize],
        right: bool,
    ) -> Vec<T> {
        let mut out = orig.to_vec();
        for (j, &r) in res.iter().enumerate() {
            for i in 0..m {
                let src = if right { (i + m - r) % m } else { (i + r) % m };
                out[i * n + j] = orig[src * n + j];
            }
        }
        out
    }

    /// Random shapes, group widths, block heights and per-column
    /// residuals against the reference rotation, both directions, for
    /// one element type. `encode` must be injective below `max_elems`.
    /// Every case counts toward the edge conditions the staged window
    /// has to get right, and each must be hit.
    fn staged_fine_property<T>(seed: u64, max_elems: usize, encode: impl Fn(usize) -> T)
    where
        T: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static,
    {
        let mut rng = Rng::new(seed);
        let (mut wide_residual, mut tall_block, mut one_wide, mut short_last) = (0, 0, 0, 0);
        for case in 0..192 {
            let m = rng.range(2..40);
            let n = rng.range(1..(max_elems / m).clamp(2, 48));
            let w = rng.range(1..n + 2);
            let h = rng.range(1..m + 5);
            // Half the cases keep residuals below the group width (the
            // algorithm's families); the rest use any residual < m.
            let cap = if rng.chance(1, 2) { w.min(m) } else { m };
            let res: Vec<usize> = (0..n).map(|_| rng.range(0..cap)).collect();
            let maxres = res.iter().copied().max().unwrap_or(0);
            wide_residual += usize::from(maxres > h && h < m);
            tall_block += usize::from(h >= m && maxres > 0);
            one_wide += usize::from(w == 1 && maxres > 0);
            short_last += usize::from(n % w != 0 && n > w && maxres > 0);
            let orig: Vec<T> = (0..m * n).map(&encode).collect();
            for right in [false, true] {
                let mut a = orig.clone();
                staged_fine(&mut a, (m, n), w, h, &res, right);
                assert_eq!(
                    a,
                    reference_fine(&orig, m, n, &res, right),
                    "case {case}: {m}x{n} w={w} h={h} right={right} res={res:?}"
                );
            }
        }
        for (name, hits) in [
            (
                "maxres > h: widened window over several blocks",
                wide_residual,
            ),
            ("h >= m", tall_block),
            ("gw = 1", one_wide),
            ("short last group", short_last),
        ] {
            assert!(hits > 0, "no case covered {name}");
        }
    }

    #[test]
    fn staged_fine_pass_matches_reference_rotation() {
        staged_fine_property(0xf1e0_0001, 256, |i| i as u8);
        staged_fine_property(0xf1e0_0002, 1 << 16, |i| i as u16);
        staged_fine_property(0xf1e0_0003, 1 << 24, |i| {
            let b = i.to_le_bytes();
            [b[0], b[1], b[2]]
        });
        staged_fine_property(0xf1e0_0004, usize::MAX, |i| i as u64);
    }

    #[test]
    fn fine_right_inverts_fine_left() {
        for (m, n) in [(9usize, 13usize), (20, 7), (5, 40)] {
            for w in [3usize, 6, 64] {
                for h in [2usize, 5, 128] {
                    let mut a = vec![0u64; m * n];
                    fill_pattern(&mut a);
                    let orig = a.clone();
                    let res: Vec<usize> = (0..n).map(|j| ((j % w) * 2 + 1) % m).collect();
                    staged_fine(&mut a, (m, n), w, h, &res, false);
                    staged_fine(&mut a, (m, n), w, h, &res, true);
                    assert_eq!(a, orig, "{m}x{n} w={w} h={h}");
                }
            }
        }
    }

    #[test]
    fn fused_matches_separate_col_shuffle() {
        crate::force_multithreaded_pool();
        for (m, n) in [
            (4usize, 8usize),
            (9, 6),
            (12, 18),
            (21, 35),
            (64, 40),
            (7, 100),
        ] {
            for w in [1usize, 4, 16, 64] {
                let p = C2rParams::new(m, n);
                let mut fused = vec![0u32; m * n];
                fill_pattern(&mut fused);
                let mut separate = fused.clone();
                col_shuffle_fused(&mut fused, &p, w, 8).unwrap();
                let mut tmp = vec![0u32; m.max(n)];
                permute::col_shuffle_decomposed(&mut separate, &p, &mut tmp);
                assert_eq!(fused, separate, "{m}x{n} w={w}");
            }
        }
    }

    #[test]
    fn fused_inverse_inverts_fused() {
        crate::force_multithreaded_pool();
        for (m, n) in [(4usize, 8usize), (9, 6), (13, 21), (40, 64)] {
            let p = C2rParams::new(m, n);
            let mut a = vec![0u64; m * n];
            fill_pattern(&mut a);
            let orig = a.clone();
            col_shuffle_fused(&mut a, &p, 4, 8).unwrap();
            col_shuffle_fused_inverse(&mut a, &p, 4, 8).unwrap();
            assert_eq!(a, orig, "{m}x{n}");
        }
    }

    #[test]
    fn step_wrappers_match_sequential_permute() {
        crate::force_multithreaded_pool();
        for (m, n) in [(4usize, 8usize), (9, 6), (12, 18), (21, 35)] {
            let p = C2rParams::new(m, n);
            let mut a = vec![0u32; m * n];
            fill_pattern(&mut a);
            let mut b = a.clone();
            let mut tmp = vec![0u32; m.max(n)];

            prerotate(&mut a, &p, 4, 8).unwrap();
            permute::prerotate_cycles(&mut b, &p);
            assert_eq!(a, b, "prerotate {m}x{n}");

            col_shuffle_fused(&mut a, &p, 4, 8).unwrap();
            permute::col_shuffle_decomposed(&mut b, &p, &mut tmp);
            assert_eq!(a, b, "col shuffle {m}x{n}");

            col_shuffle_fused_inverse(&mut a, &p, 4, 8).unwrap();
            permute::row_permute_inverse(&mut b, &p, &mut tmp);
            permute::col_rotate_inverse(&mut b, &p);
            assert_eq!(a, b, "inverse col shuffle {m}x{n}");

            postrotate_inverse(&mut a, &p, 4, 8).unwrap();
            permute::postrotate_inverse(&mut b, &p);
            assert_eq!(a, b, "postrotate {m}x{n}");
        }
    }

    #[test]
    fn single_column_group_whole_matrix() {
        let (m, n) = (10usize, 6usize);
        let mut a = vec![0u16; m * n];
        fill_pattern(&mut a);
        let orig: Vec<u64> = a.iter().map(|&x| x as u64).collect();
        rotate_columns_cache_aware(&mut a, m, n, 64, 3, |j| 2 * j + 1).unwrap();
        let want = reference_rotate(&orig, m, n, |j| 2 * j + 1);
        for (x, y) in a.iter().zip(&want) {
            assert_eq!(*x as u64, *y);
        }
    }
}
