//! Cache-aware column passes (paper §4.6–§4.7).
//!
//! A naive column rotation touches one element per row per column —
//! worst-case one cache line per element. The paper's fix operates on
//! **sub-rows**: groups of `w` adjacent columns whose per-row slice spans
//! one cache line.
//!
//! Every element-path column pass is one body, `column_pass`: column `j`
//! rotates left by `a(j)` and every column's rows move by one shared
//! permutation `u`, the paper's `s'_j = p_j ∘ q` (Eqs. 26, 32–34). The
//! C2R shuffle is `a(j) = j mod m` then `u = q`; its inverse `u = q⁻¹`
//! then `a(j) = (m − j mod m) mod m`; the pre- and post-rotation
//! (Eqs. 23, 36) are `a(j) = ±floor(j/b)` with no `u`. Per group:
//!
//! * each `a(j)` is split into a group-wide *coarse* amount and a
//!   *residual* below the group width;
//! * the residuals run as the **staged fine rotation** (§4.6) through an
//!   on-cache window of `h` sub-rows, each source sub-row read and each
//!   destination sub-row stored with one contiguous run, so the strided
//!   matrix sees only whole sub-rows; skipped when every residual is zero;
//! * rotations of one column add, so the coarse amount folds into `u`,
//!   and one **sub-row walk** (§4.7) follows the folded permutation's
//!   cycles with a visited mask (`O(m)` scratch per worker), moving whole
//!   sub-rows; skipped when there is no `u` and the coarse amount is zero.
//!
//! Every pass runs on the column-group executor
//! (`exec::run_column_groups`), which owns the claims, fault sites,
//! journal and redo; `column_pass` says how one group is permuted and
//! which gather its redo replays.

use crate::exec::{run_column_groups, Group};
use crate::phases;
use ipt_core::index::C2rParams;
use ipt_core::Direction;
use ipt_pool::{PoolError, Scratch, WorkerState};

/// Why a group's body may unwrap the matrix's first element: the
/// executor checks `data.len() == m * n` first and runs no group when
/// that is zero.
const NON_EMPTY: &str = "a matrix with a column group has a first element";

/// A column pass with no shared row permutation: a pure rotation.
const NO_PERMUTATION: Option<fn(usize) -> usize> = None;

/// Rotate every column `j` of each of a stack of `heads` `m x n`
/// matrices left by `amount(j)` as a `column_pass`, column groups of
/// width `w` in parallel, one task per head and group. `site` is the
/// pass's [`phases`] name, its fault sites.
pub fn rotate_columns_cache_aware<T, A>(
    data: &mut [T],
    shape: (usize, usize, usize, usize),
    block_rows: usize,
    site: &'static str,
    amount: A,
) -> Result<(), PoolError>
where
    T: Copy + Send + Sync + 'static,
    A: Fn(usize) -> usize + Send + Sync,
{
    column_pass(data, shape, block_rows, site, amount, NO_PERMUTATION, true)
}

/// Every element-path column pass on each of a stack of `heads` `m x n`
/// matrices, one task per head and group of `w` columns: column `j`
/// rotates left by `a(j)` and the rows move by `u` (gather `dst[i] =
/// src[u(i)]`), the rotation first when `rotate_first` is set. Each group
/// splits its amounts ([`split_coarse`]), runs the residuals through the
/// fine window (`h` rows tall) and folds the coarse amount into the one
/// sub-row walk: `u'(i) = (u(i) + coarse) mod m` after the fine pass,
/// `u((i + coarse) mod m)` before it. Rotations of one column commute, so
/// column `j` ends as [`gather`] with its whole `a(j)`: the redo.
fn column_pass<T, A, U>(
    data: &mut [T],
    (heads, m, n, w): (usize, usize, usize, usize),
    h: usize,
    site: &'static str,
    a: A,
    u: Option<U>,
    rotate_first: bool,
) -> Result<(), PoolError>
where
    T: Copy + Send + Sync + 'static,
    A: Fn(usize) -> usize + Sync,
    U: Fn(usize) -> usize + Sync,
{
    let h = h.max(1);
    let u = u.as_ref();
    let fill = data.first().copied();
    run_column_groups(
        data,
        (heads, m, n, w),
        site,
        |st: &mut Subrows<T>, g| {
            let fill = fill.expect(NON_EMPTY);
            let res = st.shifts.uninit_buf(g.gw(), 0);
            for (k, r) in res.iter_mut().enumerate() {
                *r = a(g.j0() + k) % m;
            }
            let coarse = split_coarse(res, m);
            if rotate_first {
                st.fine.rotate(g, res, h, fill);
            }
            if coarse != 0 || u.is_some() {
                let visited = st.visited.uninit_buf(m, false);
                let buf = st.buf.uninit_buf(g.gw(), fill);
                let walk = |i| gather(m, coarse, u, rotate_first, i);
                permute_subrows(g, walk, visited, buf);
            }
            if !rotate_first {
                st.fine.rotate(g, res, h, fill);
            }
        },
        |i, j| gather(m, a(j) % m, u, rotate_first, i),
    )
}

/// The row that row `i` of a column gathers from after a left rotation
/// by `r` and the row permutation `u`: `(u(i) + r) mod m` rotating first,
/// `u((i + r) mod m)` permuting first (the outer gather applies last).
/// `i, r < m`, so `mod m` is a compare-and-subtract: the sub-row walk
/// evaluates this once per sub-row.
#[inline]
fn gather<U: Fn(usize) -> usize>(
    m: usize,
    r: usize,
    u: Option<&U>,
    rotate_first: bool,
    i: usize,
) -> usize {
    let add = |x: usize| if x + r >= m { x + r - m } else { x + r };
    match u {
        None => add(i),
        Some(u) if rotate_first => add(u(i)),
        Some(u) => u(add(i)),
    }
}

/// Split one group's left rotations `shifts[k] < m` into a group-wide
/// coarse amount, returned, and the residuals `(shifts[k] − coarse) mod
/// m`, left in `shifts`. The coarse amount is the endpoint that minimizes
/// the worst residual: every rotation the algorithm uses steps by +1 or
/// −1 (per column or per `b` columns), so one of the group's endpoints
/// bounds the residuals by the group width (§4.6); any other amount
/// function still gets a correct, if less tight, bound.
fn split_coarse(shifts: &mut [usize], m: usize) -> usize {
    let residual = |a: usize, coarse: usize| (a + m - coarse) % m;
    let bound = |c: usize| shifts.iter().map(|&a| residual(a, c)).max();
    let (first, last) = (shifts[0], shifts[shifts.len() - 1]);
    let coarse = if bound(first) <= bound(last) {
        first
    } else {
        last
    };
    for a in shifts.iter_mut() {
        *a = residual(*a, coarse);
    }
    coarse
}

/// One worker's buffers for every column pass: the staged fine window,
/// one sub-row, the group's per-column residuals and the walk's visited
/// mask. Every column pass shares one set per element type and worker
/// thread (the executor's parked state), so a thread keeps one window
/// however many kinds of pass it runs.
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
    /// Rotate column `j0 + k` left by `residuals[k]` (gather `dst[i] =
    /// src[(i + r) mod m]`) in one top-down sweep. Window row `t` holds
    /// row `i0 + t`, and the stash holds rows `[0, maxres)` — the rows
    /// the sweep overwrites first and reads last.
    ///
    /// `fill` initializes buffer growth; every cell read is written first.
    fn rotate(&mut self, g: Group<'_, T>, residuals: &[usize], h: usize, fill: T) {
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
        // Destination row i, column k reads window row i + r.
        let offs = self.offs.uninit_buf(gw, 0);
        for (k, (off, &r)) in offs.iter_mut().zip(residuals).enumerate() {
            *off = r * gw + k;
        }
        // SAFETY (whole function): every run is the gw-wide sub-row of a
        // row < m — one sub-row of this task's group.
        for (s, run) in stash.chunks_exact_mut(gw).enumerate() {
            unsafe { g.read_run(s, run) };
        }
        let mut carried = 0;
        let mut i0 = 0;
        while i0 < m {
            let he = (span - maxres).min(m - i0);
            let rows = he + maxres;
            for t in carried..rows {
                let (src, run) = (i0 + t, &mut window[t * gw..(t + 1) * gw]);
                if src < m {
                    unsafe { g.read_run(src, run) };
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
                unsafe { g.write_run(i0 + i, row) };
            }
            // Rows [i0 + he, i0 + rows) open the next window.
            window.copy_within(he * gw..rows * gw, 0);
            carried = maxres;
            i0 += he;
        }
    }
}

/// Uniform sub-row permutation within one group: gather `dst[i] =
/// src[perm(i)]`, cycles followed with a visited mask and one sub-row of
/// scratch (both caller-provided and reused across groups), `perm`
/// evaluated once per row.
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
        let mut src = perm(start);
        if src == start {
            continue;
        }
        unsafe { g.read_run(start, buf) };
        let mut i = start;
        while src != start {
            visited[src] = true;
            for k in 0..buf.len() {
                unsafe { g.set(i, k, g.get(src, k)) };
            }
            i = src;
            src = perm(i);
        }
        unsafe { g.write_run(i, buf) };
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
    rotation(data, 1, p, (w, h), Direction::C2r)
}

/// Cache-aware R2C step 4: undo the pre-rotation (`r^-1_j`, Eq. 36).
pub fn postrotate_inverse<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    p: &C2rParams,
    w: usize,
    h: usize,
) -> Result<(), PoolError> {
    rotation(data, 1, p, (w, h), Direction::R2c)
}

/// The element path's rotation in `dir` — [`prerotate`] for C2R,
/// [`postrotate_inverse`] for R2C — on every head of a stack of `heads`
/// `p.m x p.n` matrices; nothing when `gcd(m, n) = 1`.
pub(crate) fn rotation<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    heads: usize,
    p: &C2rParams,
    (w, h): (usize, usize),
    dir: Direction,
) -> Result<(), PoolError> {
    if p.coprime() {
        return Ok(());
    }
    let site = match dir {
        Direction::C2r => phases::PRE_ROTATE,
        Direction::R2c => phases::POST_ROTATE,
    };
    let shape = (heads, p.m, p.n, w);
    rotate_columns_cache_aware(data, shape, h, site, rotation_amount(p, dir))
}

/// Column `j`'s left rotation in the element path's rotation in `dir`:
/// `floor(j/b)` for C2R (Eq. 23), `(m − floor(j/b) mod m) mod m` for R2C
/// (Eq. 36).
fn rotation_amount(p: &C2rParams, dir: Direction) -> impl Fn(usize) -> usize + Send + Sync + '_ {
    let c2r = dir == Direction::C2r;
    move |j| {
        let k = p.rotate_amount(j);
        if c2r {
            k
        } else {
            (p.m - k % p.m) % p.m
        }
    }
}

/// The entire C2R column shuffle (Eq. 26) as one `column_pass`: column
/// `j` rotates left by `j mod m`, then the rows move by `q`, so column
/// `j` gathers `old[(q(i) + j) mod m] = old[s'_j(i)]`.
pub fn col_shuffle_fused<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    p: &C2rParams,
    w: usize,
    h: usize,
) -> Result<(), PoolError> {
    col_shuffle(data, 1, p, (w, h), Direction::C2r)
}

/// The inverse of [`col_shuffle_fused`] (the R2C side): the rows move by
/// `q^-1`, then column `j` rotates left by `(m − j mod m) mod m`, so
/// column `j` gathers `old[q^-1((i − j) mod m)]`.
pub fn col_shuffle_fused_inverse<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    p: &C2rParams,
    w: usize,
    h: usize,
) -> Result<(), PoolError> {
    col_shuffle(data, 1, p, (w, h), Direction::R2c)
}

/// The element path's column shuffle in `dir` — [`col_shuffle_fused`] for
/// C2R, [`col_shuffle_fused_inverse`] for R2C — on every head of a stack
/// of `heads` `p.m x p.n` matrices.
pub(crate) fn col_shuffle<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    heads: usize,
    p: &C2rParams,
    (w, h): (usize, usize),
    dir: Direction,
) -> Result<(), PoolError> {
    let (a, u, rotate_first) = shuffle_pass(p, dir);
    let shape = (heads, p.m, p.n, w);
    column_pass(
        data,
        shape,
        h,
        phases::COL_SHUFFLE,
        a,
        Some(u),
        rotate_first,
    )
}

/// The column shuffle in `dir` as a [`column_pass`]'s column rotation,
/// shared row permutation and order: `s'_j = p_j ∘ q` (Eqs. 32–34) for
/// C2R, rotation first; its inverse for R2C, permutation first.
fn shuffle_pass(
    p: &C2rParams,
    dir: Direction,
) -> (
    impl Fn(usize) -> usize + Sync + '_,
    impl Fn(usize) -> usize + Sync + '_,
    bool,
) {
    let (m, c2r) = (p.m, dir == Direction::C2r);
    let a = move |j: usize| if c2r { j % m } else { (m - j % m) % m };
    let u = move |i| if c2r { p.q(i) } else { p.q_inv(i) };
    (a, u, c2r)
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
                    rotate_columns_cache_aware(&mut a, (1, m, n, w), h, phases::PRE_ROTATE, |j| j)
                        .unwrap();
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
        rotate_columns_cache_aware(&mut a, (1, m, n, 6), 4, phases::PRE_ROTATE, |j| {
            (m - j % m) % m
        })
        .unwrap();
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
        rotate_columns_cache_aware(&mut a, (1, m, n, 8), 5, phases::PRE_ROTATE, |j| j / b).unwrap();
        assert_eq!(a, reference_rotate(&orig, m, n, |j| j / b));
    }

    /// Run the staged fine pass over every column group of an `m x n`
    /// matrix on the executor, column `j` rotating left by `res[j]`, one
    /// `FineWindow` per worker reused across its groups.
    fn staged_fine<T: Copy + Send + Sync + 'static>(
        a: &mut [T],
        (m, n): (usize, usize),
        w: usize,
        h: usize,
        res: &[usize],
    ) {
        let fill = a[0];
        run_column_groups(
            a,
            (1, m, n, w),
            phases::COL_SHUFFLE,
            |st: &mut Subrows<T>, g| st.fine.rotate(g, &res[g.j0()..g.j0() + g.gw()], h, fill),
            |i, j| (i + res[j]) % m,
        )
        .unwrap();
    }

    /// Column `j` rotated left (gather `(i + r) mod m`) by `res[j]`,
    /// element by element.
    fn reference_fine<T: Copy>(orig: &[T], m: usize, n: usize, res: &[usize]) -> Vec<T> {
        let mut out = orig.to_vec();
        for (j, &r) in res.iter().enumerate() {
            for i in 0..m {
                out[i * n + j] = orig[((i + r) % m) * n + j];
            }
        }
        out
    }

    /// Random shapes, group widths, block heights and per-column
    /// residuals against the reference rotation, for one element type.
    /// `encode` must be injective below `max_elems`. Every case counts
    /// toward the edge conditions the staged window has to get right,
    /// and each must be hit.
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
            let mut a = orig.clone();
            staged_fine(&mut a, (m, n), w, h, &res);
            assert_eq!(
                a,
                reference_fine(&orig, m, n, &res),
                "case {case}: {m}x{n} w={w} h={h} res={res:?}"
            );
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
    fn each_pass_gathers_the_papers_formula() {
        // The redo gather every column pass derives from its rotation,
        // shared permutation and order, against the paper's per-column
        // formula: s'_j(i) (Eq. 26), q^-1((i - j) mod m) (Eqs. 34-35),
        // (i + floor(j/b)) mod m (Eq. 23) and its inverse (Eq. 36).
        let mut rng = Rng::new(0xc01_9a55);
        for _ in 0..96 {
            let (m, n) = (rng.range(2..48), rng.range(2..48));
            let p = C2rParams::new(m, n);
            for dir in [Direction::C2r, Direction::R2c] {
                let (a, u, rotate_first) = shuffle_pass(&p, dir);
                let amount = rotation_amount(&p, dir);
                for j in 0..n {
                    let k = j / p.b;
                    for i in 0..m {
                        let (shuffle, rotation) = match dir {
                            Direction::C2r => (p.s(j, i), (i + k) % m),
                            Direction::R2c => (p.q_inv((i + m - j % m) % m), (i + m - k % m) % m),
                        };
                        let got = gather(m, a(j) % m, Some(&u), rotate_first, i);
                        assert_eq!(got, shuffle, "{dir:?} shuffle {m}x{n} ({i},{j})");
                        let got = gather(m, amount(j) % m, NO_PERMUTATION.as_ref(), true, i);
                        assert_eq!(got, rotation, "{dir:?} rotation {m}x{n} ({i},{j})");
                    }
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
            for w in [1usize, 4, 16, 64, usize::MAX] {
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
        rotate_columns_cache_aware(&mut a, (1, m, n, 64), 3, phases::PRE_ROTATE, |j| 2 * j + 1)
            .unwrap();
        let want = reference_rotate(&orig, m, n, |j| 2 * j + 1);
        for (x, y) in a.iter().zip(&want) {
            assert_eq!(*x as u64, *y);
        }
    }
}
