//! The run-blocked row-shuffle kernels: `W`-lane strips over arithmetic
//! runs of the Eq. 31 gather index.
//!
//! For fixed row `i`, write `thr = max(0, i + c - m)`. The gather index
//! `d'^-1_i(j)` satisfies `d'^-1_i(j) = d'^-1_i(j - 1) + b` except at
//! columns whose residue `j mod c` lies in `{0, i mod c, thr}` — the three
//! places where Eq. 31's quotient `floor(f/c)` wraps mod `b` or its guard
//! term flips. (The property-test suite pins this exhaustively; the
//! module-level docs in [`super`] give the intuition.) So the row splits
//! into runs: one strength-reduced Eq. 31 evaluation yields `base`, after
//! which the whole run is the affine sequence `base + k*b`, `k = 0..len`,
//! every term of which is in `[0, n)` because the run stops before the
//! next boundary.
//!
//! The inner loop copies a run in `W`-element strips with no data
//! dependence between iterations and no arithmetic beyond the affine
//! index, which LLVM unrolls and autovectorizes; `b == 1` runs skip even
//! that and become `copy_from_slice` (memcpy).

use super::ShuffleDirection;
use crate::index::C2rParams;

/// Smallest `k >= 1` with `(from + k) mod c == to`, for residues
/// `from, to < c`: the distance to the next column with residue `to`.
#[inline]
fn dist_to_residue(from: usize, to: usize, c: usize) -> usize {
    let d = (to + c - from) % c;
    if d == 0 {
        c
    } else {
        d
    }
}

/// Copy `dst[k] = src[base + k*b]` for `k = 0..dst.len()` in `W`-lane
/// strips. All source indices are in bounds by the run invariant; the
/// slice bounds checks merely re-prove it.
#[inline]
fn gather_run<const W: usize, T: Copy>(dst: &mut [T], src: &[T], base: usize, b: usize) {
    if b == 1 {
        dst.copy_from_slice(&src[base..base + dst.len()]);
        return;
    }
    let len = dst.len();
    let full = len - len % W;
    for k0 in (0..full).step_by(W) {
        for lane in 0..W {
            dst[k0 + lane] = src[base + (k0 + lane) * b];
        }
    }
    for k in full..len {
        dst[k] = src[base + k * b];
    }
}

/// Copy `dst[base + k*b] = src[k]` for `k = 0..src.len()` in `W`-lane
/// strips — the same run walked as a scatter.
#[inline]
fn scatter_run<const W: usize, T: Copy>(dst: &mut [T], src: &[T], base: usize, b: usize) {
    if b == 1 {
        dst[base..base + src.len()].copy_from_slice(src);
        return;
    }
    let len = src.len();
    let full = len - len % W;
    for k0 in (0..full).step_by(W) {
        for lane in 0..W {
            dst[base + (k0 + lane) * b] = src[k0 + lane];
        }
    }
    for k in full..len {
        dst[base + k * b] = src[k];
    }
}

/// Permute one row by enumerating the arithmetic runs of `d'^-1_i`.
///
/// `Inverse` gathers with `d'^-1_i` (`dst[j + k] = src[base + k*b]`);
/// `Forward` is the same permutation applied the other way — a scatter
/// with `d'^-1_i` (`dst[base + k*b] = src[j + k]`) — so both directions
/// share one run enumeration.
// Out of line for the reason `scalar::apply_row` gives.
#[inline(never)]
pub(super) fn apply_row<const W: usize, T: Copy>(
    p: &C2rParams,
    i: usize,
    src: &[T],
    dst: &mut [T],
    dir: ShuffleDirection,
) {
    let (m, n, c, b) = (p.m, p.n, p.c, p.b);
    let i_res = i % c;
    let thr = (i + c).saturating_sub(m); // <= c - 1 since i <= m - 1
    let mut j = 0usize;
    let mut j_res = 0usize; // j mod c, maintained incrementally
    while j < n {
        let len = dist_to_residue(j_res, 0, c)
            .min(dist_to_residue(j_res, i_res, c))
            .min(dist_to_residue(j_res, thr, c))
            .min(n - j);
        let base = p.d_inv(i, j);
        match dir {
            ShuffleDirection::Inverse => {
                gather_run::<W, T>(&mut dst[j..j + len], src, base, b);
            }
            ShuffleDirection::Forward => {
                scatter_run::<W, T>(dst, &src[j..j + len], base, b);
            }
        }
        j += len;
        j_res += len;
        if j_res >= c {
            j_res -= c; // len <= c keeps the residue one subtraction away
        }
    }
}
