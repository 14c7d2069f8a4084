//! The scalar row-shuffle kernel: incremental index recurrence.
//!
//! `d'_i(j) = ((i + floor(j/b)) mod m + j*m) mod n` advances by a constant
//! `+(m mod n) (mod n)` per column, plus `+1 (mod m)` to the rotation term
//! every `b` columns — successive indices need no division (nor even the
//! §4.4 multiply-shift) in the inner loop. This is the proven baseline the
//! blocked kernels are benchmarked against; its limit is the serial
//! dependency through the recurrence state and the per-element wrap tests.

use super::ShuffleDirection;
use crate::index::C2rParams;

/// Permute one row with the incremental recurrence. `Inverse` scatters
/// with `d'_i` (equivalent to gathering with `d'^-1_i`, Eq. 31);
/// `Forward` gathers with `d'_i` directly (§4.3).
// A whole row per call: whether LLVM inlined the kernels into
// `RowShuffleKernel::apply_row` flipped with unrelated code in the same
// codegen unit (each dispatch instance 313 vs ~5 KiB), so every kernel
// stays out of line (EXPERIMENTS.md, "Pinned row kernels").
#[inline(never)]
pub(super) fn apply_row<T: Copy>(
    p: &C2rParams,
    i: usize,
    src: &[T],
    dst: &mut [T],
    dir: ShuffleDirection,
) {
    let (m, n, b) = (p.m, p.n, p.b);
    let m_red = m % n; // per-column stride of `base`, reduced mod n
    let scatter = dir == ShuffleDirection::Inverse;
    // State: rot = (i + j/b) mod m; rot_red = rot mod n (kept separately
    // so the sum stays < 2n even when m > n); base = (j*m) mod n.
    let mut rot = i % m;
    let mut rot_red = rot % n;
    let mut base = 0usize;
    let mut until_bump = b;
    for (j, &v) in src.iter().enumerate() {
        let mut d = rot_red + base;
        if d >= n {
            d -= n;
        }
        if scatter {
            dst[d] = v;
        } else {
            dst[j] = src[d];
        }
        base += m_red;
        if base >= n {
            base -= n;
        }
        until_bump -= 1;
        if until_bump == 0 {
            until_bump = b;
            rot += 1;
            rot_red += 1;
            if rot == m {
                rot = 0;
                rot_red = 0;
            } else if rot_red == n {
                rot_red = 0;
            }
        }
    }
}
