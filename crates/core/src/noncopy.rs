//! Swap-only transposition for non-`Copy` element types.
//!
//! The main implementation moves elements through a scratch buffer, which
//! requires `T: Copy`. Every step of the decomposition, however, is a
//! *permutation* — and any permutation can be applied in place with
//! `len(cycle) - 1` swaps per cycle, which Rust's `swap` performs for
//! arbitrary types without cloning. This module re-expresses Algorithm 1
//! that way, so matrices of `String`, `Vec<u8>`, boxed values, etc. can
//! be transposed in place:
//!
//! * rotations use the three-reversal identity (swap-only, zero scratch);
//! * the row shuffle and column shuffle walk the cycles of `d'^-1_i` /
//!   `s'_j` with a reusable visited mask (`O(max(m, n))` bytes — the same
//!   auxiliary class as the scratch buffer).
//!
//! Work stays `O(mn)`: each cycle of length `k` costs `k - 1` swaps and
//! the masks are cleared incrementally. The trade-off versus the `Copy`
//! path is roughly 3 moves per swap instead of 1 per copy — the price of
//! genericity, quantified by the `ablation` benches.
//!
//! ```
//! use ipt_core::noncopy::transpose_any;
//! use ipt_core::Layout;
//!
//! let mut words: Vec<String> = ["a", "b", "c", "d", "e", "f"]
//!     .iter().map(|s| s.to_string()).collect();
//! transpose_any(&mut words, 2, 3, Layout::RowMajor); // 2 x 3 -> 3 x 2
//! assert_eq!(words, ["a", "d", "b", "e", "c", "f"]);
//! ```

use crate::layout::Layout;
use crate::{Algorithm, Direction, Plan};

/// All the swap-only passes ask of a buffer: swap two of its elements,
/// by element index. A `[T]` swaps elements; [`crate::erased`] swaps
/// `elem_size`-byte chunks of a byte buffer.
pub(crate) trait SwapElems {
    /// Swap elements `a` and `b`.
    fn swap_elems(&mut self, a: usize, b: usize);
}

impl<T> SwapElems for [T] {
    #[inline]
    fn swap_elems(&mut self, a: usize, b: usize) {
        self.swap(a, b);
    }
}

/// Reverse the strided subsequence `data[start + k*stride]`,
/// `k` in `[lo, hi)`, by swaps.
fn reverse_strided<S: SwapElems + ?Sized>(
    data: &mut S,
    start: usize,
    stride: usize,
    lo: usize,
    hi: usize,
) {
    let (mut a, mut b) = (lo, hi);
    while a + 1 < b {
        b -= 1;
        data.swap_elems(start + a * stride, start + b * stride);
        a += 1;
    }
}

/// Rotate the strided sequence `data[start + k*stride]`, `k` in
/// `[0, len)`, left by `r` using the three-reversal identity (swap-only).
fn rotate_strided_left_swaps<S: SwapElems + ?Sized>(
    data: &mut S,
    start: usize,
    stride: usize,
    len: usize,
    r: usize,
) {
    if len == 0 {
        return;
    }
    let r = r % len;
    if r == 0 {
        return;
    }
    reverse_strided(data, start, stride, 0, r);
    reverse_strided(data, start, stride, r, len);
    reverse_strided(data, start, stride, 0, len);
}

/// Apply the gather permutation `new[k] = old[perm(k)]` to the strided
/// subsequence `data[start + k*stride]` with swaps along cycles.
///
/// `visited` must cover `[0, len)` and is left all-false on return.
fn apply_gather_swaps<S: SwapElems + ?Sized>(
    data: &mut S,
    start: usize,
    stride: usize,
    len: usize,
    perm: impl Fn(usize) -> usize,
    visited: &mut [bool],
) {
    debug_assert!(visited.len() >= len);
    debug_assert!(visited[..len].iter().all(|&v| !v));
    for leader in 0..len {
        if visited[leader] {
            visited[leader] = false; // restore the all-false invariant
            continue;
        }
        // Swapping position i with perm(i) along the cycle realizes the
        // gather: after swap(i, perm(i)), slot i holds old[perm(i)].
        let mut i = leader;
        loop {
            let src = perm(i);
            debug_assert!(src < len);
            if src == leader {
                break;
            }
            data.swap_elems(start + i * stride, start + src * stride);
            visited[src] = true;
            i = src;
        }
    }
    // Leaders themselves were never marked; any marks set above were
    // cleared when their slot came up as `leader`. Nothing to do.
}

/// Swap-only C2R: same contract as [`crate::c2r()`] but for any `T`.
///
/// Consumes an `m x n` row-major buffer, leaves the `n x m` row-major
/// transpose. Auxiliary space: `max(m, n)` bytes of cycle marks.
pub fn c2r_swaps<T>(data: &mut [T], m: usize, n: usize) {
    let plan = Plan::new(data.len(), m, n, Layout::RowMajor, Algorithm::C2r);
    run_swaps(data, &plan);
}

/// Swap-only R2C: same contract as [`crate::r2c()`] but for any `T` —
/// the exact inverse of [`c2r_swaps`]`(data, m, n)`.
pub fn r2c_swaps<T>(data: &mut [T], m: usize, n: usize) {
    let plan = Plan::new(data.len(), n, m, Layout::RowMajor, Algorithm::R2c);
    run_swaps(data, &plan);
}

/// Swap-only in-place transpose for arbitrary element types: the
/// non-`Copy` counterpart of [`crate::transpose`], with the same §5.2
/// direction heuristic.
pub fn transpose_any<T>(data: &mut [T], rows: usize, cols: usize, layout: Layout) {
    let plan = Plan::new(data.len(), rows, cols, layout, Algorithm::Auto);
    run_swaps(data, &plan);
}

/// The swap-only steps of the plan's direction, on any buffer of
/// `m * n` elements that can swap two of them; the caller resolved
/// `plan` for `data`.
pub(crate) fn run_swaps<S: SwapElems + ?Sized>(data: &mut S, plan: &Plan) {
    let Some(p) = &plan.params else {
        return; // a vector's transpose occupies the identical buffer
    };
    let (m, n) = (p.m, p.n);
    let mut visited = vec![false; m.max(n)];
    match plan.direction {
        Direction::C2r => {
            // Step 1: pre-rotation (Eq. 23), three-reversal per column.
            if !p.coprime() {
                for j in 0..n {
                    rotate_strided_left_swaps(data, j, n, m, p.rotate_amount(j) % m);
                }
            }
            // Step 2: row shuffle, gather with d'^-1 (Eq. 31) along cycles.
            for i in 0..m {
                apply_gather_swaps(data, i * n, 1, n, |j| p.d_inv(i, j), &mut visited);
            }
            // Step 3: column shuffle, gather with s'_j (Eq. 26) along cycles.
            for j in 0..n {
                apply_gather_swaps(data, j, n, m, |i| p.s(j, i), &mut visited);
            }
        }
        Direction::R2c => {
            // Inverse steps in reverse order (§4.3), each with its
            // closed-form index function — no permutation inversion at
            // runtime.
            //
            // The inverse column shuffle is one gather per column with
            // (s'_j)^-1 = q^-1 ∘ p^-1_j, since s'_j = p_j ∘ q (Eqs. 32–35).
            for j in 0..n {
                apply_gather_swaps(data, j, n, m, |i| p.q_inv(p.p_inv(j, i)), &mut visited);
            }
            // Row shuffle inverse: gather with d'_i directly (§4.3).
            for i in 0..m {
                apply_gather_swaps(data, i * n, 1, n, |j| p.d(i, j), &mut visited);
            }
            // Undo the pre-rotation (Eq. 36).
            if !p.coprime() {
                for j in 0..n {
                    let k = p.rotate_amount(j) % m;
                    rotate_strided_left_swaps(data, j, n, m, (m - k) % m);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{fill_pattern, reference_transpose};
    use crate::Scratch;

    fn sizes() -> Vec<(usize, usize)> {
        let mut v = Vec::new();
        for m in 1..=9 {
            for n in 1..=9 {
                v.push((m, n));
            }
        }
        v.extend_from_slice(&[
            (3, 8),
            (8, 3),
            (4, 8),
            (16, 24),
            (17, 19),
            (40, 25),
            (25, 40),
            // Shapes where the Copy path's kernel dispatcher leaves the
            // scalar regime, so the swaps-vs-copy equivalence also pins
            // the blocked kernels: c = 32 -> Block4, c = 64 (b = 2) and
            // b = 1 -> Block8.
            (96, 64),
            (192, 128),
            (128, 64),
            (64, 128),
        ]);
        v
    }

    #[test]
    fn swaps_c2r_matches_copy_c2r() {
        let mut s = Scratch::new();
        for (m, n) in sizes() {
            let mut a = vec![0u64; m * n];
            fill_pattern(&mut a);
            let mut b = a.clone();
            c2r_swaps(&mut a, m, n);
            crate::c2r(&mut b, m, n, &mut s);
            assert_eq!(a, b, "{m}x{n}");
        }
    }

    #[test]
    fn swaps_r2c_matches_copy_r2c() {
        let mut s = Scratch::new();
        for (m, n) in sizes() {
            let mut a = vec![0u32; m * n];
            fill_pattern(&mut a);
            let mut b = a.clone();
            r2c_swaps(&mut a, m, n);
            crate::r2c(&mut b, m, n, &mut s);
            assert_eq!(a, b, "{m}x{n}");
        }
    }

    #[test]
    fn transposes_strings() {
        // The point of the module: a type that is neither Copy nor cheap
        // to clone.
        let (m, n) = (3usize, 5usize);
        let mut words: Vec<String> = (0..m * n).map(|i| format!("cell-{i}")).collect();
        transpose_any(&mut words, m, n, Layout::RowMajor);
        for i in 0..n {
            for j in 0..m {
                assert_eq!(words[i * m + j], format!("cell-{}", j * n + i));
            }
        }
    }

    #[test]
    fn strings_match_kernel_dispatched_copy_path() {
        // Same permutation, two very different engines: the swap-only
        // path on Strings versus the Copy path on matching integer ids,
        // where the dispatcher picks a blocked kernel (c = 64, b = 1 ->
        // Block8) and a Block4 shape (c = 32).
        let mut s = Scratch::new();
        for (m, n) in [(128usize, 64usize), (96, 64)] {
            let mut words: Vec<String> = (0..m * n).map(|i| format!("cell-{i}")).collect();
            let mut ids: Vec<u32> = (0..(m * n) as u32).collect();
            c2r_swaps(&mut words, m, n);
            crate::c2r(&mut ids, m, n, &mut s);
            for (w, id) in words.iter().zip(&ids) {
                assert_eq!(w, &format!("cell-{id}"), "{m}x{n}");
            }
        }
    }

    #[test]
    fn transposes_boxed_values_round_trip() {
        let (m, n) = (6usize, 10usize);
        let orig: Vec<Box<usize>> = (0..m * n).map(Box::new).collect();
        let mut a = orig.clone();
        transpose_any(&mut a, m, n, Layout::RowMajor);
        transpose_any(&mut a, n, m, Layout::RowMajor);
        assert_eq!(a, orig);
    }

    #[test]
    fn col_major_path() {
        for (m, n) in [(4usize, 6usize), (6, 4), (5, 5)] {
            let mut a = vec![0u16; m * n];
            fill_pattern(&mut a);
            let want = reference_transpose(&a, m, n, Layout::ColMajor);
            transpose_any(&mut a, m, n, Layout::ColMajor);
            assert_eq!(a, want, "{m}x{n}");
        }
    }

    #[test]
    fn rotation_helper_matches_copy_rotation() {
        for len in 1..=20usize {
            for r in 0..len {
                let mut a: Vec<u8> = (0..len as u8).collect();
                let mut b = a.clone();
                rotate_strided_left_swaps(a.as_mut_slice(), 0, 1, len, r);
                crate::rotate::rotate_left_cycles(&mut b, r);
                assert_eq!(a, b, "len={len} r={r}");
            }
        }
    }

    #[test]
    fn gather_swaps_applies_permutation() {
        // perm: multiplicative map mod prime, a single big cycle family.
        let len = 13usize;
        let perm = |i: usize| (i * 6) % len;
        let mut a: Vec<u32> = (0..len as u32).collect();
        let mut visited = vec![false; len];
        apply_gather_swaps(a.as_mut_slice(), 0, 1, len, perm, &mut visited);
        let want: Vec<u32> = (0..len).map(|i| perm(i) as u32).collect();
        assert_eq!(a, want);
        assert!(visited.iter().all(|&v| !v), "mask restored");
    }
}
