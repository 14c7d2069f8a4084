//! The permutation steps of Algorithm 1 and its inverse.
//!
//! Each step operates on a row-major `m x n` buffer and is *independent*
//! per row or per column — the decomposition's key property. Steps come in
//! scratch-buffer form (the paper's Algorithm 1) and, where a rotation
//! structure exists, in zero-scratch analytic-cycle form (§4.6).
//!
//! All functions take the precomputed [`C2rParams`] so the index math costs
//! one multiply-shift per element (§4.4).

use crate::index::C2rParams;
use crate::rotate::rotate_strided_left;

/// Step 1 of C2R: pre-rotate column `j` left by `floor(j / b)` (Eq. 23),
/// using a scratch column exactly as written in Algorithm 1.
///
/// No-op when `gcd(m, n) == 1`. `tmp` must hold at least `m` elements.
pub fn prerotate_scratch<T: Copy>(data: &mut [T], p: &C2rParams, tmp: &mut [T]) {
    let (m, n) = (p.m, p.n);
    debug_assert!(tmp.len() >= m);
    if p.coprime() {
        return;
    }
    for j in 0..n {
        let k = p.rotate_amount(j) % m;
        if k == 0 {
            continue; // columns j < b are untouched
        }
        for (i, slot) in tmp[..m].iter_mut().enumerate() {
            let src = i + k - if i + k >= m { m } else { 0 };
            *slot = data[src * n + j];
        }
        for (i, &v) in tmp[..m].iter().enumerate() {
            data[i * n + j] = v;
        }
    }
}

/// Step 1 of C2R via zero-scratch analytic cycle rotation (§4.6).
pub fn prerotate_cycles<T: Copy>(data: &mut [T], p: &C2rParams) {
    let (m, n) = (p.m, p.n);
    if p.coprime() {
        return;
    }
    for j in 0..n {
        rotate_strided_left(data, j, n, m, p.rotate_amount(j) % m);
    }
}

/// Step 2 of C2R, gather form: row `i` becomes
/// `row[j] = old_row[d'^-1_i(j)]` (Eq. 31). `tmp` needs `n` elements.
pub fn row_shuffle_gather<T: Copy>(data: &mut [T], p: &C2rParams, tmp: &mut [T]) {
    let (m, n) = (p.m, p.n);
    debug_assert!(tmp.len() >= n);
    for i in 0..m {
        let row = &mut data[i * n..(i + 1) * n];
        for (j, slot) in tmp[..n].iter_mut().enumerate() {
            *slot = row[p.d_inv(i, j)];
        }
        row.copy_from_slice(&tmp[..n]);
    }
}

/// Step 2 of C2R, scatter form as literally written in Algorithm 1:
/// `tmp[d'_i(j)] = row[j]` (Eq. 24). `tmp` needs `n` elements.
pub fn row_shuffle_scatter<T: Copy>(data: &mut [T], p: &C2rParams, tmp: &mut [T]) {
    let (m, n) = (p.m, p.n);
    debug_assert!(tmp.len() >= n);
    for i in 0..m {
        let row = &mut data[i * n..(i + 1) * n];
        for (j, &v) in row.iter().enumerate() {
            tmp[p.d(i, j)] = v;
        }
        row.copy_from_slice(&tmp[..n]);
    }
}

/// Step 3 of C2R, direct form: column `j` becomes
/// `col[i] = old_col[s'_j(i)]` (Eq. 26). `tmp` needs `m` elements.
// A whole pass, run once per transpose: inlining it into `c2r`/`r2c`
// buys nothing, and it changed the pass's code with unrelated code in
// the same codegen unit (5-11% on the sequential bench entries).
#[inline(never)]
pub fn col_shuffle_gather<T: Copy>(data: &mut [T], p: &C2rParams, tmp: &mut [T]) {
    let (m, n) = (p.m, p.n);
    debug_assert!(tmp.len() >= m);
    for j in 0..n {
        for (i, slot) in tmp[..m].iter_mut().enumerate() {
            *slot = data[p.s(j, i) * n + j];
        }
        for (i, &v) in tmp[..m].iter().enumerate() {
            data[i * n + j] = v;
        }
    }
}

/// Step 3 of C2R, decomposed into the restricted primitives of §4.1–4.2:
/// a column rotation by `p_j` (analytic cycles, zero scratch) followed by
/// the column-independent row permutation `q` (dynamic cycles, one row of
/// scratch). `(p_j ∘ q) == s'_j`, so this equals [`col_shuffle_gather`].
pub fn col_shuffle_decomposed<T: Copy>(data: &mut [T], p: &C2rParams, row_buf: &mut [T]) {
    let (m, n) = (p.m, p.n);
    debug_assert!(row_buf.len() >= n);
    // Column rotation: gather with p_j(i) = (i + j) mod m, i.e. rotate
    // column j left by j mod m.
    for j in 0..n {
        rotate_strided_left(data, j, n, m, j % m);
    }
    // Row permutation: every column permuted identically by q, so move
    // whole rows along q's cycles.
    let cycles = crate::cycles::CycleSet::build(m, |i| p.q(i));
    crate::cycles::apply_gather_rows_in_place(data, n, |i| p.q(i), &cycles, row_buf);
}

/// First step of R2C: the inverse row permutation, gather with `q^-1`
/// (Eq. 34), moving whole rows along cycles. `row_buf` needs `n` elements.
// A whole pass, run once per transpose: inlining it into `c2r`/`r2c`
// buys nothing, and it changed the pass's code with unrelated code in
// the same codegen unit (5-11% on the sequential bench entries).
#[inline(never)]
pub fn row_permute_inverse<T: Copy>(data: &mut [T], p: &C2rParams, row_buf: &mut [T]) {
    let m = p.m;
    debug_assert!(row_buf.len() >= p.n);
    let cycles = crate::cycles::CycleSet::build(m, |i| p.q_inv(i));
    crate::cycles::apply_gather_rows_in_place(data, p.n, |i| p.q_inv(i), &cycles, row_buf);
}

/// Second step of R2C: inverse column rotation, gather with
/// `p^-1_j(i) = (i - j) mod m` (Eq. 35) — rotate column `j` left by
/// `(m - j mod m) mod m`.
pub fn col_rotate_inverse<T: Copy>(data: &mut [T], p: &C2rParams) {
    let (m, n) = (p.m, p.n);
    for j in 0..n {
        rotate_strided_left(data, j, n, m, (m - j % m) % m);
    }
}

/// Third step of R2C: the row shuffle inverse is a gather with `d'_i`
/// *directly* (§4.3) — no modular inversion needed on this side.
pub fn row_shuffle_gather_forward<T: Copy>(data: &mut [T], p: &C2rParams, tmp: &mut [T]) {
    let (m, n) = (p.m, p.n);
    debug_assert!(tmp.len() >= n);
    for i in 0..m {
        let row = &mut data[i * n..(i + 1) * n];
        for (j, slot) in tmp[..n].iter_mut().enumerate() {
            *slot = row[p.d(i, j)];
        }
        row.copy_from_slice(&tmp[..n]);
    }
}

/// Final step of R2C: undo the pre-rotation, gather with
/// `r^-1_j(i) = (i - floor(j/b)) mod m` (Eq. 36). No-op when coprime.
pub fn postrotate_inverse<T: Copy>(data: &mut [T], p: &C2rParams) {
    let (m, n) = (p.m, p.n);
    if p.coprime() {
        return;
    }
    for j in 0..n {
        let k = p.rotate_amount(j) % m;
        rotate_strided_left(data, j, n, m, (m - k) % m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::fill_pattern;

    fn params(m: usize, n: usize) -> C2rParams {
        C2rParams::new(m, n)
    }

    fn fresh(m: usize, n: usize) -> Vec<u64> {
        let mut v = vec![0u64; m * n];
        fill_pattern(&mut v);
        v
    }

    /// Elementwise simulation of a gather step for cross-validation.
    fn simulate_col_gather(
        data: &[u64],
        m: usize,
        n: usize,
        f: impl Fn(usize, usize) -> usize,
    ) -> Vec<u64> {
        let mut out = data.to_vec();
        for j in 0..n {
            for i in 0..m {
                out[i * n + j] = data[f(j, i) * n + j];
            }
        }
        out
    }

    #[test]
    fn prerotate_variants_agree() {
        for (m, n) in [(4usize, 8usize), (6, 9), (12, 8), (7, 7), (9, 6)] {
            let p = params(m, n);
            let mut a = fresh(m, n);
            let mut b = a.clone();
            let mut tmp = vec![0u64; m.max(n)];
            prerotate_scratch(&mut a, &p, &mut tmp);
            prerotate_cycles(&mut b, &p);
            assert_eq!(a, b, "{m}x{n}");
            // And both match the elementwise definition r_j.
            let sim = simulate_col_gather(&fresh(m, n), m, n, |j, i| p.r(j, i));
            assert_eq!(a, sim, "{m}x{n} vs simulation");
        }
    }

    #[test]
    fn prerotate_noop_when_coprime() {
        let p = params(3, 8);
        let mut a = fresh(3, 8);
        let orig = a.clone();
        prerotate_cycles(&mut a, &p);
        assert_eq!(a, orig);
    }

    #[test]
    fn row_shuffle_gather_and_scatter_agree() {
        for (m, n) in [(4usize, 8usize), (6, 9), (5, 5), (3, 11), (12, 4)] {
            let p = params(m, n);
            let mut a = fresh(m, n);
            let mut b = a.clone();
            let mut tmp = vec![0u64; n];
            row_shuffle_gather(&mut a, &p, &mut tmp);
            row_shuffle_scatter(&mut b, &p, &mut tmp);
            assert_eq!(a, b, "{m}x{n}");
        }
    }

    #[test]
    fn col_shuffle_direct_and_decomposed_agree() {
        for (m, n) in [(4usize, 8usize), (6, 9), (5, 5), (8, 3), (10, 15)] {
            let p = params(m, n);
            let mut a = fresh(m, n);
            let mut b = a.clone();
            let mut tmp = vec![0u64; m.max(n)];
            col_shuffle_gather(&mut a, &p, &mut tmp);
            col_shuffle_decomposed(&mut b, &p, &mut tmp);
            assert_eq!(a, b, "{m}x{n}");
        }
    }

    #[test]
    fn col_shuffle_matches_simulation() {
        let (m, n) = (6usize, 10usize);
        let p = params(m, n);
        let orig = fresh(m, n);
        let mut a = orig.clone();
        let mut tmp = vec![0u64; m.max(n)];
        col_shuffle_gather(&mut a, &p, &mut tmp);
        assert_eq!(a, simulate_col_gather(&orig, m, n, |j, i| p.s(j, i)));
    }

    #[test]
    fn inverse_steps_undo_forward_steps() {
        for (m, n) in [(4usize, 8usize), (6, 9), (9, 6), (5, 7), (12, 18)] {
            let p = params(m, n);
            let orig = fresh(m, n);
            let mut tmp = vec![0u64; m.max(n)];

            let mut a = orig.clone();
            prerotate_cycles(&mut a, &p);
            postrotate_inverse(&mut a, &p);
            assert_eq!(a, orig, "rotate round-trip {m}x{n}");

            let mut a = orig.clone();
            row_shuffle_gather(&mut a, &p, &mut tmp);
            row_shuffle_gather_forward(&mut a, &p, &mut tmp);
            assert_eq!(a, orig, "row shuffle round-trip {m}x{n}");

            let mut a = orig.clone();
            col_shuffle_decomposed(&mut a, &p, &mut tmp);
            row_permute_inverse(&mut a, &p, &mut tmp);
            col_rotate_inverse(&mut a, &p);
            assert_eq!(a, orig, "col shuffle round-trip {m}x{n}");
        }
    }

    #[test]
    fn fig2_intermediate_states() {
        // Figure 2: C2R of the 4x8 matrix with A[i][j] = i + 4j (buffer
        // shown in the paper), asserting each intermediate state verbatim.
        let (m, n) = (4usize, 8usize);
        let p = params(m, n);
        let mut a: Vec<u32> = (0..32)
            .map(|l| {
                let (i, j) = (l / n, l % n);
                (i + 4 * j) as u32
            })
            .collect();
        let mut tmp = vec![0u32; n];

        prerotate_cycles(&mut a, &p);
        #[rustfmt::skip]
        let after_rotate: Vec<u32> = vec![
            0, 4, 9, 13, 18, 22, 27, 31,
            1, 5, 10, 14, 19, 23, 24, 28,
            2, 6, 11, 15, 16, 20, 25, 29,
            3, 7, 8, 12, 17, 21, 26, 30,
        ];
        assert_eq!(a, after_rotate, "after column rotate");

        row_shuffle_scatter(&mut a, &p, &mut tmp);
        #[rustfmt::skip]
        let after_shuffle: Vec<u32> = vec![
            0, 9, 18, 27, 4, 13, 22, 31,
            24, 1, 10, 19, 28, 5, 14, 23,
            16, 25, 2, 11, 20, 29, 6, 15,
            8, 17, 26, 3, 12, 21, 30, 7,
        ];
        assert_eq!(a, after_shuffle, "after row shuffle");

        col_shuffle_gather(&mut a, &p, &mut tmp);
        let finished: Vec<u32> = (0..32).collect();
        assert_eq!(a, finished, "after column shuffle");
    }
}
