//! The C2R/R2C index machinery (paper §3–§4, Eqs. 22–36).
//!
//! All of the decomposed transposition's data movement is driven by a small
//! family of index functions parameterized by the matrix shape. This module
//! packages them in [`C2rParams`], which precomputes `c = gcd(m, n)`,
//! `a = m/c`, `b = n/c`, the modular inverses `a^-1 mod b` / `b^-1 mod a`,
//! and strength-reduced reciprocals ([`FastDivMod`]) for every divisor the
//! formulas touch (§4.4).
//!
//! Gather vs scatter: a *gather* with index function `f` writes
//! `dst[i] = src[f(i)]`; a *scatter* writes `dst[f(i)] = src[i]`. They are
//! inverses: gathering with `f` equals scattering with `f^-1`. The paper
//! derives gather forms for every step because gathers vectorize and
//! coalesce better (§4).
//!
//! Naive (`/`, `%`) counterparts of each function live in [`naive`], used to
//! cross-validate the strength-reduced versions and as the ablation
//! baseline for the §4.4 optimization.

use crate::fastdiv::FastDivMod;
use crate::gcd::{cab, mmi};

/// Precomputed parameters for transposing an `m x n` matrix.
///
/// Everything here is derived from `(m, n)` alone, costs `O(log)` to build,
/// and is shared by all rows and columns — build it once per transpose.
///
/// ```
/// use ipt_core::C2rParams;
///
/// let p = C2rParams::new(4, 8); // the paper's Figure 2 example
/// assert_eq!((p.c, p.a, p.b), (4, 1, 2));
/// // Row 0's destination-column permutation d'_0 (Eq. 24):
/// let d0: Vec<usize> = (0..8).map(|j| p.d(0, j)).collect();
/// assert_eq!(d0, [0, 4, 1, 5, 2, 6, 3, 7]);
/// // ... and its inverse (Eq. 31):
/// assert!((0..8).all(|j| p.d_inv(0, p.d(0, j)) == j));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct C2rParams {
    /// Number of rows of the (row-major) view being permuted.
    pub m: usize,
    /// Number of columns.
    pub n: usize,
    /// `gcd(m, n)`.
    pub c: usize,
    /// `m / c`; coprime to `b`.
    pub a: usize,
    /// `n / c`; the period of the unrotated destination function `d_i` (Lemma 1).
    pub b: usize,
    /// `a^-1 mod b` (exists since `gcd(a, b) = 1`); used by Eq. 31.
    pub a_inv: u64,
    /// `b^-1 mod a`; used by Eq. 34.
    pub b_inv: u64,
    fd_m: FastDivMod,
    fd_n: FastDivMod,
    fd_a: FastDivMod,
    fd_b: FastDivMod,
    fd_c: FastDivMod,
}

impl C2rParams {
    /// Build the parameter set for an `m x n` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `n == 0`, or if `m * n` overflows `u64`
    /// (the index algebra is carried out in `u64`).
    pub fn new(m: usize, n: usize) -> C2rParams {
        assert!(m > 0 && n > 0, "degenerate matrix {m} x {n}");
        (m as u64)
            .checked_mul(n as u64)
            .expect("m * n overflows u64");
        let (c, a, b) = cab(m, n);
        C2rParams {
            m,
            n,
            c,
            a,
            b,
            a_inv: mmi(a as u64, b as u64),
            b_inv: mmi(b as u64, a as u64),
            fd_m: FastDivMod::new(m as u64),
            fd_n: FastDivMod::new(n as u64),
            fd_a: FastDivMod::new(a as u64),
            fd_b: FastDivMod::new(b as u64),
            fd_c: FastDivMod::new(c as u64),
        }
    }

    /// True when `gcd(m, n) == 1`, in which case the pre-rotation is the
    /// identity and Algorithm 1 skips it (`d_i` is naturally bijective).
    #[inline]
    pub fn coprime(&self) -> bool {
        self.c == 1
    }

    /// Pre-rotation amount for column `j`: `floor(j / b)` (Eq. 23).
    ///
    /// Column `j` of the rotated array gathers from row `(i + k) mod m`
    /// of the source, where `k` is this amount.
    #[inline]
    pub fn rotate_amount(&self, j: usize) -> usize {
        self.fd_b.div(j as u64) as usize
    }

    /// Pre-rotation gather index `r_j(i) = (i + floor(j/b)) mod m` (Eq. 23).
    #[inline]
    pub fn r(&self, j: usize, i: usize) -> usize {
        self.fd_m.rem(i as u64 + self.fd_b.div(j as u64)) as usize
    }

    /// Inverse pre-rotation gather index
    /// `r^-1_j(i) = (i - floor(j/b)) mod m` (Eq. 36); the final step of R2C.
    #[inline]
    pub fn r_inv(&self, j: usize, i: usize) -> usize {
        let k = self.fd_m.rem(self.fd_b.div(j as u64));
        self.fd_m.rem(i as u64 + self.m as u64 - k) as usize
    }

    /// Unrotated destination column `d_i(j) = (i + j*m) mod n` (Eq. 22).
    ///
    /// Periodic with period `b` (Lemma 1), hence *not* bijective when
    /// `c > 1` — the reason the pre-rotation exists. Bijective iff `c == 1`.
    #[inline]
    pub fn d_unrotated(&self, i: usize, j: usize) -> usize {
        self.fd_n.rem(i as u64 + (j as u64) * (self.m as u64)) as usize
    }

    /// Row-shuffle *scatter* index
    /// `d'_i(j) = ((i + floor(j/b)) mod m + j*m) mod n` (Eq. 24).
    ///
    /// Proven a bijection on `[0, n)` for every fixed row `i` (Theorem 3):
    /// after pre-rotation, each element of row `i` moves to a unique column.
    #[inline]
    pub fn d(&self, i: usize, j: usize) -> usize {
        let rotated = self.fd_m.rem(i as u64 + self.fd_b.div(j as u64));
        self.fd_n.rem(rotated + (j as u64) * (self.m as u64)) as usize
    }

    /// Row-shuffle *gather* index `d'^-1_i(j)` (Eq. 31), the inverse
    /// permutation of [`C2rParams::d`] in `j` for fixed `i`.
    ///
    /// Uses the helper
    /// `f(i, j) = j + i*(n-1) + (m if i - (j mod c) + c > m else 0)` and the
    /// modular inverse `a^-1 mod b`:
    /// `d'^-1_i(j) = (a^-1 * floor(f/c)) mod b + (f mod c) * b`.
    ///
    /// Always inlined: it is the per-element index of the sequential
    /// row gathers, and its size sits at LLVM's inlining threshold, so
    /// with a plain `#[inline]` whether a gather loop inlines it changed
    /// with unrelated code in the same codegen unit (~25% on
    /// `c2r_batched`).
    #[inline(always)]
    pub fn d_inv(&self, i: usize, j: usize) -> usize {
        let (m, n, c, b) = (self.m as u64, self.n as u64, self.c as u64, self.b as u64);
        let (i, j) = (i as u64, j as u64);
        // The paper's guard `i - (j mod c) + c <= m`, rearranged to avoid
        // unsigned underflow: `i + c <= m + (j mod c)`.
        let jc = self.fd_c.rem(j);
        let mut f = j + i * (n - 1);
        if i + c > m + jc {
            f += m;
        }
        let (fq, fr) = self.fd_c.divrem(f);
        // a_inv < b and (fq mod b) < b, so the product needs up to 2*log2(b)
        // bits; fall back to u128 only in the (pathological) b >= 2^32 case.
        let prod = match self.a_inv.checked_mul(self.fd_b.rem(fq)) {
            Some(p) => self.fd_b.rem(p),
            None => ((self.a_inv as u128 * self.fd_b.rem(fq) as u128) % b as u128) as u64,
        };
        (prod + fr * b) as usize
    }

    /// Column-shuffle gather index
    /// `s'_j(i) = (j + i*n - floor(i/a)) mod m` (Eq. 26).
    ///
    /// Completes the transposition after the row shuffle (Theorem 5); the
    /// `-floor(i/a)` term compensates for the pre-rotation.
    #[inline]
    pub fn s(&self, j: usize, i: usize) -> usize {
        let t = j as u64 + (i as u64) * (self.n as u64) - self.fd_a.div(i as u64);
        self.fd_m.rem(t) as usize
    }

    /// Column-rotation gather index `p_j(i) = (i + j) mod m` (Eq. 32):
    /// the first factor of the decomposed column shuffle, `s'_j = p_j ∘ q`.
    #[inline]
    pub fn p(&self, j: usize, i: usize) -> usize {
        self.fd_m.rem(i as u64 + j as u64) as usize
    }

    /// Inverse column-rotation gather index `p^-1_j(i) = (i - j) mod m`
    /// (Eq. 35); used by R2C.
    #[inline]
    pub fn p_inv(&self, j: usize, i: usize) -> usize {
        let jm = self.fd_m.rem(j as u64);
        self.fd_m.rem(i as u64 + self.m as u64 - jm) as usize
    }

    /// Row-permutation gather index
    /// `q(i) = (i*n - floor(i/a)) mod m` (Eq. 33): the second factor of the
    /// decomposed column shuffle. Identical for every column, so it can be
    /// applied as a whole-row permutation (and, on SIMD hardware, by static
    /// register renaming — §6.2.3).
    #[inline]
    pub fn q(&self, i: usize) -> usize {
        let t = (i as u64) * (self.n as u64) - self.fd_a.div(i as u64);
        self.fd_m.rem(t) as usize
    }

    /// Inverse row-permutation gather index `q^-1(i)` (Eq. 34):
    /// `(floor((c-1+i)/c) * b^-1) mod a + (((c-1)*i) mod c) * a`,
    /// with `b^-1 = mmi(b, a)`. Used by R2C.
    #[inline]
    pub fn q_inv(&self, i: usize) -> usize {
        let (c, a) = (self.c as u64, self.a as u64);
        let i = i as u64;
        let hi = self
            .fd_a
            .rem(match self.b_inv.checked_mul(self.fd_c.div(c - 1 + i)) {
                Some(p) => p,
                // b_inv < a; reduce the quotient mod a first in the huge case.
                None => {
                    return ((self.b_inv as u128 * self.fd_c.div(c - 1 + i) as u128 % a as u128)
                        as u64
                        + self.fd_c.rem((c - 1) * self.fd_c.rem(i)) * a)
                        as usize;
                }
            });
        // ((c-1)*i) mod c == ((c-1)*(i mod c)) mod c, keeping the product
        // within c^2 <= m*n <= 2^64.
        let lo = self.fd_c.rem((c - 1) * self.fd_c.rem(i));
        (hi + lo * a) as usize
    }
}

/// Naive (`/`, `%`) versions of the index functions.
///
/// These are the textbook transcriptions of the paper's equations, used to
/// cross-validate the strength-reduced methods on [`C2rParams`] and as the
/// baseline for the §4.4 strength-reduction ablation benchmark.
pub mod naive {
    use crate::gcd::{cab, mmi};

    /// Shape parameters without precomputed reciprocals.
    #[derive(Debug, Clone, Copy)]
    pub struct Shape {
        /// Rows.
        pub m: usize,
        /// Columns.
        pub n: usize,
        /// `gcd(m, n)`.
        pub c: usize,
        /// `m / c`.
        pub a: usize,
        /// `n / c`.
        pub b: usize,
        /// `a^-1 mod b`.
        pub a_inv: u64,
        /// `b^-1 mod a`.
        pub b_inv: u64,
    }

    impl Shape {
        /// Derive the decomposition parameters for an `m x n` matrix.
        pub fn new(m: usize, n: usize) -> Shape {
            let (c, a, b) = cab(m, n);
            Shape {
                m,
                n,
                c,
                a,
                b,
                a_inv: mmi(a as u64, b as u64),
                b_inv: mmi(b as u64, a as u64),
            }
        }

        /// Eq. 23.
        pub fn r(&self, j: usize, i: usize) -> usize {
            (i + j / self.b) % self.m
        }

        /// Eq. 36.
        pub fn r_inv(&self, j: usize, i: usize) -> usize {
            (i + self.m - (j / self.b) % self.m) % self.m
        }

        /// Eq. 24.
        pub fn d(&self, i: usize, j: usize) -> usize {
            ((i + j / self.b) % self.m + j * self.m) % self.n
        }

        /// Eq. 31.
        pub fn d_inv(&self, i: usize, j: usize) -> usize {
            let f = if i + self.c <= self.m + (j % self.c) {
                j + i * (self.n - 1)
            } else {
                j + i * (self.n - 1) + self.m
            };
            ((self.a_inv as usize * (f / self.c)) % self.b) + (f % self.c) * self.b
        }

        /// Eq. 26.
        pub fn s(&self, j: usize, i: usize) -> usize {
            (j + i * self.n - i / self.a) % self.m
        }

        /// Eq. 32.
        pub fn p(&self, j: usize, i: usize) -> usize {
            (i + j) % self.m
        }

        /// Eq. 35.
        pub fn p_inv(&self, j: usize, i: usize) -> usize {
            (i + self.m - j % self.m) % self.m
        }

        /// Eq. 33.
        pub fn q(&self, i: usize) -> usize {
            (i * self.n - i / self.a) % self.m
        }

        /// Eq. 34.
        #[allow(clippy::manual_div_ceil)] // keep Eq. 34's literal form
        pub fn q_inv(&self, i: usize) -> usize {
            ((self.c - 1 + i) / self.c * self.b_inv as usize) % self.a
                + (((self.c - 1) * i) % self.c) * self.a
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shapes() -> Vec<(usize, usize)> {
        let mut v = Vec::new();
        for m in 1..=12 {
            for n in 1..=12 {
                v.push((m, n));
            }
        }
        // Larger, structurally diverse shapes: coprime, square, huge gcd,
        // prime dims, skinny both ways.
        v.extend_from_slice(&[
            (1, 97),
            (97, 1),
            (64, 64),
            (64, 48),
            (48, 64),
            (101, 103),
            (100, 250),
            (3, 1024),
            (1024, 3),
            (96, 96),
        ]);
        v
    }

    #[test]
    fn fast_matches_naive() {
        for (m, n) in shapes() {
            let p = C2rParams::new(m, n);
            let s = naive::Shape::new(m, n);
            for i in 0..m.min(40) {
                for j in 0..n.min(40) {
                    assert_eq!(p.r(j, i), s.r(j, i), "r m={m} n={n} i={i} j={j}");
                    assert_eq!(p.r_inv(j, i), s.r_inv(j, i), "r_inv {m}x{n} {i},{j}");
                    assert_eq!(p.d(i, j), s.d(i, j), "d {m}x{n} {i},{j}");
                    assert_eq!(p.d_inv(i, j), s.d_inv(i, j), "d_inv {m}x{n} {i},{j}");
                    assert_eq!(p.s(j, i), s.s(j, i), "s {m}x{n} {i},{j}");
                    assert_eq!(p.p(j, i), s.p(j, i), "p {m}x{n} {i},{j}");
                    assert_eq!(p.p_inv(j, i), s.p_inv(j, i), "p_inv {m}x{n} {i},{j}");
                }
            }
            for i in 0..m {
                assert_eq!(p.q(i), s.q(i), "q {m}x{n} {i}");
                assert_eq!(p.q_inv(i), s.q_inv(i), "q_inv {m}x{n} {i}");
            }
        }
    }

    #[test]
    fn d_is_bijective_per_row() {
        // Theorem 3: d'_i is a bijection on [0, n) for every fixed i.
        for (m, n) in shapes() {
            let p = C2rParams::new(m, n);
            for i in 0..m {
                let mut seen = vec![false; n];
                for j in 0..n {
                    let t = p.d(i, j);
                    assert!(t < n);
                    assert!(!seen[t], "d collision {m}x{n} row {i}");
                    seen[t] = true;
                }
            }
        }
    }

    #[test]
    fn d_unrotated_periodicity() {
        // Lemma 1: d_i(j + k*b) == d_i(j); bijective iff c == 1.
        for (m, n) in shapes() {
            let p = C2rParams::new(m, n);
            for i in 0..m.min(8) {
                for j in 0..n {
                    for k in 1..=3usize {
                        if j + k * p.b < n {
                            assert_eq!(
                                p.d_unrotated(i, j),
                                p.d_unrotated(i, j + k * p.b),
                                "period {m}x{n}"
                            );
                        }
                    }
                }
                if p.coprime() {
                    let mut seen = vec![false; n];
                    for j in 0..n {
                        let t = p.d_unrotated(i, j);
                        assert!(!seen[t], "coprime d_i must be bijective");
                        seen[t] = true;
                    }
                }
            }
        }
    }

    #[test]
    fn d_inv_inverts_d() {
        for (m, n) in shapes() {
            let p = C2rParams::new(m, n);
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(p.d_inv(i, p.d(i, j)), j, "{m}x{n} row {i} col {j}");
                    assert_eq!(p.d(i, p.d_inv(i, j)), j, "{m}x{n} row {i} col {j}");
                }
            }
        }
    }

    #[test]
    fn q_inv_inverts_q() {
        for (m, n) in shapes() {
            let p = C2rParams::new(m, n);
            for i in 0..m {
                assert_eq!(p.q_inv(p.q(i)), i, "{m}x{n} i={i}");
                assert_eq!(p.q(p.q_inv(i)), i, "{m}x{n} i={i}");
            }
        }
    }

    #[test]
    fn s_decomposes_into_p_compose_q() {
        // §4.2: (p_j ∘ q)(i) = s'_j(i).
        for (m, n) in shapes() {
            let p = C2rParams::new(m, n);
            for j in 0..n {
                for i in 0..m {
                    assert_eq!(p.p(j, p.q(i)), p.s(j, i), "{m}x{n} j={j} i={i}");
                }
            }
        }
    }

    #[test]
    fn s_is_bijective_per_column() {
        for (m, n) in shapes() {
            let p = C2rParams::new(m, n);
            for j in 0..n {
                let mut seen = vec![false; m];
                for i in 0..m {
                    let t = p.s(j, i);
                    assert!(!seen[t], "s collision {m}x{n} col {j}");
                    seen[t] = true;
                }
            }
        }
    }

    #[test]
    fn rotations_invert() {
        for (m, n) in shapes() {
            let p = C2rParams::new(m, n);
            for j in 0..n {
                for i in 0..m {
                    assert_eq!(p.r_inv(j, p.r(j, i)), i);
                    assert_eq!(p.p_inv(j, p.p(j, i)), i);
                }
            }
        }
    }

    #[test]
    fn paper_worked_example() {
        // §2: m = 3, n = 8, element at (i, j) = (2, 0) moves to (1, 5).
        let p = C2rParams::new(3, 8);
        let (i, j) = (2usize, 0usize);
        let i_dst = (j + i * 8) % 3;
        let j_dst = (j + i * 8) / 3;
        assert_eq!((i_dst, j_dst), (1, 5));
        // Coprime case: d' == d (no rotation), per the note after Theorem 3.
        assert!(p.coprime());
        for ii in 0..3 {
            for jj in 0..8 {
                assert_eq!(p.d(ii, jj), p.d_unrotated(ii, jj));
            }
        }
    }

    #[test]
    fn fig2_d_rows() {
        // The 4x8 example of Figure 2 (hand-verified against the paper).
        let p = C2rParams::new(4, 8);
        let d0: Vec<usize> = (0..8).map(|j| p.d(0, j)).collect();
        let d1: Vec<usize> = (0..8).map(|j| p.d(1, j)).collect();
        assert_eq!(d0, [0, 4, 1, 5, 2, 6, 3, 7]);
        assert_eq!(d1, [1, 5, 2, 6, 3, 7, 0, 4]);
        let d0_inv: Vec<usize> = (0..8).map(|j| p.d_inv(0, j)).collect();
        assert_eq!(d0_inv, [0, 2, 4, 6, 1, 3, 5, 7]);
        let d1_inv: Vec<usize> = (0..8).map(|j| p.d_inv(1, j)).collect();
        assert_eq!(d1_inv, [6, 0, 2, 4, 7, 1, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_rows_panics() {
        C2rParams::new(0, 5);
    }
}
