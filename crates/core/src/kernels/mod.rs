//! Row-shuffle kernel family with runtime dispatch (§5.1, Eqs. 24/31).
//!
//! The row shuffle is the decomposition's hottest pass: every row of the
//! matrix is permuted by `d'_i` (Eq. 24) or its inverse (Eq. 31). The
//! scalar implementation walks an incremental recurrence — one
//! data-dependent wrap test per element — which caps it well below memory
//! bandwidth. This module exploits the *run structure* of the gather
//! index instead:
//!
//! For fixed row `i`, the gather sequence `j -> d'^-1_i(j)` is **piecewise
//! arithmetic with stride `b = n/c`**. Writing `thr = max(0, i + c - m)`,
//! the stride only breaks at columns `j` whose residue `j mod c` lies in
//! the boundary set `{0, i mod c, thr}` — at most three residues, so runs
//! average `c/3` columns and reach `c` columns when the residues collide
//! (e.g. `i ≡ 0 (mod c)`). Inside a run the expensive Eq. 31 evaluation
//! is needed **once**; the rest of the run is the branch-free affine walk
//! `base, base + b, base + 2b, ...`, which the blocked kernels emit in
//! fixed `W`-lane strips that LLVM unrolls and autovectorizes on stable
//! Rust (no `portable_simd`, no unsafe). When `b == 1` — every square
//! matrix, and any shape where `m` is a multiple of `n` — the runs are
//! literal `memcpy` segments.
//!
//! Why this is still the paper's algorithm: the runs partition `[0, n)`,
//! each element is read from the same `d'^-1_i(j)` as before, and the
//! whole row is staged through the same `n`-element scratch row, so the
//! `O(max(m, n))` auxiliary bound of Theorem 6 is untouched — the kernels
//! change the *order of index evaluation*, not the data movement.
//!
//! [`select`] picks a kernel from the shape alone, through a static table
//! (runs shorter than a strip are not worth the per-run setup). A caller
//! that wants one kernel — the `kernels` suite of `ipt bench`, the
//! kernel tests — passes it to [`row_shuffle`] or
//! [`RowShuffleKernel::apply_row`] itself.
//!
//! ```
//! use ipt_core::index::C2rParams;
//! use ipt_core::kernels::{self, RowShuffleKernel, ShuffleDirection};
//!
//! let (m, n) = (6usize, 4usize);
//! let p = C2rParams::new(m, n);
//! let mut a: Vec<u32> = (0..(m * n) as u32).collect();
//! let mut b = a.clone();
//! let mut tmp = vec![0u32; n];
//! // Every kernel computes the same permutation:
//! kernels::row_shuffle(&mut a, &p, &mut tmp, RowShuffleKernel::Scalar,
//!                      ShuffleDirection::Inverse);
//! kernels::row_shuffle(&mut b, &p, &mut tmp, RowShuffleKernel::Block8,
//!                      ShuffleDirection::Inverse);
//! assert_eq!(a, b);
//! ```

pub mod faulty;

mod blocked;
mod scalar;

use crate::index::C2rParams;
use crate::shape_len;

/// Which way the row shuffle permutes, named after the paper's `d'_i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShuffleDirection {
    /// Gather with `d'^-1_i` (Eq. 31): `row[j] = old[d'^-1_i(j)]` — step 2
    /// of C2R. Equals a scatter with `d'_i`.
    Inverse,
    /// Gather with `d'_i` directly (Eq. 24 / §4.3): `row[j] = old[d'_i(j)]`
    /// — step 3 of R2C. Equals a scatter with `d'^-1_i`.
    Forward,
}

/// One member of the row-shuffle kernel family.
///
/// All kernels compute the identical permutation; they differ only in how
/// the Eq. 31 index stream is generated (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowShuffleKernel {
    /// The incremental-recurrence baseline: constant-stride index updates
    /// with wrap tests, one element at a time (§4.4 strength reduction
    /// taken to its scalar limit).
    Scalar,
    /// Run-blocked kernel emitting 4-lane strips.
    Block4,
    /// Run-blocked kernel emitting 8-lane strips.
    Block8,
}

impl RowShuffleKernel {
    /// Every kernel, in ablation order.
    pub const ALL: [RowShuffleKernel; 3] = [
        RowShuffleKernel::Scalar,
        RowShuffleKernel::Block4,
        RowShuffleKernel::Block8,
    ];

    /// Stable identifier used by the plan text, the bench suite and the
    /// per-kernel hit counters.
    pub fn name(self) -> &'static str {
        match self {
            RowShuffleKernel::Scalar => "scalar",
            RowShuffleKernel::Block4 => "block4",
            RowShuffleKernel::Block8 => "block8",
        }
    }

    /// Permute one row: `dst` receives the shuffle of `src`, where `src`
    /// is a copy of row `i`'s previous contents and both slices hold
    /// exactly `p.n` elements.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() != p.n`, `dst.len() != p.n` or `i >= p.m`.
    // Out of line, like the kernels it dispatches to (see
    // `scalar::apply_row`), so its callers' code does not move either.
    #[inline(never)]
    pub fn apply_row<T: Copy>(
        self,
        p: &C2rParams,
        i: usize,
        src: &[T],
        dst: &mut [T],
        dir: ShuffleDirection,
    ) {
        assert_eq!(src.len(), p.n, "src must hold one n-element row");
        assert_eq!(dst.len(), p.n, "dst must hold one n-element row");
        assert!(i < p.m, "row index {i} out of range for m = {}", p.m);
        match self {
            RowShuffleKernel::Scalar => scalar::apply_row(p, i, src, dst, dir),
            RowShuffleKernel::Block4 => blocked::apply_row::<4, T>(p, i, src, dst, dir),
            RowShuffleKernel::Block8 => blocked::apply_row::<8, T>(p, i, src, dst, dir),
        }
    }
}

/// Pick the kernel to run for this shape — the call every dispatch site
/// uses.
///
/// The run structure makes the trade-off explicit: runs average `c/3`
/// columns, so blocking pays once runs comfortably cover a strip, and the
/// wider strip needs the longer run. Coprime shapes (`c == 1`) degenerate
/// to one-element runs — one Eq. 31 evaluation per element — where the
/// scalar recurrence is unbeatable. When `b == 1`, runs are contiguous
/// copies, so from `c >= 16` blocking already pays; below that the
/// scalar recurrence measured faster even on memcpy runs (the crossover
/// is recorded in `EXPERIMENTS.md`).
pub fn select(p: &C2rParams) -> RowShuffleKernel {
    if (p.b == 1 && p.c >= 16) || p.c >= 64 {
        RowShuffleKernel::Block8
    } else if p.c >= 16 {
        RowShuffleKernel::Block4
    } else {
        RowShuffleKernel::Scalar
    }
}

/// What decides kernel choices (see [`active_tier`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecisionTier {
    /// The static [`select`] table decides.
    Static,
}

impl DecisionTier {
    /// Stable identifier used by report stamps.
    pub fn name(self) -> &'static str {
        match self {
            DecisionTier::Static => "static",
        }
    }
}

/// The tier that decides dispatch: always [`DecisionTier::Static`], since
/// [`select`] reads nothing but the shape. Kept for reports that stamp it.
pub fn active_tier() -> DecisionTier {
    DecisionTier::Static
}

/// Shuffle every row of an `m x n` row-major buffer with the given kernel:
/// the serial driver behind [`crate::c2r()`] / [`crate::r2c()`] step 2 and the
/// bench suite. `tmp` stages each row and needs at least `n` elements.
///
/// # Panics
///
/// Panics if `data.len() != p.m * p.n` or `tmp.len() < p.n`.
pub fn row_shuffle<T: Copy>(
    data: &mut [T],
    p: &C2rParams,
    tmp: &mut [T],
    kernel: RowShuffleKernel,
    dir: ShuffleDirection,
) {
    let (m, n) = (p.m, p.n);
    assert_eq!(data.len(), shape_len(m, n), "buffer length must be m * n");
    assert!(tmp.len() >= n, "tmp must hold at least n elements");
    let tmp = &mut tmp[..n];
    for (i, row) in data.chunks_exact_mut(n).enumerate() {
        tmp.copy_from_slice(row);
        kernel.apply_row(p, i, tmp, row, dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::fill_pattern;
    use crate::permute;

    /// Every (m, n) with both dimensions <= 32, plus shapes chosen to
    /// stress the run structure: b == 1 (contiguous runs), coprime
    /// (one-element runs), huge gcd, thr != 0 rows, prime dimensions.
    fn shapes() -> Vec<(usize, usize)> {
        let mut v = Vec::new();
        for m in 1..=32 {
            for n in 1..=32 {
                v.push((m, n));
            }
        }
        v.extend_from_slice(&[
            (64, 64),   // square: b == 1, runs are memcpy
            (128, 64),  // m multiple of n: b == 1
            (64, 128),  // n multiple of m: c == m
            (96, 72),   // c == 24: Block4 territory
            (192, 128), // c == 64: Block8 territory
            (97, 64),   // coprime, power-of-two n
            (101, 103), // coprime primes
            (48, 36),   // c == 12
            (100, 250), // c == 50
            (250, 100), // c == 50, m > n
            (33, 1023), // c == 33, long rows
            (1023, 33), // c == 33, many short rows
        ]);
        v
    }

    #[test]
    fn all_kernels_match_scalar_reference_inverse() {
        // The reference is permute::row_shuffle_gather — the direct Eq. 31
        // transcription — so this also pins Scalar itself.
        for (m, n) in shapes() {
            let p = C2rParams::new(m, n);
            let mut reference = vec![0u64; m * n];
            fill_pattern(&mut reference);
            let orig = reference.clone();
            let mut tmp = vec![0u64; n];
            permute::row_shuffle_gather(&mut reference, &p, &mut tmp);
            for kernel in RowShuffleKernel::ALL {
                let mut a = orig.clone();
                row_shuffle(&mut a, &p, &mut tmp, kernel, ShuffleDirection::Inverse);
                assert_eq!(a, reference, "{m}x{n} {}", kernel.name());
            }
        }
    }

    #[test]
    fn all_kernels_match_scalar_reference_forward() {
        for (m, n) in shapes() {
            let p = C2rParams::new(m, n);
            let mut reference = vec![0u32; m * n];
            fill_pattern(&mut reference);
            let orig = reference.clone();
            let mut tmp = vec![0u32; n];
            permute::row_shuffle_gather_forward(&mut reference, &p, &mut tmp);
            for kernel in RowShuffleKernel::ALL {
                let mut a = orig.clone();
                row_shuffle(&mut a, &p, &mut tmp, kernel, ShuffleDirection::Forward);
                assert_eq!(a, reference, "{m}x{n} {}", kernel.name());
            }
        }
    }

    #[test]
    fn forward_inverts_inverse_for_every_kernel() {
        for (m, n) in [(24usize, 36usize), (36, 24), (17, 29), (64, 64)] {
            let p = C2rParams::new(m, n);
            for kernel in RowShuffleKernel::ALL {
                let mut a = vec![0u64; m * n];
                fill_pattern(&mut a);
                let orig = a.clone();
                let mut tmp = vec![0u64; n];
                row_shuffle(&mut a, &p, &mut tmp, kernel, ShuffleDirection::Inverse);
                row_shuffle(&mut a, &p, &mut tmp, kernel, ShuffleDirection::Forward);
                assert_eq!(a, orig, "{m}x{n} {}", kernel.name());
            }
        }
    }

    #[test]
    fn kernels_may_be_mixed_across_directions() {
        // Dispatch picks per call; a Block8 inverse must be undone by a
        // Scalar forward and vice versa.
        let (m, n) = (40usize, 56usize); // c == 8
        let p = C2rParams::new(m, n);
        let mut a = vec![0u16; m * n];
        fill_pattern(&mut a);
        let orig = a.clone();
        let mut tmp = vec![0u16; n];
        row_shuffle(
            &mut a,
            &p,
            &mut tmp,
            RowShuffleKernel::Block8,
            ShuffleDirection::Inverse,
        );
        row_shuffle(
            &mut a,
            &p,
            &mut tmp,
            RowShuffleKernel::Scalar,
            ShuffleDirection::Forward,
        );
        assert_eq!(a, orig);
    }

    #[test]
    fn apply_row_matches_d_inv_directly() {
        // Row-level pin against the index function itself, independent of
        // the permute reference.
        let (m, n) = (30usize, 42usize);
        let p = C2rParams::new(m, n);
        for i in [0usize, 1, 5, 29] {
            let src: Vec<u32> = (0..n as u32).collect();
            let want_inv: Vec<u32> = (0..n).map(|j| src[p.d_inv(i, j)]).collect();
            let want_fwd: Vec<u32> = (0..n).map(|j| src[p.d(i, j)]).collect();
            for kernel in RowShuffleKernel::ALL {
                let mut dst = vec![0u32; n];
                kernel.apply_row(&p, i, &src, &mut dst, ShuffleDirection::Inverse);
                assert_eq!(dst, want_inv, "inverse row {i} {}", kernel.name());
                kernel.apply_row(&p, i, &src, &mut dst, ShuffleDirection::Forward);
                assert_eq!(dst, want_fwd, "forward row {i} {}", kernel.name());
            }
        }
    }

    #[test]
    fn select_auto_prefers_blocking_only_with_long_runs() {
        // Coprime: one-element runs, scalar must win.
        assert_eq!(select(&C2rParams::new(101, 103)), RowShuffleKernel::Scalar);
        // Square: b == 1, runs are memcpy.
        assert_eq!(
            select(&C2rParams::new(1024, 1024)),
            RowShuffleKernel::Block8
        );
        // m multiple of n: b == 1 again.
        assert_eq!(
            select(&C2rParams::new(2048, 1024)),
            RowShuffleKernel::Block8
        );
        // Large gcd with b > 1.
        assert_eq!(
            select(&C2rParams::new(1024, 2048)),
            RowShuffleKernel::Block8
        );
        // Mid-size gcd.
        assert_eq!(select(&C2rParams::new(48, 36)), RowShuffleKernel::Scalar);
        assert_eq!(select(&C2rParams::new(96, 80)), RowShuffleKernel::Block4);
        // b == 1 with short runs: the measured crossover (u32 and u64, 4 KiB-8 MiB,
        // EXPERIMENTS.md) keeps scalar up to c = 12 and blocks from 16.
        for (m, n, want) in [
            (32768, 4, RowShuffleKernel::Scalar),
            (16384, 8, RowShuffleKernel::Scalar),
            (10920, 12, RowShuffleKernel::Scalar),
            (131072, 8, RowShuffleKernel::Scalar),
            (8192, 16, RowShuffleKernel::Block8),
        ] {
            let p = C2rParams::new(m, n);
            assert_eq!(p.b, 1, "{m}x{n}");
            assert_eq!(select(&p), want, "{m}x{n}");
        }
    }

    #[test]
    fn decision_tier_names_are_stable() {
        assert_eq!(DecisionTier::Static.name(), "static");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn apply_row_rejects_bad_row_index() {
        let p = C2rParams::new(4, 6);
        let src = vec![0u8; 6];
        let mut dst = vec![0u8; 6];
        RowShuffleKernel::Scalar.apply_row(&p, 4, &src, &mut dst, ShuffleDirection::Inverse);
    }
}
