//! The warp register-file model and its three hardware primitives.
//!
//! A [`Warp`] is `m` registers by `lanes` lanes. Register `r` of lane `l`
//! holds element `(r, l)` of an `m x lanes` matrix — registers are rows,
//! lanes are columns, exactly the layout of §6.2.
//!
//! The model is deliberately restrictive, mirroring what SIMD hardware can
//! do cheaply:
//!
//! * [`Warp::shfl`] — every lane reads a value of the *same register* from
//!   another lane (the hardware shuffle; one instruction per register).
//! * [`Warp::rotate_lanes_dynamic`] — per-lane rotation of the register
//!   column by a lane-dependent amount. Register files cannot be indexed
//!   dynamically, so this runs as a barrel rotator: `ceil(log2 m)` steps,
//!   each conditionally rotating by `2^k` using selects. The select count
//!   (`m` per lane per step) is charged whether or not a lane rotates —
//!   that's the SIMD-divergence-free price the paper calls out.
//! * [`Warp::permute_registers_static`] — a compile-time-known register
//!   renaming; costs zero instructions (§6.2.3), charged as zero.
//!
//! [`OpCounts`] accumulates the instruction budget so benches can verify
//! the `ceil(log2 m)` select cost claimed by the paper.

use ipt_core::shape_len;

/// The warp width of the paper's target (Tesla K20c): 32 lanes.
pub const WARP_LANES: usize = 32;

/// Instruction counters for the SIMD cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Warp-wide shuffle instructions (one moves one register row).
    pub shuffles: u64,
    /// Conditional-select instructions (total across lanes).
    pub selects: u64,
    /// Barrel-rotation stages executed (`ceil(log2 m)` per rotation).
    pub rotate_stages: u64,
    /// Static register renamings (free on hardware; counted for audit).
    pub static_renames: u64,
    /// On-chip (shared-memory) accesses, used only by the §6.2.1 fallback
    /// for processors without a hardware shuffle: one store + one load
    /// per lane per emulated shuffle.
    pub shared_accesses: u64,
}

/// An `m`-register by `lanes`-lane SIMD register file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Warp<T> {
    regs: Vec<T>, // register-major: regs[r * lanes + l]
    m: usize,
    lanes: usize,
    counts: OpCounts,
}

impl<T: Copy> Warp<T> {
    /// A warp of `m` registers x `lanes` lanes, all holding `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`, `lanes == 0` or `m * lanes` overflows `usize`.
    pub fn new(m: usize, lanes: usize, fill: T) -> Warp<T> {
        assert!(m > 0 && lanes > 0, "degenerate warp {m} x {lanes}");
        Warp {
            regs: vec![fill; shape_len(m, lanes)],
            m,
            lanes,
            counts: OpCounts::default(),
        }
    }

    /// Build from an `m x lanes` row-major matrix (register-major buffer).
    ///
    /// # Panics
    ///
    /// Panics if `m * lanes` overflows `usize`, `data.len() != m * lanes`,
    /// or either dimension is zero.
    pub fn from_matrix(data: &[T], m: usize, lanes: usize) -> Warp<T> {
        assert_eq!(
            data.len(),
            shape_len(m, lanes),
            "matrix/warp shape mismatch"
        );
        assert!(m > 0 && lanes > 0, "degenerate warp {m} x {lanes}");
        Warp {
            regs: data.to_vec(),
            m,
            lanes,
            counts: OpCounts::default(),
        }
    }

    /// Number of registers per lane (`m`, matrix rows).
    pub fn registers(&self) -> usize {
        self.m
    }

    /// Number of lanes (`n`, matrix columns).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The register file as an `m x lanes` row-major matrix.
    pub fn as_matrix(&self) -> &[T] {
        &self.regs
    }

    /// Instruction counters accumulated so far.
    pub fn counts(&self) -> OpCounts {
        self.counts
    }

    /// Zero the instruction counters.
    pub fn reset_counts(&mut self) {
        self.counts = OpCounts::default();
    }

    /// Register `r` of lane `l`.
    #[inline]
    pub fn get(&self, r: usize, l: usize) -> T {
        assert!(r < self.m && l < self.lanes, "({r}, {l}) out of warp");
        self.regs[r * self.lanes + l]
    }

    /// Overwrite register `r` of lane `l`.
    #[inline]
    pub fn set(&mut self, r: usize, l: usize, v: T) {
        assert!(r < self.m && l < self.lanes, "({r}, {l}) out of warp");
        self.regs[r * self.lanes + l] = v;
    }

    /// Hardware shuffle on register `r`: lane `l` receives the value lane
    /// `src(l)` held. One warp instruction.
    ///
    /// # Panics
    ///
    /// Panics if `src` returns an out-of-range lane.
    pub fn shfl(&mut self, r: usize, src: impl Fn(usize) -> usize) {
        assert!(r < self.m, "register {r} out of warp");
        let row = &mut self.regs[r * self.lanes..(r + 1) * self.lanes];
        let old: Vec<T> = row.to_vec();
        for (l, slot) in row.iter_mut().enumerate() {
            let s = src(l);
            assert!(s < self.lanes, "shuffle source lane {s} out of range");
            *slot = old[s];
        }
        self.counts.shuffles += 1;
    }

    /// The §6.2.1 fallback for SIMD processors **without** a shuffle
    /// instruction: the same row permutation as [`Warp::shfl`], staged
    /// through "a very small amount of on-chip memory that can hold one
    /// register for each SIMD lane". Each lane stores its value to shared
    /// memory and loads its source lane's slot back, so the cost model
    /// charges `2 * lanes` shared accesses instead of one shuffle.
    pub fn shfl_via_shared(&mut self, r: usize, src: impl Fn(usize) -> usize) {
        assert!(r < self.m, "register {r} out of warp");
        let row = &mut self.regs[r * self.lanes..(r + 1) * self.lanes];
        // The emulated shared-memory staging buffer: one slot per lane.
        let shared: Vec<T> = row.to_vec();
        for (l, slot) in row.iter_mut().enumerate() {
            let s = src(l);
            assert!(s < self.lanes, "shuffle source lane {s} out of range");
            *slot = shared[s];
        }
        self.counts.shared_accesses += 2 * self.lanes as u64;
    }

    /// Dynamic per-lane column rotation (§6.2.2): lane `l`'s register
    /// column `x` becomes `x'[r] = x[(r + amount(l)) mod m]`, for every
    /// lane simultaneously, with **no dynamic register indexing**.
    ///
    /// Runs as a barrel rotator: for each bit `k` of the rotation amount,
    /// every lane conditionally rotates by `2^k` via selects; the
    /// predicate differs per lane but the register indices are static.
    /// Costs `ceil(log2 m)` stages of `m` selects per lane.
    #[allow(clippy::needless_range_loop)] // lockstep indexing across three arrays
    pub fn rotate_lanes_dynamic(&mut self, amount: impl Fn(usize) -> usize) {
        let (m, lanes) = (self.m, self.lanes);
        if m == 1 {
            return;
        }
        let amounts: Vec<usize> = (0..lanes).map(|l| amount(l) % m).collect();
        let stages = usize::BITS - (m - 1).leading_zeros(); // ceil(log2 m)
        let mut column = vec![self.regs[0]; m];
        let mut rotated = vec![self.regs[0]; m];
        for k in 0..stages {
            let step = 1usize << k;
            // One stage: every lane issues the same statically-indexed
            // select sequence; the predicate (bit k of its amount) picks
            // between the rotated-by-step and unrotated value.
            for l in 0..lanes {
                let take = amounts[l] >> k & 1 == 1;
                for r in 0..m {
                    column[r] = self.regs[r * lanes + l];
                }
                for r in 0..m {
                    let src = (r + step) % m;
                    rotated[r] = if take { column[src] } else { column[r] };
                }
                for r in 0..m {
                    self.regs[r * lanes + l] = rotated[r];
                }
            }
            self.counts.selects += (m * lanes) as u64;
            self.counts.rotate_stages += 1;
        }
    }

    /// Static row (register) permutation (§6.2.3): every lane's register
    /// `r` receives register `perm(r)` — the same `perm` for all lanes, so
    /// on hardware this is compile-time register renaming at zero cost.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `perm` is not a permutation of
    /// `[0, m)`.
    pub fn permute_registers_static(&mut self, perm: impl Fn(usize) -> usize) {
        let (m, lanes) = (self.m, self.lanes);
        let old = self.regs.clone();
        let mut seen = vec![false; m];
        for r in 0..m {
            let s = perm(r);
            debug_assert!(s < m && !seen[s], "perm is not a permutation");
            seen[s] = true;
            self.regs[r * lanes..(r + 1) * lanes].copy_from_slice(&old[s * lanes..(s + 1) * lanes]);
        }
        self.counts.static_renames += 1;
    }

    /// Lane `l`'s register column as a vector (test/debug helper).
    pub fn lane(&self, l: usize) -> Vec<T> {
        assert!(l < self.lanes, "lane {l} out of warp");
        (0..self.m).map(|r| self.get(r, l)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota_warp(m: usize, lanes: usize) -> Warp<u32> {
        let data: Vec<u32> = (0..(m * lanes) as u32).collect();
        Warp::from_matrix(&data, m, lanes)
    }

    #[test]
    fn construction_and_accessors() {
        let w = iota_warp(3, 4);
        assert_eq!(w.registers(), 3);
        assert_eq!(w.lanes(), 4);
        assert_eq!(w.get(1, 2), 6);
        assert_eq!(w.lane(2), [2, 6, 10]);
    }

    #[test]
    fn shfl_moves_one_register_row() {
        let mut w = iota_warp(2, 4);
        w.shfl(0, |l| (l + 1) % 4); // row 0: [0,1,2,3] -> [1,2,3,0]
        assert_eq!(&w.as_matrix()[..4], &[1, 2, 3, 0]);
        assert_eq!(&w.as_matrix()[4..], &[4, 5, 6, 7], "row 1 untouched");
        assert_eq!(w.counts().shuffles, 1);
    }

    #[test]
    fn dynamic_rotation_matches_reference_per_lane() {
        for m in [2usize, 3, 4, 5, 7, 8, 16] {
            let lanes = 6;
            let mut w = iota_warp(m, lanes);
            let orig = w.clone();
            w.rotate_lanes_dynamic(|l| l); // lane l rotates by l
            for l in 0..lanes {
                for r in 0..m {
                    assert_eq!(
                        w.get(r, l),
                        orig.get((r + l) % m, l),
                        "m={m} lane={l} reg={r}"
                    );
                }
            }
        }
    }

    #[test]
    fn rotation_cost_is_log2_stages() {
        for (m, want_stages) in [
            (2usize, 1u64),
            (3, 2),
            (4, 2),
            (5, 3),
            (8, 3),
            (9, 4),
            (32, 5),
        ] {
            let mut w = iota_warp(m, 4);
            w.rotate_lanes_dynamic(|_| 1);
            let c = w.counts();
            assert_eq!(c.rotate_stages, want_stages, "m={m}");
            assert_eq!(c.selects, want_stages * (m * 4) as u64, "m={m}");
        }
    }

    #[test]
    fn rotation_by_zero_everywhere_is_identity_but_still_costs() {
        let mut w = iota_warp(8, 4);
        let orig = w.clone();
        w.rotate_lanes_dynamic(|_| 0);
        assert_eq!(w.as_matrix(), orig.as_matrix());
        // SIMD pays the select cost regardless of predicate values.
        assert_eq!(w.counts().selects, 3 * 8 * 4);
    }

    #[test]
    fn static_permutation_renames_registers_for_free() {
        let mut w = iota_warp(4, 3);
        let orig = w.clone();
        w.permute_registers_static(|r| (r + 1) % 4);
        for r in 0..4 {
            for l in 0..3 {
                assert_eq!(w.get(r, l), orig.get((r + 1) % 4, l));
            }
        }
        let c = w.counts();
        assert_eq!(c.static_renames, 1);
        assert_eq!(c.shuffles + c.selects, 0, "renaming costs no instructions");
    }

    #[test]
    #[should_panic(expected = "out of warp")]
    fn out_of_range_register_panics() {
        iota_warp(2, 2).get(2, 0);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_lane_warp_rejected() {
        Warp::new(1, 0, 0u8);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn oversized_warp_rejected_instead_of_wrapping() {
        Warp::new(1 << (usize::BITS - 1), 2, 0u8);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn oversized_matrix_rejected_instead_of_wrapping() {
        Warp::<u8>::from_matrix(&[], 1 << (usize::BITS - 1), 2);
    }
}
