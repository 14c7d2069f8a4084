//! General cycle-following machinery (paper §4.7).
//!
//! The row permutation `q` has no analytic cycle structure, so the paper's
//! cache-aware row permute computes its cycles dynamically. The number of
//! cycles of length greater than one is bounded by `m / 2`, so the leaders
//! and lengths fit in the `O(m)` scratch budget. Because all rows are
//! permuted identically, one cycle set drives the movement of every column
//! group.
//!
//! This module also powers the classic cycle-following transposition
//! baseline in `ipt-baselines`.

/// The cycle decomposition of a permutation on `[0, len)`.
///
/// Only cycles of length `>= 2` are stored (fixed points move nothing).
///
/// ```
/// use ipt_core::cycles::{apply_gather_in_place, CycleSet};
///
/// // The rotation i -> (i + 2) mod 6 splits into gcd(6, 2) = 2 cycles.
/// let perm = |i: usize| (i + 2) % 6;
/// let cycles = CycleSet::build(6, perm);
/// assert_eq!(cycles.cycle_count(), 2);
///
/// let mut v = [10, 11, 12, 13, 14, 15];
/// apply_gather_in_place(&mut v, perm, &cycles);
/// assert_eq!(v, [12, 13, 14, 15, 10, 11]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleSet {
    /// One representative (leader) per non-trivial cycle.
    pub leaders: Vec<usize>,
    /// Length of the cycle rooted at the matching leader.
    pub lengths: Vec<usize>,
    len: usize,
}

impl CycleSet {
    /// Decompose the permutation `perm` (given as a gather function:
    /// position `i` receives the value at `perm(i)`) on domain `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `perm` is not a permutation.
    pub fn build(len: usize, perm: impl Fn(usize) -> usize) -> CycleSet {
        let mut visited = vec![false; len];
        let mut leaders = Vec::new();
        let mut lengths = Vec::new();
        for start in 0..len {
            if visited[start] {
                continue;
            }
            visited[start] = true;
            let mut i = perm(start);
            debug_assert!(i < len, "perm({start}) = {i} out of range");
            let mut clen = 1usize;
            while i != start {
                debug_assert!(!visited[i], "perm is not a permutation");
                visited[i] = true;
                i = perm(i);
                clen += 1;
            }
            if clen > 1 {
                leaders.push(start);
                lengths.push(clen);
            }
        }
        CycleSet {
            leaders,
            lengths,
            len,
        }
    }

    /// Number of non-trivial cycles.
    pub fn cycle_count(&self) -> usize {
        self.leaders.len()
    }

    /// Domain size the permutation was decomposed over.
    pub fn domain(&self) -> usize {
        self.len
    }

    /// Total number of elements that move (sum of non-trivial cycle lengths).
    pub fn moved(&self) -> usize {
        self.lengths.iter().sum()
    }
}

/// Apply the gather permutation `dst[i] = src[perm(i)]` in place on `v`,
/// following precomputed cycles with one element of temporary storage.
pub fn apply_gather_in_place<T: Copy>(
    v: &mut [T],
    perm: impl Fn(usize) -> usize,
    cycles: &CycleSet,
) {
    debug_assert_eq!(v.len(), cycles.domain());
    for &leader in &cycles.leaders {
        let saved = v[leader];
        let mut i = leader;
        loop {
            let src = perm(i);
            if src == leader {
                v[i] = saved;
                break;
            }
            v[i] = v[src];
            i = src;
        }
    }
}

/// Apply a gather permutation to *rows* of a row-major `len x width` matrix
/// in place: row `i` receives old row `perm(i)`. One row of scratch.
///
/// This is the whole-row form used by the column-shuffle decomposition
/// (`q`/`q_inv` act identically on every column, §4.2).
pub fn apply_gather_rows_in_place<T: Copy>(
    data: &mut [T],
    width: usize,
    perm: impl Fn(usize) -> usize,
    cycles: &CycleSet,
    row_buf: &mut [T],
) {
    let len = cycles.domain();
    debug_assert_eq!(data.len(), len * width);
    debug_assert!(row_buf.len() >= width);
    let row_buf = &mut row_buf[..width];
    for &leader in &cycles.leaders {
        row_buf.copy_from_slice(&data[leader * width..(leader + 1) * width]);
        let mut i = leader;
        loop {
            let src = perm(i);
            if src == leader {
                data[i * width..(i + 1) * width].copy_from_slice(row_buf);
                break;
            }
            data.copy_within(src * width..(src + 1) * width, i * width);
            i = src;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_gather<T: Copy>(v: &[T], perm: impl Fn(usize) -> usize) -> Vec<T> {
        (0..v.len()).map(|i| v[perm(i)]).collect()
    }

    #[test]
    fn identity_has_no_cycles() {
        let cs = CycleSet::build(10, |i| i);
        assert_eq!(cs.cycle_count(), 0);
        assert_eq!(cs.moved(), 0);
    }

    #[test]
    fn single_swap() {
        let perm = |i: usize| match i {
            2 => 7,
            7 => 2,
            other => other,
        };
        let cs = CycleSet::build(10, perm);
        assert_eq!(cs.cycle_count(), 1);
        assert_eq!(cs.lengths, [2]);
        let mut v: Vec<u32> = (0..10).collect();
        apply_gather_in_place(&mut v, perm, &cs);
        assert_eq!(v, reference_gather(&(0..10).collect::<Vec<_>>(), perm));
    }

    #[test]
    fn full_cycle_rotation() {
        let n = 9;
        let perm = move |i: usize| (i + 4) % n;
        let cs = CycleSet::build(n, perm);
        assert_eq!(cs.cycle_count(), 1, "gcd(9, 4) = 1: a single cycle");
        assert_eq!(cs.lengths, [9]);
        let mut v: Vec<u32> = (0..n as u32).collect();
        apply_gather_in_place(&mut v, perm, &cs);
        let want: Vec<u32> = (0..n).map(|i| ((i + 4) % n) as u32).collect();
        assert_eq!(v, want);
    }

    #[test]
    fn nontrivial_cycle_bound() {
        // At most m/2 cycles of length >= 2 (paper §4.7).
        for n in 1..=64usize {
            for shift in 0..n {
                let cs = CycleSet::build(n, move |i| (i + shift) % n);
                assert!(cs.cycle_count() <= n / 2, "n={n} shift={shift}");
            }
        }
    }

    #[test]
    fn randomized_permutations_round_trip() {
        // Deterministic pseudo-random permutations via multiplicative map:
        // i -> (i * g) mod p for prime p is a permutation.
        for (p, g) in [(11usize, 7usize), (13, 6), (31, 3), (97, 5)] {
            let perm = move |i: usize| (i * g) % p;
            let cs = CycleSet::build(p, perm);
            let orig: Vec<u64> = (0..p as u64).collect();
            let mut v = orig.clone();
            apply_gather_in_place(&mut v, perm, &cs);
            assert_eq!(v, reference_gather(&orig, perm));
        }
    }

    #[test]
    fn row_gather_matches_elementwise() {
        let (rows, width) = (12usize, 5usize);
        let perm = move |i: usize| (i * 5) % rows; // gcd(5, 12) = 1
        let cs = CycleSet::build(rows, perm);
        let orig: Vec<u32> = (0..(rows * width) as u32).collect();
        let mut v = orig.clone();
        let mut buf = vec![0u32; width];
        apply_gather_rows_in_place(&mut v, width, perm, &cs, &mut buf);
        for i in 0..rows {
            for j in 0..width {
                assert_eq!(v[i * width + j], orig[perm(i) * width + j]);
            }
        }
    }

    #[test]
    fn moved_counts_non_fixed_points() {
        let perm = |i: usize| match i {
            0 => 1,
            1 => 2,
            2 => 0,
            other => other,
        };
        let cs = CycleSet::build(6, perm);
        assert_eq!(cs.moved(), 3);
        assert_eq!(cs.cycle_count(), 1);
    }
}
