//! Classical cycle-following in-place transposition (Windley 1959; Knuth,
//! TAOCP vol. 3; the paper's "traditional approach", §1).
//!
//! A row-major `m x n` matrix transposes to row-major `n x m` by the
//! permutation on linear indices
//!
//! ```text
//! dst p  <-  src (p * n) mod (m*n - 1)      for 0 < p < m*n - 1
//! ```
//!
//! with `0` and `m*n - 1` fixed. Following a cycle moves each element once,
//! but knowing *which* cycles remain requires either
//!
//! * `O(mn)` bits of visited marks ([`transpose_cycle_following_marked`];
//!   `O(mn)` work, `O(mn)` auxiliary bits), or
//! * re-walking cycles to find leaders
//!   ([`transpose_cycle_following`]; `O(1)` extra space beyond one element,
//!   `O(mn log mn)` expected work — the asymptotics the paper quotes for
//!   space-restricted traditional algorithms, and our MKL
//!   `mkl_dimatcopy` stand-in for Figure 3 / Table 1).
//!
//! Cycle lengths in this permutation are badly distributed (one cycle can
//! cover almost the whole array), which is precisely why this family is
//! hard to parallelize and why the paper's decomposition matters.

use crate::bitset::BitSet;
use ipt_core::shape_len;

/// Gather source for destination `p`: `(p * n) mod (m*n - 1)`.
#[inline]
fn source(p: usize, n: usize, mn1: usize) -> usize {
    // p < mn - 1 and n < mn, so the product needs up to 2*log2(mn) bits;
    // use u128 to stay correct for buffers that exhaust usize.
    ((p as u128 * n as u128) % mn1 as u128) as usize
}

/// In-place transpose by cycle following with **minimal** auxiliary space.
///
/// For every position `1 <= p < mn-1`, walks its cycle to test whether `p`
/// is the cycle minimum ("leader"), and only then rotates the cycle's data.
/// One element of temporary storage; `O(mn log mn)` expected work.
///
/// ```
/// use ipt_baselines::transpose_cycle_following;
///
/// let mut a = vec![1, 2, 3, 4, 5, 6];
/// transpose_cycle_following(&mut a, 2, 3);
/// assert_eq!(a, [1, 4, 2, 5, 3, 6]);
/// ```
pub fn transpose_cycle_following<T: Copy>(data: &mut [T], m: usize, n: usize) {
    assert_eq!(data.len(), shape_len(m, n), "buffer length must be m * n");
    if m <= 1 || n <= 1 {
        return;
    }
    let mn1 = m * n - 1;
    for start in 1..mn1 {
        // Leader test: walk until we return to start or see a smaller
        // index (then a smaller element owns this cycle).
        let mut s = source(start, n, mn1);
        while s > start {
            s = source(s, n, mn1);
        }
        if s < start {
            continue;
        }
        // start is the leader: rotate the cycle's data. dst p gets src
        // sigma(p), so walk p -> sigma(p), shifting values backwards.
        let saved = data[start];
        let mut p = start;
        loop {
            let src = source(p, n, mn1);
            if src == start {
                data[p] = saved;
                break;
            }
            data[p] = data[src];
            p = src;
        }
    }
}

/// In-place transpose by cycle following with one visited **bit per
/// element**: `O(mn)` work, `O(mn)` auxiliary bits.
///
/// Returns the auxiliary bytes consumed, so harnesses can report the
/// space/throughput trade-off against the decomposed algorithm's
/// `O(max(m, n))` elements.
pub fn transpose_cycle_following_marked<T: Copy>(data: &mut [T], m: usize, n: usize) -> usize {
    assert_eq!(data.len(), shape_len(m, n), "buffer length must be m * n");
    if m <= 1 || n <= 1 {
        return 0;
    }
    let mn1 = m * n - 1;
    let mut visited = BitSet::new(mn1);
    for start in 1..mn1 {
        if visited.get(start) {
            continue;
        }
        let saved = data[start];
        let mut p = start;
        loop {
            visited.set(p);
            let src = source(p, n, mn1);
            if src == start {
                data[p] = saved;
                break;
            }
            data[p] = data[src];
            p = src;
        }
    }
    visited.size_bytes()
}

/// Statistics about the transposition permutation's cycle structure,
/// used by the docs and by the Figure 3 commentary in EXPERIMENTS.md to
/// illustrate why cycle following parallelizes poorly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleStats {
    /// Number of non-trivial cycles.
    pub cycles: usize,
    /// Length of the longest cycle.
    pub longest: usize,
    /// Total elements moved (sum of non-trivial cycle lengths).
    pub moved: usize,
}

/// Compute the cycle structure of the `m x n` transposition permutation.
pub fn cycle_stats(m: usize, n: usize) -> CycleStats {
    if m * n < 2 {
        return CycleStats {
            cycles: 0,
            longest: 0,
            moved: 0,
        };
    }
    let mn1 = m * n - 1;
    let mut visited = BitSet::new(mn1);
    let mut stats = CycleStats {
        cycles: 0,
        longest: 0,
        moved: 0,
    };
    for start in 1..mn1 {
        if visited.get(start) {
            continue;
        }
        let mut len = 0usize;
        let mut p = start;
        loop {
            visited.set(p);
            len += 1;
            p = source(p, n, mn1);
            if p == start {
                break;
            }
        }
        if len > 1 {
            stats.cycles += 1;
            stats.longest = stats.longest.max(len);
            stats.moved += len;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipt_core::check::{fill_pattern, is_transposed_pattern, reference_transpose};
    use ipt_core::Layout;

    fn sizes() -> Vec<(usize, usize)> {
        let mut v = vec![
            (1usize, 1usize),
            (1, 9),
            (9, 1),
            (2, 2),
            (2, 3),
            (3, 2),
            (3, 8),
            (4, 8),
            (7, 7),
            (16, 24),
            (17, 19),
            (31, 64),
            (64, 31),
        ];
        for m in 2..=8 {
            for n in 2..=8 {
                v.push((m, n));
            }
        }
        v
    }

    #[test]
    fn minimal_variant_transposes() {
        for (m, n) in sizes() {
            let mut a = vec![0u64; m * n];
            fill_pattern(&mut a);
            transpose_cycle_following(&mut a, m, n);
            assert!(is_transposed_pattern(&a, m, n, Layout::RowMajor), "{m}x{n}");
        }
    }

    #[test]
    fn marked_variant_transposes() {
        for (m, n) in sizes() {
            let mut a = vec![0u32; m * n];
            fill_pattern(&mut a);
            let aux = transpose_cycle_following_marked(&mut a, m, n);
            assert!(is_transposed_pattern(&a, m, n, Layout::RowMajor), "{m}x{n}");
            if m > 1 && n > 1 {
                assert!(aux >= (m * n - 1).div_ceil(64) * 8 / 8, "aux accounted");
            }
        }
    }

    #[test]
    fn variants_agree_with_core() {
        let (m, n) = (24usize, 40usize);
        let mut a = vec![0u64; m * n];
        fill_pattern(&mut a);
        let want = reference_transpose(&a, m, n, Layout::RowMajor);
        let mut b = a.clone();
        transpose_cycle_following(&mut a, m, n);
        transpose_cycle_following_marked(&mut b, m, n);
        assert_eq!(a, want);
        assert_eq!(b, want);
    }

    #[test]
    fn permutation_fixes_endpoints() {
        let (m, n) = (5usize, 7usize);
        let mn1 = m * n - 1;
        assert_eq!(source(0, n, mn1), 0);
        // Last element p = mn-1 is outside the modulus domain and never
        // moves; verify via a full transpose.
        let mut a = vec![0u16; m * n];
        fill_pattern(&mut a);
        transpose_cycle_following(&mut a, m, n);
        assert_eq!(a[m * n - 1], (m * n - 1) as u16);
        assert_eq!(a[0], 0);
    }

    #[test]
    fn stats_account_for_all_moved_elements() {
        for (m, n) in [(4usize, 8usize), (5, 7), (16, 16), (9, 33)] {
            let stats = cycle_stats(m, n);
            let mut a = vec![0u32; m * n];
            fill_pattern(&mut a);
            let before = a.clone();
            transpose_cycle_following(&mut a, m, n);
            let actually_moved = a.iter().zip(&before).filter(|(x, y)| x != y).count();
            // Elements on non-trivial cycles may still land on their own
            // value only if the pattern repeats; with an injective pattern
            // moved counts match exactly.
            assert_eq!(stats.moved, actually_moved, "{m}x{n}");
            assert!(stats.longest <= m * n);
        }
    }

    #[test]
    fn square_matrices_have_short_cycles() {
        // For square matrices the transposition is an involution: all
        // cycles have length 2.
        let stats = cycle_stats(16, 16);
        assert_eq!(stats.longest, 2);
        assert_eq!(stats.moved, 16 * 16 - 16); // off-diagonal elements
    }
}
