//! Test-pattern fill and transposition verification helpers.
//!
//! The correctness suites (unit, property and integration tests, plus the
//! benchmark harnesses' `--verify` mode) all need the same two operations:
//! fill a buffer with a position-identifying pattern, and check that a
//! buffer holds the transpose of that pattern. Centralizing them here keeps
//! every crate's tests honest about what "transposed" means.

use crate::layout::Layout;
use crate::shape_len;

/// Element types that can encode a linear index, for test patterns.
///
/// `from_index` must be injective over the index range a test uses
/// (wrapping types like `u8` are only injective for small matrices; the
/// suites size accordingly).
pub trait PatternElem: Copy + PartialEq + core::fmt::Debug {
    /// Encode linear index `i`.
    fn from_index(i: usize) -> Self;
}

macro_rules! impl_pattern_int {
    ($($t:ty),*) => {$(
        impl PatternElem for $t {
            #[inline]
            fn from_index(i: usize) -> Self {
                i as $t
            }
        }
    )*};
}

impl_pattern_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl PatternElem for f32 {
    #[inline]
    fn from_index(i: usize) -> Self {
        i as f32
    }
}

impl PatternElem for f64 {
    #[inline]
    fn from_index(i: usize) -> Self {
        i as f64
    }
}

impl PatternElem for (usize, usize) {
    #[inline]
    fn from_index(i: usize) -> Self {
        (i, !i)
    }
}

/// Fill `data[l] = from_index(l)`.
pub fn fill_pattern<T: PatternElem>(data: &mut [T]) {
    for (l, slot) in data.iter_mut().enumerate() {
        *slot = T::from_index(l);
    }
}

/// Out-of-place reference transpose: the ground truth every in-place
/// algorithm is checked against.
///
/// Input: `rows x cols` in `layout`; output: `cols x rows` in the same
/// layout.
pub fn reference_transpose<T: Copy>(
    data: &[T],
    rows: usize,
    cols: usize,
    layout: Layout,
) -> Vec<T> {
    assert_eq!(data.len(), shape_len(rows, cols));
    let mut out = data.to_vec();
    for i in 0..rows {
        for j in 0..cols {
            let src = layout.linearize(i, j, rows, cols);
            let dst = layout.linearize(j, i, cols, rows);
            out[dst] = data[src];
        }
    }
    out
}

/// Check that `data` (now `cols x rows` in `layout`) holds the transpose of
/// the [`fill_pattern`] of a `rows x cols` matrix in `layout`.
pub fn is_transposed_pattern<T: PatternElem>(
    data: &[T],
    rows: usize,
    cols: usize,
    layout: Layout,
) -> bool {
    if data.len() != rows * cols {
        return false;
    }
    for i in 0..cols {
        for j in 0..rows {
            // Output element (i, j) must equal input element (j, i),
            // whose pattern value is its linear offset in the input.
            let got = data[layout.linearize(i, j, cols, rows)];
            let want = T::from_index(layout.linearize(j, i, rows, cols));
            if got != want {
                return false;
            }
        }
    }
    true
}

/// First position (if any) at which two buffers differ — nicer test
/// diagnostics than a bare `assert_eq!` on megabyte-sized vectors.
pub fn first_mismatch<T: PartialEq>(a: &[T], b: &[T]) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    a.iter().zip(b).position(|(x, y)| x != y)
}

/// A small deterministic PRNG (SplitMix64) for randomized test suites.
///
/// The workspace's property tests draw shapes, seeds and payloads from
/// this generator instead of an external randomness crate: every run of
/// every suite sees exactly the same sequence for a given seed, so a
/// failing case is reproducible from the assertion message alone — quote
/// the seed in the panic text and the case is pinned forever.
///
/// SplitMix64 passes BigCrush, needs only a 64-bit state, and recovers
/// from any seed (including 0) in one step — more than enough statistical
/// quality for choosing test matrix shapes.
///
/// ```
/// use ipt_core::check::Rng;
///
/// let mut rng = Rng::new(42);
/// let a = rng.next_u64();
/// assert_ne!(a, rng.next_u64());
/// assert!(rng.range(3..10) >= 3);
/// assert_eq!(Rng::new(42).next_u64(), a); // same seed, same sequence
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator whose sequence is fully determined by `seed`.
    pub const fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `range` (half-open; must be non-empty).
    ///
    /// The tiny modulo bias (< 2^-32 for the ranges tests use) is
    /// irrelevant for shape selection.
    pub fn range(&mut self, range: core::ops::Range<usize>) -> usize {
        assert!(range.start < range.end, "empty range");
        let span = (range.end - range.start) as u64;
        range.start + (self.next_u64() % span) as usize
    }

    /// Uniform `bool` with probability `num / den` of `true`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }

    /// Fill `data` with raw pseudo-random draws (wrapped into `T` through
    /// [`PatternElem::from_index`], so injectivity is *not* guaranteed —
    /// use [`fill_pattern`] when the checker needs to identify positions).
    pub fn fill<T: PatternElem>(&mut self, data: &mut [T]) {
        for slot in data.iter_mut() {
            *slot = T::from_index(self.next_u64() as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_transpose_small_row_major() {
        // [[1, 2, 3], [4, 5, 6]]^T = [[1, 4], [2, 5], [3, 6]]
        let a = [1, 2, 3, 4, 5, 6];
        let t = reference_transpose(&a, 2, 3, Layout::RowMajor);
        assert_eq!(t, [1, 4, 2, 5, 3, 6]);
    }

    #[test]
    fn reference_transpose_small_col_major() {
        // Column-major [[1, 3, 5], [2, 4, 6]] (buffer 1..=6); transpose's
        // column-major buffer is the row-major reading of the original.
        let a = [1, 2, 3, 4, 5, 6];
        let t = reference_transpose(&a, 2, 3, Layout::ColMajor);
        assert_eq!(t, [1, 3, 5, 2, 4, 6]);
    }

    #[test]
    fn reference_transpose_involution() {
        let mut a = vec![0u32; 5 * 7];
        fill_pattern(&mut a);
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            let t = reference_transpose(&a, 5, 7, layout);
            let tt = reference_transpose(&t, 7, 5, layout);
            assert_eq!(tt, a);
        }
    }

    #[test]
    fn pattern_checker_accepts_reference() {
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            for (r, c) in [(3usize, 8usize), (8, 3), (4, 4), (1, 5)] {
                let mut a = vec![0u64; r * c];
                fill_pattern(&mut a);
                let t = reference_transpose(&a, r, c, layout);
                assert!(
                    is_transposed_pattern(&t, r, c, layout),
                    "{r}x{c} {layout:?}"
                );
                if r > 1 && c > 1 {
                    assert!(
                        !is_transposed_pattern(&a, r, c, layout),
                        "untransposed must fail {r}x{c} {layout:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pattern_checker_rejects_single_swap() {
        let mut a = vec![0u32; 6 * 9];
        fill_pattern(&mut a);
        let mut t = reference_transpose(&a, 6, 9, Layout::RowMajor);
        t.swap(5, 40);
        assert!(!is_transposed_pattern(&t, 6, 9, Layout::RowMajor));
    }

    #[test]
    fn first_mismatch_reports_position() {
        assert_eq!(first_mismatch(&[1, 2, 3], &[1, 2, 3]), None);
        assert_eq!(first_mismatch(&[1, 2, 3], &[1, 9, 3]), Some(1));
        assert_eq!(first_mismatch(&[1, 2], &[1, 2, 3]), Some(2));
    }

    #[test]
    fn tuple_pattern_is_injective() {
        let a = <(usize, usize)>::from_index(3);
        let b = <(usize, usize)>::from_index(4);
        assert_ne!(a, b);
    }

    #[test]
    fn rng_is_deterministic_and_spreads() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let draws: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        assert!(draws.iter().all(|&d| d == b.next_u64()));
        // Not all equal, and range() respects bounds.
        assert!(draws.windows(2).any(|w| w[0] != w[1]));
        let mut r = Rng::new(0); // zero seed must still work
        for _ in 0..1000 {
            let v = r.range(5..12);
            assert!((5..12).contains(&v));
        }
    }

    #[test]
    fn rng_range_hits_every_value() {
        let mut r = Rng::new(123);
        let mut seen = [false; 7];
        for _ in 0..200 {
            seen[r.range(0..7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
