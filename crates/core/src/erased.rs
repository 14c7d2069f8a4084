//! Type-erased transposition: elements are opaque byte chunks.
//!
//! File-format tools and FFI boundaries often know an element's *size*
//! but not its type. This module runs the decomposition directly on a
//! byte buffer whose logical elements are `elem_size`-byte chunks: it runs
//! [`crate::noncopy`]'s swap-only decomposition, whose every move swaps
//! two elements, with a swap of two chunks — no `T`, no transmutes, no
//! alignment requirements, `O(max(m, n))` bytes of cycle marks as
//! auxiliary space.
//!
//! ```
//! use ipt_core::erased::transpose_erased;
//! use ipt_core::Layout;
//!
//! // Three RGB pixels (3-byte elements) as a 1 x 3 image... transpose a
//! // 2 x 2 block of u24s:
//! let mut px = vec![
//!     1, 1, 1,  2, 2, 2,
//!     3, 3, 3,  4, 4, 4,
//! ];
//! transpose_erased(&mut px, 2, 2, 3, Layout::RowMajor);
//! assert_eq!(px, [1, 1, 1, 3, 3, 3, 2, 2, 2, 4, 4, 4]);
//! ```

use crate::layout::Layout;
use crate::noncopy::{run_swaps, SwapElems};
use crate::{Algorithm, Plan};

/// A byte buffer viewed as elements of `elem` bytes each.
struct Chunks<'a> {
    data: &'a mut [u8],
    elem: usize,
}

impl SwapElems for Chunks<'_> {
    /// Swap the `elem`-byte chunks at element indices `a` and `b`.
    #[inline]
    fn swap_elems(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (a0, b0) = (a * self.elem, b * self.elem);
        for k in 0..self.elem {
            self.data.swap(a0 + k, b0 + k);
        }
    }
}

/// Type-erased C2R: same contract as [`crate::c2r()`] on a buffer of
/// `m * n` elements of `elem_size` bytes each.
///
/// # Panics
///
/// Panics if `elem_size == 0` or `data.len() != m * n * elem_size`.
pub fn c2r_erased(data: &mut [u8], m: usize, n: usize, elem_size: usize) {
    run_erased(data, elem_size, (m, n), Layout::RowMajor, Algorithm::C2r);
}

/// Type-erased R2C: the inverse of [`c2r_erased`]`(data, m, n, elem_size)`.
pub fn r2c_erased(data: &mut [u8], m: usize, n: usize, elem_size: usize) {
    run_erased(data, elem_size, (n, m), Layout::RowMajor, Algorithm::R2c);
}

/// Type-erased in-place transpose with the §5.2 heuristic: `rows x cols`
/// elements of `elem_size` bytes, in `layout`.
pub fn transpose_erased(
    data: &mut [u8],
    rows: usize,
    cols: usize,
    elem_size: usize,
    layout: Layout,
) {
    run_erased(data, elem_size, (rows, cols), layout, Algorithm::Auto);
}

/// Resolve the call on `data`'s `elem_size`-byte elements and run its
/// swap-only steps with a swap of two chunks.
#[track_caller]
fn run_erased(
    data: &mut [u8],
    elem_size: usize,
    (rows, cols): (usize, usize),
    layout: Layout,
    algorithm: Algorithm,
) {
    assert!(
        elem_size > 0 && data.len() % elem_size == 0,
        "element size {elem_size} must be positive and divide the buffer length {}",
        data.len()
    );
    let plan = Plan::new(data.len() / elem_size, rows, cols, layout, algorithm);
    run_swaps(
        &mut Chunks {
            data,
            elem: elem_size,
        },
        &plan,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scratch;

    fn sizes() -> Vec<(usize, usize)> {
        let mut v = Vec::new();
        for m in 1..=8 {
            for n in 1..=8 {
                v.push((m, n));
            }
        }
        v.extend_from_slice(&[
            (3, 8),
            (8, 3),
            (4, 8),
            (12, 20),
            (17, 5),
            // Kernel-dispatch regimes of the typed Copy path this module
            // is checked against: c = 32 -> Block4, c = 64 with b = 2
            // and b = 1 -> Block8 (see `ipt_core::kernels::select`).
            (96, 64),
            (192, 128),
            (128, 64),
            (64, 128),
        ]);
        v
    }

    #[test]
    fn erased_u32_matches_typed_c2r() {
        let mut s = Scratch::new();
        for (m, n) in sizes() {
            let typed: Vec<u32> = (0..(m * n) as u32)
                .map(|x| x.wrapping_mul(2654435761))
                .collect();
            let mut bytes: Vec<u8> = typed.iter().flat_map(|v| v.to_le_bytes()).collect();
            c2r_erased(&mut bytes, m, n, 4);
            let mut want = typed;
            crate::c2r(&mut want, m, n, &mut s);
            let want_bytes: Vec<u8> = want.iter().flat_map(|v| v.to_le_bytes()).collect();
            assert_eq!(bytes, want_bytes, "{m}x{n}");
        }
    }

    #[test]
    fn erased_u32_matches_typed_r2c() {
        // Pins the Forward kernel direction too: on the blocked-regime
        // shapes in `sizes()`, `crate::r2c` dispatches block4/block8.
        let mut s = Scratch::new();
        for (m, n) in sizes() {
            let typed: Vec<u32> = (0..(m * n) as u32)
                .map(|x| x.wrapping_mul(2654435761))
                .collect();
            let mut bytes: Vec<u8> = typed.iter().flat_map(|v| v.to_le_bytes()).collect();
            r2c_erased(&mut bytes, m, n, 4);
            let mut want = typed;
            crate::r2c(&mut want, m, n, &mut s);
            let want_bytes: Vec<u8> = want.iter().flat_map(|v| v.to_le_bytes()).collect();
            assert_eq!(bytes, want_bytes, "{m}x{n}");
        }
    }

    #[test]
    fn erased_r2c_inverts_erased_c2r() {
        for (m, n) in sizes() {
            for elem in [1usize, 2, 3, 5, 8, 24] {
                let orig: Vec<u8> = (0..m * n * elem).map(|x| x as u8).collect();
                let mut a = orig.clone();
                c2r_erased(&mut a, m, n, elem);
                r2c_erased(&mut a, m, n, elem);
                assert_eq!(a, orig, "{m}x{n} elem={elem}");
            }
        }
    }

    #[test]
    fn odd_element_sizes_transpose_correctly() {
        // 3-byte elements (like RGB24): verify against a per-element
        // reference.
        let (m, n, e) = (5usize, 7usize, 3usize);
        let orig: Vec<u8> = (0..m * n * e).map(|x| (x * 7 % 251) as u8).collect();
        let mut a = orig.clone();
        transpose_erased(&mut a, m, n, e, Layout::RowMajor);
        for i in 0..n {
            for j in 0..m {
                let dst = (i * m + j) * e;
                let src = (j * n + i) * e;
                assert_eq!(&a[dst..dst + e], &orig[src..src + e], "({i},{j})");
            }
        }
    }

    #[test]
    fn col_major_heuristic_path() {
        let (m, n, e) = (4usize, 9usize, 2usize);
        let orig: Vec<u8> = (0..m * n * e).map(|x| x as u8).collect();
        let mut a = orig.clone();
        transpose_erased(&mut a, m, n, e, Layout::ColMajor);
        // col-major rows x cols buffer == row-major cols x rows buffer.
        for i in 0..m {
            for j in 0..n {
                let src = (j * m + i) * e; // (i, j) in col-major m x n
                let dst = (i * n + j) * e; // (j, i) in col-major n x m
                assert_eq!(&a[dst..dst + e], &orig[src..src + e]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "element size")]
    fn zero_elem_size_panics() {
        transpose_erased(&mut [], 0, 0, 0, Layout::RowMajor);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn wrong_buffer_length_panics() {
        let mut a = vec![0u8; 10];
        transpose_erased(&mut a, 2, 3, 2, Layout::RowMajor);
    }
}
