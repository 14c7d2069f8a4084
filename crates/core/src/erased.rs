//! Type-erased transposition: elements are opaque byte chunks.
//!
//! File-format tools and FFI boundaries often know an element's *size*
//! but not its type. This module runs the decomposition directly on a
//! byte buffer whose logical elements are `elem_size`-byte chunks, using
//! the swap-only formulation of [`crate::noncopy`] — no `T`, no
//! transmutes, no alignment requirements, `O(max(m, n))` bytes of cycle
//! marks as auxiliary space.
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

use crate::index::C2rParams;
use crate::layout::Layout;
use crate::shape_len;

/// Swap two `elem`-byte chunks at element indices `a` and `b`.
#[inline]
fn swap_elems(data: &mut [u8], a: usize, b: usize, elem: usize) {
    if a == b {
        return;
    }
    let (a0, b0) = (a * elem, b * elem);
    for k in 0..elem {
        data.swap(a0 + k, b0 + k);
    }
}

/// Reverse elements `[lo, hi)` of the strided element sequence
/// `start + k*stride` (indices in elements).
fn reverse_strided(
    data: &mut [u8],
    start: usize,
    stride: usize,
    lo: usize,
    hi: usize,
    elem: usize,
) {
    let (mut a, mut b) = (lo, hi);
    while a + 1 < b {
        b -= 1;
        swap_elems(data, start + a * stride, start + b * stride, elem);
        a += 1;
    }
}

/// Rotate the strided element sequence left by `r` (three-reversal).
fn rotate_strided_left(
    data: &mut [u8],
    start: usize,
    stride: usize,
    len: usize,
    r: usize,
    elem: usize,
) {
    if len == 0 {
        return;
    }
    let r = r % len;
    if r == 0 {
        return;
    }
    reverse_strided(data, start, stride, 0, r, elem);
    reverse_strided(data, start, stride, r, len, elem);
    reverse_strided(data, start, stride, 0, len, elem);
}

/// Apply the gather permutation `new[k] = old[perm(k)]` over the strided
/// element sequence by swaps along cycles (see `noncopy` for the cycle
/// argument; `visited` covers `[0, len)` and is left all-false).
fn apply_gather_swaps(
    data: &mut [u8],
    start: usize,
    stride: usize,
    len: usize,
    perm: impl Fn(usize) -> usize,
    visited: &mut [bool],
    elem: usize,
) {
    debug_assert!(visited.len() >= len);
    for leader in 0..len {
        if visited[leader] {
            visited[leader] = false;
            continue;
        }
        let mut i = leader;
        loop {
            let src = perm(i);
            debug_assert!(src < len);
            if src == leader {
                break;
            }
            swap_elems(data, start + i * stride, start + src * stride, elem);
            visited[src] = true;
            i = src;
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
    assert!(elem_size > 0, "element size must be positive");
    assert_eq!(
        data.len(),
        shape_len(shape_len(m, n), elem_size),
        "buffer length must be m * n * elem_size"
    );
    if m <= 1 || n <= 1 {
        return;
    }
    let p = C2rParams::new(m, n);
    let mut visited = vec![false; m.max(n)];
    if !p.coprime() {
        for j in 0..n {
            rotate_strided_left(data, j, n, m, p.rotate_amount(j) % m, elem_size);
        }
    }
    for i in 0..m {
        apply_gather_swaps(
            data,
            i * n,
            1,
            n,
            |j| p.d_inv(i, j),
            &mut visited,
            elem_size,
        );
    }
    for j in 0..n {
        apply_gather_swaps(data, j, n, m, |i| p.s(j, i), &mut visited, elem_size);
    }
}

/// Type-erased R2C: the inverse of [`c2r_erased`]`(data, m, n, elem_size)`.
pub fn r2c_erased(data: &mut [u8], m: usize, n: usize, elem_size: usize) {
    assert!(elem_size > 0, "element size must be positive");
    assert_eq!(
        data.len(),
        shape_len(shape_len(m, n), elem_size),
        "buffer length must be m * n * elem_size"
    );
    if m <= 1 || n <= 1 {
        return;
    }
    let p = C2rParams::new(m, n);
    let mut visited = vec![false; m.max(n)];
    // Inverse column shuffle: gather with (s'_j)^-1 = q^-1 ∘ p^-1_j.
    for j in 0..n {
        apply_gather_swaps(
            data,
            j,
            n,
            m,
            |i| p.q_inv(p.p_inv(j, i)),
            &mut visited,
            elem_size,
        );
    }
    // Inverse row shuffle: gather with d'_i directly (§4.3).
    for i in 0..m {
        apply_gather_swaps(data, i * n, 1, n, |j| p.d(i, j), &mut visited, elem_size);
    }
    if !p.coprime() {
        for j in 0..n {
            let k = p.rotate_amount(j) % m;
            rotate_strided_left(data, j, n, m, (m - k) % m, elem_size);
        }
    }
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
    assert!(elem_size > 0, "element size must be positive");
    assert_eq!(
        data.len(),
        shape_len(shape_len(rows, cols), elem_size),
        "buffer length {} does not match {rows} x {cols} x {elem_size}",
        data.len()
    );
    let (m, n) = match layout {
        Layout::RowMajor => (rows, cols),
        Layout::ColMajor => (cols, rows),
    };
    if m > n {
        c2r_erased(data, m, n, elem_size);
    } else {
        r2c_erased(data, n, m, elem_size);
    }
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
            // and b = 1 -> Block8 (see `ipt_core::kernels::select_auto`).
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
