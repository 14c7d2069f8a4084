//! # ipt-aos-soa — in-place Array-of-Structures ⇄ Structure-of-Arrays
//!
//! An Array of Structures of `N` structures with `s` fields is, in memory,
//! an `N x s` row-major matrix; the Structure-of-Arrays layout is its
//! `s x N` transpose (paper §6.1). The general transpose handles this, but
//! poorly: it is tuned for both dimensions being large, while here one
//! dimension is tiny (`s` in `[2, 32)` in the paper's Figure 7 experiment)
//! and the other huge.
//!
//! The paper's specialization (§6.1) orients the decomposition so the
//! small dimension is the row count, but keeps its row shuffle over rows
//! of `N` elements — a whole field array of scratch per worker, gathered
//! at stride `s`. The conversions here instead run `ipt_parallel`'s
//! skinny route ([`transpose_skinny_c2r`] / [`transpose_skinny_r2c`], a
//! route of `ipt_parallel::Plan`), a two-level transpose in **two
//! passes** whatever `gcd(s, N)` is (plus one `copy_within` sweep when
//! `N` has no divisor that fills a chunk):
//!
//! * each contiguous chunk of `K` structs (at most 512 KiB) is transposed
//!   in the worker's scratch, `[K][s] ⇄ [s][K]`;
//! * the chunks' `K`-element blocks move to their final places, one
//!   cycle-following sweep over the blocks as pages (the page pass of
//!   `ipt_parallel`'s tiled route).
//!
//! Auxiliary space is one chunk and two blocks per worker, and a bitmap
//! of one bit per block.
//!
//! [`aos_to_soa`] / [`soa_to_aos`] wrap this for the two conversion
//! directions, and [`SoaView`] gives typed access to the converted data.
//!
//! ```
//! use ipt_aos_soa::{aos_to_soa, soa_to_aos, SoaView};
//!
//! // 4 particles of (x, y, z): AoS = [x0,y0,z0, x1,y1,z1, ...]
//! let mut buf: Vec<f32> = (0..12).map(|v| v as f32).collect();
//! aos_to_soa(&mut buf, 4, 3).unwrap();
//! let soa = SoaView::new(&buf, 3, 4);
//! assert_eq!(soa.field(0), [0.0, 3.0, 6.0, 9.0]); // all x together
//! soa_to_aos(&mut buf, 4, 3).unwrap();
//! assert_eq!(buf[4], 4.0); // back to AoS
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ipt_core::shape_len;
pub use ipt_parallel::{transpose_skinny_c2r, transpose_skinny_r2c};

/// Convert an Array of Structures to a Structure of Arrays in place.
///
/// ```
/// use ipt_aos_soa::aos_to_soa;
///
/// // Two (x, y) points: [x0, y0, x1, y1] -> [x0, x1, y0, y1].
/// let mut pts = vec![1.0f32, 10.0, 2.0, 20.0];
/// aos_to_soa(&mut pts, 2, 2).unwrap();
/// assert_eq!(pts, [1.0, 2.0, 10.0, 20.0]);
/// ```
///
/// `data` holds `n_structs` structures of `fields` elements each
/// (an `n_structs x fields` row-major matrix); afterwards it holds
/// `fields` arrays of `n_structs` elements (the `fields x n_structs`
/// transpose).
///
/// # Panics
///
/// Panics if `data.len() != n_structs * fields` or either count is zero.
///
/// # Errors
///
/// Returns [`ipt_parallel::TransposeAborted`] if a worker panicked
/// mid-conversion (the buffer may be torn; see `ipt_parallel`).
pub fn aos_to_soa<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    n_structs: usize,
    fields: usize,
) -> Result<(), ipt_parallel::TransposeAborted> {
    assert!(n_structs > 0 && fields > 0, "degenerate AoS shape");
    // R2C with the small dimension as the view's row count: consumes the
    // N x s buffer, produces s x N.
    transpose_skinny_r2c(data, fields, n_structs)
}

/// Convert a Structure of Arrays back to an Array of Structures in place —
/// the exact inverse of [`aos_to_soa`].
///
/// `data` holds `fields` arrays of `n_structs` elements.
///
/// # Errors
///
/// As for [`aos_to_soa`].
pub fn soa_to_aos<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    n_structs: usize,
    fields: usize,
) -> Result<(), ipt_parallel::TransposeAborted> {
    assert!(n_structs > 0 && fields > 0, "degenerate SoA shape");
    transpose_skinny_c2r(data, fields, n_structs)
}

/// A read-only Structure-of-Arrays view: `fields` arrays of `len`
/// elements, stored field-major (the layout [`aos_to_soa`] produces).
#[derive(Debug, Clone, Copy)]
pub struct SoaView<'a, T> {
    data: &'a [T],
    fields: usize,
    len: usize,
}

impl<'a, T: Copy> SoaView<'a, T> {
    /// Wrap a converted buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != fields * len`.
    pub fn new(data: &'a [T], fields: usize, len: usize) -> SoaView<'a, T> {
        assert_eq!(data.len(), shape_len(fields, len), "buffer/shape mismatch");
        SoaView { data, fields, len }
    }

    /// Number of fields per structure.
    pub fn fields(&self) -> usize {
        self.fields
    }

    /// Number of structures.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view holds no structures.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The contiguous array of field `k` across all structures.
    pub fn field(&self, k: usize) -> &'a [T] {
        assert!(k < self.fields, "field {k} out of range");
        &self.data[k * self.len..(k + 1) * self.len]
    }

    /// Field `k` of structure `i`.
    pub fn get(&self, i: usize, k: usize) -> T {
        assert!(i < self.len && k < self.fields, "({i}, {k}) out of range");
        self.data[k * self.len + i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipt_core::check::{fill_pattern, reference_transpose};
    use ipt_core::Layout;

    #[test]
    fn aos_to_soa_is_a_transpose() {
        for (n, s) in [(7usize, 3usize), (100, 2), (33, 8), (64, 16), (10, 10)] {
            let mut a = vec![0u64; n * s];
            fill_pattern(&mut a);
            let want = reference_transpose(&a, n, s, Layout::RowMajor);
            aos_to_soa(&mut a, n, s).unwrap();
            assert_eq!(a, want, "N={n} s={s}");
        }
    }

    #[test]
    fn soa_to_aos_inverts() {
        for (n, s) in [(53usize, 5usize), (128, 4), (99, 31)] {
            let mut a = vec![0u32; n * s];
            fill_pattern(&mut a);
            let orig = a.clone();
            aos_to_soa(&mut a, n, s).unwrap();
            soa_to_aos(&mut a, n, s).unwrap();
            assert_eq!(a, orig, "N={n} s={s}");
        }
    }

    #[test]
    fn soa_view_addresses_fields() {
        // 5 structs of 3 fields: field k of struct i was AoS[i*3 + k].
        let n = 5usize;
        let s = 3usize;
        let mut a: Vec<u32> = (0..(n * s) as u32).collect();
        aos_to_soa(&mut a, n, s).unwrap();
        let v = SoaView::new(&a, s, n);
        assert_eq!(v.fields(), 3);
        assert_eq!(v.len(), 5);
        for i in 0..n {
            for k in 0..s {
                assert_eq!(v.get(i, k), (i * s + k) as u32);
            }
        }
        assert_eq!(v.field(1), [1, 4, 7, 10, 13]);
    }

    #[test]
    fn single_field_structs_are_noops() {
        let mut a: Vec<u8> = (0..9).collect();
        let orig = a.clone();
        aos_to_soa(&mut a, 9, 1).unwrap();
        assert_eq!(a, orig);
        soa_to_aos(&mut a, 9, 1).unwrap();
        assert_eq!(a, orig);
    }

    #[test]
    #[should_panic(expected = "buffer length must be rows * cols (3 x 3)")]
    fn wrong_shape_panics() {
        let mut a = vec![0u8; 7];
        let _ = aos_to_soa(&mut a, 3, 3);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn overflowing_shape_panics() {
        let big = 1usize << (usize::BITS - 1);
        let _ = aos_to_soa::<u8>(&mut [], big, 2);
    }
}
