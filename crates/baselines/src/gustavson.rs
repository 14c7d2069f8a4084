//! Gustavson-style cache-efficient tiled in-place transposition.
//!
//! Stand-in for *Gustavson, Karlsson, Kågström: "Parallel and
//! cache-efficient in-place matrix storage format conversion"* (ACM TOMS
//! 2012) — the paper's CPU comparator in Figure 3 / Table 1. Like the
//! original, it works on a tiled representation: arrays that are not
//! already conveniently tiled pay an explicit **pack / unpack** pass, whose
//! cost is included in the measurement exactly as the paper's §5.1 notes
//! ("including overhead for packing and unpacking").
//!
//! Tile choice: the largest divisors of `m` and `n` not exceeding a target
//! (default 64). Badly factored dimensions therefore get thin tiles and
//! degrade, which is the characteristic weakness of the tiled family.
//!
//! Work `O(mn)` per stage but with `O(#chunks)` auxiliary mark bits; the
//! asymptotic comparison in the paper (`O(mn log mn)` work for Gustavson
//! under `O(m)` space vs `O(mn)` for C2R) is recorded in EXPERIMENTS.md.

use crate::factor::largest_divisor_at_most;
use crate::tiled::tiled_transpose;
use ipt_core::shape_len;

/// Default tile-dimension target (elements), sized so an f64 tile fills a
/// handful of cache lines per row.
pub const DEFAULT_TILE_TARGET: usize = 64;

/// Transpose a row-major `m x n` buffer in place, Gustavson-style.
///
/// Returns the peak auxiliary bytes used. Tile dimensions are the largest
/// divisors of `m` and `n` at most [`DEFAULT_TILE_TARGET`].
pub fn transpose_gustavson<T: Copy>(data: &mut [T], m: usize, n: usize) -> usize {
    transpose_gustavson_with_target(data, m, n, DEFAULT_TILE_TARGET)
}

/// [`transpose_gustavson`] with an explicit tile-dimension target.
pub fn transpose_gustavson_with_target<T: Copy>(
    data: &mut [T],
    m: usize,
    n: usize,
    target: usize,
) -> usize {
    assert_eq!(data.len(), shape_len(m, n), "buffer length must be m * n");
    if m <= 1 || n <= 1 {
        return 0;
    }
    let tr = largest_divisor_at_most(m, target);
    let tc = largest_divisor_at_most(n, target);
    tiled_transpose(data, m, n, tr, tc)
}

/// The tile dimensions the Gustavson baseline would pick for a shape
/// (exposed for harness reporting).
pub fn gustavson_tiles(m: usize, n: usize, target: usize) -> (usize, usize) {
    (
        largest_divisor_at_most(m, target),
        largest_divisor_at_most(n, target),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipt_core::check::{fill_pattern, is_transposed_pattern};
    use ipt_core::Layout;

    #[test]
    fn transposes_divisible_and_awkward_shapes() {
        for (m, n) in [
            (64usize, 128usize),
            (128, 64),
            (60, 84),
            (97, 89),  // both prime: degenerates to 1x1 tiles
            (97, 128), // mixed
            (2, 300),
            (300, 2),
            (50, 50),
        ] {
            let mut a = vec![0u64; m * n];
            fill_pattern(&mut a);
            transpose_gustavson(&mut a, m, n);
            assert!(is_transposed_pattern(&a, m, n, Layout::RowMajor), "{m}x{n}");
        }
    }

    #[test]
    fn tile_picks_divide_dims() {
        for (m, n) in [(7200usize, 1800usize), (97, 89), (1024, 768)] {
            let (tr, tc) = gustavson_tiles(m, n, DEFAULT_TILE_TARGET);
            assert_eq!(m % tr, 0);
            assert_eq!(n % tc, 0);
            assert!(tr <= DEFAULT_TILE_TARGET && tc <= DEFAULT_TILE_TARGET);
        }
    }

    #[test]
    fn custom_target_changes_tiles() {
        let (tr64, _) = gustavson_tiles(7200, 7200, 64);
        let (tr16, _) = gustavson_tiles(7200, 7200, 16);
        assert!(tr16 <= 16 && tr64 <= 64 && tr16 < tr64);
        let mut a = vec![0u32; 48 * 80];
        fill_pattern(&mut a);
        transpose_gustavson_with_target(&mut a, 48, 80, 16);
        assert!(is_transposed_pattern(&a, 48, 80, Layout::RowMajor));
    }

    #[test]
    fn reports_nonzero_aux_for_tiled_path() {
        let mut a = vec![0u8; 64 * 64];
        fill_pattern(&mut a);
        let aux = transpose_gustavson(&mut a, 64, 64);
        assert!(aux > 0);
    }
}
