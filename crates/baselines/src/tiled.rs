//! Shared machinery for the tiled baselines: in-place transposition of a
//! grid of fixed-size chunks, plus in-tile content transposes.
//!
//! Both tiled baselines (Gustavson-style and Sung-style) reduce to three
//! applications of one primitive — [`chunk_transpose`], the in-place
//! transpose of an `R x C` grid of contiguous `chunk`-element blocks — and
//! per-tile content transposes:
//!
//! 1. **pack**: within each panel of `tr` rows, gather each tile's rows
//!    together (a `tr x (n/tc)` chunk-grid transpose with `tc`-chunks);
//! 2. **grid**: transpose every tile's content in place, then transpose
//!    the `(m/tr) x (n/tc)` grid of `tr*tc`-element tiles;
//! 3. **unpack**: within each panel of the result, scatter tile rows back
//!    to row-major (an `(m/tr) x tc` chunk-grid transpose with
//!    `tr`-chunks).
//!
//! The grid permutation is followed cycle-wise with one bit of visited
//! marking per chunk — the `O(mn)`-bits worst-case auxiliary cost the
//! paper attributes to these algorithms.

use crate::bitset::BitSet;
use ipt_core::shape_len;

/// Gather source slot for destination slot `p` in an `R x C` grid
/// transpose: `(p * C) mod (R*C - 1)`.
#[inline]
fn source(p: usize, c: usize, rc1: usize) -> usize {
    ((p as u128 * c as u128) % rc1 as u128) as usize
}

/// Transpose an `R x C` row-major grid of `chunk`-element blocks in place:
/// grid slot `(i, j)` moves to slot `(j, i)` of the `C x R` result, with
/// block contents untouched.
///
/// `marks` is reset to one bit per slot; `buf` must hold `chunk` elements.
/// Returns the number of auxiliary mark bytes used.
pub fn chunk_transpose<T: Copy>(
    data: &mut [T],
    r: usize,
    c: usize,
    chunk: usize,
    buf: &mut [T],
    marks: &mut BitSet,
) -> usize {
    assert_eq!(
        data.len(),
        shape_len(shape_len(r, c), chunk),
        "grid/buffer mismatch"
    );
    assert!(buf.len() >= chunk, "chunk buffer too small");
    if r <= 1 || c <= 1 || chunk == 0 {
        return 0;
    }
    let slots = r * c;
    let rc1 = slots - 1;
    marks.reset(rc1);
    let buf = &mut buf[..chunk];
    for start in 1..rc1 {
        if marks.get(start) {
            continue;
        }
        buf.copy_from_slice(&data[start * chunk..(start + 1) * chunk]);
        let mut p = start;
        loop {
            marks.set(p);
            let src = source(p, c, rc1);
            if src == start {
                data[p * chunk..(p + 1) * chunk].copy_from_slice(buf);
                break;
            }
            data.copy_within(src * chunk..(src + 1) * chunk, p * chunk);
            p = src;
        }
    }
    marks.size_bytes()
}

/// Transpose the contents of one contiguous `tr x tc` row-major tile in
/// place (result `tc x tr` row-major), through a tile-sized buffer.
pub fn transpose_tile_content<T: Copy>(tile: &mut [T], tr: usize, tc: usize, buf: &mut [T]) {
    debug_assert_eq!(tile.len(), tr * tc);
    debug_assert!(buf.len() >= tr * tc);
    if tr <= 1 || tc <= 1 {
        return;
    }
    if tr == tc {
        // Square tiles transpose by pairwise swap, no buffer traffic.
        for i in 0..tr {
            for j in (i + 1)..tc {
                tile.swap(i * tc + j, j * tc + i);
            }
        }
        return;
    }
    let buf = &mut buf[..tr * tc];
    buf.copy_from_slice(tile);
    for i in 0..tr {
        for j in 0..tc {
            tile[j * tr + i] = buf[i * tc + j];
        }
    }
}

/// Full three-stage tiled in-place transpose of a row-major `m x n` buffer
/// with tile dimensions `(tr, tc)`; `tr` must divide `m` and `tc` divide
/// `n`. Returns peak auxiliary bytes used (marks + buffers).
pub fn tiled_transpose<T: Copy>(data: &mut [T], m: usize, n: usize, tr: usize, tc: usize) -> usize {
    assert_eq!(data.len(), shape_len(m, n), "buffer length must be m * n");
    assert!(
        tr >= 1 && tc >= 1 && m % tr == 0 && n % tc == 0,
        "tile dims must divide matrix dims"
    );
    if m <= 1 || n <= 1 {
        return 0;
    }
    let grid_r = m / tr; // tile rows
    let grid_c = n / tc; // tile cols
    let tile = tr * tc;
    let mut buf = vec![data[0]; tile.max(tr).max(tc)];
    let mut marks = BitSet::new(0);
    let mut aux = buf.len() * core::mem::size_of::<T>();

    // Stage 1: pack each tr-row panel into contiguous tiles. Panel =
    // tr x grid_c grid of tc-chunks; packed order is the chunk-grid
    // transpose (tile-major, then row-within-tile).
    for panel in data.chunks_exact_mut(tr * n) {
        aux = aux.max(chunk_transpose(panel, tr, grid_c, tc, &mut buf, &mut marks));
    }

    // Stage 2a: transpose each tile's content (independent, in place).
    for t in data.chunks_exact_mut(tile) {
        transpose_tile_content(t, tr, tc, &mut buf);
    }

    // Stage 2b: transpose the grid of tiles.
    aux = aux.max(chunk_transpose(
        data, grid_r, grid_c, tile, &mut buf, &mut marks,
    ));

    // Stage 3: unpack each tc-row panel of the n x m result. Panel =
    // grid_r tiles of (tc x tr); chunk grid is grid_r x tc with tr-chunks.
    for panel in data.chunks_exact_mut(tc * m) {
        aux = aux.max(chunk_transpose(panel, grid_r, tc, tr, &mut buf, &mut marks));
    }
    aux
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipt_core::check::{fill_pattern, is_transposed_pattern};
    use ipt_core::Layout;

    #[test]
    fn chunk_transpose_matches_scalar_transpose() {
        // chunk == 1 is an ordinary element transpose.
        let (r, c) = (5usize, 7usize);
        let mut a = vec![0u32; r * c];
        fill_pattern(&mut a);
        let mut buf = vec![0u32; 1];
        let mut marks = BitSet::new(0);
        chunk_transpose(&mut a, r, c, 1, &mut buf, &mut marks);
        assert!(is_transposed_pattern(&a, r, c, Layout::RowMajor));
    }

    #[test]
    fn chunk_transpose_moves_blocks_intact() {
        let (r, c, ch) = (3usize, 4usize, 5usize);
        let mut a = vec![0u64; r * c * ch];
        fill_pattern(&mut a);
        let orig = a.clone();
        let mut buf = vec![0u64; ch];
        let mut marks = BitSet::new(0);
        chunk_transpose(&mut a, r, c, ch, &mut buf, &mut marks);
        for i in 0..r {
            for j in 0..c {
                let src = (i * c + j) * ch;
                let dst = (j * r + i) * ch;
                assert_eq!(&a[dst..dst + ch], &orig[src..src + ch], "block ({i},{j})");
            }
        }
    }

    #[test]
    fn chunk_transpose_involution_on_swapped_grid() {
        let (r, c, ch) = (6usize, 9usize, 3usize);
        let mut a = vec![0u16; r * c * ch];
        fill_pattern(&mut a);
        let orig = a.clone();
        let mut buf = vec![0u16; ch];
        let mut marks = BitSet::new(0);
        chunk_transpose(&mut a, r, c, ch, &mut buf, &mut marks);
        chunk_transpose(&mut a, c, r, ch, &mut buf, &mut marks);
        assert_eq!(a, orig);
    }

    #[test]
    fn tile_content_rectangular_and_square() {
        let mut buf = vec![0u8; 64];
        for (tr, tc) in [(2usize, 3usize), (3, 2), (4, 4), (1, 5), (5, 1), (8, 8)] {
            let mut t: Vec<u8> = (0..(tr * tc) as u8).collect();
            transpose_tile_content(&mut t, tr, tc, &mut buf);
            for i in 0..tr {
                for j in 0..tc {
                    assert_eq!(t[j * tr + i], (i * tc + j) as u8, "{tr}x{tc}");
                }
            }
        }
    }

    #[test]
    fn tiled_transpose_divisible_shapes() {
        for (m, n, tr, tc) in [
            (6usize, 8usize, 2usize, 4usize),
            (8, 6, 4, 2),
            (12, 12, 3, 3),
            (16, 24, 4, 8),
            (9, 15, 3, 5),
            (10, 10, 10, 10), // single tile
            (8, 8, 1, 1),     // degenerate tiles
            (6, 10, 6, 1),
            (6, 10, 1, 10),
        ] {
            let mut a = vec![0u64; m * n];
            fill_pattern(&mut a);
            tiled_transpose(&mut a, m, n, tr, tc);
            assert!(
                is_transposed_pattern(&a, m, n, Layout::RowMajor),
                "{m}x{n} tiles {tr}x{tc}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn non_divisible_tiles_panic() {
        let mut a = vec![0u8; 6 * 8];
        tiled_transpose(&mut a, 6, 8, 4, 4);
    }
}
