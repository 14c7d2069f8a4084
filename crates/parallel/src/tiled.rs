//! The tiled route: the decomposition on 4 KiB row segments, then
//! in-place `L x L` tiles (DESIGN.md §7).
//!
//! C2R and R2C do not care what an element is. Let a 4 KiB block hold
//! `L` elements of `T`, with `L` dividing both `m` and `n`. Then an
//! `m x n` row-major matrix is also an `m x n/L` matrix of blocks, and
//! its C2R runs as three steps:
//!
//! 1. **Block-level C2R.** The element path on the matrix of blocks
//!    leaves `[n/L][m][L]`: `n/L` contiguous `m x L` panels, panel `q`
//!    holding columns `[qL, (q + 1)L)` of the input. Every move is a
//!    whole block, and a column group is one block wide, so both fine
//!    passes are skipped.
//! 2. **Tile pass** ([`phases::TILE_TRANSPOSE`]). A panel is `P = m/L`
//!    contiguous `L x L` tiles. Each tile is transposed in place, one
//!    executor task per tile, by swapping mirrored `SUB x SUB` sub-tiles
//!    through a pair of buffers in the worker's scratch.
//! 3. **Panel pass** ([`phases::PANEL_PERMUTE`]). Each panel, viewed as `m`
//!    rows of `L` elements, now holds its transpose's rows in the order
//!    `[P][L]`; transposing that `P x L` matrix of rows with the §4.7
//!    sub-row permute ([`cache_aware::transpose_blocks`]) puts them in
//!    the order `[L][P]`: row `r` gathers row `(r mod P)·L + r div P`.
//!    Panels run one at a time, so the visited mask covers one panel's
//!    `m` rows, and the whole loop is one recorded pass.
//!
//! R2C runs the inverse panel permute, the tiles (a tile transpose is
//! its own inverse), then block-level R2C.

use std::mem::{size_of, MaybeUninit};

use crate::{cache_aware, elements, phases, run_pass, stage_blocks, TransposeAborted};
use ipt_core::index::C2rParams;
use ipt_core::Direction;
use ipt_pool::Scratch;

/// Bytes of one block: a page.
const BLOCK_BYTES: usize = 4096;

/// One block as raw bytes. Its alignment is 1, and every byte pattern —
/// a `T`'s padding included — is a valid value, so one type serves every
/// element type.
type Block = [MaybeUninit<u8>; BLOCK_BYTES];

/// Side of the sub-tiles the tile pass swaps: a pair of 16 x 16 `u64`
/// sub-tiles is 4 KiB, well inside L1.
const SUB: usize = 16;

/// Side `L` of the tiles `c2r_parallel::<T>` cuts an `m x n` matrix
/// into, or `None` when it takes the element path: the call's
/// [`crate::Plan::tile_side`].
///
/// ```
/// use ipt_parallel::tile_side;
///
/// assert_eq!(tile_side::<u64>(1024, 1536), Some(512));
/// assert_eq!(tile_side::<u64>(1024, 1000), None); // 512 does not divide 1000
/// assert_eq!(tile_side::<[u8; 3]>(4096, 4096), None); // 3 does not divide 4096
/// assert_eq!(tile_side::<u64>(0, 512), None); // nothing to do
/// ```
pub fn tile_side<T>(m: usize, n: usize) -> Option<usize> {
    side(m, n, size_of::<T>()).filter(|_| m > 1 && n > 1)
}

/// The route test of [`crate::Plan::new`]: the tile side `L` when a
/// 4 KiB block holds `L > 1` whole `elem_size`-byte elements and `L`
/// divides both `m` and `n`. A 4 KiB element is its own block, so it
/// takes the element path.
pub(crate) fn side(m: usize, n: usize, elem_size: usize) -> Option<usize> {
    if elem_size == 0 || BLOCK_BYTES % elem_size != 0 {
        return None;
    }
    let l = BLOCK_BYTES / elem_size;
    (l > 1 && m % l == 0 && n % l == 0).then_some(l)
}

/// The tiled route's passes (see [`crate::Route::Tiled`]): C2R runs
/// block-level C2R, the tiles, the panels; R2C the inverse panel
/// permute, the tiles, block-level R2C.
pub(crate) fn run<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    dir: Direction,
    blocks: Option<&C2rParams>,
    l: usize,
    p: usize,
    h: usize,
) -> Result<(), TransposeAborted> {
    let block_level = |data: &mut [T]| match blocks {
        Some(b) => elements(as_blocks(data, l), dir, b, 1, h),
        None => Ok(()),
    };
    match dir {
        Direction::C2r => {
            block_level(data)?;
            tiles(data, l)?;
            panels(data, l, p, false)
        }
        Direction::R2c => {
            panels(data, l, p, true)?;
            tiles(data, l)?;
            block_level(data)
        }
    }
}

/// Transpose every contiguous `L x L` tile in place, one task each.
fn tiles<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    l: usize,
) -> Result<(), TransposeAborted> {
    run_pass(phases::TILE_TRANSPOSE, data, |data| {
        stage_blocks(data, l * l, phases::TILE_TRANSPOSE, |pair, _, tile| {
            transpose_tile(tile, l, pair)
        })
    })
}

/// Put the `L`-element rows of each `m x L` panel (`m = P·L`) in their
/// final order, or back (`inverse`), one panel at a time; skipped when a
/// panel is a single tile. A panel's `L` columns split into one group
/// per worker, so each moves sub-rows of `L / threads` elements.
fn panels<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    l: usize,
    p: usize,
    inverse: bool,
) -> Result<(), TransposeAborted> {
    if p <= 1 {
        return Ok(());
    }
    let w = l.div_ceil(ipt_pool::num_threads().max(1));
    let blocks = if inverse { (l, p) } else { (p, l) };
    run_pass(phases::PANEL_PERMUTE, data, |data| {
        data.chunks_exact_mut(p * l * l).try_for_each(|panel| {
            cache_aware::transpose_blocks(panel, blocks, l, w, phases::PANEL_PERMUTE)
        })
    })
}

/// View `data` as its 4 KiB blocks, `L` elements each.
fn as_blocks<T: Copy>(data: &mut [T], l: usize) -> &mut [Block] {
    assert!(l * size_of::<T>() == BLOCK_BYTES && data.len() % l == 0);
    // SAFETY: `Block` has alignment 1 and exactly `l * size_of::<T>()`
    // bytes, so the `data.len() / l` blocks cover exactly `data`'s bytes,
    // and the result reborrows `data` mutably for its whole life. Any
    // bytes, padding included, are a valid `MaybeUninit<u8>`. The passes
    // only move whole blocks, and each block boundary is a `T` boundary,
    // so every `T` slot ends up holding the bytes of some `T` the buffer
    // held; `T: Copy`, so no value is dropped or owned twice.
    unsafe { std::slice::from_raw_parts_mut(data.as_mut_ptr().cast::<Block>(), data.len() / l) }
}

/// Transpose the `l x l` row-major `tile` in place. Each pair of
/// `SUB x SUB` sub-tiles mirrored across the diagonal is staged in two
/// buffers from `pair` and written back transposed, each into the
/// other's place; a diagonal sub-tile is staged alone. Sub-tiles in the
/// last row and column of sub-tiles are cut short when `SUB` does not
/// divide `l`.
fn transpose_tile<T: Copy>(tile: &mut [T], l: usize, pair: &mut Scratch<T>) {
    assert_eq!(tile.len(), l * l, "a tile is l x l");
    let Some(&fill) = tile.first() else {
        return;
    };
    let s = SUB.min(l);
    let (a, b) = pair.uninit_buf(2 * s * s, fill).split_at_mut(s * s);
    for r0 in (0..l).step_by(s) {
        let h = s.min(l - r0);
        stage(tile, l, (r0, r0), (h, h), a);
        put_transposed(tile, l, (r0, r0), (h, h), a);
        for c0 in (r0 + s..l).step_by(s) {
            let w = s.min(l - c0);
            stage(tile, l, (r0, c0), (h, w), a);
            stage(tile, l, (c0, r0), (w, h), b);
            put_transposed(tile, l, (r0, c0), (h, w), b);
            put_transposed(tile, l, (c0, r0), (w, h), a);
        }
    }
}

/// Copy the `h x w` sub-tile at `(r0, c0)` of the `l`-wide `tile` into
/// `out`, row-major.
fn stage<T: Copy>(
    tile: &[T],
    l: usize,
    (r0, c0): (usize, usize),
    (h, w): (usize, usize),
    out: &mut [T],
) {
    for (i, run) in out[..h * w].chunks_exact_mut(w).enumerate() {
        let at = (r0 + i) * l + c0;
        run.copy_from_slice(&tile[at..at + w]);
    }
}

/// Overwrite the `h x w` sub-tile at `(r0, c0)` of the `l`-wide `tile`
/// with the transpose of the staged row-major `w x h` sub-tile `src`.
fn put_transposed<T: Copy>(
    tile: &mut [T],
    l: usize,
    (r0, c0): (usize, usize),
    (h, w): (usize, usize),
    src: &[T],
) {
    if (h, w) == (SUB, SUB) {
        // A whole sub-tile: fixed sizes let the compiler drop the bounds
        // checks of the strided reads.
        let src: &[T; SUB * SUB] = src[..SUB * SUB].try_into().expect("SUB * SUB elements");
        for i in 0..SUB {
            let at = (r0 + i) * l + c0;
            let row: &mut [T; SUB] = (&mut tile[at..at + SUB]).try_into().expect("SUB elements");
            for (j, v) in row.iter_mut().enumerate() {
                *v = src[j * SUB + i];
            }
        }
        return;
    }
    let src = &src[..h * w];
    for i in 0..h {
        let at = (r0 + i) * l + c0;
        for (j, v) in tile[at..at + w].iter_mut().enumerate() {
            *v = src[j * h + i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_kernel_matches_the_reference_for_every_small_side() {
        let mut pair = Scratch::new();
        for l in 0..=40usize {
            let orig: Vec<u32> = (0..(l * l) as u32).collect();
            let mut tile = orig.clone();
            transpose_tile(&mut tile, l, &mut pair);
            for i in 0..l {
                for j in 0..l {
                    assert_eq!(tile[i * l + j], orig[j * l + i], "l={l} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn tile_pass_stages_at_most_a_sub_tile_pair() {
        let mut pair = Scratch::new();
        let l = 64;
        let mut tile = vec![0u64; l * l];
        transpose_tile(&mut tile, l, &mut pair);
        assert!(pair.capacity() <= 2 * SUB * SUB, "{}", pair.capacity());
    }

    #[test]
    fn the_route_needs_whole_elements_per_block_dividing_both_sides() {
        assert_eq!(tile_side::<u64>(512, 1024), Some(512));
        assert_eq!(tile_side::<u32>(1024, 2048), Some(1024));
        assert_eq!(tile_side::<[u64; 64]>(8, 24), Some(8));
        assert_eq!(tile_side::<u64>(512, 768), None);
        assert_eq!(tile_side::<u64>(256, 1024), None);
        assert_eq!(tile_side::<[u8; 4096]>(2, 2), None);
        assert_eq!(tile_side::<[u8; 8192]>(2, 2), None);
        assert_eq!(tile_side::<()>(4096, 4096), None);
    }
}
