//! The tiled route: the decomposition on 4 KiB row segments, then the
//! two-level transpose on `L x L` tiles (DESIGN.md §7).
//!
//! C2R and R2C do not care what an element is. Let a 4 KiB block hold
//! `L` elements of `T`, with `L` dividing both `m` and `n`. Then an
//! `m x n` row-major matrix is also an `m x n/L` matrix of blocks, and
//! its C2R runs as two steps:
//!
//! 1. **Block-level C2R.** The element path on the matrix of blocks
//!    leaves `[n/L][m][L]`: `n/L` contiguous `m x L` panels, panel `q`
//!    holding columns `[qL, (q + 1)L)` of the input. Every move is a
//!    whole block, and a column group is one block wide, so both fine
//!    passes are skipped.
//! 2. **The two-level transpose** ([`two_level`]) of every panel: a
//!    panel is a stack of `P = m/L` square `L x L` chunks, transposed in
//!    place, whose `L`-element rows the block pass then puts in order.
//!    No chunk is staged.
//!
//! R2C runs the inverse two-level transpose, then block-level R2C.

use std::mem::{size_of, MaybeUninit};

use crate::{elements, two_level, TransposeAborted};
use ipt_core::index::C2rParams;
use ipt_core::Direction;

/// Bytes of one block: a page.
const BLOCK_BYTES: usize = 4096;

/// One block as raw bytes. Its alignment is 1, and every byte pattern —
/// a `T`'s padding included — is a valid value, so one type serves every
/// element type.
type Block = [MaybeUninit<u8>; BLOCK_BYTES];

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
/// block-level C2R, then the two-level transpose of the `m x L` panels,
/// each `P` tiles of `L x L`; R2C the inverse in reverse order.
pub(crate) fn run<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    dir: Direction,
    blocks: Option<&C2rParams>,
    l: usize,
    p: usize,
) -> Result<(), TransposeAborted> {
    // Column groups are one block wide, so every fine residual is 0 and
    // no fine window is used: its height does not matter.
    let block_level = |data: &mut [T]| match blocks {
        Some(b) => elements(as_blocks(data, l), dir, b, 1, 1),
        None => Ok(()),
    };
    match dir {
        Direction::C2r => {
            block_level(data)?;
            two_level::run(data, (p, l, l), false)
        }
        Direction::R2c => {
            two_level::run(data, (p, l, l), true)?;
            block_level(data)
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

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
