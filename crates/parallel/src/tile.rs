//! The tiled route's tile pass ([`phases::CHUNK_TRANSPOSE`]): every
//! `L x L` tile of a row-major matrix transposed in place where it lies,
//! its rows `n` elements apart, one executor task per tile (DESIGN.md
//! §7). 8-byte elements with no padding bytes move by 4 x 4 blocks in
//! AVX2 registers when the CPU has AVX2 and 4 divides `L`; every other
//! case swaps 16 x 16 sub-tile pairs through a worker's scratch.

use std::mem::size_of;

use crate::exec::{run_groups, Group};
use crate::phases;
use ipt_pool::{PoolError, Scratch};

/// Side of the sub-tiles the scalar kernel swaps: a pair of 16 x 16
/// `u64` sub-tiles is 4 KiB, well inside L1.
const SUB: usize = 16;

/// Side of the sub-tiles the AVX2 kernel walks a tile in: a mirrored
/// pair of 32 x 32 sub-tiles of 8-byte elements is 16 KiB, inside L1.
#[cfg(target_arch = "x86_64")]
const SIMD_SUB: usize = 32;

/// Transpose every `l x l` tile of the `m x n` row-major `data` in
/// place, one task each, with `kernel` (the plan's), which falls back to
/// the scalar kernel where [`TileKernel::of`] would not pick AVX2. `l`
/// divides `m` and `n`. A tile's redo is the element swaps of its
/// transpose.
pub(crate) fn transpose_tiles<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    (m, n): (usize, usize),
    l: usize,
    kernel: TileKernel,
) -> Result<(), PoolError> {
    assert!(l > 0 && m % l == 0 && n % l == 0, "whole tiles");
    let across = n / l;
    run_groups(
        data,
        (m, n),
        (l, l),
        phases::CHUNK_TRANSPOSE,
        |pair: &mut Scratch<T>, tile| transpose_tile(tile, kernel, pair),
        |data, t| {
            let (i0, j0) = (t / across * l, t % across * l);
            for i in 0..l {
                for j in i + 1..l {
                    data.swap((i0 + i) * n + j0 + j, (i0 + j) * n + j0 + i);
                }
            }
        },
    )
}

/// How the tile pass transposes a tile in place; the tiled plan records
/// it ([`crate::Route::Tiled`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileKernel {
    /// `transpose_tile_avx2` (x86_64): mirrored 4 x 4 blocks swapped
    /// through AVX2 registers, nothing staged.
    Avx2,
    /// `transpose_tile_scalar`: mirrored 16 x 16 sub-tiles staged in a
    /// scratch pair.
    Scalar,
}

impl TileKernel {
    /// The kernel for an `l x l` tile of `T`: [`TileKernel::select`] on
    /// its size and on whether it is on the [`padding_free`] list.
    pub(crate) fn of<T: 'static>(l: usize) -> TileKernel {
        TileKernel::select(size_of::<T>(), padding_free::<T>(), l)
    }

    /// The kernel for an `l x l` tile of `elem_size`-byte elements,
    /// `plain` when every byte of every element is initialised: AVX2
    /// when the elements are plain and 8 bytes, 4 divides `l` and the
    /// CPU has AVX2, else scalar. The one place the choice is made:
    /// [`transpose_tile`] runs it and the plan records it.
    pub(crate) fn select(elem_size: usize, plain: bool, l: usize) -> TileKernel {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        if elem_size == 8 && plain && l % 4 == 0 && avx2 {
            TileKernel::Avx2
        } else {
            TileKernel::Scalar
        }
    }

    /// The kernel's name in the plan's `Display`.
    pub fn name(self) -> &'static str {
        match self {
            TileKernel::Avx2 => "avx2 4 x 4",
            TileKernel::Scalar => "scalar 16 x 16 sub-tile pairs",
        }
    }
}

/// Whether `T` is one of the 8-byte types whose every value has all its
/// bytes initialised, so that the AVX2 kernel may load it as a 64-bit
/// integer lane. Rust's rules forbid uninitialised bytes in an integer
/// even when it is only moved, so a `T` with padding bytes (say a
/// `#[repr(C)]` struct of a `u32` and a `u16`) must not take that
/// kernel; the list names the types known to have none.
pub(crate) fn padding_free<T: 'static>() -> bool {
    use std::any::TypeId;
    [
        TypeId::of::<u64>(),
        TypeId::of::<i64>(),
        TypeId::of::<f64>(),
        TypeId::of::<usize>(),
        TypeId::of::<isize>(),
        TypeId::of::<[u8; 8]>(),
        TypeId::of::<[u16; 4]>(),
        TypeId::of::<[u32; 2]>(),
        TypeId::of::<[f32; 2]>(),
    ]
    .contains(&TypeId::of::<T>())
}

/// Transpose the square `tile` in place with `kernel`, or with the
/// scalar kernel when [`TileKernel::of`] would not pick AVX2 for it;
/// only the scalar kernel uses `pair`.
fn transpose_tile<T: Copy + 'static>(
    tile: Group<'_, T>,
    kernel: TileKernel,
    pair: &mut Scratch<T>,
) {
    let l = tile.gw();
    assert_eq!(tile.m(), l, "a tile is square");
    match kernel {
        #[cfg(target_arch = "x86_64")]
        TileKernel::Avx2 if TileKernel::of::<T>(l) == TileKernel::Avx2 => {
            // SAFETY: `of` picks AVX2 only when `T` is an 8-byte type
            // with no padding bytes, 4 divides `l` and the CPU has AVX2.
            // The executor claimed the tile's `l x l` cells, rows
            // `stride` apart, for this task alone.
            unsafe { transpose_tile_avx2(tile.ptr(), tile.stride(), l) }
        }
        _ => transpose_tile_scalar(tile, pair),
    }
}

/// Transpose the square `tile` in place. Each pair of `SUB x SUB`
/// sub-tiles mirrored across the diagonal is staged in two buffers from
/// `pair` and written back transposed, each into the other's place; a
/// diagonal sub-tile is staged alone. Sub-tiles in the last row and
/// column of sub-tiles are cut short when `SUB` does not divide the
/// side. The kernel for every element size and CPU, and the reference
/// the AVX2 kernel is tested against.
// A whole tile per call: kept out of line so unrelated code cannot move
// it in or out of the executor (EXPERIMENTS.md, "One two-level
// transpose").
#[inline(never)]
fn transpose_tile_scalar<T: Copy>(tile: Group<'_, T>, pair: &mut Scratch<T>) {
    let l = tile.gw();
    if l == 0 {
        return;
    }
    // SAFETY: cell (0, 0) is inside the non-empty tile.
    let fill = unsafe { tile.get(0, 0) };
    let s = SUB.min(l);
    let (a, b) = pair.uninit_buf(2 * s * s, fill).split_at_mut(s * s);
    for r0 in (0..l).step_by(s) {
        let h = s.min(l - r0);
        stage(tile, (r0, r0), (h, h), a);
        put_transposed(tile, (r0, r0), (h, h), a);
        for c0 in (r0 + s..l).step_by(s) {
            let w = s.min(l - c0);
            stage(tile, (r0, c0), (h, w), a);
            stage(tile, (c0, r0), (w, h), b);
            put_transposed(tile, (r0, c0), (h, w), b);
            put_transposed(tile, (c0, r0), (w, h), a);
        }
    }
}

/// Transpose the `l x l` tile of 8-byte elements at `base`, its rows
/// `stride` elements apart, in place through AVX2 registers. The tile
/// is walked in `SIMD_SUB x SIMD_SUB` sub-tiles, each with its mirror
/// across the diagonal. In a sub-tile pair, each 4 x 4 block at
/// `(r, c)` and the block at `(c, r)` are loaded as four rows each,
/// transposed in registers and stored in each other's place; a diagonal
/// block is transposed where it is. Nothing is staged, and every load
/// and store is unaligned, so a `T` of any alignment moves as one 64-bit
/// lane.
///
/// # Safety
///
/// The CPU must support AVX2, and every byte of every `T` value must be
/// initialised (no padding bytes, see [`padding_free`]): Rust's rules
/// forbid uninitialised bytes in an integer lane even when it is only
/// moved. `base` must point to the `l x l` cells `base + r·stride + c`
/// (`r, c < l`), which the caller may read and write and no one else
/// touches during the call.
// Out of line for the same reason as `transpose_tile_scalar`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
unsafe fn transpose_tile_avx2<T: Copy>(base: *mut T, stride: usize, l: usize) {
    assert!(size_of::<T>() == 8 && l % 4 == 0, "4 x 4 blocks of 8 bytes");
    assert!(stride >= l, "rows of the tile do not overlap");
    for r0 in (0..l).step_by(SIMD_SUB) {
        let h = SIMD_SUB.min(l - r0);
        for c0 in (r0..l).step_by(SIMD_SUB) {
            let w = SIMD_SUB.min(l - c0);
            for r in (r0..r0 + h).step_by(4) {
                // In a diagonal sub-tile, only the blocks on and above
                // the diagonal: each swap moves the one below it too.
                let c_start = if c0 == r0 { r } else { c0 };
                for c in (c_start..c0 + w).step_by(4) {
                    // SAFETY: the CPU has AVX2 and `T` has no padding
                    // bytes, as this function's caller promised. `r0`,
                    // `c0`, `h`, `w` and so `r` and `c` are multiples of
                    // 4 (`SIMD_SUB` is, and 4 divides `l`), and
                    // `r, c < l`, so `r + 4 <= l` and `c + 4 <= l`;
                    // `base` points to the tile's cells, as promised.
                    unsafe { swap_blocks(base, stride, r, c) };
                }
            }
        }
    }
}

/// Transpose the 4 x 4 blocks of 8-byte elements at `(r, c)` and
/// `(c, r)` of the tile at `base`, rows `stride` apart, each into the
/// other's place; a diagonal block (`r == c`) is transposed where it is.
///
/// # Safety
///
/// The CPU must support AVX2. `T` must be 8 bytes with no padding bytes,
/// `r + 4` and `c + 4` must be at most the tile's side, and `base` must
/// point to the tile's cells, which the caller may read and write.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn swap_blocks<T>(base: *mut T, stride: usize, r: usize, c: usize) {
    use std::arch::x86_64::{
        __m256i, _mm256_loadu_si256, _mm256_permute2x128_si256, _mm256_storeu_si256,
        _mm256_unpackhi_epi64, _mm256_unpacklo_epi64,
    };

    let row =
        |r: usize, c: usize, i: usize| base.wrapping_add((r + i) * stride + c).cast::<__m256i>();
    // SAFETY: for `i < 4` the four 8-byte elements from
    // `(r + i)·stride + c` are cells `(r + i, c..c + 4)` of the tile,
    // and the same holds for `(c + i)·stride + r`: every 32-byte load and
    // store stays inside the tile at `base`. They are unaligned, so `T`
    // may have any alignment, and every byte they load is initialised,
    // as the caller promised. The shuffles need only AVX2, which the
    // caller promised too.
    unsafe {
        let load = |r, c| std::array::from_fn(|i| _mm256_loadu_si256(row(r, c, i)));
        let store = |r, c, rows: [__m256i; 4]| {
            for (i, v) in rows.into_iter().enumerate() {
                _mm256_storeu_si256(row(r, c, i), v);
            }
        };
        // The transpose of a 4 x 4 block of 64-bit lanes held as four
        // rows: unpack pairs of rows into 2 x 2 blocks in each 128-bit
        // half, then join the halves.
        let transpose = |[r0, r1, r2, r3]: [__m256i; 4]| {
            let (t0, t1) = (_mm256_unpacklo_epi64(r0, r1), _mm256_unpackhi_epi64(r0, r1));
            let (t2, t3) = (_mm256_unpacklo_epi64(r2, r3), _mm256_unpackhi_epi64(r2, r3));
            [
                _mm256_permute2x128_si256::<0x20>(t0, t2),
                _mm256_permute2x128_si256::<0x20>(t1, t3),
                _mm256_permute2x128_si256::<0x31>(t0, t2),
                _mm256_permute2x128_si256::<0x31>(t1, t3),
            ]
        };
        let a = transpose(load(r, c));
        if r == c {
            store(r, c, a);
        } else {
            let b = transpose(load(c, r));
            store(c, r, a);
            store(r, c, b);
        }
    }
}

/// Copy the `h x w` sub-tile at `(r0, c0)` of `tile` into `out`,
/// row-major.
fn stage<T: Copy>(
    tile: Group<'_, T>,
    (r0, c0): (usize, usize),
    (h, w): (usize, usize),
    out: &mut [T],
) {
    for (i, run) in out[..h * w].chunks_exact_mut(w).enumerate() {
        // SAFETY: the sub-tile lies inside the square tile, and the run
        // is the only reference into it while it lives.
        run.copy_from_slice(unsafe { tile.run_mut(r0 + i, c0, w) });
    }
}

/// Overwrite the `h x w` sub-tile at `(r0, c0)` of `tile` with the
/// transpose of the staged row-major `w x h` sub-tile `src`.
fn put_transposed<T: Copy>(
    tile: Group<'_, T>,
    (r0, c0): (usize, usize),
    (h, w): (usize, usize),
    src: &[T],
) {
    // SAFETY: the sub-tile lies inside the square tile, and each row's
    // run is the only reference into it while it lives.
    let row = |i: usize| unsafe { tile.run_mut(r0 + i, c0, w) };
    if (h, w) == (SUB, SUB) {
        // A whole sub-tile: fixed sizes let the compiler drop the bounds
        // checks of the strided reads.
        let src: &[T; SUB * SUB] = src[..SUB * SUB].try_into().expect("SUB * SUB elements");
        for i in 0..SUB {
            let row: &mut [T; SUB] = row(i).try_into().expect("SUB elements");
            for (j, v) in row.iter_mut().enumerate() {
                *v = src[j * SUB + i];
            }
        }
        return;
    }
    let src = &src[..h * w];
    for i in 0..h {
        for (j, v) in row(i).iter_mut().enumerate() {
            *v = src[j * h + i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Transpose every `l x l` tile of an `m x n` matrix whose element
    /// `i` is `encode(i)` with `kernel`, and check it against the index
    /// reference.
    fn tiles_match_the_reference<T>(
        (m, n): (usize, usize),
        l: usize,
        kernel: TileKernel,
        encode: impl Fn(usize) -> T,
    ) where
        T: Copy + PartialEq + Send + Sync + 'static,
    {
        let orig: Vec<T> = (0..m * n).map(&encode).collect();
        let mut got = orig.clone();
        transpose_tiles(&mut got, (m, n), l, kernel).unwrap();
        for i in 0..m {
            for j in 0..n {
                let (p, r, q, s) = (i / l, i % l, j / l, j % l);
                let want = orig[(p * l + s) * n + q * l + r];
                assert!(got[i * n + j] == want, "{kernel:?} {m}x{n} l={l} ({i},{j})");
            }
        }
    }

    #[test]
    fn tile_kernel_matches_the_reference_for_every_small_side() {
        crate::force_multithreaded_pool();
        for l in 1..=40usize {
            // One tile, and 2 x 3 tiles whose rows are 3·l apart.
            for (p, q) in [(1usize, 1usize), (2, 3)] {
                tiles_match_the_reference((p * l, q * l), l, TileKernel::Scalar, |i| i as u32);
            }
        }
    }

    #[test]
    fn tile_pass_stages_at_most_a_sub_tile_pair() {
        // The scratch one tile's kernel sizes: a sub-tile pair for the
        // scalar kernel, nothing for the AVX2 one.
        let l = 64;
        let staged = |kernel| {
            let pair = Mutex::new(Scratch::new());
            let mut tile = vec![0u64; l * l];
            run_groups(
                &mut tile,
                (l, l),
                (l, l),
                phases::CHUNK_TRANSPOSE,
                |_: &mut Scratch<u64>, g| transpose_tile(g, kernel, &mut pair.lock().unwrap()),
                |_, _| {},
            )
            .unwrap();
            pair.into_inner().unwrap().capacity()
        };
        let scalar = staged(TileKernel::Scalar);
        assert!(scalar <= 2 * SUB * SUB, "{scalar}");
        if TileKernel::of::<u64>(l) == TileKernel::Avx2 {
            assert_eq!(staged(TileKernel::Avx2), 0);
        }
    }

    /// Check each kernel on the tiles of an `l x 2l` matrix of `T`, for
    /// every side in `sides`, against the index reference, a distinct
    /// value per element from `encode`.
    fn every_kernel_matches_the_reference<T>(
        sides: impl Iterator<Item = usize>,
        encode: impl Fn(usize) -> T,
    ) where
        T: Copy + PartialEq + Send + Sync + 'static,
    {
        for l in sides {
            for kernel in [TileKernel::Scalar, TileKernel::of::<T>(l)] {
                tiles_match_the_reference((l, 2 * l), l, kernel, &encode);
            }
        }
    }

    #[test]
    fn avx2_tile_kernel_matches_the_scalar_kernel_and_the_reference() {
        // Every side up to 40 (the AVX2 kernel on the multiples of 4) and
        // the tiled route's u64 side, on `u64` and on an 8-byte element
        // of alignment 1. miri, which checks the kernel's loads and
        // stores, is too slow for the 512 side.
        crate::force_multithreaded_pool();
        let big = if cfg!(miri) { None } else { Some(512) };
        let sides = || (1..=40usize).chain(big);
        every_kernel_matches_the_reference(sides(), |i| i as u64);
        every_kernel_matches_the_reference(sides(), |i| (i as u64 ^ (0xa5 << 56)).to_le_bytes());
        if TileKernel::of::<u64>(4) != TileKernel::Avx2 {
            eprintln!("AVX2 not detected: only the scalar kernel was checked");
        }
        if big.is_none() {
            eprintln!("under miri: side 512 skipped");
        }
    }

    #[test]
    fn an_element_with_padding_bytes_takes_the_scalar_kernel() {
        // 8 bytes, 2 of them padding, which must never sit in an integer
        // lane; the padding-free 8-byte types all take the same kernel.
        #[repr(C)]
        #[derive(Clone, Copy)]
        struct Padded {
            _a: u32,
            _b: u16,
        }
        assert_eq!(size_of::<Padded>(), 8);
        assert_eq!(TileKernel::of::<Padded>(512), TileKernel::Scalar);
        assert_eq!(TileKernel::of::<(u32, u16)>(512), TileKernel::Scalar);
        let plain = TileKernel::select(8, true, 512);
        for kernel in [
            TileKernel::of::<u64>(512),
            TileKernel::of::<[u8; 8]>(512),
            TileKernel::of::<f64>(512),
        ] {
            assert_eq!(kernel, plain);
        }
    }
}
