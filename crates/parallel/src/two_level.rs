//! The two-level transpose under the tiled and §6.1 skinny routes
//! (DESIGN.md §7). `data` is a sequence of stacks, each `P` contiguous
//! chunks of shape `[K][s]`, that is a `P·K x s` row-major matrix, and
//! [`run`] turns every stack into its `s x P·K` transpose in two passes:
//! the chunk pass ([`phases::CHUNK_TRANSPOSE`]) transposes every chunk of
//! every stack, `[K][s] → [s][K]`, one executor task each; the block pass
//! ([`phases::BLOCK_PERMUTE`]) then transposes each stack's `P x s`
//! matrix of `K`-element blocks with the §4.7 sub-row permute, one stack
//! at a time, so its visited mask covers one stack. The inverse runs the
//! inverse block pass, then the chunks back.

use std::mem::size_of;

use crate::exec::run_blocks;
use crate::{cache_aware, phases, run_pass, TransposeAborted};
use ipt_pool::Scratch;

/// Bytes of one block-pass sub-row, a page.
pub(crate) const RUN_BYTES: usize = 4096;

/// Side of the sub-tiles the scalar kernel swaps: a pair of 16 x 16
/// `u64` sub-tiles is 4 KiB, well inside L1.
const SUB: usize = 16;

/// Side of the sub-tiles the AVX2 kernel walks a tile in: a mirrored
/// pair of 32 x 32 sub-tiles of 8-byte elements is 16 KiB, inside L1.
#[cfg(target_arch = "x86_64")]
const SIMD_SUB: usize = 32;

/// Source rows per tile of a staged chunk's gather: a tile of up to 32
/// fields of `u64` stays in L1 while its columns are written out.
const TILE: usize = 64;

/// Transpose every stack of `p` chunks of `[k][s]` in `data` into its
/// `s x p·k` transpose, or back (`inverse`).
pub(crate) fn run<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    (p, k, s): (usize, usize, usize),
    inverse: bool,
) -> Result<(), TransposeAborted> {
    if inverse {
        block_pass(data, (s, p), k)?;
        chunk_pass(data, (s, k))
    } else {
        chunk_pass(data, (k, s))?;
        block_pass(data, (p, s), k)
    }
}

/// Transpose every contiguous `rows x cols` chunk of `data` in place, one
/// task each: a square chunk by [`transpose_tile`], a rectangular one
/// staged whole. Neither body has a fault site, so each is its own redo.
fn chunk_pass<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    (rows, cols): (usize, usize),
) -> Result<(), TransposeAborted> {
    let len = rows * cols;
    assert!(len > 0 && data.len() % len == 0, "whole chunks");
    let site = phases::CHUNK_TRANSPOSE;
    run_pass(site, data, |data| {
        if rows == cols {
            let f = |pair: &mut Scratch<T>, _: usize, chunk: &mut [T]| {
                transpose_tile(chunk, rows, pair)
            };
            run_blocks(data, len, site, f, f)
        } else {
            let f = |scratch: &mut Scratch<T>, _: usize, chunk: &mut [T]| {
                transpose_into(scratch.copy_of(chunk), chunk, rows, cols)
            };
            run_blocks(data, len, site, f, f)
        }
    })
}

/// In each stack of `data`, transpose the `rows x cols` matrix of
/// `k`-element blocks, one stack at a time; skipped when a stack is one
/// chunk (`rows` or `cols` is 1).
fn block_pass<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    (rows, cols): (usize, usize),
    k: usize,
) -> Result<(), TransposeAborted> {
    if rows <= 1 || cols <= 1 {
        return Ok(());
    }
    let w = block_width(k, size_of::<T>(), ipt_pool::num_threads());
    let site = phases::BLOCK_PERMUTE;
    run_pass(site, data, |data| {
        data.chunks_exact_mut(rows * cols * k)
            .try_for_each(|stack| cache_aware::transpose_blocks(stack, (rows, cols), k, w, site))
    })
}

/// The block pass's column-group width for `k`-element blocks of
/// `elem_size`-byte elements on a pool `threads` wide: a page of
/// elements, at most `k`, narrower when that would leave a worker idle.
pub(crate) fn block_width(k: usize, elem_size: usize, threads: usize) -> usize {
    let w = (RUN_BYTES / elem_size.max(1)).clamp(1, k);
    if k.div_ceil(w) < threads {
        k.div_ceil(threads)
    } else {
        w
    }
}

/// Out-of-place transpose of the `rows x cols` row-major `src` into
/// `dst`, `TILE` source rows at a time.
// A whole chunk per call, shared by the task body and its redo: kept out
// of line so unrelated code cannot move it in or out of the executor
// (EXPERIMENTS.md, "One two-level transpose").
#[inline(never)]
fn transpose_into<T: Copy>(src: &[T], dst: &mut [T], rows: usize, cols: usize) {
    for r0 in (0..rows).step_by(TILE) {
        let r1 = (r0 + TILE).min(rows);
        for c in 0..cols {
            let out = &mut dst[c * rows + r0..c * rows + r1];
            for (o, r) in out.iter_mut().zip(r0..r1) {
                *o = src[r * cols + c];
            }
        }
    }
}

/// How the chunk pass transposes a square chunk in place; the tiled
/// plan records it ([`crate::Route::Tiled`]).
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

/// Transpose the `l x l` row-major `tile` in place with the kernel
/// [`TileKernel::of`] picks; only the scalar kernel uses `pair`.
fn transpose_tile<T: Copy + 'static>(tile: &mut [T], l: usize, pair: &mut Scratch<T>) {
    match TileKernel::of::<T>(l) {
        // SAFETY: `of` returns `Avx2` only when `T` is an 8-byte type
        // with no padding bytes, 4 divides `l` and the CPU has AVX2.
        #[cfg(target_arch = "x86_64")]
        TileKernel::Avx2 => unsafe { transpose_tile_avx2(tile, l) },
        _ => transpose_tile_scalar(tile, l, pair),
    }
}

/// Transpose the `l x l` row-major `tile` in place. Each pair of
/// `SUB x SUB` sub-tiles mirrored across the diagonal is staged in two
/// buffers from `pair` and written back transposed, each into the
/// other's place; a diagonal sub-tile is staged alone. Sub-tiles in the
/// last row and column of sub-tiles are cut short when `SUB` does not
/// divide `l`. The kernel for every element size and CPU, and the
/// reference the AVX2 kernel is tested against.
// Out of line for the same reason as `transpose_into`.
#[inline(never)]
fn transpose_tile_scalar<T: Copy>(tile: &mut [T], l: usize, pair: &mut Scratch<T>) {
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

/// Transpose the `l x l` row-major `tile` of 8-byte elements in place
/// through AVX2 registers. The tile is walked in `SIMD_SUB x SIMD_SUB`
/// sub-tiles, each with its mirror across the diagonal. In a sub-tile
/// pair, each 4 x 4 block at `(r, c)` and the block at `(c, r)` are
/// loaded as four rows each, transposed in registers and stored in each
/// other's place; a diagonal block is transposed where it is. Nothing
/// is staged, and every load and store is unaligned, so a `T` of any
/// alignment moves as one 64-bit lane.
///
/// # Safety
///
/// The CPU must support AVX2, and every byte of every `T` value must be
/// initialised (no padding bytes, see [`padding_free`]): Rust's rules
/// forbid uninitialised bytes in an integer lane even when it is only
/// moved.
// Out of line for the same reason as `transpose_into`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
unsafe fn transpose_tile_avx2<T: Copy>(tile: &mut [T], l: usize) {
    assert!(size_of::<T>() == 8 && l % 4 == 0, "4 x 4 blocks of 8 bytes");
    assert_eq!(tile.len(), l * l, "a tile is l x l");
    let base = tile.as_mut_ptr();
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
                    // `base` points to the `l·l` elements of `tile`,
                    // borrowed mutably for this call.
                    unsafe { swap_blocks(base, l, r, c) };
                }
            }
        }
    }
}

/// Transpose the 4 x 4 blocks of 8-byte elements at `(r, c)` and
/// `(c, r)` of the `l`-wide row-major tile at `base`, each into the
/// other's place; a diagonal block (`r == c`) is transposed where it is.
///
/// # Safety
///
/// The CPU must support AVX2. `T` must be 8 bytes with no padding bytes,
/// `r + 4 <= l` and `c + 4 <= l`, and `base` must point to `l·l`
/// elements the caller may read and write.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn swap_blocks<T>(base: *mut T, l: usize, r: usize, c: usize) {
    use std::arch::x86_64::{
        __m256i, _mm256_loadu_si256, _mm256_permute2x128_si256, _mm256_storeu_si256,
        _mm256_unpackhi_epi64, _mm256_unpacklo_epi64,
    };

    let row = |r: usize, c: usize, i: usize| base.wrapping_add((r + i) * l + c).cast::<__m256i>();
    // SAFETY: for `i < 4` the four 8-byte elements from `(r + i)·l + c`
    // end at most at `(r + 3)·l + c + 4 <= (l - 1)·l + l = l·l`, and the
    // same holds for `(c + i)·l + r`: every 32-byte load and store stays
    // inside the tile at `base`. They are unaligned, so `T` may have any
    // alignment, and every byte they load is initialised, as the caller
    // promised. The shuffles need only AVX2, which the caller promised
    // too.
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
        transpose_tile_scalar(&mut tile, l, &mut pair);
        assert!(pair.capacity() <= 2 * SUB * SUB, "{}", pair.capacity());
        // The AVX2 kernel stages nothing.
        let mut pair = Scratch::new();
        transpose_tile(&mut tile, l, &mut pair);
        if TileKernel::of::<u64>(l) == TileKernel::Avx2 {
            assert_eq!(pair.capacity(), 0);
        }
    }

    /// Check each kernel on every side in `sides` against the index
    /// reference on `T`, a distinct value per element from `encode`.
    fn every_kernel_matches_the_reference<T: Copy + PartialEq + 'static>(
        sides: impl Iterator<Item = usize>,
        encode: impl Fn(usize) -> T,
    ) {
        let mut pair = Scratch::new();
        for l in sides {
            let orig: Vec<T> = (0..l * l).map(&encode).collect();
            let want: Vec<T> = (0..l * l).map(|at| orig[at % l * l + at / l]).collect();
            let mut tile = orig.clone();
            transpose_tile_scalar(&mut tile, l, &mut pair);
            assert!(tile == want, "scalar, l = {l}");
            #[cfg(target_arch = "x86_64")]
            if TileKernel::of::<T>(l) == TileKernel::Avx2 {
                let mut tile = orig.clone();
                // SAFETY: `of` saw AVX2 on this CPU, an 8-byte `T` with
                // no padding bytes and 4 dividing `l`.
                unsafe { transpose_tile_avx2(&mut tile, l) };
                assert!(tile == want, "avx2, l = {l}");
            }
        }
    }

    #[test]
    fn avx2_tile_kernel_matches_the_scalar_kernel_and_the_reference() {
        // Every side up to 40 (the AVX2 kernel on the multiples of 4) and
        // the tiled route's u64 side, on `u64` and on an 8-byte element
        // of alignment 1. miri, which checks the kernel's loads and
        // stores, is too slow for the 512 side.
        let big = if cfg!(miri) { None } else { Some(512) };
        let sides = || (0..=40usize).chain(big);
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

    #[test]
    fn every_stack_turns_into_its_transpose_and_back() {
        // Square chunks (the tiled route's tiles) and rectangular ones
        // (§6.1), one stack and several, one chunk per stack and several.
        crate::force_multithreaded_pool();
        for (stacks, p, k, s) in [
            (3usize, 2usize, 64usize, 64usize),
            (2, 3, 5, 5),
            (1, 4, 70, 3),
            (2, 3, 3, 70),
            (1, 1, 9, 4),
        ] {
            let (rows, cols) = (p * k, s);
            let orig: Vec<u64> = (0..(stacks * rows * cols) as u64).collect();
            let mut a = orig.clone();
            run(&mut a, (p, k, s), false).unwrap();
            let (got, was) = (a.chunks_exact(rows * cols), orig.chunks_exact(rows * cols));
            for (q, (got, was)) in got.zip(was).enumerate() {
                for i in 0..cols {
                    for j in 0..rows {
                        let what = format!("{p}x[{k}][{s}] stack {q} ({i},{j})");
                        assert_eq!(got[i * rows + j], was[j * cols + i], "{what}");
                    }
                }
            }
            run(&mut a, (p, k, s), true).unwrap();
            assert_eq!(a, orig, "{p}x[{k}][{s}] round trip");
        }
    }

    #[test]
    fn the_width_rule_splits_a_tile_row_among_the_workers() {
        // On every tiled shape (K = L = a page of elements) the width is
        // L / threads, rounded up.
        for size in [1usize, 2, 4, 8, 16, 512, 2048] {
            let l = RUN_BYTES / size;
            for threads in 1..=8 {
                assert_eq!(block_width(l, size, threads), l.div_ceil(threads), "L={l}");
            }
        }
        // §6.1: a page of elements, clamped to K.
        assert_eq!(block_width(5120, 8, 2), 512);
        assert_eq!(block_width(100, 8, 1), 100);
        assert_eq!(block_width(100, 8, 4), 25);
    }
}
