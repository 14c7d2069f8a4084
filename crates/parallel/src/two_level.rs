//! The §6.1 skinny route's two-level transpose (DESIGN.md §7). `data`
//! is a sequence of stacks, each `P` contiguous chunks of shape `[K][s]`,
//! that is a `P·K x s` row-major matrix, and [`run`] turns every stack
//! into its `s x P·K` transpose in two passes: the chunk pass
//! ([`phases::CHUNK_TRANSPOSE`]) transposes every chunk of every stack,
//! `[K][s] → [s][K]`, through worker scratch, one executor task each;
//! the block pass ([`phases::BLOCK_PERMUTE`]) then transposes each
//! stack's `P x s` matrix of `K`-element blocks with the §4.7 sub-row
//! permute, one stack at a time, so its visited mask covers one stack.
//! The inverse runs the inverse block pass, then the chunks back.

use std::mem::size_of;

use crate::exec::run_blocks;
use crate::{cache_aware, phases, run_pass, TransposeAborted};
use ipt_pool::Scratch;

/// Bytes of one block-pass sub-row, a page.
pub(crate) const RUN_BYTES: usize = 4096;

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

/// Transpose every contiguous `rows x cols` chunk of `data` through a
/// copy in worker scratch, one task each. The body has no fault site,
/// so it is its own redo.
fn chunk_pass<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    (rows, cols): (usize, usize),
) -> Result<(), TransposeAborted> {
    let len = rows * cols;
    assert!(len > 0 && data.len() % len == 0, "whole chunks");
    let site = phases::CHUNK_TRANSPOSE;
    run_pass(site, data, |data| {
        let f = |scratch: &mut Scratch<T>, _: usize, chunk: &mut [T]| {
            transpose_into(scratch.copy_of(chunk), chunk, rows, cols)
        };
        run_blocks(data, len, site, f, f)
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

#[cfg(test)]
mod tests {
    use super::*;

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
