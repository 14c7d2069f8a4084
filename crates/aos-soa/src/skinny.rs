//! The skinny-matrix transpose specialization (paper §6.1).
//!
//! These kernels share `ipt-core`'s contract — `transpose_skinny_c2r(data,
//! m, n)` behaves exactly like `ipt_core::c2r(data, m, n)` — but assume
//! `m` (the operating view's row count) is *small*: the structure size of
//! an AoS conversion, 2–32 in the paper's Figure 7 workload.
//!
//! With tiny columns, the two column-wise steps of each direction fuse
//! into a single streaming pass: column blocks are staged through
//! task-local buffers ("on-chip memory"), rotated and row-permuted there,
//! and written back. The row shuffle touches contiguous `n`-element rows
//! and its index sequence is computed *incrementally* — `d'_i(j+1)`
//! derives from `d'_i(j)` with two compare-and-subtract steps, removing
//! even the multiply-shift of §4.4 from the inner loop. Total traffic:
//!
//! * `gcd(m, n) == 1`: **two** passes over the array,
//! * otherwise: **three** passes,
//!
//! versus the general algorithm's strided column walks — the source of
//! Figure 7's median advantage over the general transpose.

use ipt_core::index::C2rParams;
use ipt_core::shape_len;
use ipt_parallel::rows::row_shuffle_incremental;
use ipt_parallel::{phases, stage_column_blocks, TransposeAborted};
use ipt_pool::PoolError;

/// Lift a contained pool panic into a phase-attributed abort error.
fn aborted(phase: &'static str) -> impl FnOnce(PoolError) -> TransposeAborted {
    move |source| TransposeAborted { phase, source }
}

/// Target bytes for one staged column block (`m x width` elements).
const BLOCK_BYTES: usize = 16 * 1024;

fn block_width<T>(m: usize) -> usize {
    (BLOCK_BYTES / (m * core::mem::size_of::<T>().max(1))).max(1)
}

/// Apply a gather row permutation to an `m x gw` row-major block in
/// place, staging through `scratch` (no allocation).
fn permute_block_rows<T: Copy>(
    block: &mut [T],
    m: usize,
    gw: usize,
    table: &[usize],
    scratch: &mut [T],
) {
    debug_assert_eq!(block.len(), m * gw);
    debug_assert_eq!(table.len(), m);
    let scratch = &mut scratch[..m * gw];
    scratch.copy_from_slice(block);
    for (i, &src) in table.iter().enumerate() {
        block[i * gw..(i + 1) * gw].copy_from_slice(&scratch[src * gw..(src + 1) * gw]);
    }
}

/// Rotate column `k` of an `m x gw` block left by `r` in place via the
/// three-reversal identity — swap-only, no temporary storage.
fn rotate_block_column<T: Copy>(block: &mut [T], m: usize, gw: usize, k: usize, r: usize) {
    let r = r % m;
    if r == 0 {
        return;
    }
    let mut rev = |lo: usize, hi: usize| {
        let (mut a, mut b) = (lo, hi);
        while a < b {
            b -= 1;
            block.swap(a * gw + k, b * gw + k);
            a += 1;
        }
    };
    rev(0, r);
    rev(r, m);
    rev(0, m);
}

/// Skinny C2R: identical contract to `ipt_core::c2r(data, m, n)` —
/// consumes an `m x n` row-major buffer (small `m`), leaves the `n x m`
/// row-major transpose. This is the SoA → AoS direction.
pub fn transpose_skinny_c2r<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    m: usize,
    n: usize,
) -> Result<(), TransposeAborted> {
    assert_eq!(data.len(), shape_len(m, n), "buffer length must be m * n");
    if m <= 1 || n <= 1 {
        return Ok(());
    }
    let p = C2rParams::new(m, n);
    let w = block_width::<T>(m);

    // Pass 1 (only if gcd > 1): pre-rotation, fully block-local.
    if !p.coprime() {
        stage_column_blocks(
            data,
            (m, n, w),
            "skinny_pre_rotate",
            |j0, block, gw, _scratch| {
                for k in 0..gw {
                    rotate_block_column(block, m, gw, k, p.rotate_amount(j0 + k) % m);
                }
            },
            |i, j| (i + p.rotate_amount(j)) % m,
        )
        .map_err(aborted(phases::PRE_ROTATE))?;
    }

    // Pass 2: row shuffle, scattering with incrementally-computed d'.
    row_shuffle_incremental(data, &p, true).map_err(aborted(phases::ROW_SHUFFLE))?;

    // Pass 3: the entire column shuffle (rotation p_j then permutation q)
    // fused into one block-local pass — the "on-chip" column operations
    // of §6.1.
    let q_table: Vec<usize> = (0..m).map(|i| p.q(i)).collect();
    stage_column_blocks(
        data,
        (m, n, w),
        "skinny_col_shuffle",
        |j0, block, gw, scratch| {
            for k in 0..gw {
                rotate_block_column(block, m, gw, k, (j0 + k) % m);
            }
            permute_block_rows(block, m, gw, &q_table, scratch);
        },
        |i, j| p.s(j, i),
    )
    .map_err(aborted(phases::COL_SHUFFLE))
}

/// Skinny R2C: identical contract to `ipt_core::r2c(data, m, n)` —
/// consumes an `n x m` row-major buffer, leaves the `m x n` row-major
/// transpose (small `m`). This is the AoS → SoA direction.
pub fn transpose_skinny_r2c<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    m: usize,
    n: usize,
) -> Result<(), TransposeAborted> {
    assert_eq!(data.len(), shape_len(m, n), "buffer length must be m * n");
    if m <= 1 || n <= 1 {
        return Ok(());
    }
    let p = C2rParams::new(m, n);
    let w = block_width::<T>(m);

    // Pass 1: inverse column shuffle (permutation q^-1 then rotation
    // p^-1_j), fused block-local.
    let q_inv_table: Vec<usize> = (0..m).map(|i| p.q_inv(i)).collect();
    stage_column_blocks(
        data,
        (m, n, w),
        "skinny_col_shuffle_inverse",
        |j0, block, gw, scratch| {
            permute_block_rows(block, m, gw, &q_inv_table, scratch);
            for k in 0..gw {
                rotate_block_column(block, m, gw, k, (m - (j0 + k) % m) % m);
            }
        },
        |i, j| p.q_inv((i + m - j % m) % m),
    )
    .map_err(aborted(phases::COL_SHUFFLE))?;

    // Pass 2: row shuffle, gathering with incrementally-computed d' (§4.3).
    row_shuffle_incremental(data, &p, false).map_err(aborted(phases::ROW_SHUFFLE))?;

    // Pass 3 (only if gcd > 1): undo the pre-rotation, block-local.
    if !p.coprime() {
        let amount = |j: usize| (m - p.rotate_amount(j) % m) % m;
        stage_column_blocks(
            data,
            (m, n, w),
            "skinny_post_rotate",
            |j0, block, gw, _scratch| {
                for k in 0..gw {
                    rotate_block_column(block, m, gw, k, amount(j0 + k));
                }
            },
            |i, j| (i + amount(j)) % m,
        )
        .map_err(aborted(phases::POST_ROTATE))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipt_core::check::fill_pattern;
    use ipt_core::Scratch;

    fn shapes() -> Vec<(usize, usize)> {
        let mut v = vec![
            (2usize, 100usize),
            (3, 97),
            (4, 64),
            (5, 1000),
            (8, 989),
            (16, 48),
            (31, 500),
            (32, 32),
            (7, 7),
            (1, 50),
            (2, 2),
            (12, 30),
            // The kernels accept any shape, including m > n (where the
            // incremental rotation term wraps modulo n several times).
            (100, 7),
            (173, 127),
            (300, 2),
            (64, 3),
        ];
        for m in 2..=9 {
            v.push((m, 200 + m));
        }
        v
    }

    #[test]
    fn skinny_c2r_matches_core() {
        for (m, n) in shapes() {
            let mut a = vec![0u64; m * n];
            fill_pattern(&mut a);
            let mut b = a.clone();
            transpose_skinny_c2r(&mut a, m, n).unwrap();
            ipt_core::c2r(&mut b, m, n, &mut Scratch::new());
            assert_eq!(a, b, "{m}x{n}");
        }
    }

    #[test]
    fn skinny_r2c_matches_core() {
        for (m, n) in shapes() {
            let mut a = vec![0u32; m * n];
            fill_pattern(&mut a);
            let mut b = a.clone();
            transpose_skinny_r2c(&mut a, m, n).unwrap();
            ipt_core::r2c(&mut b, m, n, &mut Scratch::new());
            assert_eq!(a, b, "{m}x{n}");
        }
    }

    #[test]
    fn incremental_indices_match_fastdiv_indices() {
        // The incremental recurrence must agree with the closed-form d'
        // for every (i, j) — including when b == n (coprime) and b == 1.
        for (m, n) in [
            (4usize, 8usize),
            (5, 7),
            (6, 6),
            (3, 9),
            (8, 20),
            (2, 101),
            (101, 2),
            (20, 8),
            (173, 127),
        ] {
            let p = C2rParams::new(m, n);
            let mut got = vec![0u64; m * n];
            fill_pattern(&mut got);
            let mut want = got.clone();
            row_shuffle_incremental(&mut got, &p, true).unwrap();
            let mut tmp = vec![0u64; n];
            ipt_core::permute::row_shuffle_scatter(&mut want, &p, &mut tmp);
            assert_eq!(got, want, "scatter {m}x{n}");

            let mut got = vec![0u64; m * n];
            fill_pattern(&mut got);
            let mut want = got.clone();
            row_shuffle_incremental(&mut got, &p, false).unwrap();
            ipt_core::permute::row_shuffle_gather_forward(&mut want, &p, &mut tmp);
            assert_eq!(got, want, "gather {m}x{n}");
        }
    }

    #[test]
    fn round_trip() {
        for (m, n) in [(5usize, 77usize), (8, 1024), (3, 3000)] {
            let mut a = vec![0u64; m * n];
            fill_pattern(&mut a);
            let orig = a.clone();
            transpose_skinny_c2r(&mut a, m, n).unwrap();
            transpose_skinny_r2c(&mut a, m, n).unwrap();
            assert_eq!(a, orig, "{m}x{n}");
        }
    }

    #[test]
    fn tiny_blocks_exercise_block_edges() {
        // Force the block machinery through ragged final blocks by using
        // n values straddling block multiples.
        let m = 6usize;
        let w = super::block_width::<u64>(m);
        for n in [w - 1, w, w + 1, 2 * w + 3] {
            let mut a = vec![0u64; m * n];
            fill_pattern(&mut a);
            let mut b = a.clone();
            transpose_skinny_c2r(&mut a, m, n).unwrap();
            ipt_core::c2r(&mut b, m, n, &mut Scratch::new());
            assert_eq!(a, b, "{m}x{n}");
        }
    }

    #[test]
    fn block_helpers_behave() {
        // rotate_block_column (three-reversal)
        let mut block: Vec<u8> = (0..12).collect(); // 4 x 3
        rotate_block_column(&mut block, 4, 3, 1, 1);
        assert_eq!(block, [0, 4, 2, 3, 7, 5, 6, 10, 8, 9, 1, 11]);
        // permute_block_rows: gather [2, 0, 1, 3]
        let mut block: Vec<u8> = (0..8).collect(); // 4 x 2
        let mut scratch = vec![0u8; 8];
        permute_block_rows(&mut block, 4, 2, &[2, 0, 1, 3], &mut scratch);
        assert_eq!(block, [4, 5, 0, 1, 2, 3, 6, 7]);
    }
}
