//! The skinny-matrix transpose specialization (paper §6.1).
//!
//! These kernels share `ipt-core`'s contract — `transpose_skinny_c2r(data,
//! m, n)` behaves exactly like `ipt_core::c2r(data, m, n)` — but assume
//! `m` (the operating view's row count) is *small*: the structure size of
//! an AoS conversion, 2–32 in the paper's Figure 7 workload.
//!
//! With `m` fields and `n` structs, the AoS `n x m` is viewed as
//! `[P][K][m]`: `P` contiguous chunks of `K` structs, `n = P·K`. The
//! conversion is a two-level transpose in **two passes**:
//!
//! * **pass A** transposes each chunk in place, `[K][m] ⇄ [m][K]`,
//!   staged through the worker's scratch — a chunk is at most 512 KiB,
//!   so the staged copy stays in cache;
//! * **pass B** transposes the `P x m` matrix of `K`-element blocks,
//!   `[P][m] ⇄ [m][P]`: a row gather on the `L x K` view (`L = P·m`),
//!   run as the §4.7 sub-row permute ([`cache_aware::transpose_blocks`])
//!   in page-sized sub-rows.
//!
//! AoS → SoA (R2C) runs A then B, SoA → AoS (C2R) B then A. Auxiliary
//! space is one chunk per worker plus an `L`-entry visited mask, not
//! Theorem 6's `O(max(m, n))` — here `n`, the whole struct count.
//!
//! When `n` has no divisor that makes a useful chunk (a prime `n`, say),
//! the last `n mod K` structs are **peeled**: stashed (at most one
//! chunk), the two passes run on the divisible prefix, and one
//! `copy_within` sweep moves each field's run to its final offset.

use ipt_core::shape_len;
use ipt_parallel::{cache_aware, phases, run_pass, stage_blocks, TransposeAborted};

/// Bytes of one chunk: the most pass A stages per task.
const CHUNK_BYTES: usize = 512 * 1024;

/// Bytes of one pass-B sub-row, a page: the least a chunk must hold for
/// its blocks to move as whole runs rather than scattered elements.
const RUN_BYTES: usize = 4 * 1024;

/// Source rows per tile of the staged chunk transpose: a tile of up to
/// 32 fields of `u64` stays in L1 while its columns are written out.
const TILE: usize = 64;

/// How a conversion of `n` structs of `m` fields splits into tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Plan {
    /// Structs per chunk (`K`).
    k: usize,
    /// Structs the two passes convert (`P·K`); the other `n - main` are
    /// the peeled tail.
    main: usize,
    /// Pass B's column-group width, in elements.
    w: usize,
}

impl Plan {
    /// The plan for `n` structs of `m` fields of `size` bytes on a pool
    /// `threads` wide. `K` is the largest divisor of `n` whose chunk fits
    /// [`CHUNK_BYTES`]; when that divisor is too small to fill one
    /// [`RUN_BYTES`] run, `K` is the largest chunk that fits and the tail
    /// is peeled.
    fn new(m: usize, n: usize, size: usize, threads: usize) -> Plan {
        let size = size.max(1);
        let cap = (CHUNK_BYTES / m.saturating_mul(size)).max(1);
        let k = if n <= cap {
            n
        } else {
            match largest_divisor_at_most(n, cap) {
                d if d * size >= RUN_BYTES => d,
                _ => cap,
            }
        };
        // Page-wide sub-rows, narrower when that would leave a worker idle.
        let mut w = (RUN_BYTES / size).clamp(1, k);
        if k.div_ceil(w) < threads {
            w = k.div_ceil(threads);
        }
        Plan {
            k,
            main: n - n % k,
            w,
        }
    }
}

/// The largest divisor of `n` that is at most `cap`: divisors pair up as
/// `(d, n / d)` with `d <= sqrt(n)`, so `min(cap, sqrt(n))` trials find it.
fn largest_divisor_at_most(n: usize, cap: usize) -> usize {
    let mut best = 1;
    let mut d = 1;
    while d <= cap && d <= n / d {
        if n % d == 0 {
            best = best.max(d);
            if n / d <= cap {
                best = best.max(n / d);
            }
        }
        d += 1;
    }
    best
}

/// Out-of-place transpose of the `rows x cols` row-major `src` into
/// `dst`, `TILE` source rows at a time.
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

/// Pass A on the `main`-struct prefix: each chunk of `k` structs turns
/// from `[k][m]` into `[m][k]` (`to_soa`), or back.
fn chunk_transposes<T: Copy + Send + Sync + 'static>(
    head: &mut [T],
    m: usize,
    k: usize,
    to_soa: bool,
) -> Result<(), TransposeAborted> {
    let (rows, cols) = if to_soa { (k, m) } else { (m, k) };
    run_pass(phases::CHUNK_TRANSPOSE, head, |head| {
        stage_blocks(head, k * m, phases::CHUNK_TRANSPOSE, |scratch, _, chunk| {
            transpose_into(scratch.copy_of(chunk), chunk, rows, cols)
        })
    })
}

/// Pass B on the `main`-struct prefix, viewed as `L = P·m` rows of `k`
/// elements: the `P x m` matrix of blocks is transposed (`to_soa`, row
/// `v·P + p` gathers row `p·m + v`), or back; skipped when there is one
/// chunk. The gather is `σ(r) = r·m mod (L - 1)` (`r·P` back) with
/// `σ(L - 1) = L - 1`.
fn block_permute<T: Copy + Send + Sync + 'static>(
    head: &mut [T],
    m: usize,
    plan: Plan,
    to_soa: bool,
) -> Result<(), TransposeAborted> {
    let p = plan.main / plan.k;
    if p <= 1 {
        return Ok(());
    }
    let blocks = if to_soa { (p, m) } else { (m, p) };
    run_pass(phases::BLOCK_PERMUTE, head, |head| {
        cache_aware::transpose_blocks(head, blocks, plan.k, plan.w, phases::BLOCK_PERMUTE)
    })
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
    let plan = Plan::new(m, n, core::mem::size_of::<T>(), ipt_pool::num_threads());
    let main = plan.main;
    // Peel: gather the tail structs (AoS order), then close each field's
    // run up to `v·main`, first field first (each moves left).
    let mut stash = Vec::with_capacity((n - main) * m);
    for t in main..n {
        stash.extend((0..m).map(|v| data[v * n + t]));
    }
    if main < n {
        for v in 1..m {
            data.copy_within(v * n..v * n + main, v * main);
        }
    }
    // The tail is final already; writing it first keeps the buffer a
    // permutation of its input should a pass abort.
    let (head, tail) = data.split_at_mut(main * m);
    tail.copy_from_slice(&stash);
    block_permute(head, m, plan, false)?;
    chunk_transposes(head, m, plan.k, false)
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
    let plan = Plan::new(m, n, core::mem::size_of::<T>(), ipt_pool::num_threads());
    let main = plan.main;
    let (head, tail) = data.split_at_mut(main * m);
    let stash = tail.to_vec();
    chunk_transposes(head, m, plan.k, true)?;
    block_permute(head, m, plan, true)?;
    // Peel: open each field's run out to `v·n`, last field first (each
    // moves right), then drop the tail structs' fields into the gaps.
    if main < n {
        for v in (1..m).rev() {
            data.copy_within(v * main..(v + 1) * main, v * n);
        }
        for (t, st) in stash.chunks_exact(m).enumerate() {
            for (v, &x) in st.iter().enumerate() {
                data[v * n + main + t] = x;
            }
        }
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
            // The kernels accept any shape, including m > n.
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
        // Struct counts straddling the one-chunk limit: one chunk, then a
        // chunk plus a one-struct tail, then two chunks plus a short one.
        let m = 6usize;
        let k = CHUNK_BYTES / (m * 8);
        for n in [k - 1, k, k + 1, 2 * k + 3] {
            let mut a = vec![0u64; m * n];
            fill_pattern(&mut a);
            let mut b = a.clone();
            transpose_skinny_c2r(&mut a, m, n).unwrap();
            ipt_core::c2r(&mut b, m, n, &mut Scratch::new());
            assert_eq!(a, b, "{m}x{n}");
        }
    }

    #[test]
    fn plan_chunks_divide_the_prefix_and_peel_only_without_a_divisor() {
        for m in 2..=31usize {
            for size in [1usize, 4, 8] {
                let cap = CHUNK_BYTES / (m * size);
                let counts = [2, 97, cap, cap + 1, 3 * cap, 65_521, 65_536, 13_107_200];
                for n in counts {
                    for threads in [1usize, 2, 4] {
                        let p = Plan::new(m, n, size, threads);
                        let what = format!("m={m} n={n} size={size} threads={threads}: {p:?}");
                        assert_eq!(p.main % p.k, 0, "{what}");
                        assert!(p.main <= n && n - p.main < p.k, "{what}");
                        assert!(p.k * m * size <= CHUNK_BYTES, "{what}");
                        assert!(1 <= p.w && p.w <= p.k, "{what}");
                        let d = largest_divisor_at_most(n, cap);
                        let usable = n <= cap || d * size >= RUN_BYTES;
                        assert_eq!(p.main < n, !usable && n % cap != 0, "{what}");
                        if usable {
                            assert_eq!(p.k, if n <= cap { n } else { d }, "{what}");
                        }
                    }
                }
            }
        }
        assert_eq!(largest_divisor_at_most(13_107_200, 5461), 5120);
        assert_eq!(largest_divisor_at_most(65_521, 8192), 1);
        assert_eq!(largest_divisor_at_most(36, 36), 36);
    }
}
