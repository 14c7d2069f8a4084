//! The §6.1 skinny route (DESIGN.md §7): AoS⇄SoA as the two-level
//! transpose. With `m` fields and `n` structs, the AoS `n x m` is one
//! stack `[P][K][m]` of `P` chunks of `K` structs, `n = P·K`: AoS → SoA
//! (R2C) is its two-level transpose, each chunk (at most 512 KiB) staged
//! in the worker's scratch, and SoA → AoS (C2R) the inverse. Auxiliary
//! space is one chunk per worker plus a `P·m`-entry visited mask, not
//! Theorem 6's `O(max(m, n))`. When `n` has no divisor that makes a
//! useful chunk (a prime `n`, say), the last `n mod K` structs are
//! **peeled**: stashed (at most one chunk), the two passes run on the
//! divisible prefix, and one `copy_within` sweep moves each field's run
//! to its final offset.

use std::mem::size_of;

use crate::two_level::{self, RUN_BYTES};
use crate::{Plan, Route, TransposeAborted};
use ipt_core::{Algorithm, Direction, Layout};

/// Bytes of one chunk: the most the chunk pass stages per task.
const CHUNK_BYTES: usize = 512 * 1024;

/// Skinny C2R (SoA → AoS): identical contract to `ipt_core::c2r(data,
/// m, n)`, for a small `m` (the struct's field count) — consumes an
/// `m x n` row-major buffer, leaves the `n x m` row-major transpose.
pub fn transpose_skinny_c2r<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    m: usize,
    n: usize,
) -> Result<(), TransposeAborted> {
    let core = ipt_core::Plan::new(data.len(), m, n, Layout::RowMajor, Algorithm::C2r);
    crate::run(data, Plan::skinny(core, size_of::<T>()))
}

/// Skinny R2C (AoS → SoA): identical contract to `ipt_core::r2c(data,
/// m, n)`, for a small `m` — consumes an `n x m` row-major buffer,
/// leaves the `m x n` row-major transpose.
pub fn transpose_skinny_r2c<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    m: usize,
    n: usize,
) -> Result<(), TransposeAborted> {
    let core = ipt_core::Plan::new(data.len(), n, m, Layout::RowMajor, Algorithm::R2c);
    crate::run(data, Plan::skinny(core, size_of::<T>()))
}

/// The route of a conversion of `n` structs of `m` fields of `size`
/// bytes: [`Route::Skinny`] with `K` the largest divisor of `n` whose
/// chunk fits [`CHUNK_BYTES`]; when that divisor is too small to fill
/// one [`RUN_BYTES`] run, `K` is the largest chunk that fits and the
/// tail is peeled.
pub(crate) fn route(m: usize, n: usize, size: usize) -> Route {
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
    Route::Skinny { k, main: n - n % k }
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

/// The skinny route on the plan's `m x n` (`m` fields, `n` structs): the
/// two-level transpose of the `main`-struct prefix in chunks of `k`
/// structs, and the peel of the other `n - main`.
pub(crate) fn run<T: Copy + Send + Sync + 'static>(
    data: &mut [T],
    dir: Direction,
    (m, n): (usize, usize),
    k: usize,
    main: usize,
) -> Result<(), TransposeAborted> {
    let stack = (main / k, k, m);
    match dir {
        Direction::C2r => {
            // Peel: gather the tail structs (AoS order), then close each
            // field's run up to `v·main`, first field first (each moves
            // left).
            let mut stash = Vec::with_capacity((n - main) * m);
            for t in main..n {
                stash.extend((0..m).map(|v| data[v * n + t]));
            }
            if main < n {
                for v in 1..m {
                    data.copy_within(v * n..v * n + main, v * main);
                }
            }
            // The tail is final already; writing it first keeps the
            // buffer a permutation of its input should a pass abort.
            let (head, tail) = data.split_at_mut(main * m);
            tail.copy_from_slice(&stash);
            two_level::run(head, stack, true)
        }
        Direction::R2c => {
            let (head, tail) = data.split_at_mut(main * m);
            let stash = tail.to_vec();
            two_level::run(head, stack, false)?;
            // Peel: open each field's run out to `v·n`, last field first
            // (each moves right), then drop the tail structs' fields into
            // the gaps.
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two_level::block_width;
    use ipt_core::check::fill_pattern;
    use ipt_core::Scratch;

    /// What a conversion resolves to: the route's chunking and the block
    /// pass's width on a pool `threads` wide.
    #[derive(Debug)]
    struct Plan {
        k: usize,
        main: usize,
        w: usize,
    }

    impl Plan {
        fn new(m: usize, n: usize, size: usize, threads: usize) -> Plan {
            let Route::Skinny { k, main } = route(m, n, size) else {
                unreachable!("the skinny route");
            };
            let w = block_width(k, size, threads);
            Plan { k, main, w }
        }
    }

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
