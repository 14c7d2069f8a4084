//! Property tests for the parallel and cache-aware implementations.
//!
//! The central invariant: every parallel/cache-aware code path computes
//! byte-identical results to the sequential reference, for arbitrary
//! shapes, group widths and block heights — including degenerate tunings
//! (1-wide groups, 1-row blocks) that maximize edge-case traffic.
//!
//! Cases come from the deterministic `ipt_core::check::Rng` (fixed
//! seeds); the pool is widened to at least two workers up front so the
//! multi-threaded paths run even on single-CPU machines.

use ipt_core::check::{fill_pattern, Rng};
use ipt_core::index::C2rParams;
use ipt_core::kernels::{RowShuffleKernel, ShuffleDirection};
use ipt_core::Scratch;
use ipt_parallel::{batched, c2r_parallel, cache_aware, r2c_parallel, ParOptions};

const CASES: usize = 128;

fn opts(w: usize, h: usize) -> ParOptions {
    ParOptions {
        col_group: w,
        block_rows: h,
    }
}

/// Widen the global pool so the spawning paths are exercised even when
/// `available_parallelism() == 1`.
fn force_multithreaded_pool() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        if ipt_pool::num_threads() < 2 {
            ipt_pool::set_num_threads(2);
        }
    });
}

#[test]
fn c2r_parallel_equals_core() {
    force_multithreaded_pool();
    let mut rng = Rng::new(0x9a11_0001);
    for case in 0..CASES {
        let (m, n) = (rng.range(1..80), rng.range(1..80));
        let (w, h) = (rng.range(1..20), rng.range(1..20));
        let mut a = vec![0u64; m * n];
        fill_pattern(&mut a);
        let mut b = a.clone();
        c2r_parallel(&mut a, m, n, &opts(w, h)).unwrap();
        ipt_core::c2r(&mut b, m, n, &mut Scratch::new());
        assert_eq!(a, b, "case {case}: {m}x{n} w={w} h={h}");
    }
}

#[test]
fn r2c_parallel_equals_core() {
    force_multithreaded_pool();
    let mut rng = Rng::new(0x9a11_0002);
    for case in 0..CASES {
        let (m, n) = (rng.range(1..80), rng.range(1..80));
        let (w, h) = (rng.range(1..20), rng.range(1..20));
        let mut a = vec![0u32; m * n];
        fill_pattern(&mut a);
        let mut b = a.clone();
        r2c_parallel(&mut a, m, n, &opts(w, h)).unwrap();
        ipt_core::r2c(&mut b, m, n, &mut Scratch::new());
        assert_eq!(a, b, "case {case}: {m}x{n} w={w} h={h}");
    }
}

#[test]
fn cache_aware_rotation_equals_elementwise() {
    force_multithreaded_pool();
    let mut rng = Rng::new(0x9a11_0003);
    for case in 0..CASES {
        let (m, n) = (rng.range(2..60), rng.range(1..60));
        let (w, h) = (rng.range(1..16), rng.range(1..16));
        let (mult, offset) = (rng.range(0..10), rng.range(0..10));
        // Arbitrary affine amount family — beyond the four the algorithm
        // needs, stressing the coarse-picker's generic fallback bound.
        let amount = move |j: usize| j * mult + offset;
        let mut a = vec![0u64; m * n];
        fill_pattern(&mut a);
        let orig = a.clone();
        cache_aware::rotate_columns_cache_aware(&mut a, m, n, w, h, amount).unwrap();
        for j in 0..n {
            let k = amount(j) % m;
            for i in 0..m {
                assert_eq!(
                    a[i * n + j],
                    orig[((i + k) % m) * n + j],
                    "case {case}: {m}x{n} w={w} h={h} mult={mult} offset={offset} ({i},{j})"
                );
            }
        }
    }
}

#[test]
fn fused_col_shuffle_equals_sequential_decomposition() {
    force_multithreaded_pool();
    let mut rng = Rng::new(0x9a11_0004);
    for case in 0..CASES {
        let (m, n) = (rng.range(2..60), rng.range(1..60));
        let (w, h) = (rng.range(1..24), rng.range(1..12));
        let p = C2rParams::new(m, n);
        let mut fused = vec![0u32; m * n];
        fill_pattern(&mut fused);
        let mut seq = fused.clone();
        cache_aware::col_shuffle_fused(&mut fused, &p, w, h).unwrap();
        let mut tmp = vec![0u32; m.max(n)];
        ipt_core::permute::col_shuffle_gather(&mut seq, &p, &mut tmp);
        assert_eq!(fused, seq, "case {case}: {m}x{n} w={w} h={h}");
    }
}

#[test]
fn fused_inverse_round_trips() {
    force_multithreaded_pool();
    let mut rng = Rng::new(0x9a11_0005);
    for case in 0..CASES {
        let (m, n) = (rng.range(2..50), rng.range(1..50));
        let (w, h) = (rng.range(1..16), rng.range(1..8));
        let p = C2rParams::new(m, n);
        let mut a = vec![0u64; m * n];
        fill_pattern(&mut a);
        let orig = a.clone();
        cache_aware::col_shuffle_fused(&mut a, &p, w, h).unwrap();
        cache_aware::col_shuffle_fused_inverse(&mut a, &p, w, h).unwrap();
        assert_eq!(a, orig, "case {case}: {m}x{n} w={w} h={h}");
    }
}

#[test]
fn batched_equals_loop() {
    force_multithreaded_pool();
    let mut rng = Rng::new(0x9a11_0006);
    for case in 0..CASES {
        let batch = rng.range(1..6);
        let (m, n) = (rng.range(1..24), rng.range(1..24));
        let mut a = vec![0u64; batch * m * n];
        fill_pattern(&mut a);
        let mut want = a.clone();
        let mut s = Scratch::new();
        for mat in want.chunks_exact_mut(m * n) {
            ipt_core::c2r(mat, m, n, &mut s);
        }
        batched::c2r_batched(&mut a, batch, m, n).unwrap();
        assert_eq!(a, want, "case {case}: batch={batch} {m}x{n}");
    }
}

#[test]
fn incremental_row_shuffle_is_involutive_with_forward() {
    force_multithreaded_pool();
    let mut rng = Rng::new(0x9a11_0007);
    for case in 0..CASES {
        let (m, n) = (rng.range(1..80), rng.range(1..80));
        let p = C2rParams::new(m, n);
        let mut a = vec![0u32; m * n];
        fill_pattern(&mut a);
        let orig = a.clone();
        for dir in [ShuffleDirection::Inverse, ShuffleDirection::Forward] {
            ipt_parallel::rows::row_shuffle_parallel_with(
                &mut a,
                &p,
                RowShuffleKernel::Scalar,
                dir,
            )
            .unwrap();
        }
        assert_eq!(a, orig, "case {case}: {m}x{n}");
    }
}

/// Determinism under repetition: thread scheduling must not affect output.
#[test]
fn parallel_results_are_deterministic() {
    force_multithreaded_pool();
    let (m, n) = (61usize, 47usize);
    let run = || {
        let mut a = vec![0u64; m * n];
        fill_pattern(&mut a);
        c2r_parallel(&mut a, m, n, &ParOptions::default()).unwrap();
        a
    };
    let first = run();
    for _ in 0..5 {
        assert_eq!(run(), first);
    }
}
