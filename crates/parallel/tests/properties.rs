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
use ipt_core::{Layout, Scratch};
use ipt_parallel::{
    batched, c2r_parallel, cache_aware, phases, r2c_parallel, tile_side, transpose_parallel,
    transpose_skinny_c2r, transpose_skinny_r2c, ParOptions,
};
use std::fmt::Debug;
use std::sync::{Mutex, MutexGuard, PoisonError};

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

/// Serializes every test here that runs a pass: some tests read the
/// process-global phase stats, which a concurrent call would pollute.
/// Poison is ignored, so one failing test does not fail the rest.
fn phase_lock() -> MutexGuard<'static, ()> {
    static PHASES: Mutex<()> = Mutex::new(());
    PHASES.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn c2r_parallel_equals_core() {
    let _phases = phase_lock();
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
    let _phases = phase_lock();
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
    let _phases = phase_lock();
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
        let site = phases::PRE_ROTATE;
        cache_aware::rotate_columns_cache_aware(&mut a, m, n, w, h, site, amount).unwrap();
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
    let _phases = phase_lock();
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
    let _phases = phase_lock();
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
    let _phases = phase_lock();
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
    let _phases = phase_lock();
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
    let _phases = phase_lock();
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

/// Panic with the first differing index when `got != want` (printing a
/// whole multi-MiB buffer would bury it).
fn assert_same<T: PartialEq + Debug>(got: &[T], want: &[T], what: &str) {
    if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
        panic!(
            "{what}: first difference at {i}: {:?} != {:?}",
            got[i], want[i]
        );
    }
}

/// C2R and R2C of the `m x n` matrix whose element `i` is `encode(i)`,
/// each against `ipt_core`, and the round trip back to the input. The
/// shape must take the tiled route with tile side `l`.
fn tiled_matches_core<T>(m: usize, n: usize, l: usize, encode: impl Fn(usize) -> T)
where
    T: Copy + Send + Sync + PartialEq + Debug + 'static,
{
    assert_eq!(tile_side::<T>(m, n), Some(l), "{m}x{n} must be tiled");
    let opts = ParOptions::default();
    let orig: Vec<T> = (0..m * n).map(encode).collect();
    let mut a = orig.clone();
    let mut want = orig.clone();
    c2r_parallel(&mut a, m, n, &opts).unwrap();
    ipt_core::c2r(&mut want, m, n, &mut Scratch::new());
    assert_same(&a, &want, &format!("c2r {m}x{n}"));
    r2c_parallel(&mut a, m, n, &opts).unwrap();
    assert_same(&a, &orig, &format!("c2r then r2c {m}x{n}"));
    r2c_parallel(&mut a, m, n, &opts).unwrap();
    let mut want = orig.clone();
    ipt_core::r2c(&mut want, m, n, &mut Scratch::new());
    assert_same(&a, &want, &format!("r2c {m}x{n}"));
}

#[test]
fn tiled_route_matches_core_on_u64_and_u32() {
    let _phases = phase_lock();
    force_multithreaded_pool();
    // One tile, then two and three tiles per panel.
    for (m, n) in [
        (512usize, 512usize),
        (512, 1024),
        (1024, 1536),
        (2048, 1024),
    ] {
        tiled_matches_core(m, n, 512, |i| i as u64);
    }
    for (m, n) in [(1024usize, 2048usize), (2048, 1024)] {
        tiled_matches_core(m, n, 1024, |i| i as u32);
    }
}

/// A 512-byte element (`L = 8`, smaller than a 16 x 16 sub-tile) and a
/// 256-byte one (`L = 16`) reach the route on small matrices.
fn big_u64(i: usize) -> [u64; 64] {
    std::array::from_fn(|k| (i as u64) << 8 | k as u64)
}

fn big_u32(i: usize) -> [u32; 64] {
    std::array::from_fn(|k| (i as u32) << 8 | k as u32)
}

#[test]
fn tiled_route_matches_core_on_large_elements() {
    let _phases = phase_lock();
    force_multithreaded_pool();
    let mut rng = Rng::new(0x9a11_0008);
    for _ in 0..24 {
        let (p, q) = (rng.range(1..9), rng.range(1..9));
        tiled_matches_core(8 * p, 8 * q, 8, big_u64);
        tiled_matches_core(16 * p, 16 * q, 16, big_u32);
    }
    // An 8-byte element of alignment 1 takes the u64 tile side, and the
    // AVX2 chunk kernel where the CPU has it.
    tiled_matches_core(1024, 1536, 512, |i| (i as u64).to_le_bytes());
    // An 8-byte struct with padding bytes takes the same route with the
    // scalar chunk kernel.
    #[repr(C)]
    #[derive(Clone, Copy, PartialEq, Debug)]
    struct Padded {
        a: u32,
        b: u16,
    }
    tiled_matches_core(1024, 1536, 512, |i| Padded {
        a: i as u32,
        b: (i % 65_521) as u16,
    });
}

/// Small enough for miri (`scripts/ci.sh miri`), which checks the
/// route's byte-block cast.
#[test]
fn tiled_route_edge_shapes() {
    let _phases = phase_lock();
    force_multithreaded_pool();
    for (l, k) in [(8usize, 5usize), (8, 1)] {
        // One tile, one panel (m = L), one block column (n = L).
        for (m, n) in [(l, l), (l, k * l), (k * l, l), (l, 2 * l), (2 * l, l)] {
            tiled_matches_core(m, n, l, big_u64);
        }
    }
    for (m, n) in [(16usize, 16usize), (16, 48), (48, 16)] {
        tiled_matches_core(m, n, 16, big_u32);
    }
}

#[test]
fn shapes_off_the_route_run_no_tile_phase() {
    let _phases = phase_lock();
    force_multithreaded_pool();
    // L = 8 divides n only, then m only: the element path, checked
    // against the reference.
    for (m, n) in [(20usize, 24usize), (24, 20)] {
        assert_eq!(tile_side::<[u64; 64]>(m, n), None);
        let orig: Vec<[u64; 64]> = (0..m * n).map(big_u64).collect();
        let before = ipt_pool::stats::snapshot();
        let mut a = orig.clone();
        c2r_parallel(&mut a, m, n, &ParOptions::default()).unwrap();
        r2c_parallel(&mut a, m, n, &ParOptions::default()).unwrap();
        let d = ipt_pool::stats::snapshot().delta_since(&before);
        assert_same(&a, &orig, &format!("{m}x{n} round trip"));
        for name in [phases::CHUNK_TRANSPOSE, phases::BLOCK_PERMUTE] {
            assert!(d.phase(name).is_none(), "{m}x{n} ran {name}: {d:?}");
        }
        assert!(d.phase(phases::ROW_SHUFFLE).is_some(), "{d:?}");
    }
}

#[test]
fn tiled_route_records_every_pass_once_it_succeeds() {
    let _phases = phase_lock();
    force_multithreaded_pool();
    // 24 x 40 elements of [u64; 64]: L = 8, so P = 3 tiles per panel and
    // the panel pass runs. The block-level passes are checked as lower
    // bounds only.
    let (m, n) = (24usize, 40usize);
    let mut a: Vec<[u64; 64]> = (0..m * n).map(big_u64).collect();
    let before = ipt_pool::stats::snapshot();
    c2r_parallel(&mut a, m, n, &ParOptions::default()).unwrap();
    let d = ipt_pool::stats::snapshot().delta_since(&before);
    let pass = 2 * (m * n * 512) as u64;
    for name in [phases::CHUNK_TRANSPOSE, phases::BLOCK_PERMUTE] {
        let p = d.phase(name).unwrap_or_else(|| panic!("{name}: {d:?}"));
        assert_eq!((p.calls, p.bytes), (1, pass), "{name}: {d:?}");
    }
    for name in [phases::ROW_SHUFFLE, phases::COL_SHUFFLE] {
        let p = d.phase(name).unwrap_or_else(|| panic!("{name}: {d:?}"));
        assert!(p.calls >= 1 && p.bytes >= pass, "{name}: {d:?}");
    }
}

#[test]
fn degenerate_shapes_run_and_record_no_pass() {
    let _phases = phase_lock();
    force_multithreaded_pool();
    let opts = ParOptions::default();
    // A side of 0 or 1 has nothing to do, though 512 is a u64 tile side.
    for (m, n) in [(0usize, 512usize), (512, 0), (0, 0), (1, 512), (512, 1)] {
        let orig: Vec<u64> = (0..(m * n) as u64).collect();
        let mut a = orig.clone();
        let before = ipt_pool::stats::snapshot();
        c2r_parallel(&mut a, m, n, &opts).unwrap();
        r2c_parallel(&mut a, m, n, &opts).unwrap();
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            transpose_parallel(&mut a, m, n, layout, &opts).unwrap();
        }
        let d = ipt_pool::stats::snapshot().delta_since(&before);
        assert_eq!(a, orig, "{m}x{n}");
        let tiled = [phases::CHUNK_TRANSPOSE, phases::BLOCK_PERMUTE];
        for name in phases::ALL.iter().chain(&tiled) {
            assert!(d.phase(name).is_none(), "{m}x{n} ran {name}: {d:?}");
        }
    }
}

#[test]
fn one_block_column_runs_no_block_level_pass() {
    let _phases = phase_lock();
    force_multithreaded_pool();
    // n = L: the m x n/L matrix of blocks is one column, so only the tile
    // and panel passes have work.
    let (m, n) = (1024usize, 512usize);
    let orig: Vec<u64> = (0..(m * n) as u64).collect();
    let mut a = orig.clone();
    let before = ipt_pool::stats::snapshot();
    c2r_parallel(&mut a, m, n, &ParOptions::default()).unwrap();
    r2c_parallel(&mut a, m, n, &ParOptions::default()).unwrap();
    let d = ipt_pool::stats::snapshot().delta_since(&before);
    assert_same(&a, &orig, "1024x512 round trip");
    for name in phases::ALL {
        assert!(d.phase(name).is_none(), "ran {name}: {d:?}");
    }
    assert_eq!(d.phase(phases::CHUNK_TRANSPOSE).map(|p| p.calls), Some(2));
}

#[test]
fn skinny_structs_wider_than_a_chunk_match_core() {
    let _phases = phase_lock();
    force_multithreaded_pool();
    // 100000 fields of u64 make an 800 KB struct, wider than a chunk:
    // both directions still equal the reference, and stage no chunk.
    let (m, n) = (100_000usize, 7usize);
    let orig: Vec<u64> = (0..(m * n) as u64).collect();
    let before = ipt_pool::stats::snapshot();
    let mut a = orig.clone();
    let mut want = orig.clone();
    transpose_skinny_c2r(&mut a, m, n).unwrap();
    ipt_core::c2r(&mut want, m, n, &mut Scratch::new());
    assert_same(&a, &want, "skinny c2r 100000 x 7");
    let mut a = orig.clone();
    let mut want = orig.clone();
    transpose_skinny_r2c(&mut a, m, n).unwrap();
    ipt_core::r2c(&mut want, m, n, &mut Scratch::new());
    assert_same(&a, &want, "skinny r2c 100000 x 7");
    let d = ipt_pool::stats::snapshot().delta_since(&before);
    assert!(d.phase(phases::CHUNK_TRANSPOSE).is_none(), "{d:?}");
}
