//! Intensive randomized soak tests — run explicitly with
//! `cargo test --release --test soak -- --ignored`.
//!
//! These push far more shapes, sizes and engine combinations than the
//! default suites (minutes, not seconds). They exist for pre-release
//! confidence sweeps and for reproducing rare shape-dependent bugs.
//! Shapes and payloads come from the deterministic
//! `ipt_core::check::Rng`, so every sweep is reproducible. The
//! fault-injected soak is its own target, `soak_faults.rs`.

use ipt::prelude::*;
use ipt_core::check::{reference_transpose, Rng};

#[test]
#[ignore = "soak: minutes of randomized sweeps; run with -- --ignored"]
fn soak_every_engine_thousands_of_shapes() {
    let mut rng = Rng::new(0xdead_5eed);
    let mut scratch = Scratch::new();
    for round in 0..2000 {
        let m = rng.range(1..300);
        let n = rng.range(1..300);
        let input: Vec<u64> = (0..m * n).map(|_| rng.next_u64()).collect();
        let want = reference_transpose(&input, m, n, Layout::RowMajor);

        let mut a = input.clone();
        ipt_core::c2r(&mut a, m, n, &mut scratch);
        assert_eq!(a, want, "core {m}x{n} round {round}");

        let mut a = input.clone();
        ipt_parallel::c2r_parallel(&mut a, m, n, &ParOptions::default()).unwrap();
        assert_eq!(a, want, "parallel {m}x{n} round {round}");

        let mut a = input.clone();
        ipt_core::noncopy::c2r_swaps(&mut a, m, n);
        assert_eq!(a, want, "noncopy {m}x{n} round {round}");

        let mut a = input.clone();
        ipt_aos_soa::transpose_skinny_c2r(&mut a, m, n).unwrap();
        assert_eq!(a, want, "skinny {m}x{n} round {round}");

        if round % 4 == 0 {
            let mut a = input.clone();
            ipt_baselines::transpose_sung(&mut a, m, n);
            assert_eq!(a, want, "sung {m}x{n} round {round}");

            let mut a = input.clone();
            ipt_baselines::transpose_gustavson(&mut a, m, n);
            assert_eq!(a, want, "gustavson {m}x{n} round {round}");
        }
    }
}

#[test]
#[ignore = "soak: large-matrix stress; run with -- --ignored"]
fn soak_large_matrices() {
    let mut rng = Rng::new(42);
    let mut scratch = Scratch::new();
    for _ in 0..8 {
        let m = rng.range(1000..4000);
        let n = rng.range(1000..4000);
        let mut a: Vec<u64> = (0..m * n).map(|i| i as u64).collect();
        let orig = a.clone();
        ipt_parallel::c2r_parallel(&mut a, m, n, &ParOptions::default()).unwrap();
        // Spot-check the permutation without a full reference buffer.
        for _ in 0..1000 {
            let i = rng.range(0..m);
            let j = rng.range(0..n);
            assert_eq!(a[j * m + i], orig[i * n + j], "{m}x{n} ({i},{j})");
        }
        ipt_core::r2c(&mut a, m, n, &mut scratch);
        assert_eq!(a, orig, "{m}x{n} round trip");
    }
}

#[test]
#[ignore = "soak: erased element-size sweep; run with -- --ignored"]
fn soak_erased_all_element_sizes() {
    let mut rng = Rng::new(7);
    for elem in 1..=64usize {
        let m = rng.range(2..60);
        let n = rng.range(2..60);
        let orig: Vec<u8> = (0..m * n * elem).map(|_| rng.next_u64() as u8).collect();
        let mut a = orig.clone();
        ipt_core::erased::transpose_erased(&mut a, m, n, elem, Layout::RowMajor);
        for i in 0..n {
            for j in 0..m {
                assert_eq!(
                    &a[(i * m + j) * elem..(i * m + j + 1) * elem],
                    &orig[(j * n + i) * elem..(j * n + i + 1) * elem],
                    "elem={elem} ({i},{j})"
                );
            }
        }
        ipt_core::erased::transpose_erased(&mut a, n, m, elem, Layout::RowMajor);
        assert_eq!(a, orig, "elem={elem} round trip");
    }
}

#[test]
#[ignore = "soak: warp-sim exhaustive (m, lanes) grid; run with -- --ignored"]
fn soak_warp_all_geometries() {
    for m in 1..=48usize {
        for lanes in 1..=48usize {
            let data: Vec<u32> = (0..(m * lanes) as u32).collect();
            let mut warp = Warp::from_matrix(&data, m, lanes);
            warp_sim::c2r_in_register(&mut warp);
            let mut want = data.clone();
            ipt_core::c2r(&mut want, m, lanes, &mut Scratch::new());
            assert_eq!(warp.as_matrix(), &want[..], "{m}x{lanes}");
            warp_sim::r2c_in_register(&mut warp);
            assert_eq!(warp.as_matrix(), &data[..], "{m}x{lanes} inverse");
        }
    }
}
