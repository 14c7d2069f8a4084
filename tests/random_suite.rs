//! Randomized stress suite across crates: many random shapes, random
//! data, every implementation checked against the out-of-place reference.
//!
//! This is the miniature, always-on version of the benchmark harnesses'
//! `--verify` runs. Cases come from the deterministic
//! `ipt_core::check::Rng` (fixed seeds), so every run exercises the same
//! shapes and a failing `round`/`case` index reproduces it exactly.

use ipt::prelude::*;
use ipt_core::check::{reference_transpose, Rng};

#[test]
fn random_shapes_random_data_all_engines() {
    let mut rng = Rng::new(0x5eed_1234);
    for round in 0..60 {
        let m = rng.range(1..200);
        let n = rng.range(1..200);
        let input: Vec<u64> = (0..m * n).map(|_| rng.next_u64()).collect();
        let want = reference_transpose(&input, m, n, Layout::RowMajor);

        let mut a = input.clone();
        ipt_core::c2r(&mut a, m, n, &mut Scratch::new());
        assert_eq!(a, want, "core {m}x{n} round {round}");

        let mut b = input.clone();
        ipt_parallel::c2r_parallel(&mut b, m, n, &ParOptions::default()).unwrap();
        assert_eq!(b, want, "parallel {m}x{n} round {round}");

        let mut c = input.clone();
        ipt_baselines::transpose_sung(&mut c, m, n);
        assert_eq!(c, want, "sung {m}x{n} round {round}");

        let mut d = input.clone();
        ipt_aos_soa::transpose_skinny_c2r(&mut d, m, n).unwrap();
        assert_eq!(d, want, "skinny {m}x{n} round {round}");
    }
}

#[test]
fn random_layout_and_algorithm_combinations() {
    let mut rng = Rng::new(0xfeed_beef);
    for round in 0..40 {
        let rows = rng.range(1..150);
        let cols = rng.range(1..150);
        let layout = if rng.chance(1, 2) {
            Layout::RowMajor
        } else {
            Layout::ColMajor
        };
        let alg = match rng.range(0..3) {
            0 => Algorithm::C2r,
            1 => Algorithm::R2c,
            _ => Algorithm::Auto,
        };
        let input: Vec<u32> = (0..rows * cols).map(|_| rng.next_u64() as u32).collect();
        let want = reference_transpose(&input, rows, cols, layout);
        let mut got = input.clone();
        transpose_with(&mut got, rows, cols, layout, alg, &mut Scratch::new());
        assert_eq!(got, want, "round {round}: {rows}x{cols} {layout:?} {alg:?}");
    }
}

#[test]
fn repeated_transposes_walk_back_to_identity() {
    // T(T(x)) = x for any chain of implementations, many times over.
    let mut rng = Rng::new(7);
    let (m, n) = (37usize, 53usize);
    let orig: Vec<u64> = (0..m * n).map(|_| rng.next_u64()).collect();
    let mut data = orig.clone();
    for round in 0..10 {
        // forward with a random engine...
        match round % 3 {
            0 => ipt_core::c2r(&mut data, m, n, &mut Scratch::new()),
            1 => ipt_parallel::c2r_parallel(&mut data, m, n, &ParOptions::default()).unwrap(),
            _ => {
                ipt_baselines::transpose_gustavson(&mut data, m, n);
            }
        }
        // ...and back with another.
        match round % 2 {
            0 => ipt_core::r2c(&mut data, m, n, &mut Scratch::new()),
            _ => ipt_parallel::r2c_parallel(&mut data, m, n, &ParOptions::default()).unwrap(),
        }
        assert_eq!(data, orig, "round {round}");
    }
}

#[test]
fn prop_parallel_equals_sequential() {
    let mut rng = Rng::new(0x5eed_0001);
    for case in 0..64 {
        let m = rng.range(1..120);
        let n = rng.range(1..120);
        let input: Vec<u64> = (0..m * n).map(|_| rng.next_u64()).collect();
        let mut seq = input.clone();
        let mut par = input;
        ipt_core::c2r(&mut seq, m, n, &mut Scratch::new());
        ipt_parallel::c2r_parallel(&mut par, m, n, &ParOptions::default()).unwrap();
        assert_eq!(seq, par, "case {case}: {m}x{n}");
    }
}

#[test]
fn prop_aos_soa_round_trip() {
    let mut rng = Rng::new(0x5eed_0002);
    for case in 0..64 {
        let n_structs = rng.range(1..500);
        let fields = rng.range(1..40);
        let orig: Vec<f32> = (0..n_structs * fields)
            .map(|_| rng.next_u64() as u32 as f32)
            .collect();
        let mut data = orig.clone();
        aos_to_soa(&mut data, n_structs, fields).unwrap();
        // Field k of struct i must land at k * n_structs + i.
        let probe_i = n_structs / 2;
        let probe_k = fields / 2;
        assert_eq!(
            data[probe_k * n_structs + probe_i],
            orig[probe_i * fields + probe_k],
            "case {case}: n={n_structs} s={fields}"
        );
        soa_to_aos(&mut data, n_structs, fields).unwrap();
        assert_eq!(data, orig, "case {case}: n={n_structs} s={fields}");
    }
}

/// Regression pinned from a previously shrunk counterexample
/// (`n_structs = 2, fields = 4`). The tiny shape keeps a full
/// element-by-element check of the conversion cheap, rather than the
/// single probe index the randomized round-trip test uses.
#[test]
fn aos_soa_two_structs_four_fields() {
    let (n_structs, fields) = (2usize, 4usize);
    let orig: Vec<f32> = (0..(n_structs * fields) as u32).map(|x| x as f32).collect();
    let mut data = orig.clone();
    aos_to_soa(&mut data, n_structs, fields).unwrap();
    for i in 0..n_structs {
        for k in 0..fields {
            assert_eq!(
                data[k * n_structs + i],
                orig[i * fields + k],
                "struct {i} field {k}"
            );
        }
    }
    soa_to_aos(&mut data, n_structs, fields).unwrap();
    assert_eq!(data, orig);
}

#[test]
fn prop_warp_coalesced_roundtrip() {
    let mut rng = Rng::new(0x5eed_0003);
    for case in 0..64 {
        let s = rng.range(1..24);
        let strategy = rng.range(0..3);
        let lanes = 32usize;
        let strat = match strategy {
            0 => AccessStrategy::Direct,
            1 => AccessStrategy::Vector { width_bytes: 16 },
            _ => AccessStrategy::C2r,
        };
        let orig: Vec<u64> = (0..lanes * 2 * s).map(|_| rng.next_u64()).collect();
        let mut data = orig.clone();
        let mut ptr = CoalescedPtr::new(&mut data, s, MemoryConfig::default());
        let vals = ptr.load_unit_stride(lanes / 2, lanes, strat);
        for l in 0..lanes {
            let base = (lanes / 2 + l) * s;
            assert_eq!(
                &vals[l * s..(l + 1) * s],
                &orig[base..base + s],
                "case {case}: s={s} strat={strategy} lane {l}"
            );
        }
        ptr.store_unit_stride(lanes / 2, lanes, &vals, strat);
        assert_eq!(data, orig, "case {case}: s={s} strat={strategy}");
    }
}
