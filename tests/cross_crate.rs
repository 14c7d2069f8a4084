//! Cross-crate integration: every transposition implementation in the
//! workspace must agree with every other on the same inputs.
//!
//! The implementations cover four crates (core sequential, parallel
//! cache-aware and plain, the skinny AoS specialization, the three
//! baselines and the warp-sim in-register version), which share only the
//! paper's math — agreement across them is strong evidence each transcribed
//! it correctly.

use ipt::prelude::*;
use ipt_baselines::{
    transpose_cycle_following, transpose_cycle_following_marked, transpose_gustavson,
    transpose_sung,
};
use ipt_core::check::{fill_pattern, reference_transpose};

fn shapes() -> Vec<(usize, usize)> {
    vec![
        (2, 3),
        (3, 2),
        (3, 8),
        (8, 3),
        (4, 8),
        (16, 16),
        (17, 19),
        (24, 36),
        (36, 24),
        (1, 40),
        (40, 1),
        (60, 84),
        (89, 97),
        (128, 50),
        (50, 128),
        (31, 500),
        (500, 31),
    ]
}

type Impl = Box<dyn Fn(&mut Vec<u64>, usize, usize)>;

/// All implementations that transpose a row-major m x n buffer in place.
fn implementations() -> Vec<(&'static str, Impl)> {
    vec![
        (
            "core::c2r",
            Box::new(|d: &mut Vec<u64>, m, n| ipt_core::c2r(d, m, n, &mut Scratch::new())),
        ),
        (
            "core::c2r_decomposed",
            Box::new(|d: &mut Vec<u64>, m, n| {
                ipt_core::c2r::c2r_decomposed(d, m, n, &mut Scratch::new())
            }),
        ),
        (
            "core::c2r_literal",
            Box::new(|d: &mut Vec<u64>, m, n| {
                ipt_core::c2r::c2r_literal(d, m, n, &mut Scratch::new())
            }),
        ),
        (
            "core::r2c (swapped dims)",
            Box::new(|d: &mut Vec<u64>, m, n| ipt_core::r2c(d, n, m, &mut Scratch::new())),
        ),
        (
            "parallel cache-aware",
            Box::new(|d: &mut Vec<u64>, m, n| {
                ipt_parallel::c2r_parallel(d, m, n, &ParOptions::default()).unwrap()
            }),
        ),
        (
            "parallel r2c (swapped dims)",
            Box::new(|d: &mut Vec<u64>, m, n| {
                ipt_parallel::r2c_parallel(d, n, m, &ParOptions::default()).unwrap()
            }),
        ),
        (
            "aos-soa skinny c2r",
            Box::new(|d: &mut Vec<u64>, m, n| ipt_aos_soa::transpose_skinny_c2r(d, m, n).unwrap()),
        ),
        (
            "aos-soa skinny r2c (swapped dims)",
            Box::new(|d: &mut Vec<u64>, m, n| ipt_aos_soa::transpose_skinny_r2c(d, n, m).unwrap()),
        ),
        (
            "baseline cycle-following",
            Box::new(|d: &mut Vec<u64>, m, n| transpose_cycle_following(d, m, n)),
        ),
        (
            "baseline cycle-following marked",
            Box::new(|d: &mut Vec<u64>, m, n| {
                transpose_cycle_following_marked(d, m, n);
            }),
        ),
        (
            "baseline gustavson",
            Box::new(|d: &mut Vec<u64>, m, n| {
                transpose_gustavson(d, m, n);
            }),
        ),
        (
            "baseline sung",
            Box::new(|d: &mut Vec<u64>, m, n| {
                transpose_sung(d, m, n);
            }),
        ),
    ]
}

#[test]
fn all_implementations_agree_with_the_reference() {
    for (m, n) in shapes() {
        let mut input = vec![0u64; m * n];
        fill_pattern(&mut input);
        let want = reference_transpose(&input, m, n, Layout::RowMajor);
        for (name, f) in implementations() {
            let mut got = input.clone();
            f(&mut got, m, n);
            assert_eq!(got, want, "{name} on {m}x{n}");
        }
    }
}

#[test]
fn dow_baseline_agrees_on_divisible_shapes() {
    for (m, n) in shapes() {
        if !ipt_baselines::dow_supports(m, n) {
            continue;
        }
        let mut input = vec![0u64; m * n];
        fill_pattern(&mut input);
        let want = reference_transpose(&input, m, n, Layout::RowMajor);
        ipt_baselines::transpose_dow(&mut input, m, n);
        assert_eq!(input, want, "dow on {m}x{n}");
    }
}

#[test]
fn warp_in_register_agrees_with_core_for_warp_shapes() {
    for m in 2..=32usize {
        let n = 32usize;
        let data: Vec<u64> = (0..(m * n) as u64).collect();
        let mut warp = Warp::from_matrix(&data, m, n);
        warp_sim::c2r_in_register(&mut warp);
        let mut want = data.clone();
        ipt_core::c2r(&mut want, m, n, &mut Scratch::new());
        assert_eq!(warp.as_matrix(), &want[..], "m={m}");
    }
}

#[test]
fn facade_transpose_equals_component_calls() {
    let (m, n) = (48usize, 36usize);
    let mut via_facade = vec![0u32; m * n];
    fill_pattern(&mut via_facade);
    let mut via_core = via_facade.clone();
    transpose(&mut via_facade, m, n, Layout::RowMajor, &mut Scratch::new());
    // m > n: the heuristic picks C2R.
    ipt_core::c2r(&mut via_core, m, n, &mut Scratch::new());
    assert_eq!(via_facade, via_core);
}

#[test]
fn aos_soa_round_trip_matches_double_transpose() {
    let (n_structs, fields) = (321usize, 7usize);
    let mut a = vec![0u64; n_structs * fields];
    fill_pattern(&mut a);
    let orig = a.clone();

    aos_to_soa(&mut a, n_structs, fields).unwrap();
    let mut b = orig.clone();
    ipt_core::c2r(&mut b, n_structs, fields, &mut Scratch::new());
    assert_eq!(a, b, "AoS->SoA is the N x s transpose");

    soa_to_aos(&mut a, n_structs, fields).unwrap();
    assert_eq!(a, orig, "round trip");
}

#[test]
fn mixed_sequence_of_implementations_composes() {
    // Transpose with one implementation, transpose back with another —
    // any pair must compose to the identity.
    let (m, n) = (45usize, 80usize);
    let mut data = vec![0u64; m * n];
    fill_pattern(&mut data);
    let orig = data.clone();

    ipt_parallel::c2r_parallel(&mut data, m, n, &ParOptions::default()).unwrap();
    ipt_core::r2c(&mut data, m, n, &mut Scratch::new());
    assert_eq!(data, orig, "parallel c2r then core r2c");

    transpose_gustavson(&mut data, m, n);
    ipt_parallel::r2c_parallel(&mut data, m, n, &ParOptions::default()).unwrap();
    assert_eq!(data, orig, "gustavson then parallel r2c");

    transpose_cycle_following(&mut data, m, n);
    ipt_aos_soa::transpose_skinny_r2c(&mut data, m, n).unwrap();
    assert_eq!(data, orig, "cycle-following then skinny r2c");
}

/// Every entry point that takes a layout resolves its call through the
/// one plan resolver; each must agree with the reference in both
/// layouts, with every forced direction, on vectors and on both sides of
/// the §5.2 tie.
#[test]
fn every_layout_entry_point_agrees_with_the_reference() {
    type Call = Box<dyn Fn(&mut Vec<u64>, usize, usize, Layout)>;
    let opts = ParOptions::default();
    let mut calls: Vec<(String, Call)> = vec![
        (
            "core::transpose".into(),
            Box::new(|d: &mut Vec<u64>, r, c, l| transpose(d, r, c, l, &mut Scratch::new())),
        ),
        (
            "noncopy::transpose_any".into(),
            Box::new(|d: &mut Vec<u64>, r, c, l| ipt_core::noncopy::transpose_any(d, r, c, l)),
        ),
        (
            "erased::transpose_erased".into(),
            Box::new(|d: &mut Vec<u64>, r, c, l| {
                let mut bytes: Vec<u8> = d.iter().flat_map(|v| v.to_le_bytes()).collect();
                ipt_core::erased::transpose_erased(&mut bytes, r, c, 8, l);
                for (v, b) in d.iter_mut().zip(bytes.chunks_exact(8)) {
                    *v = u64::from_le_bytes(b.try_into().unwrap());
                }
            }),
        ),
        (
            "transpose_parallel".into(),
            Box::new(move |d: &mut Vec<u64>, r, c, l| {
                ipt_parallel::transpose_parallel(d, r, c, l, &opts).unwrap()
            }),
        ),
        (
            "batched::transpose_batched (batch 1)".into(),
            Box::new(|d: &mut Vec<u64>, r, c, l| {
                ipt_parallel::batched::transpose_batched(d, 1, r, c, l).unwrap()
            }),
        ),
    ];
    for alg in [Algorithm::C2r, Algorithm::R2c, Algorithm::Auto] {
        calls.push((
            format!("core::transpose_with {alg:?}"),
            Box::new(move |d: &mut Vec<u64>, r, c, l| {
                transpose_with(d, r, c, l, alg, &mut Scratch::new())
            }),
        ));
        calls.push((
            format!("transpose_parallel_with {alg:?}"),
            Box::new(move |d: &mut Vec<u64>, r, c, l| {
                ipt_parallel::transpose_parallel_with(d, r, c, l, alg, &opts).unwrap()
            }),
        ));
    }
    let mut grid = shapes();
    grid.extend([(0, 5), (5, 0), (1, 1), (7, 7), (12, 12)]);
    for (rows, cols) in grid {
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            let mut input = vec![0u64; rows * cols];
            fill_pattern(&mut input);
            let want = reference_transpose(&input, rows, cols, layout);
            for (name, call) in &calls {
                let mut got = input.clone();
                call(&mut got, rows, cols, layout);
                assert_eq!(got, want, "{name} on {rows}x{cols} {layout:?}");
            }
        }
    }
}
