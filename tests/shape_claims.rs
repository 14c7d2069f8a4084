//! Deterministic checks of the paper's evaluation-shape claims.
//!
//! Wall-clock comparisons are noisy on shared hosts, so these tests pin
//! the *mechanisms* behind each figure's shape using the deterministic
//! substrates (transaction counts, the device model, auxiliary-space
//! accounting, op counts) — if one of these breaks, the corresponding
//! figure harness would stop reproducing the paper.

use ipt_core::check::fill_pattern;
use memsim::model::DeviceModel;
use memsim::MemoryConfig;
use warp_sim::{AccessStrategy, CoalescedPtr};

// ---- Figure 3 / Table 1 mechanisms -------------------------------------

#[test]
fn cycle_following_probe_work_grows_superlinearly() {
    // The minimal cycle follower's leader-test probes are the
    // O(mn log mn) term the paper cites: per-element probe work must
    // *grow* with the matrix, while the decomposition's per-element work
    // is constant. Count probes by replicating the leader scan.
    let probes_per_element = |m: usize, n: usize| {
        let mn1 = m * n - 1;
        let source = |p: usize| (p * n) % mn1;
        let mut probes = 0usize;
        for start in 1..mn1 {
            let mut s = source(start);
            probes += 1;
            while s > start {
                s = source(s);
                probes += 1;
            }
        }
        probes as f64 / (m * n) as f64
    };
    // Near-square coprime shapes at three scales (the log-factor regime;
    // some special shapes have atypically cheap scans, so near-square is
    // the representative family).
    let small = probes_per_element(50, 51);
    let mid = probes_per_element(100, 101);
    let large = probes_per_element(250, 251);
    assert!(
        small < mid && mid < large,
        "probe work per element should grow: {small:.2} -> {mid:.2} -> {large:.2}"
    );
    assert!(large > 4.0, "probe work must dwarf the move work at scale");
}

#[test]
fn decomposition_scratch_is_sublinear_in_elements() {
    // Table 1's space story: C2R needs max(m, n) elements; the marked
    // cycle follower needs mn bits.
    let (m, n) = (200usize, 300usize);
    let mut s = ipt_core::Scratch::new();
    let mut a = vec![0u64; m * n];
    fill_pattern(&mut a);
    ipt_core::c2r(&mut a, m, n, &mut s);
    assert!(s.len() <= n);

    let mut b = vec![0u64; m * n];
    fill_pattern(&mut b);
    let aux = ipt_baselines::transpose_cycle_following_marked(&mut b, m, n);
    assert!(aux * 8 >= m * n - 64, "marked variant pays ~1 bit/element");
}

// ---- Figures 4/5 mechanisms ---------------------------------------------

#[test]
fn model_bands_sit_where_the_paper_draws_them() {
    let d = DeviceModel::default();
    // Figure 4: C2R fast band at small n. On-chip threshold for f64 is
    // onchip_bytes / 8 elements.
    let thr = (d.onchip_bytes / 8) as usize;
    let inside = d.c2r_gbps(20_000, thr - 1, 8);
    let outside = d.c2r_gbps(20_000, thr * 4, 8);
    assert!(inside > outside * 1.25, "{inside} vs {outside}");
    // Figure 5: R2C fast band at small m, same threshold.
    let inside = d.r2c_gbps(thr - 1, 20_000, 8);
    let outside = d.r2c_gbps(thr * 4, 20_000, 8);
    assert!(inside > outside * 1.25, "{inside} vs {outside}");
}

#[test]
fn heuristic_matches_the_better_direction_in_the_model() {
    let d = DeviceModel::default();
    for (m, n) in [(20_000usize, 2_000usize), (2_000, 20_000), (9_999, 10_001)] {
        let h = d.heuristic_gbps(m, n, 8);
        let best = d.c2r_gbps(m, n, 8).max(d.r2c_gbps(m, n, 8));
        assert!(
            (h - best).abs() < best * 0.35,
            "{m}x{n}: heuristic {h} vs best {best}"
        );
    }
}

// ---- Figure 6 / Table 2 mechanisms ---------------------------------------

#[test]
fn sung_tiles_collapse_on_primes_but_not_composites() {
    let (tr, _) = ipt_baselines::sung::sung_tiles(7919, 4096); // prime m
    assert_eq!(tr, 1);
    let (tr, tc) = ipt_baselines::sung::sung_tiles(7200, 10368);
    assert!(tr >= 32 && tc >= 32);
}

#[test]
fn model_predicts_doubles_beat_floats_for_c2r() {
    let d = DeviceModel::default();
    // Representative paper-scale shapes (off the on-chip band).
    for (m, n) in [
        (15_000usize, 12_000usize),
        (18_000, 9_000),
        (11_111, 17_000),
    ] {
        let f32_gbps = d.heuristic_gbps(m, n, 4);
        let f64_gbps = d.heuristic_gbps(m, n, 8);
        assert!(
            f64_gbps > f32_gbps,
            "{m}x{n}: f64 {f64_gbps} should beat f32 {f32_gbps}"
        );
    }
}

// ---- Figure 7 mechanism ---------------------------------------------------

#[test]
fn skinny_kernel_skips_a_pass_when_coprime() {
    // The paper's §6.1 pass count: 2 when gcd(fields, count) == 1, 3
    // otherwise, because the pre-rotation's amount is identically zero
    // when coprime. (This workspace's skinny path makes two passes in
    // both regimes; the claim checked here is the paper's.)
    let p = ipt_core::C2rParams::new(8, 989); // gcd = 1
    assert!(p.coprime());
    let p = ipt_core::C2rParams::new(8, 992); // gcd = 8
    assert!(!p.coprime());
    assert!((0..992).any(|j| p.rotate_amount(j) % 8 != 0));
}

// ---- Figures 8/9 mechanisms (beyond tests/warp_memory.rs) ----------------

#[test]
fn headline_45x_class_gap_exists_for_strided_stores() {
    // The paper's "up to 45x" claim compares C2R stores to
    // compiler-generated stores at the largest struct sizes. Our
    // transaction model yields 16x at 64-byte structs (no write-allocate
    // modeling); assert the gap is at least an order of magnitude.
    let s = 16usize; // 64-byte structs of f32
    let lanes = 32usize;
    let values: Vec<f32> = (0..lanes * s).map(|i| i as f32).collect();
    let eff = |strat| {
        let mut data = vec![0.0f32; lanes * s];
        let mut ptr = CoalescedPtr::new(&mut data, s, MemoryConfig::default());
        ptr.store_unit_stride(0, lanes, &values, strat);
        ptr.memory().write_efficiency()
    };
    let ratio = eff(AccessStrategy::C2r) / eff(AccessStrategy::Direct);
    assert!(ratio >= 10.0, "C2R:Direct store gap = {ratio}");
}

#[test]
fn in_register_transpose_uses_no_memory_traffic() {
    // The §6.2 claim: the transpose happens entirely in registers — all
    // memory transactions belong to the coalesced passes themselves.
    let s = 8usize;
    let lanes = 32usize;
    let mut data: Vec<f64> = (0..lanes * s).map(|i| i as f64).collect();
    let mut ptr = CoalescedPtr::new(&mut data, s, MemoryConfig::default());
    ptr.load_unit_stride(0, lanes, AccessStrategy::C2r);
    let st = ptr.memory().stats();
    // Exactly s coalesced read passes, nothing else.
    assert_eq!(st.read_requests, s as u64);
    assert_eq!(st.write_requests, 0);
    assert_eq!(st.bytes_read as usize, lanes * s * 8);
    // And the register work is the documented budget.
    let ops = ptr.op_counts();
    assert_eq!(ops.shuffles, s as u64);
    assert_eq!(ops.static_renames, 1);
}
