//! Cross-crate observability: the `ipt_pool::stats` counters and phase
//! timers must reflect what the parallel transposes actually did, end to
//! end through the facade.
//!
//! These tests bracket regions with `snapshot()`/`delta_since` rather
//! than asserting absolute totals, because stats are process-global —
//! and hold a file-local lock so the concurrently scheduled tests in
//! this binary don't bleed into each other's deltas.

use ipt::pool::stats;
use ipt::prelude::*;
use std::sync::{Mutex, PoisonError};

/// Serializes the stats-sensitive regions across this binary's tests.
/// Guards are taken through poison, so a failing test reports its own
/// assertion and does not fail the tests after it on the lock.
static STATS_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn parallel_transpose_attributes_all_three_phases() {
    let _guard = STATS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    // 60 x 48: gcd = 12 > 1, so C2R runs pre-rotate + row + col shuffle.
    let (m, n) = (60usize, 48usize);
    let mut a: Vec<u64> = (0..(m * n) as u64).collect();
    let before = stats::snapshot();
    c2r_parallel(&mut a, m, n, &ParOptions::default()).unwrap();
    let d = stats::snapshot().delta_since(&before);

    for phase in ["pre_rotate", "row_shuffle", "col_shuffle"] {
        let p = d
            .phase(phase)
            .unwrap_or_else(|| panic!("{phase} missing: {d:?}"));
        assert!(p.calls >= 1, "{phase}: {p:?}");
    }
    assert!(d.tasks >= 1, "{d:?}");
    assert!(d.chunks >= 1, "{d:?}");
    assert!(d.phase_total_nanos() > 0, "{d:?}");
}

#[test]
fn coprime_shapes_skip_the_rotation_phase() {
    let _guard = STATS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    // 25 x 12: gcd = 1, so the pre-rotation is the identity and C2R
    // skips it entirely (paper §4.1) — no pre_rotate time may appear.
    let (m, n) = (25usize, 12usize);
    let mut a: Vec<u64> = (0..(m * n) as u64).collect();
    let before = stats::snapshot();
    c2r_parallel(&mut a, m, n, &ParOptions::default()).unwrap();
    let d = stats::snapshot().delta_since(&before);

    assert!(d.phase("row_shuffle").is_some(), "{d:?}");
    if let Some(p) = d.phase("pre_rotate") {
        assert_eq!(p.calls, 1, "phase wrapper may run, but only once: {p:?}");
    }
}

#[test]
fn r2c_reports_its_inverse_phases_and_roundtrips() {
    let _guard = STATS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (m, n) = (48usize, 36usize); // gcd = 12: post-rotation runs
    let orig: Vec<u64> = (0..(m * n) as u64).collect();
    let mut a = orig.clone();
    c2r_parallel(&mut a, m, n, &ParOptions::default()).unwrap();

    let before = stats::snapshot();
    r2c_parallel(&mut a, m, n, &ParOptions::default()).unwrap();
    let d = stats::snapshot().delta_since(&before);

    assert_eq!(a, orig, "r2c must invert c2r");
    for phase in ["col_shuffle", "row_shuffle", "post_rotate"] {
        assert!(d.phase(phase).is_some(), "{phase} missing: {d:?}");
    }
}

#[test]
fn scratch_reaches_steady_state_reuse() {
    let _guard = STATS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    // Every pass keeps per-worker ipt_pool::Scratch buffers; across
    // repeated same-shape transposes the buffers must be reused, not
    // reallocated per call.
    let (m, n) = (96usize, 64usize);
    let mut a: Vec<u64> = (0..(m * n) as u64).collect();
    let opts = ParOptions::default();
    c2r_parallel(&mut a, m, n, &opts).unwrap(); // warm-up

    let before = stats::snapshot();
    for _ in 0..4 {
        c2r_parallel(&mut a, m, n, &opts).unwrap();
    }
    let d = stats::snapshot().delta_since(&before);
    assert!(
        d.scratch_reuses > 0,
        "repeated transposes must reuse scratch: {d:?}"
    );
}

#[test]
fn sequential_facade_records_no_phases() {
    let _guard = STATS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    // ipt-core is phase-free by design: only the parallel layer reports
    // into the pool's phase table, so single-threaded users pay nothing.
    let mut a: Vec<u64> = (0..35).collect();
    let mut s = Scratch::new();
    let before = stats::snapshot();
    transpose(&mut a, 5, 7, Layout::RowMajor, &mut s);
    let d = stats::snapshot().delta_since(&before);
    assert!(
        ipt::parallel::phases::ALL
            .iter()
            .all(|p| d.phase(p).is_none()),
        "sequential path must not touch phase timers: {d:?}"
    );
}

#[test]
fn every_route_records_each_pass_once_with_its_bytes() {
    let _guard = STATS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    use ipt::parallel::batched::transpose_batched;
    use ipt::parallel::phases;
    // 65536 structs of 12 u64 fields: 16 chunks of 4096 structs and no
    // peeled tail, so both §6.1 passes run over the whole buffer.
    let (structs, fields) = (65536usize, 12usize);
    let orig: Vec<u64> = (0..(structs * fields) as u64).collect();
    let mut a = orig.clone();
    let pass = 2 * (structs * fields * 8) as u64;
    for (dir, convert) in [
        (
            "aos_to_soa",
            aos_to_soa::<u64> as fn(&mut [u64], usize, usize) -> _,
        ),
        ("soa_to_aos", soa_to_aos::<u64>),
    ] {
        let before = stats::snapshot();
        convert(&mut a, structs, fields).unwrap();
        let d = stats::snapshot().delta_since(&before);
        for name in [phases::CHUNK_TRANSPOSE, phases::PAGE_PERMUTE] {
            let p = d
                .phase(name)
                .unwrap_or_else(|| panic!("{dir} {name}: {d:?}"));
            assert_eq!((p.calls, p.bytes), (1, pass), "{dir} {name}: {d:?}");
        }
    }
    assert!(a == orig, "soa_to_aos must invert aos_to_soa");

    // A batched call of 24 x 36 heads runs R2C's element path on the
    // stack of heads (gcd 12: the post-rotation runs): each pass once,
    // over every head of the batch.
    let (batch, rows, cols) = (16usize, 24usize, 36usize);
    let mut b: Vec<u64> = (0..(batch * rows * cols) as u64).collect();
    let before = stats::snapshot();
    transpose_batched(&mut b, batch, rows, cols, Layout::RowMajor).unwrap();
    let d = stats::snapshot().delta_since(&before);
    let pass = 2 * (batch * rows * cols * 8) as u64;
    for name in [
        phases::COL_SHUFFLE,
        phases::ROW_SHUFFLE,
        phases::POST_ROTATE,
    ] {
        let p = d.phase(name).unwrap_or_else(|| panic!("{name}: {d:?}"));
        assert_eq!((p.calls, p.bytes), (1, pass), "{name}: {d:?}");
    }
    assert!(d.phase(phases::PRE_ROTATE).is_none(), "{d:?}");
}
