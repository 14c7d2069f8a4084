//! End-to-end model validation: the `memsim::phases` analytical phase
//! shares must coarsely agree with the *measured* phase timers of the
//! real parallel transposes on committed shapes.
//!
//! These are the shapes the bench suites pin (`BENCH_*.json`), run with
//! the `reference_cpu` preset the model documents for single-core hosts.
//! The thresholds are deliberately loose — this is a sanity gate that
//! the model ranks phases correctly and lands in the right ballpark,
//! not a timing microbenchmark (MODEL.md records the tight numbers).

use ipt::mem::model::DeviceModel;
use ipt::mem::phases::{self, PhaseBreakdown};
use ipt::pool::stats;
use ipt::prelude::*;
use std::sync::{Mutex, PoisonError};

/// Serializes the stats-sensitive regions across this binary's tests.
/// Guards are taken through poison, so a failing test reports its own
/// assertion and does not fail the tests after it on the lock.
static STATS_LOCK: Mutex<()> = Mutex::new(());

/// How many transposes to accumulate per trial: phase timers on small
/// committed shapes are microseconds each, so averaging over many runs
/// keeps timer resolution out of the shares.
const SAMPLES: usize = 8;

/// Independent trials per measurement. Each phase's time is its median
/// across trials, so a preemption or a steal burst that lands in one
/// trial (a few milliseconds, against a trial of well under one in a
/// release build) moves no share.
const TRIALS: usize = 9;

/// Per-phase share tolerance and total-variation bound. Generous on
/// purpose: CI hosts vary, and the model targets ranking + ballpark.
const PHASE_TOL: f64 = 0.30;
const DIVERGENCE_TOL: f64 = 0.35;

/// Run [`TRIALS`] trials of `samples` C2R transposes of an `m x n`
/// f64-sized matrix on one thread and return the measured `(phase,
/// nanos)` pairs for phases that did real work (recorded bytes), in
/// execution order, each phase's nanos the median over the trials.
fn measure_c2r(m: usize, n: usize, samples: usize) -> Vec<(&'static str, u64)> {
    ipt::pool::set_num_threads(1);
    let opts = ParOptions::default();
    let mut a: Vec<u64> = (0..(m * n) as u64).collect();
    c2r_parallel(&mut a, m, n, &opts).unwrap(); // warm-up
    let trials: Vec<_> = (0..TRIALS)
        .map(|_| {
            let before = stats::snapshot();
            for _ in 0..samples {
                c2r_parallel(&mut a, m, n, &opts).unwrap();
            }
            stats::snapshot().delta_since(&before)
        })
        .collect();
    ipt::parallel::phases::ALL
        .iter()
        .filter(|&&name| trials[0].phase(name).is_some_and(|p| p.bytes > 0))
        .map(|&name| {
            let mut nanos: Vec<u64> = trials
                .iter()
                .map(|d| d.phase(name).map_or(0, |p| p.nanos))
                .collect();
            nanos.sort_unstable();
            (name, nanos[TRIALS / 2])
        })
        .collect()
}

fn breakdown_for(m: usize, n: usize) -> PhaseBreakdown {
    let device = DeviceModel::reference_cpu();
    let predicted = phases::predict_c2r(&device, m, n, 8);
    let measured = measure_c2r(m, n, SAMPLES);
    assert!(!measured.is_empty(), "no phases recorded bytes for {m}x{n}");
    PhaseBreakdown::new(&predicted, &measured)
}

/// The committed bench shapes this gate runs on: one with a rotation
/// phase (gcd(192, 256) = 64) and one coprime pair without it.
const SHAPES: [(usize, usize); 2] = [(192, 256), (257, 131)];

#[test]
fn predicted_shares_agree_coarsely_on_committed_shapes() {
    let _guard = STATS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    for (m, n) in SHAPES {
        let b = breakdown_for(m, n);
        assert!(
            b.divergence <= DIVERGENCE_TOL,
            "{m}x{n}: divergence {:.3} > {DIVERGENCE_TOL}: {:?}",
            b.divergence,
            b.phases
        );
        for p in &b.phases {
            assert!(
                (p.predicted - p.measured).abs() <= PHASE_TOL,
                "{m}x{n} {}: |{:.3} - {:.3}| > {PHASE_TOL}",
                p.name,
                p.predicted,
                p.measured
            );
        }
    }
}

#[test]
fn dominant_phase_ranking_holds_on_committed_shapes() {
    let _guard = STATS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    for (m, n) in SHAPES {
        let b = breakdown_for(m, n);
        // Full rank agreement is the tight property `ipt model` reports;
        // here only require the *dominant* phase to match unless the
        // top two measured shares are within noise of each other.
        let top_pred = b
            .phases
            .iter()
            .max_by(|a, c| a.predicted.total_cmp(&c.predicted))
            .expect("non-empty breakdown");
        let mut by_meas: Vec<_> = b.phases.iter().collect();
        by_meas.sort_by(|a, c| c.measured.total_cmp(&a.measured));
        let near_tie = by_meas.len() > 1 && by_meas[0].measured - by_meas[1].measured < 0.10;
        assert!(
            by_meas[0].name == top_pred.name || near_tie,
            "{m}x{n}: predicted dominant {} but measured dominant {} \
             ({:.3} vs runner-up {:.3})",
            top_pred.name,
            by_meas[0].name,
            by_meas[0].measured,
            by_meas.get(1).map_or(0.0, |p| p.measured)
        );
    }
}

#[test]
fn every_predicted_phase_is_measured_and_vice_versa() {
    let _guard = STATS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    // The bytes-recording convention must make predicted and measured
    // phase sets identical: rotations record bytes exactly when the
    // model predicts a rotation pass (gcd > 1).
    for (m, n) in [(192, 256), (257, 131), (60, 48)] {
        let device = DeviceModel::reference_cpu();
        let predicted = phases::predict_c2r(&device, m, n, 8);
        let measured = measure_c2r(m, n, 4);
        let meas_names: Vec<&str> = measured.iter().map(|&(name, _)| name).collect();
        assert_eq!(
            predicted.names(),
            meas_names,
            "{m}x{n}: predicted vs measured phase sets differ"
        );
    }
}
