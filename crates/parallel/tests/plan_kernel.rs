//! The row-shuffle kernel a plan prints is the one its call runs.
//!
//! One `#[test]` in this file: the kernel hit counters are process-global,
//! so the exact per-call assertions need a process with no concurrent
//! recorder.

use ipt_core::check::{fill_pattern, is_transposed_pattern};
use ipt_core::{Algorithm, Layout};
use ipt_parallel::{transpose_parallel_with, ParOptions, Plan};
use ipt_pool::stats;

/// The kernel named on the plan's `row shuffle:` line.
fn printed_kernel(plan: &Plan) -> String {
    let text = plan.to_string();
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix("row shuffle: "))
        .unwrap_or_else(|| panic!("no row-shuffle line in:\n{text}"));
    line.split_whitespace().next().unwrap().to_string()
}

#[test]
fn the_printed_row_kernel_is_the_recorded_one() {
    let opts = ParOptions::default();
    // One shape per regime of `kernels::select`, on the C2R view's m x n.
    for (m, n, want) in [
        (97usize, 64usize, "scalar"), // c = 1
        (96, 80, "block4"),           // c = 16, b = 5
        (128, 32, "block8"),          // c = 32, b = 1
    ] {
        for alg in [Algorithm::C2r, Algorithm::R2c] {
            // R2C takes its parameters swapped, so it runs on the same
            // m x n when the matrix is n x m.
            let (rows, cols) = match alg {
                Algorithm::C2r => (m, n),
                _ => (n, m),
            };
            let label = format!("{rows}x{cols} {alg:?}");
            let core = ipt_core::Plan::new(rows * cols, rows, cols, Layout::RowMajor, alg);
            let plan = Plan::new(core, size_of::<u64>(), &opts);
            assert_eq!(printed_kernel(&plan), want, "{label}:\n{plan}");

            let mut a = vec![0u64; rows * cols];
            fill_pattern(&mut a);
            let before = stats::snapshot();
            transpose_parallel_with(&mut a, rows, cols, Layout::RowMajor, alg, &opts).unwrap();
            let d = stats::snapshot().delta_since(&before);
            assert!(
                is_transposed_pattern(&a, rows, cols, Layout::RowMajor),
                "{label}"
            );
            let ran: Vec<(&str, u64)> = d
                .kernels
                .iter()
                .filter(|k| k.hits > 0)
                .map(|k| (k.name, k.hits))
                .collect();
            assert_eq!(ran, [(want, 1)], "{label}");
        }
    }
}
