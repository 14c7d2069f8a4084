//! Batched transposes against the sequential `ipt_core` transpose applied
//! head by head.
//!
//! A batch runs as the element path on the stack of its heads, so every
//! column pass works on rectangles one head tall and the row shuffle
//! indexes its kernel by the row inside the head. The shapes cover the
//! cases where a head's column groups are cut short or a head is one
//! group: coprime and `gcd > 1` shapes, `n` below the group width and
//! not a multiple of it, and vectors. Checked mode (`IPT_CHECK=1`) is on
//! for the whole binary, so the stacked rectangles' claims are verified
//! on every call.

use ipt_core::{Algorithm, Layout, Scratch};
use ipt_parallel::batched::{c2r_batched, r2c_batched, transpose_batched};
use std::fmt::Debug;
use std::sync::{Mutex, MutexGuard, Once, PoisonError};

/// Turn checked mode on before the first transpose reads it, and
/// serialize the tests, which set the pool's thread count.
fn setup() -> MutexGuard<'static, ()> {
    static CHECK: Once = Once::new();
    static LOCK: Mutex<()> = Mutex::new(());
    CHECK.call_once(|| std::env::set_var("IPT_CHECK", "1"));
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A 24-byte element, wider than any integer.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Wide {
    a: u64,
    b: u32,
    c: [u16; 6],
}

const BATCHES: [usize; 5] = [1, 2, 3, 16, 17];

/// Rows x cols of each head. The group width is 128 elements for `u16`,
/// 32 for `u64` and 10 for `Wide`: 301 is not a multiple of any of them,
/// and 5, 9 and 18 are below all but the last.
const SHAPES: [(usize, usize); 9] = [
    (7, 5),    // coprime, n < w
    (12, 18),  // gcd 6
    (18, 12),  // the same shape, the other direction
    (14, 301), // gcd 7, n not a multiple of w
    (301, 14),
    (33, 40), // coprime
    (1, 9),   // vectors
    (9, 1),
    (1, 1),
];

/// Every batch size, shape, layout and direction against the sequential
/// transpose of each head, at 1, 2 and 4 pool threads.
fn batches_match_head_by_head<T>(encode: impl Fn(usize) -> T)
where
    T: Copy + Send + Sync + PartialEq + Debug + 'static,
{
    let mut scratch = Scratch::new();
    for threads in [1, 2, 4] {
        ipt_pool::set_num_threads(threads);
        for batch in BATCHES {
            for (rows, cols) in SHAPES {
                let orig: Vec<T> = (0..batch * rows * cols).map(&encode).collect();
                let case = format!("{threads} threads, {batch} x {rows} x {cols}");
                for layout in [Layout::RowMajor, Layout::ColMajor] {
                    let mut got = orig.clone();
                    transpose_batched(&mut got, batch, rows, cols, layout).unwrap();
                    let mut want = orig.clone();
                    for head in want.chunks_exact_mut(rows * cols) {
                        ipt_core::transpose(head, rows, cols, layout, &mut scratch);
                    }
                    assert!(got == want, "{case} {layout:?}");
                }
                for (alg, batched) in [
                    (
                        Algorithm::C2r,
                        c2r_batched::<T> as fn(&mut [T], usize, usize, usize) -> _,
                    ),
                    (Algorithm::R2c, r2c_batched::<T>),
                ] {
                    let mut got = orig.clone();
                    batched(&mut got, batch, rows, cols).unwrap();
                    let mut want = orig.clone();
                    for head in want.chunks_exact_mut(rows * cols) {
                        // c2r_batched's heads are row-major rows x cols,
                        // r2c_batched's cols x rows.
                        let (r, c) = match alg {
                            Algorithm::R2c => (cols, rows),
                            _ => (rows, cols),
                        };
                        ipt_core::transpose_with(head, r, c, Layout::RowMajor, alg, &mut scratch);
                    }
                    assert!(got == want, "{case} {alg:?}");
                }
            }
        }
    }
}

#[test]
fn u16_batches_match_head_by_head() {
    let _guard = setup();
    batches_match_head_by_head(|i| i as u16);
}

#[test]
fn u64_batches_match_head_by_head() {
    let _guard = setup();
    batches_match_head_by_head(|i| i as u64);
}

#[test]
fn wide_struct_batches_match_head_by_head() {
    let _guard = setup();
    batches_match_head_by_head(|i| Wide {
        a: i as u64,
        b: !(i as u32),
        c: [i as u16; 6],
    });
}

#[test]
fn a_checked_stacked_batch_reports_no_violation() {
    let _guard = setup();
    ipt_pool::set_num_threads(2);
    // 16 heads of 24 x 36 u64 (gcd 12: every pass runs), both
    // directions: a stacked rectangle that strayed outside its head or
    // group would be a claim violation, which aborts the call.
    for (rows, cols) in [(24usize, 36usize), (36, 24)] {
        let orig: Vec<u64> = (0..(16 * rows * cols) as u64).collect();
        let mut a = orig.clone();
        transpose_batched(&mut a, 16, rows, cols, Layout::RowMajor).unwrap();
        transpose_batched(&mut a, 16, cols, rows, Layout::RowMajor).unwrap();
        assert!(
            a == orig,
            "{rows} x {cols}: transposed twice is the identity"
        );
    }
}
