//! Fault-injection suite: every injected worker panic must be contained
//! as a structured [`TransposeAborted`] (never a process abort), and
//! every injected index skew must be caught by the disjointness checker
//! — across thread counts 1, 2 and 4.
//!
//! Requires the `fault-inject` feature (this target carries
//! `required-features` in `crates/ipt/Cargo.toml`):
//!
//! ```text
//! cargo test -p ipt --features fault-inject --test fault_injection
//! ```
//!
//! Faults are forced through [`faulty::force`] rather than `IPT_FAULT` so
//! each test picks its own mode; the env knob takes the same code path
//! (`faulty::parse_fault` has its own unit tests). The forced decisions
//! are deterministic per (site, item), so a given shape either injects or
//! doesn't — the tests assert the biconditional: injection happened if
//! and only if the call reported an abort.

use ipt::aos_soa::{aos_to_soa, soa_to_aos};
use ipt::core::check::reference_transpose;
use ipt::core::kernels::faulty::{self, FaultMode};
use ipt::core::{Layout, Scratch};
use ipt::parallel::batched::transpose_batched;
use ipt::parallel::{c2r_parallel, phases, r2c_parallel, ParOptions, TransposeAborted};
use ipt::pool::{recovery, set_num_threads, stats};
use std::sync::{Mutex, MutexGuard};

/// Serializes tests: forced fault mode, `IPT_CHECK`, the thread count and
/// the stats counters are all process-global.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Take the lock and make sure the disjointness checker is live before
/// the first parallel call initializes its `OnceLock` — skew injection
/// without the checker would be a genuine data race, not a test.
fn setup() -> MutexGuard<'static, ()> {
    let guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("IPT_CHECK", "1");
    guard
}

/// RAII reset so a failing assertion can't leak a forced mode into the
/// next test.
struct Forced;

impl Forced {
    fn new(mode: FaultMode) -> Forced {
        faulty::force(Some(mode));
        Forced
    }
}

impl Drop for Forced {
    fn drop(&mut self) {
        faulty::unforce();
    }
}

/// RAII recovery budget so a failing assertion can't leak an armed
/// `IPT_RETRY` override into the budget-0 abort-contract tests.
struct Armed;

impl Armed {
    fn new(budget: usize) -> Armed {
        recovery::force_retry(budget);
        Armed
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        recovery::unforce_retry();
    }
}

/// `u64` shapes on the tiled route (`L = 512` divides both sides):
/// two and three block columns, one and two tiles per panel.
const TILED_SHAPES: [(usize, usize); 2] = [(512, 1024), (1024, 1536)];

/// Run one forced-fault C2R and return `(result, panics, skews)` deltas.
fn run_c2r(m: usize, n: usize) -> (Result<(), TransposeAborted>, u64, u64) {
    let mut a: Vec<u64> = (0..(m * n) as u64).collect();
    let want = reference_transpose(&a, m, n, Layout::RowMajor);
    let (p0, s0, _) = faulty::injection_counts();
    let result = c2r_parallel(&mut a, m, n, &ParOptions::default());
    let (p1, s1, _) = faulty::injection_counts();
    if result.is_ok() {
        assert_eq!(a, want, "Ok result must mean a correct {m}x{n} transpose");
    }
    (result, p1 - p0, s1 - s0)
}

/// Run one forced-fault R2C and return `(result, panics, skews)` deltas.
fn run_r2c(m: usize, n: usize) -> (Result<(), TransposeAborted>, u64, u64) {
    let mut a: Vec<u64> = (0..(m * n) as u64).collect();
    let mut want = a.clone();
    ipt::core::r2c(&mut want, m, n, &mut Scratch::new());
    let (p0, s0, _) = faulty::injection_counts();
    let result = r2c_parallel(&mut a, m, n, &ParOptions::default());
    let (p1, s1, _) = faulty::injection_counts();
    if result.is_ok() {
        assert_eq!(a, want, "Ok result must mean a correct {m}x{n} R2C");
    }
    (result, p1 - p0, s1 - s0)
}

/// Run one §6.1 conversion of 65536 x 12 `u64` (16 chunks of 4096
/// structs, no peel) — AoS → SoA (`to_soa`) or back — and return its
/// result. An Ok result must be the exact conversion.
fn run_skinny(to_soa: bool) -> Result<(), TransposeAborted> {
    let (structs, fields) = (65536usize, 12usize);
    let aos: Vec<u64> = (0..(structs * fields) as u64).collect();
    let soa = reference_transpose(&aos, structs, fields, Layout::RowMajor);
    let (mut a, want) = if to_soa { (aos, soa) } else { (soa, aos) };
    let result = if to_soa {
        aos_to_soa(&mut a, structs, fields)
    } else {
        soa_to_aos(&mut a, structs, fields)
    };
    if result.is_ok() {
        assert!(a == want, "Ok result must mean a correct conversion");
    }
    result
}

/// Run one batched transpose of 16 matrices of 24 x 36 `u64` and return
/// its result. An Ok result must be the exact transposes.
fn run_batch() -> Result<(), TransposeAborted> {
    let (b, m, n) = (16usize, 24usize, 36usize);
    let mut data: Vec<u64> = (0..(b * m * n) as u64).collect();
    let want: Vec<u64> = data
        .chunks_exact(m * n)
        .flat_map(|mat| reference_transpose(mat, m, n, Layout::RowMajor))
        .collect();
    let result = transpose_batched(&mut data, b, m, n, Layout::RowMajor);
    if result.is_ok() {
        assert_eq!(data, want, "Ok result must mean correct transposes");
    }
    result
}

#[test]
fn injected_panics_are_contained_across_thread_counts() {
    let _guard = setup();
    let _forced = Forced::new(FaultMode::Panic(0.05));
    let mut aborted = 0u64;
    for threads in [1usize, 2, 4] {
        set_num_threads(threads);
        let mut aborted_here = 0u64;
        let before = stats::snapshot();
        // 5% per (site, item) over hundreds of rows/groups injects many
        // times.
        for (m, n) in [(64usize, 96usize), (97, 64), (200, 300), (33, 1024)] {
            let (result, panics, _) = run_c2r(m, n);
            match result {
                Err(e) => {
                    assert!(panics > 0, "abort without injection: {e} ({m}x{n})");
                    assert!(
                        e.source.payload.contains("ipt fault injection"),
                        "unexpected payload: {e}"
                    );
                    aborted_here += 1;
                }
                Ok(()) => assert_eq!(panics, 0, "{m}x{n} swallowed an injected panic"),
            }
        }
        let d = stats::snapshot().delta_since(&before);
        assert!(
            d.panics_contained >= aborted_here,
            "stats must count contained panics: {d:?}"
        );
        aborted += aborted_here;
    }
    assert!(
        aborted > 0,
        "the sweep never injected a panic — dead harness?"
    );
}

#[test]
fn injected_panics_in_batched_transposes_are_contained() {
    let _guard = setup();
    let _forced = Forced::new(FaultMode::Panic(0.5));
    set_num_threads(4);
    let (b, m, n) = (16usize, 24, 36);
    let mut data: Vec<u64> = (0..(b * m * n) as u64).collect();
    let (p0, _, _) = faulty::injection_counts();
    let result = transpose_batched(&mut data, b, m, n, Layout::RowMajor);
    let (p1, _, _) = faulty::injection_counts();
    // 24 x 36 heads run R2C's element path on the stack of heads, so an
    // abort names one of its passes.
    let passes = [
        phases::COL_SHUFFLE,
        phases::ROW_SHUFFLE,
        phases::POST_ROTATE,
    ];
    match result {
        Err(e) => {
            assert!(p1 > p0, "abort without injection: {e}");
            assert!(passes.contains(&e.phase), "{e}");
        }
        Ok(()) => assert_eq!(p1, p0),
    }
}

#[test]
fn every_injected_skew_is_caught_by_the_checker() {
    let _guard = setup();
    let _forced = Forced::new(FaultMode::Skew(1.0));
    // Every column-group write is a skew site; rate 1.0 skews the first
    // write of every group, which must land in a foreign group and trip
    // the shadow map before any data is torn silently.
    let mut caught = 0u64;
    for threads in [1usize, 2, 4] {
        set_num_threads(threads);
        // gcd(m, n) > 1 so the pre-rotation (a skew site) actually runs,
        // and n spans several column groups of the default width.
        for (m, n) in [(64usize, 96usize), (96, 192), (48, 300)] {
            let (result, _, skews) = run_c2r(m, n);
            match result {
                Err(e) => {
                    assert!(skews > 0, "abort without a skew: {e} ({m}x{n})");
                    assert!(
                        e.source.payload.contains("disjointness"),
                        "skew must abort via the checker, got: {e}"
                    );
                    caught += 1;
                }
                Ok(()) => assert_eq!(
                    skews, 0,
                    "threads={threads} {m}x{n}: {skews} skews went undetected"
                ),
            }
        }
    }
    assert!(
        caught > 0,
        "the sweep never injected a skew — dead harness?"
    );
}

#[test]
fn low_rate_skews_are_still_all_detected() {
    let _guard = setup();
    let _forced = Forced::new(FaultMode::Skew(0.08));
    for threads in [1usize, 2, 4] {
        set_num_threads(threads);
        for (m, n) in [(64usize, 96usize), (72, 160), (96, 224), (120, 288)] {
            let (result, _, skews) = run_c2r(m, n);
            match result {
                Err(e) => assert!(
                    skews > 0 && e.source.payload.contains("disjointness"),
                    "{m}x{n}: {e}"
                ),
                Ok(()) => assert_eq!(skews, 0, "threads={threads} {m}x{n} missed a skew"),
            }
        }
    }
}

#[test]
fn armed_retry_recovers_every_injected_panic() {
    let _guard = setup();
    let _forced = Forced::new(FaultMode::Panic(0.05));
    let _armed = Armed::new(2);
    let mut injected = 0u64;
    for threads in [1usize, 2, 4] {
        set_num_threads(threads);
        let before = stats::snapshot();
        let mut injected_here = 0u64;
        // Same shape/engine sweep as the budget-0 containment test — but
        // with IPT_RETRY=2 armed, every call must now complete with Ok
        // and byte-identical output (run_c2r asserts equality on Ok).
        for (m, n) in [(64usize, 96usize), (97, 64), (200, 300), (33, 1024)] {
            let (result, panics, _) = run_c2r(m, n);
            assert!(
                result.is_ok(),
                "threads={threads} {m}x{n}: armed run aborted: {}",
                result.unwrap_err()
            );
            injected_here += panics;
        }
        // The R2C path too.
        for (m, n) in [(4096usize, 8usize), (513, 96)] {
            let (result, panics, _) = run_r2c(m, n);
            assert!(
                result.is_ok(),
                "threads={threads} {m}x{n}: armed R2C aborted: {}",
                result.unwrap_err()
            );
            injected_here += panics;
        }
        // Tiled shapes (L = 512 for u64), both directions: the tile pass
        // and the page pass both fault and heal.
        for (m, n) in TILED_SHAPES {
            for (dir, (result, panics, _)) in [("C2R", run_c2r(m, n)), ("R2C", run_r2c(m, n))] {
                assert!(
                    result.is_ok(),
                    "threads={threads} {m}x{n}: armed tiled {dir} aborted: {}",
                    result.unwrap_err()
                );
                injected_here += panics;
            }
        }
        let d = stats::snapshot().delta_since(&before);
        if injected_here > 0 {
            assert!(d.retries_attempted > 0, "faults but no retry rungs: {d:?}");
            assert!(d.recovered > 0, "faults but no recovered ops: {d:?}");
        }
        injected += injected_here;
    }
    assert!(injected > 0, "the armed sweep never injected a panic");
}

#[test]
fn armed_retry_recovers_injected_skews_in_checked_mode() {
    let _guard = setup();
    let _forced = Forced::new(FaultMode::Skew(1.0));
    let _armed = Armed::new(2);
    // Rate 1.0 defeats same-config retries (injection is deterministic
    // per (site, item)), so recovery must come from the final
    // sequential-redo rung, which has no skew sites. The checker
    // (IPT_CHECK=1, set in setup()) rejects each skewed write before it
    // lands, so the undo snapshots fully describe the torn state.
    let mut injected = 0u64;
    for threads in [1usize, 2, 4] {
        set_num_threads(threads);
        for (m, n) in [(64usize, 96usize), (96, 192), (48, 300)] {
            let (result, _, skews) = run_c2r(m, n);
            assert!(
                result.is_ok(),
                "threads={threads} {m}x{n}: armed skew run aborted: {}",
                result.unwrap_err()
            );
            injected += skews;
        }
        for (m, n) in [(200usize, 96usize), (513, 64)] {
            let (result, _, skews) = run_r2c(m, n);
            assert!(
                result.is_ok(),
                "threads={threads} {m}x{n}: armed R2C skew run aborted: {}",
                result.unwrap_err()
            );
            injected += skews;
        }
        for (m, n) in TILED_SHAPES {
            for (dir, (result, _, skews)) in [("C2R", run_c2r(m, n)), ("R2C", run_r2c(m, n))] {
                assert!(
                    result.is_ok(),
                    "threads={threads} {m}x{n}: armed tiled {dir} skew run aborted: {}",
                    result.unwrap_err()
                );
                injected += skews;
            }
        }
    }
    assert!(injected > 0, "the armed sweep never injected a skew");
}

#[test]
fn armed_retry_recovers_batched_panics() {
    let _guard = setup();
    let _forced = Forced::new(FaultMode::Panic(0.5));
    let _armed = Armed::new(1);
    set_num_threads(4);
    // 24 x 36 row-major has m < n and runs the R2C step; 36 x 24 runs C2R.
    for (b, m, n) in [(16usize, 24, 36), (16, 36, 24)] {
        let mut data: Vec<u64> = (0..(b * m * n) as u64).collect();
        let mut want = data.clone();
        let mut scratch = Scratch::new();
        for mat in want.chunks_exact_mut(m * n) {
            ipt::core::c2r(mat, m, n, &mut scratch);
        }
        let (p0, _, _) = faulty::injection_counts();
        let result = transpose_batched(&mut data, b, m, n, Layout::RowMajor);
        let (p1, _, _) = faulty::injection_counts();
        assert!(p1 > p0, "{m}x{n}: rate 0.5 over 16 matrices must inject");
        assert!(
            result.is_ok(),
            "{m}x{n}: armed batched run aborted: {result:?}"
        );
        assert_eq!(
            data, want,
            "{m}x{n}: recovered batch must be byte-identical"
        );
    }
}

#[test]
fn armed_retry_recovers_aos_soa_faults() {
    let _guard = setup();
    let _armed = Armed::new(2);
    // The §6.1 passes run on the executor — the chunk transposes as
    // blocks, the block moves as the page pass's segments — so armed
    // recovery heals them like every other pass: both conversions
    // complete byte-identically under injected panics and (checker live)
    // skews. 4096 x 3 and 1000 x 12 fit in one chunk, so only the chunk
    // transpose runs; 65536 x 12 is many chunks (the page pass runs);
    // 65521 x 8 is prime and peels its tail. Neither pass has a skew
    // site, like the tiled route's: a chunk is a `&mut` block and a page
    // move one run copy.
    for mode in [FaultMode::Panic(0.3), FaultMode::Skew(1.0)] {
        let _forced = Forced::new(mode);
        let mut injected = 0u64;
        for threads in [1usize, 2, 4] {
            set_num_threads(threads);
            for (n_structs, fields) in [(4096usize, 3usize), (1000, 12), (65536, 12), (65521, 8)] {
                let orig: Vec<u64> = (0..(n_structs * fields) as u64).collect();
                let soa = reference_transpose(&orig, n_structs, fields, Layout::RowMajor);
                let mut a = orig.clone();
                let (p0, s0, _) = faulty::injection_counts();
                let to_soa = aos_to_soa(&mut a, n_structs, fields);
                assert!(
                    to_soa.is_ok(),
                    "{mode:?} threads={threads} {n_structs}x{fields}: armed aos_to_soa aborted: {}",
                    to_soa.unwrap_err()
                );
                assert_eq!(a, soa, "{mode:?} {n_structs}x{fields}: aos_to_soa");
                let to_aos = soa_to_aos(&mut a, n_structs, fields);
                assert!(
                    to_aos.is_ok(),
                    "{mode:?} threads={threads} {n_structs}x{fields}: armed soa_to_aos aborted: {}",
                    to_aos.unwrap_err()
                );
                assert_eq!(a, orig, "{mode:?} {n_structs}x{fields}: soa_to_aos");
                let (p1, s1, _) = faulty::injection_counts();
                injected += (p1 - p0) + (s1 - s0);
            }
        }
        if matches!(mode, FaultMode::Skew(_)) {
            assert_eq!(injected, 0, "a §6.1 pass injected {mode:?}");
        } else {
            assert!(injected > 0, "the armed §6.1 sweep never injected {mode:?}");
        }
    }
}

#[test]
fn the_tiled_steps_are_fault_sites_and_name_the_step_that_tore() {
    let _guard = setup();
    set_num_threads(2);
    // Each call's first step with work to do tears, and the abort names
    // it: C2R opens with the tiles, R2C with the page permutation unless
    // the matrix is one tile (512 x 512), whose pages are in place.
    let cases = [
        ("r2c", 1024usize, 512usize, phases::PAGE_PERMUTE),
        ("r2c", 512, 1024, phases::PAGE_PERMUTE),
        ("r2c", 512, 512, phases::CHUNK_TRANSPOSE),
        ("c2r", 1024, 512, phases::CHUNK_TRANSPOSE),
        ("c2r", 512, 1024, phases::CHUNK_TRANSPOSE),
    ];
    let run = |dir, m, n| {
        if dir == "c2r" {
            run_c2r(m, n)
        } else {
            run_r2c(m, n)
        }
    };
    for (mode, payload) in [
        (FaultMode::Panic(1.0), "ipt fault injection"),
        (FaultMode::Skew(1.0), "disjointness"),
    ] {
        let _forced = Forced::new(mode);
        for (dir, m, n, phase) in cases {
            // Neither tiled pass has a skew site: a tile kernel moves its
            // claimed tile through row slices or a pointer, and a page
            // move is one run copy.
            if matches!(mode, FaultMode::Skew(_)) {
                continue;
            }
            let armed = Armed::new(0);
            let (result, panics, skews) = run(dir, m, n);
            let e = result.expect_err("rate 1.0 must tear the first step");
            assert_eq!(e.phase, phase, "{mode:?} {dir} {m}x{n}: {e}");
            assert!(e.source.payload.contains(payload), "{mode:?}: {e}");
            if matches!(mode, FaultMode::Panic(_)) {
                let site = format!("injected panic at {}", e.phase);
                assert!(e.source.payload.contains(&site), "{dir} {m}x{n}: {e}");
            }
            assert!(
                panics + skews > 0,
                "{mode:?} {dir} {m}x{n}: nothing injected"
            );
            // Armed, the same always-faulting step heals on the
            // sequential redo rung (run_* checks the output on Ok).
            drop(armed);
            let _armed = Armed::new(1);
            let (result, _, _) = run(dir, m, n);
            assert!(result.is_ok(), "{mode:?} {dir} {m}x{n}: armed run aborted");
        }
    }
    // The first pass of every other route tears the same way, and the
    // abort and the injected panic both carry the pass's one name:
    // element C2R opens with the pre-rotation when gcd(m, n) > 1 and
    // with the row shuffle when the shape is coprime (the rotation is
    // skipped), element R2C with the column shuffle, the §6.1 R2C
    // (aos_to_soa) with the chunk transposes, its C2R (soa_to_aos, 16
    // chunks) with the page permutation, and a batched call of 24 x 36
    // heads, R2C's element path on the stack of heads, with the column
    // shuffle.
    let _forced = Forced::new(FaultMode::Panic(1.0));
    type Route = fn() -> Result<(), TransposeAborted>;
    let routes: [(&str, &str, Route); 6] = [
        ("element C2R 64x96", phases::PRE_ROTATE, || {
            run_c2r(64, 96).0
        }),
        ("element C2R 97x64", phases::ROW_SHUFFLE, || {
            run_c2r(97, 64).0
        }),
        ("element R2C 200x96", phases::COL_SHUFFLE, || {
            run_r2c(200, 96).0
        }),
        ("skinny R2C", phases::CHUNK_TRANSPOSE, || run_skinny(true)),
        ("skinny C2R", phases::PAGE_PERMUTE, || run_skinny(false)),
        ("batched R2C 16 x 24x36", phases::COL_SHUFFLE, run_batch),
    ];
    for (route, phase, run) in routes {
        let armed = Armed::new(0);
        let e = run().expect_err("rate 1.0 must tear the first pass");
        assert_eq!(e.phase, phase, "{route}: {e}");
        let site = format!("injected panic at {}", e.phase);
        assert!(e.source.payload.contains(&site), "{route}: {e}");
        drop(armed);
        let _armed = Armed::new(1);
        assert!(run().is_ok(), "{route}: armed run aborted");
    }
}

#[test]
fn a_panic_mid_piece_of_a_long_cycle_names_the_page_pass_and_heals_on_retry() {
    let _guard = setup();
    set_num_threads(2);
    // R2C of 1536 x 2560 u64 opens with the page permutation of its
    // 2560 x 1536 input: P = 5 by Q = 3 tiles of L = 512, 7680 pages. Two
    // are fixed; the longest cycle holds 6178 of the 7678 that move, more
    // than a worker's half, so the cut between the two workers' segments
    // falls inside it and the second segment starts in the middle of it.
    // The pass's fault site is the middle move of every segment, so at
    // rate 1.0 each one, that second segment included, tears half moved.
    let (m, n) = (1536usize, 2560usize);
    let core = ipt::core::Plan::new(m * n, n, m, Layout::RowMajor, ipt::core::Algorithm::R2c);
    let plan = ipt::parallel::Plan::new(core, 8, &ParOptions::default()).to_string();
    assert!(
        plan.contains("page permutation: 7680 pages in 14 cycles, the longest 6178 pages"),
        "{plan}"
    );
    let _forced = Forced::new(FaultMode::Panic(1.0));
    let armed = Armed::new(0);
    let (result, panics, _) = run_r2c(m, n);
    let e = result.expect_err("rate 1.0 must tear the page pass");
    assert_eq!(e.phase, phases::PAGE_PERMUTE, "{e}");
    assert!(
        e.source.payload.contains("injected panic at page_permute"),
        "{e}"
    );
    assert!(panics >= 2, "every segment has a fault site: {panics}");
    drop(armed);
    // Armed, the same tears heal: the retry resumes every segment from
    // its middle move, which tears it again, and the last rung finishes
    // each on plain indexing (run_r2c checks the output).
    let _armed = Armed::new(1);
    let before = stats::snapshot();
    let (result, _, _) = run_r2c(m, n);
    let d = stats::snapshot().delta_since(&before);
    assert!(result.is_ok(), "armed run aborted: {}", result.unwrap_err());
    assert!(d.retries_attempted >= 2 && d.recovered >= 1, "{d:?}");
}

#[test]
fn budget_zero_keeps_the_abort_contract() {
    let _guard = setup();
    let _forced = Forced::new(FaultMode::Panic(0.1));
    let _armed = Armed::new(0);
    // An explicit IPT_RETRY=0 must behave exactly like the unset default:
    // the first contained fault aborts the whole transpose.
    set_num_threads(4);
    let mut aborted = 0u64;
    for (m, n) in [(4096usize, 8usize), (2048, 48), (513, 96)] {
        let (result, panics, _) = run_r2c(m, n);
        match result {
            Err(e) => {
                assert!(panics > 0, "abort without injection: {e} ({m}x{n})");
                aborted += 1;
            }
            Ok(()) => assert_eq!(panics, 0, "{m}x{n} swallowed an injected panic"),
        }
    }
    assert!(aborted > 0, "the budget-0 sweep never injected a panic");
}

#[test]
fn zero_rate_injects_nothing_and_transposes_correctly() {
    let _guard = setup();
    let _forced = Forced::new(FaultMode::Panic(0.0));
    for threads in [1usize, 2, 4] {
        set_num_threads(threads);
        let (result, panics, skews) = run_c2r(60, 48);
        assert!(result.is_ok(), "rate 0.0 must never abort");
        assert_eq!((panics, skews), (0, 0));
        // Clean tall-skinny runs: byte-identical to the serial reference
        // with zero shadow-map aborts under IPT_CHECK=1 (run_r2c asserts
        // equality on Ok).
        let (result, panics, skews) = run_r2c(4096, 8);
        assert!(result.is_ok(), "clean tall-skinny run must never abort");
        assert_eq!((panics, skews), (0, 0));
    }
}
