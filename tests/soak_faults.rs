//! Fault soak — run explicitly with
//! `cargo test --release -p ipt --features fault-inject --test soak_faults -- --ignored`.
//!
//! Its own test binary (with `required-features = ["fault-inject"]`), so
//! two process-global settings cannot leak: `IPT_CHECK=1` is set before
//! the checker's one-time read of it, and the forced fault mode never
//! reaches the fault-free soak sweeps in `soak.rs`.

use ipt::core::kernels::faulty::{self, FaultMode};
use ipt::pool::recovery;
use ipt::prelude::*;
use ipt_core::check::{reference_transpose, Rng};

/// Fault soak: thousands of randomized shapes under forced panic and
/// skew injection, alternating the recovery budget between 0 (the
/// containment contract: every injected panic must surface as a
/// structured abort, never a crash or silent tear, and every injected
/// skew must be caught by the disjointness checker) and 2 (the
/// self-healing contract: every faulted run must complete with Ok and
/// byte-identical output), across 1/2/4-thread pools.
#[test]
#[ignore = "soak: minutes of fault-injected sweeps; run with -- --ignored"]
fn soak_faults_always_contained_and_detected() {
    std::env::set_var("IPT_CHECK", "1"); // before the checker's first read
    let mut rng = Rng::new(0xfa_17_50_a1);
    let mut contained = 0u64;
    let mut detected = 0u64;
    let mut recovered = 0u64;
    for round in 0..1500 {
        let m = rng.range(2..256);
        let n = rng.range(2..256);
        let threads = [1, 2, 4][rng.range(0..3)];
        ipt::pool::set_num_threads(threads);

        // Alternate panic and skew rounds; skews need the checker live.
        let mode = if round % 2 == 0 {
            FaultMode::Panic(0.02)
        } else {
            FaultMode::Skew(0.1)
        };
        // Arm the recovery ladder on a third of the rounds: those runs
        // must *complete* despite the injected faults.
        let armed = round % 3 == 2;
        recovery::force_retry(if armed { 2 } else { 0 });
        faulty::force(Some(mode));
        let mut a: Vec<u64> = (0..(m * n) as u64).collect();
        // Half the rounds run R2C, whose column passes are the inverses.
        let r2c = round % 4 >= 2;
        let want = if r2c {
            let mut w = a.clone();
            ipt_core::r2c(&mut w, m, n, &mut Scratch::new());
            w
        } else {
            reference_transpose(&a, m, n, ipt_core::Layout::RowMajor)
        };
        let (p0, s0, _) = faulty::injection_counts();
        let result = if r2c {
            ipt_parallel::r2c_parallel(&mut a, m, n, &ParOptions::default())
        } else {
            ipt_parallel::c2r_parallel(&mut a, m, n, &ParOptions::default())
        };
        let (p1, s1, _) = faulty::injection_counts();
        faulty::unforce();
        recovery::unforce_retry();

        let injected = (p1 - p0) + (s1 - s0);
        match result {
            Err(e) => {
                assert!(injected > 0, "round {round}: abort without injection: {e}");
                assert!(!armed, "round {round}: armed run failed to recover: {e}");
                if s1 > s0 {
                    assert!(
                        e.source.payload.contains("disjointness")
                            || e.source.payload.contains("fault injection"),
                        "round {round}: {e}"
                    );
                    detected += 1;
                } else {
                    contained += 1;
                }
            }
            Ok(()) => {
                if armed && injected > 0 {
                    recovered += 1;
                } else {
                    assert_eq!(injected, 0, "round {round} {m}x{n}: fault went unnoticed");
                }
                assert_eq!(a, want, "round {round} {m}x{n}: wrong transpose");
            }
        }
    }
    assert!(
        contained > 0 && detected > 0 && recovered > 0,
        "{contained} contained / {detected} detected / {recovered} recovered"
    );
}
