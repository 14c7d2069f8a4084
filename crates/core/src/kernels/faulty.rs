//! Deterministic fault injection for the concurrency correctness layer.
//!
//! The disjointness checker (`ipt-parallel`'s checked `UnsafeSlice`) and
//! the executor's panic containment (`ipt_pool::PoolError`) are safety
//! nets — and a safety net that has never caught anything is untested.
//! This module injects the two faults those nets exist for, on demand:
//!
//! * **panics** inside worker closures ([`maybe_panic`]), which the pool
//!   must contain at the chunk boundary and surface as a structured
//!   error, and
//! * **index skews** in column-group operations ([`skew_column`]), which
//!   redirect an access outside the owning group's claimed columns — a
//!   synthetic off-by-one in the paper's Eq. 24/26 index math that the
//!   checker must detect on the very access that performs it.
//!
//! Injection decisions are **deterministic**: each call site hashes its
//! site name and item index through the workspace's SplitMix64
//! ([`crate::check::Rng`]) against a fixed seed, so a given (site, item)
//! either always faults or never faults at a given rate — independent of
//! thread count, scheduling, or how many other sites fired. Runs are
//! reproducible across `IPT_THREADS` values by construction.
//!
//! A third fault kind exists for the pool's hang watchdog: **hangs**
//! ([`maybe_panic`] under `hang:<rate>` sleeps forever instead of
//! panicking), which no unwinding net can catch — only the deadline-based
//! `IPT_WATCHDOG_MS` monitor in `ipt_pool::watchdog`. Never inject hangs
//! in an in-process test: the stuck worker thread cannot be reclaimed.
//! Hang coverage lives in out-of-process CLI smokes wrapped in `timeout`.
//!
//! Everything here is gated behind the default-off `fault-inject`
//! feature: without it the two entry points compile to `#[inline(always)]`
//! no-ops (zero cost in production builds), and the `IPT_FAULT` knob is
//! ignored. With the feature, the mode comes from `IPT_FAULT`
//! (`panic:<rate>`, `skew:<rate>`, or `hang:<rate>`, rate in `[0, 1]`) or
//! from a programmatic `force` override (for in-process tests that need
//! several modes in one binary).

/// A fault-injection directive: what to inject and at which per-item rate.
#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultMode {
    /// Panic inside worker closures at the given rate.
    Panic(f64),
    /// Skew column indices outside the owning group at the given rate.
    Skew(f64),
    /// Sleep forever inside worker closures at the given rate (watchdog
    /// prey — see the module docs for why this is CLI-smoke-only).
    Hang(f64),
}

#[cfg(feature = "fault-inject")]
mod active {
    use super::FaultMode;
    use crate::check::Rng;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;

    /// Fixed seed for injection decisions: determinism is the whole point.
    const SEED: u64 = 0x1975_F4A7_C15B_F0D1;

    /// `IPT_FAULT` parsed once.
    static ENV_MODE: OnceLock<Option<FaultMode>> = OnceLock::new();

    /// Programmatic override, encoded lock-free so the per-item fast path
    /// never takes a lock: `FORCED_UNSET` = use the environment,
    /// `FORCED_OFF` = forced no-injection, else `kind << 32 | f32 bits`.
    static FORCED: AtomicU64 = AtomicU64::new(FORCED_UNSET);
    const FORCED_UNSET: u64 = 0;
    const FORCED_OFF: u64 = 1;
    const KIND_PANIC: u64 = 2;
    const KIND_SKEW: u64 = 3;
    const KIND_HANG: u64 = 4;

    /// Panics actually injected (not merely eligible) since process start.
    static INJECTED_PANICS: AtomicU64 = AtomicU64::new(0);
    /// Skews actually injected since process start.
    static INJECTED_SKEWS: AtomicU64 = AtomicU64::new(0);
    /// Hangs actually injected since process start (counted just before
    /// the worker stops making progress, so a watchdog report can be
    /// correlated with the injection tally by an outside observer).
    static INJECTED_HANGS: AtomicU64 = AtomicU64::new(0);

    /// Parse an `IPT_FAULT` value: `panic:<rate>`, `skew:<rate>`, or
    /// `hang:<rate>` with the rate a finite number in `[0, 1]`. The kind
    /// is trimmed and case-folded, so
    /// `" Panic : 0.05 "` works the same from any shell quoting style.
    pub fn parse_fault(raw: &str) -> Result<FaultMode, String> {
        let t = raw.trim();
        let (kind, rate) = t.split_once(':').ok_or_else(|| {
            format!("IPT_FAULT {raw:?} is not of the form panic:<rate>|skew:<rate>|hang:<rate>")
        })?;
        let rate: f64 = rate
            .trim()
            .parse()
            .map_err(|_| format!("IPT_FAULT {raw:?} has a non-numeric rate"))?;
        if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
            return Err(format!("IPT_FAULT {raw:?} rate must be in [0, 1]"));
        }
        match kind.trim().to_ascii_lowercase().as_str() {
            "panic" => Ok(FaultMode::Panic(rate)),
            "skew" => Ok(FaultMode::Skew(rate)),
            "hang" => Ok(FaultMode::Hang(rate)),
            _ => Err(format!(
                "IPT_FAULT {raw:?} names an unknown fault kind (expected panic, skew or hang)"
            )),
        }
    }

    fn env_mode() -> Option<FaultMode> {
        // Shared warn-once contract with IPT_THREADS / IPT_CHECK.
        crate::env::parse_once(&ENV_MODE, "IPT_FAULT", parse_fault)
    }

    fn encode(mode: Option<FaultMode>) -> u64 {
        match mode {
            None => FORCED_OFF,
            Some(FaultMode::Panic(r)) => (KIND_PANIC << 32) | u64::from((r as f32).to_bits()),
            Some(FaultMode::Skew(r)) => (KIND_SKEW << 32) | u64::from((r as f32).to_bits()),
            Some(FaultMode::Hang(r)) => (KIND_HANG << 32) | u64::from((r as f32).to_bits()),
        }
    }

    fn decode(word: u64) -> Option<FaultMode> {
        let rate = f64::from(f32::from_bits(word as u32));
        match word >> 32 {
            KIND_PANIC => Some(FaultMode::Panic(rate)),
            KIND_SKEW => Some(FaultMode::Skew(rate)),
            KIND_HANG => Some(FaultMode::Hang(rate)),
            _ => None,
        }
    }

    /// Override the fault mode for this process, bypassing `IPT_FAULT`:
    /// `Some(mode)` injects, `None` forces injection off. Intended for
    /// tests that need to exercise both fault kinds in one binary (the
    /// environment knob is parsed once and cannot change mid-process).
    pub fn force(mode: Option<FaultMode>) {
        FORCED.store(encode(mode), Ordering::Relaxed);
    }

    /// Drop any [`force`] override, restoring `IPT_FAULT` resolution.
    pub fn unforce() {
        FORCED.store(FORCED_UNSET, Ordering::Relaxed);
    }

    fn mode() -> Option<FaultMode> {
        match FORCED.load(Ordering::Relaxed) {
            FORCED_UNSET => env_mode(),
            word => decode(word),
        }
    }

    /// Faults injected so far: `(panics, skews, hangs)`. Tests bracket a
    /// region with two reads to prove "every injected fault was caught".
    pub fn injection_counts() -> (u64, u64, u64) {
        (
            INJECTED_PANICS.load(Ordering::Relaxed),
            INJECTED_SKEWS.load(Ordering::Relaxed),
            INJECTED_HANGS.load(Ordering::Relaxed),
        )
    }

    /// Deterministic per-(site, item) coin flip at `rate`.
    fn decide(site: &str, item: usize, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        // FNV-1a over the site name keeps distinct sites uncorrelated.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in site.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
        let x = Rng::new(SEED ^ h ^ (item as u64).wrapping_mul(0x9e3779b97f4a7c15)).next_u64();
        ((x >> 11) as f64 / (1u64 << 53) as f64) < rate
    }

    /// Panic — or, under `hang:<rate>`, sleep forever — at the
    /// deterministic rate. Panics are the fault the pool's chunk-boundary
    /// containment must catch; hangs are the fault only the
    /// `IPT_WATCHDOG_MS` monitor can report (the loop below never
    /// returns, deliberately). `item` is the work item (row, block, batch
    /// index) so the decision is independent of thread interleaving.
    #[inline]
    pub fn maybe_panic(site: &'static str, item: usize) {
        match mode() {
            Some(FaultMode::Panic(rate)) if decide(site, item, rate) => {
                INJECTED_PANICS.fetch_add(1, Ordering::Relaxed);
                panic!("ipt fault injection: injected panic at {site}, item {item}");
            }
            Some(FaultMode::Hang(rate)) if decide(site, item, rate) => {
                INJECTED_HANGS.fetch_add(1, Ordering::Relaxed);
                loop {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
            }
            _ => {}
        }
    }

    /// Skew column `j` of group `[j0, j0 + gw)` (over `n` total columns)
    /// to a column **outside** the group at the deterministic rate — the
    /// synthetic Eq. 24/26 off-by-one the disjointness checker must catch.
    ///
    /// The skewed target is drawn from the group's complement, so every
    /// performed skew is an out-of-ownership access by construction (when
    /// the group spans all columns, no skew is possible and `j` is
    /// returned unchanged without counting an injection).
    #[inline]
    pub fn skew_column(site: &'static str, j: usize, j0: usize, gw: usize, n: usize) -> usize {
        if let Some(FaultMode::Skew(rate)) = mode() {
            if gw < n && decide(site, j, rate) {
                INJECTED_SKEWS.fetch_add(1, Ordering::Relaxed);
                // Map into [j0 + gw, j0 + gw + (n - gw)) mod n: exactly the
                // complement of the owning group's columns.
                return (j0 + gw + ((j - j0) % (n - gw))) % n;
            }
        }
        j
    }
}

#[cfg(feature = "fault-inject")]
pub use active::{force, injection_counts, maybe_panic, parse_fault, skew_column, unforce};

/// No-op stub: fault injection is compiled out without the `fault-inject`
/// feature (see the module docs).
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub fn maybe_panic(_site: &'static str, _item: usize) {}

/// No-op stub returning `j` unchanged: fault injection is compiled out
/// without the `fault-inject` feature (see the module docs).
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub fn skew_column(_site: &'static str, j: usize, _j0: usize, _gw: usize, _n: usize) -> usize {
    j
}

#[cfg(all(test, feature = "fault-inject"))]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_all_kinds_and_rejects_garbage() {
        assert_eq!(parse_fault("panic:0.05"), Ok(FaultMode::Panic(0.05)));
        assert_eq!(parse_fault(" skew : 1 "), Ok(FaultMode::Skew(1.0)));
        assert_eq!(parse_fault("panic:0"), Ok(FaultMode::Panic(0.0)));
        assert_eq!(parse_fault("hang:0.1"), Ok(FaultMode::Hang(0.1)));
        // Case-folds: shell exports often capitalize.
        assert_eq!(parse_fault("PANIC:0.5"), Ok(FaultMode::Panic(0.5)));
        assert_eq!(parse_fault(" Skew :0.25"), Ok(FaultMode::Skew(0.25)));
        assert_eq!(parse_fault(" Hang : 1 "), Ok(FaultMode::Hang(1.0)));
        for bad in [
            "panic",
            "panic:",
            "panic:2",
            "panic:-0.1",
            "panic:NaN",
            "hang:2",
            "hang:",
            "abort:0.5",
            "",
        ] {
            let err = parse_fault(bad).unwrap_err();
            assert!(err.contains("IPT_FAULT"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn hang_mode_round_trips_through_the_forced_encoding() {
        // force/unforce shares one atomic word across all kinds; make
        // sure the new kind survives encode -> decode with its rate.
        force(Some(FaultMode::Hang(0.0)));
        // Rate 0 never fires, so this must return immediately.
        maybe_panic("hang_site", 3);
        unforce();
    }

    #[test]
    fn skew_always_leaves_the_group_and_stays_in_bounds() {
        force(Some(FaultMode::Skew(1.0)));
        for n in [5usize, 8, 13, 64] {
            for w in [1usize, 2, 3, 7] {
                let groups = n.div_ceil(w);
                for g in 0..groups {
                    let j0 = g * w;
                    let gw = w.min(n - j0);
                    for j in j0..j0 + gw {
                        let s = skew_column("test_site", j, j0, gw, n);
                        assert!(s < n, "skew out of bounds: {s} >= {n}");
                        if gw < n {
                            assert!(
                                !(j0..j0 + gw).contains(&s),
                                "skew {j}->{s} stayed inside [{j0}, {})",
                                j0 + gw
                            );
                        } else {
                            assert_eq!(s, j, "full-width group cannot skew");
                        }
                    }
                }
            }
        }
        unforce();
    }

    #[test]
    fn decisions_are_deterministic_and_rate_sensitive() {
        force(Some(FaultMode::Skew(0.5)));
        let (_, before, _) = injection_counts();
        let a: Vec<usize> = (0..200)
            .map(|j| skew_column("det_site", j, 0, 200, 400))
            .collect();
        let b: Vec<usize> = (0..200)
            .map(|j| skew_column("det_site", j, 0, 200, 400))
            .collect();
        assert_eq!(a, b, "same (site, item) must decide identically");
        let skewed = a.iter().zip(0..).filter(|&(&s, j)| s != j).count();
        assert!(
            (40..160).contains(&skewed),
            "rate 0.5 over 200 items: got {skewed}"
        );
        let (_, after, _) = injection_counts();
        assert_eq!(after - before, 2 * skewed as u64, "every skew counted");
        unforce();
    }

    #[test]
    fn forced_off_beats_any_environment() {
        force(None);
        assert_eq!(skew_column("off_site", 3, 0, 4, 8), 3);
        maybe_panic("off_site", 3); // must not panic
        unforce();
    }

    #[test]
    fn injected_panic_carries_site_and_item() {
        force(Some(FaultMode::Panic(1.0)));
        let err = std::panic::catch_unwind(|| maybe_panic("panic_site", 17)).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("injected panic"), "{msg}");
        assert!(msg.contains("panic_site") && msg.contains("17"), "{msg}");
        unforce();
    }
}
