//! Peak-memory guard for the §6.1 skinny path: converting `N` structs
//! stages at most one chunk per worker, never an `N`-element row.
//!
//! Linux only: it reads the resident set (`VmRSS`) and its high-water
//! mark (`VmHWM`) from `/proc/self/status`. The test has a binary to
//! itself, so nothing else in the process allocates while it measures.
#![cfg(target_os = "linux")]

use ipt_aos_soa::{aos_to_soa, soa_to_aos};

/// KiB the conversion may add to the peak resident set.
const MAX_GROWTH_KIB: usize = 8 * 1024;

/// One `kB` field of `/proc/self/status`, in KiB.
fn status_kib(key: &str) -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| {
            l.strip_prefix(key)?
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or_else(|| panic!("no {key} line in /proc/self/status"))
}

#[test]
fn conversion_peak_memory_stays_within_a_few_chunks() {
    // Checked mode (on by default in debug builds) adds a 4-byte shadow
    // cell per element on purpose; the guard measures the conversion.
    std::env::set_var("IPT_CHECK", "0");
    ipt_pool::set_num_threads(2);
    // Start the pool's workers before measuring.
    let mut warm: Vec<u64> = (0..4096 * 4).collect();
    aos_to_soa(&mut warm, 4096, 4).unwrap();
    soa_to_aos(&mut warm, 4096, 4).unwrap();

    // 32 MiB of u64: one N-element row would be 8 MiB. Built in place,
    // and nothing is freed before the reading, so the high-water mark
    // cannot hide growth below an earlier peak.
    let (n, s) = (1usize << 20, 4usize);
    let mut data: Vec<u64> = (0..(n * s) as u64).collect();
    let rss = status_kib("VmRSS:");

    aos_to_soa(&mut data, n, s).unwrap();
    let to_soa_ok = (0..n).all(|i| (0..s).all(|v| data[v * n + i] == (i * s + v) as u64));
    soa_to_aos(&mut data, n, s).unwrap();
    let peak = status_kib("VmHWM:");

    assert!(to_soa_ok, "aos_to_soa misplaced a field");
    assert!(
        data.iter().enumerate().all(|(i, &x)| x == i as u64),
        "soa_to_aos did not restore the AoS"
    );
    let growth = peak.saturating_sub(rss);
    assert!(
        growth <= MAX_GROWTH_KIB,
        "the peak resident set grew {growth} KiB over {rss} KiB (limit {MAX_GROWTH_KIB} KiB)"
    );
}
