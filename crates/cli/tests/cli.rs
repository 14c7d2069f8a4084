//! End-to-end tests of the `ipt` CLI binary: gen → transpose → verify
//! pipelines over temp files, exercising the type-erased in-place path.

use std::path::PathBuf;
use std::process::{Command, Output};

fn ipt(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ipt-cli"))
        .args(args)
        .output()
        .expect("running ipt binary")
}

fn tmpfile(name: &str) -> String {
    let mut p = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    p.push(name);
    p.to_str().unwrap().to_string()
}

fn assert_ok(out: &Output) {
    assert!(
        out.status.success(),
        "exit {:?}\nstdout: {}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn gen_transpose_verify_round_trip() {
    let f = tmpfile("roundtrip.bin");
    assert_ok(&ipt(&[
        "gen",
        &f,
        "--rows",
        "37",
        "--cols",
        "53",
        "--elem-size",
        "8",
    ]));
    assert_ok(&ipt(&[
        "transpose",
        &f,
        "--rows",
        "37",
        "--cols",
        "53",
        "--elem-size",
        "8",
    ]));
    assert_ok(&ipt(&[
        "verify",
        &f,
        "--rows",
        "37",
        "--cols",
        "53",
        "--elem-size",
        "8",
    ]));
}

#[test]
fn verify_rejects_untransposed_file() {
    let f = tmpfile("untransposed.bin");
    assert_ok(&ipt(&[
        "gen",
        &f,
        "--rows",
        "6",
        "--cols",
        "9",
        "--elem-size",
        "4",
    ]));
    let out = ipt(&[
        "verify",
        &f,
        "--rows",
        "6",
        "--cols",
        "9",
        "--elem-size",
        "4",
    ]);
    assert!(!out.status.success(), "must reject the identity layout");
    assert!(String::from_utf8_lossy(&out.stderr).contains("mismatch"));
}

#[test]
fn odd_element_sizes_and_output_path() {
    let src = tmpfile("rgb_src.bin");
    let dst = tmpfile("rgb_dst.bin");
    assert_ok(&ipt(&[
        "gen",
        &src,
        "--rows",
        "16",
        "--cols",
        "24",
        "--elem-size",
        "3",
    ]));
    let orig = std::fs::read(&src).unwrap();
    assert_ok(&ipt(&[
        "transpose",
        &src,
        "--rows",
        "16",
        "--cols",
        "24",
        "--elem-size",
        "3",
        "--out",
        &dst,
    ]));
    assert_eq!(
        std::fs::read(&src).unwrap(),
        orig,
        "--out must not touch the source"
    );
    assert_ok(&ipt(&[
        "verify",
        &dst,
        "--rows",
        "16",
        "--cols",
        "24",
        "--elem-size",
        "3",
    ]));
}

#[test]
fn double_transpose_is_identity() {
    let f = tmpfile("double.bin");
    assert_ok(&ipt(&[
        "gen",
        &f,
        "--rows",
        "11",
        "--cols",
        "29",
        "--elem-size",
        "2",
    ]));
    let orig = std::fs::read(&f).unwrap();
    assert_ok(&ipt(&[
        "transpose",
        &f,
        "--rows",
        "11",
        "--cols",
        "29",
        "--elem-size",
        "2",
    ]));
    assert_ne!(std::fs::read(&f).unwrap(), orig);
    assert_ok(&ipt(&[
        "transpose",
        &f,
        "--rows",
        "29",
        "--cols",
        "11",
        "--elem-size",
        "2",
    ]));
    assert_eq!(std::fs::read(&f).unwrap(), orig);
}

#[test]
fn aos_soa_round_trip() {
    let f = tmpfile("aos.bin");
    assert_ok(&ipt(&[
        "gen",
        &f,
        "--rows",
        "100",
        "--cols",
        "7",
        "--elem-size",
        "4",
    ]));
    let orig = std::fs::read(&f).unwrap();
    assert_ok(&ipt(&[
        "aos2soa",
        &f,
        "--structs",
        "100",
        "--fields",
        "7",
        "--elem-size",
        "4",
    ]));
    let soa = std::fs::read(&f).unwrap();
    // Field k of struct i moved from (i*7 + k) to (k*100 + i).
    assert_eq!(
        &soa[(3 * 100 + 5) * 4..(3 * 100 + 5) * 4 + 4],
        &orig[(5 * 7 + 3) * 4..(5 * 7 + 3) * 4 + 4]
    );
    assert_ok(&ipt(&[
        "soa2aos",
        &f,
        "--structs",
        "100",
        "--fields",
        "7",
        "--elem-size",
        "4",
    ]));
    assert_eq!(std::fs::read(&f).unwrap(), orig);
}

#[test]
fn col_major_layout_flag() {
    let f = tmpfile("colmajor.bin");
    assert_ok(&ipt(&[
        "gen",
        &f,
        "--rows",
        "5",
        "--cols",
        "8",
        "--elem-size",
        "8",
    ]));
    let orig = std::fs::read(&f).unwrap();
    assert_ok(&ipt(&[
        "transpose",
        &f,
        "--rows",
        "5",
        "--cols",
        "8",
        "--elem-size",
        "8",
        "--layout",
        "col",
    ]));
    assert_ok(&ipt(&[
        "transpose",
        &f,
        "--rows",
        "8",
        "--cols",
        "5",
        "--elem-size",
        "8",
        "--layout",
        "col",
    ]));
    assert_eq!(std::fs::read(&f).unwrap(), orig);
}

#[test]
fn info_reports_shapes() {
    let f = tmpfile("info.bin");
    assert_ok(&ipt(&[
        "gen",
        &f,
        "--rows",
        "6",
        "--cols",
        "6",
        "--elem-size",
        "4",
    ]));
    let out = ipt(&["info", &f, "--elem-size", "4"]);
    assert_ok(&out);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("36 elements"), "{text}");
    assert!(text.contains("6x6"), "{text}");
}

#[test]
fn bad_usage_fails_cleanly() {
    for args in [
        &["transpose"][..],
        &[
            "transpose",
            "/nonexistent",
            "--rows",
            "2",
            "--cols",
            "2",
            "--elem-size",
            "1",
        ][..],
        &["bogus", "x"][..],
        &["transpose", "x", "--rows", "two"][..],
    ] {
        let out = ipt(args);
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("error:"),
            "{args:?} should explain itself"
        );
    }
}

#[test]
fn size_mismatch_rejected() {
    let f = tmpfile("short.bin");
    std::fs::write(&f, vec![0u8; 10]).unwrap();
    let out = ipt(&[
        "transpose",
        &f,
        "--rows",
        "4",
        "--cols",
        "4",
        "--elem-size",
        "4",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("expected 64 bytes"));
}

#[test]
fn help_prints_usage() {
    let out = ipt(&["--help"]);
    assert_ok(&out);
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn bench_quick_emits_wellformed_report() {
    let f = tmpfile("BENCH_smoke.json");
    assert_ok(&ipt(&[
        "bench",
        "--suite",
        "transpose",
        "--quick",
        "--samples",
        "1",
        "--out",
        &f,
    ]));
    let report = ipt_bench::report::BenchReport::load(&f).expect("well-formed report");
    assert_eq!(report.name, "transpose");
    assert!(!report.entries.is_empty());
    // The parallel entries carry the per-phase wall-time breakdown.
    let phased = report
        .entries
        .iter()
        .find(|e| e.algorithm == "c2r_parallel")
        .expect("c2r_parallel entry");
    assert!(
        phased
            .phases
            .iter()
            .any(|p| p.name == "row_shuffle" && p.nanos > 0),
        "{:?}",
        phased.phases
    );
    // Comparing a report against itself finds no regression: exit 0.
    assert_ok(&ipt(&["bench", "--compare", &f, &f]));
}

#[test]
fn bench_kernels_quick_emits_full_entry_set() {
    let f = tmpfile("BENCH_kernels_smoke.json");
    assert_ok(&ipt(&[
        "bench",
        "--suite",
        "kernels",
        "--quick",
        "--samples",
        "1",
        "--out",
        &f,
    ]));
    let report = ipt_bench::report::BenchReport::load(&f).expect("well-formed report");
    assert_eq!(report.name, "kernels");
    assert_eq!(report.threads, 1, "kernels suite pins the pool to 1 thread");
    // --quick must keep the full (algorithm, shape) entry set: the compare
    // key is (algorithm, m, n), so a CI smoke run has to produce the same
    // entries as the committed full-rep BENCH_kernels.json baseline.
    for alg in [
        "row_shuffle_scalar",
        "row_shuffle_block4",
        "row_shuffle_block8",
        "row_shuffle_auto",
    ] {
        for (m, n) in [(2048, 1024), (1024, 2048), (1024, 1024), (1031, 1024)] {
            assert!(
                report
                    .entries
                    .iter()
                    .any(|e| e.algorithm == alg && e.m == m && e.n == n && e.median_gbps > 0.0),
                "missing entry {alg} {m}x{n}"
            );
        }
    }
    // Comparing the smoke report against itself exercises the same
    // emit -> parse -> compare pipeline CI gates on: exit 0.
    assert_ok(&ipt(&["bench", "--compare", &f, &f]));
}

#[test]
fn ipt_kernel_env_override_reaches_the_dispatcher() {
    use std::process::Command;
    let run = |kernel: &str| {
        let f = tmpfile(&format!("BENCH_env_{kernel}.json"));
        Command::new(env!("CARGO_BIN_EXE_ipt-cli"))
            .args([
                "bench",
                "--suite",
                "transpose",
                "--quick",
                "--samples",
                "1",
                "--out",
                &f,
            ])
            .env("IPT_KERNEL", kernel)
            .output()
            .expect("running ipt binary")
    };
    // A valid override is accepted silently.
    let out = run("scalar");
    assert_ok(&out);
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("IPT_KERNEL"),
        "valid override must not warn: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // An unknown value warns once and defers to the heuristic — it must
    // not abort the run.
    let out = run("avx512-dreams");
    assert_ok(&out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("IPT_KERNEL") && stderr.contains("avx512-dreams"),
        "unknown override should warn with the offending value: {stderr}"
    );
}

#[test]
fn bench_compare_flags_injected_regression() {
    use ipt_bench::report::{BenchEntry, BenchReport};
    let entry = |median: f64| BenchEntry {
        algorithm: "c2r".to_string(),
        m: 64,
        n: 32,
        elem_bytes: 8,
        samples: 5,
        median_gbps: median,
        p10_gbps: median,
        p90_gbps: median,
        phases: Vec::new(),
        model: None,
        recovery: None,
    };
    let report = |median: f64| BenchReport {
        name: "injected".to_string(),
        threads: 1,
        dispatch_tier: "static".to_string(),
        entries: vec![entry(median)],
    };
    let old = tmpfile("BENCH_old.json");
    let new = tmpfile("BENCH_new.json");
    report(10.0).save(&old).unwrap();

    // An 11% drop must fail the default 10% gate, with a distinct exit code.
    report(8.9).save(&new).unwrap();
    let out = ipt(&["bench", "--compare", &old, &new]);
    assert!(!out.status.success(), "11% regression must exit nonzero");
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("regressed"));

    // A 5% drop passes the default gate but fails a tighter one.
    report(9.5).save(&new).unwrap();
    assert_ok(&ipt(&["bench", "--compare", &old, &new]));
    let out = ipt(&["bench", "--compare", &old, &new, "--threshold", "2"]);
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn bench_compare_skips_on_mismatched_environment_stamps() {
    use ipt_bench::report::{BenchEntry, BenchReport};
    let entry = |median: f64| BenchEntry {
        algorithm: "c2r".to_string(),
        m: 64,
        n: 32,
        elem_bytes: 8,
        samples: 5,
        median_gbps: median,
        p10_gbps: median,
        p90_gbps: median,
        phases: Vec::new(),
        model: None,
        recovery: None,
    };
    let report = |median: f64, threads: usize| BenchReport {
        name: "stamped".to_string(),
        threads,
        dispatch_tier: "static".to_string(),
        entries: vec![entry(median)],
    };
    let old = tmpfile("BENCH_stamp_old.json");
    let new = tmpfile("BENCH_stamp_new.json");
    report(10.0, 1).save(&old).unwrap();
    // A collapse measured on a different thread count must not gate —
    // the numbers are apples to oranges — but the skip must be loud.
    report(0.1, 4).save(&new).unwrap();
    let out = ipt(&["bench", "--compare", &old, &new]);
    assert_ok(&out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("skipped") && stdout.contains("thread"),
        "mismatch must be explained: {stdout}"
    );
    // Same stamps: the identical collapse gates as usual.
    report(0.1, 1).save(&new).unwrap();
    let out = ipt(&["bench", "--compare", &old, &new]);
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn bench_rejects_bad_flags() {
    for args in [
        &["bench"][..],
        &["bench", "--suite", "nonsense"][..],
        &["bench", "--suite", "transpose", "--compare", "a", "b"][..],
        &["bench", "--bogus"][..],
        &[
            "bench",
            "--compare",
            "/nonexistent/a.json",
            "/nonexistent/b.json",
        ][..],
        // A lone --compare path without --history has no baseline.
        &["bench", "--compare", "a.json"][..],
        // Two paths *and* a history dir is ambiguous about the baseline.
        &["bench", "--compare", "a.json", "b.json", "--history", "d"][..],
        // --window is a trend-gate knob only.
        &["bench", "--compare", "a.json", "b.json", "--window", "4"][..],
        // --scaling only makes sense where the pool parallelism matters.
        &["bench", "--suite", "transpose", "--scaling"][..],
        &["bench", "--compare", "a.json", "b.json", "--scaling"][..],
    ] {
        let out = ipt(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} should exit 2");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("error:"),
            "{args:?} should explain itself"
        );
    }
}

#[test]
fn bench_validates_numeric_flags_cleanly() {
    // (args, substring the clean error must contain)
    let cases: &[(&[&str], &str)] = &[
        (
            &[
                "bench",
                "--compare",
                "a.json",
                "b.json",
                "--threshold",
                "-5",
            ],
            "--threshold",
        ),
        (
            &[
                "bench",
                "--compare",
                "a.json",
                "b.json",
                "--threshold",
                "inf",
            ],
            "--threshold",
        ),
        (
            // Overflows u64/usize: must produce the same clean message as
            // any other malformed value, not a cryptic parse error.
            &[
                "bench",
                "--suite",
                "transpose",
                "--samples",
                "99999999999999999999999999",
            ],
            "invalid value \"99999999999999999999999999\" for --samples",
        ),
        (
            &["bench", "--suite", "transpose", "--samples", "0"],
            "--samples",
        ),
        (
            &["bench", "--suite", "transpose", "--threads", "0"],
            "--threads",
        ),
        (
            &["bench", "--suite", "transpose", "--threads", "many"],
            "invalid value \"many\" for --threads",
        ),
    ];
    for (args, needle) in cases {
        let out = ipt(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} should exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(needle),
            "{args:?}: expected {needle:?} in: {stderr}"
        );
    }
}

#[test]
fn bench_compare_zero_baseline_cannot_mask_regression() {
    use ipt_bench::report::{BenchEntry, BenchReport};
    let entry = |median: f64| BenchEntry {
        algorithm: "c2r".to_string(),
        m: 64,
        n: 32,
        elem_bytes: 8,
        samples: 5,
        median_gbps: median,
        p10_gbps: median,
        p90_gbps: median,
        phases: Vec::new(),
        model: None,
        recovery: None,
    };
    let old = tmpfile("BENCH_zero_old.json");
    let new = tmpfile("BENCH_zero_new.json");
    BenchReport {
        name: "injected".to_string(),
        threads: 1,
        dispatch_tier: "static".to_string(),
        entries: vec![entry(0.0)],
    }
    .save(&old)
    .unwrap();
    BenchReport {
        name: "injected".to_string(),
        threads: 1,
        dispatch_tier: "static".to_string(),
        entries: vec![entry(0.001)],
    }
    .save(&new)
    .unwrap();
    // Before the fix, a zeroed baseline produced change_pct = 0 and the
    // gate passed no matter how slow NEW was.
    let out = ipt(&["bench", "--compare", &old, &new]);
    assert_eq!(out.status.code(), Some(3), "zero baseline must flag");
    assert!(String::from_utf8_lossy(&out.stdout).contains("baseline"));
}

#[test]
fn bench_compare_surfaces_one_sided_entries() {
    use ipt_bench::report::{BenchEntry, BenchReport};
    let entry = |alg: &str| BenchEntry {
        algorithm: alg.to_string(),
        m: 8,
        n: 8,
        elem_bytes: 8,
        samples: 1,
        median_gbps: 1.0,
        p10_gbps: 1.0,
        p90_gbps: 1.0,
        phases: Vec::new(),
        model: None,
        recovery: None,
    };
    let report = |algs: &[&str]| BenchReport {
        name: "sided".to_string(),
        threads: 1,
        dispatch_tier: "static".to_string(),
        entries: algs.iter().map(|a| entry(a)).collect(),
    };
    let old = tmpfile("BENCH_sided_old.json");
    let new = tmpfile("BENCH_sided_new.json");
    report(&["kept", "gone"]).save(&old).unwrap();
    report(&["kept", "added", "added2"]).save(&new).unwrap();
    let out = ipt(&["bench", "--compare", &old, &new]);
    assert_ok(&out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("1 entry only in") && stdout.contains("2 only in"),
        "one-sided entries must be counted, not dropped: {stdout}"
    );
}

#[test]
fn bench_history_stamp_is_deterministic_under_source_date_epoch() {
    let dir = tmpfile("hist_deterministic");
    // CARGO_TARGET_TMPDIR persists across `cargo test` runs; start fresh so
    // archives from a previous run can't shift the sequence numbers.
    let _ = std::fs::remove_dir_all(&dir);
    let f = tmpfile("BENCH_hist_det.json");
    let run = || {
        Command::new(env!("CARGO_BIN_EXE_ipt-cli"))
            .args([
                "bench",
                "--suite",
                "transpose",
                "--quick",
                "--samples",
                "1",
                "--out",
                &f,
                "--history",
                &dir,
            ])
            .env("SOURCE_DATE_EPOCH", "1700000000")
            .output()
            .expect("running ipt binary")
    };
    assert_ok(&run());
    assert_ok(&run());
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_str().unwrap().to_string())
        .collect();
    names.sort();
    // Same pinned epoch on both runs: identical stamps (1700000000 is
    // 2023-11-14 22:13:20 UTC), disambiguated by the sequence number.
    // The transpose suite pins the pool to one thread, hence `-t1-`.
    assert_eq!(
        names,
        [
            "ipt-bench-transpose-20231114T221320Z-0001-t1-auto.json",
            "ipt-bench-transpose-20231114T221320Z-0002-t1-auto.json",
        ]
    );
    // The archive gates a matching fresh report end-to-end. A huge
    // threshold keeps this assertion about plumbing, not perf: --samples 1
    // on a busy host is far too noisy for the default 10% gate.
    assert_ok(&ipt(&[
        "bench",
        "--compare",
        &f,
        "--history",
        &dir,
        "--threshold",
        "1000",
    ]));
}

#[test]
fn bench_trend_gate_flags_creeping_regression() {
    use ipt_bench::history;
    use ipt_bench::report::{BenchEntry, BenchReport};
    let entry = |median: f64| BenchEntry {
        algorithm: "c2r".to_string(),
        m: 64,
        n: 32,
        elem_bytes: 8,
        samples: 5,
        median_gbps: median,
        p10_gbps: median,
        p90_gbps: median,
        phases: Vec::new(),
        model: None,
        recovery: None,
    };
    let report = |median: f64| BenchReport {
        name: "synthetic".to_string(),
        threads: 1,
        dispatch_tier: "static".to_string(),
        entries: vec![entry(median)],
    };
    let dir = tmpfile("hist_creeping");
    // CARGO_TARGET_TMPDIR persists across `cargo test` runs; start fresh so
    // stale archives can't dilute the synthetic declining series.
    let _ = std::fs::remove_dir_all(&dir);
    // Five runs, each 4% slower than the last: the classic creeping
    // regression that slips under a 10% pairwise gate five PRs in a row.
    let medians = [100.0, 96.0, 92.16, 88.4736, 84.934656];
    let mut paths = Vec::new();
    for (i, &m) in medians[..4].iter().enumerate() {
        paths.push(history::append_at(&dir, &report(m), "auto", 1_000 + i as u64 * 60).unwrap());
    }
    let newest = tmpfile("BENCH_creeping_new.json");
    report(medians[4]).save(&newest).unwrap();
    // Every adjacent pair passes the plain pairwise gate at the default
    // 10% threshold (the archived files are themselves valid reports).
    for pair in paths.windows(2) {
        assert_ok(&ipt(&["bench", "--compare", &pair[0], &pair[1]]));
    }
    assert_ok(&ipt(&[
        "bench",
        "--compare",
        paths.last().unwrap(),
        &newest,
    ]));
    // ... but the trend gate sees the cumulative -15% drift and fails.
    let out = ipt(&["bench", "--compare", &newest, "--history", &dir]);
    assert_eq!(out.status.code(), Some(3), "drift must exit 3");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("DRIFT"),
        "table should flag drift: {stdout}"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("trend gate"),
        "stderr should explain the failure"
    );
}

#[test]
fn bench_trend_compare_needs_existing_history() {
    use ipt_bench::report::BenchReport;
    let newest = tmpfile("BENCH_nohist_new.json");
    BenchReport {
        name: "lonely".to_string(),
        threads: 1,
        dispatch_tier: "static".to_string(),
        entries: Vec::new(),
    }
    .save(&newest)
    .unwrap();
    let dir = tmpfile("hist_missing_dir");
    std::fs::create_dir_all(&dir).unwrap();
    let out = ipt(&["bench", "--compare", &newest, "--history", &dir]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no archived reports"));
}

#[test]
fn bench_aos_and_batched_quick_emit_full_entry_sets() {
    // Like the kernels suite, --quick must keep the committed baseline's
    // full (algorithm, shape) key set so CI smoke runs stay comparable.
    type SuiteCase = (
        &'static str,
        &'static [&'static str],
        &'static [(usize, usize)],
    );
    let cases: [SuiteCase; 2] = [
        (
            "aos",
            &["aos_to_soa", "soa_to_aos"],
            &[(65536, 4), (65536, 12), (65521, 8)],
        ),
        (
            "batched",
            &["c2r_batched_b16", "r2c_batched_b16"],
            &[(192, 256), (320, 96), (257, 131)],
        ),
    ];
    for (suite, algs, shapes) in cases {
        let f = tmpfile(&format!("BENCH_{suite}_smoke.json"));
        assert_ok(&ipt(&[
            "bench",
            "--suite",
            suite,
            "--quick",
            "--samples",
            "1",
            "--out",
            &f,
        ]));
        let report = ipt_bench::report::BenchReport::load(&f).expect("well-formed report");
        assert_eq!(report.name, suite);
        for alg in algs {
            for &(m, n) in shapes {
                assert!(
                    report.entries.iter().any(|e| e.algorithm == *alg
                        && e.m == m
                        && e.n == n
                        && e.median_gbps > 0.0),
                    "missing entry {alg} {m}x{n} in suite {suite}"
                );
            }
        }
        // Self-compare round-trips the emit -> parse -> gate pipeline.
        assert_ok(&ipt(&["bench", "--compare", &f, &f]));
    }
}

/// Run the binary with extra environment variables set.
fn ipt_env(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ipt-cli"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("running ipt binary")
}

#[test]
fn invalid_ipt_threads_warns_exactly_once_and_falls_back() {
    // The parallel suite leaves the pool on its environment default, so
    // IPT_THREADS actually reaches the parser (transpose/kernels pin the
    // pool to 1 thread and would mask the bug this regression-tests: the
    // old parser silently swallowed bad values via `.ok()`).
    let run = |threads: &str| {
        let f = tmpfile("BENCH_threads_env.json");
        ipt_env(
            &[
                "bench",
                "--suite",
                "parallel",
                "--quick",
                "--samples",
                "1",
                "--out",
                &f,
            ],
            &[("IPT_THREADS", threads)],
        )
    };
    for bad in ["0", "  0 ", "lots", "-3", ""] {
        let out = run(bad);
        assert_ok(&out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let warnings = stderr.lines().filter(|l| l.contains("IPT_THREADS")).count();
        assert_eq!(
            warnings, 1,
            "IPT_THREADS={bad:?} should warn exactly once: {stderr}"
        );
        assert!(
            stderr.contains("ipt: ignoring"),
            "warning should use the ignoring idiom: {stderr}"
        );
    }
    // A valid value (with shell-style padding) is accepted silently.
    let out = run(" 2 ");
    assert_ok(&out);
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("IPT_THREADS"),
        "valid IPT_THREADS must not warn: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn bench_stamps_the_dispatch_tier() {
    let f = tmpfile("BENCH_stamped.json");
    let bench = |envs: &[(&str, &str)]| {
        ipt_env(
            &[
                "bench",
                "--suite",
                "kernels",
                "--quick",
                "--samples",
                "1",
                "--out",
                &f,
            ],
            envs,
        )
    };

    // Without an override, the stamp records the static table.
    assert_ok(&bench(&[]));
    let report = ipt_bench::report::BenchReport::load(&f).expect("well-formed report");
    assert_eq!(report.dispatch_tier, "static");

    // An IPT_KERNEL override is stamped as such.
    assert_ok(&bench(&[("IPT_KERNEL", "scalar")]));
    let report = ipt_bench::report::BenchReport::load(&f).expect("well-formed report");
    assert_eq!(report.dispatch_tier, "override");
}

#[test]
fn bench_keep_prunes_history_oldest_first() {
    let dir = tmpfile("hist_keep");
    let _ = std::fs::remove_dir_all(&dir);
    let f = tmpfile("BENCH_keep.json");
    let run = || {
        ipt_env(
            &[
                "bench",
                "--suite",
                "transpose",
                "--quick",
                "--samples",
                "1",
                "--out",
                &f,
                "--history",
                &dir,
                "--keep",
                "1",
            ],
            &[("SOURCE_DATE_EPOCH", "1700000000")],
        )
    };
    assert_ok(&run());
    let out = run();
    assert_ok(&out);
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("pruned 1 archived run(s)"),
        "second run should prune the first archive"
    );
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_str().unwrap().to_string())
        .collect();
    // Only the newer archive (sequence 0002) survives --keep 1.
    assert_eq!(
        names,
        ["ipt-bench-transpose-20231114T221320Z-0002-t1-auto.json"]
    );

    // --keep outside a --suite run with --history is a usage error.
    for args in [
        &["bench", "--suite", "transpose", "--keep", "2"][..],
        &["bench", "--compare", "a.json", "b.json", "--keep", "2"][..],
        &[
            "bench",
            "--suite",
            "transpose",
            "--history",
            "d",
            "--keep",
            "0",
        ][..],
    ] {
        let out = ipt(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} should exit 2");
    }
}

#[test]
fn model_prints_predicted_vs_measured_table() {
    let out = ipt(&[
        "model",
        "--rows",
        "96",
        "--cols",
        "64",
        "--elem",
        "8",
        "--samples",
        "3",
    ]);
    assert_ok(&out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    // gcd(96, 64) = 32: all three C2R phases appear, with the share
    // columns and the agreement summary.
    for needle in [
        "pre_rotate",
        "row_shuffle",
        "col_shuffle",
        "predicted",
        "measured",
        "divergence",
        "rank agreement",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }
}

#[test]
fn model_on_a_tiled_shape_prints_the_route_and_models_no_phase() {
    let shape = ["model", "--rows", "1024", "--cols", "1536", "--elem", "8"];
    let out = ipt(&[&shape[..], &["--samples", "1"]].concat());
    assert_ok(&out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("route: tiled, L = 512"), "{stdout}");
    // Every measured row, the tile and panel passes included, is marked
    // not modelled, and no element-path share or divergence is printed.
    for phase in ["chunk_transpose", "block_permute", "row_shuffle"] {
        let row = stdout
            .lines()
            .find(|l| l.trim_start().starts_with(phase))
            .unwrap_or_else(|| panic!("no {phase} row in:\n{stdout}"));
        assert!(row.contains("not modelled"), "{row}");
    }
    assert!(!stdout.contains("divergence"), "{stdout}");
    // The gate cannot judge a route the model does not describe.
    let out = ipt(&[&shape[..], &["--samples", "1", "--max-divergence", "0.9"]].concat());
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("tiled route"));
    // An element-path shape names its route too.
    let out = ipt(&[
        "model",
        "--rows",
        "96",
        "--cols",
        "64",
        "--elem",
        "8",
        "--samples",
        "1",
    ]);
    assert_ok(&out);
    assert!(String::from_utf8_lossy(&out.stdout).contains("route: element path"));
}

/// `ipt model` prints the plan of the call it runs: for each element
/// size, the text `ipt_parallel::Plan` gives for that call, line for
/// line.
#[test]
fn model_prints_the_plan_of_each_route() {
    use ipt_core::{Algorithm, Layout};
    use ipt_parallel::{ParOptions, Plan};
    // (shape, forced direction, rows x cols of the buffer it runs on): an
    // element C2R shape with gcd 32, a coprime element R2C shape, two
    // shapes that are tiled for 8- and 16-byte elements (the second one
    // block column wide for 8-byte elements) and one that is tiled for
    // 4-, 8- and 16-byte elements.
    let cases = [
        ((96, 64), Algorithm::C2r, (96, 64)),
        ((61, 48), Algorithm::R2c, (48, 61)),
        ((1024, 1536), Algorithm::C2r, (1024, 1536)),
        ((1024, 512), Algorithm::C2r, (1024, 512)),
        ((1024, 2048), Algorithm::C2r, (1024, 2048)),
    ];
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    for ((m, n), alg, (rows, cols)) in cases {
        let dir = if alg == Algorithm::C2r { "c2r" } else { "r2c" };
        for elem in [1usize, 2, 4, 8, 16] {
            let out = ipt(&[
                "model",
                "--rows",
                &m.to_string(),
                "--cols",
                &n.to_string(),
                "--elem",
                &elem.to_string(),
                "--algorithm",
                dir,
                "--samples",
                "1",
            ]);
            assert_ok(&out);
            let stdout = String::from_utf8_lossy(&out.stdout);
            let core = ipt_core::Plan::new(m * n, rows, cols, Layout::RowMajor, alg);
            let plan = Plan::new(core, elem, &ParOptions::default());
            for line in plan.to_string().lines() {
                assert!(
                    stdout.lines().any(|l| l.trim() == line),
                    "{m}x{n} {dir} elem {elem}: no {line:?} in:\n{stdout}"
                );
            }
            let plan = plan.to_string();
            match (m, n, elem) {
                (96, _, _) => assert!(plan.contains("= 32: pre_rotate runs"), "{plan}"),
                (61, _, _) => assert!(plan.contains("= 1: post_rotate is skipped"), "{plan}"),
                (_, _, 8) => assert!(plan.contains("route: tiled, L = 512, P = 2"), "{plan}"),
                (_, _, 16) => assert!(plan.contains("route: tiled, L = 256, P = 4"), "{plan}"),
                (_, 2048, 4) => assert!(plan.contains("route: tiled, L = 1024, P = 1"), "{plan}"),
                _ => assert!(plan.contains("route: element path"), "{plan}"),
            }
            // The chunk kernel: AVX2 for 8-byte tiles when the host has
            // it, scalar for every other element size.
            if plan.contains("route: tiled") {
                let kernel = match elem {
                    8 if avx2 => "chunk kernel: avx2 4 x 4",
                    _ => "chunk kernel: scalar 16 x 16 sub-tile pairs",
                };
                assert!(plan.contains(kernel), "elem {elem}: {plan}");
                assert!(stdout.contains(kernel), "elem {elem}: {stdout}");
            }
        }
    }
}

#[test]
fn model_gate_fails_on_impossible_threshold() {
    // Perfect agreement (divergence 0.000) is unattainable on real
    // timers at 3 decimal places of tolerance 0 — the gate must trip
    // with the dedicated exit code.
    let out = ipt(&[
        "model",
        "--rows",
        "96",
        "--cols",
        "64",
        "--elem",
        "8",
        "--samples",
        "3",
        "--max-divergence",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(3), "gate must exit 3");
    assert!(String::from_utf8_lossy(&out.stderr).contains("divergence"));
    // A generous threshold passes.
    let out = ipt(&[
        "model",
        "--rows",
        "96",
        "--cols",
        "64",
        "--elem",
        "8",
        "--samples",
        "3",
        "--max-divergence",
        "0.9",
    ]);
    assert_ok(&out);
    assert!(String::from_utf8_lossy(&out.stdout).contains("gate ok"));
}

#[test]
fn model_rejects_bad_flags() {
    for args in [
        &["model"][..],
        &["model", "--rows", "8", "--cols", "8"][..],
        &["model", "--rows", "8", "--cols", "8", "--elem", "3"][..],
        &["model", "--rows", "1", "--cols", "8", "--elem", "8"][..],
        &[
            "model", "--rows", "8", "--cols", "8", "--elem", "8", "--device", "tpu",
        ][..],
        &[
            "model",
            "--rows",
            "8",
            "--cols",
            "8",
            "--elem",
            "8",
            "--algorithm",
            "x",
        ][..],
        &[
            "model",
            "--rows",
            "8",
            "--cols",
            "8",
            "--elem",
            "8",
            "--max-divergence",
            "2",
        ][..],
        &["model", "--bogus", "1"][..],
    ] {
        let out = ipt(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} should exit 2");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("error:"),
            "{args:?} should explain itself"
        );
    }
    let out = ipt(&["model", "--help"]);
    assert_ok(&out);
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn bench_model_stamps_transpose_entries() {
    use ipt_bench::report::BenchReport;
    let out_path = tmpfile("BENCH_model_stamp.json");
    let out = ipt(&[
        "bench",
        "--suite",
        "transpose",
        "--quick",
        "--samples",
        "1",
        "--model",
        "--out",
        &out_path,
    ]);
    assert_ok(&out);
    let report = BenchReport::load(&out_path).unwrap();
    for e in &report.entries {
        if e.algorithm.starts_with("c2r_parallel") || e.algorithm.starts_with("r2c_parallel") {
            let model = e.model.as_ref().unwrap_or_else(|| {
                panic!("{} {}x{} should carry a model stamp", e.algorithm, e.m, e.n)
            });
            assert_eq!(model.device, "cpu");
            assert!((0.0..=1.0).contains(&model.divergence), "{model:?}");
            let pred_total: f64 = model.phases.iter().map(|p| p.predicted).sum();
            let meas_total: f64 = model.phases.iter().map(|p| p.measured).sum();
            assert!((pred_total - 1.0).abs() < 1e-9, "{model:?}");
            assert!((meas_total - 1.0).abs() < 1e-9, "{model:?}");
        }
        // Every measured phase now carries its payload-bytes tally.
        for p in &e.phases {
            if p.nanos > 0 && e.algorithm.contains("parallel") {
                assert!(p.bytes > 0, "{} {}: no bytes", e.algorithm, p.name);
            }
        }
    }
    // The stamp round-trips through the JSON text ("model" key present).
    let text = std::fs::read_to_string(&out_path).unwrap();
    assert!(text.contains("\"model\""), "stamp missing from JSON");
    assert!(text.contains("\"model_phases\""));
    // Without --model the stamp is absent.
    let plain_path = tmpfile("BENCH_model_plain.json");
    let out = ipt(&[
        "bench",
        "--suite",
        "transpose",
        "--quick",
        "--samples",
        "1",
        "--out",
        &plain_path,
    ]);
    assert_ok(&out);
    let report = BenchReport::load(&plain_path).unwrap();
    assert!(report.entries.iter().all(|e| e.model.is_none()));
}

#[test]
fn bench_model_requires_a_suite_run() {
    let old = tmpfile("BENCH_model_old.json");
    let new = tmpfile("BENCH_model_new.json");
    std::fs::write(&old, "{}").unwrap();
    std::fs::write(&new, "{}").unwrap();
    let out = ipt(&["bench", "--compare", &old, &new, "--model"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--model"));
}
