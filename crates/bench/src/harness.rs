//! Shared machinery for the figure/table harness binaries.
//!
//! Every binary follows the same shape as the paper's evaluation (§5–§6):
//! generate a randomized workload, time each implementation, convert to
//! the paper's throughput metric (Eq. 37: `2*m*n*s / t` — every ideal
//! transpose reads and writes each element once), and report medians,
//! histograms and CSV series.

use std::fmt::Write as _;
use std::time::Instant;

/// Common command-line options for the harness binaries.
///
/// All binaries accept:
/// `--samples N  --min N  --max N  --seed N  --full  --verify
///  --csv PATH  --alg NAME` (flag meanings are per-binary; unknown flags
/// abort with a usage message).
#[derive(Debug, Clone)]
pub struct Args {
    /// Number of randomly sized matrices to measure.
    pub samples: usize,
    /// Inclusive lower bound of each random dimension.
    pub min_dim: usize,
    /// Exclusive upper bound of each random dimension.
    pub max_dim: usize,
    /// RNG seed (fixed default so runs reproduce).
    pub seed: u64,
    /// Run the paper-scale parameters instead of the laptop-scale ones.
    pub full: bool,
    /// Verify every transposition against the reference (slower).
    pub verify: bool,
    /// Optional CSV output path.
    pub csv: Option<String>,
    /// Algorithm selector for multi-algorithm binaries.
    pub alg: Option<String>,
    /// Mode selector (e.g. measured vs analytical-model runs).
    pub mode: Option<String>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            samples: 0,
            min_dim: 0,
            max_dim: 0,
            seed: 0x1f2e3d4c,
            full: false,
            verify: false,
            csv: None,
            alg: None,
            mode: None,
        }
    }
}

/// Why [`Args::try_parse`] stopped: the caller decides how to exit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// `--help`/`-h` was given; print usage and exit 0.
    Help,
    /// A flag was unknown, missing its value, or malformed; print the
    /// message (plus usage) and exit nonzero.
    Bad(String),
}

impl Args {
    /// Parse `std::env::args`, starting from defaults supplied by the
    /// binary (which then get overridden by `--full` or explicit flags).
    ///
    /// Printing wrapper around [`Args::try_parse`]: on `--help` or a bad
    /// flag it prints the usage (plus the message) and returns the exit
    /// code the binary should stop with (`0` or `2`).
    pub fn parse(usage: &str) -> Result<Args, i32> {
        match Args::try_parse(std::env::args().skip(1)) {
            Ok(args) => Ok(args),
            Err(ArgsError::Help) => {
                println!("{usage}");
                Err(0)
            }
            Err(ArgsError::Bad(msg)) => {
                eprintln!("{msg}\n{usage}");
                Err(2)
            }
        }
    }

    /// Parse an explicit flag stream (no `argv[0]`). Pure — never prints
    /// or exits — so flag handling is unit-testable.
    pub fn try_parse(it: impl IntoIterator<Item = String>) -> Result<Args, ArgsError> {
        fn num<T: std::str::FromStr>(name: &str, v: String) -> Result<T, ArgsError> {
            v.parse()
                .map_err(|_| ArgsError::Bad(format!("invalid value {v:?} for {name}")))
        }
        let mut args = Args::default();
        let mut it = it.into_iter();
        while let Some(flag) = it.next() {
            let mut grab = |name: &str| {
                it.next()
                    .ok_or_else(|| ArgsError::Bad(format!("missing value for {name}")))
            };
            match flag.as_str() {
                "--samples" => args.samples = num("--samples", grab("--samples")?)?,
                "--min" => args.min_dim = num("--min", grab("--min")?)?,
                "--max" => args.max_dim = num("--max", grab("--max")?)?,
                "--seed" => args.seed = num("--seed", grab("--seed")?)?,
                "--csv" => args.csv = Some(grab("--csv")?),
                "--alg" => args.alg = Some(grab("--alg")?),
                "--mode" => args.mode = Some(grab("--mode")?),
                "--full" => args.full = true,
                "--verify" => args.verify = true,
                "--help" | "-h" => return Err(ArgsError::Help),
                other => return Err(ArgsError::Bad(format!("unknown flag {other}"))),
            }
        }
        Ok(args)
    }
}

/// Time one closure invocation in seconds.
pub fn time_secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// The paper's throughput metric (Eq. 37): `2 * m * n * s / t` in GB/s,
/// where `s` is the element size in bytes and `t` seconds.
pub fn throughput_gbps(m: usize, n: usize, elem_bytes: usize, secs: f64) -> f64 {
    (2 * m * n * elem_bytes) as f64 / secs / 1e9
}

/// Median of a sample set (averaging the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-th percentile (0–100), nearest-rank.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
    v[rank.min(v.len() - 1)]
}

/// Render an ASCII histogram in the style of the paper's Figures 3, 6
/// and 7: fixed-width buckets over `[0, max)`, bar lengths normalized,
/// and the median marked.
pub fn ascii_histogram(xs: &[f64], buckets: usize, label: &str) -> String {
    assert!(buckets > 0);
    let mut out = String::new();
    if xs.is_empty() {
        let _ = writeln!(out, "{label}: (no samples)");
        return out;
    }
    let max = xs.iter().cloned().fold(f64::MIN, f64::max).max(1e-12);
    let med = median(xs);
    let width = max / buckets as f64;
    let mut counts = vec![0usize; buckets];
    for &x in xs {
        let b = ((x / width) as usize).min(buckets - 1);
        counts[b] += 1;
    }
    let peak = *counts.iter().max().unwrap() as f64;
    let _ = writeln!(out, "{label}   (n = {}, median = {med:.3} GB/s)", xs.len());
    for (b, &c) in counts.iter().enumerate() {
        let lo = b as f64 * width;
        let bar_len = ((c as f64 / peak) * 50.0).round() as usize;
        let has_median = med >= lo && med < lo + width;
        let _ = writeln!(
            out,
            "  {lo:8.3} |{}{} {}",
            "#".repeat(bar_len),
            if has_median { " <-- median" } else { "" },
            if c > 0 {
                format!("({c})")
            } else {
                String::new()
            },
        );
    }
    out
}

/// Accumulates `header` + rows and writes them out at the end.
#[derive(Debug, Default)]
pub struct Csv {
    rows: Vec<String>,
}

impl Csv {
    /// Start a CSV with the given header row.
    pub fn new(header: &str) -> Csv {
        Csv {
            rows: vec![header.to_string()],
        }
    }

    /// Append one data row.
    pub fn row(&mut self, row: String) {
        self.rows.push(row);
    }

    /// Write to `path` if given, else no-op. Reports where it wrote.
    pub fn finish(&self, path: &Option<String>) {
        if let Some(p) = path {
            std::fs::write(p, self.rows.join("\n") + "\n").expect("writing CSV");
            eprintln!("wrote {} rows to {p}", self.rows.len() - 1);
        }
    }
}

/// A tiny deterministic RNG (xoshiro-ish splitmix) so harnesses don't pull
/// the full rand crate into every binary's hot path; statistical quality
/// is ample for workload sizing.
#[derive(Debug, Clone)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Seeded constructor.
    pub fn new(seed: u64) -> Rng64 {
        Rng64 {
            state: seed ^ 0x9e3779b97f4a7c15,
        }
    }

    /// Next raw 64-bit value (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(hi > lo, "empty range");
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

/// Fill a buffer with position-derived values (cheap, no allocation).
pub fn fill_u64(buf: &mut [u64], salt: u64) {
    for (i, v) in buf.iter_mut().enumerate() {
        *v = (i as u64).wrapping_mul(0x9e3779b97f4a7c15) ^ salt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 100.0), 5.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 50.0), 3.0);
    }

    #[test]
    fn throughput_formula_matches_eq37() {
        // 1000x1000 f64 in 1 ms: 2 * 8 MB / 1e-3 = 16 GB/s.
        let t = throughput_gbps(1000, 1000, 8, 1e-3);
        assert!((t - 16.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_renders_and_marks_median() {
        let xs = vec![1.0, 2.0, 2.5, 3.0, 9.9];
        let h = ascii_histogram(&xs, 10, "test");
        assert!(h.contains("median = 2.500"));
        assert!(h.contains("<-- median"));
        assert_eq!(h.lines().count(), 11);
    }

    #[test]
    fn rng_is_deterministic_and_in_range() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(1);
        for _ in 0..100 {
            let x = a.range(10, 20);
            assert_eq!(x, b.range(10, 20));
            assert!((10..20).contains(&x));
        }
    }

    fn flags(list: &[&str]) -> Result<Args, ArgsError> {
        Args::try_parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn try_parse_accepts_the_full_flag_set() {
        let a = flags(&[
            "--samples",
            "12",
            "--min",
            "4",
            "--max",
            "99",
            "--seed",
            "7",
            "--full",
            "--verify",
            "--csv",
            "out.csv",
            "--alg",
            "c2r",
            "--mode",
            "measured",
        ])
        .unwrap();
        assert_eq!(a.samples, 12);
        assert_eq!(a.min_dim, 4);
        assert_eq!(a.max_dim, 99);
        assert_eq!(a.seed, 7);
        assert!(a.full && a.verify);
        assert_eq!(a.csv.as_deref(), Some("out.csv"));
        assert_eq!(a.alg.as_deref(), Some("c2r"));
        assert_eq!(a.mode.as_deref(), Some("measured"));
    }

    #[test]
    fn try_parse_empty_is_defaults() {
        let a = flags(&[]).unwrap();
        assert_eq!(a.seed, Args::default().seed);
        assert!(!a.full);
    }

    #[test]
    fn try_parse_rejects_unknown_flags() {
        match flags(&["--bogus"]) {
            Err(ArgsError::Bad(msg)) => assert!(msg.contains("--bogus"), "{msg}"),
            other => panic!("expected Bad, got {other:?}"),
        }
    }

    #[test]
    fn try_parse_rejects_missing_and_malformed_values() {
        assert!(matches!(flags(&["--samples"]), Err(ArgsError::Bad(_))));
        match flags(&["--samples", "lots"]) {
            Err(ArgsError::Bad(msg)) => assert!(msg.contains("lots"), "{msg}"),
            other => panic!("expected Bad, got {other:?}"),
        }
    }

    #[test]
    fn try_parse_reports_help() {
        assert!(matches!(flags(&["--help"]), Err(ArgsError::Help)));
        assert!(matches!(flags(&["-h"]), Err(ArgsError::Help)));
    }

    #[test]
    fn csv_accumulates() {
        let mut c = Csv::new("a,b");
        c.row("1,2".into());
        c.finish(&None); // no path: no-op, no panic
        assert_eq!(c.rows.len(), 2);
    }
}
